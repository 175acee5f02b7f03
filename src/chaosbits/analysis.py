"""Signal and orbit analysis for generated bitstreams.

Four tool families: auto/cross-correlation of the +/-1-mapped sequence,
its power spectrum with a flatness summary, cycle detection over the
generator's digital state orbit (with the ideal-period law for forced
periodic drivers), and a phase-space distance combining a Boolean
component with a strategy-prefix component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .generator import ChaoticBitGenerator, GeneratorConfig, TranscriptDriver, require_bits, require_int

__all__ = [
    "CorrelationSeries",
    "PowerSpectrum",
    "CycleReport",
    "BudgetExceeded",
    "autocorrelation",
    "cross_correlation",
    "power_spectrum",
    "detect_cycle",
    "ideal_period",
    "phase_distance",
    "phase_distance_tail_bound",
]


@dataclass(frozen=True)
class CorrelationSeries:
    """Correlation values over a lag range.

    values[t] is the value at lag t, for t = 0..max_lag.  For an
    autocorrelation of any non-constant input, the value at lag 0 is
    exactly 1.  degenerate marks inputs whose centered energy vanishes
    (constant sequences), for which the estimator is undefined and a
    fixed convention is reported instead.
    """

    values: tuple[float, ...]
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class PowerSpectrum:
    """Squared-magnitude spectrum of the +/-1-mapped sequence.

    power[k] is |X_k|^2 at frequency index k = 0..n//2 (DC through
    Nyquist), a read-only float64 array.  flatness is the ratio of the
    largest non-DC bin to the mean non-DC bin (infinite when the non-DC
    spectrum is empty of energy).  time_energy is sum(x^2) = n and
    spectral_energy is the full-spectrum (1/n) sum |X_k|^2; Parseval
    makes them equal up to rounding.  Spectra do not compare with ==.
    """

    power: np.ndarray
    flatness: float
    time_energy: float
    spectral_energy: float


@dataclass(frozen=True)
class CycleReport:
    """Transient length, cycle period and orbit length of a state orbit."""

    transient_length: int
    cycle_period: int
    orbit_length: int

    def __post_init__(self) -> None:
        if self.cycle_period < 1:
            raise ValueError("CycleReport: cycle_period must be >= 1")
        if self.transient_length < 0:
            raise ValueError("CycleReport: transient_length must be >= 0")
        if self.orbit_length != self.transient_length + self.cycle_period:
            raise ValueError("CycleReport: orbit_length must equal transient + period")


@dataclass(frozen=True)
class BudgetExceeded:
    """Explicit no-cycle-found-within-budget result (not an error)."""

    budget: int
    steps_executed: int


def _lagged_sums(a: np.ndarray, b: np.ndarray, max_lag: int) -> np.ndarray:
    """sum_i a_i b_(i+t) for t = 0..max_lag, by FFT (Wiener-Khinchin).

    Both inputs are zero-padded to a power of two of at least
    len(a) + max_lag, so no shift wraps around onto the start.  An
    autocorrelation (b is a) transforms its input once.
    """
    size = 1 << (a.size + max_lag - 1).bit_length()
    fa = np.fft.rfft(a, size)
    fb = fa if b is a else np.fft.rfft(b, size)
    return np.fft.irfft(np.conj(fa) * fb, size)[: max_lag + 1]


def autocorrelation(bits, max_lag: int) -> CorrelationSeries:
    """Mean-centered, biased autocorrelation of the +/-1 sequence.

    r(tau) = sum a_i a_(i+tau) / sum a_i^2 over the overlap, where a is
    the centered sequence; the full-length energy in the denominator
    keeps values across lags comparable.  A constant input has no
    centered energy: it is flagged degenerate and reported with the
    convention r(0)=1, r(tau!=0)=0.
    """
    x = 2.0 * require_bits(bits) - 1.0
    n = x.size
    max_lag = require_int(max_lag, "autocorrelation: max_lag", 1)
    if n <= max_lag:
        raise ValueError(f"autocorrelation: sequence length {n} must exceed max_lag {max_lag}")
    a = x - x.mean()
    energy = float(np.sum(a * a))
    if energy == 0.0:
        return CorrelationSeries((1.0,) + (0.0,) * max_lag, degenerate=True)
    sums = _lagged_sums(a, a, max_lag)
    return CorrelationSeries((1.0,) + tuple((sums[1:] / energy).tolist()))


def cross_correlation(bits_a, bits_b, max_lag: int) -> CorrelationSeries:
    """Mean-centered cross-correlation of two equal-length sequences.

    Same estimator as the autocorrelation, normalized by the geometric
    mean of the two centered energies.  Positive lag shifts the second
    sequence forward: r(tau) = sum a_i b_(i+tau) / norm.  If either
    sequence is constant the estimator is undefined; the series is
    flagged degenerate and all values are reported as 0.
    """
    xa = 2.0 * require_bits(bits_a) - 1.0
    xb = 2.0 * require_bits(bits_b) - 1.0
    if xa.size != xb.size:
        raise ValueError(f"cross_correlation: lengths differ ({xa.size} vs {xb.size})")
    n = xa.size
    max_lag = require_int(max_lag, "cross_correlation: max_lag", 0)
    if n <= max_lag:
        raise ValueError(f"cross_correlation: sequence length {n} must exceed max_lag {max_lag}")
    a = xa - xa.mean()
    b = xb - xb.mean()
    norm = math.sqrt(float(np.sum(a * a)) * float(np.sum(b * b)))
    if norm == 0.0:
        return CorrelationSeries((0.0,) * (max_lag + 1), degenerate=True)
    return CorrelationSeries(tuple((_lagged_sums(a, b, max_lag) / norm).tolist()))


def power_spectrum(bits) -> PowerSpectrum:
    """Squared-magnitude DFT spectrum of the +/-1 sequence.

    Emits bins 0..n//2 (DC through Nyquist), the n//2 + 1 outputs of a
    real FFT of n points.  Requires at least 64 bits; below that a
    spectrum is too coarse to summarize.
    """
    x = 2.0 * require_bits(bits) - 1.0
    n = x.size
    if n < 64:
        raise ValueError(f"power_spectrum: sequence length {n} is below the minimum 64")
    power = np.abs(np.fft.rfft(x)) ** 2
    power.setflags(write=False)
    # Full-spectrum energy from the half spectrum: every bin except DC
    # (and Nyquist, for even n) appears twice in the full transform.
    full = 2.0 * float(power.sum()) - float(power[0])
    if n % 2 == 0:
        full -= float(power[-1])
    non_dc = power[1:]
    mean_non_dc = float(non_dc.mean())
    flatness = float(non_dc.max()) / mean_non_dc if mean_non_dc > 0.0 else math.inf
    return PowerSpectrum(power, flatness, time_energy=float(n), spectral_energy=full / n)


class _BudgetHit(Exception):
    pass


def detect_cycle(config: GeneratorConfig, *, transcript=None, budget: int = 10 ** 8):
    """Transient and period of the block-to-block state orbit.

    The orbit element is the full digital state: cell vector plus
    complete driver state (the binary64 logistic value, or the phase
    pair of a cycling transcript).  Anything less would report spurious
    periods.  Brent's algorithm finds the period lam; the transient mu
    is found by whole periods, then a lockstep walk of at most lam
    blocks; the result is verified by three key stops of lam blocks from
    mu.  transcript, when given, is an (m_seq, s_seq) pair forced as a
    cycling driver in place of the logistic one.  If no cycle is
    confirmed within ``budget`` state steps a BudgetExceeded result is
    returned rather than an error or a guess.
    """
    budget = require_int(budget, "detect_cycle: budget", 1)

    def fresh() -> ChaoticBitGenerator:
        driver = None
        if transcript is not None:
            m_seq, s_seq = transcript
            driver = TranscriptDriver(m_seq, s_seq, cycle=True)
        return ChaoticBitGenerator(config, driver=driver)

    steps = 0

    def run(gen: ChaoticBitGenerator, limit: int, key: tuple | None = None) -> int:
        # Advance up to limit driven blocks (the seed vector is never
        # echoed), stopping after one whose state key equals key; return
        # how many ran if it stopped there, else 0.  Running out of budget
        # first ends the detection.
        nonlocal steps
        done = gen._advance(min(limit, budget - steps), key=key)
        steps += done
        if done and gen.state_key() == key:
            return done
        if done < limit:
            raise _BudgetHit
        return 0

    try:
        # Brent phase 1: period.  The tortoise is a stored key, teleported
        # to the hare's position at each power-of-two window; the hare
        # runs each window in one call that stops where it meets the key.
        power = 1
        hare = fresh()
        while not (lam := run(hare, power, hare.state_key())):
            power *= 2

        # Phase 2: transient.  A transient state never comes back and a
        # cycle state comes back after exactly lam blocks, so the first
        # of positions 0, lam, 2*lam, ... that returns, p, has
        # p - lam < mu <= p.  ahead then holds the state lam blocks after
        # max(p - lam, 0), where behind restarts, and meets it at mu.
        ahead = fresh()
        p = 0
        while not run(ahead, lam, ahead.state_key()):
            p += lam
        mu = max(p - lam, 0)
        behind = fresh()
        run(behind, mu)
        while behind.state_key() != ahead.state_key():
            run(behind, 1)
            run(ahead, 1)
            mu += 1

        # Verification: from mu the state must come back after exactly lam
        # blocks, three times; a key stop checks every block on the way.
        for _ in range(3):
            if run(behind, lam, behind.state_key()) != lam:
                raise RuntimeError(
                    "detect_cycle: verification failed; the state key does not "
                    "determine the orbit (this is a bug)"
                )
    except _BudgetHit:
        return BudgetExceeded(budget=budget, steps_executed=steps)

    return CycleReport(transient_length=mu, cycle_period=lam, orbit_length=mu + lam)


def ideal_period(n_m: int, n_s: int) -> int:
    """Ideal full-state period under forced periodic drivers.

    For a gap transcript of period n_m and a strategy transcript of
    period n_s, the state orbit's period divides 2*n_m*n_s: after one
    driver period the cell vector has been XOR-ed with a fixed mask,
    and applying the same mask again cancels it.  Equality is the
    ideal, non-degenerate case; divisibility is what is guaranteed.
    """
    n_m = require_int(n_m, "ideal_period: n_m", 1)
    n_s = require_int(n_s, "ideal_period: n_s", 1)
    return 2 * n_m * n_s


def phase_distance(
    s_a: Sequence[int],
    e_a: Sequence[int],
    s_b: Sequence[int],
    e_b: Sequence[int],
    *,
    prefix_k: int = 30,
) -> float:
    """Distance between two phase-space points (strategy, cell vector).

    The Boolean component d_e counts differing cells (an integer in
    [0, N]).  The strategy component compares the first K terms of the
    two strategy prefixes:

        d_s = (9/N) * sum_{k=1..K} |S_a^k - S_b^k| / 10^k

    which always lies in [0, 1).  K is the shorter prefix length capped
    at prefix_k; terms beyond K are bounded by
    phase_distance_tail_bound(N, K), below 1e-12 for K >= 15 at any N.
    The default K = 30 pushes the tail far below binary64 resolution.
    """
    ea = tuple(int(v) for v in e_a)
    eb = tuple(int(v) for v in e_b)
    if len(ea) != len(eb):
        raise ValueError(f"phase_distance: cell vectors differ in length ({len(ea)} vs {len(eb)})")
    if not ea:
        raise ValueError("phase_distance: cell vectors must be non-empty")
    if any(v not in (0, 1) for v in ea + eb):
        raise ValueError("phase_distance: cell vectors must contain only 0s and 1s")
    n = len(ea)
    sa = tuple(int(v) for v in s_a)
    sb = tuple(int(v) for v in s_b)
    if any(not 1 <= v <= n for v in sa + sb):
        raise ValueError(f"phase_distance: strategy values must lie in [1, {n}]")
    prefix_k = require_int(prefix_k, "phase_distance: prefix_k", 0)
    d_e = sum(1 for u, v in zip(ea, eb) if u != v)
    k_eff = min(len(sa), len(sb), prefix_k)
    acc = 0.0
    scale = 1.0
    for k in range(k_eff):
        scale /= 10.0
        acc += abs(sa[k] - sb[k]) * scale
    d_s = (9.0 / n) * acc
    return d_e + d_s


def phase_distance_tail_bound(n_cells: int, prefix_k: int) -> float:
    """Worst-case contribution of strategy terms beyond the prefix.

    Each neglected term is at most (N-1)/10^k, so the tail after K
    terms is bounded by (9/N) * (N-1) * 10^-K / 9 = ((N-1)/N) * 10^-K.
    """
    n_cells = require_int(n_cells, "phase_distance_tail_bound: n_cells", 1)
    prefix_k = require_int(prefix_k, "phase_distance_tail_bound: prefix_k", 0)
    return (n_cells - 1) / n_cells * 10.0 ** (-prefix_k)
