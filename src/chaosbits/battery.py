"""Statistical randomness battery with P-value uniformity aggregation.

Implements a subset of the classic SP 800-22 tests: frequency
(monobit), block frequency, runs, longest run of ones, spectral DFT,
cumulative sums (both directions), serial (both statistics), and
approximate entropy.  A battery run applies every test to a collection
of sequences and aggregates the per-sequence P-values of each test into
a uniformity P-value (P_T): the P-values are binned into 10 equal bins
over [0,1], a chi-square against the uniform expectation is computed,
and P_T is its upper incomplete gamma tail.  A test passes the
uniformity criterion when P_T >= 0.0001.

Each test is a pure function of its input bit sequence.  Tests enforce
the standard recommended sequence lengths by default; relaxed mode
lifts the recommendations (never the formulas) so short desk-scale
sequences can be examined, at the cost of approximation quality of the
reference distributions.

The counting tests read the sequence packed eight bits to a byte, first
bit in the most significant position: monobit, block frequency and runs
count ones with a byte popcount table, cumulative sums add each byte's
highest and lowest point, from a byte table, to the walk after the
byte, and serial and approximate entropy cut their patterns out of
big-endian words of the packed bytes.  The statistics come from the
same integers as a bit by bit count, so every P-value is the same.  A
battery run validates and packs each sequence once for all the tests,
and serial and approximate entropy read one pattern table of it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import erfc

import numpy as np

from .generator import (
    DegenerateSeedError,
    GeneratorConfig,
    SeedSpec,
    config_to_text,
    generate_bits,
    require_bits,
    require_int,
)

__all__ = [
    "TestResult",
    "BatteryEntry",
    "BatteryReport",
    "P_T_THRESHOLD",
    "frequency_monobit",
    "block_frequency",
    "runs_test",
    "longest_run",
    "spectral_dft",
    "cumulative_sums",
    "serial",
    "approximate_entropy",
    "p_uniformity",
    "run_battery",
    "report_to_csv",
    "report_to_text",
    "erfc",
    "gammainc_upper",
]

# Uniformity pass threshold for P_T.
P_T_THRESHOLD = 1e-4


@dataclass(frozen=True)
class TestResult:
    """Outcome of one statistical test on one sequence."""

    test_name: str
    statistic: float
    p_value: float
    params: dict = field(default_factory=dict)


_EPS = 2.0 ** -52
_TINY = 1e-300
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_prefactor(a: float, x: float) -> float:
    # ln(x^a e^-x / Gamma(a)).  For large a the direct form loses
    # ~a*eps to cancellation between a*ln(x), x and lgamma(a), so it is
    # rewritten with t = (x-a)/a and Stirling's series for lgamma(a):
    # a*(log1p(t) - t) + ln(a)/2 - ln(sqrt(2 pi)) - stirling(a).
    if a < 10.0:
        return a * math.log(x) - x - math.lgamma(a)
    r = 1.0 / a
    r2 = r * r
    stirling = r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (
        1 / 1680 - r2 * (1 / 1188 - r2 * (691 / 360360 - r2 / 156))))))
    t = (x - a) / a
    return a * (math.log1p(t) - t) + 0.5 * math.log(a) - _LN_SQRT_2PI - stirling


def gammainc_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x).

    Q(a, x) = Gamma(a, x) / Gamma(a), so Q(a, 0) = 1 and Q(a, inf) = 0.
    Below x = a + 1 the power series of the lower function P gives
    Q = 1 - P; from there on a continued fraction for Q is evaluated by
    the modified Lentz method.  Both are scaled by x^a e^-x / Gamma(a),
    computed in a form that stays accurate for large a.  Against a
    40-digit reference the relative error is below 2e-12 for
    0.5 <= a <= 2^20 wherever Q >= 1e-300 (the test suite checks 1e-11);
    smaller a loses relative accuracy where Q is tiny.  A series or
    fraction that has not converged after 200 + 20*sqrt(a) terms raises
    ArithmeticError rather than return an inaccurate value.

    Parameters
    ----------
    a : float
        Shape parameter, must be positive.
    x : float
        Lower integration limit, must be non-negative.
    """
    if not a > 0:
        raise ValueError(f"gammainc_upper: a must be positive, got {a!r}")
    if not x >= 0:
        raise ValueError(f"gammainc_upper: x must be non-negative, got {x!r}")
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    prefactor = math.exp(_log_prefactor(a, x))
    limit = 200 + int(20.0 * math.sqrt(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        for _ in range(limit):
            ap += 1.0
            term *= x / ap
            total += term
            if term < total * _EPS:
                return max(0.0, 1.0 - total * prefactor)
    else:
        b = x + 1.0 - a
        c = 1.0 / _TINY
        d = 1.0 / b
        h = d
        for i in range(1, limit):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            if abs(d) < _TINY:
                d = _TINY
            c = b + an / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < _EPS:
                return h * prefactor
    raise ArithmeticError(f"gammainc_upper: no convergence in {limit} terms at a={a!r}, x={x!r}")


# Byte tables, indexed by a packed byte.  _BYTE_WALK[v, j] is the +/-1
# walk over byte v's first j+1 bits; _WALK_TOP and _WALK_BOTTOM are the
# walk's highest and lowest value inside the byte, less its value after
# the whole byte.  _HIGH_BITS[r] keeps a byte's first r bits.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
_POPCOUNT = _BYTE_BITS.sum(axis=1, dtype=np.uint8)
_BYTE_WALK = np.cumsum(2 * _BYTE_BITS.astype(np.int64) - 1, axis=1)
_WALK_TOP = _BYTE_WALK.max(axis=1) - _BYTE_WALK[:, -1]
_WALK_BOTTOM = _BYTE_WALK.min(axis=1) - _BYTE_WALK[:, -1]
_HIGH_BITS = ((0xFF00 >> np.arange(9)) & 0xFF).astype(np.uint8)


class _Sequence:
    """One validated bit sequence, its bits packed and its patterns counted on first use.

    np.packbits puts the first bit in the most significant position and
    pads the last byte with zeros, which add no ones.
    """

    def __init__(self, bits):
        self.bits = require_bits(bits)
        self.n = self.bits.size
        self._counts: list[np.ndarray] = []

    @cached_property
    def packed(self) -> np.ndarray:
        return np.packbits(self.bits)

    @cached_property
    def ones_before(self) -> np.ndarray:
        """Entry j counts the ones in bytes 0..j-1: a running popcount from 0."""
        running = np.zeros(self.packed.size + 1, dtype=np.int64)
        np.cumsum(np.take(_POPCOUNT, self.packed), dtype=np.int64, out=running[1:])
        return running

    @property
    def ones(self) -> int:
        return int(self.ones_before[-1])

    def pattern_counts(self, m: int) -> list[np.ndarray]:
        """Entry i counts the wraparound (m-i)-bit patterns, i = 0..m-1.

        The first call counts one bit more than asked when n >= 2^m, for
        the same eight passes, so serial and approximate entropy at one m
        share the table in either order; later calls fold it, and count
        again only for a wider one.  The callers require n >= 2^(m-1), so
        the table holds at most 2n counters.
        """
        if len(self._counts) < m:
            self._counts = _pattern_counts(self, m + 1 if self.n >> m else m)
        return self._counts[len(self._counts) - m:]


def _sequence(bits) -> _Sequence:
    # The tests take a _Sequence from _run_all_tests, which validates and
    # packs each sequence once, and raw bits from every other caller.
    return bits if isinstance(bits, _Sequence) else _Sequence(bits)


def _block_ones(seq: _Sequence, block_len: int) -> np.ndarray:
    # Ones in each whole block_len-bit block: the difference of the ones
    # before its two edges, each the whole bytes' running popcount plus
    # the first bits of the byte the edge cuts (none when it cuts none).
    edges = np.arange(seq.n // block_len + 1, dtype=np.int64) * block_len
    whole = edges >> 3
    cut = seq.packed[np.minimum(whole, seq.packed.size - 1)] & _HIGH_BITS[edges & 7]
    return np.diff(seq.ones_before[whole] + np.take(_POPCOUNT, cut))


def _changes(seq: _Sequence) -> int:
    # Positions i >= 1 with b[i] != b[i-1].  Bit i of p ^ (p >> 1, each
    # byte's top bit carried in from the byte before) is b[i] ^ b[i-1];
    # bit 0 compares b[0] with itself, and the bits from n on are cut off.
    p = seq.packed
    changes = p >> 1
    changes[1:] |= p[:-1] << 7
    changes[0] |= p[0] & 0x80
    np.bitwise_xor(changes, p, out=changes)
    changes[-1] &= _HIGH_BITS[(seq.n - 1) % 8 + 1]
    return int(np.take(_POPCOUNT, changes).sum())


def _walk_extremes(seq: _Sequence) -> tuple[int, int]:
    # The highest and lowest partial sum of the +/-1 walk over the empty
    # prefix and the first n-1 steps: each whole byte's extremes from the
    # byte tables, added to the walk after it (2 * ones - bits so far),
    # then a last partial byte's steps one by one.
    whole, rest = divmod(seq.n - 1, 8)
    head = seq.packed[:whole]
    after = 2 * seq.ones_before[1 : whole + 1] - np.arange(8, 8 * whole + 1, 8)
    high = int((after + np.take(_WALK_TOP, head)).max(initial=0))
    low = int((after + np.take(_WALK_BOTTOM, head)).min(initial=0))
    if rest:
        tail = _BYTE_WALK[seq.packed[whole], :rest] + (2 * int(seq.ones_before[whole]) - 8 * whole)
        high = max(high, int(tail.max()))
        low = min(low, int(tail.min()))
    return high, low


def _require_length(n: int, strict_min: int, relaxed_min: int, relaxed: bool, test: str) -> None:
    need = relaxed_min if relaxed else strict_min
    if n < need:
        hint = "" if relaxed else "; relaxed mode lowers the recommended minimum"
        raise ValueError(f"{test}: sequence length {n} is below the minimum {need}{hint}")


def frequency_monobit(bits, relaxed: bool = False) -> TestResult:
    """Global balance of ones and zeros.

    The statistic is |sum of (2b-1)| / sqrt(n); its P-value is
    erfc(statistic / sqrt(2)).
    """
    seq = _sequence(bits)
    n = seq.n
    _require_length(n, 100, 1, relaxed, "monobit")
    s = 2 * seq.ones - n
    s_obs = abs(s) / math.sqrt(n)
    p = erfc(s_obs / math.sqrt(2.0))
    return TestResult("monobit", s_obs, p, {"n": n})


def block_frequency(bits, block_len: int = 20000, relaxed: bool = False) -> TestResult:
    """Proportion of ones within fixed-size blocks.

    chi2 = 4 * M * sum over blocks of (proportion - 1/2)^2, with
    P-value Q(n_blocks/2, chi2/2).  Trailing bits that do not fill a
    block are discarded.  block_len below 20 is rejected unless relaxed
    (the chi-square approximation degrades for small blocks).
    """
    seq = _sequence(bits)
    n = seq.n
    block_len = require_int(block_len, "block_frequency: block_len", 1)
    if block_len < 20 and not relaxed:
        raise ValueError(
            f"block_frequency: block_len {block_len} is below the minimum 20; relaxed mode lowers it"
        )
    n_blocks = n // block_len
    if n_blocks == 0:
        raise ValueError(f"block_frequency: sequence of {n} bits holds no {block_len}-bit block")
    props = _block_ones(seq, block_len) / block_len
    chi2 = 4.0 * block_len * float(np.sum((props - 0.5) ** 2))
    p = gammainc_upper(n_blocks / 2.0, chi2 / 2.0)
    return TestResult("block-frequency", chi2, p, {"M": block_len, "n_blocks": n_blocks})


def runs_test(bits, relaxed: bool = False) -> TestResult:
    """Total number of runs (maximal blocks of equal bits).

    Gated on the monobit prerequisite |pi - 1/2| < 2/sqrt(n); when the
    gate fails the P-value is reported as 0 with a gate flag in the
    parameters, mirroring the standard's shortcut.
    """
    seq = _sequence(bits)
    n = seq.n
    _require_length(n, 100, 2, relaxed, "runs")
    pi = seq.ones / n
    v_obs = 1 + _changes(seq)
    tau = 2.0 / math.sqrt(n)
    if abs(pi - 0.5) >= tau:
        return TestResult("runs", float(v_obs), 0.0, {"pi": pi, "gate_failed": True})
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    if den == 0.0:
        # Constant sequence that slipped through the gate (only possible
        # for very short relaxed inputs): maximally non-random.
        return TestResult("runs", float(v_obs), 0.0, {"pi": pi, "gate_failed": False})
    p = erfc(abs(v_obs - 2.0 * n * pi * (1.0 - pi)) / den)
    return TestResult("runs", float(v_obs), p, {"pi": pi, "gate_failed": False})


# Longest-run regimes: (minimum n, block length M, degrees of freedom K,
# lowest category boundary, reference category probabilities).
_LONGEST_RUN_REGIMES = (
    (750000, 10000, 6, 10, (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6272, 128, 5, 4, (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, 3, 1, (0.2148, 0.3672, 0.2305, 0.1875)),
)


def _longest_runs(blocks: np.ndarray) -> np.ndarray:
    # Longest run of ones in each row of a 0/1 array, in one pass.  Each
    # row is padded with a zero on both sides, so in the flattened array
    # every run begins after a 0 -> 1 step and ends before a 1 -> 0 step
    # inside its own row; starts and ends pair up in order.
    n_rows, width = blocks.shape
    padded = np.zeros((n_rows, width + 2), dtype=np.int8)
    padded[:, 1:-1] = blocks
    step = np.diff(padded.ravel())
    starts = np.flatnonzero(step == 1)
    ends = np.flatnonzero(step == -1)
    best = np.zeros(n_rows, dtype=np.int64)
    np.maximum.at(best, starts // (width + 2), ends - starts)
    return best


def longest_run(bits) -> TestResult:
    """Longest run of ones within fixed-size blocks, category chi-square.

    The block length and category table switch at 128, 6272 and 750000
    input bits, per the standard's regime table.  Sequences shorter
    than 128 bits are rejected (no regime applies).
    """
    b = _sequence(bits).bits
    n = b.size
    if n < 128:
        raise ValueError(f"longest-run: sequence length {n} is below the minimum 128")
    for min_n, m_len, k, lo, pis in _LONGEST_RUN_REGIMES:
        if n >= min_n:
            break
    n_blocks = n // m_len
    best = _longest_runs(b[: n_blocks * m_len].reshape(n_blocks, m_len))
    cats = np.clip(best - lo, 0, k)
    nu = np.bincount(cats, minlength=k + 1)
    expected = n_blocks * np.asarray(pis)
    chi2 = float(np.sum((nu - expected) ** 2 / expected))
    p = gammainc_upper(k / 2.0, chi2 / 2.0)
    return TestResult("longest-run", chi2, p, {"M": m_len, "K": k, "n_blocks": n_blocks})


def spectral_dft(bits, relaxed: bool = False) -> TestResult:
    """Peak count of the discrete Fourier spectrum of the +/-1 sequence.

    Counts the magnitudes among the first n/2 spectral bins that stay
    below the 95% threshold sqrt(n * ln(1/0.05)) and normalizes the
    count against its expectation.
    """
    b = _sequence(bits).bits
    n = b.size
    _require_length(n, 1000, 2, relaxed, "spectral")
    x = np.multiply(b, 2.0)
    x -= 1.0
    # The magnitudes overwrite the +/-1 input, which the rfft has read.
    mags = np.abs(np.fft.rfft(x)[: n // 2], out=x[: n // 2])
    threshold = math.sqrt(n * math.log(1.0 / 0.05))
    n0 = 0.95 * n / 2.0
    n1 = int(np.count_nonzero(mags < threshold))
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p = erfc(abs(d) / math.sqrt(2.0))
    return TestResult("spectral", d, p, {"threshold": threshold, "n0": n0, "n1": n1})


def _ndtr(v: float) -> float:
    # Standard normal CDF.
    return 0.5 * math.erfc(-v / math.sqrt(2.0))


def _cusum_p(z: int, n: int) -> float:
    # Tail probability of the maximum excursion of an n-step +/-1 walk,
    # computed by the standard normal-CDF series.  Summation bounds are
    # floor-based; terms outside the walk's reach vanish to double
    # precision either way.  Terms whose normal arguments both lie beyond
    # +/-40 are exactly 0.0 (the CDF is exactly 0 or 1 there), so the
    # bounds are also clipped to |k| <= k_cap, which leaves the sums
    # unchanged.
    sn = math.sqrt(n)
    zf = float(z)
    k_cap = math.ceil(10.0 * sn / zf) + 1
    k_hi = min(k_cap, math.floor((n / zf - 1.0) / 4.0))
    k_lo1 = max(-k_cap, math.floor((-n / zf + 1.0) / 4.0))
    k_lo2 = max(-k_cap, math.floor((-n / zf - 3.0) / 4.0))
    s1 = 0.0
    for k in range(k_lo1, k_hi + 1):
        s1 += _ndtr((4.0 * k + 1.0) * zf / sn) - _ndtr((4.0 * k - 1.0) * zf / sn)
    s2 = 0.0
    for k in range(k_lo2, k_hi + 1):
        s2 += _ndtr((4.0 * k + 3.0) * zf / sn) - _ndtr((4.0 * k + 1.0) * zf / sn)
    return min(1.0, max(0.0, 1.0 - s1 + s2))


def cumulative_sums(bits, relaxed: bool = False) -> tuple[TestResult, TestResult]:
    """Maximum partial-sum excursion of the +/-1 walk, both directions.

    Returns (forward, backward) results; the backward variant walks the
    reversed sequence.  Both come from one forward walk s: the backward
    walk's partial sums are s[-1] - s[i] for the positions i before the
    last step, the empty prefix (sum 0) included.
    """
    seq = _sequence(bits)
    n = seq.n
    _require_length(n, 100, 1, relaxed, "cumulative-sums")
    high, low = _walk_extremes(seq)
    last = 2 * seq.ones - n
    forward = max(high, last, -low, -last)
    backward = max(last - low, high - last)
    out = []
    for name, z in (("cumulative-sums-forward", forward), ("cumulative-sums-backward", backward)):
        p = _cusum_p(z, n)
        out.append(TestResult(name, float(z), p, {"mode": name.rsplit("-", 1)[1]}))
    return out[0], out[1]


def _pattern_counts(bits, m: int) -> list[np.ndarray]:
    # Wraparound pattern counts: entry i counts the (m-i)-bit patterns,
    # for i = 0..m-1.  The packed sequence is extended by its own first
    # m-1 bits so every position starts a pattern.  Word j holds the 64
    # bits from byte j on, big-endian, so the m-bit pattern at position
    # 8j + phase is the word shifted right by 64 - phase - m and masked:
    # one bincount per phase.  _Sequence.pattern_counts keeps the table
    # within 2n counters, so m stays <= 32 for any input below 2^32 bits.
    # The (k-1)-bit pattern at a position is the prefix of its k-bit
    # pattern, so the shorter counts are folds of the longer ones, exact
    # in integers.
    seq = _sequence(bits)
    n, size = seq.n, seq.packed.size
    # The first m-1 bits are ORed in from bit n on; the zero bytes after
    # them let every word read 8 bytes.
    ext = np.zeros(size + 8, dtype=np.uint8)
    ext[:size] = seq.packed
    wrap, at = m - 1, n % 8
    first = int.from_bytes(seq.packed[: (wrap + 7) // 8].tobytes(), "big") >> (-wrap % 8)
    span = (at + wrap + 7) // 8
    ext[n // 8 : n // 8 + span] |= np.frombuffer(
        (first << (8 * span - at - wrap)).to_bytes(span, "big"), dtype=np.uint8)
    words = np.ndarray((size,), dtype=">u8", buffer=ext, strides=(1,)).astype(np.uint64)
    table = np.zeros(1 << m, dtype=np.intp)
    for phase in range(8):
        starts = (n - phase + 7) // 8
        # Below 2^39 after the shift, so a view as int64, which bincount takes.
        idx = (words[:starts] >> np.uint64(64 - phase - m)).view(np.int64)
        idx &= (1 << m) - 1
        table += np.bincount(idx, minlength=1 << m)
    counts = [table]
    while len(counts) < m:
        counts.append(counts[-1][0::2] + counts[-1][1::2])
    return counts


def _psi_sq(counts: np.ndarray, n: int) -> float:
    return (counts.size / n) * float(np.dot(counts, counts)) - n


def serial(bits, m: int = 10, relaxed: bool = False) -> tuple[TestResult, TestResult]:
    """Frequency balance of overlapping m-bit patterns (wraparound).

    Returns the two standard statistics: first difference
    nabla psi2 = psi2(m) - psi2(m-1) with P-value Q(2^(m-2), nabla/2),
    and second difference with P-value Q(2^(m-3), nabla2/2).  Relaxed
    mode still needs n >= 2^(m-1), so the 2^m pattern counters never
    outnumber 2n.
    """
    seq = _sequence(bits)
    n = seq.n
    m = require_int(m, "serial: pattern length m", 2)
    _require_length(n, max(100, 1 << (m + 3)), 1 << (m - 1), relaxed, "serial")
    counts = seq.pattern_counts(m)
    psi_m = _psi_sq(counts[0], n)
    psi_m1 = _psi_sq(counts[1], n)
    psi_m2 = _psi_sq(counts[2], n) if m > 2 else 0.0
    d1 = max(0.0, psi_m - psi_m1)
    d2 = max(0.0, psi_m - 2.0 * psi_m1 + psi_m2)
    p1 = gammainc_upper(2.0 ** (m - 2), d1 / 2.0)
    p2 = gammainc_upper(2.0 ** (m - 3), d2 / 2.0)
    return (
        TestResult("serial-1", d1, p1, {"m": m}),
        TestResult("serial-2", d2, p2, {"m": m}),
    )


def approximate_entropy(bits, m: int = 10, relaxed: bool = False) -> TestResult:
    """Approximate entropy of overlapping patterns of lengths m and m+1.

    chi2 = 2n (ln 2 - ApEn(m)) with P-value Q(2^(m-1), chi2/2), where
    ApEn(m) = phi(m) - phi(m+1) and phi sums p*ln(p) over wraparound
    pattern proportions.  Relaxed mode still needs n >= 2^m, so the
    2^(m+1) pattern counters never outnumber 2n.
    """
    seq = _sequence(bits)
    n = seq.n
    m = require_int(m, "approximate-entropy: pattern length m", 1)
    _require_length(n, max(100, 1 << (m + 6)), 1 << m, relaxed, "approximate-entropy")
    counts = seq.pattern_counts(m + 1)

    def phi(c: np.ndarray) -> float:
        pos = c[c > 0] / n
        return float(np.sum(pos * np.log(pos)))

    apen = phi(counts[1]) - phi(counts[0])
    chi2 = max(0.0, 2.0 * n * (math.log(2.0) - apen))
    p = gammainc_upper(2.0 ** (m - 1), chi2 / 2.0)
    return TestResult("approximate-entropy", chi2, p, {"m": m, "apen": apen})


_MIN_P_VALUES = 55


def _few_p_values(size: int) -> str:
    """The note on a P_T read from fewer than _MIN_P_VALUES P-values."""
    return (f"p_uniformity: only {size} P-values; at least {_MIN_P_VALUES} are recommended "
            "for a meaningful uniformity reading")


def _p_uniformity(ps: np.ndarray) -> float:
    """p_uniformity of a float64 array, without the warning on few values."""
    if ps.size == 0:
        raise ValueError("p_uniformity: empty P-value collection")
    if not np.all((ps >= 0.0) & (ps <= 1.0)):  # also rejects NaN
        raise ValueError("p_uniformity: P-values must lie in [0,1]")
    idx = np.clip((ps * 10).astype(np.int64), 0, 9)
    counts = np.bincount(idx, minlength=10)
    expected = ps.size / 10.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return gammainc_upper(4.5, chi2 / 2.0)


def p_uniformity(p_values) -> float:
    """Uniformity P-value (P_T) of a collection of P-values.

    The values are counted into 10 equal bins over [0,1] (the top bin
    closed), chi-square against the uniform expectation is formed, and
    P_T = Q(9/2, chi2/2) is returned.  Fewer than 55 values trigger a
    warning: the uniformity reading is then weakly founded.
    The result is invariant under permutation of the input.
    """
    ps = np.asarray(list(p_values), dtype=np.float64)
    p_t = _p_uniformity(ps)
    if ps.size < _MIN_P_VALUES:
        warnings.warn(_few_p_values(ps.size), UserWarning, stacklevel=2)
    return p_t


@dataclass(frozen=True)
class BatteryEntry:
    """Aggregated outcome of one test row across all sequences."""

    test_name: str
    results: tuple[TestResult, ...]
    p_t: float
    passed: bool
    informational: bool = False

    @property
    def p_values(self) -> tuple[float, ...]:
        return tuple(r.p_value for r in self.results)


@dataclass(frozen=True)
class BatteryReport:
    """Full battery outcome over a collection of sequences.

    Rows are ordered by test name.  Rows marked informational (the
    averaged rows of the two-statistic tests) do not take part in the
    overall verdict.
    """

    entries: tuple[BatteryEntry, ...]
    n_sequences: int
    seq_len: int
    relaxed: bool
    warnings: tuple[str, ...]
    config_text: str

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries if not e.informational)


def _run_all_tests(bits, relaxed: bool, block_len: int, serial_m: int, apen_m: int) -> list[TestResult]:
    seq = _Sequence(bits)
    return [
        frequency_monobit(seq, relaxed),
        block_frequency(seq, block_len, relaxed),
        runs_test(seq, relaxed),
        longest_run(seq),
        spectral_dft(seq, relaxed),
        *cumulative_sums(seq, relaxed),
        *serial(seq, serial_m, relaxed),
        approximate_entropy(seq, apen_m, relaxed),
    ]


# Two-statistic tests whose P_T values additionally get an averaged,
# informational row.
_MEAN_ROWS = {
    "cumulative-sums-mean": ("cumulative-sums-forward", "cumulative-sums-backward"),
    "serial-mean": ("serial-1", "serial-2"),
}


def run_battery(
    config: GeneratorConfig,
    n_sequences: int,
    seq_len: int,
    *,
    relaxed: bool = False,
    block_len: int = 20000,
    serial_m: int = 10,
    apen_m: int = 10,
) -> BatteryReport:
    """Generate n_sequences sequences and run every test on each.

    Sequence i is seeded by the documented schedule master+i applied to
    the config's time-derived seed, so a master seed fixes the whole
    report; an explicit (x0, y0) seed is accepted only for a single
    sequence, since it admits no schedule.  A sequence that fails to
    generate aborts the whole batch with context.
    """
    n_sequences = require_int(n_sequences, "run_battery: n_sequences", 1)
    seq_len = require_int(seq_len, "run_battery: seq_len", 1)
    if config.seed.t is None and n_sequences > 1:
        raise ValueError(
            "run_battery: multiple sequences need a time-derived master seed "
            "(the schedule derives sequence i from master+i)"
        )

    rows: dict[str, list[TestResult]] = {}
    for i in range(n_sequences):
        if config.seed.t is not None:
            cfg_i = replace(config, seed=SeedSpec.from_time(config.seed.t + i))
        else:
            cfg_i = config
        try:
            seq = generate_bits(cfg_i, seq_len)
        except DegenerateSeedError as exc:
            raise DegenerateSeedError(
                f"sequence {i} (seed schedule master+{i}) died: {exc}"
            ) from exc
        for result in _run_all_tests(seq, relaxed, block_len, serial_m, apen_m):
            rows.setdefault(result.test_name, []).append(result)

    p_t = {name: _p_uniformity(np.array([r.p_value for r in results])) for name, results in rows.items()}
    for mean_name, components in _MEAN_ROWS.items():
        p_t[mean_name] = sum(p_t[c] for c in components) / len(components)
    entries = tuple(
        BatteryEntry(
            test_name=name,
            results=tuple(rows.get(name, ())),
            p_t=p,
            passed=p >= P_T_THRESHOLD,
            informational=name in _MEAN_ROWS,
        )
        for name, p in sorted(p_t.items())
    )
    notes = ["relaxed mode: recommended minimum lengths are not enforced"] if relaxed else []
    if n_sequences < _MIN_P_VALUES:
        # Every row holds one P-value per sequence, so one note covers them all.
        notes.append(_few_p_values(n_sequences))

    return BatteryReport(
        entries=entries,
        n_sequences=n_sequences,
        seq_len=seq_len,
        relaxed=relaxed,
        warnings=tuple(notes),
        config_text=config_to_text(config),
    )


def _params_text(params: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in params.items())


def report_to_csv(report: BatteryReport) -> str:
    """Render a report as CSV: a detail section, then a summary section.

    Detail columns: test, param, seq_index, p_value.  After a blank
    line, summary columns: test, p_t, pass.  Informational averaged
    rows appear only in the summary, marked by their -mean suffix.
    """
    lines = ["test,param,seq_index,p_value"]
    for entry in report.entries:
        for i, result in enumerate(entry.results):
            lines.append(f"{entry.test_name},{_params_text(result.params)},{i},{result.p_value!r}")
    lines.append("")
    lines.append("test,p_t,pass")
    for entry in report.entries:
        flag = "true" if entry.passed else "false"
        lines.append(f"{entry.test_name},{entry.p_t!r},{flag}")
    return "".join(line + "\n" for line in lines)


def report_to_text(report: BatteryReport) -> str:
    """Render a report as an aligned, human-readable table."""
    out = []
    out.append(f"sequences: {report.n_sequences} x {report.seq_len} bits")
    out.append("mode: relaxed" if report.relaxed else "mode: strict")
    out.append("config:")
    for line in report.config_text.strip().splitlines():
        out.append("  " + line)
    for w in report.warnings:
        out.append(f"warning: {w}")
    out.append("")
    name_w = max(len(e.test_name) for e in report.entries)
    out.append(f"{'test'.ljust(name_w)}  {'P_T':>12}  verdict  p-values")
    for e in report.entries:
        verdict = "pass" if e.passed else "FAIL"
        if e.informational:
            verdict += " (info)"
        ps = " ".join(f"{p:.4f}" for p in e.p_values)
        out.append(f"{e.test_name.ljust(name_w)}  {e.p_t:>12.6g}  {verdict:7}  {ps}")
    out.append("")
    out.append(f"battery verdict: {'PASS' if report.passed else 'FAIL'}")
    return "".join(line + "\n" for line in out)
