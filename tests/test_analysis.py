"""Analysis module: correlation, spectrum, cycle detection, phase metric."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosbits import (
    BudgetExceeded,
    CycleReport,
    GeneratorConfig,
    SeedSpec,
    autocorrelation,
    cross_correlation,
    detect_cycle,
    ideal_period,
    phase_distance,
    phase_distance_tail_bound,
    power_spectrum,
)
from chaosbits.analysis import _lagged_sums


def random_bits(n, seed):
    return random.Random(seed).choices((0, 1), k=n)


# -- autocorrelation ------------------------------------------------------


def test_autocorrelation_lag0_is_one():
    series = autocorrelation(random_bits(500, 1), 10)
    assert series.values[0] == 1.0
    assert len(series.values) == 11
    assert series.degenerate is False


def test_autocorrelation_alternation():
    series = autocorrelation([0, 1] * 100, 3)
    # Mean-centered alternation: r(1) = -(n-1)/n with the full-energy
    # denominator (199/200 here), the perfect anti-correlation case.
    assert series.values[1] == pytest.approx(-199 / 200, rel=1e-12)
    assert series.values[2] == pytest.approx(198 / 200, rel=1e-12)


def test_autocorrelation_constant_degenerate_convention():
    series = autocorrelation([1] * 50, 5)
    assert series.degenerate is True
    assert series.values == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_autocorrelation_validation():
    with pytest.raises(ValueError):
        autocorrelation(random_bits(50, 2), 0)
    with pytest.raises(ValueError):
        autocorrelation(random_bits(50, 2), 50)
    with pytest.raises(ValueError):
        autocorrelation([0, 2, 1], 1)


def test_autocorrelation_reversal_invariance():
    # The biased estimator is invariant under sequence reversal; spot
    # it on a palindrome (equal by construction) and a random sequence.
    pal = [1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1]
    pal = pal + pal[::-1]
    fwd = autocorrelation(pal, 5)
    rev = autocorrelation(pal[::-1], 5)
    assert fwd.values == rev.values
    seq = random_bits(300, 3)
    fwd = autocorrelation(seq, 8)
    rev = autocorrelation(seq[::-1], 8)
    for a, b in zip(fwd.values, rev.values):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_autocorrelation_values_bounded():
    series = autocorrelation(random_bits(2000, 4), 100)
    assert all(-1.0 <= v <= 1.0 for v in series.values)


# -- cross-correlation ----------------------------------------------------


def test_cross_correlation_self_at_lag0():
    seq = random_bits(400, 5)
    series = cross_correlation(seq, seq, 0)
    assert series.values[0] == pytest.approx(1.0, rel=1e-12)


def test_cross_correlation_complement_at_lag0():
    seq = random_bits(400, 6)
    comp = [1 - b for b in seq]
    series = cross_correlation(seq, comp, 0)
    assert series.values[0] == pytest.approx(-1.0, rel=1e-12)


def test_cross_correlation_degenerate_and_errors():
    series = cross_correlation([1] * 50, random_bits(50, 7), 4)
    assert series.degenerate is True
    assert series.values == (0.0,) * 5
    with pytest.raises(ValueError):
        cross_correlation(random_bits(50, 8), random_bits(49, 8), 4)
    with pytest.raises(ValueError):
        cross_correlation(random_bits(50, 8), random_bits(50, 9), -1)
    with pytest.raises(ValueError, match="must exceed max_lag"):
        cross_correlation(random_bits(4, 8), random_bits(4, 9), 4)


def test_cross_correlation_lag_shifts_second_sequence():
    base = random_bits(300, 10)
    shifted = base[3:] + random_bits(3, 11)
    series = cross_correlation(shifted, base, 5)
    # base at lag 3 aligns with shifted: the peak sits there.
    assert max(range(6), key=lambda i: series.values[i]) == 3


def correlation_reference(bits_a, bits_b, max_lag):
    """The per-lag correlation both estimators must equal, or None if either input is constant."""
    n = len(bits_a)
    a = [2.0 * v - 1.0 for v in bits_a]
    b = [2.0 * v - 1.0 for v in bits_b]
    mean_a, mean_b = sum(a) / n, sum(b) / n
    a = [v - mean_a for v in a]
    b = [v - mean_b for v in b]
    norm = math.sqrt(sum(v * v for v in a) * sum(v * v for v in b))
    if norm == 0.0:
        return None
    return [sum(a[i] * b[i + t] for i in range(n - t)) / norm for t in range(max_lag + 1)]


def bit_vectors(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n) | st.sampled_from((0, 1)).map(
        lambda v: [v] * n
    )


@settings(deadline=None)
@given(
    st.integers(2, 300).flatmap(
        lambda n: st.tuples(
            bit_vectors(n), bit_vectors(n), st.sampled_from((0, n - 1)) | st.integers(0, n - 1)
        )
    )
)
def test_correlation_matches_per_lag_reference(case):
    # max_lag = n - 1 needs the widest zero padding; lag 0 and constant
    # inputs on either side are drawn often.
    bits_a, bits_b, max_lag = case
    cross = cross_correlation(bits_a, bits_b, max_lag)
    expected = correlation_reference(bits_a, bits_b, max_lag)
    assert len(cross.values) == max_lag + 1
    if expected is None:
        assert cross.degenerate is True
        assert cross.values == (0.0,) * (max_lag + 1)
    else:
        assert cross.degenerate is False
        assert cross.values == pytest.approx(expected, rel=0, abs=1e-12)

    max_lag = max(max_lag, 1)
    auto = autocorrelation(bits_a, max_lag)
    expected = correlation_reference(bits_a, bits_a, max_lag)
    if expected is None:
        assert auto.degenerate is True
        assert auto.values == (1.0,) + (0.0,) * max_lag
    else:
        assert auto.degenerate is False
        assert auto.values[0] == 1.0
        assert auto.values == pytest.approx(expected, rel=0, abs=1e-12)


@pytest.mark.parametrize("n, max_lag", [(1000, 10), (4096, 1), (100000, 1000)])
def test_autocorrelation_sums_transform_once_bit_exactly(n, max_lag):
    # One transform of the input reused for both factors gives the bits
    # the two-transform expression gives.
    x = 2.0 * np.array(random_bits(n, n), dtype=np.float64) - 1.0
    a = x - x.mean()
    size = 1 << (n + max_lag - 1).bit_length()
    two = np.fft.irfft(np.conj(np.fft.rfft(a, size)) * np.fft.rfft(a, size), size)[: max_lag + 1]
    assert np.array_equal(_lagged_sums(a, a, max_lag), two)


# -- power spectrum --------------------------------------------------------


def test_power_spectrum_parseval():
    ps = power_spectrum(random_bits(4096, 12))
    assert ps.time_energy == 4096.0
    assert ps.spectral_energy == pytest.approx(ps.time_energy, rel=1e-9)


def test_power_spectrum_parseval_odd_length():
    ps = power_spectrum(random_bits(4097, 12))
    assert ps.spectral_energy == pytest.approx(ps.time_energy, rel=1e-9)


def test_power_spectrum_constant_all_dc():
    ps = power_spectrum([1] * 256)
    assert ps.power[0] == pytest.approx(256.0 ** 2, rel=1e-12)
    assert max(ps.power[1:]) == pytest.approx(0.0, abs=1e-18)
    assert math.isinf(ps.flatness)


def test_power_spectrum_alternation_all_nyquist():
    ps = power_spectrum([0, 1] * 128)
    assert len(ps.power) == 129
    assert ps.power[-1] == pytest.approx(256.0 ** 2, rel=1e-12)
    assert ps.power[0] == pytest.approx(0.0, abs=1e-18)


def test_power_spectrum_pairs_and_validation():
    ps = power_spectrum(random_bits(64, 13))
    assert len(ps.power) == 33
    assert ps.power.dtype == np.float64
    assert not ps.power.flags.writeable
    with pytest.raises(ValueError):
        power_spectrum(random_bits(63, 13))


def test_power_spectrum_flatness_pinned_seed():
    # Flatness over seeds at 1e5 bits is roughly Gumbel around 11;
    # ~1/3 of seeds land above 12, so the documented "< 12" reading is
    # checked on the pinned fixture seed, not universally.
    cfg = GeneratorConfig(5, (14, 15), SeedSpec.from_time(484076))
    from chaosbits import generate_bits

    ps = power_spectrum(generate_bits(cfg, 100000))
    assert ps.flatness < 12.0


# -- cycle detection --------------------------------------------------------


def test_cycle_worked_example_period_16():
    cfg = GeneratorConfig(4, (1, 2), SeedSpec.explicit((0, 0, 0, 0), 0.1))
    report = detect_cycle(cfg, transcript=((1, 2), (1, 2, 3, 4)))
    assert report == CycleReport(transient_length=0, cycle_period=16, orbit_length=16)


def test_cycle_worked_example_emitted_states():
    from chaosbits import ChaoticBitGenerator, TranscriptDriver

    cfg = GeneratorConfig(
        4, (1, 2), SeedSpec.explicit((0, 0, 0, 0), 0.1), emit_initial=False
    )
    gen = ChaoticBitGenerator(cfg, driver=TranscriptDriver((1, 2), (1, 2, 3, 4), cycle=True))
    states = ["".join(map(str, gen.next_block())) for _ in range(16)]
    assert states == [
        "1000", "1110", "1111", "0011", "0001", "1000", "1100", "1111",
        "0111", "0001", "0000", "1100", "1110", "0111", "0011", "0000",
    ]
    # and the orbit closes: the 17th state equals the 1st.
    assert "".join(map(str, gen.next_block())) == states[0]


def test_cycle_constant_driver_toggle():
    # Constant S=1, m=1: the designated cell toggles, full state period 2.
    cfg = GeneratorConfig(2, (1,), SeedSpec.explicit((0, 0), 0.1))
    report = detect_cycle(cfg, transcript=((1,), (1,)))
    assert report.cycle_period == 2
    assert report.transient_length == 0


def test_cycle_real_logistic_driver_budget():
    # This orbit does repeat (transient 4,198,437 blocks, then period
    # 727,512 blocks), far beyond this budget; a small budget must
    # produce an explicit budget-exceeded result, never a guess.
    cfg = GeneratorConfig(5, (14, 15), SeedSpec.from_time(484076))
    result = detect_cycle(cfg, budget=10000)
    assert isinstance(result, BudgetExceeded)
    assert result.budget == 10000
    assert result.steps_executed == 10000


def test_cycle_budget_validation():
    cfg = GeneratorConfig(2, (1,), SeedSpec.explicit((0, 0), 0.1))
    with pytest.raises(ValueError):
        detect_cycle(cfg, transcript=((1,), (1,)), budget=0)


def test_cycle_report_invariants():
    with pytest.raises(ValueError):
        CycleReport(transient_length=0, cycle_period=0, orbit_length=0)
    with pytest.raises(ValueError):
        CycleReport(transient_length=-1, cycle_period=2, orbit_length=1)
    with pytest.raises(ValueError):
        CycleReport(transient_length=1, cycle_period=2, orbit_length=4)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
    st.integers(0, 15),
)
def test_cycle_period_divides_ideal_period(m_seq, s_seq, x0_val):
    # For forced periodic drivers the measured full-state period always
    # divides 2 * n_m * n_s.
    x0 = tuple((x0_val >> i) & 1 for i in range(4))
    cfg = GeneratorConfig(4, tuple(sorted(set(m_seq))) or (1,), SeedSpec.explicit(x0, 0.1))
    report = detect_cycle(cfg, transcript=(tuple(m_seq), tuple(s_seq)), budget=10 ** 6)
    assert isinstance(report, CycleReport)
    assert ideal_period(len(m_seq), len(s_seq)) % report.cycle_period == 0


def test_ideal_period_values():
    assert ideal_period(2, 4) == 16
    assert ideal_period(1, 1) == 2
    with pytest.raises(ValueError):
        ideal_period(0, 4)
    with pytest.raises(ValueError):
        ideal_period(2, -1)


# -- phase distance -----------------------------------------------------------


def test_phase_distance_identity():
    s = (1, 2, 3, 4)
    e = (1, 0, 1, 0)
    assert phase_distance(s, e, s, e) == 0.0


def test_phase_distance_all_cells_differ():
    e_a = (0, 0, 0, 0, 0)
    e_b = (1, 1, 1, 1, 1)
    s = (1, 2, 3)
    assert phase_distance(s, e_a, s, e_b) == 5.0


def test_phase_distance_geometric_series_case():
    # N=5, S=1,1,1,... vs 2,2,2,...: d_s converges to (9/5)*(1/9) = 0.2.
    k = 30
    d = phase_distance((1,) * k, (0,) * 5, (2,) * k, (0,) * 5, prefix_k=k)
    assert d == pytest.approx(0.2, abs=1e-12)


def test_phase_distance_one_over_n_case():
    for n in (2, 5, 8):
        d = phase_distance((1,) * 40, (0,) * n, (2,) * 40, (0,) * n, prefix_k=40)
        assert d == pytest.approx(1.0 / n, abs=1e-12)


def test_phase_distance_components_in_range():
    rng = random.Random(20)
    for _ in range(200):
        n = rng.randint(2, 8)
        e_a = tuple(rng.randint(0, 1) for _ in range(n))
        e_b = tuple(rng.randint(0, 1) for _ in range(n))
        k = rng.randint(0, 20)
        s_a = tuple(rng.randint(1, n) for _ in range(k))
        s_b = tuple(rng.randint(1, n) for _ in range(k))
        d = phase_distance(s_a, e_a, s_b, e_b)
        d_e = sum(1 for u, v in zip(e_a, e_b) if u != v)
        d_s = d - d_e
        assert 0 <= d_e <= n
        assert -1e-15 <= d_s < 1.0


def test_phase_distance_validation():
    with pytest.raises(ValueError):
        phase_distance((1,), (0, 1), (1,), (0, 1, 1))
    with pytest.raises(ValueError):
        phase_distance((1,), (), (1,), ())
    with pytest.raises(ValueError):
        phase_distance((3,), (0, 1), (1,), (0, 1))  # strategy > N
    with pytest.raises(ValueError):
        phase_distance((1,), (0, 2), (1,), (0, 1))
    with pytest.raises(ValueError):
        phase_distance((1,), (0, 1), (1,), (0, 1), prefix_k=-1)


def test_phase_distance_tail_bound_values():
    assert phase_distance_tail_bound(5, 0) == pytest.approx(0.8)
    assert phase_distance_tail_bound(2, 3) == pytest.approx(0.5e-3)
    assert phase_distance_tail_bound(8, 15) < 1e-12
    with pytest.raises(ValueError):
        phase_distance_tail_bound(0, 5)
    with pytest.raises(ValueError):
        phase_distance_tail_bound(5, -1)


def _random_point(rng, n, k):
    e = tuple(rng.randint(0, 1) for _ in range(n))
    s = tuple(rng.randint(1, n) for _ in range(k))
    return s, e


def test_phase_distance_metric_properties():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(2, 8)
        k = rng.randint(1, 25)
        a = _random_point(rng, n, k)
        b = _random_point(rng, n, k)
        c = _random_point(rng, n, k)
        d_ab = phase_distance(a[0], a[1], b[0], b[1])
        d_ba = phase_distance(b[0], b[1], a[0], a[1])
        d_ac = phase_distance(a[0], a[1], c[0], c[1])
        d_cb = phase_distance(c[0], c[1], b[0], b[1])
        assert d_ab == d_ba  # symmetry, exact
        assert phase_distance(a[0], a[1], a[0], a[1]) == 0.0
        assert d_ab <= d_ac + d_cb + 1e-12  # triangle inequality
