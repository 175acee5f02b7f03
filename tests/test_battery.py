"""Battery module: frozen worked-example oracles, gates, aggregation."""

import dataclasses
import math
import random
from math import erfc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from chaosbits import (
    P_T_THRESHOLD,
    GeneratorConfig,
    DegenerateSeedError,
    SeedSpec,
    approximate_entropy,
    block_frequency,
    cumulative_sums,
    frequency_monobit,
    generate_bits,
    longest_run,
    p_uniformity,
    report_to_csv,
    report_to_text,
    run_battery,
    runs_test,
    serial,
    spectral_dft,
)
from chaosbits.battery import TestResult as Result  # a Test* name would be collected
from chaosbits.battery import (
    _block_ones,
    _changes,
    _cusum_p,
    _longest_runs,
    _pattern_counts,
    _require_length,
    _run_all_tests,
    _Sequence,
    _walk_extremes,
    gammainc_upper,
)
from chaosbits.generator import require_bits, require_int

# Frozen reference values (brute-force/high-precision oracles, separate
# session).  Implementation agreement is required to 1e-12 relative.
REL = 1e-12


def bits(text):
    return [int(c) for c in text]


def de_bruijn_bits(order):
    # Standard Lyndon-word concatenation; every `order`-bit pattern
    # appears exactly once with wraparound.
    a = [0] * 2 * order
    seq = []

    def db(t, p):
        if t > order:
            if order % p == 0:
                seq.extend(a[1 : p + 1])
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, 2):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    return seq


def random_bits(n, seed):
    return random.Random(seed).choices((0, 1), k=n)


# -- monobit -------------------------------------------------------------


def test_monobit_worked_example():
    r = frequency_monobit(bits("1011010101"), relaxed=True)
    assert r.statistic == pytest.approx(2 / 10 ** 0.5, rel=REL)
    assert r.p_value == pytest.approx(0.5270892568655381, rel=REL)


def test_monobit_extremes():
    assert frequency_monobit([0] * 100000).p_value == 0.0
    balanced = [0, 1] * 50000
    assert frequency_monobit(balanced).p_value == 1.0


def test_monobit_length_gate():
    with pytest.raises(ValueError):
        frequency_monobit(bits("1011010101"))
    frequency_monobit(bits("1011010101"), relaxed=True)
    with pytest.raises(ValueError, match="one-dimensional"):
        frequency_monobit(np.zeros((2, 100), np.uint8))


def test_monobit_monotone_in_imbalance():
    # p strictly decreases as the ones-count imbalance grows (n fixed).
    n = 1000
    prev = None
    for ones in range(500, 380, -20):
        seq = [1] * ones + [0] * (n - ones)
        p = frequency_monobit(seq).p_value
        if prev is not None:
            assert p < prev
        prev = p


# -- block frequency ------------------------------------------------------


def test_block_frequency_worked_example():
    r = block_frequency(bits("0110011010"), 3, relaxed=True)
    assert r.statistic == pytest.approx(1.0, rel=REL)
    assert r.p_value == pytest.approx(0.8012519569012009, rel=REL)


def test_block_frequency_gates():
    with pytest.raises(ValueError):
        block_frequency(bits("0110011010"), 3)  # block_len < 20 needs relaxed
    with pytest.raises(ValueError):
        block_frequency([0, 1] * 5, 20, relaxed=True)  # no complete block
    with pytest.raises(ValueError):
        block_frequency([0, 1] * 50, 0, relaxed=True)


def test_block_frequency_perfect_blocks():
    # Every 20-bit block exactly balanced: chi2 = 0, p = 1.
    seq = ([0, 1] * 10) * 6
    r = block_frequency(seq, 20, relaxed=True)
    assert r.statistic == 0.0
    assert r.p_value == 1.0


# -- runs -----------------------------------------------------------------


def test_runs_worked_example():
    r = runs_test(bits("1001101011"), relaxed=True)
    assert r.statistic == 7.0
    assert r.p_value == pytest.approx(0.14723225536366571, rel=REL)
    assert r.params["gate_failed"] is False


def test_runs_gate_failure():
    r = runs_test([1] * 120 + [0] * 8, relaxed=True)
    assert r.p_value == 0.0
    assert r.params["gate_failed"] is True
    # Three ones pass the gate (|pi - 1/2| < 2/sqrt(3)) with no variance left.
    r = runs_test(np.ones(3, np.uint8), relaxed=True)
    assert r.p_value == 0.0
    assert r.params["gate_failed"] is False


def test_runs_alternation_extreme():
    assert runs_test([0, 1] * 50000).p_value < 1e-6


# -- longest run ------------------------------------------------------------


LONGEST_RUN_128 = (
    "11001100000101010110110001001100111000000000001001"
    "00110101010001000100111101011010000000110101111100"
    "1100111001101101100010110010"
)


def test_longest_run_worked_example():
    r = longest_run(bits(LONGEST_RUN_128))
    assert r.statistic == pytest.approx(4.882605259774992, rel=REL)
    assert r.p_value == pytest.approx(0.18059797678555814, rel=REL)
    assert r.params["M"] == 8


def test_longest_run_minimum_length():
    with pytest.raises(ValueError):
        longest_run([0, 1] * 63)


def test_longest_run_regime_switch():
    assert longest_run(random_bits(6272, 1)).params["M"] == 128
    assert longest_run(random_bits(6271, 1)).params["M"] == 8
    assert longest_run(random_bits(750000, 1)).params["M"] == 10000


def reference_longest_runs(blocks):
    # Column-by-column reference: the current run of each row grows by
    # one on a 1 and resets on a 0.
    run = np.zeros(blocks.shape[0], dtype=np.int64)
    best = np.zeros_like(run)
    for j in range(blocks.shape[1]):
        run = (run + 1) * blocks[:, j]
        np.maximum(best, run, out=best)
    return best


# Block shapes (n_blocks, M) of inputs at the regime edges: 128, 6272 and
# 750000 bits.
LONGEST_RUN_EDGE_SHAPES = [(16, 8), (49, 128), (75, 10000)]


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(LONGEST_RUN_EDGE_SHAPES)
    | st.tuples(st.integers(1, 30), st.integers(1, 70)),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    solid=st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 1)), max_size=4),
)
@example(shape=(16, 8), seed=1, density=0.5, solid=[(0, 1), (1, 0), (15, 1)])
@example(shape=(49, 128), seed=2, density=0.9, solid=[(0, 0), (48, 1)])
@example(shape=(75, 10000), seed=3, density=0.5, solid=[(0, 1), (74, 0)])
def test_longest_runs_match_column_loop(shape, seed, density, solid):
    # Random rows of a given density, some forced to all ones or all zeros.
    blocks = (np.random.default_rng(seed).random(shape) < density).astype(np.uint8)
    for row, value in solid:
        blocks[row % shape[0]] = value
    np.testing.assert_array_equal(_longest_runs(blocks), reference_longest_runs(blocks))


# -- spectral ---------------------------------------------------------------


def test_spectral_worked_example():
    r = spectral_dft(bits("1001010011"), relaxed=True)
    assert r.statistic == pytest.approx(0.7254762501100116, rel=REL)
    assert r.p_value == pytest.approx(0.46815990985442807, rel=REL)
    assert r.params["n1"] == 5


def test_spectral_constant_input_concentrates_at_dc():
    assert spectral_dft([1] * 2000).p_value < 1e-10


def test_spectral_length_gate():
    with pytest.raises(ValueError):
        spectral_dft(random_bits(999, 2))
    spectral_dft(random_bits(999, 2), relaxed=True)


# -- cumulative sums ----------------------------------------------------------


def test_cusum_frozen_values():
    # z=16 over n=100 steps: the standard worked figure.
    fwd, bwd = cumulative_sums(bits("11" * 8 + "0110010101" * 4 + "00" * 22), relaxed=True)
    # direct statistic checks on crafted sequences instead: frozen
    # oracle points on the tail series itself.
    from chaosbits.battery import _cusum_p

    assert _cusum_p(16, 100) == pytest.approx(0.21919399348562657, rel=REL)
    assert _cusum_p(1, 10 ** 4) == 1.0
    assert _cusum_p(10 ** 4, 10 ** 4) == 0.0


def test_cusum_directions_and_extremes():
    fwd, bwd = cumulative_sums([0] * 100000)
    assert fwd.statistic == 100000.0
    assert fwd.p_value == 0.0
    assert bwd.p_value == 0.0
    fwd, bwd = cumulative_sums([0, 1] * 50000)
    assert fwd.statistic == 1.0
    assert fwd.p_value == 1.0
    assert bwd.statistic == 1.0


def test_cusum_forward_backward_differ_on_asymmetric_input():
    seq = [1] * 30 + random_bits(100, 3) + [0] * 30
    fwd, bwd = cumulative_sums(seq, relaxed=True)
    assert fwd.test_name == "cumulative-sums-forward"
    assert bwd.test_name == "cumulative-sums-backward"
    assert (fwd.statistic, fwd.p_value) != (bwd.statistic, bwd.p_value)


def reference_cusum_z(b):
    # The two walks as the standard states them: the forward walk and the
    # walk over the reversed sequence, each its own cumulative sum.
    x = 2 * np.asarray(b, dtype=np.int64) - 1
    return tuple(int(np.max(np.abs(np.cumsum(seq)))) for seq in (x, x[::-1]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=400))
@example([0])
@example([1, 0])
@example([0, 1, 1])
def test_cusum_one_walk_matches_two_walks(b):
    fwd, bwd = cumulative_sums(b, relaxed=True)
    assert (fwd.statistic, bwd.statistic) == reference_cusum_z(b)


# -- serial ---------------------------------------------------------------


def test_serial_worked_example():
    r1, r2 = serial(bits("0011011101"), 3, relaxed=True)
    assert r1.statistic == pytest.approx(1.6, rel=REL)
    assert r2.statistic == pytest.approx(0.8, rel=REL)
    assert r1.p_value == pytest.approx(0.8087921354109989, rel=REL)
    assert r2.p_value == pytest.approx(0.6703200460356397, rel=REL)


def test_serial_de_bruijn_exact_uniformity():
    seq = de_bruijn_bits(11)
    assert len(seq) == 2048
    r1, r2 = serial(seq, 11, relaxed=True)
    assert r1.p_value == 1.0
    assert r2.p_value == 1.0


def test_serial_period_two_extreme():
    r1, r2 = serial([0, 1] * 10000, 10)
    assert r1.p_value < 1e-10
    assert r2.p_value < 1e-10


def test_serial_gates():
    with pytest.raises(ValueError):
        serial(random_bits(100, 4), 1, relaxed=True)
    with pytest.raises(ValueError):
        serial(random_bits(100, 4), 10)  # needs n >= 2^13 strict
    serial(random_bits(100, 4), 5, relaxed=True)


def test_serial_relaxed_needs_half_the_pattern_table():
    # Relaxed mode still needs n >= 2^(m-1): at most 2n counters.
    serial(random_bits(256, 4), 9, relaxed=True)
    with pytest.raises(ValueError, match="minimum 256"):
        serial(random_bits(255, 4), 9, relaxed=True)
    with pytest.raises(ValueError, match="minimum 17592186044416"):
        serial(random_bits(200, 4), 45, relaxed=True)  # not a 2^45-counter table


# -- approximate entropy ------------------------------------------------------


def test_apen_worked_example():
    r = approximate_entropy(bits("0100110101"), 3, relaxed=True)
    assert r.statistic == pytest.approx(10.043858601430024, rel=REL)
    assert r.p_value == pytest.approx(0.26196110488166574, rel=REL)
    assert r.params["apen"] == pytest.approx(0.19095425048844406, rel=REL)


def test_apen_de_bruijn_maximal_entropy():
    # Order-11 de Bruijn: every 10- and 11-bit pattern equally frequent,
    # so ApEn(10) = ln 2 exactly and chi2 = 0.
    r = approximate_entropy(de_bruijn_bits(11), 10, relaxed=True)
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_apen_constant_extreme():
    assert approximate_entropy([1] * (1 << 16), 10).p_value < 1e-10


def test_apen_gates():
    with pytest.raises(ValueError):
        approximate_entropy(random_bits(100, 5), 0, relaxed=True)
    with pytest.raises(ValueError):
        approximate_entropy(random_bits(1000, 5), 10)  # needs n >= 2^16 strict


def test_apen_relaxed_needs_half_the_pattern_table():
    # The (m+1)-bit table: relaxed mode still needs n >= 2^m.
    approximate_entropy(random_bits(256, 5), 8, relaxed=True)
    with pytest.raises(ValueError, match="minimum 256"):
        approximate_entropy(random_bits(255, 5), 8, relaxed=True)
    with pytest.raises(ValueError, match="minimum 35184372088832"):
        approximate_entropy(random_bits(200, 5), 45, relaxed=True)


# -- SP 800-22 Rev. 1a, Appendix B ------------------------------------------


def test_first_megabit_of_e_matches_appendix_b():
    # The first 1e6 bits of e's binary expansion (10.1011011111...), the
    # integer part included, against the e row of the standard's table
    # of example results.
    n = 10**6
    with mpmath.workprec(n + 64):
        e_bits = format(int(mpmath.floor(mpmath.e * 2 ** (n - 2))), "b")
    b = np.frombuffer(e_bits.encode("ascii"), dtype=np.uint8) - ord("0")
    assert b.size == n and e_bits.startswith("1010110111111")
    forward, reverse = cumulative_sums(b)
    serial_1, serial_2 = serial(b, 16)
    got = {
        "monobit": frequency_monobit(b).p_value,
        "block frequency (M=128)": block_frequency(b, 128).p_value,
        "runs": runs_test(b).p_value,
        "longest run": longest_run(b).p_value,
        "spectral": spectral_dft(b).p_value,
        "cusum forward": forward.p_value,
        "cusum reverse": reverse.p_value,
        "serial 1 (m=16)": serial_1.p_value,
        "serial 2 (m=16)": serial_2.p_value,
        "approximate entropy (m=10)": approximate_entropy(b, 10).p_value,
    }
    expected = {
        "monobit": 0.953749,
        "block frequency (M=128)": 0.211072,
        "runs": 0.561917,
        "longest run": 0.718945,
        "spectral": 0.847187,
        "cusum forward": 0.669887,
        "cusum reverse": 0.724266,
        "serial 1 (m=16)": 0.766182,
        "serial 2 (m=16)": 0.462921,
        "approximate entropy (m=10)": 0.700073,
    }
    assert got == pytest.approx(expected, abs=1e-6)


# -- shared pattern counts ----------------------------------------------------


def reference_pattern_counts(b, m):
    # One sliding-window pass per pattern length: the wraparound m-bit
    # pattern counts that serial and approximate entropy are defined on.
    ext = np.concatenate([b, b[: m - 1]]) if m > 1 else b
    windows = sliding_window_view(ext, m)
    weights = (1 << np.arange(m - 1, -1, -1)).astype(np.int64)
    return np.bincount(windows @ weights, minlength=1 << m)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 20).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(st.integers(0, 1), min_size=m, max_size=300))
    )
)
@example((20, [1] * 20))
@example((20, [0, 1] * 100 + [1]))
@example((17, [1, 1, 0] * 7))
def test_pattern_counts_match_per_length_reference(case):
    m, seq = case
    b = np.array(seq, dtype=np.uint8)
    counts = _pattern_counts(b, m)
    assert len(counts) == m
    for i, c in enumerate(counts):
        np.testing.assert_array_equal(c, reference_pattern_counts(b, m - i))


PATTERN_PAIRS = [(10, 10), (13, 7), (12, 3), (5, 4)]


@pytest.mark.parametrize("serial_m, apen_m", [*PATTERN_PAIRS, (2, 9), (3, 12)])
def test_battery_shares_one_pattern_table_bit_exactly(serial_m, apen_m):
    # Serial and approximate entropy read one pattern table of the
    # sequence; every result equals the standalone call on the raw bits.
    # (3, 12) is relaxed: 2^17 bits are below approximate entropy's strict
    # minimum at m = 12.
    relaxed = apen_m > 11
    seq = generate_bits(GeneratorConfig(6, (9, 10), SeedSpec.from_time(484076)), 1 << 17)
    results = _run_all_tests(seq, relaxed, 20000, serial_m, apen_m)
    assert results == [
        frequency_monobit(seq, relaxed),
        block_frequency(seq, 20000, relaxed),
        runs_test(seq, relaxed),
        longest_run(seq),
        spectral_dft(seq, relaxed),
        *cumulative_sums(seq, relaxed),
        *serial(seq, serial_m, relaxed),
        approximate_entropy(seq, apen_m, relaxed),
    ]


@pytest.fixture
def pattern_count_widths(monkeypatch):
    # The width of every table battery._pattern_counts counts.
    widths = []

    def spy(bits, m):
        widths.append(m)
        return _pattern_counts(bits, m)

    monkeypatch.setattr("chaosbits.battery._pattern_counts", spy)
    return widths


@pytest.mark.parametrize("serial_m, apen_m", PATTERN_PAIRS)
def test_each_sequence_counts_its_patterns_once(pattern_count_widths, serial_m, apen_m):
    config = GeneratorConfig(6, (9, 10), SeedSpec.from_time(484076))
    run_battery(config, 3, 1 << 14, relaxed=True, block_len=1000, serial_m=serial_m, apen_m=apen_m)
    assert len(pattern_count_widths) == 3


def test_either_pattern_test_order_counts_once(pattern_count_widths):
    b = generate_bits(GeneratorConfig(6, (9, 10), SeedSpec.from_time(484076)), 1 << 14)
    seq = _Sequence(b)
    first = [*serial(seq, 10, True), approximate_entropy(seq, 10, True)]
    assert pattern_count_widths == [11]
    seq = _Sequence(b)
    second = [approximate_entropy(seq, 10, True), *serial(seq, 10, True)]
    assert pattern_count_widths == [11, 12]
    assert first == [*second[1:], second[0]]


@pytest.mark.parametrize("n, counters", [(1023, 1024), (1024, 2048)])
def test_pattern_table_holds_at_most_2n_counters(pattern_count_widths, n, counters):
    # Serial at m = 10 accepts n >= 2^9 when relaxed; one bit wider only from n = 2^10.
    seq = _Sequence(np.resize(np.array([0, 1, 1], dtype=np.uint8), n))
    serial(seq, 10, relaxed=True)
    assert [1 << m for m in pattern_count_widths] == [counters]
    assert counters <= 2 * n


def test_battery_checks_each_pattern_length_before_counting():
    # Both too long for the input: serial's message comes first, as when
    # the tests run one by one.  With serial's m valid, serial counts and
    # then approximate entropy rejects its own m before counting.
    seq = generate_bits(GeneratorConfig(6, (9, 10), SeedSpec.from_time(484076)), 4096)
    with pytest.raises(ValueError, match="^serial: sequence length 4096 is below the minimum 8192"):
        _run_all_tests(seq, True, 400, 14, 13)
    with pytest.raises(ValueError, match="^approximate-entropy: sequence length 4096 is below the minimum 8192"):
        _run_all_tests(seq, True, 400, 3, 13)


# -- packed kernels against per-bit references --------------------------------
# Per-bit reference implementations of the tests that read the sequence
# packed: each walks one uint8 per bit, then forms its statistic with the
# battery's float expressions, so every result must be equal, not close.


def per_bit_monobit(bits, relaxed=False):
    b = require_bits(bits)
    n = b.size
    _require_length(n, 100, 1, relaxed, "monobit")
    s = 2 * int(b.sum()) - n
    s_obs = abs(s) / math.sqrt(n)
    p = erfc(s_obs / math.sqrt(2.0))
    return Result("monobit", s_obs, p, {"n": n})


def per_bit_block_frequency(bits, block_len=20000, relaxed=False):
    b = require_bits(bits)
    n = b.size
    block_len = require_int(block_len, "block_frequency: block_len", 1)
    if block_len < 20 and not relaxed:
        raise ValueError(
            f"block_frequency: block_len {block_len} is below the minimum 20; relaxed mode lowers it"
        )
    n_blocks = n // block_len
    if n_blocks == 0:
        raise ValueError(f"block_frequency: sequence of {n} bits holds no {block_len}-bit block")
    props = b[: n_blocks * block_len].reshape(n_blocks, block_len).mean(axis=1)
    chi2 = 4.0 * block_len * float(np.sum((props - 0.5) ** 2))
    p = gammainc_upper(n_blocks / 2.0, chi2 / 2.0)
    return Result("block-frequency", chi2, p, {"M": block_len, "n_blocks": n_blocks})


def per_bit_runs(bits, relaxed=False):
    b = require_bits(bits)
    n = b.size
    _require_length(n, 100, 2, relaxed, "runs")
    pi = float(b.mean())
    v_obs = 1 + int(np.count_nonzero(b[1:] != b[:-1]))
    tau = 2.0 / math.sqrt(n)
    if abs(pi - 0.5) >= tau:
        return Result("runs", float(v_obs), 0.0, {"pi": pi, "gate_failed": True})
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    if den == 0.0:
        return Result("runs", float(v_obs), 0.0, {"pi": pi, "gate_failed": False})
    p = erfc(abs(v_obs - 2.0 * n * pi * (1.0 - pi)) / den)
    return Result("runs", float(v_obs), p, {"pi": pi, "gate_failed": False})


def per_bit_spectral(bits, relaxed=False):
    b = require_bits(bits)
    n = b.size
    _require_length(n, 1000, 2, relaxed, "spectral")
    x = 2.0 * b - 1.0
    mags = np.abs(np.fft.rfft(x))[: n // 2]
    threshold = math.sqrt(n * math.log(1.0 / 0.05))
    n0 = 0.95 * n / 2.0
    n1 = int(np.count_nonzero(mags < threshold))
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p = erfc(abs(d) / math.sqrt(2.0))
    return Result("spectral", d, p, {"threshold": threshold, "n0": n0, "n1": n1})


def per_bit_walk(b):
    # The +/-1 walk's partial sums s[0..n-1], after each step.
    return np.cumsum(2 * b.astype(np.int64) - 1)


def per_bit_cumulative_sums(bits, relaxed=False):
    b = require_bits(bits)
    n = b.size
    _require_length(n, 100, 1, relaxed, "cumulative-sums")
    s = per_bit_walk(b)
    last = int(s[-1])
    head = s[:-1]
    forward = max(int(s.max()), -int(s.min()))
    backward = max(last - int(head.min(initial=0)), int(head.max(initial=0)) - last)
    out = []
    for name, z in (("cumulative-sums-forward", forward), ("cumulative-sums-backward", backward)):
        p = _cusum_p(z, n)
        out.append(Result(name, float(z), p, {"mode": name.rsplit("-", 1)[1]}))
    return out[0], out[1]


def per_bit_pattern_counts(b, m):
    # m shift-or steps on a uint32 index over the sequence extended by its
    # first m-1 bits, one bincount, then folds for the shorter patterns.
    n = b.size
    ext = np.concatenate([b, b[: m - 1]])
    idx = np.zeros(n, dtype=np.uint32)
    for j in range(m):
        idx <<= 1
        idx |= ext[j : j + n]
    counts = [np.bincount(idx, minlength=1 << m)]
    while len(counts) < m:
        counts.append(counts[-1][0::2] + counts[-1][1::2])
    return counts


class PerBitSequence(_Sequence):
    def pattern_counts(self, m):
        return per_bit_pattern_counts(self.bits, m)


def per_bit_run_all_tests(bits, relaxed, block_len, serial_m, apen_m):
    # Bit-by-bit counts, fed into the battery's own pattern statistics.
    b = require_bits(bits)
    seq = PerBitSequence(b)
    return [
        per_bit_monobit(b, relaxed),
        per_bit_block_frequency(b, block_len, relaxed),
        per_bit_runs(b, relaxed),
        longest_run(b),
        per_bit_spectral(b, relaxed),
        *per_bit_cumulative_sums(b, relaxed),
        *serial(seq, serial_m, relaxed),
        approximate_entropy(seq, apen_m, relaxed),
    ]


def outcome(call, *args):
    # A result, or the error it raised, so failures compare too.
    try:
        return call(*args)
    except ValueError as exc:
        return repr(exc)


# Sequences whose packed bytes are all alike: constant, and alternating from
# either bit, at every length mod 8.
def uniform_sequences(lengths):
    for n in lengths:
        for pattern in ([0], [1], [0, 1], [1, 0]):
            yield np.resize(np.array(pattern, dtype=np.uint8), n)


BIT_LISTS = st.lists(st.integers(0, 1), min_size=1, max_size=400)
# Block lengths that are and are not whole bytes.
BLOCK_LENS = st.sampled_from([8, 16, 24, 64, 128]) | st.integers(1, 70)


def check_packed_counts(b, block_len):
    seq = _Sequence(b)
    assert seq.ones == int(b.sum())
    block_len = min(block_len, b.size)
    n_blocks = b.size // block_len
    np.testing.assert_array_equal(
        _block_ones(seq, block_len), b[: n_blocks * block_len].reshape(n_blocks, block_len).sum(axis=1))
    assert _changes(seq) == int(np.count_nonzero(b[1:] != b[:-1]))
    head = per_bit_walk(b)[:-1]
    assert _walk_extremes(seq) == (int(head.max(initial=0)), int(head.min(initial=0)))


@settings(max_examples=300, deadline=None)
@given(BIT_LISTS, BLOCK_LENS)
def test_packed_counts_match_per_bit_counts(seq, block_len):
    check_packed_counts(np.array(seq, dtype=np.uint8), block_len)


@pytest.mark.parametrize("block_len", [1, 3, 8, 9, 16, 20])
def test_packed_counts_of_uniform_sequences(block_len):
    for b in uniform_sequences(range(1, 42)):
        check_packed_counts(b, block_len)


PER_BIT_TESTS = [
    (frequency_monobit, per_bit_monobit),
    (block_frequency, per_bit_block_frequency),
    (runs_test, per_bit_runs),
    (spectral_dft, per_bit_spectral),
    (cumulative_sums, per_bit_cumulative_sums),
]


@settings(max_examples=150, deadline=None)
@given(BIT_LISTS, BLOCK_LENS)
def test_packed_tests_match_per_bit_code(seq, block_len):
    b = np.array(seq, dtype=np.uint8)
    for packed, per_bit in PER_BIT_TESTS:
        assert outcome(packed, b, True) == outcome(per_bit, b, True)
    assert outcome(block_frequency, b, block_len, True) == outcome(per_bit_block_frequency, b, block_len, True)


def test_packed_tests_match_per_bit_code_on_uniform_sequences():
    for b in uniform_sequences([*range(100, 109), 1000, 1001, 1007]):
        for relaxed in (False, True):
            for packed, per_bit in PER_BIT_TESTS:
                assert outcome(packed, b, relaxed) == outcome(per_bit, b, relaxed)
        m = 3 if b.size < 1000 else 6
        args = (b, True, 20, m, m)
        assert outcome(_run_all_tests, *args) == outcome(per_bit_run_all_tests, *args)


@pytest.mark.parametrize("config, n", [
    (GeneratorConfig(5, (14, 15), SeedSpec.from_time(484200)), 10**6),  # scheme-6, the paper scale
    (GeneratorConfig(8, (1,), SeedSpec.from_time(484076)), 200000),  # scheme-1, the benchmark's battery
])
def test_battery_matches_per_bit_code_on_generated_sequences(config, n):
    seq = generate_bits(config, n)
    for args in ((False, 20000, 10, 10), (False, 1001, 13, 7)):
        assert _run_all_tests(seq, *args) == per_bit_run_all_tests(seq, *args)


# -- p-value range property over all tests -----------------------------------


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=200, max_size=400))
def test_all_p_values_in_unit_interval(seq):
    results = [
        frequency_monobit(seq, relaxed=True),
        block_frequency(seq, 20, relaxed=True),
        runs_test(seq, relaxed=True),
        spectral_dft(seq, relaxed=True),
        *cumulative_sums(seq, relaxed=True),
        *serial(seq, 4, relaxed=True),
        approximate_entropy(seq, 3, relaxed=True),
    ]
    if len(seq) >= 128:
        results.append(longest_run(seq))
    for r in results:
        assert 0.0 <= r.p_value <= 1.0, r.test_name
        assert np.isfinite(r.statistic), r.test_name


# -- p_uniformity -------------------------------------------------------------


def test_p_uniformity_one_bin_concentration():
    p_t = p_uniformity([0.05] * 100)
    # chi2 = 900; frozen gamma oracle value.
    assert p_t == pytest.approx(6.186801032394574e-188, rel=REL)
    assert p_t < 1e-6


def test_p_uniformity_perfectly_uniform():
    ps = [(i + 0.5) / 10 for i in range(10) for _ in range(10)]
    assert p_uniformity(ps) == 1.0


def test_p_uniformity_permutation_invariant():
    ps = [random.Random(6).random() for _ in range(100)]
    shuffled = ps[:]
    random.Random(7).shuffle(shuffled)
    assert p_uniformity(ps) == p_uniformity(shuffled)


def test_p_uniformity_validation_and_warning():
    with pytest.raises(ValueError):
        p_uniformity([])
    with pytest.raises(ValueError):
        p_uniformity([0.5, 1.2])
    with pytest.warns(UserWarning):
        p_uniformity([0.5] * 54)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p_uniformity([0.5] * 55)  # no warning at the recommended count


def test_p_uniformity_rejects_nan():
    with pytest.raises(ValueError, match=r"must lie in \[0,1\]"):
        p_uniformity([float("nan")] * 60)
    with pytest.raises(ValueError, match=r"must lie in \[0,1\]"):
        p_uniformity([0.5] * 59 + [float("nan")])


def test_p_uniformity_threshold_constant():
    assert P_T_THRESHOLD == 1e-4


def test_p_uniformity_bin_edges():
    # 0.1 belongs to the second bin, 1.0 to the top bin.
    with pytest.warns(UserWarning):
        low = p_uniformity([0.0999999] * 10)
        second = p_uniformity([0.1] * 10)
        p_uniformity([1.0] * 10)  # must not raise
    assert low == second  # same multiset shape: all mass in one bin


# -- run_battery ----------------------------------------------------------------


def small_battery(seed_t=484076, n_seq=3, seq_len=4000, **kw):
    cfg = GeneratorConfig(5, (14, 15), SeedSpec.from_time(seed_t))
    kw.setdefault("relaxed", True)
    kw.setdefault("block_len", 400)
    kw.setdefault("serial_m", 5)
    kw.setdefault("apen_m", 5)
    return run_battery(cfg, n_seq, seq_len, **kw)


def test_battery_row_structure():
    report = small_battery()
    names = [e.test_name for e in report.entries]
    assert names == sorted(names)
    assert names == [
        "approximate-entropy",
        "block-frequency",
        "cumulative-sums-backward",
        "cumulative-sums-forward",
        "cumulative-sums-mean",
        "longest-run",
        "monobit",
        "runs",
        "serial-1",
        "serial-2",
        "serial-mean",
        "spectral",
    ]
    for e in report.entries:
        if e.informational:
            assert e.test_name.endswith("-mean")
            assert e.results == ()
        else:
            assert len(e.results) == report.n_sequences
            assert e.passed == (e.p_t >= P_T_THRESHOLD)


def test_battery_mean_rows_average_sub_p_ts():
    report = small_battery()
    by = {e.test_name: e for e in report.entries}
    assert by["serial-mean"].p_t == pytest.approx(
        (by["serial-1"].p_t + by["serial-2"].p_t) / 2, rel=1e-15
    )
    assert by["cumulative-sums-mean"].p_t == pytest.approx(
        (by["cumulative-sums-forward"].p_t + by["cumulative-sums-backward"].p_t) / 2,
        rel=1e-15,
    )


def test_battery_verdict_ignores_informational_rows():
    report = small_battery()
    verdict_rows = [e for e in report.entries if not e.informational]
    assert report.passed == all(e.passed for e in verdict_rows)


def test_battery_determinism():
    a = small_battery()
    b = small_battery()
    assert report_to_csv(a) == report_to_csv(b)
    assert report_to_text(a) == report_to_text(b)


def test_battery_seed_schedule_is_master_plus_index():
    # Sequence i of a batch equals a single-sequence batch at master+i.
    batch = small_battery(n_seq=3)
    for i in range(3):
        single = small_battery(seed_t=484076 + i, n_seq=1)
        by_batch = {e.test_name: e for e in batch.entries if not e.informational}
        by_single = {e.test_name: e for e in single.entries if not e.informational}
        for name, entry in by_single.items():
            assert by_batch[name].p_values[i] == entry.p_values[0]


def test_battery_small_sample_warning_recorded():
    report = small_battery(n_seq=1)
    assert any("55" in w for w in report.warnings)


def test_battery_explicit_seed_single_sequence_only():
    cfg = GeneratorConfig(5, (14, 15), SeedSpec.explicit((1, 0, 1, 0, 0), 0.3))
    run_battery(cfg, 1, 4000, relaxed=True, block_len=400, serial_m=5, apen_m=5)
    with pytest.raises(ValueError):
        run_battery(cfg, 2, 4000, relaxed=True, block_len=400, serial_m=5, apen_m=5)


def test_battery_degenerate_sequence_aborts_with_context():
    # master 249999: sequence 1 resolves to t=250000, a dead seed.
    with pytest.raises(DegenerateSeedError, match="sequence 1"):
        small_battery(seed_t=249999, n_seq=2)


def test_battery_rejects_bad_args():
    cfg = GeneratorConfig(5, (14, 15), SeedSpec.from_time(484076))
    with pytest.raises(ValueError):
        run_battery(cfg, 0, 1000)
    with pytest.raises(ValueError):
        run_battery(cfg, 1, 0)


def test_battery_csv_shape():
    report = small_battery()
    text = report_to_csv(report)
    detail, summary = text.split("\n\n")
    detail_lines = detail.splitlines()
    assert detail_lines[0] == "test,param,seq_index,p_value"
    # 10 verdict rows x 3 sequences of detail rows
    assert len(detail_lines) == 1 + 10 * 3
    summary_lines = summary.splitlines()
    assert summary_lines[0] == "test,p_t,pass"
    assert len(summary_lines) == 1 + 12
    for line in summary_lines[1:]:
        name, p_t, flag = line.split(",")
        assert flag in ("true", "false")
        assert 0.0 <= float(p_t) <= 1.0


def test_battery_text_report_shape():
    report = small_battery()
    text = report_to_text(report)
    assert "battery verdict:" in text
    assert "(info)" in text
    for e in report.entries:
        assert e.test_name in text


def test_battery_relaxed_flag_recorded():
    # The relaxed note comes first, then the p_uniformity message once,
    # although it holds for all 10 verdict rows.
    report = small_battery()
    assert report.relaxed is True
    assert report.warnings == (
        "relaxed mode: recommended minimum lengths are not enforced",
        "p_uniformity: only 3 P-values; at least 55 are recommended "
        "for a meaningful uniformity reading",
    )
