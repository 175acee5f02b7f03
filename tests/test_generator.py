"""Generator module: driver arithmetic, transcripts, seeding, serialization."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaosbits.generator
from chaosbits import (
    SCHEMES,
    ChaoticBitGenerator,
    DegenerateSeedError,
    GeneratorConfig,
    GrayscaleImage,
    SeedSpec,
    TranscriptDriver,
    TranscriptExhausted,
    bits_to_ascii,
    chaotic_step,
    config_from_text,
    config_to_text,
    generate_bits,
    logistic_step,
    m_from_y,
    pack_bits,
    parse_ascii_bits,
    run_battery,
    seed_from_time,
    strategy_from_y,
    transcript_from_text,
)
from chaosbits.generator import require_bits

# The published worked example: seed vector, forced transcripts, output.
X0 = (1, 0, 1, 0, 0)
S_TRANSCRIPT = (2, 4, 2, 2, 5, 1, 1, 5, 5, 3, 2, 3, 3)
M_TRANSCRIPT = (4, 5, 4)
OUTPUT_20 = "10100111101111110011"

# Binary64 logistic orbit from y0 = 0.484076 (frozen from an
# independent binary64 evaluation; the printed 6-digit prefixes are
# 0.998985, 0.004053, 0.016146, 0.063543, 0.238022, 0.725470, 0.796651).
ORBIT_FROM_0_484076 = (
    0.9989857048960001,
    0.004053065237767458,
    0.016146551599783437,
    0.06354336188487587,
    0.2380224121809743,
    0.7254709739220987,
    0.7966513596744812,
)


def table1_config(**overrides):
    base = dict(n_cells=5, m_set=(4, 5), seed=SeedSpec.explicit(X0, 0.1))
    base.update(overrides)
    return GeneratorConfig(**base)


def table1_generator(**overrides):
    return ChaoticBitGenerator(table1_config(**overrides), driver=TranscriptDriver(M_TRANSCRIPT, S_TRANSCRIPT))


# -- logistic_step ------------------------------------------------------


def test_logistic_step_exact_values():
    assert logistic_step(0.5) == 1.0
    assert logistic_step(0.0) == 0.0
    assert logistic_step(1.0) == 0.0


def test_logistic_orbit_binary64_exact():
    y = 0.484076
    for expected in ORBIT_FROM_0_484076:
        y = logistic_step(y)
        assert y == expected


def test_logistic_orbit_printed_prefixes():
    printed = ("0.998985", "0.004053", "0.016146", "0.063543",
               "0.238022", "0.725470", "0.796651")
    y = 0.484076
    for prefix in printed:
        y = logistic_step(y)
        assert f"{y:.12f}".startswith(prefix)


def test_logistic_step_rejects_out_of_range():
    with pytest.raises(ValueError):
        logistic_step(-0.1)
    with pytest.raises(ValueError):
        logistic_step(1.0000001)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_logistic_step_closed_on_unit_interval(y):
    assert 0.0 <= logistic_step(y) <= 1.0


# -- strategy_from_y / m_from_y -----------------------------------------


def test_strategy_examples():
    assert strategy_from_y(0.0, 5) == 1
    assert strategy_from_y(0.25, 5) == 1  # 2_500_000 mod 5 = 0
    # Binary64 value frozen from an integer oracle on the float product.
    assert strategy_from_y(0.998985, 5) == 1


def test_strategy_transcript_from_orbit():
    # Frozen: strategy values over the orbit y0, y1, ... from 0.484076.
    y = 0.484076
    got = []
    for _ in range(13):
        got.append(strategy_from_y(y, 5))
        y = logistic_step(y)
    assert tuple(got) == (1, 3, 1, 1, 4, 5, 5, 4, 4, 2, 1, 2, 2)


def test_strategy_rejects_bad_inputs():
    with pytest.raises(ValueError):
        strategy_from_y(-0.5, 5)
    with pytest.raises(ValueError):
        strategy_from_y(0.5, 1)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), st.integers(2, 64))
def test_strategy_always_in_range(y, n):
    assert 1 <= strategy_from_y(y, n) <= n


def test_m_from_y_two_element_threshold():
    assert m_from_y(0.484076, (4, 5)) == 4
    assert m_from_y(0.5, (4, 5)) == 5
    assert m_from_y(0.999, (14, 15)) == 15
    assert m_from_y(0.0, (4, 5)) == 4
    assert m_from_y(1.0, (4, 5)) == 5  # top endpoint clamps to the last element


def test_m_from_y_gap_transcript_from_orbit():
    # The published gap listing for M={4,5} from y0 = 0.484076.
    y = 0.484076
    got = []
    for _ in range(7):
        got.append(m_from_y(y, (4, 5)))
        y = logistic_step(y)
    assert tuple(got) == (4, 5, 4, 4, 4, 4, 5)


def test_m_from_y_singleton_is_constant():
    for y in (0.0, 0.3, 0.77, 1.0):
        assert m_from_y(y, (8,)) == 8


def test_m_from_y_equal_width_partition():
    mset = (1, 2, 3, 4)
    assert m_from_y(0.0, mset) == 1
    assert m_from_y(0.249, mset) == 1
    assert m_from_y(0.25, mset) == 2
    assert m_from_y(0.74, mset) == 3
    assert m_from_y(0.75, mset) == 4


def test_m_from_y_rejects_bad_inputs():
    with pytest.raises(ValueError):
        m_from_y(1.5, (4, 5))
    with pytest.raises(ValueError):
        m_from_y(0.5, ())


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), st.integers(2, 64), st.integers(1, 40))
@example(2.0**-52, 5, 2)
@example(1.0 - 2.0**-53, 64, 3)  # the last y < 1; its step is ~4.4e-16
@example(1.0, 8, 1)  # steps to the fixed point 0
@example(0.75, 5, 4)  # the other fixed point; 0.75*4 = 3 exactly
@example(0.5, 2, 2)  # 1e7*y = 5e6 and y*k = 1 exactly
@example(0.1, 7, 10)  # 1e7*y rounds to 1e6 exactly
@example(1 / 3, 3, 3)  # y*k rounds to 1 exactly
@example(5e-324, 63, 7)  # a subnormal seed
def test_scaled_orbit_matches_the_y_form(y, n, k):
    # The block loops carry z = 4y; each quantity they take from z equals
    # the helper's on y, bit for bit (see _blockloop.c).
    z = 4.0 * y
    nxt = z * (4.0 - z)
    assert nxt == 4.0 * logistic_step(y)  # the step
    assert 0.25 * nxt == logistic_step(y)
    assert (nxt == z) == (logistic_step(y) == y)  # the fixed-point test
    assert int(2.5e6 * z) == int(1e7 * y)
    assert int(2.5e6 * z) % n + 1 == strategy_from_y(y, n)  # the strategy
    assert int(z * (0.25 * k)) == int(y * k)
    m_set = tuple(range(1, k + 1))
    assert m_set[min(int(z * (0.25 * k)), k - 1)] == m_from_y(y, m_set)  # the gap
    assert 0.25 * z == y  # the state between calls


# -- chaotic_step --------------------------------------------------------


def test_chaotic_step_examples():
    assert chaotic_step((1, 0, 1, 0, 0), 2) == (1, 1, 1, 0, 0)
    assert chaotic_step((1, 1, 1, 1, 0), 5) == (1, 1, 1, 1, 1)


def test_chaotic_step_out_of_range():
    with pytest.raises(ValueError):
        chaotic_step((1, 0), 0)
    with pytest.raises(ValueError):
        chaotic_step((1, 0), 3)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=32), st.data())
def test_chaotic_step_flips_exactly_one_cell(x, data):
    s = data.draw(st.integers(1, len(x)))
    y = chaotic_step(x, s)
    diffs = [i for i, (u, v) in enumerate(zip(x, y)) if u != v]
    assert diffs == [s - 1]
    assert chaotic_step(y, s) == tuple(x)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=32))
def test_full_negation_decomposes_cellwise(x):
    y = tuple(x)
    for s in range(1, len(x) + 1):
        y = chaotic_step(y, s)
    assert y == tuple(1 - b for b in x)


# -- seed handling -------------------------------------------------------


def test_seed_from_time_worked_example():
    x0, y0 = seed_from_time(484076, 5)
    assert y0 == 0.484076
    assert x0 == (0, 1, 1, 0, 0)  # 484076 mod 32 = 12, big-endian


def test_seed_from_time_digit_scaling():
    assert seed_from_time(7, 3)[1] == 0.7
    assert seed_from_time(123, 3)[1] == 0.123


def test_seed_from_time_rejects_degenerate():
    with pytest.raises(DegenerateSeedError):
        seed_from_time(0, 5)
    with pytest.raises(DegenerateSeedError):
        seed_from_time(250000, 5)  # y0 = 0.25
    with pytest.raises(DegenerateSeedError):
        seed_from_time(5, 5)  # y0 = 0.5


def test_seed_from_time_rejects_bad_args():
    with pytest.raises(ValueError):
        seed_from_time(-1, 5)
    with pytest.raises(ValueError):
        seed_from_time(484076, 1)


def test_seedspec_forms():
    assert SeedSpec.from_time(484076).resolve(5) == ((0, 1, 1, 0, 0), 0.484076)
    spec = SeedSpec.explicit((1, 0, 1), 0.3)
    assert spec.resolve(3) == ((1, 0, 1), 0.3)
    with pytest.raises(ValueError):
        spec.resolve(5)  # length mismatch
    with pytest.raises(ValueError):
        SeedSpec(t=1, x0=(1, 0), y0=0.3)  # both forms
    with pytest.raises(ValueError):
        SeedSpec()  # neither form
    with pytest.raises(ValueError):
        SeedSpec.explicit((1, 2), 0.3)  # non-bit component
    with pytest.raises(ValueError, match="non-empty"):
        SeedSpec.explicit((), 0.3)  # no components


@pytest.mark.parametrize("y0", [0.0, 1.0, 0.25, 0.5, 0.75, -0.2, 1.7])
def test_seedspec_rejects_degenerate_y0(y0):
    with pytest.raises(DegenerateSeedError):
        SeedSpec.explicit((1, 0), y0)


def test_generator_config_validation():
    seed = SeedSpec.from_time(484076)
    cfg = GeneratorConfig(5, (15, 14), seed)
    assert cfg.m_set == (14, 15)  # stored sorted
    assert cfg.emit_initial is True
    with pytest.raises(ValueError):
        GeneratorConfig(1, (4, 5), seed)
    with pytest.raises(ValueError):
        GeneratorConfig(5, (), seed)
    with pytest.raises(ValueError):
        GeneratorConfig(5, (4, 4), seed)
    with pytest.raises(ValueError):
        GeneratorConfig(5, (0, 4), seed)
    with pytest.raises(ValueError):
        GeneratorConfig(5, (4, 5), "not a seed")
    with pytest.raises(TypeError, match="must be a GeneratorConfig"):
        ChaoticBitGenerator("x")


def test_numpy_integers_are_accepted_and_stored_as_int():
    # A stored numpy integer would wrap silently in the block loop's
    # 1 << (n - 1 - r), so every stored value is a Python int.
    wide = GeneratorConfig(np.int64(70), (2, 3), SeedSpec(t=np.int64(903211)))
    assert type(wide.n_cells) is int and type(wide.seed.t) is int
    assert ChaoticBitGenerator(wide).bits(np.int64(500)).tolist() == generate_bits(
        GeneratorConfig(70, (2, 3), SeedSpec.from_time(903211)), 500
    ).tolist()
    image = GrayscaleImage(np.uint8(2), np.int32(1), b"ab")
    assert type(image.width) is int and type(image.height) is int
    cfg = GeneratorConfig(5, (14, 15), SeedSpec.from_time(484076))
    report = run_battery(cfg, np.int64(1), np.int64(2000), relaxed=True, block_len=20, serial_m=4, apen_m=3)
    assert report == run_battery(cfg, 1, 2000, relaxed=True, block_len=20, serial_m=4, apen_m=3)
    gen = ChaoticBitGenerator(cfg)
    for bad in (True, np.bool_(True), 2.5, np.float64(5.0), "5", np.int64(-1)):
        with pytest.raises(ValueError, match="bits: count must be an integer >= 0"):
            gen.bits(bad)
        with pytest.raises(ValueError, match="n_cells must be an integer >= 2"):
            GeneratorConfig(bad, (1,), SeedSpec.from_time(484076))


# -- block emission and the worked example -------------------------------


def test_table1_blocks():
    gen = table1_generator()
    assert gen.next_block() == (1, 0, 1, 0, 0)  # block 0 = seed vector
    assert gen.next_block() == (1, 1, 1, 1, 0)  # after S=2,4,2,2 (m=4)
    assert gen.next_block() == (1, 1, 1, 1, 1)  # after S=5,1,1,5,5 (m=5)
    assert gen.next_block() == (1, 0, 0, 1, 1)  # after S=3,2,3,3 (m=4)


def test_table1_output_string():
    bits = table1_generator().bits(20)
    assert "".join(map(str, bits)) == OUTPUT_20


def test_table1_via_generate_bits():
    cfg = table1_config()
    driver = TranscriptDriver(M_TRANSCRIPT, S_TRANSCRIPT)
    bits = generate_bits(cfg, 20, driver=driver)
    assert "".join(map(str, bits)) == OUTPUT_20


@pytest.mark.parametrize("emit_initial", [True, False])
def test_fresh_generator_counts_and_buffers_the_seed_block(emit_initial):
    # The seed block is buffered bits from construction: it counts as
    # emitted and is the first n_cells bits of the stream.
    gen = table1_generator(emit_initial=emit_initial)
    assert gen.state.blocks_emitted == int(emit_initial)
    assert gen.state.iter_count == 0
    first = tuple(gen.bits(5).tolist())
    assert (first == X0) is emit_initial


def test_wide_state_costs_linear_memory():
    # Nothing built per cell may cost O(n) each: 20,000 cells and five
    # blocks fit in 2 MiB, where a table of the mask bit of every cell
    # would take ~26 MiB.
    cfg = GeneratorConfig(20_000, (1,), SeedSpec.from_time(903211))
    tracemalloc.start()
    try:
        bits = ChaoticBitGenerator(cfg).bits(10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024
    assert bits.size == 10**5


def test_emit_initial_off_starts_with_first_driven_block():
    gen = table1_generator(emit_initial=False)
    assert gen.next_block() == (1, 1, 1, 1, 0)


def test_generate_bits_count_zero():
    assert generate_bits(table1_config(), 0).size == 0


def test_bits_truncation_law():
    cfg = GeneratorConfig(5, (14, 15), SeedSpec.from_time(484076))
    whole = generate_bits(cfg, 10)
    assert generate_bits(cfg, 7).tolist() == whole[:7].tolist()


def test_bits_match_block_concatenation():
    cfg = GeneratorConfig(5, (14, 15), SeedSpec.from_time(484076))
    gen_blocks = ChaoticBitGenerator(cfg)
    concat = []
    for _ in range(4):
        concat.extend(gen_blocks.next_block())
    assert generate_bits(cfg, 20).tolist() == concat


def test_next_block_continues_the_bits_stream():
    # next_block() is the next n_cells bits of the bits() stream, on
    # either side of the seed block: 01100 | 01010 | 01100 | 11101 | ...
    cfg = GeneratorConfig(5, (14, 15), SeedSpec.from_time(484076))
    stream = "".join(map(str, generate_bits(cfg, 30)))
    gen = ChaoticBitGenerator(cfg)
    assert "".join(map(str, gen.bits(3))) == stream[:3]
    with pytest.raises(ValueError, match="part"):
        gen.next_block()  # would straddle blocks 0 and 1
    assert gen.state.blocks_emitted == 1  # the refused call drove nothing
    parts = [gen.bits(2), gen.next_block(), gen.bits(10), gen.next_block()]
    assert "".join("".join(map(str, p)) for p in parts) == stream[3:25]


def test_next_block_reads_blocks_a_failed_bits_call_buffered():
    # The failing bits(8) call completes the seed block 10 and blocks 00
    # and 01 before strategy 5 fails; next_block() returns them in order.
    cfg = GeneratorConfig(2, (1,), SeedSpec.explicit((1, 0), 0.1))
    gen = ChaoticBitGenerator(cfg, driver=TranscriptDriver((1,) * 5, (1, 2, 5, 1, 2)))
    with pytest.raises(ValueError, match="out of range"):
        gen.bits(8)
    assert [gen.next_block() for _ in range(4)] == [(1, 0), (0, 0), (0, 1), (1, 1)]


# n_cells > 64 takes the per-mask expansion branch of the bit packing.
WIDE_CONFIG = GeneratorConfig(70, (2, 3), SeedSpec.from_time(903211))


@given(
    st.sampled_from([GeneratorConfig(5, (4, 5), SeedSpec.from_time(484076)), WIDE_CONFIG]),
    st.lists(st.integers(0, 300), max_size=6),
)
def test_bits_split_equals_single_call(cfg, sizes):
    gen = ChaoticBitGenerator(cfg)
    parts = []
    for k in sizes:
        part = gen.bits(k)
        parts.append(part.tolist())
        part ^= 1  # a caller writing into its array changes no later output
    assert sum(parts, []) == generate_bits(cfg, sum(sizes)).tolist()


@pytest.mark.parametrize("count, step, sizes", [
    (200, 1, [64, 64, 64, 8]),
    (200, 8, [64, 64, 64, 8]),
    (200, 7, [63, 63, 63, 11]),  # whole 7-bit steps; the last piece holds the rest
    (200, 100, [100, 100]),  # a step longer than a chunk makes a piece of one step
    (64, 3, [63, 1]),
    (0, 8, []),
])
def test_chunks_are_consecutive_bits_calls(monkeypatch, count, step, sizes):
    monkeypatch.setattr(chaosbits.generator, "CHUNK_BITS", 64)
    cfg = GeneratorConfig(5, (14, 15), SeedSpec.from_time(484076))
    pieces = list(ChaoticBitGenerator(cfg).chunks(count, step))
    assert [p.size for p in pieces] == sizes
    assert np.concatenate([*pieces, np.zeros(0, np.uint8)]).tolist() == generate_bits(cfg, count).tolist()


@pytest.mark.parametrize("count, step", [(-1, 1), (8, 0), (8, 1.5), (True, 1)])
def test_chunks_rejects_bad_arguments_before_reading(count, step):
    gen = ChaoticBitGenerator(GeneratorConfig(5, (14, 15), SeedSpec.from_time(484076)))
    with pytest.raises(ValueError):
        gen.chunks(count, step)
    assert gen.state.blocks_emitted == 1  # only the seed block


def test_determinism():
    cfg = GeneratorConfig(5, (14, 15), SeedSpec.from_time(484076))
    assert generate_bits(cfg, 1000).tolist() == generate_bits(cfg, 1000).tolist()


def test_state_tracks_consumption():
    # With seed y0, a driven block consumes 1 gap sample + m strategy
    # samples; the stored y is always the next unconsumed sample.
    cfg = GeneratorConfig(5, (4, 5), SeedSpec.from_time(484076), emit_initial=False)
    gen = ChaoticBitGenerator(cfg)
    assert gen.state.y == 0.484076
    assert gen.state.iter_count == 0
    gen.next_block()  # gap from y0 (m=4), strategies from y1..y4
    st_after = gen.state
    assert st_after.iter_count == 4
    assert st_after.blocks_emitted == 1
    y = 0.484076
    for _ in range(5):
        y = logistic_step(y)
    assert st_after.y == y


def test_initial_block_consumes_no_samples():
    cfg = GeneratorConfig(5, (4, 5), SeedSpec.from_time(484076), emit_initial=True)
    gen = ChaoticBitGenerator(cfg)
    gen.next_block()
    assert gen.state.y == 0.484076
    assert gen.state.iter_count == 0
    assert gen.state.blocks_emitted == 1


def test_block_arithmetic_iter_count_is_sum_of_gaps():
    driver = TranscriptDriver((3, 4, 5), (1, 2), cycle=True)
    cfg = GeneratorConfig(4, (1,), SeedSpec.explicit((0, 0, 0, 0), 0.1))
    gen = ChaoticBitGenerator(cfg, driver=driver)
    gen.next_block()  # initial emission, no gap drawn
    assert gen.state.iter_count == 0
    for expected in (3, 7, 12):
        gen.next_block()
        assert gen.state.iter_count == expected


def test_hamming_step_through_generator():
    # Consecutive internal states differ in exactly one cell; observe
    # via single-step blocks (m=1), where each block is one cell update.
    cfg = GeneratorConfig(8, (1,), SeedSpec.from_time(484076), emit_initial=True)
    gen = ChaoticBitGenerator(cfg)
    prev = gen.next_block()
    for _ in range(50):
        cur = gen.next_block()
        assert sum(1 for a, b in zip(prev, cur) if a != b) == 1
        prev = cur


@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param(GeneratorConfig(n, m_set, SeedSpec.from_time(484076)), id=name)
        for name, (n, m_set) in SCHEMES.items()
    ]
    + [pytest.param(WIDE_CONFIG, id="n70")]
    # The edges of the bit expansion: rows of two and three bytes with
    # and without pad bits, one 64-bit word, and masks wider than it.
    + [
        pytest.param(GeneratorConfig(n, m_set, SeedSpec.from_time(903211)), id=f"n{n}")
        for n, m_set in ((9, (2, 3)), (16, (1,)), (17, (2, 5)), (64, (1, 3)), (65, (2,)), (130, (3, 4)))
    ],
)
def test_reference_simulation_matches_generator(cfg):
    # Independent re-simulation from the module-level operations, which
    # are the reference for the generator's inlined block loop.
    x, y = cfg.seed.resolve(cfg.n_cells)
    expected_bits = list(x)
    iters = 0
    for _ in range(2000):
        m = m_from_y(y, cfg.m_set)
        y = logistic_step(y)
        for _ in range(m):
            s = strategy_from_y(y, cfg.n_cells)
            y = logistic_step(y)
            x = chaotic_step(x, s)
        iters += m
        expected_bits.extend(x)
    gen = ChaoticBitGenerator(cfg)
    assert gen.bits(len(expected_bits)).tolist() == expected_bits
    assert (gen.state.x, gen.state.y, gen.state.iter_count) == (x, y, iters)


def test_degenerate_orbit_raises_mid_run():
    # 4*y*(1-y) rounds to exactly 1.0 for y = 0.5 + 1 ulp, after which
    # the orbit falls to 0 and freezes; the error must surface instead
    # of a constant stream.
    y0 = 0.5000000000000001
    cfg = GeneratorConfig(2, (1,), SeedSpec.explicit((0, 1), y0), emit_initial=False)
    gen = ChaoticBitGenerator(cfg)
    gen.next_block()  # consumes y0 and 1.0
    with pytest.raises(DegenerateSeedError):
        gen.next_block()  # next gap draw sees the fixed point 0.0
    assert gen.state.y == 0.0  # failing sample left unconsumed


def test_failure_mid_block_keeps_reached_state():
    # Logistic: with m=2 the gap draw at y0 = 0.5 + 1 ulp yields 1.0,
    # the first strategy (cell 1) yields 0.0, and the second strategy
    # draw hits the fixed point; the one update made is kept.
    cfg = GeneratorConfig(2, (2,), SeedSpec.explicit((0, 1), 0.5000000000000001), emit_initial=False)
    gen = ChaoticBitGenerator(cfg)
    with pytest.raises(DegenerateSeedError):
        gen.next_block()
    assert (gen.state.x, gen.state.y, gen.state.iter_count, gen.state.blocks_emitted) == ((1, 1), 0.0, 1, 0)
    # Transcript: the second driven block's gap 5 outlasts the strategy
    # transcript after two updates (cells 5, then 1).
    gen = ChaoticBitGenerator(table1_config(), driver=TranscriptDriver((4, 5), (2, 4, 2, 2, 5, 1)))
    assert gen.next_block() == X0
    assert gen.next_block() == (1, 1, 1, 1, 0)
    with pytest.raises(TranscriptExhausted):
        gen.next_block()
    assert (gen.state.x, gen.state.iter_count, gen.state.blocks_emitted) == ((0, 1, 1, 1, 1), 6, 2)


def test_failed_bits_call_keeps_produced_bits():
    # Strategy 5 is out of range for 2 cells (the transcript consumes it).
    # The bits the failing call produced, from the seed block 10 onwards,
    # stay buffered, so the next call continues the stream with no hole.
    cfg = GeneratorConfig(2, (1,), SeedSpec.explicit((1, 0), 0.1))
    gen = ChaoticBitGenerator(cfg, driver=TranscriptDriver((1,) * 5, (5, 1, 2, 1, 2)))
    with pytest.raises(ValueError):
        gen.bits(4)
    assert "".join(map(str, gen.bits(4))) == "1000"
    # The same with a bit pending from an earlier call and two blocks (00,
    # 01) completed in the failing call: the stream is 10 00 01 11.
    gen = ChaoticBitGenerator(cfg, driver=TranscriptDriver((1,) * 5, (1, 2, 5, 1, 2)))
    assert gen.bits(1).tolist() == [1]
    with pytest.raises(ValueError):
        gen.bits(8)
    assert "".join(map(str, gen.bits(7))) == "0000111"


def test_scheme6_seed_dies_inside_a_megabit():
    # Seed 484108 reaches the logistic fixed point y = 0 after 92,241
    # scheme-6 blocks (461,205 bits), so a 1e6-bit request fails; the
    # bits made before the death stay buffered and equal the stream.
    cfg = GeneratorConfig(*SCHEMES["scheme-6"], SeedSpec.from_time(484108))
    gen = ChaoticBitGenerator(cfg)
    with pytest.raises(DegenerateSeedError):
        gen.bits(10**6)
    assert (gen.state.blocks_emitted, gen.state.y) == (92_241, 0.0)
    np.testing.assert_array_equal(gen.bits(461_205), generate_bits(cfg, 461_205))


def test_state_key_determines_future():
    cfg = GeneratorConfig(5, (4, 5), SeedSpec.from_time(484076), emit_initial=False)
    a = ChaoticBitGenerator(cfg)
    b = ChaoticBitGenerator(cfg)
    for _ in range(7):
        a.next_block()
        b.next_block()
    assert a.state_key() == b.state_key()
    assert a.state_key()[1] == a.state.y
    assert a.next_block() == b.next_block()


def test_transcript_driver_exhaustion_and_cycling():
    gen = table1_generator()
    gen.bits(20)
    with pytest.raises(TranscriptExhausted):
        gen.bits(5)
    cyc = ChaoticBitGenerator(
        table1_config(), driver=TranscriptDriver(M_TRANSCRIPT, S_TRANSCRIPT, cycle=True)
    )
    assert cyc.bits(60).size == 60


def test_transcript_driver_validation():
    with pytest.raises(ValueError):
        TranscriptDriver((), (1,))
    with pytest.raises(ValueError):
        TranscriptDriver((1,), (0,))
    gen = ChaoticBitGenerator(
        GeneratorConfig(2, (1,), SeedSpec.explicit((0, 0), 0.1), emit_initial=False),
        driver=TranscriptDriver((1,), (5,)),
    )
    with pytest.raises(ValueError):
        gen.next_block()  # strategy 5 out of range for 2 cells


def test_generator_state_under_transcript_driver_has_nan_y():
    gen = table1_generator()
    assert math.isnan(gen.state.y)


# -- packing and text formats --------------------------------------------


def test_pack_bits_worked_example():
    bits = [int(c) for c in OUTPUT_20]
    assert pack_bits(bits)[:2] == bytes([0xA7, 0xBF])


def test_pack_bits_padding_and_empty():
    assert pack_bits([1, 1, 1]) == bytes([0xE0])
    assert pack_bits([]) == b""
    with pytest.raises(ValueError):
        pack_bits([0, 2, 1])


def test_require_bits_returns_uint8_input_itself():
    bits = np.array([0, 1, 1, 0], dtype=np.uint8)
    assert np.shares_memory(require_bits(bits), bits)
    for other in (bits.astype(bool), bits.astype(np.int64), bits.tolist()):
        got = require_bits(other)
        assert got.dtype == np.uint8 and got.tolist() == [0, 1, 1, 0]
        assert not np.shares_memory(got, other)


def test_ascii_round_trip_and_wrap():
    bits = [1, 0, 1, 0, 0, 1, 1, 1, 1, 0]
    assert bits_to_ascii(bits) == "1010011110"
    assert bits_to_ascii(bits, wrap=4) == "1010\n0111\n10\n"
    assert parse_ascii_bits(bits_to_ascii(bits, wrap=3)).tolist() == bits
    assert parse_ascii_bits(" 10\n1 ").tolist() == [1, 0, 1]
    with pytest.raises(ValueError):
        parse_ascii_bits("10x1")


@given(st.lists(st.integers(0, 1), max_size=200), st.integers(0, 17))
def test_ascii_round_trip_property(bits, wrap):
    assert parse_ascii_bits(bits_to_ascii(bits, wrap=wrap)).tolist() == bits


def ascii_reference(bits, wrap=0):
    """The per-bit rendering that bits_to_ascii must equal."""
    s = "".join("1" if b else "0" for b in bits)
    if wrap and wrap > 0:
        return "".join(s[i : i + wrap] + "\n" for i in range(0, len(s), wrap))
    return s


def parse_reference(text):
    """The per-character parser that parse_ascii_bits must equal."""
    out = []
    for c in text:
        if c.isspace():
            continue
        if c == "0":
            out.append(0)
        elif c == "1":
            out.append(1)
        else:
            raise ValueError(f"parse_ascii_bits: invalid character {c!r}")
    return np.array(out, dtype=np.uint8)


@given(
    st.lists(st.integers(0, 3), max_size=300),
    st.sampled_from([list, lambda v: np.array(v, dtype=bool), lambda v: np.array(v, dtype=np.uint8)]),
    st.integers(-3, 400),
)
def test_bits_to_ascii_matches_per_bit_reference(values, as_input, wrap):
    # Values 2 and 3 are truthy but not bits; wraps cover off (<= 0),
    # shorter and longer than the input.
    bits = as_input(values)
    assert bits_to_ascii(bits, wrap=wrap) == ascii_reference(bits, wrap)


@pytest.mark.parametrize("wrap", [0, 1, 3, 6])
def test_bits_to_ascii_renders_every_truthy_value_as_one(wrap):
    # Non-bit values, negative and wider than a byte among them; wrap 6
    # is longer than the input.
    bits = np.array([0, 2, 1, 255, -1], dtype=np.int64)
    assert bits_to_ascii(bits, wrap=wrap) == ascii_reference(bits.tolist(), wrap)


@pytest.mark.parametrize(
    "bits",
    [iter([1, 0, 1]), (b for b in [1, 0]), 1, "0101"],
    ids=["iter", "genexpr", "int", "str"],
)
def test_bits_to_ascii_rejects_non_sequences(bits):
    # numpy would wrap these in a 0-d array that renders as one character.
    with pytest.raises(TypeError, match="sequence or array"):
        bits_to_ascii(bits)


@given(st.text(alphabet="0101 \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000x2\xe9", max_size=200))
def test_parse_ascii_bits_matches_per_char_reference(text):
    try:
        expected = parse_reference(text)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            parse_ascii_bits(text)
    else:
        got = parse_ascii_bits(text)
        assert got.dtype == np.uint8
        assert got.tolist() == expected.tolist()


def test_config_text_round_trip_time_seed():
    cfg = GeneratorConfig(5, (14, 15), SeedSpec.from_time(484076), emit_initial=False)
    assert config_from_text(config_to_text(cfg)) == cfg


def test_config_text_round_trip_explicit_seed():
    cfg = GeneratorConfig(5, (4, 5), SeedSpec.explicit((1, 0, 1, 0, 0), 0.4840760000000001))
    back = config_from_text(config_to_text(cfg))
    assert back == cfg
    assert back.seed.y0 == 0.4840760000000001  # bit-exact through repr


def test_config_text_tolerates_comments_and_blanks():
    text = "# a comment\n\nn_cells=5\nm_set=14,15\nseed.t=484076\n"
    cfg = config_from_text(text)
    assert cfg.n_cells == 5
    assert cfg.m_set == (14, 15)
    assert cfg.emit_initial is True


@pytest.mark.parametrize(
    "text",
    [
        "n_cells=5\nm_set=4,5\n",  # missing seed
        "n_cells=5\nm_set=4,5\nseed.t=1\nseed.y0=0.3\n",  # mixed seed forms
        "n_cells=5\nm_set=4,5\nseed.x0=10100\n",  # x0 without y0
        "n_cells=5\nm_set=4,5\nseed.t=1\nbogus=1\n",  # unknown key
        "n_cells=5\nn_cells=5\nm_set=4,5\nseed.t=1\n",  # duplicate key
        "n_cells=5\nm_set=4,5\nseed.t=1\nemit_initial=maybe\n",  # bad flag
        "m_set=4,5\nseed.t=1\n",  # missing n_cells
        "n_cells=five\nm_set=4,5\nseed.t=1\n",  # bad integer
        "n_cells=5\nm_set=4,5\nseed.x0=102\nseed.y0=0.3\n",  # bad bit string
        "n_cells 5\nm_set=4,5\nseed.t=1\n",  # not key=value
    ],
)
def test_config_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        config_from_text(text)


def test_transcript_from_text():
    m, s = transcript_from_text("# forced\nm=4,5,4\ns=2,4,2,2,5\n")
    assert m == (4, 5, 4)
    assert s == (2, 4, 2, 2, 5)
    with pytest.raises(ValueError):
        transcript_from_text("m=4,5\n")
    with pytest.raises(ValueError):
        transcript_from_text("m=4,x\ns=1\n")
    with pytest.raises(ValueError):
        transcript_from_text("q=1\nm=1\ns=1\n")
    with pytest.raises(ValueError, match="transcript: m given twice"):
        transcript_from_text("m=1,2\ns=1\nm=3\n")
    with pytest.raises(ValueError, match="transcript: s given twice"):
        transcript_from_text("s=1\nm=1\nS=2\n")
