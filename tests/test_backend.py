"""The compiled block loop against the Python block loop it replaces.

The Python body of ChaoticBitGenerator._advance is the reference.
Each test runs the same work twice: once as the package runs it, on the
compiled loop when gcc can build it, and once with the kernel handle
patched away, which leaves every generator on the Python loop.
"""

import functools
import platform
import shutil
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosbits import (
    SCHEMES,
    BudgetExceeded,
    ChaoticBitGenerator,
    CycleReport,
    DegenerateSeedError,
    GeneratorConfig,
    SeedSpec,
    TranscriptDriver,
    _blockloop,
    chaotic_step,
    detect_cycle,
    logistic_step,
    m_from_y,
    seed_from_time,
    strategy_from_y,
)


def python_loop(fn, *args, **kwargs):
    """fn(*args, **kwargs) with every generator it builds on the Python block loop."""
    with mock.patch.object(_blockloop, "load", lambda: None):
        return fn(*args, **kwargs)


def expected_backend():
    return "c" if shutil.which("gcc") else "python"


def test_backend_reports_which_loop_runs():
    # With gcc on PATH the compiled loop must build and load: a broken
    # build fails here instead of silently running the Python loop.
    logistic = GeneratorConfig(5, (14, 15), SeedSpec.from_time(484076))
    assert ChaoticBitGenerator(logistic).backend == expected_backend()
    wide = GeneratorConfig(64, (1, 3), SeedSpec.from_time(903211))
    assert ChaoticBitGenerator(wide).backend == expected_backend()
    forced = ChaoticBitGenerator(logistic, driver=TranscriptDriver((4, 5), (1, 2, 3)))
    assert forced.backend == "python"
    assert ChaoticBitGenerator(GeneratorConfig(65, (2,), SeedSpec.from_time(903211))).backend == "python"


def test_build_into_fresh_cache_leaves_one_library(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    fn = _blockloop.load.__wrapped__()  # bypass the per-process handle
    if shutil.which("gcc"):
        assert fn is not None
        assert [p.suffix for p in (tmp_path / "chaosbits").iterdir()] == [".so"]
    else:
        assert fn is None


@pytest.mark.parametrize("part", ["source", "flags", "machine"])
def test_builds_of_two_keys_share_one_cache(tmp_path, monkeypatch, part):
    # The library's name keys the source, the flags and the machine type.
    # A change of any one part builds a second library, as two checkouts
    # whose sources differ do, and alternating between the two keys
    # builds nothing after the first two loads.
    if not shutil.which("gcc"):
        pytest.skip("needs gcc to build the library")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    builds = []
    real_build = _blockloop._build

    def build(gcc, target):
        builds.append(target)
        real_build(gcc, target)

    monkeypatch.setattr(_blockloop, "_build", build)
    edited = tmp_path / "_blockloop.c"
    edited.write_text(_blockloop._SOURCE.read_text() + "/* edited */\n")
    other_machine = f"not-{platform.machine()}"
    owner, name, values = {
        "source": (_blockloop, "_SOURCE", [_blockloop._SOURCE, edited]),
        "flags": (_blockloop, "_FLAGS", [_blockloop._FLAGS, (*_blockloop._FLAGS, "-g")]),
        "machine": (platform, "machine", [platform.machine, lambda: other_machine]),
    }[part]
    for value in values + values:
        monkeypatch.setattr(owner, name, value)
        assert _blockloop.load.__wrapped__() is not None
    assert len(builds) == 2 and builds[0] != builds[1]
    assert sorted((tmp_path / "cache" / "chaosbits").iterdir()) == sorted(builds)


def test_relative_cache_home_is_ignored(tmp_path, monkeypatch):
    # The XDG Base Directory spec: a relative XDG_CACHE_HOME is invalid
    # and ignored, so the cache stays in one place whatever the working
    # directory; an absolute one is used as it is.
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", "rel/dir")
    assert _blockloop._cache_dir() == tmp_path / "home" / ".cache" / "chaosbits"
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert _blockloop._cache_dir() == tmp_path / "xdg" / "chaosbits"


@pytest.mark.parametrize(
    "source, reason",
    [("this is not C\n", "building _blockloop.c failed"), (None, "compiled block loop is unavailable")],
    ids=["broken", "missing"],
)
def test_unusable_source_falls_back_with_a_warning(tmp_path, monkeypatch, source, reason):
    path = tmp_path / "_blockloop.c"
    if source is not None:
        path.write_text(source)
    monkeypatch.setattr(_blockloop, "_SOURCE", path)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    if shutil.which("gcc"):
        with pytest.warns(RuntimeWarning, match=reason):
            assert _blockloop.load.__wrapped__() is None
    else:
        assert _blockloop.load.__wrapped__() is None
    assert not list(tmp_path.glob("cache/**/*.so*"))  # no half-written library left


def test_python_loop_helper_forces_python():
    cfg = GeneratorConfig(5, (14, 15), SeedSpec.from_time(484076))
    assert python_loop(ChaoticBitGenerator, cfg).backend == "python"


def buffered_stream(gen):
    """The generator's unread stream: its whole bytes, the bits of the first
    already read, and the partial byte the block loop carries."""
    return gen._tail.tobytes(), gen._skip, gen._acc, gen._nacc


def run_calls(cfg, calls):
    """Drive a fresh generator through bits(k) calls; return every result,
    the final state and the buffered stream.

    A call that raises records its exception type; the run stops there.
    """
    gen = ChaoticBitGenerator(cfg)
    results = []
    for k in calls:
        try:
            results.append(gen.bits(k).tobytes())
        except DegenerateSeedError:
            results.append("DegenerateSeedError")
            break
    state = gen.state
    return results, (state.x, state.y, state.iter_count, state.blocks_emitted), buffered_stream(gen)


@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param(GeneratorConfig(n, m_set, SeedSpec.from_time(484076)), id=name)
        for name, (n, m_set) in SCHEMES.items()
    ]
    + [
        pytest.param(GeneratorConfig(64, (1, 3), SeedSpec.from_time(903211)), id="n64"),
        pytest.param(GeneratorConfig(2, (1, 2, 5), SeedSpec.from_time(123457)), id="n2"),
    ],
)
def test_million_bits_match_python_loop(cfg):
    calls = [1_000_000, 7]
    assert run_calls(cfg, calls) == python_loop(run_calls, cfg, calls)


def usable_time_seed(t, n):
    try:
        seed_from_time(t, n)
    except DegenerateSeedError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 64),
    st.lists(st.integers(1, 20), min_size=1, max_size=4, unique=True),
    st.integers(1, 10**7).filter(lambda t: usable_time_seed(t, 2)),
    st.booleans(),
    st.lists(st.integers(0, 700), max_size=6),
)
def test_split_bits_match_python_loop(n, m_set, t, emit_initial, calls):
    cfg = GeneratorConfig(n, tuple(m_set), SeedSpec.from_time(t), emit_initial=emit_initial)
    compiled = run_calls(cfg, calls)
    assert compiled == python_loop(run_calls, cfg, calls)
    # The split stream is also the stream of one call.
    whole = python_loop(run_calls, cfg, [sum(calls)])[0]
    if "DegenerateSeedError" not in compiled[0] + whole:
        assert b"".join(compiled[0]) == whole[0]


def reference_stream(cfg, nblocks):
    """The bits of cfg's first nblocks blocks, from the module helpers, the
    per-sample reference; fewer blocks when the orbit reaches a fixed
    point first."""
    x, y = cfg.seed.resolve(cfg.n_cells)
    blocks = [x] if cfg.emit_initial else []
    while len(blocks) < nblocks:
        for draw in range(m_from_y(y, cfg.m_set) + 1):
            if logistic_step(y) == y:
                return np.array(blocks, dtype=np.uint8).reshape(-1)
            if draw:
                x = chaotic_step(x, strategy_from_y(y, cfg.n_cells))
            y = logistic_step(y)
        blocks.append(x)
    return np.array(blocks, dtype=np.uint8).reshape(-1)


# (reader, bits) reads of one stream.  bits() reads start and end inside
# bytes and inside blocks for every width below; the packed reader then
# starts unaligned (at bit 1277), aligned (at bit 1576) and unaligned
# again, and pads its last byte with zeros.
STREAM_READS = [("bits", 1), ("bits", 13), ("bits", 3), ("bits", 250), ("bits", 7), ("bits", 1001),
                ("bits", 2), ("packed", 297), ("bits", 2), ("packed", 77), ("packed", 3)]


@pytest.mark.parametrize("loop", ["default", "python"])
@pytest.mark.parametrize("emit_initial", [True, False], ids=["seed-block", "no-seed-block"])
@pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 9, 13, 56, 57, 63, 64])
def test_stream_matches_the_reference(n, emit_initial, loop):
    cfg = GeneratorConfig(n, (1, 3, 4), SeedSpec.from_time(903211), emit_initial=emit_initial)
    gen = ChaoticBitGenerator(cfg) if loop == "default" else python_loop(ChaoticBitGenerator, cfg)
    total = sum(k for _, k in STREAM_READS)
    expected = reference_stream(cfg, -(-total // n))
    at = 0
    for reader, k in STREAM_READS:
        if reader == "bits":
            got = gen.bits(k)
        else:
            packed = gen._packed(k)
            assert packed.size == -(-k // 8)
            got = np.unpackbits(packed)
            assert not got[k:].any()
            got = got[:k]
        assert got.tolist() == expected[at : at + k].tolist(), (reader, at)
        at += k


@pytest.mark.parametrize("loop", ["default", "python"])
@pytest.mark.parametrize("emit_initial", [True, False])
@pytest.mark.parametrize("n", [5, 8, 9, 63])
def test_packed_chunks_are_the_packed_bits(n, emit_initial, loop):
    cfg = GeneratorConfig(n, (14, 15), SeedSpec.from_time(484200), emit_initial=emit_initial)
    make = ChaoticBitGenerator if loop == "default" else functools.partial(python_loop, ChaoticBitGenerator)
    for count in (0, 5, 8 * 9000, 8 * 9000 + 3, 150001):
        packed = b"".join(piece.tobytes() for piece in make(cfg).chunks(count, 8, packed=True))
        assert packed == np.packbits(make(cfg).bits(count)).tobytes()


# Fixed points the existing generator tests use: from y0 = 0.5 + 1 ulp
# the orbit goes 1.0, then 0.0, which is a fixed point.  With gap 1 the
# second block's gap draw fails; with gap 2 the first block fails after
# one cell update; with gaps (1, 2, 3) and n = 7 it fails mid-block.
FIXED_POINT_CONFIGS = [
    GeneratorConfig(2, (1,), SeedSpec.explicit((0, 1), 0.5000000000000001)),
    GeneratorConfig(2, (2,), SeedSpec.explicit((0, 1), 0.5000000000000001), emit_initial=False),
    GeneratorConfig(7, (1, 2, 3), SeedSpec.explicit((1, 0, 1, 1, 0, 0, 1), 0.5000000000000001)),
]


@pytest.mark.parametrize("cfg", FIXED_POINT_CONFIGS)
@pytest.mark.parametrize("calls", [[64], [1] * 9, [3, 100]])
def test_failure_state_matches_python_loop(cfg, calls):
    compiled = run_calls(cfg, calls)
    assert compiled[0][-1] == "DegenerateSeedError"
    assert compiled == python_loop(run_calls, cfg, calls)


@pytest.mark.parametrize("cfg", FIXED_POINT_CONFIGS)
def test_next_block_failure_matches_python_loop(cfg):
    def blocks(cfg):
        gen = ChaoticBitGenerator(cfg)
        out = []
        try:
            for _ in range(5):
                out.append(gen.next_block())
        except DegenerateSeedError as exc:
            out.append(str(exc))
        return out, gen.state

    assert blocks(cfg) == python_loop(blocks, cfg)


# Orbits from y0 = 0.5 + 1 ulp die in their second or third block, here
# with bytes and the partial byte of the stream left unread.
DYING_STREAM_CONFIGS = FIXED_POINT_CONFIGS + [
    GeneratorConfig(n, (1, 2), SeedSpec.explicit((1, 0) * (n // 2) + (1,) * (n % 2), 0.5000000000000001),
                    emit_initial=emit_initial)
    for n, emit_initial in ((13, True), (57, True), (63, False), (64, True))
]


@pytest.mark.parametrize("loop", ["default", "python"])
@pytest.mark.parametrize("cfg", DYING_STREAM_CONFIGS)
@pytest.mark.parametrize("reads", [[3, 1000], [1] * 200, [7, 7, 7, 7, 500]])
def test_stream_of_a_dying_orbit_is_a_prefix(cfg, reads, loop):
    # The reads that fail keep the completed blocks' bits, which a read of
    # exactly what is left returns: the bits read are the reference's
    # blocks up to the fixed point, with no hole.
    gen = ChaoticBitGenerator(cfg) if loop == "default" else python_loop(ChaoticBitGenerator, cfg)
    got = []
    for k in reads:
        try:
            got.append(gen.bits(k))
        except DegenerateSeedError:
            left = gen.state.blocks_emitted * cfg.n_cells - sum(map(len, got))
            got.append(gen.bits(left))
            with pytest.raises(DegenerateSeedError):
                gen.bits(1)
            break
    else:
        pytest.fail("the orbit did not die")
    assert np.concatenate(got).tolist() == reference_stream(cfg, 10**6).tolist()


@pytest.mark.parametrize("loop", ["default", "python"])
@pytest.mark.parametrize("n", [5, 8, 13, 63, 64])
def test_key_stop_ends_the_stream_at_the_key_block(n, loop):
    # _advance's out receives the whole bytes up to the key block; that
    # block's last bits stay in the partial byte, the first bits() reads.
    cfg = GeneratorConfig(n, (2, 3), SeedSpec.from_time(484076), emit_initial=False)
    make = ChaoticBitGenerator if loop == "default" else functools.partial(python_loop, ChaoticBitGenerator)
    ref = make(cfg)
    ref._advance(41)
    gen = make(cfg)
    out = np.full(100 * n // 8, 0xFF, dtype=np.uint8)
    assert gen._advance(100, out, ref.state_key()) == 41
    whole = 41 * n // 8
    assert (out[whole:] == 0xFF).all()
    expected = reference_stream(cfg, 42)
    stream = np.concatenate((np.unpackbits(out[:whole]), gen.bits(41 * n % 8 + n)))
    assert stream.tolist() == expected.tolist()


# Generators the key stop is checked on: the compiled loop's shapes, a
# state too wide for it, and a cycling transcript whose state orbit has
# period 16, so its keys recur.
KEY_STOP_GENERATORS = {
    "n5": lambda: ChaoticBitGenerator(GeneratorConfig(5, (14, 15), SeedSpec.from_time(484076))),
    "n8": lambda: ChaoticBitGenerator(GeneratorConfig(8, (1,), SeedSpec.from_time(484076))),
    "n64": lambda: ChaoticBitGenerator(GeneratorConfig(64, (1, 3), SeedSpec.from_time(484076))),
    "n65": lambda: ChaoticBitGenerator(GeneratorConfig(65, (2,), SeedSpec.from_time(903211))),
    "transcript": lambda: ChaoticBitGenerator(
        GeneratorConfig(4, (1, 2), SeedSpec.explicit((0, 0, 0, 0), 0.1)),
        driver=TranscriptDriver((1, 2), (1, 2, 3, 4), cycle=True),
    ),
}


def advance_to_key_block_by_block(gen, limit, key):
    """The rule _advance's key stop follows: one block at a time, comparing
    state_key() with key after each; the number of blocks advanced."""
    for done in range(1, limit + 1):
        gen._advance(1)
        if gen.state_key() == key:
            return done
    return limit


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300), st.integers(0, 300), st.sampled_from(sorted(KEY_STOP_GENERATORS)))
def test_advance_stops_at_key_like_python_loop(target, limit, name):
    # The key is the state reached after target blocks.  Both loops stop
    # where the block-by-block rule does: on a logistic orbit at target
    # when limit allows and at limit otherwise (the seed state, target 0,
    # never recurs), and under the transcript at the first block that
    # reaches the key.
    make = KEY_STOP_GENERATORS[name]
    ref = python_loop(make)
    ref._advance(target)
    key = ref.state_key()

    def run(advance):
        gen = make()
        done = advance(gen, limit, key)
        return done, gen.state_key(), gen.state.iter_count, gen.state.blocks_emitted

    def bulk(gen, limit, key):
        return gen._advance(limit, key=key)

    compiled = run(bulk)
    assert compiled == python_loop(run, bulk) == python_loop(run, advance_to_key_block_by_block)
    if name != "transcript":
        assert compiled[0] == (min(target, limit) if target else limit)


@pytest.mark.parametrize("transcript", [None, ((1,), (1, 2, 3))], ids=["logistic", "transcript"])
def test_advance_without_key_runs_through_a_zero_mask(transcript):
    # The first driven block clears every cell, so its mask equals the
    # no-key sentinel's; only the sentinel's NaN driver state keeps the
    # loop from stopping there.
    cfg = GeneratorConfig(3, (1, 2), SeedSpec.explicit((1, 0, 0), 0.1), emit_initial=False)

    def run():
        driver = None if transcript is None else TranscriptDriver(*transcript, cycle=True)
        gen = ChaoticBitGenerator(cfg, driver=driver)
        # Eight blocks of three cells make three whole bytes; 0xFF shows a
        # byte left unwritten.
        stream = np.full(4, 0xFF, dtype=np.uint8)
        return gen._advance(8, stream), stream.tobytes(), buffered_stream(gen)

    done, stream, buffered = run()
    assert done == 8 and stream[0] >> 5 == 0 and stream[3] == 0xFF
    assert python_loop(run) == (done, stream, buffered)


@pytest.mark.parametrize("backend", ["default", "python"])
def test_advance_without_out_keeps_no_masks(backend):
    # Without out, the loop counts blocks: 50,000 of them on 64 cells
    # leave no per-block allocation behind (a list of their masks would
    # take about 2 MiB).  The seed block counts from construction.
    cfg = GeneratorConfig(64, (1,), SeedSpec.from_time(903211))
    gen = ChaoticBitGenerator(cfg) if backend == "default" else python_loop(ChaoticBitGenerator, cfg)
    tracemalloc.start()
    try:
        assert gen._advance(50_000) == 50_000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert gen.state.blocks_emitted == 50_001


# y0 reaches, after 108,847 samples, a binary64 logistic cycle of 420,909
# samples.  With the one gap 420,908 a block spans the whole cycle, so
# from block 1 on y repeats every block and the cells every two blocks:
# transient 1, period 2.  Brent's phase 1 closes on step 3, and the whole
# detection with its verification takes 3 + 2*1 + 5*2 = 15 steps.
SHORT_CYCLE = GeneratorConfig(5, (420908,), SeedSpec.explicit((1, 0, 1, 0, 0), 0.25563111672756278))


@pytest.mark.parametrize(
    "budget, expected",
    [
        (2, BudgetExceeded(budget=2, steps_executed=2)),
        (3, BudgetExceeded(budget=3, steps_executed=3)),
        (14, BudgetExceeded(budget=14, steps_executed=14)),
        (15, CycleReport(transient_length=1, cycle_period=2, orbit_length=3)),
    ],
)
def test_detect_cycle_matches_python_loop(budget, expected):
    assert detect_cycle(SHORT_CYCLE, budget=budget) == expected
    assert python_loop(detect_cycle, SHORT_CYCLE, budget=budget) == expected


@pytest.mark.parametrize("budget", [1, 37, 1000])
def test_detect_cycle_budget_matches_python_loop(budget):
    cfg = GeneratorConfig(5, (14, 15), SeedSpec.from_time(484076))
    expected = BudgetExceeded(budget=budget, steps_executed=budget)
    assert detect_cycle(cfg, budget=budget) == expected
    assert python_loop(detect_cycle, cfg, budget=budget) == expected


def test_detect_cycle_fixed_point_matches_python_loop():
    cfg = FIXED_POINT_CONFIGS[2]
    with pytest.raises(DegenerateSeedError) as compiled:
        detect_cycle(cfg)
    with pytest.raises(DegenerateSeedError) as reference:
        python_loop(detect_cycle, cfg)
    assert str(compiled.value) == str(reference.value)


@pytest.mark.parametrize(
    "budget, expected",
    [
        (31, BudgetExceeded(budget=31, steps_executed=31)),
        (94, BudgetExceeded(budget=94, steps_executed=94)),
        (95, CycleReport(transient_length=0, cycle_period=16, orbit_length=16)),
    ],
)
def test_detect_cycle_step_accounting_under_transcript(budget, expected):
    # The worked example: phase 1 closes on step 31 (windows 1+2+4+8,
    # then 16).  The transient is 0, so one period test of 16 steps finds
    # it, and three verification periods of 16 make 31 + 16 + 48 = 95.
    cfg = GeneratorConfig(4, (1, 2), SeedSpec.explicit((0, 0, 0, 0), 0.1))
    assert detect_cycle(cfg, transcript=((1, 2), (1, 2, 3, 4)), budget=budget) == expected


# Two orbits whose transient spans several periods, so the transient
# search tests several whole periods before a state comes back.  In the
# second the transient is exactly two periods: block 2*lam is the first
# to come back, and the lockstep walk from block lam runs a full period.
@pytest.mark.parametrize(
    "m_set, expected",
    [
        ((734, 836), CycleReport(transient_length=1084, cycle_period=537, orbit_length=1621)),
        ((1168, 2821), CycleReport(transient_length=426, cycle_period=213, orbit_length=639)),
    ],
)
def test_detect_cycle_transient_of_several_periods(m_set, expected):
    cfg = GeneratorConfig(3, m_set, SeedSpec.explicit((1, 0, 0), 0.25563111672756278))
    assert detect_cycle(cfg) == expected
    assert python_loop(detect_cycle, cfg) == expected


@pytest.mark.parametrize("transcript", [((1,), (4, 1, 1)), ((1, 3), (1, 3, 2, 4, 4))])
def test_detect_cycle_verification_catches_an_incomplete_key(monkeypatch, transcript):
    # A transcript key without the strategy phase lets two different states
    # look equal, so the period found does not bring the state back.
    monkeypatch.setattr(TranscriptDriver, "key", lambda self: ("transcript", self._gi % len(self.m_seq)))
    cfg = GeneratorConfig(4, (1, 2), SeedSpec.explicit((0, 0, 0, 0), 0.1))
    with pytest.raises(RuntimeError, match="verification failed"):
        detect_cycle(cfg, transcript=transcript)


def test_detect_cycle_scheme6_484077():
    # README's Key space: seed 484077 enters the cycle of 484076.  About
    # 9.5M blocks are stepped, so only the compiled loop runs it here.
    cfg = GeneratorConfig(5, (14, 15), SeedSpec.from_time(484077))
    if ChaoticBitGenerator(cfg).backend == "python":
        pytest.skip("needs the compiled block loop")
    assert detect_cycle(cfg) == CycleReport(transient_length=1503250, cycle_period=727512, orbit_length=2230762)
