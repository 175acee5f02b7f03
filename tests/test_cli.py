"""Command-line interface: subcommands, formats, exit codes."""

import contextlib
import errno
import gc
import hashlib
import io
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import chaosbits
import chaosbits._blockloop
import chaosbits.cli
from chaosbits import (
    SCHEMES,
    ChaoticBitGenerator,
    GeneratorConfig,
    SeedSpec,
    TranscriptDriver,
    bits_to_ascii,
    config_to_text,
    generate_bits,
    histogram,
    pack_bits,
    read_pgm,
    write_pgm,
    GrayscaleImage,
)
from chaosbits.cli import main


TRANSCRIPT_TEXT = "m=4,5,4\ns=2,4,2,2,5,1,1,5,5,3,2,3,3\n"
CYCLE_TRANSCRIPT_TEXT = "m=1,2\ns=1,2,3,4\n"


@pytest.fixture
def transcript_file(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(TRANSCRIPT_TEXT)
    return str(p)


@pytest.fixture
def fixture_pgm(tmp_path):
    img = GrayscaleImage(64, 64, bytes(((x + y) * 2) % 256 for y in range(64) for x in range(64)))
    p = tmp_path / "plain.pgm"
    write_pgm(img, str(p))
    return str(p)


# -- scheme resolution ---------------------------------------------------------


def test_scheme_table_matches_published_parameterizations():
    assert SCHEMES == {
        "scheme-1": (8, (1,)),
        "scheme-2": (8, (8,)),
        "scheme-3": (8, (1, 2, 3, 4, 5, 6, 7, 8)),
        "scheme-4": (5, (4, 5)),
        "scheme-5": (5, (9, 10)),
        "scheme-6": (5, (14, 15)),
    }


# -- gen -------------------------------------------------------------------------


def test_gen_table1_transcript(tmp_path, transcript_file, capsys):
    out = tmp_path / "bits.txt"
    code = main([
        "gen", "--scheme", "scheme-4", "--x0", "10100",
        "--transcript", transcript_file, "--count", "20", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text() == "10100111101111110011\n"
    # the resolved config is printed (to stderr, keeping stdout clean)
    err = capsys.readouterr().err
    assert "n_cells=5" in err


def test_gen_count_zero_empty_file(tmp_path):
    out = tmp_path / "empty.txt"
    code = main(["gen", "--scheme", "scheme-6", "--seed", "484076",
                 "--count", "0", "--out", str(out)])
    assert code == 0
    assert out.read_text() == ""


def test_gen_raw_packs_bytes(tmp_path):
    out = tmp_path / "bits.bin"
    code = main(["gen", "--scheme", "scheme-6", "--seed", "484076",
                 "--count", "16", "--format", "raw", "--out", str(out)])
    assert code == 0
    assert len(out.read_bytes()) == 2


# sha256 of gen's output, pinned from the y-form block loop that wrote one
# row of padded bytes per block.  The n = 63 and 64 streams split masks
# wider than the loop's 56-bit appends; CI pins two longer outputs.
GEN_DIGESTS = {
    "--scheme scheme-6 --seed 484200 --count 1000003 --format raw":
        "cfb8ce9699bf2f7cb48b9820214bb36c9183970523acb258a318c81fe8f67a0b",
    "--scheme scheme-4 --seed 500001 --count 99999 --wrap 7":
        "8b726b3288f6abd934661a9069b5b2f685def18e2d116ecd219900967b063b27",
    "--n-cells 63 --m-set 3,5 --seed 123457 --count 100003 --format raw":
        "09b3092336dd9326bd1a1795465b4046ec2207db2e53b1ace2e83fb9c4e3e03b",
    "--n-cells 64 --m-set 7 --seed 654321 --count 100001 --format raw":
        "be3122149c2b1e36c701c089132a529b69d1a7871d3da519de0a3d7ff407acf2",
}


@pytest.mark.parametrize("loop", ["default", "python"])
@pytest.mark.parametrize("args", sorted(GEN_DIGESTS))
def test_gen_output_digests_are_pinned(tmp_path, monkeypatch, args, loop):
    if loop == "python":
        monkeypatch.setattr(chaosbits._blockloop, "load", lambda: None)
    out = tmp_path / "bits.out"
    assert main(["gen", *args.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_DIGESTS[args]


def test_gen_wrap(tmp_path):
    out = tmp_path / "bits.txt"
    main(["gen", "--scheme", "scheme-6", "--seed", "484076",
          "--count", "10", "--wrap", "4", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert [len(l) for l in lines] == [4, 4, 2]


def test_gen_custom_shape_equals_scheme(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    main(["gen", "--scheme", "scheme-6", "--seed", "484076", "--count", "50", "--out", str(a)])
    main(["gen", "--n-cells", "5", "--m-set", "14,15", "--seed", "484076",
          "--count", "50", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_gen_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text("n_cells=5\nm_set=14,15\nseed.t=484076\n")
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    main(["gen", "--config", str(cfg_file), "--count", "40", "--out", str(a)])
    main(["gen", "--scheme", "scheme-6", "--seed", "484076", "--count", "40", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_gen_seed_from_time_prints_resolved_seed(tmp_path, capsys):
    out = tmp_path / "bits.txt"
    code = main(["gen", "--scheme", "scheme-6", "--seed-from-time",
                 "--count", "8", "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "resolved seed.t=" in err
    t = int(err.split("resolved seed.t=")[1].splitlines()[0])
    # replaying the printed seed reproduces the output
    replay = tmp_path / "replay.txt"
    main(["gen", "--scheme", "scheme-6", "--seed", str(t),
          "--count", "8", "--out", str(replay)])
    assert replay.read_text() == out.read_text()


@pytest.mark.parametrize(
    "fmt, count, wrap",
    [
        ("ascii", 203, 0),
        ("ascii", 203, 5),
        ("ascii", 203, 7),
        ("ascii", 203, 50),  # a wrap longer than the chunk
        ("ascii", 200, 5),  # ends on a chunk boundary
        ("raw", 203, 0),
        ("raw", 203, 50),  # raw output ignores --wrap, also in its chunks
        ("ascii", 0, 0),
        ("raw", 0, 0),
    ],
)
def test_gen_streamed_chunks_equal_one_shot(tmp_path, monkeypatch, fmt, count, wrap):
    check_streamed_chunks(tmp_path, monkeypatch, fmt, count, wrap, 5, (14, 15))


@pytest.mark.parametrize(
    "fmt, count, wrap",
    [("ascii", 203, 0), ("ascii", 203, 7), ("ascii", 203, 50), ("raw", 203, 0)],
)
@pytest.mark.parametrize("n_cells, m_set", [(2, (1, 2)), (9, (3, 4))])
def test_gen_streamed_chunks_equal_one_shot_padded_rows(tmp_path, monkeypatch, fmt, count, wrap, n_cells, m_set):
    # Blocks of 2 and of 9 bits straddle the packed stream's bytes; at N = 9
    # a 24-bit chunk ends inside a block, so the next starts from its rest.
    check_streamed_chunks(tmp_path, monkeypatch, fmt, count, wrap, n_cells, m_set)


def check_streamed_chunks(tmp_path, monkeypatch, fmt, count, wrap, n_cells, m_set):
    """gen in 24-bit chunks writes what one-shot generation renders."""
    monkeypatch.setattr(chaosbits.generator, "CHUNK_BITS", 24)
    requests = []
    real_read = ChaoticBitGenerator._read

    def spy(self, k):
        requests.append(k)
        return real_read(self, k)

    # Both of gen's readers, bits() for ASCII and the packed one for raw, take their bits here.
    monkeypatch.setattr(ChaoticBitGenerator, "_read", spy)
    out = tmp_path / "bits.out"
    code = main(["gen", "--n-cells", str(n_cells), "--m-set", ",".join(map(str, m_set)),
                 "--seed", "484076", "--count", str(count),
                 "--format", fmt, "--wrap", str(wrap), "--out", str(out)])
    assert code == 0
    # A chunk grows past CHUNK_BITS only to hold one whole ASCII line.
    assert max(requests, default=0) <= (max(24, wrap) if fmt == "ascii" else 24)
    bits = generate_bits(GeneratorConfig(n_cells, m_set, SeedSpec.from_time(484076)), count)
    if fmt == "raw":
        expected = pack_bits(bits)
    else:
        text = bits_to_ascii(bits, wrap=wrap)
        expected = (text if not text or text.endswith("\n") else text + "\n").encode("ascii")
    assert out.read_bytes() == expected


# Reads the minor page faults of one gen command after a smaller one has
# warmed the process up; prints one count per command line.
FAULT_PROBE = """
import os, resource, sys
from chaosbits.cli import main

for argv in (["--scheme", "scheme-1", "--format", "ascii", "--wrap", "64"],
             ["--scheme", "scheme-6", "--format", "raw"]):
    argv = ["gen", *argv, "--seed", "484076", "--out", os.devnull]
    main(argv + ["--count", str(2 ** 17)])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    main(argv + ["--count", str(2 ** 21)])
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def child_env() -> dict:
    """The environment for a child interpreter that imports this chaosbits."""
    src = str(Path(chaosbits.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor page-fault counts")
def test_gen_reuses_its_pages_across_chunks():
    # Sixteen times the bits of the warm-up command, in a fresh interpreter:
    # a chunk loop that reuses the pages it touched faults ~20 pages, one
    # that allocates fresh chunk buffers faults thousands.
    probe = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=child_env(), capture_output=True, text=True,
                           check=True)
    faults = [int(v) for v in probe.stdout.split()]
    assert len(faults) == 2
    assert max(faults) <= 128, faults


# Runs one test command to warm the process up, then prints to stderr the
# minor page faults of a 6-sequence command in one process, and of a
# 6-sequence and a 12-sequence command in two (this process's share).
BATTERY_FAULT_PROBE = """
import os, resource, sys
from chaosbits.cli import main

argv = ["test", "--scheme", "scheme-1", "--seed", "484076", "--length", "200000", "--sequences"]
main(argv + ["1"])
for n, cpus in (("6", {0}), ("6", {0, 1}), ("12", {0, 1})):
    os.sched_getaffinity = lambda pid: cpus
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    main(argv + [n])
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, file=sys.stderr)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="test tunes glibc's malloc")
@pytest.mark.skipif(not hasattr(os, "fork"), reason="test forks")
def test_battery_reuses_its_pages_across_sequences():
    # Each 2e5-bit sequence's temporaries (spectral's rfft among them) are
    # mapped and faulted in afresh, ~1,700 pages a sequence, unless malloc
    # keeps them in the heap for the next sequence.  6 and 12 sequences
    # both run in two processes, this one running 3 and 6 of them.
    probe = subprocess.run([sys.executable, "-c", BATTERY_FAULT_PROBE], env=child_env(),
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True)
    one, six, twelve = (int(v) for v in probe.stderr.split())
    assert twelve - six <= 500, (six, twelve)
    # The fork costs this process a one-off ~2,400 copy-on-write faults,
    # whatever the number of sequences; its whole ~38 MiB is ~9,700 pages.
    assert six - one <= 4000, (one, six)


# Runs each command that builds a generator once, at a small size, in one
# interpreter; then prints to stderr each exit code, whether the commands
# loaded the block loop, the backend a generator runs on, and whether
# OpenSSL's _hashlib was imported.
NO_OPENSSL_PROBE = """
import os, sys
import chaosbits
from chaosbits.cli import main

plain, cipher = sys.argv[1:]
seed = ["--seed", "484076"]
codes = [main(argv) for argv in (
    ["gen", "--scheme", "scheme-6", *seed, "--count", "1000", "--format", "raw", "--out", os.devnull],
    ["gen", "--scheme", "scheme-1", *seed, "--count", "1000", "--wrap", "64", "--out", os.devnull],
    ["test", "--scheme", "scheme-1", *seed, "--length", "20000", "--sequences", "2", "--block-len", "2000",
     "--serial-m", "4", "--apen-m", "4"],
    ["analyze", "--scheme", "scheme-6", *seed, "--count", "2000", "--max-lag", "10"],
    ["cycle", "--scheme", "scheme-6", *seed, "--budget", "1000"],
    ["encrypt", "--scheme", "scheme-6", *seed, "--in", plain, "--out", cipher],
)]
loaded = chaosbits._blockloop.load.cache_info().currsize
cfg = chaosbits.GeneratorConfig(5, (14, 15), chaosbits.SeedSpec.from_time(484076))
backend = chaosbits.ChaoticBitGenerator(cfg).backend
print(*codes, loaded, backend, "_hashlib" in sys.modules, file=sys.stderr)
"""


def test_no_command_loads_openssl(tmp_path, fixture_pgm):
    # The block loop's cache key is a zlib checksum: hashlib would load
    # OpenSSL's libcrypto, ~3.6 MiB resident, into every command.  pytest
    # may import hashlib itself, so the commands run in a fresh interpreter.
    probe = subprocess.run([sys.executable, "-c", NO_OPENSSL_PROBE, fixture_pgm, str(tmp_path / "cipher.pgm")],
                           env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                           check=True, timeout=120)
    *codes, loaded, backend, hashlib_loaded = probe.stderr.splitlines()[-1].split()
    # cycle's budget of 1000 blocks runs out before the orbit repeats: exit 1.
    assert codes == ["0", "0", "0", "0", "1", "0"]
    assert loaded == "1"
    if shutil.which("gcc"):
        assert backend == "c"
    assert hashlib_loaded == "False"


def test_gen_failure_keeps_written_chunks(tmp_path, monkeypatch, capsys):
    # The transcript drives 15 blocks after the seed block, 64 bits in all:
    # two 24-bit chunks are written, the third runs the transcript out.
    monkeypatch.setattr(chaosbits.generator, "CHUNK_BITS", 24)
    m_seq, s_seq = (1,) * 15, (1, 2, 3, 4) * 3 + (1, 2, 3)
    transcript = tmp_path / "t.txt"
    transcript.write_text("m=" + ",".join(map(str, m_seq)) + "\ns=" + ",".join(map(str, s_seq)) + "\n")
    out = tmp_path / "bits.txt"
    code = main(["gen", "--n-cells", "4", "--m-set", "1", "--x0", "0000",
                 "--transcript", str(transcript), "--count", "100", "--out", str(out)])
    assert code == 3
    assert "exhausted" in capsys.readouterr().err
    cfg = GeneratorConfig(4, (1,), SeedSpec.explicit((0, 0, 0, 0), 0.1))
    assert out.read_text() == bits_to_ascii(generate_bits(cfg, 48, driver=TranscriptDriver(m_seq, s_seq)))


# -- usage errors (exit 2) --------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--scheme", "scheme-6", "--count", "5"],  # no seed
        ["gen", "--seed", "484076", "--count", "5"],  # no shape
        ["gen", "--scheme", "scheme-6", "--n-cells", "5", "--m-set", "4,5",
         "--seed", "1", "--count", "5"],  # shape given twice
        ["gen", "--scheme", "scheme-6", "--seed", "1", "--y0", "0.3", "--count", "5"],
        ["gen", "--scheme", "scheme-6", "--x0", "10x", "--y0", "0.3", "--count", "5"],
        ["gen", "--scheme", "scheme-6", "--x0", "101", "--count", "5"],  # x0 without y0
        ["gen", "--scheme", "scheme-6", "--seed", "484076", "--count", "-1"],
        ["gen", "--n-cells", "5", "--m-set", "a,b", "--seed", "1", "--count", "5"],
        ["analyze", "--scheme", "scheme-6", "--seed", "484076", "--max-lag", "0"],
        ["cycle", "--scheme", "scheme-6", "--seed", "484076", "--budget", "0"],
        ["distance", "--e-a", "10", "--e-b", "101", "--s-a", "1", "--s-b", "1"],
        ["gen", "--scheme", "scheme-6", "--seed", "1", "--seed-from-time", "--count", "5"],
        ["gen", "--scheme", "scheme-6", "--m-set", "4,5", "--seed", "1", "--count", "5"],
        ["gen", "--n-cells", "5", "--seed", "1", "--count", "5"],  # no --m-set
        # rejected before the (missing) file is opened
        ["gen", "--config", "cfg.txt", "--no-emit-initial", "--count", "5"],
        ["gen", "--scheme", "scheme-6", "--seed", "484076", "--count", "5", "--wrap", "-1"],
        # a repeated generator flag repeats its config key
        pytest.param(["gen", "--scheme", "scheme-6", "--seed", "1", "--seed", "2", "--count", "5"],
                     id="seed-twice"),
        pytest.param(["gen", "--scheme", "scheme-6", "--scheme", "scheme-6", "--seed", "1", "--count", "5"],
                     id="scheme-twice"),
        pytest.param(["gen", "--scheme", "scheme-6", "--x0", "10100", "--x0", "10100", "--y0", "0.3",
                      "--count", "5"], id="x0-twice"),
        pytest.param(["gen", "--scheme", "scheme-6", "--seed", "1", "--no-emit-initial", "--no-emit-initial",
                      "--count", "5"], id="no-emit-initial-twice"),
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "usage error" in err
    flags = [a for a in argv if a.startswith("--")]
    if len(set(flags)) < len(flags):
        # The same rule as for a key repeated in a --config file.
        assert "given twice" in err


def test_config_flag_is_exclusive(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text("n_cells=5\nm_set=14,15\nseed.t=484076\n")
    code = main(["gen", "--config", str(cfg_file), "--scheme", "scheme-6",
                 "--count", "5"])
    assert code == 2


@pytest.mark.parametrize(
    "flags, with_transcript, expected",
    [
        (["--scheme", "scheme-6", "--seed", "484076"], False,
         GeneratorConfig(5, (14, 15), SeedSpec.from_time(484076))),
        (["--n-cells", "5", "--m-set", "4,5", "--x0", "10100", "--y0", "0.3"], False,
         GeneratorConfig(5, (4, 5), SeedSpec.explicit((1, 0, 1, 0, 0), 0.3))),
        (["--scheme", "scheme-4", "--seed", "484076", "--no-emit-initial"], False,
         GeneratorConfig(5, (4, 5), SeedSpec.from_time(484076), emit_initial=False)),
        # a forced transcript ignores y0, so the CLI fills in a placeholder
        (["--scheme", "scheme-4", "--x0", "10100"], True,
         GeneratorConfig(5, (4, 5), SeedSpec.explicit((1, 0, 1, 0, 0), 0.1))),
    ],
    ids=["scheme-seed", "shape-x0-y0", "no-emit-initial", "x0-transcript"],
)
def test_flags_and_config_file_resolve_alike(tmp_path, transcript_file, capsys, flags, with_transcript,
                                             expected):
    shared = ["--count", "20"] + (["--transcript", transcript_file] if with_transcript else [])
    by_flags = tmp_path / "flags.txt"
    by_file = tmp_path / "file.txt"
    assert main(["gen", *flags, *shared, "--out", str(by_flags)]) == 0
    # gen echoes config_to_text of the resolved config to stderr
    config_text = capsys.readouterr().err
    assert config_text == config_to_text(expected)
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(config_text)
    assert main(["gen", "--config", str(cfg_file), *shared, "--out", str(by_file)]) == 0
    assert capsys.readouterr().err == config_text
    assert by_file.read_bytes() == by_flags.read_bytes()


def test_seed_from_time_rereads_zero_and_degenerate_clock(tmp_path, monkeypatch, capsys):
    # Microsecond parts 0 (no seed), 250000 (y0 = 0.25, a dead seed), then 484076.
    clock = iter([0, 250_000_000, 484_076_000])
    monkeypatch.setattr(chaosbits.cli.time, "time_ns", lambda: next(clock))
    monkeypatch.setattr(chaosbits.cli.time, "sleep", lambda seconds: None)
    out = tmp_path / "bits.txt"
    code = main(["gen", "--scheme", "scheme-6", "--seed-from-time", "--count", "8", "--out", str(out)])
    assert code == 0
    assert "resolved seed.t=484076\n" in capsys.readouterr().err
    assert next(clock, None) is None


def test_seed_from_time_gives_up_on_a_stuck_clock(monkeypatch, capsys):
    # Every read gives microsecond part 0, which seeds nothing.
    monkeypatch.setattr(chaosbits.cli.time, "time_ns", lambda: 0)
    monkeypatch.setattr(chaosbits.cli.time, "sleep", lambda seconds: None)
    assert main(["gen", "--scheme", "scheme-6", "--seed-from-time", "--count", "8"]) == 3
    captured = capsys.readouterr()
    assert "could not derive a usable time seed" in captured.err and captured.out == ""


GENERATOR_FLAGS = ["--scheme", "--n-cells", "--m-set", "--config", "--seed", "--x0", "--y0", "--seed-from-time",
                   "--no-emit-initial"]


@pytest.mark.parametrize("command", ["gen", "test", "analyze", "cycle", "encrypt", "decrypt"])
def test_help_lists_the_generator_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    section = capsys.readouterr().out.split("\ngenerator:\n")[1]
    flags = [line.split()[0] for line in section.splitlines() if line.startswith("  --")]
    # Only the commands that can force the drivers take a transcript.
    assert flags == GENERATOR_FLAGS + (["--transcript"] if command in ("gen", "cycle") else [])


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_argparse_rejects_unknown_scheme():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--scheme", "scheme-7", "--seed", "484076", "--count", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["gen", "--scheme", "scheme-6", "--seed", "484076", "--count", "64"], ["gen", "--scheme", "nope"],
     ["gen", "--y0", "0.5", "--x0", "10110", "--scheme", "scheme-6", "--count", "64"]],
    ids=["ok", "argparse-exit", "runtime-error"],
)
def test_main_leaves_the_collector_unfrozen(argv, capsys):
    gc.unfreeze()
    with contextlib.suppress(SystemExit):
        main(argv)
    assert gc.get_freeze_count() == 0


# -- runtime errors (exit 3) -------------------------------------------------------


def test_missing_input_file_exit_3(tmp_path, capsys):
    code = main(["gen", "--config", str(tmp_path / "nope.txt"), "--count", "5"])
    assert code == 3
    code = main(["histogram", "--in", str(tmp_path / "nope.pgm")])
    assert code == 3


SEEDED = ["--scheme", "scheme-6", "--seed", "484076"]
SMALL_BATTERY = ["--sequences", "1", "--length", "4000", "--relaxed", "--block-len", "400",
                 "--serial-m", "5", "--apen-m", "5"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["gen", "--scheme", "scheme-4", "--x0", "10100", "--transcript", "", "--count", "5"], 3),
        (["gen", "--scheme", "scheme-4", "--x0", "10100", "--transcript", "", "--cycle-transcript",
          "--count", "5"], 3),
        (["gen", "--config", "", "--count", "5"], 3),
        (["gen", "--config", "", *SEEDED, "--count", "5"], 2),
        (["cycle", *SEEDED, "--transcript", "", "--budget", "5"], 3),
        (["test", *SEEDED, *SMALL_BATTERY, "--csv", ""], 3),
        (["analyze", "--in", ""], 3),
        (["analyze", "--in", "", *SEEDED, "--count", "100", "--max-lag", "10"], 2),
        (["analyze", "--in", "BITS", "--max-lag", "10", "--cross-with", ""], 3),
        (["analyze", "--in", "BITS", "--max-lag", "10", "--acf-csv", ""], 3),
        (["analyze", "--in", "BITS", "--max-lag", "10", "--spectrum-csv", ""], 3),
        (["analyze", "--in", "BITS", "--max-lag", "10", "--cross-with", "BITS", "--ccf-csv", ""], 3),
        (["histogram", "--in", "PGM", "--csv", ""], 3),
    ],
)
def test_empty_path_is_a_path(tmp_path, fixture_pgm, capsys, argv, expected):
    # An empty path is given, not absent: it fails to open (exit 3), or it
    # is rejected beside flags that a given path excludes (exit 2).
    bits = tmp_path / "a.txt"
    bits.write_text("0110" * 50 + "\n")
    argv = [{"BITS": str(bits), "PGM": fixture_pgm}.get(a, a) for a in argv]
    assert main(argv) == expected
    assert ("usage error" if expected == 2 else "error") in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", *SEEDED, "--count", "8"],
        ["test", *SEEDED, *SMALL_BATTERY],
        ["analyze", *SEEDED, "--count", "200", "--max-lag", "10"],
        ["cycle", *SEEDED, "--budget", "100"],
        ["distance", "--e-a", "10", "--e-b", "11", "--s-a", "1", "--s-b", "2"],
        ["histogram", "--in", "PGM"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_exit_3(capsys, monkeypatch, fixture_pgm, argv):
    # Python sets sys.stdout to None when fd 1 is closed at start-up (`>&-`).
    monkeypatch.setattr(sys, "stdout", None)
    assert main([fixture_pgm if a == "PGM" else a for a in argv]) == 3
    assert "error: [Errno 9] standard output is closed\n" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_stdout_flush_exit_3():
    # A buffered stdout holds the report until main() flushes it, and that
    # flush fails on a full device: exit 3, not the interpreter's 120 from
    # a failed flush at exit.
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "wb") as full:
        run = subprocess.run([sys.executable, "-m", "chaosbits.cli", "distance", "--e-a", "10", "--e-b", "11",
                              "--s-a", "1", "--s-b", "2"], env=env, stdout=full, stderr=subprocess.PIPE, text=True)
    assert run.returncode == 3
    assert run.stderr.startswith("error: [Errno 28]") and "Exception ignored" not in run.stderr


def test_closed_stderr_drops_messages(tmp_path, capsys, monkeypatch):
    # Python sets sys.stderr to None when fd 2 is closed at start-up (`2>&-`).
    monkeypatch.setattr(sys, "stderr", None)
    assert main(["cycle", *SEEDED, "--budget", "0"]) == 2
    out = tmp_path / "bits.txt"
    assert main(["gen", *SEEDED, "--count", "8", "--out", str(out)]) == 0
    assert out.read_text() == "01100010\n"
    assert capsys.readouterr().out == ""


def test_failing_stderr_drops_messages(tmp_path, monkeypatch):
    # fd 2 open but not writable: each message is dropped, the exit code kept.
    class FailingStream:
        def write(self, text):
            raise OSError(errno.EBADF, "Bad file descriptor")

    monkeypatch.setattr(sys, "stderr", FailingStream())
    assert main(["cycle", *SEEDED, "--budget", "0"]) == 2
    out = tmp_path / "bits.txt"
    assert main(["gen", *SEEDED, "--count", "8", "--out", str(out)]) == 0
    assert out.read_text() == "01100010\n"


def test_text_only_stdout_exit_3(capsys):
    # A stdout with no byte layer cannot take the report: an I/O error, not a traceback.
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert main(["distance", "--e-a", "10", "--e-b", "11", "--s-a", "1", "--s-b", "2"]) == 3
    assert text.getvalue() == ""
    assert capsys.readouterr().err == "error: [Errno 9] standard output takes no bytes\n"


def test_degenerate_seed_exit_3(capsys):
    code = main(["gen", "--scheme", "scheme-6", "--seed", "250000", "--count", "5"])
    assert code == 3
    assert "re-seed" in capsys.readouterr().err


def test_encrypt_seed_dead_mid_keystream_exit_3(tmp_path, capsys):
    # A 256x256 image takes 524,288 keystream bits; seed 484108 dies after
    # 461,205.  The keystream is read in chunks, but no byte is written
    # before all of it is made.
    plain = tmp_path / "plain.pgm"
    write_pgm(GrayscaleImage(256, 256, bytes(256 * 256)), str(plain))
    out = tmp_path / "enc.pgm"
    code = main(["encrypt", "--scheme", "scheme-6", "--seed", "484108", "--in", str(plain), "--out", str(out)])
    assert code == 3
    assert "seed is dead" in capsys.readouterr().err
    assert not out.exists()


def test_exhausted_transcript_exit_3(tmp_path, transcript_file):
    out = tmp_path / "bits.txt"
    code = main([
        "gen", "--scheme", "scheme-4", "--x0", "10100",
        "--transcript", transcript_file, "--count", "25", "--out", str(out),
    ])
    assert code == 3


def test_cycle_transcript_flag_repeats(tmp_path, transcript_file):
    out = tmp_path / "bits.txt"
    code = main([
        "gen", "--scheme", "scheme-4", "--x0", "10100", "--transcript",
        transcript_file, "--cycle-transcript", "--count", "60", "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().strip()) == 60


def test_cycle_transcript_without_transcript_is_a_usage_error(capsys):
    # There is no transcript to repeat, so the flag would change nothing.
    code = main(["gen", "--scheme", "scheme-6", "--seed", "484076", "--cycle-transcript", "--count", "5"])
    assert code == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.err and captured.out == ""


# -- test subcommand -----------------------------------------------------------------


def test_battery_subcommand_pass_and_csv(tmp_path, capsys):
    csv = tmp_path / "report.csv"
    code = main(["test", "--scheme", "scheme-6", "--seed", "484076",
                 "--sequences", "2", "--length", "4000", "--relaxed",
                 "--block-len", "400", "--serial-m", "5", "--apen-m", "5",
                 "--csv", str(csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "battery verdict: PASS" in out
    text = csv.read_text()
    assert text.startswith("test,param,seq_index,p_value\n")
    assert "\ntest,p_t,pass\n" in text


def test_battery_csv_to_stdout_precedes_the_report(tmp_path, capsys):
    csv = tmp_path / "report.csv"
    argv = ["test", *SEEDED, *SMALL_BATTERY]
    code = main([*argv, "--csv", str(csv)])
    report = capsys.readouterr().out
    assert main([*argv, "--csv", "-"]) == code
    assert capsys.readouterr().out == csv.read_text() + report


def test_battery_subcommand_failure_exit_1(capsys):
    # All-ones-biased scheme-1 stream at tiny scale: monobit collapses.
    code = main(["test", "--scheme", "scheme-1", "--seed", "484076",
                 "--sequences", "4", "--length", "4000", "--relaxed",
                 "--block-len", "400", "--serial-m", "5", "--apen-m", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "battery verdict: FAIL" in out


JUDGE_BATTERY = ["test", "--scheme", "scheme-1", "--seed", "484076", "--sequences", "10", "--length", "200000"]


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns in this process."""
    pids = []
    real_fork = os.fork

    def spy():
        pid = real_fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="two processes only where affinity is known")
@pytest.mark.parametrize("argv, code", [
    (JUDGE_BATTERY, 1),
    # An odd count splits 3 + 2; every sequence passes here.
    (["test", "--scheme", "scheme-6", "--seed", "484200", "--sequences", "5", "--length", "200000"], 0),
    # A usage error in this process's first sequence: exit 2.
    ([*JUDGE_BATTERY, "--block-len", "0"], 2),
    # Dead seeds (y0 = 0.25) at master+1, in this process's half, and at
    # master+5, the child's first: exit 3, from the lowest dead index.
    (["test", "--scheme", "scheme-6", "--seed", "249999", "--sequences", "10", "--length", "200000"], 3),
    (["test", "--scheme", "scheme-6", "--seed", "249995", "--sequences", "10", "--length", "200000"], 3),
])
def test_battery_in_two_processes_equals_one(tmp_path, capsys, monkeypatch, forks, argv, code):
    outputs = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        csv = tmp_path / f"cpus{len(cpus)}.csv"
        outputs.append((main([*argv, "--csv", str(csv)]), capsys.readouterr(), csv.exists() and csv.read_bytes()))
        assert_no_child_left()
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == code
    assert len(forks) == 1


@pytest.mark.parametrize("argv", [
    # Below the size that pays for a fork: 2e5 bits in all.
    ["test", "--scheme", "scheme-1", "--seed", "484076", "--relaxed", "--sequences", "10", "--length", "20000"],
    # One sequence has nothing to split.
    ["test", "--scheme", "scheme-6", "--seed", "484200", "--sequences", "1", "--length", "1000000"],
])
def test_small_battery_runs_in_one_process(capsys, monkeypatch, forks, argv):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert main(argv) in (0, 1)
    assert forks == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts open descriptors in /proc")
def test_battery_runs_in_one_process_when_fork_fails(monkeypatch, capsys):
    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fds = len(os.listdir("/proc/self/fd"))
    assert main(JUDGE_BATTERY) == 1
    assert capsys.readouterr().out.endswith("battery verdict: FAIL\n")
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="two processes only where affinity is known")
def test_interrupted_battery_leaves_no_child(monkeypatch, capsys):
    # Ctrl-C in this process's half: the child is killed and reaped.
    parent = os.getpid()
    sequence = chaosbits.battery._Battery.sequence

    def interrupted(self, i):
        if i == 1 and os.getpid() == parent:
            raise KeyboardInterrupt
        return sequence(self, i)

    monkeypatch.setattr(chaosbits.battery._Battery, "sequence", interrupted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(KeyboardInterrupt):
        main(JUDGE_BATTERY)
    assert_no_child_left()
    assert capsys.readouterr().out == ""


# Runs test as given on the given number of CPUs, then exits 100 if it
# left a child process, else with test's exit code.
DEAD_SEED_PROBE = """
import os, sys
from chaosbits.cli import main

os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
code = main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit(100)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="two processes only where os.fork exists")
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("seed, dead", [("249999", 1), ("249995", 5)])
def test_dead_seed_in_either_half_fails_as_in_one_process(unbuffered, seed, dead):
    # Masters 249999 and 249995 reach y0 = 0.25 at master+1 and master+5:
    # in this process's half of ten sequences, and in the child's.  The
    # dead index is reported, with exit 3, as one process reports it.
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = ["test", "--scheme", "scheme-6", "--seed", seed, "--sequences", "10", "--length", "200000"]
    two, one = (subprocess.run([sys.executable, "-c", DEAD_SEED_PROBE, cpus, *argv], env=env, capture_output=True,
                               timeout=120) for cpus in ("2", "1"))
    assert (two.returncode, two.stdout, two.stderr) == (one.returncode, one.stdout, one.stderr)
    assert two.returncode == 3
    assert two.stderr.decode().startswith(f"error: sequence {dead} (seed schedule master+{dead}) died")


def test_battery_single_sequence_warns(capsys):
    code = main(["test", "--scheme", "scheme-6", "--seed", "484076",
                 "--sequences", "1", "--length", "4000", "--relaxed",
                 "--block-len", "400", "--serial-m", "5", "--apen-m", "5"])
    out = capsys.readouterr().out
    assert "warning:" in out
    assert code in (0, 1)


@pytest.mark.parametrize("flag", ["--serial-m", "--apen-m"])
def test_battery_pattern_table_larger_than_input_is_a_usage_error(flag, capsys):
    # A 2^45-entry pattern table for 200 bits is refused before it is allocated.
    code = main(["test", "--scheme", "scheme-6", "--seed", "484076", "--relaxed",
                 "--sequences", "1", "--length", "200", "--block-len", "20", flag, "45"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error:") and "Traceback" not in err


# -- analyze ---------------------------------------------------------------------------


def test_analyze_generated_stream(tmp_path, capsys):
    acf = tmp_path / "acf.csv"
    spec = tmp_path / "spec.csv"
    code = main(["analyze", "--scheme", "scheme-6", "--seed", "484076",
                 "--count", "5000", "--max-lag", "50",
                 "--acf-csv", str(acf), "--spectrum-csv", str(spec)])
    assert code == 0
    out = capsys.readouterr().out
    assert "autocorrelation" in out and "flatness" in out
    acf_lines = acf.read_text().splitlines()
    assert acf_lines[0] == "lag,value"
    assert len(acf_lines) == 52  # header + lags 0..50
    assert acf_lines[1] == "0,1.0"
    spec_lines = spec.read_text().splitlines()
    assert spec_lines[0] == "bin,power"
    assert len(spec_lines) == 1 + 5000 // 2 + 1


def test_analyze_file_input_and_cross(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    main(["gen", "--scheme", "scheme-6", "--seed", "484076", "--count", "2000", "--out", str(a)])
    main(["gen", "--scheme", "scheme-6", "--seed", "484077", "--count", "2000", "--out", str(b)])
    ccf = tmp_path / "ccf.csv"
    code = main(["analyze", "--in", str(a), "--max-lag", "20",
                 "--cross-with", str(b), "--ccf-csv", str(ccf)])
    assert code == 0
    assert "cross-correlation" in capsys.readouterr().out
    assert ccf.read_text().startswith("lag,value\n")


@pytest.mark.parametrize(
    "flags",
    [
        ["--count", "5000"],
        ["--count", "100000"],  # the default, given explicitly
        ["--scheme", "scheme-6", "--seed", "484076"],
        ["--no-emit-initial"],
        ["--seed-from-time"],
        ["--config", "cfg.txt"],
    ],
)
def test_analyze_file_input_rejects_generator_flags(tmp_path, capsys, flags):
    # --in takes its bits from the file, so these flags would change nothing.
    bits = tmp_path / "a.txt"
    bits.write_text("0110" * 50 + "\n")
    assert main(["analyze", "--in", str(bits), "--max-lag", "10", *flags]) == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [
        pytest.param(["--cross-with", "SHORT", "--acf-csv", "OUT", "--spectrum-csv", "OUT2"], id="cross-length"),
        pytest.param(["--ccf-csv", "OUT"], id="ccf-without-cross"),
    ],
)
def test_analyze_usage_error_writes_nothing(tmp_path, capsys, flags):
    # Every result is computed before the first write, so a usage error
    # leaves stdout empty and creates no CSV.
    bits = tmp_path / "a.txt"
    bits.write_text("0110" * 50 + "\n")
    short = tmp_path / "short.txt"
    short.write_text("0110" * 25 + "\n")
    names = {"SHORT": str(short), "OUT": str(tmp_path / "out.csv"), "OUT2": str(tmp_path / "out2.csv")}
    assert main(["analyze", "--in", str(bits), "--max-lag", "10", *[names.get(f, f) for f in flags]]) == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.err and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "short.txt"]


# -- cycle -----------------------------------------------------------------------------


def test_cycle_subcommand_worked_example(tmp_path, capsys):
    t = tmp_path / "cyc.txt"
    t.write_text(CYCLE_TRANSCRIPT_TEXT)
    code = main(["cycle", "--n-cells", "4", "--m-set", "1,2",
                 "--x0", "0000", "--transcript", str(t)])
    assert code == 0
    out = capsys.readouterr().out
    assert "cycle_period=16" in out
    assert "transient_length=0" in out
    assert "orbit_length=16" in out


def test_cycle_budget_exceeded_exit_1(capsys):
    code = main(["cycle", "--scheme", "scheme-6", "--seed", "484076",
                 "--budget", "100"])
    assert code == 1
    assert "no cycle confirmed" in capsys.readouterr().out


# -- distance --------------------------------------------------------------------------


def test_distance_subcommand(capsys):
    code = main(["distance", "--e-a", "00000", "--e-b", "00000",
                 "--s-a", "1,1,1,1,1,1,1,1,1,1,1,1,1,1,1",
                 "--s-b", "2,2,2,2,2,2,2,2,2,2,2,2,2,2,2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "d_e=0" in out
    d_line = [l for l in out.splitlines() if l.startswith("d=")][0]
    assert float(d_line.split("=")[1]) == pytest.approx(0.2, abs=1e-12)
    assert "tail_bound=" in out


# -- encrypt / decrypt / histogram -------------------------------------------------------


def test_encrypt_decrypt_round_trip(tmp_path, fixture_pgm):
    enc = tmp_path / "enc.pgm"
    dec = tmp_path / "dec.pgm"
    seed_args = ["--scheme", "scheme-6", "--seed", "484076"]
    assert main(["encrypt", *seed_args, "--in", fixture_pgm, "--out", str(enc)]) == 0
    assert main(["decrypt", *seed_args, "--in", str(enc), "--out", str(dec)]) == 0
    assert dec.read_bytes() == Path(fixture_pgm).read_bytes()
    assert enc.read_bytes() != dec.read_bytes()


def test_encrypt_to_stdout_writes_the_file_bytes(tmp_path, fixture_pgm, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    enc = tmp_path / "enc.pgm"
    assert main(["encrypt", *SEEDED, "--in", fixture_pgm, "--out", str(enc)]) == 0
    assert main(["encrypt", *SEEDED, "--in", fixture_pgm, "--out", "-"]) == 0
    assert capsysbinary.readouterr().out == enc.read_bytes()
    assert not (tmp_path / "-").exists()


# Encrypts a 64 KiB and then a 1 MiB image in one fresh interpreter and
# prints the peak resident set (VmHWM, kB) after each.
ENCRYPT_PEAK_PROBE = """
import os, sys
from chaosbits.cli import main

for path in sys.argv[1:]:
    assert main(["encrypt", "--scheme", "scheme-6", "--seed", "484200", "--in", path, "--out", os.devnull]) == 0
    with open("/proc/self/status") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status")
def test_encrypt_peak_memory_is_bounded_by_the_image(tmp_path):
    # 16 times the pixels may raise the peak by at most 3.5 MiB: a keystream
    # XORed into the output chunk by chunk raises it ~2.8 MiB (the output
    # and its bytes copy), one packed whole first ~3.9 MiB, one read whole
    # ~24 MiB.
    paths = []
    for side in (256, 1024):
        path = tmp_path / f"{side}.pgm"
        write_pgm(GrayscaleImage(side, side, bytes(side * side)), str(path))
        paths.append(str(path))
    probe = subprocess.run([sys.executable, "-c", ENCRYPT_PEAK_PROBE, *paths], env=child_env(),
                           capture_output=True, text=True, check=True)
    small, large = (int(v) for v in probe.stdout.split())
    assert large - small <= 3584, (small, large)


def test_histogram_subcommand(tmp_path, fixture_pgm, capsys):
    csv = tmp_path / "hist.csv"
    code = main(["histogram", "--in", fixture_pgm, "--csv", str(csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert "pixels=4096" in out
    assert "chi_square_256=" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == "value,count"
    assert len(lines) == 257
    img = read_pgm(fixture_pgm)
    h = histogram(img)
    assert lines[1] == f"0,{h.bins[0]}"
