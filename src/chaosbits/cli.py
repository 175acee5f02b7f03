"""Command-line interface.

One executable, ``chaosbits``, with subcommands for bitstream
generation (gen), the statistical battery (test), correlation/spectrum
analysis (analyze), state-orbit cycle detection (cycle), the
phase-space distance (distance), image encryption (encrypt/decrypt) and
image histograms (histogram).

Exit codes: 0 success, 1 statistical failure (battery verdict FAIL, or
no cycle confirmed within budget), 2 usage error, 3 runtime error
(degenerate seed, exhausted transcript, I/O failure, a closed or failing
stdout).  Every output flag takes "-" for stdout.

Every subcommand is deterministic given its flags; wall-clock seeding
happens only under --seed-from-time, which prints the resolved seed so
the run can be replayed.
"""

from __future__ import annotations

import argparse
import ctypes
import errno
import gc
import os
import pickle
import signal
import sys
import time
import warnings
from contextlib import contextmanager, suppress

from .analysis import (
    BudgetExceeded,
    autocorrelation,
    cross_correlation,
    detect_cycle,
    phase_distance,
    phase_distance_tail_bound,
    power_spectrum,
)
from .battery import _Battery, report_to_csv, report_to_text
from .cipher import (
    chi_square_uniformity,
    histogram,
    read_pgm,
    write_pgm,
    xor_cipher,
)
from .generator import (
    SCHEMES,
    ChaoticBitGenerator,
    DegenerateSeedError,
    GeneratorConfig,
    TranscriptDriver,
    TranscriptExhausted,
    _ascii_codes,
    config_from_entries,
    config_from_text,
    config_to_text,
    parse_ascii_bits,
    parse_bit_vector,
    parse_int_list,
    seed_from_time,
    transcript_from_text,
)

__all__ = ["SCHEMES", "main"]


def _time_seed() -> int:
    # Microsecond fractional part of epoch time, 6 decimal digits.  Values
    # seed_from_time rejects (0 gives y0 = 0, 250000 gives 0.25) are re-read.
    for _ in range(100):
        t = (time.time_ns() // 1000) % 1_000_000
        try:
            seed_from_time(t, 2)
            return t
        except DegenerateSeedError:
            time.sleep(2e-6)
    raise DegenerateSeedError("could not derive a usable time seed; pass --seed explicitly")


def _flag_entries(args) -> list[tuple[str, str]]:
    """Each generator flag's config entry (key, text), a --scheme as its n_cells and m_set.

    A repeated flag repeats its key, which config_from_entries rejects as in a --config file.
    """
    entries = []
    for name in args.scheme or ():
        n_cells, m_set = SCHEMES[name]
        entries += [("n_cells", str(n_cells)), ("m_set", ",".join(map(str, m_set)))]
    return entries + (args.entries or [])


def _resolve_config(args) -> tuple[GeneratorConfig, tuple | None]:
    transcript = None
    if getattr(args, "transcript", None) is not None:
        with open(args.transcript, "r", encoding="ascii") as fh:
            transcript = transcript_from_text(fh.read())

    entries = _flag_entries(args)
    if args.config is not None:
        if entries or args.seed_from_time:
            raise ValueError("--config replaces the other generator flags; do not combine them")
        with open(args.config, "r", encoding="ascii") as fh:
            return config_from_text(fh.read()), transcript

    keys = {key for key, _ in entries}
    if transcript is not None and "seed.x0" in keys and "seed.y0" not in keys:
        # A forced transcript never draws from the logistic driver, so y0 is a placeholder.
        entries.append(("seed.y0", "0.1"))
    if args.seed_from_time:
        t = _time_seed()
        entries.append(("seed.t", str(t)))
    config = config_from_entries(entries)
    if args.seed_from_time:
        # Printed only for a config that is used, so the run can be replayed.
        _note(f"resolved seed.t={t}\n")
    return config, transcript


@contextmanager
def _open_output(path: str):
    """The byte stream an output flag names: the file at path, or stdout for "-".

    stdout is flushed on the way out, however the block ends.  When that
    flush fails, fd 1 is pointed at os.devnull before the error
    propagates, so the interpreter's last flush of the bytes still
    buffered cannot fail again at exit (status 120) after main() has
    reported the error.
    """
    if path != "-":
        with open(path, "wb") as fh:
            yield fh
        return
    # sys.stdout is None when fd 1 was closed at start-up; a text-only
    # stream such as io.StringIO has no byte layer to write to.
    out = getattr(sys.stdout, "buffer", None)
    if out is None:
        raise OSError(errno.EBADF, "standard output is closed" if sys.stdout is None
                      else "standard output takes no bytes")
    try:
        yield out
    finally:
        try:
            out.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
            raise


def _keep_freed_heap() -> None:
    """Let malloc serve large numpy temporaries from a heap that keeps them.

    ``test`` and ``analyze`` make them: a battery sequence's (spectral's
    +/-1 copy, its rfft output and pocketfft's scratch, the pattern
    index) and analyze's transforms.  They exceed glibc's default
    128 KiB mmap threshold, so each is mapped, faulted in page by page
    and unmapped again when freed.  Below a 32 MiB mmap threshold they
    come from the heap, and a 64 MiB trim threshold keeps the pages one
    transform or sequence freed for the next.  The setting is process
    wide, so the CLI, which owns its process, makes it; library callers
    of run_battery and the analysis functions keep the allocator's
    defaults.  Where the C library is not glibc, this does nothing.
    """
    try:
        os.confstr("CS_GNU_LIBC_VERSION")
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD (malloc.h)
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _write_text(path: str, text: str) -> None:
    with _open_output(path) as fh:
        fh.write(text.encode("ascii"))


def _note(text: str) -> None:
    """Write text to stderr; a closed or failing stderr drops it."""
    if sys.stderr is not None:
        with suppress(OSError):
            sys.stderr.write(text)


def _write_pairs(path: str, header: str, pairs) -> None:
    """Write a two-column CSV: the header line, then one line per pair of ints or floats, each as its repr."""
    _write_text(path, header + "\n" + "".join(f"{a!r},{b!r}\n" for a, b in pairs))


def cmd_gen(args) -> int:
    if args.cycle_transcript and args.transcript is None:
        raise ValueError("--cycle-transcript repeats a --transcript; give one")
    config, transcript = _resolve_config(args)
    if args.count < 0:
        raise ValueError("--count must be non-negative")
    if args.wrap < 0:
        raise ValueError("--wrap must be non-negative")
    driver = None
    if transcript is not None:
        driver = TranscriptDriver(*transcript, cycle=args.cycle_transcript)
    _note(config_to_text(config))
    gen = ChaoticBitGenerator(config, driver=driver)
    ascii_out = args.format == "ascii"
    # Whole lines (ASCII) or whole bytes (raw) per chunk, so each chunk
    # renders alone; raw output ignores --wrap and writes the packed stream.
    with _open_output(args.out) as fh:
        for piece in gen.chunks(args.count, (args.wrap or 1) if ascii_out else 8, packed=not ascii_out):
            fh.write(_ascii_codes(piece, args.wrap) if ascii_out else piece)
        if ascii_out and args.count and not args.wrap:
            fh.write(b"\n")
    return 0


# The bits in all (sequences x length) from which test runs its sequences
# in two processes.  Splitting costs ~10 ms: the fork, the copy-on-write
# faults after it, and the child's own first-sequence set-up (numpy.fft's
# import, the block loop's load).  On a 2-vCPU x86-64 VM the second core
# earned that back from ~1e6 bits (0-4 ms gained); 0.6e6 bits lost 0-2 ms
# and 0.4e6 bits 3-6 ms.
_SPLIT_MIN_BITS = 1_000_000


def _battery_rows(battery: _Battery) -> list:
    """Every sequence's results, in index order.

    With two CPUs to run on, and enough bits to pay for a fork, a forked
    child runs the later half of the sequences while this process runs
    the first half.  The child stops at its first sequence that raises or
    warns, and this process runs every sequence the child did not deliver
    itself, in order.  So an error or a warning comes from the lowest
    index that has one, as in one process, and the rows are the same
    either way.
    """
    n = battery.n_sequences
    rows = []
    if (n >= 2 and n * battery.seq_len >= _SPLIT_MIN_BITS and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2):
        rows = _two_process_rows(battery)
    return rows + [battery.sequence(i) for i in range(len(rows), n)]


def _two_process_rows(battery: _Battery) -> list:
    """This process's half of the rows, then those the forked child sent for the other half.

    The child is reaped before this returns or raises, and killed first
    when this process's half raises.  No rows at all when fork fails.
    """
    n = battery.n_sequences
    half = (n + 1) // 2
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # From Python 3.12 fork() warns when the process has another
            # thread, as it has once numpy started OpenBLAS's pool.  The
            # child makes no BLAS call (the battery's dot products are over
            # integer counts), so no lock a BLAS thread held can block it.
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:  # a limit on processes or memory
        os.close(read_fd)
        os.close(write_fd)
        return []
    if pid == 0:
        _battery_child(battery, range(half, n), read_fd, write_fd)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            rows = [battery.sequence(i) for i in range(half)]
            sent = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    # The child exits 0 only once its rows are all written.
    return rows + pickle.loads(sent) if status == 0 else rows


def _battery_child(battery: _Battery, indices: range, read_fd: int, write_fd: int):
    """The forked child: run the sequences, pickle their rows into write_fd and exit, never return.

    It writes nothing else: a warning is raised as an error, which ends
    the loop like any other, and os._exit leaves without flushing the
    output buffers it inherited or unwinding into its caller's stack.
    """
    code = 1
    try:
        os.close(read_fd)
        rows = []
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for i in indices:
                    rows.append(battery.sequence(i))
        finally:
            with open(write_fd, "wb") as pipe:
                pickle.dump(rows, pipe)
            code = 0
    finally:
        os._exit(code)


def cmd_test(args) -> int:
    config, _ = _resolve_config(args)
    battery = _Battery(config, args.sequences, args.length, args.relaxed, args.block_len, args.serial_m,
                       args.apen_m)
    # Before the fork, so both processes keep their freed pages.
    _keep_freed_heap()
    report = battery.report(_battery_rows(battery))
    if args.csv is not None:
        _write_text(args.csv, report_to_csv(report))
    _write_text("-", report_to_text(report))
    return 0 if report.passed else 1


def cmd_analyze(args) -> int:
    if args.max_lag < 1:
        raise ValueError("--max-lag must be at least 1")
    if args.ccf_csv is not None and args.cross_with is None:
        raise ValueError("--ccf-csv writes the --cross-with correlation; give one")
    if args.infile is not None:
        if _flag_entries(args) or args.config is not None or args.seed_from_time or args.count is not None:
            raise ValueError("--in reads the bits from a file; do not add generator flags or --count")
        with open(args.infile, "r", encoding="ascii") as fh:
            bits = parse_ascii_bits(fh.read())
    else:
        config, _ = _resolve_config(args)
        bits = ChaoticBitGenerator(config).bits(100000 if args.count is None else args.count)
    other = None
    if args.cross_with is not None:
        with open(args.cross_with, "r", encoding="ascii") as fh:
            other = parse_ascii_bits(fh.read())
    n = len(bits)

    # Every result is in before the first write, so a usage error writes nothing.
    _keep_freed_heap()
    auto = autocorrelation(bits, args.max_lag)
    spec = power_spectrum(bits)
    cross = None if other is None else cross_correlation(bits, other, args.max_lag)

    bound = 4.0 / (n ** 0.5)
    tail = [v for v in auto.values[1:] if abs(v) > bound]
    rel = abs(spec.spectral_energy - spec.time_energy) / spec.time_energy
    _write_text("-", f"length: {n}\n"
                f"autocorrelation: lag0={auto.values[0]:.6f}{' (degenerate input)' if auto.degenerate else ''}\n"
                f"autocorrelation: {len(tail)} of {args.max_lag} lags exceed 4/sqrt(n)={bound:.6g}\n"
                f"spectrum: flatness={spec.flatness:.6g} parseval_rel_err={rel:.3g}\n")
    if args.acf_csv is not None:
        _write_pairs(args.acf_csv, "lag,value", enumerate(auto.values))
    if args.spectrum_csv is not None:
        _write_pairs(args.spectrum_csv, "bin,power", enumerate(spec.power.tolist()))
    if cross is not None:
        peak = max(abs(v) for v in cross.values)
        _write_text("-", f"cross-correlation: max|r|={peak:.6g} over lags 0..{args.max_lag}"
                    f"{' (degenerate input)' if cross.degenerate else ''}\n")
        if args.ccf_csv is not None:
            _write_pairs(args.ccf_csv, "lag,value", enumerate(cross.values))
    return 0


def cmd_cycle(args) -> int:
    config, transcript = _resolve_config(args)
    if args.budget < 1:
        raise ValueError("--budget must be positive")
    result = detect_cycle(config, transcript=transcript, budget=args.budget)
    if isinstance(result, BudgetExceeded):
        _write_text("-", f"no cycle confirmed within budget={result.budget} "
                    f"(state steps executed: {result.steps_executed})\n")
        return 1
    _write_text("-", f"transient_length={result.transient_length}\n"
                f"cycle_period={result.cycle_period}\n"
                f"orbit_length={result.orbit_length}\n")
    return 0


def cmd_distance(args) -> int:
    e_a = parse_bit_vector(args.e_a, "--e-a")
    e_b = parse_bit_vector(args.e_b, "--e-b")
    s_a = parse_int_list(args.s_a, "--s-a")
    s_b = parse_int_list(args.s_b, "--s-b")
    d = phase_distance(s_a, e_a, s_b, e_b, prefix_k=args.prefix_k)
    d_e = sum(1 for u, v in zip(e_a, e_b) if u != v)
    d_s = phase_distance(s_a, e_a, s_b, e_a, prefix_k=args.prefix_k)
    k_eff = min(len(s_a), len(s_b), args.prefix_k)
    _write_text("-", f"d_e={d_e}\nd_s={d_s!r}\nd={d!r}\n"
                f"tail_bound={phase_distance_tail_bound(len(e_a), k_eff)!r}\n")
    return 0


def cmd_crypt(args) -> int:
    config, _ = _resolve_config(args)
    encrypted = xor_cipher(read_pgm(args.infile), config)
    with _open_output(args.out) as fh:
        write_pgm(encrypted, fh)
    return 0


def cmd_histogram(args) -> int:
    image = read_pgm(args.infile)
    hist = histogram(image)
    chi2 = chi_square_uniformity(hist)
    _write_text("-", f"pixels={hist.total}\nchi_square_256={chi2!r}\n")
    if args.csv is not None:
        _write_pairs(args.csv, "value,count", enumerate(hist.bins))
    return 0


# The subcommands and their help lines, in the order --help lists them.
_COMMANDS = {
    "gen": "generate a bitstream",
    "test": "run the statistical battery",
    "analyze": "autocorrelation, cross-correlation and power spectrum",
    "cycle": "detect the period of the state orbit",
    "distance": "phase-space distance between two (strategy, cells) points",
    "encrypt": "one-time-pad a PGM image",
    "decrypt": "alias of encrypt (the cipher is an involution)",
    "histogram": "256-bin histogram and uniformity chi-square of a PGM",
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of argv: only the subcommand argv[0] names, or all of them when it names none."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = argparse.ArgumentParser(
        prog="chaosbits",
        description="Chaotic-iterations bit generator, statistical battery, orbit analysis, image cipher.",
    )
    # With one subcommand built, the metavar keeps every name in the usage
    # line that the top parser's errors print, as argparse writes it.
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")

    def add(name: str, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser | None:
        if command not in (None, name):
            return None
        return sub.add_parser(name, parents=parents, help=_COMMANDS[name])

    # The generator flags, declared once as argparse parents.  Each keyed
    # flag appends its config entry (key, text) to args.entries, so
    # config_from_entries reads the flags as it reads a --config file.
    generator = argparse.ArgumentParser(add_help=False)
    g = generator.add_argument_group("generator")

    def keyed(flag: str, key: str, metavar: str, help_text: str) -> None:
        g.add_argument(flag, action="append", dest="entries", type=lambda text: (key, text), metavar=metavar,
                       help=help_text)

    g.add_argument("--scheme", action="append", choices=sorted(SCHEMES), help="named (n_cells, m_set) scheme")
    keyed("--n-cells", "n_cells", "N_CELLS", "custom system size (with --m-set)")
    keyed("--m-set", "m_set", "M_SET", "custom comma-separated gap alphabet (with --n-cells)")
    g.add_argument("--config", metavar="FILE", help="key=value config file, exclusive with the flags above")
    keyed("--seed", "seed.t", "T", "time-derived seed value")
    keyed("--x0", "seed.x0", "BITS", "explicit initial cell vector, e.g. 10100")
    keyed("--y0", "seed.y0", "Y0", "explicit logistic seed in (0,1)")
    g.add_argument("--seed-from-time", action="store_true", help="seed from the clock and print the value")
    g.add_argument("--no-emit-initial", action="append_const", dest="entries", const=("emit_initial", "false"),
                   help="start output at the first driven block")
    # Only gen and cycle force the drivers; argparse merges this group into
    # the one above by its title, so --transcript ends the generator group.
    forced = argparse.ArgumentParser(add_help=False)
    forced.add_argument_group("generator").add_argument(
        "--transcript", metavar="FILE", help="force explicit drivers from a file with lines m=... and s=...")

    if p := add("gen", generator, forced):
        p.add_argument("--cycle-transcript", action="store_true",
                       help="repeat a forced transcript instead of exhausting it")
        p.add_argument("--count", type=int, required=True, help="number of bits")
        p.add_argument("--format", choices=("ascii", "raw"), default="ascii")
        p.add_argument("--wrap", type=int, default=0, help="wrap ascii output at this many columns (0 = off)")
        p.add_argument("--out", default="-", help="output file ('-' = stdout)")
        p.set_defaults(func=cmd_gen)

    if p := add("test", generator):
        p.add_argument("--sequences", type=int, default=10, help="number of sequences")
        p.add_argument("--length", type=int, default=100000, help="bits per sequence")
        p.add_argument("--relaxed", action="store_true",
                       help="lift recommended minimum lengths (desk-scale runs)")
        p.add_argument("--block-len", type=int, default=20000, help="block-frequency block length")
        p.add_argument("--serial-m", type=int, default=10, help="serial pattern length")
        p.add_argument("--apen-m", type=int, default=10, help="approximate-entropy pattern length")
        p.add_argument("--csv", help="also write the report as CSV to this file")
        p.set_defaults(func=cmd_test)

    if p := add("analyze", generator):
        p.add_argument("--in", dest="infile", help="read ascii bits from this file instead of generating")
        p.add_argument("--count", type=int, help="bits to generate when not reading a file (default 100000)")
        p.add_argument("--max-lag", type=int, default=1000)
        p.add_argument("--acf-csv", help="write autocorrelation CSV (lag,value)")
        p.add_argument("--spectrum-csv", help="write power spectrum CSV (bin,power)")
        p.add_argument("--cross-with", help="second ascii bit file for cross-correlation")
        p.add_argument("--ccf-csv", help="write cross-correlation CSV (lag,value)")
        p.set_defaults(func=cmd_analyze)

    if p := add("cycle", generator, forced):
        p.add_argument("--budget", type=int, default=10 ** 8, help="state-step budget")
        p.set_defaults(func=cmd_cycle)

    if p := add("distance"):
        p.add_argument("--e-a", required=True, help="first cell vector as a bit string")
        p.add_argument("--e-b", required=True, help="second cell vector as a bit string")
        p.add_argument("--s-a", required=True, help="first strategy prefix, comma-separated")
        p.add_argument("--s-b", required=True, help="second strategy prefix, comma-separated")
        p.add_argument("--prefix-k", type=int, default=30, help="strategy terms compared")
        p.set_defaults(func=cmd_distance)

    for name in ("encrypt", "decrypt"):
        if p := add(name, generator):
            p.add_argument("--in", dest="infile", required=True, help="input PGM (P5)")
            p.add_argument("--out", required=True, help="output PGM (P5)")
            p.set_defaults(func=cmd_crypt)

    if p := add("histogram"):
        p.add_argument("--in", dest="infile", required=True, help="input PGM (P5)")
        p.add_argument("--csv", help="write histogram CSV (value,count)")
        p.set_defaults(func=cmd_histogram)

    return parser


def main(argv=None) -> int:
    # The objects the imports made live as long as the process.  Frozen for
    # the command, they are left out of every cycle collection it triggers,
    # which then scans only the command's own objects.
    gc.freeze()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        _note(f"usage error: {exc}\n")
        return 2
    except (DegenerateSeedError, TranscriptExhausted, OSError) as exc:
        _note(f"error: {exc}\n")
        return 3
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
