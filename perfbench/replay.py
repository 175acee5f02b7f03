"""Traced replay of one benchmark workload through the public chaosbits API.

Usage: python3 -X importtime perfbench/replay.py SPEC_JSON RESULT_JSON

Makes the library calls the CLI makes for the workload's commands, in the
CLI's order and with the CLI's default parameters, and records a span
(name, parent, start, end) around each call.  Spans are kept in memory and
written to RESULT_JSON at the end, together with what the calls produced, so
the caller can check that the replay's output equals the CLI's.

The only imports before ``chaosbits.cli`` are the built-ins ``sys`` and ``time``; a
marker line on stderr ends the import step, so the ``-X importtime`` lines
above it describe exactly what importing the CLI costs.
"""

import sys
import time

t_import = time.perf_counter()
import chaosbits.cli  # noqa: E402

t_import = time.perf_counter() - t_import
print("perfbench: import step done", file=sys.stderr, flush=True)

import hashlib  # noqa: E402
import json  # noqa: E402
import warnings  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import numpy as np  # noqa: E402

from chaosbits import (  # noqa: E402
    BudgetExceeded,
    ChaoticBitGenerator,
    GeneratorConfig,
    SeedSpec,
    approximate_entropy,
    autocorrelation,
    bits_to_ascii,
    block_frequency,
    cumulative_sums,
    detect_cycle,
    frequency_monobit,
    longest_run,
    p_uniformity,
    pack_bits,
    power_spectrum,
    runs_test,
    serial,
    spectral_dft,
)


class Tracer:
    """In-memory spans: [name, parent index or None, start, end]."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, parent, time.perf_counter(), None])
        idx = len(self.spans) - 1
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][3] = time.perf_counter()


def config(scheme, t):
    n_cells, m_set = scheme
    return GeneratorConfig(n_cells, tuple(m_set), SeedSpec.from_time(t))


def generate(tr, scheme, t, count):
    with tr.span("generator.bits"):
        return ChaoticBitGenerator(config(scheme, t)).bits(count)


def bits_digest(bits):
    return hashlib.sha256(np.ascontiguousarray(bits, dtype=np.uint8).tobytes()).hexdigest()


def replay_gen(tr, cmd):
    with tr.span("cli.gen"):
        bits = generate(tr, cmd["scheme"], cmd["t"], cmd["count"])
        if cmd["format"] == "ascii":
            with tr.span("generator.to_ascii"):
                text = bits_to_ascii(bits, wrap=cmd["wrap"])
            if text and not text.endswith("\n"):
                text += "\n"
            with tr.span("cli.write"), open(cmd["out"], "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            with tr.span("generator.pack"):
                data = pack_bits(bits)
            with tr.span("cli.write"), open(cmd["out"], "wb") as fh:
                fh.write(data)
    with open(cmd["out"], "rb") as fh:
        data = fh.read()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


# (span name, call) in the order the battery runs them; the parameters are
# the CLI's defaults (strict mode, block length 20000, serial and ApEn m=10).
BATTERY = (
    ("battery.monobit", lambda b: [frequency_monobit(b, False)]),
    ("battery.block_frequency", lambda b: [block_frequency(b, 20000, False)]),
    ("battery.runs", lambda b: [runs_test(b, False)]),
    ("battery.longest_run", lambda b: [longest_run(b)]),
    ("battery.spectral", lambda b: [spectral_dft(b, False)]),
    ("battery.cumulative_sums", lambda b: list(cumulative_sums(b, False))),
    ("battery.serial", lambda b: list(serial(b, 10, False))),
    ("battery.approximate_entropy", lambda b: [approximate_entropy(b, 10, False)]),
)

MEAN_ROWS = {
    "cumulative-sums-mean": ("cumulative-sums-forward", "cumulative-sums-backward"),
    "serial-mean": ("serial-1", "serial-2"),
}


def replay_test(tr, cmd):
    rows, digests, gate_failed = {}, [], 0
    with tr.span("cli.test"):
        for i in range(cmd["sequences"]):
            bits = generate(tr, cmd["scheme"], cmd["t"] + i, cmd["length"])
            digests.append(bits_digest(bits))
            for name, call in BATTERY:
                with tr.span(name):
                    results = call(bits)
                for r in results:
                    rows.setdefault(r.test_name, []).append(r.p_value)
                    gate_failed += bool(r.params.get("gate_failed"))
        p_t = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name in sorted(rows):
                with tr.span("battery.p_uniformity"):
                    p_t[name] = p_uniformity(rows[name])
        for name, parts in MEAN_ROWS.items():
            p_t[name] = sum(p_t[c] for c in parts) / len(parts)
    return {"p_t": p_t, "p_values": rows, "runs_gate_failed": gate_failed, "bits_sha256": digests}


def replay_analyze(tr, cmd):
    with tr.span("cli.analyze"):
        bits = generate(tr, cmd["scheme"], cmd["t"], cmd["count"])
        with tr.span("analysis.autocorrelation"):
            auto = autocorrelation(bits, cmd["max_lag"])
        with tr.span("analysis.power_spectrum"):
            spec = power_spectrum(bits)
    # The lines cmd_analyze prints for a generated, non-degenerate stream.
    n = len(bits)
    bound = 4.0 / (n ** 0.5)
    tail = [v for v in auto.values[1:] if abs(v) > bound]
    rel = abs(spec.spectral_energy - spec.time_energy) / spec.time_energy
    lines = [
        f"length: {n}",
        f"autocorrelation: lag0={auto.values[0]:.6f}" + (" (degenerate input)" if auto.degenerate else ""),
        f"autocorrelation: {len(tail)} of {cmd['max_lag']} lags exceed 4/sqrt(n)={bound:.6g}",
        f"spectrum: flatness={spec.flatness:.6g} parseval_rel_err={rel:.3g}",
    ]
    return {"stdout": "".join(line + "\n" for line in lines), "bits_sha256": bits_digest(bits)}


def replay_cycle(tr, cmd):
    with tr.span("cli.cycle"), tr.span("analysis.detect_cycle"):
        result = detect_cycle(config(cmd["scheme"], cmd["t"]), budget=cmd["budget"])
    if isinstance(result, BudgetExceeded):
        return {"budget_exceeded": True, "steps": result.steps_executed}
    return {"budget_exceeded": False, "transient": result.transient_length, "period": result.cycle_period}


REPLAY = {"gen": replay_gen, "test": replay_test, "analyze": replay_analyze, "cycle": replay_cycle}


def main():
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="ascii") as fh:
        commands = json.load(fh)
    tr = Tracer()
    t0 = time.perf_counter()
    outputs = [REPLAY[cmd["kind"]](tr, cmd) for cmd in commands]
    replay_s = time.perf_counter() - t0
    spans = [[name, parent, start - t0, end - t0] for name, parent, start, end in tr.spans]
    result = {
        "import_s": t_import,
        "replay_s": replay_s,
        "outputs": outputs,
        "spans": spans,
        "package": chaosbits.__file__,
    }
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
