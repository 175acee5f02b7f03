"""Chaotic-iterations pseudo-random bit generator driven by the logistic map.

The generator iterates a Boolean vector of ``n_cells`` components.  At
each internal step exactly one component, selected by a strategy value
in ``[1, n_cells]``, is negated; all other components are left alone.
After m such steps (the return gap, drawn from a finite alphabet) the
whole vector is emitted as the next block of output bits, component 1
first.

Both the strategy values and the return gaps derive from one shared
logistic orbit y -> 4*y*(1-y), evaluated in IEEE-754 binary64 with
round-to-nearest.  Each gap decision consumes exactly one sample of the
orbit and each cell update consumes one further sample, in that order
within a block.  The driver state stored between calls is always the
next unconsumed sample, which pins down the consumption schedule: with
seed y^0, the first driven block takes its gap from y^0 and its m
strategy values from y^1 ... y^m, and the following block's gap comes
from y^(m+1).

Passing a `TranscriptDriver` as ``driver=`` replaces the logistic
orbit with explicit gap/strategy transcripts, which makes short traces
exactly reproducible.  The module-level helpers (`logistic_step`,
`strategy_from_y`, `m_from_y`, `chaotic_step`) produce no output; they
are the per-sample reference the generator's block loop is tested
against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _blockloop

__all__ = [
    "DegenerateSeedError",
    "TranscriptExhausted",
    "logistic_step",
    "strategy_from_y",
    "m_from_y",
    "chaotic_step",
    "seed_from_time",
    "SeedSpec",
    "GeneratorConfig",
    "GeneratorState",
    "TranscriptDriver",
    "ChaoticBitGenerator",
    "generate_bits",
    "pack_bits",
    "bits_to_ascii",
    "parse_ascii_bits",
    "SCHEMES",
    "config_to_text",
    "config_from_entries",
    "config_from_text",
    "transcript_from_text",
]


class DegenerateSeedError(Exception):
    """The logistic driver was seeded on, or reached, a fixed point.

    A fixed point makes every further sample identical, so the output
    would degenerate into a constant stream; re-seed with a different
    value.
    """


def _dead(y: float) -> DegenerateSeedError:
    return DegenerateSeedError(f"logistic driver reached fixed point y={y!r}; the seed is dead")


class TranscriptExhausted(Exception):
    """A non-cycling forced transcript ran out of values."""


def require_int(value, name: str, minimum: int) -> int:
    """Return value as an int if it is an integer >= minimum (numpy's too, a bool not), else raise ValueError."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__") or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return operator.index(value)


def require_bits(bits) -> np.ndarray:
    """Return bits as a one-dimensional uint8 array of 0s and 1s, else raise ValueError.

    A uint8 array comes back as itself, not a copy, so callers must not
    write into the result.
    """
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("bit sequence must be one-dimensional")
    if arr.size and np.any((arr != 0) & (arr != 1)):
        raise ValueError("bit sequence must contain only 0s and 1s")
    return arr.astype(np.uint8, copy=False)


# Seeds that collapse onto a logistic fixed point within two steps.
_DEAD_SEEDS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _check_y0(y0: float) -> float:
    y0 = float(y0)
    if not 0.0 < y0 < 1.0:
        raise DegenerateSeedError(
            f"y0={y0!r} lies outside the open interval (0,1); re-seed"
        )
    if y0 in _DEAD_SEEDS:
        raise DegenerateSeedError(
            f"y0={y0!r} collapses onto a logistic fixed point; re-seed"
        )
    return y0


def logistic_step(y: float) -> float:
    """One step of the logistic map, 4*y*(1-y), in binary64.

    The interval [0,1] is closed under the map, so no range error can
    occur on valid input.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"logistic_step: y={y!r} outside [0,1]")
    return 4.0 * y * (1.0 - y)


def strategy_from_y(y: float, n_cells: int) -> int:
    """Strategy value floor(1e7*y) mod n_cells + 1, in [1, n_cells].

    The floor is taken directly on the binary64 product, with no
    decimal rounding, so results are bit-exact across platforms.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"strategy_from_y: y={y!r} outside [0,1]")
    if n_cells < 2:
        raise ValueError(f"strategy_from_y: n_cells must be >= 2, got {n_cells}")
    return int(1e7 * y) % n_cells + 1


def m_from_y(y: float, m_set: Sequence[int]) -> int:
    """Return gap drawn from a sorted alphabet by equal-width partition.

    [0,1) is split into len(m_set) equal intervals; the interval that y
    falls in indexes the sorted alphabet (y=1.0 maps to the last
    element).  For a two-element alphabet this is exactly the rule
    "first element if y < 0.5, second if y >= 0.5"; a singleton
    alphabet gives a constant gap.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"m_from_y: y={y!r} outside [0,1]")
    k = len(m_set)
    if k == 0:
        raise ValueError("m_from_y: empty gap alphabet")
    i = int(y * k)
    if i >= k:
        i = k - 1
    return m_set[i]


def chaotic_step(x: Sequence[int], s: int) -> tuple[int, ...]:
    """Negate component s (1-based) of x; every other component is kept.

    Applying the same step twice is the identity.
    """
    x = tuple(x)
    n = len(x)
    if not 1 <= s <= n:
        raise ValueError(f"chaotic_step: strategy {s} out of range for {n} cells")
    return x[: s - 1] + (1 - x[s - 1],) + x[s:]


def seed_from_time(t: int, n_cells: int) -> tuple[tuple[int, ...], float]:
    """Derive an (x0, y0) seed pair from a non-negative integer time value.

    y0 is t read as a decimal fraction: t / 10**d with d the number of
    decimal digits of t (t=484076 gives 0.484076).  x0 is the
    big-endian n_cells-bit expansion of t mod 2**n_cells, most
    significant bit in component 1.  Degenerate y0 values are rejected
    with an error instructing a re-seed.
    """
    t = require_int(t, "seed_from_time: t", 0)
    if n_cells < 2:
        raise ValueError(f"seed_from_time: n_cells must be >= 2, got {n_cells}")
    y0 = t / 10 ** len(str(t))
    y0 = _check_y0(y0)
    r = t % (1 << n_cells)
    x0 = tuple((r >> (n_cells - 1 - i)) & 1 for i in range(n_cells))
    return x0, y0


def _validate_x0(x0: Iterable[int]) -> tuple[int, ...]:
    bits = tuple(int(b) for b in x0)
    if not bits:
        raise ValueError("x0 must be a non-empty bit vector")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("x0 components must be 0 or 1")
    return bits


@dataclass(frozen=True)
class SeedSpec:
    """Seed material: either time-derived (t) or explicit (x0, y0).

    Exactly one of the two forms must be populated.  Explicit y0 must
    lie strictly inside (0,1) and off the degenerate values
    {0.25, 0.5, 0.75}, which collapse the logistic orbit.
    """

    t: int | None = None
    x0: tuple[int, ...] | None = None
    y0: float | None = None

    def __post_init__(self) -> None:
        time_form = self.t is not None
        explicit_form = self.x0 is not None or self.y0 is not None
        if time_form and explicit_form:
            raise ValueError("SeedSpec: give either t or (x0, y0), not both")
        if time_form:
            object.__setattr__(self, "t", require_int(self.t, "SeedSpec: t", 0))
        else:
            if self.x0 is None or self.y0 is None:
                raise ValueError("SeedSpec: give t, or both x0 and y0")
            object.__setattr__(self, "x0", _validate_x0(self.x0))
            object.__setattr__(self, "y0", _check_y0(self.y0))

    @classmethod
    def from_time(cls, t: int) -> "SeedSpec":
        return cls(t=t)

    @classmethod
    def explicit(cls, x0: Iterable[int], y0: float) -> "SeedSpec":
        return cls(x0=tuple(x0), y0=y0)

    def resolve(self, n_cells: int) -> tuple[tuple[int, ...], float]:
        """Concrete (x0, y0) for a system of n_cells components."""
        if self.t is not None:
            return seed_from_time(self.t, n_cells)
        if len(self.x0) != n_cells:
            raise ValueError(
                f"SeedSpec: x0 has {len(self.x0)} components, expected {n_cells}"
            )
        return self.x0, self.y0


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of one generator instance.

    n_cells is the system size (at least 2).  m_set is the return-gap
    alphabet: positive integers, no duplicates, stored sorted
    ascending.  emit_initial controls whether block 0 is the seed
    vector itself (the default) or the first driven block.
    """

    n_cells: int
    m_set: tuple[int, ...]
    seed: SeedSpec
    emit_initial: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_cells", require_int(self.n_cells, "GeneratorConfig: n_cells", 2))
        m = tuple(int(v) for v in self.m_set)
        if not m:
            raise ValueError("GeneratorConfig: m_set must be non-empty")
        if any(v < 1 for v in m):
            raise ValueError("GeneratorConfig: m_set elements must be >= 1")
        if len(set(m)) != len(m):
            raise ValueError("GeneratorConfig: m_set must not contain duplicates")
        object.__setattr__(self, "m_set", tuple(sorted(m)))
        if not isinstance(self.seed, SeedSpec):
            raise ValueError("GeneratorConfig: seed must be a SeedSpec")
        object.__setattr__(self, "emit_initial", bool(self.emit_initial))


@dataclass
class GeneratorState:
    """Snapshot of the evolving state.

    y is the next unconsumed logistic sample (NaN under a forced
    transcript driver, which has no logistic state).  iter_count is the
    total number of cell updates performed so far.  blocks_emitted counts
    the blocks made so far, read or still buffered; the seed block, when
    emit_initial is set, counts from construction.
    """

    x: tuple[int, ...]
    y: float
    iter_count: int
    blocks_emitted: int


class TranscriptDriver:
    """Replays explicit gap and strategy sequences (two separate streams).

    Gap values are used verbatim; the configured alphabet is not
    consulted in forced mode.  Strategy values are validated against
    the cell count at the moment they are drawn.  With cycle=True both
    sequences repeat forever, otherwise running past the end raises
    TranscriptExhausted.
    """

    def __init__(self, m_seq: Iterable[int], s_seq: Iterable[int], cycle: bool = False) -> None:
        m = tuple(int(v) for v in m_seq)
        s = tuple(int(v) for v in s_seq)
        if not m or not s:
            raise ValueError("TranscriptDriver: both sequences must be non-empty")
        if any(v < 1 for v in m) or any(v < 1 for v in s):
            raise ValueError("TranscriptDriver: transcript values must be >= 1")
        self.m_seq = m
        self.s_seq = s
        self.cycle = bool(cycle)
        self._gi = 0
        self._si = 0

    def next_gap(self) -> int:
        if not self.cycle and self._gi >= len(self.m_seq):
            raise TranscriptExhausted("gap transcript exhausted")
        v = self.m_seq[self._gi % len(self.m_seq)]
        self._gi += 1
        return v

    def next_strategy(self, n_cells: int) -> int:
        if not self.cycle and self._si >= len(self.s_seq):
            raise TranscriptExhausted("strategy transcript exhausted")
        v = self.s_seq[self._si % len(self.s_seq)]
        self._si += 1
        if not 1 <= v <= n_cells:
            raise ValueError(
                f"TranscriptDriver: strategy {v} out of range for {n_cells} cells"
            )
        return v

    def key(self) -> tuple:
        if self.cycle:
            return (
                "transcript",
                self._gi % len(self.m_seq),
                self._si % len(self.s_seq),
            )
        return ("transcript", self._gi, self._si)


# Bits a chunks() piece reads at a time (before rounding to whole
# steps), so reading a long stream takes memory that does not grow with
# its length.  At 2^16 bits the per-piece buffers (the packed stream,
# the bits, the rendered output) fit in L2 and stay under glibc's
# default 128 KiB mmap threshold, so malloc serves them from the heap
# and each piece reuses the pages the previous one freed instead of
# faulting in fresh ones: 1e8 ASCII bits fault no more pages than 1e6.
CHUNK_BITS = 1 << 16


# The stop key of an _advance call without one: no state equals it, as
# a logistic y is never NaN, a transcript key is a tuple, and NaN
# compares unequal to everything (also in C, built without -ffast-math).
_NO_KEY = (0, math.nan)


class ChaoticBitGenerator:
    """Sequential block/bit emitter: one logistic orbit driving cell updates.

    The generator holds the logistic state itself.  ``driver`` is
    either None (the logistic orbit seeded from ``config.seed``) or a
    `TranscriptDriver`, which replaces the orbit with explicit gap and
    strategy sequences.

    Instances are plain sequential state machines: no internal
    concurrency, safe to move between threads between calls.  Distinct
    instances are fully independent.
    """

    def __init__(self, config: GeneratorConfig, driver: TranscriptDriver | None = None) -> None:
        if not isinstance(config, GeneratorConfig):
            raise TypeError("config must be a GeneratorConfig")
        self.config = config
        n = config.n_cells
        x0, y0 = config.seed.resolve(n)
        self._transcript = driver
        # The next unconsumed logistic sample; a transcript has none.
        self._y = y0 if driver is None else math.nan
        self._n = n
        self._mask = int((np.array(x0, dtype=np.uint8) + ord("0")).tobytes(), 2)
        self._iter_count = 0
        # The stream's unread part: the whole bytes of _tail from bit _skip
        # of the first, then the _nacc < 8 bits of _acc, which the block
        # loop completes into the next byte.  The seed block, when emitted,
        # is its first block.
        self._blocks_emitted = int(config.emit_initial)
        self._nacc = n % 8 if config.emit_initial else 0
        self._acc = self._mask & ((1 << self._nacc) - 1)
        seed_bytes = (self._mask >> self._nacc).to_bytes(n // 8, "big") if config.emit_initial else b""
        self._tail = np.frombuffer(bytearray(seed_bytes), dtype=np.uint8)
        self._skip = 0
        # The inner-loop range of each gap, built here because
        # detect_cycle runs the block loop one block per call.
        self._gap_ranges = [range(m) for m in config.m_set]
        # The compiled block loop covers the logistic driver with masks
        # of one uint64 and gaps of one int64.
        self._kernel = None
        if driver is None and n <= 64 and config.m_set[-1] < 1 << 63:
            self._kernel = _blockloop.load()
            self._gaps = np.array(config.m_set, dtype=np.int64)
            self._kernel_state = _blockloop.KernelState(
                n=n, k=self._gaps.size, gaps=self._gaps.ctypes.data
            )

    # -- state inspection ---------------------------------------------

    def _mask_tuple(self, mask: int) -> tuple[int, ...]:
        n = self._n
        return tuple((mask >> (n - 1 - i)) & 1 for i in range(n))

    @property
    def state(self) -> GeneratorState:
        return GeneratorState(
            x=self._mask_tuple(self._mask),
            y=self._y,
            iter_count=self._iter_count,
            blocks_emitted=self._blocks_emitted,
        )

    @property
    def backend(self) -> str:
        """Which block loop runs this generator: "c" or "python".

        The compiled loop (see chaosbits._blockloop) runs the logistic
        driver for n_cells <= 64 whenever gcc can build it; transcripts,
        wider states and hosts without gcc run the Python loop.  Both
        produce the same bits and the same state.
        """
        return "python" if self._kernel is None else "c"

    def state_key(self) -> tuple:
        """Hashable full digital state: cell mask plus driver state.

        The driver state is the logistic y, or the transcript's key when
        a transcript drives the generator.  Excludes emission
        bookkeeping; two generators with equal keys and equal buffered
        bits produce identical bits() streams.
        """
        if self._transcript is None:
            return (self._mask, self._y)
        return (self._mask, self._transcript.key())

    # -- block production ---------------------------------------------

    def _advance(self, nblocks: int, out: np.ndarray | None = None, key: tuple | None = None) -> int:
        """Run up to nblocks driven blocks and return how many completed.

        The block loop: the only code that turns driver samples into
        cell masks.  The compiled loop (``chaosbits_advance`` in
        _blockloop.c) runs in place of the Python body when the
        generator has one (see ``backend``); the Python body is its
        reference.  Without a transcript it runs the logistic recurrence
        inline on z = 4y, with arithmetic whose every result equals
        logistic_step's, m_from_y's and strategy_from_y's on y (see
        _blockloop.c for why), and chaotic_step's.  out, when given, is a
        C-contiguous uint8 array with room for (_nacc + nblocks*n_cells)//8
        bytes; both loops append each emitted mask to the packed stream,
        writing every byte they complete to out from its start and
        leaving the bits past the last one in _acc.  The loop stops after
        the first block whose state_key() equals key; key None stands for
        _NO_KEY, which no state equals.  On an error mid-block (a
        degenerate orbit, an exhausted transcript or an out-of-range
        strategy) the generator is left in the state reached at the
        failure point, the stream holds the blocks completed before it
        (as many as blocks_emitted grew by), and the error propagates; a
        failing logistic sample is never consumed.
        """
        key_mask, key_driver = _NO_KEY if key is None else key
        if self._kernel is not None:
            st = self._kernel_state
            st.y = self._y
            st.mask = self._mask
            st.key_mask = key_mask
            st.key_y = key_driver
            st.acc = self._acc
            st.nacc = self._nacc
            done = self._kernel(st, nblocks, None if out is None else out.ctypes.data)
            self._y = st.y
            self._mask = st.mask
            self._acc = st.acc
            self._nacc = st.nacc
            self._iter_count += st.iters
            self._blocks_emitted += done
            if st.dead:
                raise _dead(st.y)
            return done
        transcript = self._transcript
        n = self._n
        top = 1 << (n - 1)
        # The bytes completed so far, copied into out at the end: cheaper than a store per block.
        stream = bytearray()
        acc = self._acc
        nacc = self._nacc
        z = 4.0 * self._y
        mask = self._mask
        iters = 0
        done = 0
        gap_ranges = self._gap_ranges
        k = len(gap_ranges)
        quarter_k = 0.25 * k
        try:
            for _ in range(nblocks):
                if transcript is None:
                    i = int(z * quarter_k)
                    gap = gap_ranges[i if i < k else k - 1]
                    nxt = z * (4.0 - z)
                    if nxt == z:
                        raise _dead(0.25 * z)
                    z = nxt
                    for j in gap:
                        r = int(2.5e6 * z) % n
                        nxt = z * (4.0 - z)
                        if nxt == z:
                            iters += j
                            raise _dead(0.25 * z)
                        z = nxt
                        mask ^= top >> r
                    iters += len(gap)
                else:
                    for _ in range(transcript.next_gap()):
                        mask ^= 1 << (n - transcript.next_strategy(n))
                        iters += 1
                if out is not None:
                    acc = acc << n | mask
                    nacc += n
                    if nacc > 63:
                        stream += (acc >> (nacc & 7)).to_bytes(nacc >> 3, "big")
                        nacc &= 7
                        acc &= (1 << nacc) - 1
                done += 1
                if mask == key_mask and (0.25 * z if transcript is None else transcript.key()) == key_driver:
                    break
        finally:
            self._y = 0.25 * z
            self._mask = mask
            self._iter_count += iters
            self._blocks_emitted += done
            stream += (acc >> (nacc & 7)).to_bytes(nacc >> 3, "big")
            self._nacc = nacc & 7
            self._acc = acc & ((1 << self._nacc) - 1)
            if out is not None:
                out[: len(stream)] = np.frombuffer(stream, dtype=np.uint8)
        return done

    def next_block(self) -> tuple[int, ...]:
        """The next block, components in order 1..n_cells.

        This is the next n_cells bits of the bits() stream, so calls to
        the two interleave into one stream.  When emit_initial is set,
        the first block is the seed vector itself, buffered from
        construction, and consumes no driver samples.  While bits()
        holds part of a block, the next n_cells bits would straddle two
        blocks, and ValueError is raised.
        """
        if (8 * self._tail.size + self._nacc - self._skip) % self._n:
            raise ValueError("next_block: bits() holds part of a block; read the rest with bits() first")
        return tuple(self.bits(self._n).tolist())

    def _read(self, count: int) -> tuple[np.ndarray, int]:
        """Take the next count bits of the stream, as bits skip ..
        skip+count-1 (MSB first) of buf; returns (buf, skip).

        A call runs only the blocks the buffer lacks and keeps what it
        does not hand out.  If the driver fails, the bytes of the
        completed blocks stay buffered for the next call and the error
        propagates, so the stream has no hole.
        """
        n, tail, skip = self._n, self._tail, self._skip
        end = skip + count
        whole = tail.size
        buf = tail
        if end > 8 * whole:
            # The bytes the blocks complete, then a slot for the partial byte.
            nblocks = max(-(-(end - 8 * whole - self._nacc) // n), 0)
            made = whole + (self._nacc + nblocks * n) // 8
            buf = np.empty(made + 1, dtype=np.uint8)
            if whole:
                buf[:whole] = tail
            if nblocks:
                first, nacc = self._blocks_emitted, self._nacc
                try:
                    self._advance(nblocks, buf[whole:])
                except BaseException:
                    self._tail = buf[: whole + (nacc + (self._blocks_emitted - first) * n) // 8]
                    raise
            whole = made
            buf[whole] = self._acc << (8 - self._nacc)
        self._tail = buf[end // 8 : whole]
        self._skip = end % 8
        return buf, skip

    def bits(self, count: int) -> np.ndarray:
        """The next ``count`` output bits as a numpy uint8 array.

        Bit k of a fresh generator equals component (k mod n_cells)+1
        of block floor(k / n_cells); successive calls continue the
        stream.  A call runs only the blocks its bits lack and unpacks
        them from the packed stream into a fresh array.  If the driver
        fails, the completed blocks stay buffered for the next call and
        the error propagates, so the stream has no hole.
        """
        count = require_int(count, "bits: count", 0)
        buf, skip = self._read(count)
        return np.unpackbits(buf, count=skip + count)[skip:]

    def _packed(self, count: int) -> np.ndarray:
        """The next count bits packed as np.packbits packs them, first bit
        in the high bit and the last byte zero-padded."""
        buf, skip = self._read(count)
        if skip:
            return np.packbits(np.unpackbits(buf, count=skip + count)[skip:])
        piece = buf[: -(-count // 8)]
        if count % 8:
            # The byte's low bits are the stream's next bits; pad a copy.
            piece = piece.copy()
            piece[-1] &= 0xFF << (8 - count % 8) & 0xFF
        return piece

    def chunks(self, count: int, step: int = 1, *, packed: bool = False) -> Iterator[np.ndarray]:
        """The next ``count`` bits as consecutive bits() results, in bounded pieces.

        Each piece holds about CHUNK_BITS bits, a whole number of
        ``step`` bits (a line of text, a byte), so it can be rendered
        alone; a step longer than CHUNK_BITS makes a piece of one step,
        and only the last piece may be shorter.  With packed, each piece
        comes as np.packbits would pack it: a whole-byte piece is the
        block loop's bytes as written, with no unpacking.  The pieces
        are read as the iterator is advanced: when the driver fails, the
        pieces already yielded stand and the error propagates, as from
        bits().
        """
        count = require_int(count, "chunks: count", 0)
        step = require_int(step, "chunks: step", 1)
        piece = max(CHUNK_BITS // step, 1) * step
        read = self._packed if packed else self.bits
        return (read(min(piece, count - start)) for start in range(0, count, piece))


def generate_bits(config: GeneratorConfig, count: int, *, driver=None) -> np.ndarray:
    """First ``count`` bits of a fresh generator built from config.

    Deterministic: identical config (and driver, if forced) always
    yields an identical sequence.
    """
    return ChaoticBitGenerator(config, driver=driver).bits(count)


def pack_bits(bits: Sequence[int]) -> bytes:
    """Pack bits into bytes, first bit in the most significant position.

    The final partial byte, if any, is zero-padded in the low bits.
    """
    return np.packbits(require_bits(bits)).tobytes()


def bits_to_ascii(bits: Sequence[int], wrap: int = 0) -> str:
    """Render bits as '0'/'1' characters, optionally wrapped.

    Every truthy bit renders as '1'.  With wrap > 0 the text is split
    into newline-terminated lines of at most ``wrap`` characters; with
    wrap <= 0 a single bare string is returned.  ``bits`` must be a
    sequence or an array; any other value (an iterator, a scalar)
    raises TypeError.
    """
    arr = np.asarray(bits)
    if arr.ndim == 0:
        raise TypeError(
            f"bits_to_ascii: bits must be a sequence or array, not {type(bits).__name__}"
        )
    return _ascii_codes(arr.ravel(), wrap).tobytes().decode("ascii")


def _ascii_codes(bits: np.ndarray, wrap: int) -> np.ndarray:
    """The text bits_to_ascii renders from a one-dimensional bits, as uint8 character codes."""
    if not wrap or wrap < 0:
        return np.add(bits != 0, ord("0"), dtype=np.uint8)
    full = bits.size // wrap
    # The full lines are the rows of one (lines, wrap + 1) array, filled in
    # place; a partial last line follows them.
    out = np.empty(bits.size + -(-bits.size // wrap), dtype=np.uint8)
    lines = out[: full * (wrap + 1)].reshape(full, wrap + 1)
    np.not_equal(bits[: full * wrap].reshape(full, wrap), 0, out=lines[:, :wrap].view(np.bool_))
    np.not_equal(bits[full * wrap :], 0, out=out[full * (wrap + 1) : -1].view(np.bool_))
    out += ord("0")
    lines[:, wrap] = ord("\n")
    out[-1:] = ord("\n")
    return out


def parse_ascii_bits(text: str) -> np.ndarray:
    """Parse '0'/'1' text (whitespace ignored) into a uint8 bit array."""
    digits = "".join(text.split())
    invalid = digits.translate(_DROP_BITS)
    if invalid:
        raise ValueError(f"parse_ascii_bits: invalid character {invalid[0]!r}")
    return np.frombuffer(digits.encode("ascii"), dtype=np.uint8) - ord("0")


_DROP_BITS = str.maketrans("", "", "01")


# Named schemes: (n_cells, m_set).
SCHEMES: dict[str, tuple[int, tuple[int, ...]]] = {
    "scheme-1": (8, (1,)),
    "scheme-2": (8, (8,)),
    "scheme-3": (8, (1, 2, 3, 4, 5, 6, 7, 8)),
    "scheme-4": (5, (4, 5)),
    "scheme-5": (5, (9, 10)),
    "scheme-6": (5, (14, 15)),
}


def parse_bit_vector(text: str, name: str) -> tuple[int, ...]:
    """Parse a non-empty bit string such as 10100; name labels the error."""
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"bad {name} {text!r}; expected a bit string like 10100")
    return tuple(int(c) for c in text)


def parse_int_list(text: str, name: str) -> tuple[int, ...]:
    """Parse comma-separated integers such as 14,15; name labels the error."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"bad {name} {text!r}; expected comma-separated integers") from None


def _parse_number(entries: dict[str, str], key: str, kind: type):
    """entries[key] converted by kind (int or float), or None when key is absent."""
    text = entries.get(key)
    if text is None:
        return None
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ValueError(f"bad {key} {text!r}; expected {expected}") from None


def _key_value_lines(text: str, what: str) -> Iterator[tuple[str, str]]:
    """(key, value) of each key=value line; blank lines and '#' comments are skipped."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{what}: expected key=value, got {line!r}")
        yield key.strip(), value.strip()


def config_to_text(config: GeneratorConfig) -> str:
    """Serialize a config as plain key=value lines."""
    lines = [
        f"n_cells={config.n_cells}",
        "m_set=" + ",".join(str(m) for m in config.m_set),
    ]
    if config.seed.t is not None:
        lines.append(f"seed.t={config.seed.t}")
    else:
        lines.append("seed.x0=" + "".join(str(b) for b in config.seed.x0))
        lines.append(f"seed.y0={config.seed.y0!r}")
    lines.append(f"emit_initial={'true' if config.emit_initial else 'false'}")
    return "".join(line + "\n" for line in lines)


_CONFIG_KEYS = {"n_cells", "m_set", "seed.t", "seed.x0", "seed.y0", "emit_initial"}


def config_from_entries(pairs: Iterable[tuple[str, str]]) -> GeneratorConfig:
    """Build a config from (key, value) text pairs with the keys config_to_text writes.

    Each key may be given once; n_cells and m_set are required.  The
    seed is seed.t, or seed.x0 with seed.y0, as SeedSpec enforces.
    emit_initial is true or false and defaults to true.  y0 is parsed
    as a binary64 decimal literal, so a serialized config round-trips
    bit-exactly.
    """
    entries: dict[str, str] = {}
    for key, value in pairs:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config: unknown key {key!r}")
        if key in entries:
            raise ValueError(f"config: {key} given twice")
        entries[key] = value
    for required in ("n_cells", "m_set"):
        if required not in entries:
            raise ValueError(f"config: missing required key {required!r}")
    emit_initial = entries.get("emit_initial", "true").lower()
    if emit_initial not in ("true", "false"):
        raise ValueError(f"config: emit_initial must be true or false, got {emit_initial!r}")
    x0 = entries.get("seed.x0")
    seed = SeedSpec(
        t=_parse_number(entries, "seed.t", int),
        x0=None if x0 is None else parse_bit_vector(x0, "seed.x0"),
        y0=_parse_number(entries, "seed.y0", float),
    )
    n_cells = _parse_number(entries, "n_cells", int)
    m_set = parse_int_list(entries["m_set"], "m_set")
    return GeneratorConfig(n_cells, m_set, seed, emit_initial=emit_initial == "true")


def config_from_text(text: str) -> GeneratorConfig:
    """Parse the key=value lines config_to_text writes, as config_from_entries does.

    Blank lines and lines starting with '#' are ignored.
    """
    return config_from_entries(_key_value_lines(text, "config"))


def transcript_from_text(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parse a forced transcript: lines ``m=4,5,4`` and ``s=2,4,2,...``.

    Blank lines and '#' comments are ignored; both lines are required,
    and each may be given once.
    """
    seqs: dict[str, tuple[int, ...]] = {}
    for key, value in _key_value_lines(text, "transcript"):
        key = key.lower()
        if key not in ("m", "s"):
            raise ValueError(f"transcript: expected m=... or s=..., got key {key!r}")
        if key in seqs:
            raise ValueError(f"transcript: {key} given twice")
        seqs[key] = parse_int_list(value, f"transcript {key}=")
    if len(seqs) < 2:
        raise ValueError("transcript: both an m= line and an s= line are required")
    return seqs["m"], seqs["s"]
