"""Independent pure-Python model of the chaosbits generator, written from the
README specification only (it imports nothing from the package):

- seed.t=T gives y0 = T / 10**digits(T) and the cell vector T mod 2**N,
  component 1 as the most significant bit; block 0 is that vector;
- each driven block draws its gap from y (equal-width partition of [0, 1)
  over the sorted gap set), steps y <- 4y(1-y) in binary64, then m times
  negates cell S = floor(1e7*y) mod N + 1 and steps y again;
- output bits are the blocks' cells in order, packed MSB-first for raw
  output, written as '0'/'1' characters for ASCII output;
- an orbit that reaches a fixed point of the map is degenerate and refused.

The benchmark derives expected outputs and exact work counts from it, so the
program under test can change its internals freely.
"""

from __future__ import annotations

from array import array


class DegenerateSeed(Exception):
    """The orbit reached a fixed point of the map, where the program stops."""


def check_alive(y: float, t: int) -> None:
    # Once on a fixed point an orbit stays there, so checking after each
    # block finds every orbit that goes dead inside that block or earlier.
    if 4.0 * y * (1.0 - y) == y:
        raise DegenerateSeed(f"seed.t={t} reaches the fixed point y={y!r}")


def stream(n_cells: int, m_set: tuple[int, ...], t: int, count: int):
    """First ``count`` output bits of seed ``t`` as a '0'/'1' string, plus the
    work counts (driven blocks, cell steps, logistic samples) they took."""
    y = t / 10 ** len(str(t))
    mask = t % (1 << n_cells)
    k, fmt = len(m_set), f"0{n_cells}b"
    blocks = [format(mask, fmt)]
    steps = 0
    while len(blocks) * n_cells < count:
        m = m_set[min(int(y * k), k - 1)]
        y = 4.0 * y * (1.0 - y)
        for _ in range(m):
            mask ^= 1 << (n_cells - 1 - int(1e7 * y) % n_cells)
            y = 4.0 * y * (1.0 - y)
        check_alive(y, t)
        steps += m
        blocks.append(format(mask, fmt))
    driven = len(blocks) - 1
    return "".join(blocks)[:count], {"blocks": driven, "steps": steps, "samples": driven + steps}


def orbit(m_set: tuple[int, ...], t: int, nblocks: int) -> array:
    """Every logistic sample y_0 .. y_S that ``nblocks`` driven blocks read or
    leave as the next sample.  The generator's state after block j is its cell
    vector plus one of these samples, so if they are pairwise distinct no
    state repeats within ``nblocks`` blocks."""
    y = t / 10 ** len(str(t))
    k = len(m_set)
    ys = array("d", [y])
    for _ in range(nblocks):
        for _ in range(1 + m_set[min(int(y * k), k - 1)]):
            y = 4.0 * y * (1.0 - y)
            ys.append(y)
        check_alive(y, t)
    return ys


def raw_bytes(bits: str) -> bytes:
    """MSB-first packing; a partial last byte is zero-padded in its low bits."""
    nbytes = (len(bits) + 7) // 8
    return int(bits.ljust(8 * nbytes, "0"), 2).to_bytes(nbytes, "big")


def ascii_bytes(bits: str, wrap: int) -> bytes:
    """'0'/'1' text in lines of ``wrap`` characters, each newline-terminated."""
    return "".join(bits[i : i + wrap] + "\n" for i in range(0, len(bits), wrap)).encode("ascii")
