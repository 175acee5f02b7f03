/* The logistic branch of ChaoticBitGenerator._advance, compiled.
 *
 * The same binary64 operations in the same order as the Python block loop:
 * the gap index (int64_t)(y*k), the step 4.0*y*(1.0-y), the strategy
 * (int64_t)(1e7*y) % n and the fixed-point check before each sample is
 * consumed.  For y in [0,1] the casts truncate exactly as Python's int()
 * does.  Built with -ffp-contract=off: a fused multiply-add rounds once
 * where Python rounds twice, which would change the orbit.
 *
 * Cell masks are uint64_t, so 2 <= n <= 64; cell s (1-based) is bit n-s.
 * Each emitted mask leaves as a row of its ceil(n/8) big-endian bytes.
 */

#include <stdint.h>

typedef struct {
    double y;            /* the next unconsumed logistic sample */
    uint64_t mask;       /* the cell vector, cell 1 in the high bit */
    int64_t iters;       /* out: cell updates performed by the call */
    int64_t dead;        /* out: 1 if the orbit reached a fixed point */
    int64_t n;           /* cells */
    int64_t k;           /* gap alphabet size */
    const int64_t *gaps; /* the gap alphabet, sorted ascending */
    uint64_t key_mask;   /* the state to stop at; a NaN key_y never matches */
    double key_y;
} chaosbits_state;

/* Run up to nblocks driven blocks from st, writing each emitted mask to
 * row b of out unless out is NULL.  Stop after the first block whose state
 * (mask, y) equals (key_mask, key_y); without -ffast-math a NaN key_y
 * compares unequal to every y, so such a key never stops the loop.
 * Returns the blocks completed.  On a fixed point, st is left at the
 * failing sample (not consumed) with the updates of the unfinished block
 * applied, and dead is set. */
int64_t chaosbits_advance(chaosbits_state *st, int64_t nblocks, uint8_t *out)
{
    const int64_t n = st->n, k = st->k, *gaps = st->gaps, nbytes = (n + 7) / 8;
    const uint64_t key_mask = st->key_mask;
    const double key_y = st->key_y;
    double y = st->y, nxt;
    uint64_t mask = st->mask;
    int64_t iters = 0, b, i, j, gap;

    st->dead = 0;
    for (b = 0; b < nblocks; b++) {
        i = (int64_t)(y * k);
        gap = gaps[i < k ? i : k - 1];
        nxt = 4.0 * y * (1.0 - y);
        if (nxt == y) {
            st->dead = 1;
            break;
        }
        y = nxt;
        for (j = 0; j < gap; j++) {
            int64_t r = (int64_t)(1e7 * y) % n;
            nxt = 4.0 * y * (1.0 - y);
            if (nxt == y) {
                st->dead = 1;
                break;
            }
            y = nxt;
            mask ^= (uint64_t)1 << (n - 1 - r);
        }
        iters += j;
        if (st->dead)
            break;
        for (i = 0; out && i < nbytes; i++)
            out[b * nbytes + i] = (uint8_t)(mask >> (8 * (nbytes - 1 - i)));
        if (mask == key_mask && y == key_y) {
            b++;
            break;
        }
    }
    st->y = y;
    st->mask = mask;
    st->iters = iters;
    return b;
}
