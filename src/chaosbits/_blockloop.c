/* The logistic branch of ChaoticBitGenerator._advance, compiled.
 *
 * Both block loops carry z = 4y, the orbit scaled by 4, so that a step is
 * one subtract and one multiply, z*(4-z), where 4*y*(1-y) chains a multiply
 * after a multiply and a subtract.  Scaling by 4 is exact in binary64 and
 * changes no rounding away from overflow and the subnormals.  A live y is
 * exactly 0 or at least ~4.4e-16, and a step from a subnormal seed
 * multiplies 4y by fl(1-y) = 1, which is exact.  So every sample, strategy
 * and gap is the y form's:
 *   - step:     fl(4-z) = 4*fl(1-y), so fl(z*fl(4-z)) = 4*fl(4y*fl(1-y));
 *   - strategy: 2.5e6*z and 1e7*y are one real number, so one rounding;
 *               it is at most 1e7, so its truncation and % n fit uint32_t;
 *   - gap:      z*(0.25*k) and y*k likewise (0.25*k is exact);
 *   - fixed point: z' == z exactly when y' == y;
 *   - state:    y = 0.25*z between calls, and the key stop compares it.
 * For y in [0,1] the casts truncate exactly as Python's int() does.  Built
 * with -ffp-contract=off: a fused multiply-add rounds once where Python
 * rounds twice, which would change the orbit.
 *
 * Cell masks are uint64_t, so 2 <= n <= 64; cell s (1-based) is bit n-s.
 * The emitted masks leave as one MSB-first packed bit stream, block after
 * block with no padding: out receives each whole byte, and the state
 * carries the nacc < 8 bits past the last one to the next call.
 */

#include <stdint.h>

typedef struct {
    double y;            /* the next unconsumed logistic sample */
    uint64_t mask;       /* the cell vector, cell 1 in the high bit */
    uint64_t acc;        /* the stream's nacc bits past its last whole */
    int64_t nacc;        /* byte; only a call with out uses them */
    int64_t iters;       /* out: cell updates performed by the call */
    int64_t dead;        /* out: 1 if the orbit reached a fixed point */
    int64_t n;           /* cells */
    int64_t k;           /* gap alphabet size */
    const int64_t *gaps; /* the gap alphabet, sorted ascending */
    uint64_t key_mask;   /* the state to stop at; a NaN key_y never matches */
    double key_y;
} chaosbits_state;

/* Append the low w <= 56 bits of v (which has no others) to the *nacc < 8
 * bits pending in *acc, writing each byte they complete to out. */
static inline uint8_t *put(uint8_t *out, uint64_t *acc, int64_t *nacc, uint64_t v, int64_t w)
{
    *acc = *acc << w | v;
    for (*nacc += w; *nacc >= 8; *nacc -= 8)
        *out++ = (uint8_t)(*acc >> (*nacc - 8));
    return out;
}

/* Run up to nblocks driven blocks from st, appending each emitted mask to
 * the stream unless out is NULL; out needs room for (nacc + nblocks*n)/8
 * bytes.  Stop after the first block whose state (mask, y) equals
 * (key_mask, key_y); without -ffast-math a NaN key_y compares unequal to
 * every y, so such a key never stops the loop.  Returns the blocks
 * completed.  On a fixed point, st is left at the failing sample (not
 * consumed) with the updates of the unfinished block applied, and dead is
 * set; the stream holds the completed blocks. */
int64_t chaosbits_advance(chaosbits_state *st, int64_t nblocks, uint8_t *out)
{
    const int64_t n = st->n, k = st->k, *gaps = st->gaps;
    const uint32_t cells = (uint32_t)n;
    const double quarter_k = 0.25 * (double)k;
    const uint64_t top = (uint64_t)1 << (n - 1), key_mask = st->key_mask;
    const double key_y = st->key_y;
    double z = 4.0 * st->y, nxt;
    uint64_t mask = st->mask, acc = st->acc;
    int64_t nacc = st->nacc, iters = 0, dead = 0, b, i, j, gap;

    for (b = 0; b < nblocks; b++) {
        i = (int64_t)(z * quarter_k);
        gap = gaps[i < k ? i : k - 1];
        nxt = z * (4.0 - z);
        if (nxt == z) {
            dead = 1;
            break;
        }
        z = nxt;
        for (j = 0; j < gap; j++) {
            uint32_t r = (uint32_t)(2.5e6 * z) % cells;
            nxt = z * (4.0 - z);
            if (nxt == z) {
                dead = 1;
                break;
            }
            z = nxt;
            mask ^= top >> r;
        }
        iters += j;
        if (dead)
            break;
        if (out && n > 56) {
            out = put(out, &acc, &nacc, mask >> 32, n - 32);
            out = put(out, &acc, &nacc, mask & 0xffffffffu, 32);
        } else if (out) {
            out = put(out, &acc, &nacc, mask, n);
        }
        if (mask == key_mask && 0.25 * z == key_y) {
            b++;
            break;
        }
    }
    st->y = 0.25 * z;
    st->mask = mask;
    st->acc = acc & (((uint64_t)1 << nacc) - 1);
    st->nacc = nacc;
    st->iters = iters;
    st->dead = dead;
    return b;
}
