"""Pool-adjacent-violators kernel for nonincreasing isotonic regression.

PAVA may pool adjacent violators in any order and reach the same fit
(Best & Chakravarti 1990). The kernel uses that in two stages:

1. Rounds. Above `_SMALL` values, numpy passes pool every maximal chain
   of adjacent blocks whose means rise into one block, from block sums
   (`np.add.reduceat`) and block counts. Each pass costs a few numpy
   calls over the current blocks; on random data it removes about half
   of them, on a rising run all but one. The loop, at about 0.3 us per
   value in the interpreter, then has far fewer values to visit.
2. Loop. The stack loop of classic PAVA finishes the pooling on the
   (mean, count) blocks that remain. It runs in the interpreter on
   Python floats and ints, with the block stack on two Python lists,
   because reading and writing numpy scalars one at a time costs several
   times more. Merges are weighted, so every output block is the mean of
   its inputs.

At or below `_SMALL` values the loop runs alone, on `z.tolist()` with
unit counts, where a numpy call costs more than it saves.

A block mean of finite values is finite, but its block sum may overflow,
leaving the mean infinite or NaN. The kernel then pools again on the
values scaled by 2^-k, with 2^k above their count, so that no sum leaves
the float range, and scales the fit back by 2^k. Both scalings are exact
except that values below 2^(k - 1022) in magnitude lose low bits to
subnormal rounding on the way down. Every fit that the first pass gets
finite is returned as it is.
"""

from itertools import repeat
from math import inf, isfinite

import numpy as np

# Length above which the numpy rounds pay for their call overhead.
# Measured on a 2-core x86-64 VM (Python 3.11, numpy 2.4), standard-normal
# draws, rounds first against the loop alone: 1.31x the time at n = 64,
# 1.18x at 96, 0.94x at 128, 0.72x at 256 and 0.70x at 512.
_SMALL = 128


def _pool_rising_chains(z: np.ndarray) -> tuple[list, list]:
    """Block means and counts after the numpy rounds (len(z) > _SMALL)."""
    n = z.size
    sums = means = z
    starts = None  # index in z of each block's first value
    # a block sum that overflows (inf, or NaN once two of opposite sign
    # are pooled) is caught as a non-finite mean after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            k = means.size
            # a block whose mean is not above its left neighbour's opens a
            # new block; every other block joins the chain on its left
            head = np.empty(k, dtype=bool)
            head[0] = True
            np.greater_equal(means[:-1], means[1:], out=head[1:])
            heads = np.flatnonzero(head)
            sums = np.add.reduceat(sums, heads)
            starts = heads if starts is None else starts[heads]
            counts = np.diff(starts, append=n)
            means = sums / counts
            # Stop once a round removes less than a quarter of the blocks.
            # Every round before then leaves at most 3/4 of the blocks, so
            # the rounds visit at most n (1 + 3/4 + (3/4)^2 + ...) = 4n
            # values and the kernel stays O(n) on any input.
            if heads.size <= _SMALL or 4 * (k - heads.size) < k:
                break
    return means.tolist(), counts.tolist()


def pava_nonincreasing_kernel(z: np.ndarray) -> np.ndarray:
    """Projection of a 1-D finite float64 array onto {x_1 >= ... >= x_p}."""
    if z.size > _SMALL:
        blocks = zip(*_pool_rising_chains(z))
    else:
        blocks = zip(z.tolist(), repeat(1))
    # the +inf sentinel block at the bottom of the stack is never a violator
    means = [inf]
    counts = [0]
    for m2, c2 in blocks:
        m1 = means[-1]
        # adjacent violation for a nonincreasing fit: left mean < right mean
        while m1 < m2:
            means.pop()
            c1 = counts.pop()
            c = c1 + c2
            m2 = (m1 * c1 + m2 * c2) / c
            c2 = c
            m1 = means[-1]
        means.append(m2)
        counts.append(c2)
    values = means[1:]
    # a finite sum rules out inf and NaN; only an infinite one, which the
    # sum alone may cause, needs the test of every block
    if not isfinite(sum(values)) and not all(map(isfinite, values)):
        # a block sum overflowed; no sum of fewer than 2^k values scaled by
        # 2^-k can, so this retry is the last
        k = z.size.bit_length()
        return np.ldexp(pava_nonincreasing_kernel(np.ldexp(z, -k)), k)
    return np.repeat(np.array(values, dtype=np.float64), counts[1:])
