"""Compare the CLI's numpy float writer with '%.17g' on a seeded sweep of doubles.

    PYTHONPATH=src python3 scripts/float_format_sweep.py --count 10000000 --seed 0

The doubles come in blocks of 100 000, each a third random 64-bit patterns
(every exponent, the subnormals, both signs), a third +-10**U(-7, 17.5)
and a third powers of ten from 1e-5 to 1e17 moved by up to 1000 ulps.
Every finite one is written by `mesoc.cli._floats_json`, in one array per
block, and by '%.17g'; 2000 doubles drawn from the block are written again
in arrays of 1-16 values.
The first value whose text differs is printed and the exit code is 1;
otherwise the exit code is 0.
"""

import argparse
import sys

import numpy as np

from mesoc.cli import _floats_json

BLOCK = 100_000
SHORT = 2000


def block(rng: np.random.Generator) -> np.ndarray:
    third = BLOCK // 3
    bits = rng.integers(0, 2**64, third, dtype=np.uint64).view(np.float64)
    signs = rng.choice([-1.0, 1.0], third)
    spread = signs * 10.0 ** rng.uniform(-7, 17.5, third)
    powers = 10.0 ** rng.integers(-5, 18, BLOCK - 2 * third).astype(np.float64)
    near = (powers.view(np.int64) + rng.integers(-1000, 1001, powers.size)).view(np.float64)
    values = np.concatenate([bits, spread, near])
    return values[np.isfinite(values)]


def difference(values: np.ndarray) -> str | None:
    """The first of values that _floats_json writes otherwise than '%.17g'."""
    got = _floats_json(values, ",").split(",")
    floats = values.tolist()
    want = ["%.17g" % v for v in floats]
    for v, g, w in zip(floats, got, want):
        if g != w:
            return f"{v!r}: numpy path wrote {g!r}, '%.17g' writes {w!r}"
    if len(got) != len(want):
        return f"{len(got)} items written for {len(want)} values"
    return None


def first_difference(rng: np.random.Generator, values: np.ndarray) -> str | None:
    found = difference(values)
    if found:
        return found
    # SHORT of the doubles again, in arrays of 1-16 values
    short = values[rng.integers(0, values.size, SHORT)]
    bounds = np.cumsum(rng.integers(1, 17, SHORT)).tolist()
    for a, b in zip([0] + bounds, bounds):
        if a >= SHORT:
            break
        found = difference(short[a:b])
        if found:
            return found
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=10_000_000, help="doubles to draw")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    checked = 0
    while checked < args.count:
        values = block(rng)
        found = first_difference(rng, values)
        if found:
            print(f"float_format_sweep: {found}", file=sys.stderr)
            return 1
        checked += BLOCK
    print(f"float_format_sweep: {checked} doubles drawn, every finite one as '%.17g' writes it")
    return 0


if __name__ == "__main__":
    sys.exit(main())
