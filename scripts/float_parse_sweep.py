"""Compare the CLI's numpy decimal reader with float() on a seeded sweep of strings.

    PYTHONPATH=src python3 scripts/float_parse_sweep.py --count 10000000 --seed 0

The strings come in blocks of 100 000, a quarter each:
- '%.17g', repr and '%.20e' of random 64-bit patterns (every exponent, the
  subnormals, both signs);
- +-10**U(-7, 17.5), and powers of two from 2**-20 to 2**63 moved by up
  to 3 ulps, at '%.17g';
- random strings of 1-25 digits with a random dot, an optional '-' and runs
  of leading or trailing zeros;
- the exact decimal midpoint of two adjacent doubles (2**-21 to 2**63), cut
  to 17-21 significant digits: just below the tie, or rounded up past it,
  or the tie itself when it has no more digits.
Each block is one text of comma- and newline-separated cells, read by
`mesoc.cli.parse_vector`; 2000 strings drawn from the block are read again
as texts of 1-16 cells. Each string is also read by float(). The first
string read to other bits (so the sign of zero counts) or rejected is
printed and the exit code is 1; otherwise the exit code is 0.
"""

import argparse
import sys

import numpy as np

from mesoc.cli import parse_vector

BLOCK = 100_000
SHORT = 2000


def bit_patterns(rng, n: int) -> list[str]:
    values = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)].tolist()
    third = len(values) // 3
    return (
        ["%.17g" % v for v in values[:third]]
        + [repr(v) for v in values[third : 2 * third]]
        + ["%.20e" % v for v in values[2 * third :]]
    )


def log_uniform(rng, n: int) -> list[str]:
    half = n // 2
    spread = rng.choice([-1.0, 1.0], half) * 10.0 ** rng.uniform(-7, 17.5, half)
    powers = 2.0 ** rng.integers(-20, 64, n - half).astype(np.float64)
    near = (powers.view(np.int64) + rng.integers(-3, 4, powers.size)).view(np.float64)
    return ["%.17g" % v for v in np.concatenate([spread, near]).tolist()]


def digit_strings(rng, n: int) -> list[str]:
    digits = rng.integers(48, 58, (n, 25), dtype=np.uint8)
    length = rng.integers(1, 26, n)
    zeros = rng.integers(0, 26, n)[:, None]
    col = np.arange(25)
    digits[(rng.random(n) < 0.25)[:, None] & (col < zeros)] = 48
    digits[(rng.random(n) < 0.25)[:, None] & (col >= length[:, None] - zeros)] = 48
    rows = digits.tobytes().decode()
    # a dot index past the end means no dot
    dots = rng.integers(0, 30, n).tolist()
    signs = rng.choice(["", "-"], n).tolist()
    out = []
    for i, (m, d, s) in enumerate(zip(length.tolist(), dots, signs)):
        cell = rows[25 * i : 25 * i + m]
        if d <= m:
            cell = cell[:d] + "." + cell[d:]
        out.append(s + cell)
    return out


def midpoints(rng, n: int) -> list[str]:
    mantissas = rng.integers(2**52, 2**53, n).tolist()
    exps = (rng.integers(-20, 64, n) - 53).tolist()
    cuts = rng.integers(17, 22, n).tolist()
    ups = rng.integers(0, 2, n).tolist()
    out = []
    for m, e, cut, up in zip(mantissas, exps, cuts, ups):
        # (2m + 1) * 2**(e - 1), exactly, as digits * 10**-frac
        if e >= 1:
            digits, frac = str((2 * m + 1) << (e - 1)), 0
        else:
            digits, frac = str((2 * m + 1) * 5 ** (1 - e)), 1 - e
        if len(digits) > cut:
            frac -= len(digits) - cut
            digits = str(int(digits[:cut]) + up)
        if frac <= 0:
            out.append(digits + "0" * -frac)
        else:
            digits = digits.rjust(frac + 1, "0")
            out.append(digits[:-frac] + "." + digits[-frac:])
    return out


def block(rng) -> list[str]:
    quarter = BLOCK // 4
    return (
        bit_patterns(rng, quarter)
        + log_uniform(rng, quarter)
        + digit_strings(rng, quarter)
        + midpoints(rng, BLOCK - 3 * quarter)
    )


def difference(cells: list[str], text: str) -> str | None:
    """The first of cells that parse_vector reads from text to other bits than
    float(), or rejects."""
    try:
        got = parse_vector(text)
    except ValueError as exc:
        # find the string to blame by reading each on its own
        for cell in cells:
            try:
                parse_vector(cell)
            except ValueError as one:
                return f"{cell!r}: parse_vector rejects it ({one}), float() reads {float(cell)!r}"
        return f"parse_vector rejects a text of {len(cells)} cells ({exc}) but reads each alone"
    want = np.array(list(map(float, cells)))
    if got.shape != want.shape:
        return f"{got.size} values read for {want.size} cells"
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    if bad.size:
        i = bad[0]
        return f"{cells[i]!r}: parse_vector read {got[i]!r}, float() reads {want[i]!r}"
    return None


def first_difference(rng, cells: list[str]) -> str | None:
    seps = rng.choice([",", "\n"], len(cells)).tolist()
    found = difference(cells, "".join(c + s for c, s in zip(cells, seps)))
    if found:
        return found
    # SHORT of the strings again, in texts of 1-16 cells with no trailing separator
    short = [cells[i] for i in rng.integers(0, len(cells), SHORT).tolist()]
    bounds = np.cumsum(rng.integers(1, 17, SHORT)).tolist()
    for a, b in zip([0] + bounds, bounds):
        if a >= SHORT:
            break
        part = short[a:b]
        found = difference(part, "".join(c + s for c, s in zip(part, seps[a:b]))[:-1])
        if found:
            return found
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=10_000_000, help="strings to draw")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    checked = 0
    while checked < args.count:
        cells = block(rng)
        found = first_difference(rng, cells)
        if found:
            print(f"float_parse_sweep: {found}", file=sys.stderr)
            return 1
        checked += len(cells)
    print(f"float_parse_sweep: {checked} strings read, every one as float() reads it")
    return 0


if __name__ == "__main__":
    sys.exit(main())
