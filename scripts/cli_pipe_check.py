"""Check `mesoc project` output read through a pipe at p = q = 10 000.

    python3 scripts/cli_pipe_check.py write VEC.txt
    set -o pipefail
    python3 -m mesoc.cli project --p 10000 --q 10000 --file VEC.txt \\
        | python3 scripts/cli_pipe_check.py check VEC.txt

`write` puts a seeded Interior-case vector (z = g + 3 with g standard
normal, ||w|| = 10) in VEC.txt at 17 significant digits. `check` reads
the CLI's JSON from standard input and exits 1 unless it parses, its
echoed input equals VEC.txt's doubles, and its primal and dual halves and
both Moreau residuals equal `project_mesoc` on those doubles, all bit for
bit. Under `set -o pipefail` a non-zero exit of the CLI fails the
pipeline too.
"""

import argparse
import json
import sys

import numpy as np

from mesoc import project_mesoc

DIM = 10_000


def write(path: str) -> None:
    rng = np.random.default_rng(19)
    z = rng.standard_normal(DIM) + 3.0
    w = rng.standard_normal(DIM)
    w *= 10.0 / np.sqrt(np.sum(w * w))
    with open(path, "w") as fh:
        fh.write(",".join(format(v, ".17g") for v in np.concatenate([z, w]).tolist()) + "\n")


def problems(text: str, path: str) -> list[str]:
    """What is wrong with the CLI's output `text` for the input in `path`."""
    with open(path) as fh:
        vec = np.array([float(c) for c in fh.read().split(",")])
    try:
        # ints count as floats so that "-0" keeps its sign
        payload = json.loads(text, parse_int=float)
    except ValueError as exc:
        return [f"output is not JSON ({len(text)} characters): {exc}"]
    cert = project_mesoc(vec[:DIM], vec[DIM:])
    found = []
    for key, want, source in (
        ("input", vec, "the file"),
        ("primal", cert.primal.as_vector(), "the library"),
        ("dual_of_neg", cert.dual_of_neg.as_vector(), "the library"),
    ):
        got = np.asarray(payload.get(key, []), dtype=np.float64)
        if got.shape != want.shape:
            found.append(f"{key} has {got.size} entries, {source} gives {want.size}")
        elif not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
            diff = int(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))
            found.append(f"{key} differs from {source} in {diff} entries")
    for key in ("moreau_additive_residual", "moreau_orthogonality_residual"):
        got, want = payload.get(key), getattr(cert, key)
        if not (isinstance(got, float) and np.float64(got).tobytes() == np.float64(want).tobytes()):
            found.append(f"{key} is {got!r}, the library gives {want!r}")
    return found


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("mode", choices=("write", "check"))
    ap.add_argument("path", help="the input vector file")
    args = ap.parse_args()
    if args.mode == "write":
        write(args.path)
        return 0
    found = problems(sys.stdin.read(), args.path)
    for line in found:
        print(f"cli_pipe_check: {line}", file=sys.stderr)
    if not found:
        print(f"cli_pipe_check: input, halves and residuals bit-equal at p = q = {DIM}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
