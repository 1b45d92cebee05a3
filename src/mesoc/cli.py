"""Command-line surface: project, check, oracle-compare, solve-portfolio.

Vectors travel as comma-separated decimals with --p/--q giving the split of
the concatenated point (x then u). All verbs emit JSON on stdout; floats are
written with 17 significant digits so output round-trips doubles losslessly.
The JSON is produced in pieces and written only once every piece is made,
so a failed verb, exit 6 included, writes nothing to stdout. A 1-D float64
array is one piece; lists and tuples go item by item.

Every float is written byte for byte as '%.17g' writes it. In a float64
array, numpy builds the text of each value that '%.17g' prints in fixed
notation: a zero, or a decimal exponent in -4..16 after rounding to 17
digits (1e-4 <= |x| < 1e17). Every other value, in exponent form, goes
through '%.17g' itself.

Every value read is float()'s, bit for bit. numpy reads each plain decimal
cell: a "-" or none, then digits with at most one ".", at most 23 bytes,
below 2**63 with the dot dropped. Every other cell (exponent, "+", "_",
whitespace, inf, nan, non-ASCII, malformed), a cell within 1e-4 ulp of a
rounding tie, and the rest of a text from a 64 KB block where such cells
are a third, go through float() itself.

Exit codes: 0 success, 1 property violation (membership or deviation check
failed), 2 parse error (an unreadable --file too, in every verb), 3
dimension mismatch, 4 non-convergence (a Dykstra run that hit its cycle
cap, or a portfolio solve whose residuals exceed the fixed feasibility
tolerance 1e-7), 5 input outside the model's domain (c0 not in (0, inf), a
degenerate reference scenario), 6 a result outside the float range (a norm,
a Moreau dual half, a cone violation or a certificate residual above the
largest finite double).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from .cones import ConeId, DimensionError, cone_violation, project_cone
from .oracle import dykstra_project, mesoc_pieces
from .portfolio import ModelDomainError, read_returns_csv, refine_jstar
from .projection import (
    MesocPoint,
    mesoc_dual_violation,
    mesoc_violation,
    project_mesoc,
    project_mesoc_dual,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_NONCONVERGENCE = 4
EXIT_DOMAIN = 5
EXIT_OVERFLOW = 6

_VECTOR_CONES = tuple(cone.value for cone in ConeId)
_CONE_CHOICES = ("mesoc", "mesoc-dual") + _VECTOR_CONES
# each --cone value's violation function, taking what _point returns for it
_VIOLATIONS = {"mesoc": mesoc_violation, "mesoc-dual": mesoc_dual_violation}
_VIOLATIONS.update({c: partial(cone_violation, c) for c in _VECTOR_CONES})
_ORACLE_DIM_CAP = 8

# values per numpy pass; a pass's arrays peak near 0.5 MB
_CHUNK = 2048
# bytes of text per numpy pass of the reader: a 400 741-byte file took 2.9 ms
# in 32 KB passes, 2.3-2.7 in 64 KB, 2.5-2.6 in 128 KB and 3.6 in one pass
_READ_BLOCK = 1 << 16

_SPLITTER = 2.0**27 + 1.0


def _split(a):
    """hi + lo == a with 26-bit halves, so each product of halves is exact."""
    c = a * _SPLITTER
    hi = c - (c - a)
    return hi, a - hi


def _product_error(a, b_hi, b_lo, prod):
    """a * b - prod exactly, for prod = fl(a * b) and b = b_hi + b_lo split
    as _split does (Dekker's product)."""
    a_hi, a_lo = _split(a)
    return ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _body_masks():
    """The bytes of the 44-byte body that each fixed-notation value keeps.

    The body holds every candidate character at a fixed column: 0 pad,
    1 "-", 2 "0", 3-19 the 17 digits as integer part, 20 ".", 21-23
    "000", 24-26 pad, 27-43 the 17 digits as fraction. Row
    (neg * 21 + X + 4) * 17 + s, for decimal exponent X in -4..16 and s
    stripped trailing zeros, is 0xFF on the columns that '%.17g' prints.
    """
    x = np.arange(-4, 17)[:, None, None]
    s = np.arange(17)[:, None]
    c = np.arange(44)
    keep = (
        ((c == 2) & (x < 0))
        | ((3 <= c) & (c <= 19) & (c - 3 <= x))
        | ((c == 20) & (s < 16 - x))
        | ((21 <= c) & (c <= 23) & (c - 21 >= 4 + x))
        | ((27 <= c) & (c - 27 > x) & (c - 27 < 17 - s))
    ).reshape(-1, 44)
    keep = np.concatenate([keep, keep | (c == 1)])
    return (keep * np.uint8(255)).view(np.uint32)


def _cell_masks():
    """The bytes of a cell's 24-byte window that hold its digits.

    Row w * 24 + d, for a cell whose last w bytes are its digits and dot,
    is 0xFF on those bytes but the dot, d bytes from the end (d = 0: no
    dot), as three little-endian uint64 words, the reader's view of it.
    """
    w = np.arange(24)[:, None, None]
    d = np.arange(24)[:, None]
    c = np.arange(24)
    keep = ((c >= 24 - w) & (c != 24 - d)).reshape(-1, 24)
    return (keep * np.uint8(255)).view("<u8")


class _Tables(NamedTuple):
    pow10: np.ndarray  # 10**k for k <= 22, each a double exactly
    pow10_hi: np.ndarray  # and its Veltkamp halves, exact too
    pow10_lo: np.ndarray
    cell_masks: np.ndarray  # _cell_masks()
    cell_div: np.ndarray  # 10**min(d, 19) for a dot d bytes from the end; 10**19 without
    digits4: np.ndarray  # the ASCII digits of 0..9999, four bytes to a uint32
    zeros4: np.ndarray  # how many of those are trailing zeros (4 for 0)
    body_masks: np.ndarray  # _body_masks()
    word0: np.ndarray  # body word 0 by leading digit d: "-", "0" and d
    word5: np.uint32  # body word 5: ".000"
    word6: np.ndarray  # body word 6 by d: 3 pads and d


@cache
def _tables() -> _Tables:
    """The numpy writer's and reader's lookup tables, built on first use, so
    that importing this module does no numpy work."""
    pow10 = np.array([float(10**k) for k in range(23)])
    d = np.arange(24, dtype=np.uint64)
    ascii_ = np.arange(48, 58, dtype=np.uint8)
    digits4 = np.stack(np.meshgrid(ascii_, ascii_, ascii_, ascii_, indexing="ij"), axis=-1)
    z = np.arange(10) == 0  # a digit is 0; the last axis is the last digit
    zeros4 = z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))
    return _Tables(
        pow10,
        *_split(pow10),
        _cell_masks(),
        np.uint64(10) ** np.where((d > 0) & (d < 19), d, np.uint64(19)),
        digits4.reshape(10_000, 4).view(np.uint32).ravel(),
        zeros4.astype(np.uint8).ravel(),
        _body_masks(),
        np.frombuffer(b"".join(b"\0-0%d" % d for d in range(10)), np.uint32),
        np.frombuffer(b".000", np.uint32)[0],
        np.frombuffer(b"".join(b"\0\0\0%d" % d for d in range(10)), np.uint32),
    )


def _round17(a, exp10):
    """round-half-even(a * 10**(16 - exp10)) as int64, exact when it has
    17 digits; callers discard any other result.

    Dekker's product gives hi + lo == a * 10**k with no rounding. With 17
    digits, hi >= 2**53 is an even integer, so the rounded sum is
    hi + rint(lo), ties going to even with it.
    """
    k = 16 - exp10
    t = _tables()
    hi = a * t.pow10[k]
    lo = _product_error(a, t.pow10_hi[k], t.pow10_lo[k], hi)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _write_rows(x, rows, masks) -> None:
    """Write each value of x into its row of rows as '%.17g' prints it.

    rows holds uint32 words, one row per value: the 44-byte body of
    _body_masks, then the separator. A value in fixed notation (decimal
    exponent X in -4..16 after rounding to 17 digits) or a zero is built
    from its 17-digit integer N = round-half-even(|x| * 10**(16 - X)): N's
    digits fill both digit runs of the body, and its row of masks (a row of
    _body_masks(), 0xFF over the separator) zeroes what '%.17g' leaves out.
    Any other value is formatted by '%.17g' and NUL-padded.
    """
    t = _tables()
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(a))
    fast = (e >= -5) & (e <= 16)
    exp10 = np.where(fast, e, 0).astype(np.intp)
    n = _round17(np.where(fast, a, 0.0), exp10)
    # log10 can misjudge X by one near a power of ten; a rounding that
    # carried to 10**17 would be caught the same way
    off = fast & ((n < 10**16) | (n >= 10**17))
    if off.any():
        i = np.flatnonzero(off)
        exp10[i] += np.where(n[i] < 10**16, -1, 1)
        n[i] = _round17(a[i], np.minimum(exp10[i], 16))
        fast[i] = (n[i] >= 10**16) & (n[i] < 10**17)
    fast &= (exp10 >= -4) & (exp10 <= 16)
    fast |= a == 0
    slow = np.flatnonzero(~fast)
    if slow.size:
        n[slow] = 0
        exp10[slow] = 0
    # N = d * 10**16 + four groups of four digits
    upper, lower = np.divmod(n, 10**8)
    d, upper = np.divmod(upper, 10**8)
    groups = np.empty((x.size, 4), np.intp)
    groups[:, 0], groups[:, 1] = np.divmod(upper, 10**4)
    groups[:, 2], groups[:, 3] = np.divmod(lower, 10**4)
    # N's trailing zeros, read into earlier groups only past a zero group;
    # a zero's N = 0 strips its whole fraction
    zeros = t.zeros4[groups[:, 3]].astype(np.intp)
    i = np.flatnonzero(groups[:, 3] == 0)
    if i.size:
        g = groups[i]
        zeros[i] += t.zeros4[g[:, 2]] + (g[:, 2] == 0) * (
            t.zeros4[g[:, 1]] + (g[:, 1] == 0) * t.zeros4[g[:, 0]]
        )
    stripped = np.minimum(zeros, 16 - exp10)
    key = (np.signbit(x) * 21 + exp10 + 4) * 17 + stripped
    digits = np.take(t.digits4, groups)
    rows[:, 0] = np.take(t.word0, d)
    rows[:, 1:5] = digits
    rows[:, 5] = t.word5
    rows[:, 6] = np.take(t.word6, d)
    rows[:, 7:11] = digits
    np.bitwise_and(rows, np.take(masks, key, axis=0), out=rows)
    if slow.size:
        text = b"".join(("%.17g" % v).encode().ljust(44, b"\0") for v in x[slow].tolist())
        rows[slow, :11] = np.frombuffer(text, np.uint32).reshape(-1, 11)


def _floats_json(values: np.ndarray, sep: str, head: str = "", tail: str = "") -> str:
    """Floats at 17 significant digits joined by sep, between head and tail.

    The values go _CHUNK at a time into a byte matrix, one row per value
    and its separator (_write_rows); one compress drops the NUL padding
    and the chunk is decoded once. The bytes are those of '%.17g'.

    Raises OverflowError for a non-finite value: every input and flag is
    finite, so only an overflow can have produced it.
    """
    finite = np.isfinite(values)
    if not finite.all():
        bad = values[~finite][0]
        raise OverflowError(f"non-finite value {float(bad)!r} in JSON output")
    sep_bytes = np.frombuffer(sep.encode(), np.uint8)
    width = 44 + -(-sep_bytes.size // 4) * 4
    body_masks = _tables().body_masks
    masks = np.full((body_masks.shape[0], width // 4), 0xFFFFFFFF, np.uint32)
    masks[:, :11] = body_masks
    chunk = min(values.size, _CHUNK)
    rows = np.zeros((chunk, width), np.uint8)
    rows[:, 44 : 44 + sep_bytes.size] = sep_bytes
    words = rows.view(np.uint32)
    out = head
    for start in range(0, values.size, chunk):
        x = values[start : start + chunk]
        _write_rows(x, words[: x.size], masks)
        flat = rows[: x.size].ravel()
        text = flat[flat != 0]
        if start + x.size == values.size:
            text = text[: text.size - sep_bytes.size]
        # out has no other reference, so CPython appends in place
        out += str(text, "ascii")
    out += tail
    return out


def _scalar_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isfinite(value):
            return "%.17g" % value
        # raises, with the message of every other non-finite output
        return _floats_json(np.array([value]), "")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _json_chunks(value, indent: int = 0):
    """The text of format_json(value, indent), yielded in pieces.

    A non-empty 1-D float64 array is one piece, brackets included, written
    in one pass; any other array is formatted as its .tolist(), and lists
    and tuples go item by item. A dict member's value is one format_json
    piece, which for a float64 array is that array's piece itself (a join
    of one string copies nothing). Keys and separators are pieces of their
    own, so the document is never copied whole.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.dtype == np.float64 and value.size:
            yield _floats_json(value, ",\n" + inner, "[\n" + inner, "\n" + pad + "]")
            return
        value = value.tolist()
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        sep = "{\n"
        for k, v in value.items():
            yield f"{sep}{inner}{json.dumps(str(k))}: "
            # a call per member keeps the writer's time and bytes inside
            # the benchmark's cli.format_json span
            yield format_json(v, indent + 1)
            sep = ",\n"
        yield "\n" + pad + "}"
        return
    if isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        sep = ",\n" + inner
        yield "[\n" + inner
        for i, v in enumerate(value):
            if i:
                yield sep
            yield from _json_chunks(v, indent + 1)
        yield "\n" + pad + "]"
        return
    yield _scalar_json(value)


def format_json(value, indent: int = 0) -> str:
    """Deterministic JSON with .17g floats (json.dumps cannot control that)."""
    return "".join(_json_chunks(value, indent))


def _emit(payload) -> None:
    """Write payload's JSON and a newline to stdout, once every piece is made.

    A value the writer rejects (OverflowError for a non-finite float)
    therefore leaves stdout empty.
    """
    pieces = list(_json_chunks(payload))
    pieces.append("\n")
    sys.stdout.writelines(pieces)


def _read_floats(text: str) -> np.ndarray:
    """float() of every cell of text that is not blank, in order."""
    cells = text.replace("\n", ",").split(",")
    try:
        values = list(map(float, filter(str.strip, cells)))
    except ValueError as exc:
        raise ValueError(f"malformed number in vector: {exc}") from None
    return np.asarray(values, dtype=np.float64)


def _read_block(raw: bytes, lo: int, hi: int) -> np.ndarray | None:
    """The values of the cells of raw[lo:hi], up to a separator.

    raw is the text in UTF-8 (surrogatepass) behind 24 lead bytes, and
    lo >= 24. numpy reads a cell of a "-" or none, then digits with at
    most one "." among them, at most 23 bytes after the "-", from the 24
    bytes that end it (three uint64 words). It hands to float()
    (_read_floats) every other cell, decoded back to the str it was, and
    one whose digits N, read without the dot, reach 2**63, whose value
    lies within 1e-4 ulp of a rounding tie, or that may round past a power
    of two. It returns None, reading nothing, when fewer than two thirds
    of the cells are plain.

    With k fraction digits the value is N / 10**k. Both are exact doubles
    when N < 2**53, so the quotient is correctly rounded (Clinger). Above
    that, y = fl(fl(N) / 10**k) is within 1.5 ulp of it, and the residual
    N - y * 10**k, exact by Dekker's product, says how many ulps to step.
    """
    t = _tables()
    buf = np.frombuffer(raw, np.uint8, hi - lo, lo)
    # every byte but a digit, then a separator after the block
    pos = np.append(np.flatnonzero(np.subtract(buf, 48, dtype=np.uint8) > 9), buf.size)
    ch = np.append(buf[pos[:-1]], np.uint8(44))
    sep = np.flatnonzero((ch == 44) | (ch == 10))
    end = pos[sep]
    start = np.concatenate(([0], end[:-1] + 1))
    # each cell's other non-digit bytes: first .. first + count - 1 of pos
    first = np.concatenate(([0], sep[:-1] + 1))
    count = sep - first
    neg = buf.take(start, mode="clip") == 45
    rest = count - neg
    after = first + neg
    dot = ch.take(after, mode="clip") == 46
    # the dot's distance from the cell's end, 0 without one
    dot_end = (end - pos.take(after, mode="clip")) * (rest == 1)
    width = end - start - neg
    # no other byte but a dot, and at least one digit
    ok = (rest <= dot) & (width > rest) & (width <= 23)
    if 3 * np.count_nonzero(ok) < 2 * ok.size:
        return None
    # the digits as a 24-slot integer, the dot a 0 slot
    windows = np.ndarray((len(raw) - 23,), "V24", raw, 0, (1,))
    x = windows[end + (lo - 24)].view("<u8").reshape(-1, 3)
    x ^= np.uint64(0x3030303030303030)
    x &= t.cell_masks.take(width * 24 + dot_end, axis=0, mode="clip")
    # 8 digits per word: pairs, fours, eights (SWAR multiply-shift)
    x = (x * np.uint64(10 << 8 | 1)) >> np.uint64(8) & np.uint64(0x00FF00FF00FF00FF)
    x = (x * np.uint64(100 << 16 | 1)) >> np.uint64(16) & np.uint64(0x0000FFFF0000FFFF)
    x = (x * np.uint64(10000 << 32 | 1)) >> np.uint64(32)
    ok &= x[:, 0] <= 921  # so N < 2**63
    n = x[:, 0] * np.uint64(10**16) + x[:, 1] * np.uint64(10**8) + x[:, 2]
    div = t.cell_div.take(dot_end, mode="clip")
    whole, frac = np.divmod(n, div)
    n = (whole * (div // np.uint64(10)) + frac).view(np.int64)
    k = np.maximum(dot_end - 1, 0)
    p = t.pow10.take(k, mode="clip")
    nf = n.astype(np.float64)
    y = nf / p
    # residual N - y * p: Dekker's product, and N - fl(N)
    prod = y * p
    p_hi, p_lo = t.pow10_hi.take(k, mode="clip"), t.pow10_lo.take(k, mode="clip")
    err = _product_error(y, p_hi, p_lo, prod)
    res = ((nf - prod) - err) + (n - nf.astype(np.int64)).astype(np.float64)
    # y's ulp from its exponent bits (y >= 1e-22 unless N = 0, whose step is 0)
    bits = y.view(np.int64)
    ulp = ((bits & (0x7FF << 52)) - (52 << 52)).view(np.float64)
    step = res / (p * ulp)
    nearest = np.rint(step)
    ok &= np.abs(step - nearest) < 0.4999
    # a step down from a power of two is half an ulp
    ok &= ((bits & (2**52 - 1)) > 1) | (step >= 0)
    y += nearest * ulp
    y *= np.where(neg, -1.0, 1.0)
    bad = np.flatnonzero(~ok)
    if bad.size:
        spans = zip((start[bad] + lo).tolist(), (end[bad] + lo).tolist())
        cells = b",".join([raw[a:b] for a, b in spans]).decode("utf-8", "surrogatepass")
        full = np.array([bool(c.strip()) for c in cells.split(",")])
        y[bad[full]] = _read_floats(cells)
        y = np.delete(y, bad[~full])
    return y


def parse_vector(text: str) -> np.ndarray:
    """Comma-separated decimals; newlines count as separators too.

    Blank cells are skipped; float() itself ignores the whitespace around
    a number. Every value is float()'s, bit for bit, and a malformed cell
    raises with float()'s message. numpy reads the plain decimal cells of
    each block (_read_block) and float() every other cell.
    """
    # the lead bytes give every cell its 24-byte window; surrogatepass lets
    # a lone surrogate through to float() and its message
    raw = bytes(24) + text.encode("utf-8", "surrogatepass")
    # so that a text of no block, such as "", reads as an empty array
    blocks = [np.empty(0)]
    lo = 24
    with np.errstate(all="ignore"):
        while lo < len(raw):
            # a block ends at its last separator, else at the text's end
            stop = lo + _READ_BLOCK
            hi = max(raw.rfind(b",", lo, stop), raw.rfind(b"\n", lo, stop))
            if stop >= len(raw) or hi < 0:
                hi = len(raw)
            block = _read_block(raw, lo, hi) if hi > lo else np.empty(0)
            if block is None:
                # float() reads text of so many other cells faster whole
                blocks.append(_read_floats(raw[lo:].decode("utf-8", "surrogatepass")))
                break
            blocks.append(block)
            lo = hi + 1
    return np.concatenate(blocks)


def _read_file(read, path, *args):
    """read(path, *args), an OSError from it raised as a parse error."""
    try:
        return read(path, *args)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _read_text(path) -> str:
    with open(path) as fh:
        return fh.read()


def _read_vector(args) -> np.ndarray:
    if (args.inline is None) == (args.file is None):
        raise ValueError("exactly one of --inline or --file is required")
    if args.inline is not None:
        return parse_vector(args.inline)
    return parse_vector(_read_file(_read_text, args.file))


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be finite and nonnegative")


def _point(vec: np.ndarray, args) -> MesocPoint | np.ndarray:
    """The input split as --cone takes it: a MesocPoint, or the plain vector."""
    if args.cone in ("mesoc", "mesoc-dual"):
        return MesocPoint.from_vector(vec, args.p, args.q)
    if args.q:
        raise DimensionError(f"cone {args.cone} takes no u block; drop --q or set it to 0")
    if vec.size != args.p:
        raise DimensionError(f"vector has length {vec.size}, expected p = {args.p}")
    return vec


def cmd_project(args) -> int:
    vec = _read_vector(args)
    pt = _point(vec, args)
    if args.cone == "mesoc":
        payload = {"cone": "mesoc"}
        payload.update(project_mesoc(pt.x, pt.u).to_dict())
        _emit(payload)
        return EXIT_OK
    payload = {"cone": args.cone, "p": args.p}
    if args.cone == "mesoc-dual":
        payload["q"] = args.q
        proj = project_mesoc_dual(pt.x, pt.u)
        flat = proj.as_vector()
    else:
        proj = flat = project_cone(args.cone, pt)
    payload.update(input=vec, projection=flat, violation=_VIOLATIONS[args.cone](proj))
    _emit(payload)
    return EXIT_OK


def cmd_check(args) -> int:
    pt = _point(_read_vector(args), args)
    _check_tol(args.tol)
    violation = _VIOLATIONS[args.cone](pt)
    member = violation <= args.tol
    _emit(
        {
            "cone": args.cone,
            "member": member,
            "violation": violation,
            "tol": args.tol,
        }
    )
    return EXIT_OK if member else EXIT_VIOLATION


def cmd_oracle_compare(args) -> int:
    _check_tol(args.tol)
    if args.p > _ORACLE_DIM_CAP or args.q > _ORACLE_DIM_CAP:
        raise DimensionError(
            f"oracle comparison is capped at p, q <= {_ORACLE_DIM_CAP}; "
            f"got p={args.p}, q={args.q}"
        )
    if args.count < 0:
        raise DimensionError("need count >= 0")
    pieces = mesoc_pieces(args.p, args.q)
    rng = np.random.default_rng(args.seed)
    rows = []
    all_converged = True
    max_dev = 0.0
    for i in range(args.count):
        z = rng.standard_normal(args.p)
        w = rng.standard_normal(args.q)
        exact = project_mesoc(z, w).primal.as_vector()
        rep = dykstra_project(pieces, np.concatenate([z, w]))
        dev = float(np.max(np.abs(exact - rep.point)))
        max_dev = max(max_dev, dev)
        all_converged = all_converged and rep.converged
        rows.append(
            {
                "instance": i,
                "deviation": dev,
                "cycles": rep.cycles,
                "converged": rep.converged,
            }
        )
    _emit(
        {
            "p": args.p,
            "q": args.q,
            "count": args.count,
            "seed": args.seed,
            "tol": args.tol,
            "max_deviation": max_dev,
            "rows": rows,
        }
    )
    if max_dev > args.tol:
        return EXIT_VIOLATION
    if not all_converged:
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_solve_portfolio(args) -> int:
    if args.file is None:
        raise ValueError("--file with scenario returns is required")
    data = _read_file(read_returns_csv, args.file, args.probabilities_column)
    sol = refine_jstar(data, args.c0)
    _emit(sol.to_dict())
    return EXIT_OK if sol.converged else EXIT_NONCONVERGENCE


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="mesoc",
        description="Exact projections onto the monotone extended second-order cone.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_vector_flags(sp):
        sp.add_argument("--p", type=int, required=True, help="length of the ordered block")
        sp.add_argument("--q", type=int, default=0, help="length of the norm block")
        sp.add_argument("--inline", help="comma-separated input vector")
        sp.add_argument("--file", help="file containing the input vector")
        sp.add_argument("--cone", choices=_CONE_CHOICES, default="mesoc")

    sp = sub.add_parser("project", help="project a point and emit the certificate")
    add_vector_flags(sp)
    sp.set_defaults(func=cmd_project)

    sp = sub.add_parser("check", help="test cone membership of a point")
    add_vector_flags(sp)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser(
        "oracle-compare", help="compare the closed form against Dykstra on random inputs"
    )
    sp.add_argument("--p", type=int, default=4)
    sp.add_argument("--q", type=int, default=4)
    sp.add_argument("--count", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.set_defaults(func=cmd_oracle_compare)

    sp = sub.add_parser("solve-portfolio", help="solve the conic MAD model from a returns CSV")
    sp.add_argument("--file", help="CSV of scenario returns, one row per scenario")
    sp.add_argument("--c0", type=float, default=1.0, help="risk-aversion weight")
    sp.add_argument(
        "--probabilities-column",
        type=int,
        default=None,
        help="0-based CSV column holding scenario probabilities",
    )
    sp.set_defaults(func=cmd_solve_portfolio)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # the first match decides: the first two subclass ValueError, so come before it
        for cls, code in (
            (DimensionError, EXIT_DIMENSION),
            (ModelDomainError, EXIT_DOMAIN),
            (OverflowError, EXIT_OVERFLOW),
            (ValueError, EXIT_PARSE),
        ):
            if isinstance(exc, cls):
                return code


if __name__ == "__main__":
    sys.exit(main())
