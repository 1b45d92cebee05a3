import json
import math
import os
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesoc import cli, portfolio
from mesoc.cli import (
    _CHUNK,
    _READ_BLOCK,
    EXIT_DIMENSION,
    EXIT_DOMAIN,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_OVERFLOW,
    EXIT_PARSE,
    EXIT_VIOLATION,
    _emit,
    _floats_json,
    format_json,
    main,
    parse_vector,
)
from mesoc.projection import (
    ProjectionCase,
    mesoc_dual_violation,
    project_mesoc,
    project_mesoc_dual,
)
from support import reference_format_json, reference_parse_vector, reference_project_payload

EXTREMES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


def inline(values):
    """--inline text for values at 17 digits; the = form lets a leading minus through."""
    return "--inline=" + ",".join(format(v, ".17g") for v in values)


def run_cli(capsys, argv):
    """Invoke the entry point and return (exit code, parsed stdout, stderr)."""
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


class TestWireFormat:
    def test_parse_vector_commas(self):
        np.testing.assert_array_equal(parse_vector("1, 2,3"), [1.0, 2.0, 3.0])

    def test_parse_vector_newlines(self):
        np.testing.assert_array_equal(parse_vector("1\n2\n3"), [1.0, 2.0, 3.0])

    def test_format_json_round_trips_doubles(self):
        x = 1.0 / 3.0
        text = format_json({"x": x, "xs": [x, 1e-300]})
        back = json.loads(text)
        assert back["x"] == x
        assert back["xs"] == [x, 1e-300]

    def test_format_json_rejects_non_finite(self):
        with pytest.raises(OverflowError):
            format_json(float("inf"))

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1\r\n2\r\n3\r\n", [1.0, 2.0, 3.0]),
            ("1,2,3,", [1.0, 2.0, 3.0]),
            ("1\n\n2\n \n3\n\n", [1.0, 2.0, 3.0]),
            ("  1 ,\t2\t, 3  ", [1.0, 2.0, 3.0]),
            ("-0,0", [-0.0, 0.0]),
        ],
    )
    def test_parse_vector_edge_cases(self, text, expected):
        got = parse_vector(text)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize("text", ["1,2 3", "1,,x\n", "1;2"])
    def test_parse_vector_malformed_cell(self, text, capsys):
        with pytest.raises(ValueError, match="malformed number in vector"):
            parse_vector(text)
        # main maps that ValueError to exit 2
        code, out, err = run_cli(capsys, ["project", "--p", "2", "--inline", text])
        assert code == EXIT_PARSE
        assert out is None
        assert err.startswith("error: malformed number in vector")


def project_payload(n):
    rng = np.random.default_rng(11)
    z, w = rng.standard_normal(n), rng.standard_normal(n)
    return {"cone": "mesoc", **project_mesoc(z, w).to_dict()}


def mesoc_dual_payload(n):
    rng = np.random.default_rng(12)
    z, w = rng.standard_normal(n), rng.standard_normal(n)
    proj = project_mesoc_dual(z, w)
    return {
        "cone": "mesoc-dual",
        "p": n,
        "q": n,
        "input": np.concatenate([z, w]).tolist(),
        "projection": proj.as_vector().tolist(),
        "violation": mesoc_dual_violation(proj),
    }


class TestFormatJsonBytes:
    """format_json against the frozen per-element writer in tests/support.py."""

    @pytest.mark.parametrize(
        "value",
        [
            project_payload(10_000),
            mesoc_dual_payload(50),
            EXTREMES,
            np.array(EXTREMES),
            tuple(EXTREMES),
            [np.float64(x) for x in EXTREMES],
            {"x": -0.0, "tiny": 5e-324, "big": 1.7976931348623157e308},
            [np.int64(-3), np.int32(7), np.uint8(255), True, False, None],
            {"n": np.int64(2**62), "flag": False, "none": None},
            ['say "hi"', "back\\slash", "ünïcødé ✓", "tab\tnew\nline"],
            {'key "q"': "ü", "ключ": ["x", 1.5]},
            [],
            {},
            np.array([]),
            {"empty": [], "nothing": {}, "arr": np.array([])},
            np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0,
            {"outer": {"inner": {"xs": [0.1, 0.2], "n": 3}}},
            [{"instance": 0, "deviation": 1e-17, "cycles": 12, "converged": True}] * 3,
            [1, 2.5, -0.0, 3, np.float32(0.1), np.float16(2.0)],
            [[1.0, 2.0], [], [3.0]],
            1.0 / 3.0,
            np.float32(0.1),
            "plain",
            # oracle-compare's shape: a list of dicts inside a dict
            {
                "p": 4,
                "max_deviation": 2.5e-11,
                "rows": [
                    {"instance": i, "deviation": i / 3e10, "cycles": 40 + i, "converged": i != 1}
                    for i in range(3)
                ],
            },
            # arrays the float64 path must leave to .tolist(), and one it takes
            np.arange(-150, 150, dtype=np.int64),
            (np.arange(300, dtype=np.float32) - 150.5) / 7,
            np.array([True, False, True]),
            np.array([-0.0, 5e-324] * 150),
        ],
    )
    def test_same_bytes_as_reference(self, value):
        got, want = format_json(value), reference_format_json(value)
        if got != want:
            # report the first difference; pytest's diff of megabyte strings never ends
            at = len(os.path.commonprefix([got, want]))
            pytest.fail(f"bytes differ at {at}: {got[at:at + 40]!r} != {want[at:at + 40]!r}")

    def test_payload_arrays_are_copies(self):
        # to_dict hands the writer arrays; editing one leaves the result as is
        cert = project_mesoc(np.array([3.0, 1.0, 2.0]), np.array([0.5]))
        x0 = cert.primal.x[0]
        cert.to_dict()["primal"][0] += 1.0
        assert cert.primal.x[0] == x0
        sol = portfolio.refine_jstar(
            portfolio.load_scenarios([[0.5, 0.0], [0.0, 0.25], [0.25, 0.5]]), 1.0
        )
        w = sol.w.copy()
        sol.to_dict()["w"][0] += 1.0
        np.testing.assert_array_equal(sol.w, w)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_in_long_list_raises(self, bad):
        values = [0.1] * 5000 + [bad] + [0.2] * 5000
        with pytest.raises(ValueError) as want:
            reference_format_json(values)
        with pytest.raises(OverflowError) as got:
            format_json({"xs": np.array(values)})
        assert str(got.value) == str(want.value)


def assert_printf_bytes(values, sep=","):
    """_floats_json writes values exactly as '%.17g' does."""
    got = _floats_json(np.array(values), sep)
    want = sep.join(["%.17g" % v for v in values])
    if got != want:
        for v, g, w in zip(values, got.split(sep), want.split(sep)):
            if g != w:
                pytest.fail(f"{float(v)!r}: {g!r} != {w!r}")
        pytest.fail("same items, different separators")


def powers_of_ten_neighbours():
    """Each power of ten from 1e-5 to 1e17 and its 64 nearest doubles each side."""
    values = []
    for k in range(-5, 18):
        below = above = 10.0**k
        values.append(above)
        for _ in range(64):
            below = math.nextafter(below, 0.0)
            above = math.nextafter(above, math.inf)
            values += [below, above]
    return values


class TestNumpyFloatPath:
    """Float64 arrays of every length against '%.17g', byte for byte."""

    def test_random_bit_patterns(self):
        # every exponent, the subnormals and both signs
        bits = np.random.default_rng(31).integers(0, 2**64, 400_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert_printf_bytes(values[np.isfinite(values)].tolist())

    def test_log_uniform_magnitudes(self):
        rng = np.random.default_rng(32)
        values = rng.choice([-1.0, 1.0], 500_000) * 10.0 ** rng.uniform(-7, 17.5, 500_000)
        assert_printf_bytes(values.tolist())

    def test_powers_of_ten_neighbours(self):
        values = powers_of_ten_neighbours()
        assert_printf_bytes(values + [-v for v in values])

    def test_quarter_integer_ties(self):
        # m + 0.25 and m + 0.75 in [1e15, 2**51), where they are doubles,
        # need 18 digits: 17 end in a tie, which '%.17g' rounds to even
        m = np.random.default_rng(33).integers(10**15, 2**51, 100_000)
        values = m + np.array([0.25, 0.75] * 50_000)
        assert_printf_bytes(values.tolist())

    def test_boundaries(self):
        values = [
            999999.99999999999, 0.099999999999999999, 9.9999999999999991e-5,
            1e-4, 9.999999999999999e-5, 1e16, 9.9999999999999984e16, 1e17,
            0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
            -1.7976931348623157e308, 2.2250738585072014e-308, 0.5, 1.0, 100.0,
        ]
        for n in [1, 2, 255, 256, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 1]:
            assert_printf_bytes((values * (n // len(values) + 1))[:n])

    @pytest.mark.parametrize("indent", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "n",
        [1, 2, 255, 256, 257, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1],
    )
    def test_lengths_and_separators(self, n, indent):
        values = (np.random.default_rng(n).standard_normal(n) * 1e3).tolist()
        values[0], values[-1] = -0.0, 5e-324
        # an array takes the numpy path, a list goes item by item
        for kind in (np.array, list):
            value = {"xs": kind(values)}
            for _ in range(indent):
                value = [value]
            assert format_json(value) == reference_format_json(value)

    @given(
        cycle=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40
        ),
        n=st.integers(1, 2 * _CHUNK + 3),
        indent=st.integers(0, 3),
    )
    @settings(max_examples=60)
    def test_long_lists_match_reference(self, cycle, n, indent):
        values = (cycle * (n // len(cycle) + 1))[:n]
        for kind in (np.array, list):
            got = format_json(kind(values), indent)
            assert got == reference_format_json(values, indent)


# 816 plain cells, so that a few other cells among them go to float() one by
# one rather than the rest of the text going to float() whole
FILLER = ",".join(["3.1415926535897931", "-0.10000000000000001", "2.5", "-7"] * 204)


def assert_reads_like_reference(text):
    """parse_vector gives the reference's bits, or raises its message."""
    try:
        want = reference_parse_vector(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            parse_vector(text)
        assert str(raised.value) == str(exc)
        return
    got = parse_vector(text)
    assert got.dtype == np.float64 and got.shape == want.shape
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, f"value {bad[0]}: {got[bad[0]]!r}, float() reads {want[bad[0]]!r}"


# cells the numpy reader must hand to float(), or read exactly at its limits
READER_TRAPS = [
    "--1", "1.-2", "-", ".", "-.", "-.5", "5.", ".5", "-0", "-0.000", "007", "",
    # 20 digit slots, N at 2**63 and more, and just under
    "12345678901234567890", "1234567890123456789.0", "9223372036854775807",
    "9223372036854775808", "9300000000000000000", "9219999999999999999",
    "123456789012345678901234", "000000000.07012885953226", "-00000000.070128859532261",
    # 23 and 22 fraction digits
    ".12345678901234567890123", "0.00000000000000000000001", ".0000000000000000000012",
    "0.00012345678901234567", "-0.00012345678901234567",
    # exact ties: 2**53 + 1, 2**52 + 0.5, 2**51 + 0.25
    "9007199254740993", "4503599627370496.5", "2251799813685248.25",
    "1e5", "+1", "1_000", " 1", "1 ", "\t2\r", "inf", "-nan", "1.5e-300", "0x1", "1,5",
]


# pieces of random cells: float() also takes "+", "_", exponents, whitespace,
# inf, nan, and non-ASCII digits and spaces (Arabic-Indic one, a no-break space)
CELL_PIECES = list("0123456789" * 3 + ".-+eE_ \t\r") + ["inf", "nan", "\u0661", "\u00a0"]


def power_of_two_neighbours():
    """Each 2**e for e in -20..62 and its nearest double either side."""
    values = []
    for e in range(-20, 63):
        x = 2.0**e
        values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    return values


class TestNumpyReader:
    """parse_vector against float(): the same bits, or the same message."""

    def test_every_text_goes_through_read_block(self, monkeypatch):
        blocks = []
        read_block = cli._read_block
        monkeypatch.setattr(cli, "_read_block", lambda *a: blocks.append(a) or read_block(*a))
        # short, long and non-ASCII texts alike
        for text in ["1", "-2.5,3", "1," * 4095 + "1", "1,\u0661", "\u00a0 7\n", "1,\udcff"]:
            blocks.clear()
            assert_reads_like_reference(text)
            assert len(blocks) == 1, text

    @pytest.mark.parametrize(
        "text", ["", ",", " ", "\n\n"], ids=["empty", "comma", "space", "newlines"]
    )
    def test_blank_texts(self, text, capsys):
        got = parse_vector(text)
        assert got.dtype == np.float64 and got.shape == (0,)
        code, out, err = run_cli(capsys, ["project", "--p", "1", "--inline", text])
        assert (code, out, err) == (EXIT_DIMENSION, None, "error: vec must have dimension >= 1\n")

    def test_lone_surrogate_cell(self, capsys):
        argv = ["project", "--p", "1", "--q", "1", "--inline", "1,\udcff"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (EXIT_PARSE, None)
        want = "could not convert string to float: '\\udcff'"
        assert err == f"error: malformed number in vector: {want}\n"

    @pytest.mark.parametrize("where", ["first", "inside", "last"])
    @pytest.mark.parametrize("cell", READER_TRAPS)
    def test_named_cells(self, cell, where):
        text = {
            "first": f"{cell},{FILLER}",
            "inside": f"0.5,-2.25\n{cell}\n{FILLER}",
            "last": f"{FILLER}\n{cell}",
        }[where]
        assert_reads_like_reference(text)

    @pytest.mark.parametrize("form", ["%.17g", "%r"])
    def test_power_of_two_neighbours(self, form):
        values = power_of_two_neighbours()
        cells = [form % v for v in values + [-v for v in values]]
        assert_reads_like_reference(",".join(cells))

    def test_halfway_strings(self):
        # the exact midpoint (2m + 1) * 2**(e - 53) of the doubles m * 2**(e - 52)
        # and (m + 1) * 2**(e - 52), for e in 49..62 (at most 20 digits), and
        # its neighbours in the last digit
        rng = np.random.default_rng(41)
        cells = []
        for e in range(49, 63):
            frac = max(53 - e, 0)
            for m in rng.integers(2**52, 2**53, 40).tolist():
                mid = (2 * m + 1) * 5**frac if frac else (2 * m + 1) << (e - 53)
                for digits in map(str, (mid - 1, mid, mid + 1)):
                    cells.append(f"{digits[:-frac]}.{digits[-frac:]}" if frac else digits)
        assert_reads_like_reference("\n".join(cells))

    def test_blocks_and_blank_cells(self):
        # several reader blocks, blank and whitespace cells among them
        rng = np.random.default_rng(42)
        values = rng.standard_normal(40_000) * 10.0 ** rng.integers(-5, 17, 40_000)
        cells = ["%.17g" % v for v in values.tolist()]
        for i in rng.integers(0, len(cells), 200).tolist():
            cells[i] = rng.choice(["", " ", "\r", "1e3", " -2 "])
        assert_reads_like_reference(",".join(cells) + ",\n\n")

    @pytest.mark.parametrize(
        "text",
        [
            # an empty cell, then one longer than a block
            "," + "1" * (_READ_BLOCK + 10) + "," + FILLER,
            "\n".join(["0.25", "-1"] * (_READ_BLOCK // 6)),
            "," * (_READ_BLOCK + 10),
            "1" * 8192,
            "\n" * 10 + FILLER + "\n" * 10,
            # mostly cells for float(): from the first block, or a later one
            FILLER.replace(",", "\r\n"),
            "0.25," * (_READ_BLOCK // 4) + ",".join(["1e-30", " 2"] * (_READ_BLOCK // 8)) + ",x",
        ],
        ids=[
            "long-cell", "newlines-only", "separators-only", "one-cell",
            "blank-lines", "crlf", "later-block",
        ],
    )
    def test_block_edges(self, text):
        assert_reads_like_reference(text)

    @given(
        cells=st.lists(
            st.one_of(
                st.lists(st.sampled_from(CELL_PIECES), max_size=6).map("".join),
                st.from_regex(r"-?[0-9]{0,21}\.?[0-9]{0,21}", fullmatch=True),
            ),
            min_size=1,
            max_size=20,
        ),
        seps=st.lists(st.sampled_from([",", "\n"]), min_size=20, max_size=20),
        head=st.sampled_from(["", "0.5,", "-1.25\n3,"]),
        padded=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_cells_read_like_reference(self, cells, seps, head, padded):
        text = head + "".join(c + s for c, s in zip(cells, seps)) + (FILLER if padded else "")
        assert_reads_like_reference(text)


class _CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


class TestEmit:
    """`_emit` makes every piece of the document before it writes any."""

    def test_traced_peak_within_one_and_a_half_outputs(self, monkeypatch):
        # the p = q = 10 000 interior certificate, about 1.5 MB of JSON; as
        # one concatenated document the writer peaked at 3.0 times that
        rng = np.random.default_rng(3)
        z = rng.standard_normal(10_000) + 3.0
        w = rng.standard_normal(10_000)
        w *= 10.0 / np.sqrt(np.sum(w * w))
        cert = project_mesoc(z, w)
        assert cert.case is ProjectionCase.INTERIOR
        payload = {"cone": "mesoc", **cert.to_dict()}
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _emit(payload)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert sink.written == len(format_json(payload)) + 1
        assert peak <= 1.5 * sink.written, peak / sink.written

    def test_rejected_value_writes_nothing(self, capsys):
        with pytest.raises(OverflowError, match="non-finite value inf in JSON output"):
            _emit({"a": [1.0], "b": [math.inf], "c": 2.0})
        assert capsys.readouterr().out == ""


class TestPipeChecker:
    """`scripts/cli_pipe_check.py`, which CI pipes `mesoc project` into."""

    def test_accepts_library_output_and_rejects_one_ulp(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "cli_pipe_check.py"
        checker = runpy.run_path(str(script))
        vec = tmp_path / "vec.txt"
        checker["write"](str(vec))
        vals = parse_vector(vec.read_text())
        cert = project_mesoc(vals[:10_000], vals[10_000:])
        assert checker["problems"](format_json(cert.to_dict()), str(vec)) == []
        for key, source in (("primal", "the library"), ("input", "the file")):
            bad = cert.to_dict()
            bad[key][7] = math.nextafter(bad[key][7], math.inf)
            assert checker["problems"](format_json(bad), str(vec)) == [
                f"{key} differs from {source} in 1 entries"
            ]
        bad = cert.to_dict()
        bad["moreau_additive_residual"] = math.nextafter(cert.moreau_additive_residual, 1.0)
        assert checker["problems"](format_json(bad), str(vec)) == [
            f"moreau_additive_residual is {bad['moreau_additive_residual']!r}, "
            f"the library gives {cert.moreau_additive_residual!r}"
        ]


class TestProject:
    def test_lorentz_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys, ["project", "--p", "1", "--q", "2", "--inline", "1,2,0"]
        )
        assert code == EXIT_OK
        assert out["case"] == "Interior"
        np.testing.assert_allclose(out["primal"], [1.5, 1.5, 0.0], atol=1e-12)

    def test_q_zero_uses_monotone_nonneg(self, capsys):
        code, out, _ = run_cli(
            capsys, ["project", "--p", "2", "--q", "0", "--inline", "1,2"]
        )
        assert code == EXIT_OK
        np.testing.assert_allclose(out["primal"], [1.5, 1.5], atol=1e-12)

    def test_dual_cone_projection(self, capsys):
        # leading-dash vectors need the = form or argparse reads them as flags
        code, out, _ = run_cli(
            capsys,
            ["project", "--cone", "mesoc-dual", "--p", "2", "--q", "1", "--inline=-1,2,0.5"],
        )
        assert code == EXIT_OK
        assert out["violation"] <= 1e-9
        assert len(out["projection"]) == 3

    def test_vector_cone_projection(self, capsys):
        code, out, _ = run_cli(
            capsys, ["project", "--cone", "monotone", "--p", "3", "--inline", "1,3,2"]
        )
        assert code == EXIT_OK
        np.testing.assert_allclose(out["projection"], [2.0, 2.0, 2.0], atol=1e-12)

    def test_vector_cone_rejects_norm_block(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["project", "--cone", "monotone", "--p", "2", "--q", "1", "--inline", "1,2,3"],
        )
        assert code == EXIT_DIMENSION
        assert "error:" in err

    def test_malformed_number_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["project", "--p", "1", "--q", "1", "--inline", "1,zebra"]
        )
        assert code == EXIT_PARSE
        assert "malformed" in err

    def test_length_mismatch_exits_3(self, capsys):
        code, _, _ = run_cli(
            capsys, ["project", "--p", "2", "--q", "2", "--inline", "1,2,3"]
        )
        assert code == EXIT_DIMENSION

    def test_inline_and_file_conflict(self, capsys, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1,2")
        code, _, _ = run_cli(
            capsys,
            ["project", "--p", "2", "--inline", "1,2", "--file", str(path)],
        )
        assert code == EXIT_PARSE

    def test_neither_input_source(self, capsys):
        code, _, _ = run_cli(capsys, ["project", "--p", "2"])
        assert code == EXIT_PARSE

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3\n1\n2\n")
        code, out, _ = run_cli(
            capsys, ["project", "--cone", "monotone", "--p", "3", "--file", str(path)]
        )
        assert code == EXIT_OK
        np.testing.assert_allclose(out["projection"], [3.0, 1.5, 1.5], atol=1e-12)

    @pytest.mark.parametrize("where", ["missing", "directory"])
    @pytest.mark.parametrize("verb", ["project", "check", "solve-portfolio"])
    def test_missing_file_exits_2(self, capsys, tmp_path, verb, where):
        # every verb that reads --file blames an unreadable one as exit 2
        path = tmp_path / "absent.txt" if where == "missing" else tmp_path
        dims = [] if verb == "solve-portfolio" else ["--p", "2"]
        code, out, err = run_cli(capsys, [verb, *dims, "--file", str(path)])
        assert code == EXIT_PARSE
        assert out is None
        assert err.count("\n") == 1
        assert err.startswith(f"error: cannot read {path}: ")

    @pytest.mark.parametrize(
        "cone", ["mesoc-dual", "monotone", "monotone-dual", "monotone-nonneg",
                 "monotone-nonneg-dual"],
    )
    def test_plain_cone_payload_frozen(self, capsys, cone):
        # one payload for the five plain cones, byte for byte as each was built
        vec = np.random.default_rng(3).standard_normal(7)
        p, q = (4, 3) if cone == "mesoc-dual" else (7, 0)
        code = main(["project", "--cone", cone, "--p", str(p), "--q", str(q), inline(vec)])
        assert code == EXIT_OK
        want = format_json(reference_project_payload(cone, p, q, vec)) + "\n"
        assert capsys.readouterr().out == want

    def test_output_is_deterministic(self, capsys):
        argv = ["project", "--p", "3", "--q", "2", "--inline", "0.3,-1.7,2.2,0.9,-0.4"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestCheck:
    def test_member_exits_0(self, capsys):
        code, out, _ = run_cli(
            capsys, ["check", "--p", "2", "--q", "1", "--inline", "2,1,1"]
        )
        assert code == EXIT_OK
        assert out["member"] is True

    def test_non_member_exits_1(self, capsys):
        code, out, _ = run_cli(
            capsys, ["check", "--p", "2", "--q", "1", "--inline", "0,1,0"]
        )
        assert code == EXIT_VIOLATION
        assert out["member"] is False
        assert out["violation"] > 0

    def test_vector_cone_check(self, capsys):
        code, out, _ = run_cli(
            capsys, ["check", "--cone", "monotone-dual", "--p", "2", "--inline", "1,-1"]
        )
        assert code == EXIT_OK
        assert out["member"] is True

    @pytest.mark.parametrize(
        "cone",
        ["mesoc", "mesoc-dual", "monotone", "monotone-dual", "monotone-nonneg",
         "monotone-nonneg-dual"],
    )
    def test_member_is_violation_within_tol(self, capsys, cone):
        p, q = (3, 2) if cone.startswith("mesoc") else (4, 0)
        dims = ["--cone", cone, "--p", str(p), "--q", str(q)]
        rng = np.random.default_rng(13)
        codes = set()
        for tol in ("0", "1e-9", "0.5"):
            for _ in range(20):
                # projections are members; moves off them may or may not be
                _, out, _ = run_cli(capsys, ["project", *dims, inline(rng.standard_normal(p + q))])
                proj = np.asarray(out["primal" if cone == "mesoc" else "projection"])
                moved = proj + rng.choice([0.0, 1e-3, 1.0]) * rng.standard_normal(p + q)
                code, out, _ = run_cli(capsys, ["check", *dims, inline(moved), f"--tol={tol}"])
                assert out["member"] == (out["violation"] <= float(tol))
                assert code == (EXIT_OK if out["member"] else EXIT_VIOLATION)
                codes.add(code)
        assert codes == {EXIT_OK, EXIT_VIOLATION}
        code, _, _ = run_cli(capsys, ["check", *dims, inline(proj), "--tol=-1e-3"])
        assert code == EXIT_PARSE
        if q == 0:
            wide = ["--cone", cone, "--p", str(p), "--q", "1"]
            code, _, _ = run_cli(capsys, ["check", *wide, inline(np.ones(p + 1))])
            assert code == EXIT_DIMENSION

    def test_round_trip_project_then_check(self, capsys):
        # the emitted primal and dual factors must pass membership at the same tol
        rng = np.random.default_rng(7)
        vec = rng.standard_normal(7)
        inline = ",".join(format(v, ".17g") for v in vec)
        code, cert, _ = run_cli(
            capsys, ["project", "--p", "4", "--q", "3", "--inline", inline]
        )
        assert code == EXIT_OK
        primal = ",".join(format(v, ".17g") for v in cert["primal"])
        dual = ",".join(format(v, ".17g") for v in cert["dual_of_neg"])
        code, _, _ = run_cli(
            capsys, ["check", "--p", "4", "--q", "3", "--inline", primal]
        )
        assert code == EXIT_OK
        code, _, _ = run_cli(
            capsys,
            ["check", "--cone", "mesoc-dual", "--p", "4", "--q", "3", "--inline", dual],
        )
        assert code == EXIT_OK


def faulty_vector_inputs():
    """(argv, exit code) for check and project with exactly one fault each."""
    cases = []
    for verb in ("check", "project"):
        for cone, p, q in (("mesoc", 2, 1), ("mesoc-dual", 2, 1), ("monotone-dual", 3, 0)):
            good = ["--cone", cone, "--p", str(p), "--q", str(q), "--inline", "3,2,1"]
            for cells, code in (
                ("3,2,x", EXIT_PARSE),
                ("3,nan,1", EXIT_PARSE),
                ("1e999,2,1", EXIT_PARSE),
                ("3,2", EXIT_DIMENSION),
                ("3,2,1,0", EXIT_DIMENSION),
                (",", EXIT_DIMENSION),
            ):
                cases.append(([verb, *good[:-1], cells], code))
            cases.append(([verb, *good, "--p", "0"], EXIT_DIMENSION))
            cases.append(([verb, *good, "--q", "-1" if q else "1"], EXIT_DIMENSION))
    for tol in ("-1", "inf", "nan"):
        cases.append(
            (["check", "--p", "2", "--q", "1", "--inline", "3,2,1", f"--tol={tol}"], EXIT_PARSE)
        )
    return cases


class TestExitCodes:
    @pytest.mark.parametrize("argv, code", faulty_vector_inputs())
    def test_check_and_project(self, capsys, argv, code):
        assert run_cli(capsys, argv)[0] == code

    @pytest.mark.parametrize(
        "flags, code",
        [
            (["--p", "0"], EXIT_DIMENSION),
            (["--q", "-1"], EXIT_DIMENSION),
            (["--count", "-1"], EXIT_DIMENSION),
            (["--p", "9"], EXIT_DIMENSION),
            (["--seed", "-1"], EXIT_PARSE),
            (["--tol", "-1"], EXIT_PARSE),
            (["--tol", "inf"], EXIT_PARSE),
        ],
    )
    def test_oracle_compare(self, capsys, flags, code):
        assert run_cli(capsys, ["oracle-compare", "--count", "1", *flags])[0] == code

    @pytest.mark.parametrize("verb", ["project", "check"])
    def test_norm_overflow_exits_6(self, capsys, verb):
        # ||u|| is about 2.1e308, above the largest double
        code, out, err = run_cli(
            capsys, [verb, "--p", "1", "--q", "2", "--inline", "1,1.5e308,1.5e308"]
        )
        assert code == EXIT_OVERFLOW
        assert out is None
        assert err.count("\n") == 1
        assert err.startswith("error: norm exceeds the float range")

    def test_block_sum_overflow_exits_0(self, capsys):
        # the block sum 1e308 + 1.7e308 is above the largest double, but
        # the block mean is not: the kernel pools again at 2^-2 scale.
        # (With --cone mesoc the same fit gives a NaN orthogonality
        # residual, which test_certificate_overflow_exits_6 covers.)
        code, out, err = run_cli(
            capsys, ["project", "--cone", "monotone", "--p", "2", "--inline", "1e308,1.7e308"]
        )
        assert code == EXIT_OK
        assert err == ""
        assert out["projection"] == [1.35e308, 1.35e308]
        assert out["violation"] == 0

    @pytest.mark.parametrize(
        "cone, z",
        [
            ("mesoc", [-1.7e308, 1.7e308, 1.7e308]),
            ("mesoc-dual", [1.7e308, -1.7e308, -1.7e308]),
            ("monotone-dual", [1.7e308, -1.7e308, -1.7e308]),
            ("monotone-nonneg-dual", [1.7e308, -1.7e308, -1.7e308]),
        ],
        ids=["mesoc", "mesoc-dual", "monotone-dual", "monotone-nonneg-dual"],
    )
    def test_moreau_half_overflow_exits_6(self, capsys, cone, z):
        # finite input whose dual half primal - input is above the float
        # range: an overflow, not an input that "contains NaN or Inf"
        code, out, err = run_cli(
            capsys, ["project", "--cone", cone, "--p", "3", "--q", "0", inline(z)]
        )
        assert code == EXIT_OVERFLOW
        assert out is None
        assert err.count("\n") == 1
        assert err.startswith("error: a Moreau dual half exceeds the float range")

    @pytest.mark.parametrize(
        "flags, code",
        [
            (["--cone", "monotone", "--p", "2", "--inline=-1e308,1.7e308"], EXIT_OVERFLOW),
            (["--cone", "mesoc", "--p", "1", "--q", "1", "--inline=-1.7e308,1e308"], EXIT_OVERFLOW),
            (["--cone", "mesoc-dual", "--p", "2", "--inline=-1.7e308,-1.7e308"], EXIT_OVERFLOW),
            (["--cone", "monotone-nonneg-dual", "--p", "2", "--inline=1.7e308,1.7e308"], EXIT_OK),
        ],
        ids=["monotone", "mesoc", "mesoc-dual", "monotone-nonneg-dual"],
    )
    def test_violation_overflow_exits_6(self, capsys, flags, code):
        # x_2 - x_1, ||u|| - x_1 and -sum(y) are about 2.7e308 or more: the
        # violation of a finite point overflows, which is neither a parse
        # error nor a JSON value. sum(y) = +inf breaks no rule, so the last
        # point is a member. numpy must not warn on the way (pytest would
        # make that an error).
        got, out, err = run_cli(capsys, ["check", *flags])
        assert got == code
        if code == EXIT_OK:
            assert out["violation"] == 0.0 and err == ""
            return
        assert out is None
        assert err.count("\n") == 1
        assert err.startswith("error: a cone violation exceeds the float range")

    def test_model_domain_exits_5(self, capsys, tmp_path):
        # well-formed data outside the model: neither a parse nor a dimension error
        path = tmp_path / "r.csv"
        path.write_text("0.5,0.0\n0.0,0.25\n0.25,0.5\n")
        code, out, err = run_cli(capsys, ["solve-portfolio", "--file", str(path), "--c0", "0"])
        assert code == EXIT_DOMAIN
        assert out is None
        assert err.count("\n") == 1
        assert err.startswith("error: risk aversion must be positive")

    def test_certificate_overflow_exits_6(self, capsys):
        # finite input whose orthogonality residual overflows to NaN: the
        # JSON writer blames the overflow, not the parsing
        code, out, err = run_cli(
            capsys, ["project", "--p", "2", "--q", "2", "--inline=1e300,-1e300,1e300,1e300"]
        )
        assert code == EXIT_OVERFLOW
        assert out is None
        assert err.count("\n") == 1
        assert err.startswith("error: non-finite value nan in JSON output")


class TestOracleCompare:
    def test_small_run_is_clean(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["oracle-compare", "--p", "3", "--q", "2", "--count", "5", "--seed", "1"],
        )
        assert code == EXIT_OK
        assert len(out["rows"]) == 5
        assert out["max_deviation"] <= out["tol"]
        assert all(row["converged"] for row in out["rows"])

    def test_count_zero_empty_table(self, capsys):
        code, out, _ = run_cli(capsys, ["oracle-compare", "--count", "0"])
        assert code == EXIT_OK
        assert out["rows"] == []
        assert out["max_deviation"] == 0.0

    def test_seed_determinism(self, capsys):
        argv = ["oracle-compare", "--p", "2", "--q", "2", "--count", "4", "--seed", "9"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_dimension_cap(self, capsys):
        code, _, err = run_cli(capsys, ["oracle-compare", "--p", "9", "--q", "2"])
        assert code == EXIT_DIMENSION
        assert "capped" in err

    def test_unreachable_tol_exits_1(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["oracle-compare", "--p", "3", "--q", "3", "--count", "3", "--tol", "1e-18"],
        )
        assert code == EXIT_VIOLATION
        assert out["max_deviation"] > 1e-18


class TestSolvePortfolio:
    def write_csv(self, tmp_path, with_probs=False):
        path = tmp_path / "returns.csv"
        if with_probs:
            path.write_text("0.5,0.5,0.0\n0.25,0.0,0.25\n0.25,0.25,0.5\n")
        else:
            path.write_text("0.5,0.0\n0.0,0.25\n0.25,0.5\n")
        return str(path)

    def test_solves_csv(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, ["solve-portfolio", "--file", self.write_csv(tmp_path)]
        )
        assert code == EXIT_OK
        w = np.asarray(out["w"])
        assert w.shape == (2,)
        assert abs(w.sum() - 1.0) <= 1e-9
        assert out["converged"] is True
        assert out["residuals"]["sum_u"] <= 1e-7
        assert out["residuals"]["cone"] <= 1e-7

    def test_default_output_frozen(self, capsys, tmp_path):
        # the bytes written when every solver setting had a default
        code = main(["solve-portfolio", "--file", self.write_csv(tmp_path)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == (
            '{\n  "w": [\n    0.5,\n    0.5\n  ],\n'
            '  "y": [\n    0.25,\n    0.25,\n    0.25\n  ],\n'
            '  "objective": 2.5366340893923816e-18,\n'
            '  "mad_objective": -0.16666666666666669,\n'
            '  "residuals": {\n    "sum_u": 0,\n    "cone": 0\n  },\n'
            '  "iterations": 200,\n  "converged": true,\n  "jstar": 0,\n'
            '  "uscale": 0.35355339059327379,\n  "jstar_stable": true,\n'
            '  "outer_iterations": 1\n}\n'
        )

    def test_probabilities_column(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            [
                "solve-portfolio",
                "--file", self.write_csv(tmp_path, with_probs=True),
                "--probabilities-column", "0",
            ],
        )
        assert code == EXIT_OK
        assert len(out["w"]) == 2

    def test_missing_file_flag(self, capsys):
        code, _, err = run_cli(capsys, ["solve-portfolio"])
        assert code == EXIT_PARSE
        assert "--file" in err

    def test_non_numeric_cell_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,0.2\nx,0.4\n")
        code, _, _ = run_cli(capsys, ["solve-portfolio", "--file", str(path)])
        assert code == EXIT_PARSE

    def test_ragged_rows_exit_3(self, capsys, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.1,0.2\n0.3\n")
        code, _, _ = run_cli(capsys, ["solve-portfolio", "--file", str(path)])
        assert code == EXIT_DIMENSION

    @pytest.mark.parametrize(
        "rows, c0",
        [
            ("0.5,0.0\n0.0,0.25\n0.25,0.5\n", "0"),
            ("0.5,0.0\n0.0,0.25\n0.25,0.5\n", "-1"),
            ("0.5,0.0\n0.0,0.25\n0.25,0.5\n", "nan"),
            ("0.5,0.0\n0.0,0.25\n0.25,0.5\n", "inf"),
            ("0.1,0.2\n0.1,0.2\n", "1"),  # every scenario equal: j* has no deviation
        ],
    )
    def test_model_domain_exits_5(self, capsys, tmp_path, rows, c0):
        path = tmp_path / "r.csv"
        path.write_text(rows)
        code, out, err = run_cli(
            capsys, ["solve-portfolio", "--file", str(path), f"--c0={c0}"]
        )
        assert code == EXIT_DOMAIN
        assert out is None
        assert "error:" in err

    def test_inner_cycle_cap_exits_0(self, capsys, tmp_path, monkeypatch):
        # Dykstra runs stopped by the cap still leave an exactly feasible answer
        monkeypatch.setattr(portfolio, "_INNER_MAX_CYCLES", 1)
        code, out, _ = run_cli(
            capsys, ["solve-portfolio", "--file", self.write_csv(tmp_path)]
        )
        assert code == EXIT_OK
        assert out["converged"] is True
        assert out["residuals"] == {"sum_u": 0, "cone": 0}

    def test_impossible_tolerance_exits_4(self, capsys, tmp_path, monkeypatch):
        # non-dyadic returns leave a rounding residual ~1e-16 that can never
        # meet this tolerance, so the solver must report failure
        monkeypatch.setattr(portfolio, "_FEAS_TOL", 1e-30)
        path = tmp_path / "r.csv"
        path.write_text("0.3,0.1\n0.0,0.4\n0.2,0.7\n")
        code, out, _ = run_cli(capsys, ["solve-portfolio", "--file", str(path)])
        assert code == EXIT_NONCONVERGENCE
        assert out["converged"] is False
