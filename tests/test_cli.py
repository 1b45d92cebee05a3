import json
import os

import numpy as np
import pytest

from mesoc import portfolio
from mesoc.cli import (
    EXIT_DIMENSION,
    EXIT_DOMAIN,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_OVERFLOW,
    EXIT_PARSE,
    EXIT_VIOLATION,
    format_json,
    main,
    parse_vector,
)
from mesoc.projection import mesoc_dual_violation, project_mesoc, project_mesoc_dual
from support import reference_format_json

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
        ],
    )
    def test_same_bytes_as_reference(self, value):
        got, want = format_json(value), reference_format_json(value)
        if got != want:
            # report the first difference; pytest's diff of megabyte strings never ends
            at = len(os.path.commonprefix([got, want]))
            pytest.fail(f"bytes differ at {at}: {got[at:at + 40]!r} != {want[at:at + 40]!r}")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_in_long_list_raises(self, bad):
        values = [0.1] * 5000 + [bad] + [0.2] * 5000
        with pytest.raises(ValueError) as want:
            reference_format_json(values)
        with pytest.raises(OverflowError) as got:
            format_json({"xs": np.array(values)})
        assert str(got.value) == str(want.value)


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

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, ["project", "--p", "2", "--file", str(tmp_path / "absent.txt")]
        )
        assert code == EXIT_PARSE

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
