import numpy as np
import pytest

from mesoc import portfolio
from mesoc.cones import DimensionError
from mesoc.oracle import dykstra_callables
from mesoc.portfolio import (
    build_mad_model,
    load_scenarios,
    read_returns_csv,
    refine_jstar,
    solve_mad,
)
from mesoc.projection import MesocPoint, mesoc_contains
from support import feasible_portfolio_point, random_weights

R22 = np.array([[0.1, 0.0], [-0.1, 0.2]])


def conic_objective(model, point):
    # recomputed independently of the solver
    T = model.n_scenarios
    cost = np.concatenate([model.cone_costs, -model.r / model.uscale])
    return float(np.dot(cost, point))


def bounded_instance(rng, T, n, margin=0.1):
    """Random scenarios with c0 large enough that the model is bounded below."""
    data = load_scenarios(rng.normal(0.01, 0.05, (T, n)))
    probe = build_mad_model(data, 1.0)
    r_perp = float(np.linalg.norm(probe.r - probe.r.mean()))
    c0 = (r_perp + margin) / probe.uscale + margin
    return data, build_mad_model(data, c0)


def unbounded_model():
    """bounded_instance's scenario recipe with c0 too small for a bounded model."""
    data = load_scenarios(np.random.default_rng(61).normal(0.01, 0.05, (5, 4)))
    return build_mad_model(data, 1e-3)


class TestLoadScenarios:
    def test_uniform_default(self):
        data = load_scenarios(R22)
        np.testing.assert_array_equal(data.probabilities, [0.5, 0.5])
        assert data.n_scenarios == 2 and data.n_assets == 2

    def test_probabilities_not_summing_rejected(self):
        with pytest.raises(ValueError):
            load_scenarios(R22, [0.5, 0.4])

    def test_probabilities_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            load_scenarios(R22, [1.5, -0.5])

    def test_probability_length_mismatch(self):
        with pytest.raises(DimensionError):
            load_scenarios(R22, [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            load_scenarios([[np.nan, 0.0]])

    def test_non_matrix_rejected(self):
        with pytest.raises(DimensionError):
            load_scenarios([0.1, 0.2])


class TestReadReturnsCsv:
    def test_plain_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("0.1,0.0\n-0.1,0.2\n")
        data = read_returns_csv(path)
        np.testing.assert_allclose(data.returns, R22)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("asset_a,asset_b\n0.1,0.0\n-0.1,0.2\n")
        data = read_returns_csv(path)
        np.testing.assert_allclose(data.returns, R22)

    def test_probabilities_column_split_off(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b,prob\n0.1,0.0,0.25\n-0.1,0.2,0.75\n")
        data = read_returns_csv(path, probabilities_column=2)
        np.testing.assert_allclose(data.returns, R22)
        np.testing.assert_array_equal(data.probabilities, [0.25, 0.75])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("0.1,0.0\n-0.1\n")
        with pytest.raises(DimensionError):
            read_returns_csv(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("0.1,0.0\n-0.1,oops\n")
        with pytest.raises(ValueError):
            read_returns_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_returns_csv(path)

    def test_probability_column_out_of_range(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("0.1,0.0\n")
        with pytest.raises(DimensionError):
            read_returns_csv(path, probabilities_column=5)


class TestBuildMadModel:
    def test_expected_return_uniform(self):
        model = build_mad_model(load_scenarios(R22), c0=1.0)
        np.testing.assert_allclose(model.r, [0.0, 0.1], atol=1e-15)

    def test_expected_return_weighted(self):
        model = build_mad_model(load_scenarios(R22, [0.25, 0.75]), c0=1.0)
        np.testing.assert_allclose(model.r, [-0.05, 0.15], atol=1e-15)

    def test_deviations_probability_weighted_to_zero(self):
        rng = np.random.default_rng(50)
        probs = rng.dirichlet(np.ones(6))
        data = load_scenarios(rng.standard_normal((6, 4)), probs)
        model = build_mad_model(data, c0=1.0)
        np.testing.assert_allclose(probs @ model.U, np.zeros(4), atol=1e-10)

    def test_jstar_picks_least_exposed_scenario(self):
        # dyadic entries keep the arithmetic exact: deviations are
        # (0.125,-0.0625) and (-0.375,0.1875), exposures 0.03125 < 0.09375
        data = load_scenarios(np.array([[0.5, 0.0], [0.0, 0.25]]), [0.75, 0.25])
        model = build_mad_model(data, c0=1.0)
        assert model.jstar == 0
        assert model.uscale == pytest.approx(np.hypot(0.125, 0.0625))

    def test_jstar_tie_breaks_to_smallest_index(self):
        data = load_scenarios(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        model = build_mad_model(data, c0=1.0)  # both scenarios give |U_j w| = 0
        assert model.jstar == 0

    def test_degenerate_zero_deviation_rejected(self):
        with pytest.raises(ValueError):
            build_mad_model(load_scenarios(np.array([[0.1, 0.1], [0.1, 0.1]])), c0=1.0)

    def test_nonpositive_c0_rejected(self):
        with pytest.raises(ValueError):
            build_mad_model(load_scenarios(R22), c0=0.0)

    @pytest.mark.parametrize("c0", [np.nan, np.inf, -np.inf])
    def test_non_finite_c0_rejected(self, c0):
        # c0 <= 0 alone lets NaN and +inf through to a failure deep in the solve
        with pytest.raises(portfolio.ModelDomainError, match="positive and finite"):
            build_mad_model(load_scenarios(R22), c0=c0)

    def test_w0_must_sum_to_one(self):
        with pytest.raises(ValueError):
            build_mad_model(load_scenarios(R22), c0=1.0, w0=[2.0, 0.5])

    @pytest.mark.parametrize("w0", [[np.nan, np.nan, 1.0], [np.inf, -np.inf, 1.0]])
    def test_non_finite_w0_rejected(self, w0):
        # the sum check alone lets these through: NaN compares false
        data = load_scenarios(np.random.default_rng(51).normal(0.01, 0.05, (5, 3)))
        with pytest.raises(ValueError, match="w0 contains NaN or Inf"):
            build_mad_model(data, c0=1.0, w0=w0)

    def test_cone_costs_are_reversed_probabilities(self):
        data = load_scenarios(np.array([[0.2, 0.0], [0.0, 0.2], [0.1, -0.1]]), [0.2, 0.3, 0.5])
        model = build_mad_model(data, c0=2.0)
        np.testing.assert_array_equal(model.cone_costs, 2.0 * np.array([0.5, 0.3, 0.2]))


class TestSolveMad:
    def test_solution_is_feasible(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            T, n = rng.integers(2, 7), rng.integers(1, 7)
            _, model = bounded_instance(rng, T, n)
            sol = solve_mad(model)
            assert sol.converged
            assert sol.feasibility.max_residual <= 1e-7
            u = sol.w * sol.uscale
            assert abs(u.sum() - sol.uscale) <= 1e-7
            assert mesoc_contains(MesocPoint(sol.y[::-1], u), tol=1e-7)
            assert abs(sol.w.sum() - 1.0) <= 1e-7 / sol.uscale + 1e-12

    def test_dominates_uniform_portfolio(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            T, n = rng.integers(2, 7), rng.integers(2, 7)
            _, model = bounded_instance(rng, T, n)
            sol = solve_mad(model)
            uniform = feasible_portfolio_point(
                rng, T, model.uscale, np.full(n, 1.0 / n), collapsed=True
            )
            assert sol.objective <= conic_objective(model, uniform) + 1e-6

    def test_dominates_random_feasible_cloud(self):
        rng = np.random.default_rng(53)
        _, model = bounded_instance(rng, 4, 3)
        sol = solve_mad(model)
        T, n, s = model.n_scenarios, model.n_assets, model.uscale
        best = min(
            conic_objective(
                model,
                feasible_portfolio_point(
                    rng, T, s, random_weights(rng, n), collapsed=bool(rng.integers(2))
                ),
            )
            for _ in range(1000)
        )
        assert sol.objective <= best + 1e-6

    def test_large_c0_symmetric_assets_equal_weights(self):
        # symmetric two-asset scenarios: deviation is minimized at w1 = w2
        data = load_scenarios(np.array([[0.06, 0.0], [0.0, 0.06]]))
        model = build_mad_model(data, c0=50.0)
        sol = solve_mad(model)
        np.testing.assert_allclose(sol.w, [0.5, 0.5], atol=1e-9)

    def test_single_asset_analytic(self):
        data = load_scenarios(np.array([[0.1], [0.2], [0.4]]))
        model = build_mad_model(data, c0=1.5)
        sol = solve_mad(model)
        np.testing.assert_allclose(sol.w, [1.0], atol=1e-12)
        np.testing.assert_allclose(sol.y, np.full(3, model.uscale), atol=1e-12)
        analytic = 1.5 * model.uscale - model.r[0]
        assert sol.objective == pytest.approx(analytic, abs=1e-12)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(54)
        _, model = bounded_instance(rng, 5, 4)
        a = solve_mad(model)
        b = solve_mad(model)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.y, b.y)
        assert a.objective == b.objective
        assert a.iterations == b.iterations

    def test_mad_objective_reported_alongside(self):
        rng = np.random.default_rng(55)
        _, model = bounded_instance(rng, 4, 3)
        sol = solve_mad(model)
        f, U, r = model.probabilities, model.U, model.r
        expected = model.c0 * float(f @ np.abs(U @ sol.w)) - float(r @ sol.w)
        assert sol.mad_objective == pytest.approx(expected, abs=1e-12)

    def test_returns_in_large_units(self, monkeypatch):
        # Scaling R by a power of two scales r, U and s exactly, so the
        # closed-form w is unchanged and the objective scales with R. The
        # feasible start has norm s * sqrt((T + 1) / n), about 1.9e8 here:
        # the answer must not depend on the units the returns are given in.
        R = np.random.default_rng(7).normal(0.01, 0.05, (5, 3))
        monkeypatch.setattr(portfolio, "_MAX_ITER", 5)
        unit = solve_mad(build_mad_model(load_scenarios(R), 3.0))
        large = solve_mad(build_mad_model(load_scenarios(R * 2.0**33), 3.0))
        assert large.converged and large.iterations == 5
        assert np.array_equal(large.w, unit.w)
        assert large.objective == unit.objective * 2.0**33

    def test_unbounded_iterates_feasible(self):
        # no closed-form candidate here, so the answer is an iterate
        model = unbounded_model()
        assert portfolio._kkt_candidate(model) is None
        sol = solve_mad(model)
        assert sol.feasibility.sum_u_residual <= 1e-7
        assert sol.feasibility.cone_violation <= 1e-7


def _hexes(values):
    return [float(v).hex() for v in values]


class TestFrozenDefaults:
    """solve_mad and refine_jstar outputs, stored as float.hex. The first
    two were frozen from the solver whose step, inner tolerance, cycle cap,
    divergence bound and closed-form switch were solver settings; the
    rest from the solver that also pooled the averaged iterate and stopped
    at an iterate norm of 1e8."""

    def test_bounded_closed_form_wins(self):
        _, model = bounded_instance(np.random.default_rng(62), 4, 3)
        sol = solve_mad(model)
        assert _hexes(sol.w) == [
            "0x1.9fbfc40894d19p-2", "0x1.afbf08d3c0bd6p-3", "0x1.8860b78d8acfbp-2",
        ]
        assert _hexes(sol.y) == ["0x1.14b64875e691dp-6"] * 4
        assert sol.objective.hex() == "0x1.b8226d3b463f9p-4"
        assert sol.iterations == 200

    def test_unbounded_iterate_wins(self):
        sol = solve_mad(unbounded_model())
        assert _hexes(sol.w) == [
            "-0x1.18083b412be64p+4",
            "0x1.26267ace828e2p+4",
            "0x1.38228ab9caee2p+3",
            "-0x1.345f09d4783dep+3",
        ]
        assert _hexes(sol.y) == ["0x1.dbc1e30c156a3p+1"] * 5
        assert sol.objective.hex() == "-0x1.426c66e6a5852p+0"
        assert sol.iterations == 200

    def test_single_asset(self):
        data = load_scenarios(np.random.default_rng(63).normal(0.01, 0.05, (4, 1)))
        sol = solve_mad(build_mad_model(data, 1.0))
        assert _hexes(sol.w) == ["0x1.0000000000000p+0"]
        assert _hexes(sol.y) == ["0x1.3f8ca59eae010p-6"] * 4
        assert sol.objective.hex() == "-0x1.b0141593a8e7ap-8"
        assert sol.mad_objective.hex() == "0x1.13e183a8cb19ep-5"
        assert sol.iterations == 200 and sol.converged

    def test_bounded_best_iterate_wins(self):
        # the finished best iterate undercuts the closed form by one ulp
        _, model = bounded_instance(np.random.default_rng(60), 4, 3)
        sol = solve_mad(model)
        assert _hexes(sol.w) == [
            "0x1.1a7a559b9c2a7p-2", "0x1.4b86376ebcb74p-2", "0x1.99ff72f5a71e4p-2",
        ]
        assert _hexes(sol.y) == ["0x1.0486ddee6345bp-5"] * 4
        assert sol.objective.hex() == "0x1.a10941038fdcbp-5"
        assert sol.mad_objective.hex() == "0x1.d31fd7230a460p-6"
        assert sol.iterations == 200 and sol.converged

    def test_unbounded_single_step(self, monkeypatch):
        # after one step the best and the averaged iterate are the same
        # point, so the two had equal objectives
        monkeypatch.setattr(portfolio, "_MAX_ITER", 1)
        sol = solve_mad(unbounded_model())
        assert _hexes(sol.w) == [
            "-0x1.48888b55e32f6p-1",
            "0x1.292f02cec338bp+0",
            "0x1.746c2e7547d28p-1",
            "-0x1.f906a2f3ac518p-3",
        ]
        assert _hexes(sol.y) == ["0x1.946a57ae58fb4p-3"] * 5
        assert sol.objective.hex() == "-0x1.3e4a23f23443ep-4"
        assert sol.mad_objective.hex() == "-0x1.3eda281e62565p-4"
        assert sol.iterations == 1 and sol.converged

    def test_refine_jstar_two_rounds(self):
        data, model = bounded_instance(np.random.default_rng(102), 5, 4)
        sol = refine_jstar(data, model.c0)
        assert _hexes(sol.w) == [
            "0x1.20a26b20ed902p-8",
            "0x1.93a9a46cfe5c3p-2",
            "0x1.769eaab5307bep-2",
            "0x1.e26a4e629ae37p-3",
        ]
        assert _hexes(sol.y) == ["0x1.20e50b622c3c1p-5"] * 5
        assert sol.objective.hex() == "0x1.21085e96624a5p-6"
        assert sol.mad_objective.hex() == "-0x1.87047802b1e28p-8"
        assert (sol.jstar, sol.jstar_stable, sol.outer_iterations) == (1, True, 2)
        assert sol.iterations == 200 and sol.converged

    def test_unreached_limits_keep_their_values(self):
        # no Dykstra call of the instances above reaches the cycle cap (at
        # most 200 cycles), and their residuals sit far below the
        # feasibility tolerance, so their outputs cannot pin either
        assert portfolio._INNER_MAX_CYCLES == 20_000
        assert portfolio._FEAS_TOL == 1e-7


class TestRefineJstar:
    def test_single_scenario_is_degenerate(self):
        # with one scenario the deviation is identically zero, so the model
        # cannot be built at all; the invariant-jstar case needs T >= 2
        with pytest.raises(ValueError):
            refine_jstar(load_scenarios(np.array([[0.2, -0.1, 0.3]]), [1.0]), c0=1.0)

    def test_invariant_jstar_stabilizes_immediately(self):
        # two mirrored scenarios tie for every w, so jstar stays at 0;
        # dyadic entries keep the tie exact in floating point
        data = load_scenarios(np.array([[0.5, 0.0], [0.0, 0.25]]))
        sol = refine_jstar(data, c0=1.0)
        assert sol.jstar == 0 and sol.jstar_stable is True
        assert sol.outer_iterations == 1

    def test_stable_result_is_self_consistent(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            data, model = bounded_instance(rng, rng.integers(2, 6), rng.integers(2, 6))
            sol = refine_jstar(data, model.c0)
            if sol.jstar_stable:
                refit = build_mad_model(data, model.c0, w0=sol.w)
                assert refit.jstar == sol.jstar

    def test_inner_cycle_cap_keeps_answer_and_converged(self, monkeypatch):
        # converged is measured on the returned point alone, which both
        # candidates make exactly feasible however the Dykstra runs ended
        data = load_scenarios(np.array([[0.5, 0.0], [0.0, 0.25], [0.25, 0.5]]))
        full = refine_jstar(data, c0=1.0)
        stopped = []

        def dykstra(*args):
            rep = dykstra_callables(*args)
            stopped.append(not rep.converged)
            return rep

        monkeypatch.setattr(portfolio, "_INNER_MAX_CYCLES", 1)
        monkeypatch.setattr(portfolio, "dykstra_callables", dykstra)
        capped = refine_jstar(data, c0=1.0)
        assert any(stopped)
        assert capped.w.tobytes() == full.w.tobytes()
        assert capped.feasibility.max_residual == 0.0
        assert capped.converged and full.converged

    def test_deterministic(self):
        rng = np.random.default_rng(60)
        data, model = bounded_instance(rng, 4, 3)
        a = refine_jstar(data, model.c0)
        b = refine_jstar(data, model.c0)
        assert np.array_equal(a.w, b.w) and a.objective == b.objective
