import numpy as np
import pytest

from mesoc.cones import DimensionError
from mesoc.portfolio import (
    SolverConfig,
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

    def test_w0_must_sum_to_one(self):
        with pytest.raises(ValueError):
            build_mad_model(load_scenarios(R22), c0=1.0, w0=[2.0, 0.5])

    @pytest.mark.parametrize("w0", [[np.nan, np.nan, 1.0], [np.inf, -np.inf, 1.0]])
    def test_non_finite_w0_rejected(self, w0):
        # the sum check alone lets these through: NaN compares false
        data = load_scenarios(np.random.default_rng(51).normal(0.01, 0.05, (5, 3)))
        with pytest.raises(ValueError, match="w0 contains NaN or Inf"):
            build_mad_model(data, c0=1.0, w0=w0)
        with pytest.raises(ValueError, match="w0 contains NaN or Inf"):
            refine_jstar(data, 1.0, w_init=w0)

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

    def test_divergence_guard_flags_nonconvergence(self):
        rng = np.random.default_rng(56)
        _, model = bounded_instance(rng, 3, 3)
        sol = solve_mad(model, SolverConfig(divergence_bound=1e-6))
        assert not sol.converged

    def test_polish_off_still_feasible(self):
        rng = np.random.default_rng(57)
        _, model = bounded_instance(rng, 4, 2)
        sol = solve_mad(model, SolverConfig(polish=False))
        assert sol.feasibility.max_residual <= 1e-7


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

    def test_max_outer_one_runs_single_solve(self):
        rng = np.random.default_rng(58)
        data, model = bounded_instance(rng, 5, 4)
        sol = refine_jstar(data, model.c0, max_outer=1)
        assert sol.outer_iterations == 1
        assert sol.jstar_stable in (True, False)

    def test_stable_result_is_self_consistent(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            data, model = bounded_instance(rng, rng.integers(2, 6), rng.integers(2, 6))
            sol = refine_jstar(data, model.c0)
            if sol.jstar_stable:
                refit = build_mad_model(data, model.c0, w0=sol.w)
                assert refit.jstar == sol.jstar

    def test_invalid_max_outer(self):
        with pytest.raises(ValueError):
            refine_jstar(load_scenarios(R22), c0=1.0, max_outer=0)

    def test_deterministic(self):
        rng = np.random.default_rng(60)
        data, model = bounded_instance(rng, 4, 3)
        a = refine_jstar(data, model.c0)
        b = refine_jstar(data, model.c0)
        assert np.array_equal(a.w, b.w) and a.objective == b.objective
