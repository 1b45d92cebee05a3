"""End-to-end acceptance gate.

Each test checks one shipped guarantee at its stated tolerance and prints a
single summary line; run with `pytest -v -s tests/test_acceptance.py` to see
them. Test order matters only for the numbering of those lines.
"""

import time

import numpy as np
import pytest

from mesoc.cones import pava_nonincreasing, project_monotone_nonneg
from mesoc.oracle import dykstra_project, mesoc_pieces, monotone_nonneg_pieces
from mesoc.portfolio import load_scenarios, refine_jstar
from mesoc.projection import (
    ProjectionCase,
    complementarity_check,
    mesoc_contains,
    mesoc_dual_contains,
    project_mesoc,
)
from support import (
    abel_sum,
    brute_isotonic_nonincreasing,
    feasible_portfolio_point,
    random_weights,
    soc_project,
)


def _report(num, ok, detail):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def moreau_suite():
    """1000 random projections with p, q in 1..20; shared by three tests."""
    rng = np.random.default_rng(101)
    inputs = []
    for _ in range(1000):
        p = int(rng.integers(1, 21))
        q = int(rng.integers(1, 21))
        inputs.append((rng.standard_normal(p), rng.standard_normal(q)))
    t0 = time.perf_counter()
    certs = [project_mesoc(z, w) for z, w in inputs]
    elapsed = time.perf_counter() - t0
    return inputs, certs, elapsed


def test_moreau_decomposition_suite(moreau_suite):
    inputs, certs, elapsed = moreau_suite
    max_add = 0.0
    max_orth = 0.0
    members = 0
    for (z, w), cert in zip(inputs, certs):
        norm = float(np.linalg.norm(np.concatenate([z, w])))
        max_add = max(max_add, cert.moreau_additive_residual / (1.0 + norm))
        max_orth = max(max_orth, cert.moreau_orthogonality_residual / (1.0 + norm**2))
        if mesoc_contains(cert.primal, 1e-9) and mesoc_dual_contains(
            cert.dual_of_neg, 1e-9
        ):
            members += 1
    ok = max_add <= 1e-9 and max_orth <= 1e-8 and members == 1000 and elapsed < 5.0
    _report(
        1,
        ok,
        f"1000 decompositions: additive {max_add:.2e} (cap 1e-09), "
        f"orthogonality {max_orth:.2e} (cap 1e-08), memberships {members}/1000, "
        f"projection time {elapsed:.2f}s (cap 5s)",
    )


def test_closed_form_matches_alternating_projections():
    rng = np.random.default_rng(202)
    max_dev = 0.0
    all_converged = True
    t0 = time.perf_counter()
    for _ in range(100):
        p = int(rng.integers(1, 7))
        q = int(rng.integers(1, 7))
        z = rng.standard_normal(p)
        w = rng.standard_normal(q)
        exact = project_mesoc(z, w).primal.as_vector()
        rep = dykstra_project(mesoc_pieces(p, q), np.concatenate([z, w]))
        max_dev = max(max_dev, float(np.max(np.abs(exact - rep.point))))
        all_converged = all_converged and rep.converged
    elapsed = time.perf_counter() - t0
    ok = max_dev <= 1e-5 and all_converged and elapsed < 60.0
    _report(
        2,
        ok,
        f"100 instances p,q<=6: max deviation {max_dev:.2e} (cap 1e-05), "
        f"all converged {all_converged}, time {elapsed:.1f}s (cap 60s)",
    )


def test_lorentz_specialization():
    rng = np.random.default_rng(303)
    max_dev = 0.0
    for _ in range(1000):
        q = int(rng.integers(1, 21))
        t = float(rng.standard_normal())
        w = rng.standard_normal(q)
        primal = project_mesoc(np.array([t]), w).primal
        a, wa = soc_project(t, w)
        dev = max(abs(primal.x[0] - a), float(np.max(np.abs(primal.u - wa))))
        max_dev = max(max_dev, dev)
    ok = max_dev <= 1e-12
    _report(3, ok, f"p=1 vs closed-form SOC, 1000 draws: max deviation {max_dev:.2e} (cap 1e-12)")


def test_isotonic_regression_against_brute_force():
    rng = np.random.default_rng(404)
    max_brute = 0.0
    max_pos = 0.0
    max_dyk = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 6))
        z = rng.standard_normal(p)
        iso = pava_nonincreasing(z)
        brute = brute_isotonic_nonincreasing(z)
        max_brute = max(max_brute, float(np.max(np.abs(iso - brute))))
        pos = project_monotone_nonneg(z)
        max_pos = max(max_pos, float(np.max(np.abs(pos - np.maximum(iso, 0.0)))))
        rep = dykstra_project(monotone_nonneg_pieces(p), z)
        max_dyk = max(max_dyk, float(np.max(np.abs(pos - rep.point))))
    ok = max_brute <= 1e-12 and max_pos <= 1e-12 and max_dyk <= 1e-6
    _report(
        4,
        ok,
        f"200 inputs p<=5: vs partition brute force {max_brute:.2e} (cap 1e-12), "
        f"positive-part identity {max_pos:.2e} (cap 1e-12), "
        f"vs alternating projections {max_dyk:.2e} (cap 1e-06)",
    )


def test_interior_case_dimension_lift(moreau_suite):
    inputs, certs, _ = moreau_suite
    max_dev = 0.0
    count = 0
    for (z, w), cert in zip(inputs, certs):
        if cert.case is not ProjectionCase.INTERIOR:
            continue
        count += 1
        w_norm = float(np.linalg.norm(w))
        beta = 1.0 / (1.0 + cert.lam)
        lifted = project_monotone_nonneg(np.concatenate([z, [w_norm]]))
        dev = max(
            float(np.max(np.abs(lifted[:-1] - cert.primal.x))),
            abs(lifted[-1] - beta * w_norm),
        )
        max_dev = max(max_dev, dev)
    ok = count > 0 and max_dev <= 1e-9
    _report(
        5,
        ok,
        f"{count} interior instances: lifted isotonic reproduces (x, ||w||/(1+lambda)) "
        f"to {max_dev:.2e} (cap 1e-09)",
    )


def test_complementarity_conditions(moreau_suite):
    _, certs, _ = moreau_suite
    count = 0
    failures = 0
    for cert in certs:
        if cert.primal.u_norm == 0.0 or cert.dual_of_neg.u_norm == 0.0:
            continue
        count += 1
        rep = complementarity_check(cert.primal, cert.dual_of_neg, tol=1e-8)
        conditions = (
            rep.xp_equals_u_norm,
            rep.dual_sum_equals_v_norm,
            rep.uv_antiparallel,
            rep.shifted_pair_complementary,
        )
        if not (rep.ok and all(conditions)):
            failures += 1
    ok = count > 0 and failures == 0
    _report(
        6,
        ok,
        f"{count} certificate pairs with u,v != 0: all four complementarity "
        f"conditions hold at 1e-08 ({failures} failures)",
    )


def test_summation_by_parts_identity():
    rng = np.random.default_rng(707)
    max_ratio = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 51))
        x = rng.standard_normal(p)
        y = rng.standard_normal(p)
        dot = float(np.dot(x, y))
        err = abs(abel_sum(x, y) - dot)
        max_ratio = max(max_ratio, err / (1.0 + abs(dot)))
    ok = max_ratio <= 1e-11
    _report(
        7, ok, f"1000 pairs p<=50: rearranged sum vs dot {max_ratio:.2e} (cap 1e-11)"
    )


def _bounded_scenarios(rng, T, n, margin=0.5):
    # c0 large enough that the model stays bounded for every scenario pick
    data = load_scenarios(rng.normal(0.01, 0.05, (T, n)))
    r = data.probabilities @ data.returns
    row_norms = np.linalg.norm(data.returns - r, axis=1)
    r_perp = float(np.linalg.norm(r - r.mean()))
    c0 = (r_perp + margin) / float(row_norms.min()) + margin
    return data, c0


def test_portfolio_solution_quality():
    rng = np.random.default_rng(808)
    worst_residual = 0.0
    worst_margin = np.inf
    for T, n in [(2, 2), (3, 4), (4, 3), (5, 6), (6, 5)]:
        data, c0 = _bounded_scenarios(rng, T, n)
        sol = refine_jstar(data, c0)
        worst_residual = max(worst_residual, sol.feasibility.max_residual)
        costs = c0 * data.probabilities[::-1]
        r = data.probabilities @ data.returns
        s = sol.uscale
        best_cloud = np.inf
        for j in range(1000):
            v = feasible_portfolio_point(
                rng, T, s, random_weights(rng, n), collapsed=(j % 2 == 0)
            )
            obj = float(np.dot(costs, v[:T]) - np.dot(r, v[T:]) / s)
            best_cloud = min(best_cloud, obj)
        worst_margin = min(worst_margin, best_cloud - sol.objective)
    # single-asset case has the unique feasible weight vector (1.0,)
    data1, c01 = _bounded_scenarios(rng, 4, 1)
    sol1 = refine_jstar(data1, c01)
    r1 = float((data1.probabilities @ data1.returns)[0])
    exact_w = abs(sol1.w[0] - 1.0)
    exact_obj = abs(sol1.objective - (c01 * sol1.uscale - r1))
    ok = (
        worst_residual <= 1e-7
        and worst_margin >= -1e-6
        and exact_w <= 1e-12
        and exact_obj <= 1e-12
    )
    _report(
        8,
        ok,
        f"5 scenario sets T,n<=6: residuals {worst_residual:.1e} (cap 1e-07), "
        f"beats 1000-point clouds by margin {worst_margin:.1e} (floor -1e-06); "
        f"n=1 weight error {exact_w:.1e}, objective error {exact_obj:.1e} (cap 1e-12)",
    )


def test_large_scale_latency():
    rng = np.random.default_rng(909)
    best = np.inf
    for _ in range(3):
        z = rng.standard_normal(100_000)
        w = rng.standard_normal(100_000)
        t0 = time.perf_counter()
        project_mesoc(z, w)
        best = min(best, time.perf_counter() - t0)
    ok = best < 0.1
    _report(
        9,
        ok,
        f"p = q = 100000 single projection {best * 1e3:.1f} ms (best of 3, cap 100 ms)",
    )
