import dataclasses
import itertools
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mesoc.cones import (
    ConeId,
    DimensionError,
    cone_contains,
    cone_violation,
    pava_nonincreasing,
    project_cone,
    project_monotone_dual,
    project_monotone_nonneg,
    project_monotone_nonneg_dual,
)
from mesoc import projection
from mesoc._pava import pava_nonincreasing_kernel
from mesoc.projection import (
    MesocPoint,
    ProjectionCase,
    complementarity_check,
    mesoc_contains,
    mesoc_dual_contains,
    mesoc_dual_violation,
    mesoc_violation,
    project_mesoc,
    project_mesoc_dual,
    project_mesoc_parts,
)
from support import (
    random_mesoc_dual_member,
    random_mesoc_member,
    reference_cone_violation,
    reference_mesoc_contains,
    reference_mesoc_dual_contains,
    reference_mesoc_dual_violation,
    reference_mesoc_violation,
    reference_project_mesoc,
    soc_project,
    three_case_mesoc_projection,
)

dims = st.tuples(st.integers(1, 12), st.integers(0, 12))


def random_instance(rng, p, q):
    return rng.standard_normal(p), rng.standard_normal(q)


class TestMesocPoint:
    def test_round_trip(self):
        pt = MesocPoint(np.array([2.0, 1.0]), np.array([0.5]))
        back = MesocPoint.from_vector(pt.as_vector(), 2, 1)
        np.testing.assert_array_equal(back.x, pt.x)
        np.testing.assert_array_equal(back.u, pt.u)

    def test_empty_x_rejected(self):
        with pytest.raises(DimensionError):
            MesocPoint(np.array([]), np.array([1.0]))

    def test_from_vector_length_mismatch(self):
        with pytest.raises(DimensionError):
            MesocPoint.from_vector(np.zeros(3), 2, 2)

    def test_q_zero_allowed(self):
        pt = MesocPoint(np.array([1.0]), np.array([]))
        assert pt.q == 0 and pt.u_norm == 0.0

    @pytest.mark.parametrize("x, u", [([np.nan], [1.0]), ([1.0], [np.inf])])
    def test_non_finite_rejected(self, x, u):
        with pytest.raises(ValueError, match="contains NaN or Inf"):
            MesocPoint(x, u)

    def test_matrix_rejected(self):
        with pytest.raises(DimensionError):
            MesocPoint(np.ones((2, 2)), [])

    def test_lists_become_float64_arrays(self):
        pt = MesocPoint([2, 1], [0.5])
        for arr in (pt.x, pt.u):
            assert isinstance(arr, np.ndarray) and arr.dtype == np.float64

    def test_projected_points_are_mesoc_points(self):
        cert = project_mesoc([1.0, 2.0], [3.0, 4.0])
        for pt in (cert.input, cert.primal, cert.dual_of_neg):
            assert type(pt) is MesocPoint
            for arr in (pt.x, pt.u):
                assert isinstance(arr, np.ndarray)
                assert arr.dtype == np.float64 and arr.ndim == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.primal.x = np.zeros(2)
        # replace() goes through the public constructor, which validates
        with pytest.raises(ValueError, match="contains NaN or Inf"):
            dataclasses.replace(cert.primal, x=[np.nan])


class TestMembership:
    def test_primal_examples(self):
        assert mesoc_contains(MesocPoint(np.array([2.0, 1.0]), np.array([1.0, 0.0])))
        assert not mesoc_contains(MesocPoint(np.array([1.0, 2.0]), np.array([0.0])))
        assert not mesoc_contains(MesocPoint(np.array([1.0]), np.array([1.0, 1.0])))

    def test_dual_examples(self):
        assert mesoc_dual_contains(MesocPoint(np.array([1.0, -1.0]), np.array([0.0])))
        assert mesoc_dual_contains(MesocPoint(np.array([0.0, 1.0]), np.array([1.0])))
        assert not mesoc_dual_contains(MesocPoint(np.array([-1.0, 3.0]), np.array([0.0])))

    def test_violation_zero_iff_member(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            pt = MesocPoint(*random_instance(rng, 4, 3))
            assert mesoc_contains(pt) == (mesoc_violation(pt) == 0.0)
            assert mesoc_dual_contains(pt) == (mesoc_dual_violation(pt) == 0.0)

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-6, 0.5])
    def test_matches_frozen_reference(self, tol):
        # members of either cone (exactly on the boundary or inside) and
        # projection halves, each moved by noise at several scales
        rng = np.random.default_rng(24)
        for scale in (0.0, 1e-13, 1e-12, 1e-7, 1e-6, 0.3, 1.0):
            for _ in range(100):
                p, q = int(rng.integers(1, 7)), int(rng.integers(0, 5))
                cert = project_mesoc(*random_instance(rng, p, q))
                points = [
                    cert.primal.as_vector(),
                    cert.dual_of_neg.as_vector(),
                    np.concatenate(random_mesoc_member(rng, p, q, boundary=True)),
                    np.concatenate(random_mesoc_member(rng, p, q)),
                    np.concatenate(random_mesoc_dual_member(rng, p, q, boundary=True)),
                    np.concatenate(random_mesoc_dual_member(rng, p, q)),
                ]
                for vec in points:
                    pt = MesocPoint.from_vector(vec + scale * rng.standard_normal(p + q), p, q)
                    assert mesoc_contains(pt, tol) is reference_mesoc_contains(pt, tol)
                    assert mesoc_dual_contains(pt, tol) is reference_mesoc_dual_contains(pt, tol)

    def test_negative_tol_rejected(self):
        pt = MesocPoint(np.array([1.0]), np.array([0.5]))
        for contains in (mesoc_contains, mesoc_dual_contains):
            with pytest.raises(ValueError):
                contains(pt, -1e-3)
        with pytest.raises(ValueError):
            complementarity_check(pt, pt, -1e-3)

    def test_nan_tol_rejected(self):
        # a NaN tol fails every comparison, so it must not read as a verdict
        pt = MesocPoint(np.array([2.0, 1.0]), np.array([0.5]))
        for contains in (mesoc_contains, mesoc_dual_contains):
            with pytest.raises(ValueError, match="tol must be nonnegative"):
                contains(pt, math.nan)
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            complementarity_check(pt, pt, math.nan)

    def test_cone_shift_equivalences(self):
        # (x,u) in the cone iff x - ||u||e is monotone nonnegative, and the
        # dual analogue with the shift on the last coordinate only
        rng = np.random.default_rng(22)
        for _ in range(200):
            x, u = random_instance(rng, 5, 3)
            shifted = x - np.linalg.norm(u)
            assert mesoc_contains(MesocPoint(x, u)) == cone_contains(
                ConeId.MONOTONE_NONNEG, shifted
            )
            y, v = random_instance(rng, 5, 3)
            shifted_dual = y.copy()
            shifted_dual[-1] -= np.linalg.norm(v)
            assert mesoc_dual_contains(MesocPoint(y, v)) == cone_contains(
                ConeId.MONOTONE_NONNEG_DUAL, shifted_dual
            )
        for _ in range(50):
            x, u = random_mesoc_member(rng, 4, 2)
            assert cone_contains(ConeId.MONOTONE_NONNEG, x - np.linalg.norm(u), tol=1e-12)


class TestProjectionCases:
    def test_dual_dominates_fixture(self):
        cert = project_mesoc([-2.0], [1.0])
        assert cert.case is ProjectionCase.DUAL_DOMINATES
        np.testing.assert_allclose(cert.primal.as_vector(), [0.0, 0.0], atol=1e-15)
        assert cert.lam is None

    def test_interior_fixture(self):
        cert = project_mesoc([1.0], [2.0, 0.0])
        assert cert.case is ProjectionCase.INTERIOR
        np.testing.assert_allclose(cert.primal.as_vector(), [1.5, 1.5, 0.0], atol=1e-12)
        assert cert.lam == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_member_is_fixed_point(self):
        cert = project_mesoc([3.0, 2.0], [1.0])
        assert cert.case is ProjectionCase.PRIMAL_DOMINATES
        np.testing.assert_allclose(cert.primal.as_vector(), [3.0, 2.0, 1.0], atol=1e-15)
        assert cert.lam is None

    def test_case_matches_stated_conditions(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            p, q = rng.integers(1, 7), rng.integers(1, 7)
            z, w = random_instance(rng, p, q)
            cert = project_mesoc(z, w)
            w_norm = np.linalg.norm(w)
            dual_sum = float(np.sum(project_monotone_nonneg_dual(-z)))
            tail = float(project_monotone_nonneg(z)[-1])
            if cert.case is ProjectionCase.DUAL_DOMINATES:
                assert dual_sum >= w_norm
                np.testing.assert_array_equal(cert.primal.u, np.zeros(q))
            elif cert.case is ProjectionCase.PRIMAL_DOMINATES:
                assert tail >= w_norm
                np.testing.assert_array_equal(cert.dual_of_neg.u, np.zeros(q))
            else:
                assert dual_sum < w_norm and tail < w_norm
                assert cert.lam is not None and cert.lam > 0

    def test_conditions_never_overlap_for_nonzero_w(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            p, q = rng.integers(1, 8), rng.integers(1, 8)
            z, w = random_instance(rng, p, q)
            if np.linalg.norm(w) == 0.0:
                continue
            w_norm = np.linalg.norm(w)
            cond1 = float(np.sum(project_monotone_nonneg_dual(-z))) >= w_norm
            cond2 = float(project_monotone_nonneg(z)[-1]) >= w_norm
            assert not (cond1 and cond2)

    def test_zero_w_case_formulas_agree(self):
        # with w = 0 both case conditions hold; the two formulas must then
        # produce the same projection, and the implementation tags case (2)
        rng = np.random.default_rng(25)
        for _ in range(100):
            z = rng.standard_normal(5)
            w = np.zeros(3)
            case1_primal = np.concatenate([project_monotone_nonneg(z), np.zeros(3)])
            case2_primal = np.concatenate([project_monotone_nonneg(z), w])
            np.testing.assert_allclose(case1_primal, case2_primal, atol=1e-10)
            case1_dual = np.concatenate([project_monotone_nonneg_dual(-z), -w])
            case2_dual = np.concatenate([project_monotone_nonneg_dual(-z), np.zeros(3)])
            np.testing.assert_allclose(case1_dual, case2_dual, atol=1e-10)
            cert = project_mesoc(z, w)
            assert cert.case is ProjectionCase.PRIMAL_DOMINATES
            np.testing.assert_allclose(cert.primal.as_vector(), case2_primal, atol=1e-12)
            np.testing.assert_allclose(cert.dual_of_neg.as_vector(), case2_dual, atol=1e-12)

    def test_q_zero_reduces_to_monotone_nonneg(self):
        # L(p, 0) and its dual are the monotone nonnegative pair. Through
        # p = 127 the lifted and the plain vector both take the kernel's
        # loop path, so the halves are bit-equal; above it the rounds may
        # pool the two in another order.
        rng = np.random.default_rng(26)
        for p in (1, 2, 6, 127, 128, 129, 300, 10_001):
            for scale in (1e-6, 1.0, 1e6):
                for _ in range(10):
                    z = scale * rng.standard_normal(p)
                    cert = project_mesoc(z, [])
                    assert cert.case is ProjectionCase.PRIMAL_DOMINATES
                    assert cert.primal.q == 0
                    primal, _ = project_mesoc_parts(z, [])
                    dual = project_mesoc_dual(z, [])
                    assert dual.q == 0
                    pairs = [
                        (primal.x, project_monotone_nonneg(z)),
                        (dual.x, project_monotone_nonneg_dual(z)),
                    ]
                    for got, want in pairs:
                        if p <= 127:
                            np.testing.assert_array_equal(got, want)
                        else:
                            gap = np.max(np.abs(got - want))
                            assert gap <= 1e-15 * np.linalg.norm(z)

    def test_interior_dimension_lift(self):
        # the (p+1)-dim isotonic projection of (z, ||w||) must reproduce
        # (x, beta*||w||) with beta = 1/(1+lambda)
        rng = np.random.default_rng(27)
        seen = 0
        while seen < 100:
            p, q = rng.integers(1, 8), rng.integers(1, 8)
            z, w = random_instance(rng, p, q)
            cert = project_mesoc(z, w)
            if cert.case is not ProjectionCase.INTERIOR:
                continue
            seen += 1
            w_norm = np.linalg.norm(w)
            lifted = project_monotone_nonneg(np.append(z, w_norm))
            beta = 1.0 / (1.0 + cert.lam)
            np.testing.assert_allclose(lifted[:-1], cert.primal.x, atol=1e-9)
            assert lifted[-1] == pytest.approx(beta * w_norm, abs=1e-9)
            # u shrinks by the same factor and v is antiparallel with ratio lambda
            np.testing.assert_allclose(cert.primal.u, beta * w, atol=1e-9)
            np.testing.assert_allclose(
                cert.dual_of_neg.u, -cert.lam * cert.primal.u, atol=1e-9
            )


class TestThreeCaseReference:
    """The one-pass projection against the three-case closed form."""

    @staticmethod
    def draws(rng):
        for i in range(2000):
            p, q = int(rng.integers(1, 40)), int(rng.integers(0, 40))
            scale = 10.0 ** rng.uniform(-6.0, 6.0)
            z, w = scale * rng.standard_normal(p), scale * rng.standard_normal(q)
            kind = i % 5
            if kind == 1:  # descending and shifted up: mostly PrimalDominates
                z = np.sort(z)[::-1] + scale * rng.uniform(0.0, 3.0)
                w *= 10.0 ** rng.uniform(-3.0, 0.0)
            elif kind == 2:  # nonpositive z: mostly DualDominates
                z = -np.abs(z)
            elif kind == 3:
                w = np.zeros(q)
            yield z, w

    def test_matches_reference_at_every_scale(self):
        rng = np.random.default_rng(35)
        seen = {c.value: 0 for c in ProjectionCase}
        q_zero = 0
        for z, w in self.draws(rng):
            cert = project_mesoc(z, w)
            x, u, y, v, case = three_case_mesoc_projection(z, w)
            assert cert.case.value == case
            seen[case] += 1
            q_zero += w.size == 0
            scale = np.linalg.norm(np.concatenate([z, w]))
            for got, want in (
                (cert.primal.as_vector(), np.concatenate([x, u])),
                (cert.dual_of_neg.as_vector(), np.concatenate([y, v])),
            ):
                assert np.linalg.norm(got - want) <= 1e-15 * scale
        assert min(seen.values()) >= 100 and q_zero > 0, (seen, q_zero)


def _hex(value):
    return None if value is None else value.hex()


def assert_matches_frozen_assembly(z, w):
    cert = project_mesoc(z, w)
    x, u, y, v, case, lam, additive, ortho = reference_project_mesoc(z, w)
    for got, want in (
        (cert.primal.x, x),
        (cert.primal.u, u),
        (cert.dual_of_neg.x, y),
        (cert.dual_of_neg.u, v),
    ):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert cert.case is case
    assert _hex(cert.lam) == _hex(lam)
    assert cert.moreau_additive_residual.hex() == additive.hex()
    assert cert.moreau_orthogonality_residual.hex() == ortho.hex()
    return cert


class TestFrozenAssembly:
    """Every certificate field, bit for bit, against the frozen assembly."""

    def test_every_case_at_every_scale(self):
        rng = np.random.default_rng(36)
        seen = {c: 0 for c in ProjectionCase}
        q_zero = w_zero = 0
        for z, w in TestThreeCaseReference.draws(rng):
            seen[assert_matches_frozen_assembly(z, w).case] += 1
            q_zero += w.size == 0
            w_zero += w.size > 0 and not w.any()
        assert min(seen.values()) >= 100 and q_zero and w_zero, (seen, q_zero, w_zero)

    def test_dual_dominates_keeps_signed_zeros(self):
        # v = -w: the zeros of w come back with their sign flipped
        w = np.array([0.0, 0.5, -0.0, 0.0, -0.25])
        cert = assert_matches_frozen_assembly([-3.0, -1.0, -2.0], w)
        assert cert.case is ProjectionCase.DUAL_DOMINATES
        zeros = w == 0.0
        assert np.array_equal(np.signbit(cert.dual_of_neg.u[zeros]), ~np.signbit(w[zeros]))

    @pytest.mark.parametrize("recipe", ["dual", "primal", "interior", "ascending"])
    def test_benchmark_case_families(self, recipe):
        # the recipes of perfbench's case_families at p = q = 100 000
        rng = np.random.default_rng([1, 2, 100_000])
        g = rng.standard_normal(100_000)
        z, w_norm, case = {
            "dual": (g - 3.0, 1.0, ProjectionCase.DUAL_DOMINATES),
            "primal": (g + 8.0, 1.0, ProjectionCase.PRIMAL_DOMINATES),
            "interior": (g + 3.0, 10.0, ProjectionCase.INTERIOR),
            "ascending": (np.sort(g) + 3.0, 10.0, ProjectionCase.INTERIOR),
        }[recipe]
        w = rng.standard_normal(100_000)
        w *= w_norm / np.sqrt(np.sum(w * w))
        assert assert_matches_frozen_assembly(z, w).case is case


class TestOneBuffer:
    """A projection builds its four halves as views of one buffer it owns."""

    @pytest.mark.parametrize(
        "z, w",
        [
            ([0.3, -1.7, 2.2], [0.9, -0.4]),  # Interior
            ([-1.0, -2.0], [0.5, 0.5]),  # DualDominates
            ([3.0, 2.0], [0.5, 0.5]),  # PrimalDominates
            ([3.0, 2.0], [0.0, 0.0]),  # w = 0
            ([0.3, -1.7, 2.2], []),  # q = 0
            ([0.5], [0.9, -0.4]),  # p = 1, Interior
            ([-1.0], [0.5]),  # p = 1, DualDominates
            ([-1.0], []),  # p = 1, q = 0
        ],
    )
    def test_halves_share_one_buffer(self, z, w):
        z, w = np.array(z), np.array(w)
        cert = project_mesoc(z, w)
        parts = project_mesoc_parts(z, w)
        for halves in (
            (cert.primal.x, cert.primal.u, cert.dual_of_neg.x, cert.dual_of_neg.u),
            (parts[0].x, parts[0].u, parts[1].x, parts[1].u),
        ):
            buf = halves[0].base
            # an empty half shares memory with nothing, so the owner is
            # compared as well
            assert buf is not None and buf.size == 2 * (z.size + w.size) + 1
            for half in halves:
                assert half.base is buf
                assert not np.shares_memory(half, z) and not np.shares_memory(half, w)
            assert not np.shares_memory(halves[0], halves[2])
        dual = project_mesoc_dual(z, w)
        assert dual.x.base is dual.u.base is not None

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
    def test_large_projections_take_no_fresh_pages(self):
        # With the halves allocated one by one, large projections faulted
        # in fresh pages on most calls: about 820 minor faults per call,
        # against 0 with one buffer (glibc 2.36, x86-64). A fresh
        # interpreter runs the four benchmark case families twice to warm
        # up, then counts three rotations, with the allocator's settings
        # at their defaults.
        code = (
            "import resource\n"
            "import numpy as np\n"
            "from mesoc import project_mesoc\n"
            "rng = np.random.default_rng([1, 2, 100_000])\n"
            "g = rng.standard_normal(100_000)\n"
            "w = rng.standard_normal(100_000)\n"
            "w /= np.sqrt(np.sum(w * w))\n"
            "families = [(g - 3.0, w), (g + 8.0, w), (g + 3.0, 10.0 * w),"
            " (np.sort(g) + 3.0, 10.0 * w)]\n"
            "def faults():\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for rotation in range(5):\n"
            "    if rotation == 2:\n"
            "        start = faults()\n"
            "    for z, wf in families:\n"
            "        project_mesoc(z, wf)\n"
            "print((faults() - start) / 12)\n"
        )
        env = {
            k: v
            for k, v in os.environ.items()
            if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"
        }
        env["PYTHONPATH"] = str(Path(projection.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert float(done.stdout) <= 100.0


def _violation_bits(violation, *args):
    """The violation's hex, or the name of the overflow it raises."""
    try:
        return violation(*args).hex()
    except OverflowError as exc:
        return type(exc).__name__


def _frozen_bits(reference, *args):
    """The frozen copy's bits; where it read inf the library raises OverflowError."""
    bits = _violation_bits(reference, *args)
    return "OverflowError" if bits == "inf" else bits


# a difference or prefix sum past 1.7e308 overflows, in both copies
@np.errstate(over="ignore")
def assert_violations_match_frozen(vec, p):
    """Every cone's violation of vec, and the MESOC pair's of (vec[:p], vec[p:])."""
    for cone in ConeId:
        assert _violation_bits(cone_violation, cone, vec) == _frozen_bits(
            reference_cone_violation, cone, vec
        ), (cone, vec)
    pt = MesocPoint(vec[:p], vec[p:])
    for violation, reference in (
        (mesoc_violation, reference_mesoc_violation),
        (mesoc_dual_violation, reference_mesoc_dual_violation),
    ):
        assert _violation_bits(violation, pt) == _frozen_bits(reference, pt), (vec, p)


class TestFrozenViolations:
    """Each violation, written once as a chain or a prefix rule, bit for bit
    against the frozen copies that wrote every cone's inequalities inline;
    where a copy read inf, the library raises OverflowError instead."""

    SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308, 1.7e308)

    def test_special_value_tuples(self):
        # every split of every 1-3 tuple, the last with q = 0
        count = 0
        for n in (1, 2, 3):
            for values in itertools.product(self.SPECIAL, repeat=n):
                vec = np.array(values)
                for p in range(1, n + 1):
                    assert_violations_match_frozen(vec, p)
                    count += 1
        assert count == 9 + 2 * 81 + 3 * 729

    def test_random_draws_at_every_scale(self):
        rng = np.random.default_rng(41)
        for _ in range(20_000):
            p, q = int(rng.integers(1, 7)), int(rng.integers(0, 7))
            vec = 10.0 ** rng.uniform(-300, 300) * rng.standard_normal(p + q)
            assert_violations_match_frozen(vec, p)

    def test_projections_on_the_boundary(self):
        # projected points sit on the boundary, where a violation is 0 or a
        # rounding, and signed zeros appear
        rng = np.random.default_rng(42)
        for _ in range(1_000):
            p, q = int(rng.integers(1, 7)), int(rng.integers(0, 7))
            z = 10.0 ** rng.uniform(-300, 300) * rng.standard_normal(p)
            w = 10.0 ** rng.uniform(-300, 300) * rng.standard_normal(q)
            cert = project_mesoc(z, w)
            for half in (cert.primal, cert.dual_of_neg):
                assert_violations_match_frozen(half.as_vector(), p)
            for cone in ConeId:
                assert_violations_match_frozen(project_cone(cone, z), p)


class TestUnderflow:
    """Inputs whose squares underflow still project into both cones."""

    @pytest.mark.parametrize(
        "z, w", [([0.0], [1e-300, 1e-300]), ([1e-320, 2e-320], [3e-320])]
    )
    def test_projection_lies_in_both_cones(self, z, w):
        cert = project_mesoc(z, w)
        x, u = cert.primal.x, cert.primal.u
        y, v = cert.dual_of_neg.x, cert.dual_of_neg.u
        # membership from the returned vectors, with hypot as the norm
        tol = 8 * np.finfo(float).eps * max(map(abs, z + w)) + 4 * 2.0**-1074
        assert np.all(np.diff(x) <= tol)
        assert x[-1] >= math.hypot(*u) - tol
        assert np.all(np.cumsum(y)[:-1] >= -tol)
        assert np.sum(y) >= math.hypot(*v) - tol
        np.testing.assert_allclose(x - y, z, rtol=0, atol=tol)
        np.testing.assert_allclose(u - v, w, rtol=0, atol=tol)

    def test_violation_sees_tiny_norm(self):
        assert mesoc_violation(MesocPoint([0.0], [1e-300, 1e-300])) > 0.0


class TestOverflow:
    """A result above the largest double is reported as an overflow."""

    def test_u_norm(self):
        with pytest.raises(OverflowError, match="norm exceeds the float range"):
            MesocPoint([1.0], [1.5e308, 1.5e308]).u_norm

    def test_projection(self):
        with pytest.raises(OverflowError, match="norm exceeds the float range"):
            project_mesoc([0.0], [1.5e308, 1.5e308])

    @pytest.mark.parametrize(
        "project, z",
        [
            (lambda z: project_mesoc(z, []), [-1.7e308, 1.7e308, 1.7e308]),
            (lambda z: project_mesoc_parts(z, []), [-1.7e308, 1.7e308, 1.7e308]),
            (lambda z: project_mesoc_dual(z, []), [1.7e308, -1.7e308, -1.7e308]),
            (project_monotone_dual, [1.7e308, -1.7e308, -1.7e308]),
            (project_monotone_nonneg_dual, [1.7e308, -1.7e308, -1.7e308]),
        ],
        ids=[
            "mesoc",
            "mesoc_parts",
            "mesoc_dual",
            "monotone_dual",
            "monotone_nonneg_dual",
        ],
    )
    def test_moreau_half(self, project, z):
        # finite input whose pooled mean 1.7e308 / 3 lies 1.7e308 from the
        # pooled values, so the dual half primal - input is above the float
        # range; not an input that "contains NaN or Inf"
        with pytest.raises(OverflowError, match="a Moreau dual half exceeds the float range"):
            project(z)
        # the same under any numpy error state the caller has set, which
        # the projection leaves as it found it
        for mode in ("ignore", "warn", "raise"):
            with np.errstate(all=mode):
                state = np.geterr()
                project(np.asarray(z) / 1e308)
                assert np.geterr() == state
                with pytest.raises(
                    OverflowError, match="a Moreau dual half exceeds the float range"
                ):
                    project(z)
                assert np.geterr() == state


class TestMoreau:
    @given(dims, st.integers(0, 2**31))
    def test_certificate_residuals(self, dims_, seed):
        p, q = dims_
        z, w = random_instance(np.random.default_rng(seed), p, q)
        cert = project_mesoc(z, w)
        scale = np.linalg.norm(np.concatenate([z, w]))
        assert cert.moreau_additive_residual <= 1e-9 * (1 + scale)
        assert cert.moreau_orthogonality_residual <= 1e-8 * (1 + scale**2)
        assert mesoc_contains(cert.primal, tol=1e-9)
        assert mesoc_dual_contains(cert.dual_of_neg, tol=1e-9)

    @given(dims, st.integers(0, 2**31))
    def test_projection_idempotent(self, dims_, seed):
        p, q = dims_
        z, w = random_instance(np.random.default_rng(seed), p, q)
        primal, _ = project_mesoc_parts(z, w)
        again, _ = project_mesoc_parts(primal.x, primal.u)
        np.testing.assert_allclose(again.as_vector(), primal.as_vector(), atol=1e-12)

    @given(dims, st.integers(0, 2**31))
    def test_projection_nonexpansive(self, dims_, seed):
        p, q = dims_
        rng = np.random.default_rng(seed)
        z1, w1 = random_instance(rng, p, q)
        z2, w2 = random_instance(rng, p, q)
        a, _ = project_mesoc_parts(z1, w1)
        b, _ = project_mesoc_parts(z2, w2)
        gap = np.linalg.norm(np.concatenate([z1 - z2, w1 - w2]))
        assert np.linalg.norm(a.as_vector() - b.as_vector()) <= gap + 1e-9

    @given(dims, st.integers(0, 2**31), st.floats(0.0, 100.0))
    def test_projection_homogeneous(self, dims_, seed, alpha):
        p, q = dims_
        z, w = random_instance(np.random.default_rng(seed), p, q)
        base, _ = project_mesoc_parts(z, w)
        scaled, _ = project_mesoc_parts(alpha * z, alpha * w)
        np.testing.assert_allclose(
            scaled.as_vector(),
            alpha * base.as_vector(),
            atol=1e-9 * (1 + alpha * (np.linalg.norm(z) + np.linalg.norm(w))),
        )

    def test_power_of_two_scaling_is_bitwise(self):
        # multiplying by 2^k is exact while every value stays normal, and so
        # is every step of a projection: the output scales bit for bit
        rng = np.random.default_rng(2718)
        cases = set()
        for draw in range(400):
            p, q = int(rng.integers(1, 301)), int(rng.integers(0, 40))
            z = rng.standard_normal(p) + rng.choice([-3.0, 0.0, 3.0])
            w = rng.uniform(0.1, 10.0) * rng.standard_normal(q)
            if draw % 4 == 0:
                z.sort()
            base = project_mesoc(z, w)
            fit = pava_nonincreasing(z)
            cases.add(base.case)
            for k in (-500, -60, -7, 3, 40, 500):
                got = project_mesoc(np.ldexp(z, k), np.ldexp(w, k))
                assert got.case is base.case
                assert got.lam == base.lam
                for half in ("primal", "dual_of_neg"):
                    want = np.ldexp(getattr(base, half).as_vector(), k)
                    assert getattr(got, half).as_vector().tobytes() == want.tobytes()
                assert pava_nonincreasing(np.ldexp(z, k)).tobytes() == np.ldexp(fit, k).tobytes()
        assert cases == set(ProjectionCase)


class TestLorentzSpecialization:
    def test_p1_matches_soc_closed_form(self):
        rng = np.random.default_rng(28)
        for _ in range(300):
            q = rng.integers(1, 9)
            t = rng.standard_normal() * 2
            w = rng.standard_normal(q)
            cert = project_mesoc([t], w)
            t_ref, w_ref = soc_project(t, w)
            np.testing.assert_allclose(cert.primal.x, [t_ref], atol=1e-12)
            np.testing.assert_allclose(cert.primal.u, w_ref, atol=1e-12)

    def test_p1_dual_is_self_dual(self):
        # L_{1,q} is the Lorentz cone, which is self-dual
        rng = np.random.default_rng(29)
        for _ in range(100):
            t, w = rng.standard_normal(), rng.standard_normal(4)
            dual = project_mesoc_dual([t], w)
            t_ref, w_ref = soc_project(t, w)
            np.testing.assert_allclose(dual.x, [t_ref], atol=1e-12)
            np.testing.assert_allclose(dual.u, w_ref, atol=1e-12)


class TestDualProjection:
    def test_origin_fixed(self):
        out = project_mesoc_dual(np.zeros(3), np.zeros(2))
        np.testing.assert_array_equal(out.as_vector(), np.zeros(5))

    def test_dual_member_fixed(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            y, v = random_mesoc_dual_member(rng, 4, 3)
            out = project_mesoc_dual(y, v)
            np.testing.assert_allclose(out.as_vector(), np.concatenate([y, v]), atol=1e-10)

    def test_moreau_with_primal_side(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            z, w = random_instance(rng, 5, 4)
            dual = project_mesoc_dual(z, w)
            primal_of_neg, _ = project_mesoc_parts(-z, -w)
            # P_{L*}(s) = s + P_L(-s)
            np.testing.assert_allclose(
                dual.as_vector(),
                np.concatenate([z, w]) + primal_of_neg.as_vector(),
                atol=1e-10,
            )
            assert mesoc_dual_contains(dual, tol=1e-9)


class TestDualConeCharacterization:
    def test_pairing_chain_on_members(self):
        # for (x,u) in L and (y,v) in L*: <x,y> >= ||u||<y,e> >= ||u||||v||
        rng = np.random.default_rng(32)
        for _ in range(300):
            p, q = rng.integers(1, 7), rng.integers(1, 7)
            x, u = random_mesoc_member(rng, p, q, boundary=bool(rng.integers(2)))
            y, v = random_mesoc_dual_member(rng, p, q, boundary=bool(rng.integers(2)))
            un = np.linalg.norm(u)
            assert float(x @ y) >= un * float(np.sum(y)) - 1e-10
            assert un * float(np.sum(y)) >= un * np.linalg.norm(v) - 1e-10
            assert float(x @ y) + float(u @ v) >= -1e-10

    def test_violating_prefix_has_negative_witness(self):
        # y with a negative proper prefix pairs negatively with some member
        y = np.array([-1.0, 3.0])
        x = np.array([1.0, 0.0])
        assert float(x @ y) < 0
        assert mesoc_contains(MesocPoint(x, np.zeros(1)))

    def test_violating_norm_bound_has_negative_witness(self):
        y, v = np.array([0.5, 0.0]), np.array([1.0])
        assert not mesoc_dual_contains(MesocPoint(y, v))
        x, u = np.ones(2), -v / np.linalg.norm(v)
        assert mesoc_contains(MesocPoint(x, u))
        assert float(x @ y) + float(u @ v) < 0


class TestComplementarity:
    def test_zero_dual_is_complementary(self):
        a = MesocPoint(np.ones(3), np.zeros(2))
        b = MesocPoint(np.zeros(3), np.zeros(2))
        report = complementarity_check(a, b)
        assert report.ok and bool(report)
        assert report.xp_equals_u_norm is None  # degenerate: no extra conditions

    def test_certificate_pairs_are_complementary(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            p, q = rng.integers(1, 7), rng.integers(1, 7)
            z, w = random_instance(rng, p, q)
            cert = project_mesoc(z, w)
            assert complementarity_check(cert.primal, cert.dual_of_neg).ok

    def test_nondegenerate_fixture(self):
        a = MesocPoint(np.array([1.0]), np.array([1.0]))
        b = MesocPoint(np.array([1.0]), np.array([-1.0]))
        report = complementarity_check(a, b)
        assert report.ok
        assert report.xp_equals_u_norm
        assert report.dual_sum_equals_v_norm
        assert report.uv_antiparallel
        assert report.shifted_pair_complementary

    def test_four_conditions_on_interior_instances(self):
        rng = np.random.default_rng(34)
        seen = 0
        while seen < 100:
            z, w = random_instance(rng, rng.integers(1, 7), rng.integers(1, 7))
            cert = project_mesoc(z, w)
            if cert.primal.u_norm == 0.0 or cert.dual_of_neg.u_norm == 0.0:
                continue
            seen += 1
            report = complementarity_check(cert.primal, cert.dual_of_neg, tol=1e-8)
            assert report.xp_equals_u_norm
            assert report.dual_sum_equals_v_norm
            assert report.uv_antiparallel
            assert report.shifted_pair_complementary

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            complementarity_check(
                MesocPoint(np.ones(2), np.ones(1)), MesocPoint(np.ones(3), np.ones(1))
            )

    @pytest.mark.parametrize(
        "a, b",
        [
            # x - ||u|| overflows in its first entry
            (MesocPoint([-1.7e308, 1.0], [1.7e308]), MesocPoint([1.0, 1.0], [1.0])),
            # y_p - ||v|| overflows
            (MesocPoint([1.0, 1.0], [1.0]), MesocPoint([1.7e308, -1.7e308], [1.7e308])),
            # two adjacent entries shift to -inf, whose difference is NaN
            (
                MesocPoint([-1.7e308, -1.7e308, 0.0, 1.7e308], [1.7e308]),
                MesocPoint([1.0, 1.0, 1.0, 1.0], [1.0]),
            ),
        ],
        ids=["primal-shift", "dual-shift", "adjacent-primal-shifts"],
    )
    def test_overflowing_shift_raises_overflow_only(self, a, b):
        # the shifted pair leaves the float range; the OverflowError is the
        # one signal, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="the shifted pair exceeds the float range"):
                complementarity_check(a, b)

    def test_non_members_fail(self):
        a = MesocPoint(np.array([1.0, 2.0]), np.array([0.0]))  # ordering violated
        b = MesocPoint(np.zeros(2), np.zeros(1))
        assert not complementarity_check(a, b).ok

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda lifted: lifted.copy(),
            # every merge but the last one, which pools ||w|| into the fit
            lambda lifted: np.append(pava_nonincreasing_kernel(lifted[:-1]), lifted[-1]),
        ],
        ids=["identity", "skips-last-merge"],
    )
    def test_wrong_kernel_fails_membership(self, kernel):
        # the lifted vector (z, ||w||) rises, so the right kernel pools it;
        # the Moreau residuals stay near 0 for a wrong primal, and only the
        # memberships that complementarity_check tests catch it
        rng = np.random.default_rng(43)
        for _ in range(50):
            p, q = int(rng.integers(2, 7)), int(rng.integers(1, 7))
            z = np.sort(rng.standard_normal(p))
            w = rng.standard_normal(q)
            w *= (z[-1] + 1.0 + rng.uniform()) / math.sqrt(float(w @ w))
            with mock.patch("mesoc.projection.pava_nonincreasing_kernel", kernel):
                cert = project_mesoc(z, w)
            assert not complementarity_check(cert.primal, cert.dual_of_neg).ok
            assert mesoc_violation(cert.primal) > 0


ONE_PER_CASE = pytest.mark.parametrize(
    "z,w,case",
    [
        ([0.3, -1.7, 2.2], [0.9, -0.4], ProjectionCase.INTERIOR),
        ([-1.0, -2.0], [0.5, 0.5], ProjectionCase.DUAL_DOMINATES),
        ([3.0, 2.0], [0.5, 0.5], ProjectionCase.PRIMAL_DOMINATES),
    ],
)


class TestOnDemandResiduals:
    """Each certificate residual is computed at its first read, once."""

    @ONE_PER_CASE
    def test_dot_calls(self, monkeypatch, z, w, case):
        # each residual takes its x-half and its q-half in every case
        calls = []
        dot = projection._dot
        monkeypatch.setattr(projection, "_dot", lambda a, b: calls.append(1) or dot(a, b))
        cert = project_mesoc(z, w)
        assert cert.case is case
        assert len(calls) == 1  # the _norm of w
        additive = cert.moreau_additive_residual
        assert len(calls) == 3
        assert cert.moreau_orthogonality_residual >= 0.0 and additive >= 0.0
        assert len(calls) == 5
        cert.to_dict()
        assert len(calls) == 5

    @ONE_PER_CASE
    def test_complementarity_inner_product_is_orthogonality(self, z, w, case):
        cert = project_mesoc(z, w)
        assert cert.case is case
        report = complementarity_check(cert.primal, cert.dual_of_neg)
        assert abs(report.inner_product).hex() == cert.moreau_orthogonality_residual.hex()

    def test_complementarity_reads_each_norm_once(self, monkeypatch):
        cert = project_mesoc([0.3, -1.7, 2.2], [0.9, -0.4])
        calls = []
        norm = projection._norm
        monkeypatch.setattr(projection, "_norm", lambda a: calls.append(1) or norm(a))
        report = complementarity_check(cert.primal, cert.dual_of_neg)
        assert report.uv_antiparallel is not None  # the structural checks ran
        assert len(calls) == 2

    def test_residuals_read_only(self):
        cert = project_mesoc([0.3, -1.7, 2.2], [0.9, -0.4])
        for name in ("moreau_additive_residual", "moreau_orthogonality_residual"):
            before = getattr(cert, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cert, name, 0.0)
            assert getattr(cert, name) == before

    def test_input_changed_before_first_read(self):
        # z is held by reference: a residual read after z changes measures
        # the changed z, and one read before it keeps its value
        z = np.array([0.3, -1.7, 2.2])
        cert = project_mesoc(z, [0.9, -0.4])
        orthogonality = cert.moreau_orthogonality_residual
        assert cert.input.x is z
        z[0] += 1.0
        assert cert.moreau_additive_residual == pytest.approx(1.0)
        assert cert.moreau_orthogonality_residual == orthogonality
        fresh = project_mesoc(z.copy(), [0.9, -0.4])
        assert fresh.moreau_additive_residual < 1e-12


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            project_mesoc([np.nan], [1.0])

    def test_empty_x_rejected(self):
        with pytest.raises(DimensionError):
            project_mesoc([], [1.0])
