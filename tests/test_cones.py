from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mesoc import _pava
from mesoc.cones import (
    ConeId,
    DimensionError,
    as_vector,
    cone_contains,
    cone_violation,
    pava_nonincreasing,
    project_cone,
    project_monotone_dual,
    project_monotone_nonneg,
    project_monotone_nonneg_dual,
)
from support import (
    abel_sum,
    brute_isotonic_nonincreasing,
    dual_cone_of,
    reference_cone_contains,
)

vectors = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64),
    min_size=1,
    max_size=30,
).map(np.asarray)

ALL_CONES = list(ConeId)
MEMBERSHIP_TOLS = [0.0, 1e-12, 1e-6, 0.5]

# The brute-force and Moreau tests use vectors far shorter than the kernel's
# threshold for its numpy rounds, so each runs with the threshold as
# configured and then with 0, which sends every length through the rounds.
KERNEL_THRESHOLDS = (_pava._SMALL, 0)


def kernel_threshold(small):
    return mock.patch.object(_pava, "_SMALL", small)


class TestAsVector:
    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            as_vector([])

    def test_rejects_matrix(self):
        with pytest.raises(DimensionError):
            as_vector([[1.0, 2.0]])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            as_vector([1.0, np.nan])
        with pytest.raises(ValueError):
            as_vector([np.inf])

    def test_scalar_promotes_to_length_one(self):
        assert as_vector(3.0).shape == (1,)


class TestPava:
    def test_already_nonincreasing_is_identity(self):
        z = np.array([3.0, 2.0, 1.0])
        assert np.array_equal(pava_nonincreasing(z), z)

    def test_increasing_pools_to_mean(self):
        np.testing.assert_allclose(
            pava_nonincreasing([1.0, 2.0, 3.0]), [2.0, 2.0, 2.0], atol=1e-15
        )

    def test_interleaved_merges_fully(self):
        # cascaded merges pool everything; (2,2,3,3) would be order-infeasible
        np.testing.assert_allclose(
            pava_nonincreasing([1.0, 3.0, 2.0, 4.0]), [2.5, 2.5, 2.5, 2.5], atol=1e-15
        )

    def test_single_element(self):
        assert pava_nonincreasing([5.0])[0] == 5.0

    def test_partial_merge(self):
        np.testing.assert_allclose(
            pava_nonincreasing([2.0, 1.0, 2.0]), [2.0, 1.5, 1.5], atol=1e-15
        )

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            pava_nonincreasing([])

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_matches_brute_force_partitions(self, p):
        rng = np.random.default_rng(100 + p)
        for _ in range(50):
            z = rng.standard_normal(p)
            brute = brute_isotonic_nonincreasing(z)
            for small in KERNEL_THRESHOLDS:
                with kernel_threshold(small):
                    np.testing.assert_allclose(pava_nonincreasing(z), brute, atol=1e-12)

    def test_blockwise_means(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = rng.standard_normal(12)
            for small in KERNEL_THRESHOLDS:
                with kernel_threshold(small):
                    r = pava_nonincreasing(z)
                assert np.all(np.diff(r) <= 1e-12)
                # each maximal constant block averages its inputs
                starts = [0] + [i for i in range(1, 12) if abs(r[i] - r[i - 1]) > 1e-12]
                for a, b in zip(starts, starts[1:] + [12]):
                    np.testing.assert_allclose(r[a], z[a:b].mean(), atol=1e-12)


class TestClosedFormProjections:
    def test_monotone_dual_origin_fixed(self):
        np.testing.assert_array_equal(project_monotone_dual([0.0, 0.0, 0.0]), np.zeros(3))

    def test_monotone_dual_member_fixed(self):
        y = np.array([2.0, -2.0])
        assert cone_contains(ConeId.MONOTONE_DUAL, y)
        np.testing.assert_allclose(project_monotone_dual(y), y, atol=1e-15)

    def test_monotone_dual_lands_in_cone_and_orthogonal(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.standard_normal(8)
            for small in KERNEL_THRESHOLDS:
                with kernel_threshold(small):
                    r = project_monotone_dual(z)
                    primal = pava_nonincreasing(-z)
                assert cone_contains(ConeId.MONOTONE_DUAL, r, tol=1e-10)
                # Moreau: r = z + pava(-z) and the pair is orthogonal
                np.testing.assert_allclose(r, z + primal, atol=1e-15)
                assert abs(np.dot(r, primal)) <= 1e-10 * (1 + z @ z)

    def test_monotone_nonneg_fixtures(self):
        np.testing.assert_allclose(project_monotone_nonneg([-1.0, -2.0]), [0.0, 0.0])
        np.testing.assert_allclose(
            project_monotone_nonneg([3.0, 1.0, 0.0]), [3.0, 1.0, 0.0]
        )
        np.testing.assert_allclose(
            project_monotone_nonneg([1.0, 2.0, 3.0]), [2.0, 2.0, 2.0], atol=1e-15
        )

    def test_monotone_nonneg_is_clamped_pava(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            z = rng.standard_normal(9)
            np.testing.assert_array_equal(
                project_monotone_nonneg(z), np.maximum(pava_nonincreasing(z), 0.0)
            )
        # the clamp in place gives the bits of a clamped copy, past the
        # kernel's threshold for its numpy rounds
        z = rng.standard_normal(100_001)
        clamped = np.maximum(pava_nonincreasing(z), 0.0)
        assert project_monotone_nonneg(z).tobytes() == clamped.tobytes()
        neg = -z
        clamped_neg = np.maximum(pava_nonincreasing(neg), 0.0)
        assert project_monotone_nonneg_dual(z).tobytes() == (clamped_neg - neg).tobytes()

    def test_monotone_nonneg_dual_fixtures(self):
        np.testing.assert_array_equal(project_monotone_nonneg_dual(np.zeros(4)), np.zeros(4))
        e1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(project_monotone_nonneg_dual(e1), e1, atol=1e-15)

    def test_monotone_nonneg_dual_moreau(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = rng.standard_normal(7)
            for small in KERNEL_THRESHOLDS:
                with kernel_threshold(small):
                    r = project_monotone_nonneg_dual(z)
                    primal = project_monotone_nonneg(-z)
                assert cone_contains(ConeId.MONOTONE_NONNEG_DUAL, r, tol=1e-10)
                np.testing.assert_allclose(r, z + primal, atol=1e-15)

    def test_dispatch_matches_direct_calls(self):
        z = np.random.default_rng(6).standard_normal(6)
        np.testing.assert_array_equal(project_cone(ConeId.MONOTONE, z), pava_nonincreasing(z))
        np.testing.assert_array_equal(project_cone("monotone-dual", z), project_monotone_dual(z))


class TestMembership:
    def test_monotone_examples(self):
        assert cone_contains(ConeId.MONOTONE, [1.0, 1.0, 1.0], 0.0)
        assert not cone_contains(ConeId.MONOTONE_NONNEG, [1.0, 2.0, 0.0], 0.0)
        assert not cone_contains(ConeId.MONOTONE_NONNEG_DUAL, [-1.0, 2.0], 0.0)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            cone_contains(ConeId.MONOTONE, [1.0], -1e-3)

    def test_nan_tol_rejected(self):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            cone_contains(ConeId.MONOTONE, [1.0], float("nan"))

    @pytest.mark.parametrize("cone", ALL_CONES)
    def test_violation_zero_iff_member(self, cone):
        rng = np.random.default_rng(8)
        for _ in range(100):
            z = rng.standard_normal(5)
            member = cone_contains(cone, z, 0.0)
            violation = cone_violation(cone, z)
            assert member == (violation == 0.0)

    @pytest.mark.parametrize("cone", ALL_CONES)
    @pytest.mark.parametrize("tol", MEMBERSHIP_TOLS)
    def test_matches_frozen_reference(self, cone, tol):
        # projections sit on the boundary; noise at each scale lands a
        # point a rounding, a tol, or far from it on either side
        rng = np.random.default_rng(11)
        for scale in (0.0, 1e-13, 1e-12, 1e-7, 1e-6, 0.3, 1.0):
            for _ in range(200):
                p = int(rng.integers(1, 7))
                z = project_cone(cone, rng.standard_normal(p))
                z = z + scale * rng.standard_normal(p)
                assert cone_contains(cone, z, tol) is reference_cone_contains(cone, z, tol)

    @pytest.mark.parametrize("cone", ALL_CONES)
    def test_projection_lands_inside(self, cone):
        rng = np.random.default_rng(9)
        for _ in range(50):
            z = rng.standard_normal(6)
            assert cone_contains(cone, project_cone(cone, z), tol=1e-10)

    def test_dual_cone_mapping_is_involutive(self):
        for cone in (ConeId.MONOTONE, ConeId.MONOTONE_NONNEG):
            assert dual_cone_of(dual_cone_of(cone)) is cone

    def test_dual_pairing_nonnegative(self):
        # members of a cone and its dual never pair negatively
        rng = np.random.default_rng(10)
        for cone in ALL_CONES:
            dual = dual_cone_of(cone)
            for _ in range(40):
                a = project_cone(cone, rng.standard_normal(5))
                b = project_cone(dual, rng.standard_normal(5))
                assert np.dot(a, b) >= -1e-10


class TestAbelSum:
    def test_fixtures(self):
        assert abel_sum([1.0, 1.0], [1.0, 1.0]) == pytest.approx(2.0, abs=1e-15)
        assert abel_sum([2.0, 1.0], [3.0, -1.0]) == pytest.approx(5.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            abel_sum([1.0, 2.0], [1.0])

    def test_matches_dot_p10(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x, y = rng.standard_normal(10), rng.standard_normal(10)
            assert abel_sum(x, y) == pytest.approx(float(x @ y), abs=1e-12)


@pytest.mark.parametrize("cone", ALL_CONES)
@given(z=vectors)
def test_projection_idempotent(cone, z):
    r = project_cone(cone, z)
    np.testing.assert_allclose(
        project_cone(cone, r), r, atol=1e-12 * (1 + np.linalg.norm(r))
    )


@pytest.mark.parametrize("cone", ALL_CONES)
@given(z=vectors, seed=st.integers(0, 2**31))
def test_projection_nonexpansive(cone, z, seed):
    other = z + np.random.default_rng(seed).standard_normal(z.size)
    lhs = np.linalg.norm(project_cone(cone, z) - project_cone(cone, other))
    rhs = np.linalg.norm(z - other)
    assert lhs <= rhs + 1e-9 * (1 + rhs)


@pytest.mark.parametrize("cone", ALL_CONES)
@given(z=vectors, alpha=st.floats(0.0, 1e3, allow_nan=False))
def test_projection_positively_homogeneous(cone, z, alpha):
    scaled = project_cone(cone, alpha * z)
    np.testing.assert_allclose(
        scaled,
        alpha * project_cone(cone, z),
        atol=1e-9 * (1 + alpha * np.linalg.norm(z)),
    )


@given(z=vectors)
def test_moreau_pair_monotone(z):
    # pava(z) - project_monotone_dual(-z) = z with orthogonal halves
    for small in KERNEL_THRESHOLDS:
        with kernel_threshold(small):
            primal = pava_nonincreasing(z)
            dual_of_neg = project_monotone_dual(-z)
        np.testing.assert_allclose(
            primal - dual_of_neg, z, atol=1e-10 * (1 + np.linalg.norm(z))
        )
        assert abs(np.dot(primal, dual_of_neg)) <= 1e-10 * (1 + z @ z)


@given(z=vectors)
def test_moreau_pair_monotone_nonneg(z):
    for small in KERNEL_THRESHOLDS:
        with kernel_threshold(small):
            primal = project_monotone_nonneg(z)
            dual_of_neg = project_monotone_nonneg_dual(-z)
        np.testing.assert_allclose(
            primal - dual_of_neg, z, atol=1e-10 * (1 + np.linalg.norm(z))
        )
        assert abs(np.dot(primal, dual_of_neg)) <= 1e-10 * (1 + z @ z)


@given(z=vectors)
def test_abel_sum_equals_dot(z):
    y = np.roll(z, 1)
    dot = float(z @ y)
    # conditioning term: cancellation error scales with the norms, not the dot
    tol = 1e-12 * (1 + abs(dot) + np.linalg.norm(z) * np.linalg.norm(y) * z.size)
    assert abs(abel_sum(z, y) - dot) <= tol
