import numpy as np
import pytest

from mesoc.cones import ConeId, DimensionError, cone_violation, project_cone
from mesoc.oracle import (
    Halfspace,
    Hyperplane,
    LorentzBlock,
    dykstra_callables,
    dykstra_project,
    mesoc_dual_pieces,
    mesoc_pieces,
    monotone_dual_pieces,
    monotone_nonneg_dual_pieces,
    monotone_nonneg_pieces,
    monotone_pieces,
    piece_violation,
    project_piece,
)
from mesoc.projection import (
    MesocPoint,
    mesoc_dual_violation,
    mesoc_violation,
    project_mesoc_dual,
    project_mesoc_parts,
)

CONE_BUILDERS = {
    ConeId.MONOTONE: monotone_pieces,
    ConeId.MONOTONE_DUAL: monotone_dual_pieces,
    ConeId.MONOTONE_NONNEG: monotone_nonneg_pieces,
    ConeId.MONOTONE_NONNEG_DUAL: monotone_nonneg_dual_pieces,
}


class TestPieceProjections:
    def test_halfspace(self):
        piece = Halfspace(np.array([1.0]))
        np.testing.assert_array_equal(project_piece(piece, [-3.0]), [0.0])
        np.testing.assert_array_equal(project_piece(piece, [2.0]), [2.0])
        assert piece_violation(piece, [-3.0]) == 3.0
        assert piece_violation(piece, [2.0]) == 0.0

    def test_hyperplane(self):
        piece = Hyperplane(np.array([1.0, 1.0]))
        np.testing.assert_allclose(project_piece(piece, [2.0, 0.0]), [1.0, -1.0])
        np.testing.assert_array_equal(project_piece(piece, [1.0, -1.0]), [1.0, -1.0])
        assert piece_violation(piece, [2.0, 0.0]) == 2.0

    def test_lorentz_block_soc_fixture(self):
        piece = LorentzBlock((0,), (1,))
        np.testing.assert_allclose(project_piece(piece, [0.0, 2.0]), [1.0, 1.0])

    def test_lorentz_block_inside_untouched(self):
        piece = LorentzBlock((0,), (1, 2))
        z = np.array([5.0, 3.0, 0.0])
        np.testing.assert_array_equal(project_piece(piece, z), z)

    def test_lorentz_block_polar_maps_to_zero(self):
        piece = LorentzBlock((0,), (1,))
        np.testing.assert_allclose(project_piece(piece, [-3.0, 1.0]), [0.0, 0.0], atol=1e-15)

    def test_lorentz_block_leaves_other_coords(self):
        piece = LorentzBlock((2,), (0,))
        out = project_piece(piece, np.array([2.0, 7.0, 0.0]))
        assert out[1] == 7.0

    def test_sum_norm_block_variational_inequality(self):
        # generalized block: the projection P satisfies <z - P, y - P> <= 0
        # for every feasible y, which pins it as the exact projection
        rng = np.random.default_rng(40)
        piece = LorentzBlock((0, 1, 2), (3, 4))
        for _ in range(200):
            z = rng.standard_normal(5) * 2
            proj = project_piece(piece, z)
            assert piece_violation(piece, proj) <= 1e-12
            for _ in range(20):
                y = rng.standard_normal(5)
                # make y feasible: lift the scalar block until the sum covers the norm
                deficit = np.linalg.norm(y[3:]) - y[:3].sum()
                if deficit > 0:
                    y[:3] += deficit / 3.0 + abs(rng.standard_normal())
                assert float(np.dot(z - proj, y - proj)) <= 1e-10

    def test_zero_normals_rejected(self):
        with pytest.raises(ValueError):
            Halfspace(np.zeros(2))
        with pytest.raises(ValueError):
            Hyperplane(np.zeros(3))

    def test_lorentz_block_index_overlap_rejected(self):
        with pytest.raises(ValueError):
            LorentzBlock((0,), (0, 1))

    def test_lorentz_block_needs_scalar(self):
        with pytest.raises(ValueError):
            LorentzBlock((), (0,))


class TestDykstraEngine:
    def test_single_piece_equals_direct_projection(self):
        piece = Halfspace(np.array([1.0, -1.0]))
        rep = dykstra_project([piece], [1.0, 4.0])
        assert rep.converged
        np.testing.assert_allclose(rep.point, project_piece(piece, [1.0, 4.0]), atol=1e-12)

    def test_empty_piece_list_rejected(self):
        with pytest.raises(ValueError):
            dykstra_project([], [1.0])

    def test_max_cycles_reported_not_silent(self):
        projectors = [lambda v, p=p: project_piece(p, v) for p in monotone_dual_pieces(4)]
        rep = dykstra_callables(projectors, np.arange(4.0), tol=1e-14, max_cycles=1)
        assert not rep.converged
        assert rep.cycles == 1

    def test_default_settings_frozen(self):
        # the point, cycle count and increment of the referee's fixed
        # stopping rule, frozen when it was a settable default
        z = np.array([0.3, -1.7, 2.2, 0.9, -0.4])
        rep = dykstra_project(mesoc_pieces(3, 2), z)
        assert [float(v).hex() for v in rep.point] == [
            "0x1.c8ee464454fd4p-2",
            "0x1.c8ee4644f7854p-2",
            "0x1.c8ee464548c8ep-2",
            "0x1.a18c716383d5ap-2",
            "-0x1.7327813c03689p-3",
        ]
        assert rep.cycles == 34 and rep.converged
        assert rep.final_increment.hex() == "0x1.58c7a2048a917p-34"

    def test_fixed_point_reconverges_fast(self):
        rng = np.random.default_rng(41)
        pieces = mesoc_pieces(3, 2)
        rep = dykstra_project(pieces, rng.standard_normal(5))
        again = dykstra_project(pieces, rep.point)
        assert again.converged and again.cycles <= 2
        np.testing.assert_allclose(again.point, rep.point, atol=1e-9)

    def test_output_feasible_for_every_piece(self):
        rng = np.random.default_rng(42)
        for p, q in [(2, 2), (4, 1), (3, 3)]:
            pieces = mesoc_pieces(p, q)
            for _ in range(20):
                rep = dykstra_project(pieces, rng.standard_normal(p + q))
                assert rep.converged
                for piece in pieces:
                    assert piece_violation(piece, rep.point) <= 1e-9

    def test_mesoc_fixture(self):
        rep = dykstra_project(mesoc_pieces(1, 2), np.array([1.0, 2.0, 0.0]))
        np.testing.assert_allclose(rep.point, [1.5, 1.5, 0.0], atol=1e-9)

    def test_monotone_fixture(self):
        rep = dykstra_project(monotone_pieces(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(rep.point, [2.0, 2.0, 2.0], atol=1e-9)


class TestPieceBuilders:
    def test_monotone_pieces_shape(self):
        pieces = monotone_pieces(3)
        assert len(pieces) == 2
        np.testing.assert_array_equal(pieces[0].a, [1.0, -1.0, 0.0])
        np.testing.assert_array_equal(pieces[1].a, [0.0, 1.0, -1.0])

    def test_monotone_pieces_p1_is_unconstrained(self):
        assert monotone_pieces(1) == []

    def test_monotone_dual_pieces_shape(self):
        pieces = monotone_dual_pieces(2)
        assert len(pieces) == 2
        assert isinstance(pieces[0], Halfspace)
        np.testing.assert_array_equal(pieces[0].a, [1.0, 0.0])
        assert isinstance(pieces[1], Hyperplane)
        np.testing.assert_array_equal(pieces[1].a, [1.0, 1.0])

    def test_mesoc_pieces_shape(self):
        pieces = mesoc_pieces(2, 1)
        assert len(pieces) == 2
        np.testing.assert_array_equal(pieces[0].a, [1.0, -1.0, 0.0])
        block = pieces[1]
        assert block.scalar_indices == (1,) and block.vector_indices == (2,)

    def test_invalid_dims(self):
        with pytest.raises(DimensionError):
            monotone_pieces(0)
        with pytest.raises(DimensionError):
            mesoc_pieces(1, -1)

    @pytest.mark.parametrize("cone", list(CONE_BUILDERS))
    def test_piece_membership_matches_cone_membership(self, cone):
        rng = np.random.default_rng(43)
        pieces = CONE_BUILDERS[cone](4)
        for _ in range(200):
            z = rng.standard_normal(4)
            by_pieces = all(piece_violation(piece, z) <= 1e-12 for piece in pieces)
            assert by_pieces == (cone_violation(cone, z) <= 1e-12)

    @pytest.mark.parametrize(
        "cone, z",
        [
            # x_1 < -tol, yet x_1 >= x_2 >= x_3 >= 0 each hold within tol
            (ConeId.MONOTONE_NONNEG, [-1.5e-12, -0.6e-12, 0.0]),
            # every prefix sum is above -tol, and so is sum(y)
            (ConeId.MONOTONE_NONNEG_DUAL, [-0.9e-12, 0.3e-12, 0.3e-12]),
        ],
        ids=["primal", "dual"],
    )
    def test_piece_membership_matches_cone_at_tolerance_edge(self, cone, z):
        # one piece per rule of the cone, so both read the same member
        pieces = CONE_BUILDERS[cone](3)
        assert cone_violation(cone, z) <= 1e-12
        assert all(piece_violation(piece, z) <= 1e-12 for piece in pieces)

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_monotone_nonneg_pieces_are_mesoc_pieces_at_q_zero(self, p):
        for got, want in [
            (monotone_nonneg_pieces(p), mesoc_pieces(p, 0)),
            (monotone_nonneg_dual_pieces(p), mesoc_dual_pieces(p, 0)),
        ]:
            assert [type(piece) for piece in got] == [type(piece) for piece in want]
            for a, b in zip(got, want):
                assert all(map(np.array_equal, vars(a).values(), vars(b).values()))

    def test_mesoc_piece_membership_matches(self):
        rng = np.random.default_rng(44)
        pieces = mesoc_pieces(3, 2)
        dual_pieces = mesoc_dual_pieces(3, 2)
        for _ in range(200):
            vec = rng.standard_normal(5)
            pt = MesocPoint(vec[:3], vec[3:])
            assert (
                all(piece_violation(piece, vec) <= 1e-12 for piece in pieces)
                == (mesoc_violation(pt) <= 1e-12)
            )
            assert (
                all(piece_violation(piece, vec) <= 1e-12 for piece in dual_pieces)
                == (mesoc_dual_violation(pt) <= 1e-12)
            )


class TestOracleAgreement:
    @pytest.mark.parametrize("cone", list(CONE_BUILDERS))
    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_vector_cones_match_closed_form(self, cone, p):
        builder = CONE_BUILDERS[cone]
        pieces = builder(p)
        if not pieces:
            return  # p=1 monotone cone is all of R; nothing to cross-check
        rng = np.random.default_rng(45 + p)
        for _ in range(15):
            z = rng.standard_normal(p)
            rep = dykstra_project(pieces, z)
            assert rep.converged
            np.testing.assert_allclose(rep.point, project_cone(cone, z), atol=1e-6)

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (4, 2), (6, 6)])
    def test_mesoc_matches_closed_form(self, p, q):
        rng = np.random.default_rng(46 + p + 10 * q)
        pieces = mesoc_pieces(p, q)
        for _ in range(15):
            z, w = rng.standard_normal(p), rng.standard_normal(q)
            rep = dykstra_project(pieces, np.concatenate([z, w]))
            assert rep.converged
            primal, _ = project_mesoc_parts(z, w)
            np.testing.assert_allclose(rep.point, primal.as_vector(), atol=1e-6)

    @pytest.mark.parametrize("p,q", [(1, 2), (3, 2), (5, 4)])
    def test_mesoc_dual_matches_closed_form(self, p, q):
        rng = np.random.default_rng(47 + p + 10 * q)
        pieces = mesoc_dual_pieces(p, q)
        for _ in range(15):
            z, w = rng.standard_normal(p), rng.standard_normal(q)
            rep = dykstra_project(pieces, np.concatenate([z, w]))
            assert rep.converged
            dual = project_mesoc_dual(z, w)
            np.testing.assert_allclose(rep.point, dual.as_vector(), atol=1e-6)
