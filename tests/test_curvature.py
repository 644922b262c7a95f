import numpy as np
import pytest

from fd_oracle import richardson, ricci_scalar_fd
from weyl4.catalog import ManifoldSpec, conformally_rescaled, get_manifold
from weyl4.curvature import (
    InsufficientJetOrder,
    christoffel,
    curvature_bundle,
    laplacian_scalar,
    tensor_operator,
    weyl_operator,
)
from weyl4.exprjet import eval_jet, jderiv, jvalue, parse_expression
from weyl4.pointgeom import adjoint_endo

from paper_oracles import j_frame

XYZT = ("x", "y", "z", "t")


def diag_spec(entries, coords=XYZT, domain=((-0.8, 0.8),) * 4):
    grid = tuple(tuple(parse_expression(entries[i] if i == j else "0", coords) for j in range(4)) for i in range(4))
    return ManifoldSpec("test", coords, grid, None, domain, False, frozenset())


class TestChristoffel:
    def test_flat(self):
        mp = get_manifold("euclidean_flat").metric_point([0.3, 0.1, -0.2, 0.5], 3)
        assert np.abs(jvalue(christoffel(mp))).max() == 0.0

    def test_exponential_diagonal_hand_values(self):
        # g = diag(1,1,1,e^{2x}): Gamma^t_{xt} = 1, Gamma^x_{tt} = -e^{2x}
        spec = diag_spec(["1", "1", "1", "exp(2*x)"])
        x0 = 0.3
        gv = jvalue(christoffel(spec.metric_point([x0, 0, 0, 0], 2)))
        assert gv[3, 0, 3] == pytest.approx(1.0, rel=1e-12)
        assert gv[0, 3, 3] == pytest.approx(-np.exp(2 * x0), rel=1e-12)

    def test_torsion_symmetry_and_metric_compatibility(self):
        spec = get_manifold("fubini_study_cp2")
        mp = spec.metric_point([0.2, -0.3, 0.4, 0.1], 3)
        gamma = christoffel(mp)
        gv = jvalue(gamma)
        assert np.abs(gv - gv.transpose(0, 2, 1)).max() == 0.0
        # nabla g = 0 directly
        dg = np.stack([jvalue(jderiv(mp.jets, v)) for v in range(4)])
        nabla_g = (
            dg
            - np.einsum("pmi,pj->mij", gv, mp.g)
            - np.einsum("pmj,ip->mij", gv, mp.g)
        )
        assert np.abs(nabla_g).max() < 1e-11

    def test_insufficient_order(self):
        mp = get_manifold("euclidean_flat").metric_point([0, 0, 0, 0], 0)
        with pytest.raises(InsufficientJetOrder):
            christoffel(mp)


class TestRiemannRicciScalar:
    def test_flat_torus(self):
        b = curvature_bundle(get_manifold("flat_torus").metric_point([1.0, 2.0, 3.0, 4.0], 2))
        assert np.abs(b.riem_v).max() == 0.0
        assert b.S_v == 0.0

    def test_fubini_study_einstein_constant_s(self):
        spec = get_manifold("fubini_study_cp2")
        rng = np.random.default_rng(0)
        svals = []
        for pt in spec.sample_points(20, rng):
            b = curvature_bundle(spec.metric_point(pt, 2))
            svals.append(b.S_v)
            assert np.abs(b.ric_v - (b.S_v / 4.0) * np.eye(4)).max() < 1e-8 * abs(b.S_v)
        svals = np.array(svals)
        assert (svals.max() - svals.min()) / abs(svals.mean()) < 1e-8

    def test_fubini_study_vs_finite_differences(self):
        spec = get_manifold("fubini_study_cp2")
        for pt in ([0.1, -0.2, 0.3, 0.05], [0.4, 0.3, -0.5, 0.6], [0.0, 0.1, 0.0, -0.1]):
            b = curvature_bundle(spec.metric_point(pt, 2))
            riem_fd, ric_fd, S_fd = ricci_scalar_fd(spec, pt, h=2e-3)
            scale = np.abs(b.riem_v).max()
            assert np.abs(b.riem_v - riem_fd).max() < 1e-5 * scale
            assert abs(b.S_v - S_fd) < 1e-5 * abs(b.S_v)

    def test_complex_hyperbolic_negative_constant_s(self):
        spec = get_manifold("complex_hyperbolic_ch2")
        rng = np.random.default_rng(1)
        svals = []
        for pt in spec.sample_points(10, rng):
            b = curvature_bundle(spec.metric_point(pt, 2))
            svals.append(b.S_v)
            assert b.S_v < 0
        svals = np.array(svals)
        assert (svals.max() - svals.min()) / abs(svals.mean()) < 1e-8
        _, _, S_fd = ricci_scalar_fd(spec, [0.1, 0.05, -0.1, 0.2], h=1e-3)
        assert svals.mean() == pytest.approx(S_fd, rel=1e-5)

    def test_symmetries_all_catalog(self, catalog):
        rng = np.random.default_rng(2)
        for spec in catalog.values():
            for pt in spec.sample_points(4, rng):
                mp = spec.metric_point(pt, 2)
                b = curvature_bundle(mp)
                r = b.riem_v
                scale = max(np.abs(r).max(), 1.0)
                assert np.abs(r + r.transpose(1, 0, 2, 3)).max() < 1e-9 * scale
                assert np.abs(r + r.transpose(0, 1, 3, 2)).max() < 1e-9 * scale
                assert np.abs(r - r.transpose(2, 3, 0, 1)).max() < 1e-9 * scale
                # first Bianchi: cyclic sum over the first three slots
                assert np.abs(r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)).max() < 1e-9 * scale
                # Ricci symmetric
                ric_form = jvalue(b.ric_form)
                assert np.abs(ric_form - ric_form.T).max() < 1e-10 * scale
                # Weyl totally trace-free
                w = b.weyl_v
                for tr in (
                    np.einsum("ik,ijkl->jl", mp.g_inv, w),
                    np.einsum("ij,ijkl->kl", mp.g_inv, w),
                    np.einsum("jl,ijkl->ik", mp.g_inv, w),
                ):
                    assert np.abs(tr).max() < 1e-9 * scale


class TestCurvatureOperator:
    def _skew(self, mp, rng):
        M = rng.normal(size=(4, 4))
        return M - adjoint_endo(M, mp)

    def test_flat_zero(self):
        spec = get_manifold("euclidean_flat")
        mp = spec.metric_point([0.1, 0.2, 0.3, 0.4], 2)
        b = curvature_bundle(mp)
        rng = np.random.default_rng(3)
        assert np.abs(tensor_operator(b.riem_v, self._skew(mp, rng), mp)).max() == 0.0

    def test_result_is_skew(self, catalog):
        rng = np.random.default_rng(4)
        for name in ("fubini_study_cp2", "kodaira_thurston", "round_conformal"):
            spec = catalog[name]
            mp = spec.metric_point(spec.sample_points(1, rng)[0], 2)
            b = curvature_bundle(mp)
            RA = tensor_operator(b.riem_v, self._skew(mp, rng), mp)
            assert np.abs(adjoint_endo(RA, mp) + RA).max() < 1e-10 * max(np.abs(RA).max(), 1.0)

    def test_rejects_non_skew(self):
        # the operator the identity evaluators call checks its argument
        spec = get_manifold("fubini_study_cp2")
        mp = spec.metric_point([0.1, 0.1, 0.1, 0.1], 2)
        b = curvature_bundle(mp)
        with pytest.raises(ValueError):
            weyl_operator(np.eye(4), b.riem_v, b.ric_v, b.S_v, mp)

    def test_star_ricci_relation_kahler(self, catalog):
        # Ric* = -R(J X_k, X^k) J / 2 against the direct definition
        rng = np.random.default_rng(5)
        for name in ("fubini_study_cp2", "kahler_potential_generic", "kodaira_thurston"):
            spec = catalog[name]
            pt = spec.sample_points(1, rng)[0]
            mp = spec.metric_point(pt, 2)
            b = curvature_bundle(mp)
            J = spec.j_matrix(pt)
            via_op = -0.5 * tensor_operator(b.riem_v, J, mp) @ J
            direct = np.einsum(
                "mi,nk,kl,ab,mnlb->ai", J, J, mp.g_inv, mp.g_inv, b.riem_v
            )
            assert np.abs(via_op - direct).max() < 1e-9 * max(np.abs(direct).max(), 1.0)


class TestWeylOperator:
    def test_conformally_flat_vanishes(self):
        spec = get_manifold("round_conformal")
        rng = np.random.default_rng(6)
        pt = spec.sample_points(1, rng)[0]
        mp = spec.metric_point(pt, 2)
        b = curvature_bundle(mp)
        M = rng.normal(size=(4, 4))
        A = M - adjoint_endo(M, mp)
        scale = max(np.abs(b.riem_v).max(), 1.0)
        assert np.abs(weyl_operator(A, b.riem_v, b.ric_v, b.S_v, mp)).max() < 1e-8 * scale

    def test_kahler_wj(self):
        spec = get_manifold("fubini_study_cp2")
        pt = [0.3, 0.2, -0.1, 0.4]
        mp = spec.metric_point(pt, 2)
        b = curvature_bundle(mp)
        J = spec.j_matrix(pt)
        assert np.abs(weyl_operator(J, b.riem_v, b.ric_v, b.S_v, mp) - (b.S_v / 3.0) * J).max() < 1e-9 * abs(b.S_v)

    def test_operator_vs_tensor_contraction(self, catalog):
        rng = np.random.default_rng(7)
        for spec in catalog.values():
            pt = spec.sample_points(1, rng)[0]
            mp = spec.metric_point(pt, 2)
            b = curvature_bundle(mp)
            M = rng.normal(size=(4, 4))
            A = M - adjoint_endo(M, mp)
            scale = max(np.abs(b.riem_v).max(), 1.0)
            assert np.abs(weyl_operator(A, b.riem_v, b.ric_v, b.S_v, mp) - tensor_operator(b.weyl_v, A, mp)).max() < 1e-9 * scale


class TestCovariantDerivatives:
    def test_flat_all_zero(self):
        b = curvature_bundle(get_manifold("flat_torus").metric_point([1, 2, 3, 4], 4))
        nr, n2r, nw = (b.require(f) for f in ("nabla_ric", "nabla2_ric", "nabla_weyl"))
        assert np.abs(nr).max() == 0.0
        assert np.abs(n2r).max() == 0.0
        assert np.abs(nw).max() == 0.0

    def test_einstein_parallel_ricci(self):
        for name in ("fubini_study_cp2", "complex_hyperbolic_ch2", "round_conformal"):
            spec = get_manifold(name)
            b = curvature_bundle(spec.metric_point(spec.sample_points(1, np.random.default_rng(8))[0], 3))
            assert np.abs(b.nabla_ric).max() < 1e-8 * abs(b.S_v)

    def test_contracted_second_bianchi(self):
        # oracle: contract nabla Riem directly (test-local covariant derivative)
        spec = get_manifold("kahler_potential_generic")
        pt = [0.4, 0.2, -0.3, 0.5]
        mp = spec.metric_point(pt, 4)
        b = curvature_bundle(mp)
        driem = np.stack([jvalue(jderiv(b.riem, v)) for v in range(4)])
        gv = b.gamma_v
        rv = b.riem_v
        nabla_riem = driem - (
            np.einsum("pmi,pjkl->mijkl", gv, rv)
            + np.einsum("pmj,ipkl->mijkl", gv, rv)
            + np.einsum("pmk,ijpl->mijkl", gv, rv)
            + np.einsum("pml,ijkp->mijkl", gv, rv)
        )
        div_ric_oracle = np.einsum("im,kl,mjkli->j", mp.g_inv, mp.g_inv, nabla_riem)
        # div Ric from the pipeline's nabla_ric
        div_ric = np.einsum("mmb->b", b.nabla_ric)
        assert np.abs(div_ric - div_ric_oracle).max() < 1e-9 * max(np.abs(b.dS).max(), 1.0)
        assert np.abs(2.0 * div_ric - b.dS).max() < 1e-7 * max(np.abs(b.dS).max(), 1.0)

    def test_insufficient_order_reported(self):
        b = curvature_bundle(get_manifold("fubini_study_cp2").metric_point([0.1, 0, 0, 0], 2))
        with pytest.raises(InsufficientJetOrder):
            b.require("nabla_ric")

    def test_nabla_ric_vs_finite_differences(self):
        # independent derivative: Richardson differences of the Ricci endo
        # plus Gamma corrections
        spec = get_manifold("kahler_potential_generic")
        pt = np.array([0.3, -0.2, 0.4, 0.1])
        mp = spec.metric_point(pt, 3)
        b = curvature_bundle(mp)

        def ric_at(p):
            return curvature_bundle(spec.metric_point(p, 2)).ric_v

        gv = b.gamma_v
        for m in range(4):
            d = richardson(ric_at, pt, m, 1e-3)
            fd = d + np.einsum("ac,cb->ab", gv[:, m, :], b.ric_v) - np.einsum("cb,ac->ab", gv[:, m, :], b.ric_v)
            assert np.abs(fd - b.nabla_ric[m]).max() < 1e-6 * max(np.abs(b.nabla_ric).max(), 1.0)


class TestConformalCovariance:
    def test_weyl_13_invariant(self):
        spec = get_manifold("kahler_potential_generic")
        rescaled = conformally_rescaled(spec, "0.2*sin(u)")  # gbar = e^{2f} g, f = 0.1 sin(u)
        pt = [0.3, 0.1, -0.2, 0.4]
        b1 = curvature_bundle(spec.metric_point(pt, 2))
        b2 = curvature_bundle(rescaled.metric_point(pt, 2))
        w13_1 = np.einsum("ia,ajkl->ijkl", b1.mp.g_inv, b1.weyl_v)
        w13_2 = np.einsum("ia,ajkl->ijkl", b2.mp.g_inv, b2.weyl_v)
        assert np.abs(w13_1 - w13_2).max() < 1e-7 * max(np.abs(w13_1).max(), 1.0)


class TestLaplacian:
    def test_constant(self):
        spec = get_manifold("fubini_study_cp2")
        mp = spec.metric_point([0.1, 0.2, 0.3, 0.4], 2)
        b = curvature_bundle(mp)
        f = eval_jet(parse_expression("3.7", spec.coords), mp.point, 2)
        assert laplacian_scalar(f, b.gamma_v, mp) == 0.0

    def test_euclidean_x_squared(self):
        spec = get_manifold("euclidean_flat")
        mp = spec.metric_point([0.5, 0, 0, 0], 2)
        b = curvature_bundle(mp)
        f = eval_jet(parse_expression("x^2", XYZT), mp.point, 2)
        assert laplacian_scalar(f, b.gamma_v, mp) == pytest.approx(-2.0)

    def test_wplus_norm_constant_s_kahler(self):
        # both sides of the Weitzenboeck pointwise identity vanish when S is
        # constant: lap |W+|^2 = 0 and 18 det(W+) = S |W+|^2
        from weyl4.selfdual import wplus_norm2_jet, lambda2_split, wplus_matrix

        spec = get_manifold("fubini_study_cp2")
        pt = [0.2, -0.3, 0.1, 0.4]
        mp = spec.metric_point(pt, 4)
        b = curvature_bundle(mp)
        fr = j_frame(mp, spec.j_matrix(pt), np.eye(4)[0])
        w2 = wplus_norm2_jet(b, fr.orientation)
        assert abs(laplacian_scalar(w2, b.gamma_v, mp)) < 1e-8 * abs(b.S_v) ** 2
        w = wplus_matrix(b, lambda2_split(fr, mp))
        assert abs(18.0 * w.det - b.S_v * w.norm2) < 1e-8 * abs(b.S_v) ** 3

    def test_order_error(self):
        spec = get_manifold("euclidean_flat")
        mp = spec.metric_point([0, 0, 0, 0], 2)
        b = curvature_bundle(mp)
        f = eval_jet(parse_expression("x^2", XYZT), mp.point, 1)
        with pytest.raises(InsufficientJetOrder):
            laplacian_scalar(f, b.gamma_v, mp)
