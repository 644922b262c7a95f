import numpy as np
import pytest

from weyl4.catalog import get_manifold
from weyl4.curvature import curvature_bundle
from weyl4.exprjet import jpartials, jvalue
from weyl4.pointgeom import adjoint_endo, endo_to_form, inner_endo, rotate_supplement
from weyl4.selfdual import (
    WplusMatrix,
    delta_wpm,
    lambda2_split,
    wplus_interior,
    wplus_matrix,
    wplus_norm2_jet,
)

from paper_oracles import (
    apply_form_operator,
    asd_endos,
    chart_orientation,
    compose,
    delta_w_full,
    delta_w_projected,
    form_operator,
    frame_reference,
    hodge_star,
    identity_operator,
    j_frame,
    nabla_wplus_norm2,
    operator_to_04,
    pm_projectors,
    project_minus,
    project_plus,
    star_operator,
    unpack,
    wminus_matrix,
)

STAR_SIGNS = (1.0, 1.0, 1.0, -1.0, -1.0, -1.0)  # the triple of lambda2_split, then the anti-self-dual one


def delta_wminus(b, fr):
    return delta_w_projected(b, pm_projectors(b.mp, chart_orientation(fr.J, b.mp))[1])


def make(name, pt, order=4):
    spec = get_manifold(name)
    mp = spec.metric_point(pt, order)
    b = curvature_bundle(mp)
    fr = j_frame(mp, spec.j_jets(pt, 0)[..., 0], np.eye(4)[0])
    return spec, mp, b, fr


class TestLambda2Split:
    def test_euclidean_classical_basis(self):
        _, mp, b, fr = make("euclidean_flat", [0, 0, 0, 0], 2)
        forms = [endo_to_form(A, mp) for A in (*lambda2_split(fr), *asd_endos(fr))]
        e = np.zeros((4, 4))
        e[0, 1], e[1, 0] = 1.0, -1.0
        e34 = np.zeros((4, 4))
        e34[2, 3], e34[3, 2] = 1.0, -1.0
        assert np.abs(forms[0] - (e + e34)).max() == 0.0  # e12 + e34
        assert np.abs(forms[3] - (e - e34)).max() == 0.0  # e12 - e34

    def test_projections_complementary(self):
        _, mp, b, fr = make("kodaira_thurston", [0.3, 0.4, 0.1, 0.7], 2)
        Pp, Pm = pm_projectors(mp, chart_orientation(fr.J, mp))
        assert np.abs(Pp + Pm - identity_operator()).max() < 1e-12
        assert np.abs(compose(Pp, Pp) - Pp).max() < 1e-12
        assert np.abs(compose(Pp, Pm)).max() < 1e-12

    def test_pm_parts_orthogonal(self):
        _, mp, b, fr = make("fubini_study_cp2", [0.2, 0.1, -0.3, 0.4], 2)
        basis = lambda2_split(fr)
        rng = np.random.default_rng(0)
        for _ in range(5):
            M1, M2 = rng.normal(size=(2, 4, 4))
            A = M1 - adjoint_endo(M1, mp)
            B = M2 - adjoint_endo(M2, mp)
            assert abs(inner_endo(project_plus(basis, A, mp), project_minus(fr, B, mp), mp)) < 1e-11

    def test_gram_and_star_signs(self):
        _, mp, b, fr = make("kahler_potential_generic", [0.3, -0.4, 0.2, 0.6], 2)
        endos = (*lambda2_split(fr), *asd_endos(fr))
        gram = np.array([[inner_endo(a, c, mp) for c in endos] for a in endos])
        assert np.abs(gram - np.eye(6)).max() < 1e-10
        forms = [endo_to_form(A, mp) for A in endos]
        for w, s in zip(forms, STAR_SIGNS):
            assert np.abs(hodge_star(w, mp, chart_orientation(fr.J, mp)) - s * w).max() < 1e-10


def char_poly(w):
    """Coefficients of chi(t) = t^3 - |W+|^2/2 t - det(W+)."""
    return (1.0, 0.0, -0.5 * w.norm2, -w.det)


def two_eigenvalue_residual(w):
    return w.det**2 - w.norm2**3 / 54.0


class TestWplusMatrix:
    def test_kahler_shape(self):
        _, mp, b, fr = make("fubini_study_cp2", [0.2, -0.1, 0.3, 0.15], 2)
        w = wplus_matrix(b, lambda2_split(fr))
        target = (b.S_v / 6.0) * np.diag([2.0, -1.0, -1.0])
        assert np.abs(w.m - target).max() < 1e-9 * abs(b.S_v)

    def test_conformally_flat_zero(self):
        _, mp, b, fr = make("round_conformal", [0.3, -0.2, 0.1, 0.4], 2)
        w = wplus_matrix(b, lambda2_split(fr))
        wm = wminus_matrix(b, fr)
        scale = np.abs(b.riem_v).max()
        assert np.abs(w.m).max() < 1e-10 * scale
        assert np.abs(wm.m).max() < 1e-10 * scale

    def test_traceless_symmetric(self, catalog):
        rng = np.random.default_rng(1)
        for name in ("fubini_study_cp2", "kodaira_thurston", "kahler_potential_generic"):
            spec = catalog[name]
            pt = spec.sample_points(1, rng)[0]
            mp = spec.metric_point(pt, 2)
            b = curvature_bundle(mp)
            fr = j_frame(mp, spec.j_jets(pt, 0)[..., 0], np.eye(4)[0])
            w = wplus_matrix(b, lambda2_split(fr))
            norm = max(np.abs(w.m).max(), 1.0)
            assert abs(np.trace(w.m)) < 1e-9 * norm
            assert np.abs(w.m - w.m.T).max() < 1e-9 * norm

    def test_eigenvalues_vs_char_poly(self):
        _, mp, b, fr = make("kodaira_thurston", [0.4, 0.2, 0.6, 0.1], 2)
        w = wplus_matrix(b, lambda2_split(fr))
        # each eigenvalue is a root of t^3 - (|W+|^2/2) t - det
        for lam in w.eigenvalues:
            chi = lam**3 - 0.5 * w.norm2 * lam - w.det
            assert abs(chi) < 1e-9 * max(w.norm2 ** 1.5, 1.0)
        # elementary symmetric functions of the (well-conditioned) spectrum
        e = w.eigenvalues
        assert abs(e.sum()) < 1e-9
        assert e[0] * e[1] + e[0] * e[2] + e[1] * e[2] == pytest.approx(-0.5 * w.norm2, rel=1e-9)
        assert np.prod(e) == pytest.approx(w.det, rel=1e-9)

    def test_char_poly_roots_distinct_spectrum(self):
        # away from double roots np.roots recovers the spectrum tightly
        m = np.diag([0.5, -0.2, -0.3])
        w = WplusMatrix.from_matrix(m)
        roots = np.sort(np.roots(char_poly(w)).real)[::-1]
        assert np.abs(roots - w.eigenvalues).max() < 1e-9

    def test_w_splits_as_direct_sum(self):
        # full-trace norms: |W|^2 over 2-forms = |W+|^2 + |W-|^2
        _, mp, b, fr = make("kahler_potential_generic", [0.5, 0.2, -0.3, 0.1], 2)
        w = wplus_matrix(b, lambda2_split(fr))
        wm = wminus_matrix(b, fr)
        M = form_operator(unpack(b.weyl_v), mp)
        tr_w2 = float(np.einsum("ijkl,klij->", M, M))
        assert tr_w2 == pytest.approx(w.norm2 + wm.norm2, rel=1e-10)


class TestWplusInvariants:
    def test_kahler_values(self):
        _, mp, b, fr = make("fubini_study_cp2", [0.1, 0.2, 0.3, -0.2], 2)
        w = wplus_matrix(b, lambda2_split(fr))
        S = b.S_v
        assert w.norm2 == pytest.approx(S**2 / 6.0, rel=1e-10)
        assert w.det == pytest.approx(S**3 / 108.0, rel=1e-10)
        np.testing.assert_allclose(
            w.eigenvalues, sorted([S / 3.0, -S / 6.0, -S / 6.0], reverse=True), rtol=1e-10
        )
        assert abs(two_eigenvalue_residual(w)) < 1e-9 * w.norm2**3

    def test_zero_matrix(self):
        w = WplusMatrix.from_matrix(np.zeros((3, 3)))
        assert w.norm2 == 0.0 and w.det == 0.0
        assert two_eigenvalue_residual(w) == 0.0

    def test_two_eigenvalue_family_exact(self):
        lam = 0.37
        w = WplusMatrix.from_matrix(lam * np.diag([2.0, -1.0, -1.0]))
        assert w.det**2 == pytest.approx(w.norm2**3 / 54.0, rel=1e-12)

    def test_char_poly_coefficients(self):
        rng = np.random.default_rng(2)
        M = rng.normal(size=(3, 3))
        M = M + M.T
        M -= np.trace(M) / 3.0 * np.eye(3)
        w = WplusMatrix.from_matrix(M)
        # chi(t) = t^3 - (|W+|^2/2) t - det
        for t in (0.3, -1.2, 2.5):
            chi = np.polyval(char_poly(w), t)
            direct = float(np.linalg.det(t * np.eye(3) - M))
            assert chi == pytest.approx(direct, rel=1e-10)


class TestDeltaW:
    def test_flat_zero(self):
        _, mp, b, fr = make("flat_torus", [1.0, 2.0, 3.0, 4.0], 3)
        dwp = delta_wpm(b, lambda2_split(fr))
        assert np.abs(dwp).max() == 0.0
        assert np.abs(delta_wminus(b, fr)).max() == 0.0

    def test_constant_s_kahler_divergence_free(self):
        for name in ("fubini_study_cp2", "complex_hyperbolic_ch2"):
            _, mp, b, fr = make(name, [0.15, -0.1, 0.2, 0.05], 3)
            dwp = delta_wpm(b, lambda2_split(fr))
            assert np.abs(dwp).max() < 1e-8 * abs(b.S_v)

    def test_kahler_divergence_identity(self):
        # delta W+ = -(grad log |S| .| W+) on Kahler manifolds
        _, mp, b, fr = make("kahler_potential_generic", [0.4, 0.3, -0.2, 0.5], 3)
        sd = lambda2_split(fr)
        dwp = delta_wpm(b, sd)
        ip = wplus_interior(mp.g_inv @ b.dS / b.S_v, wplus_matrix(b, sd).m, sd, mp)
        assert np.abs(dwp + ip).max() < 1e-7 * np.abs(dwp).max()

    def test_decomposition(self, catalog):
        rng = np.random.default_rng(3)
        for name in ("kodaira_thurston", "kahler_potential_generic", "perturbed_j"):
            spec = catalog[name]
            pt = spec.sample_points(1, rng)[0]
            mp = spec.metric_point(pt, 3)
            b = curvature_bundle(mp)
            fr = j_frame(mp, spec.j_jets(pt, 0)[..., 0], np.eye(4)[0])
            dwp, dwm = delta_wpm(b, lambda2_split(fr)), delta_wminus(b, fr)
            dw = delta_w_full(b)
            scale = max(np.abs(dw).max(), np.abs(b.riem_v).max(), 1.0)
            assert np.abs(dwp + dwm - dw).max() < 1e-9 * scale

    def test_dwp_lies_in_sd_span(self):
        _, mp, b, fr = make("kodaira_thurston", [0.3, 0.5, 0.2, 0.8], 3)
        basis = lambda2_split(fr)
        dwp = delta_wpm(b, basis)
        for i in range(4):
            proj = project_plus(basis, dwp[i], mp)
            assert np.abs(dwp[i] - proj).max() < 1e-9 * max(np.abs(dwp).max(), 1.0)

    def test_gl121_cross_check_all_catalog(self, catalog):
        from weyl4.hermitian import gl121_delta_wplus

        rng = np.random.default_rng(4)
        for spec in catalog.values():
            pt = spec.sample_points(1, rng)[0]
            mp = spec.metric_point(pt, 3)
            b = curvature_bundle(mp)
            fr = j_frame(mp, spec.j_jets(pt, 0)[..., 0], np.eye(4)[0])
            dwp = delta_wpm(b, lambda2_split(fr))
            alt = gl121_delta_wplus(b.nabla_ric, b.dS, mp, fr)
            scale = max(np.abs(dwp).max(), np.abs(b.riem_v).max(), 1.0)
            assert np.abs(dwp - alt).max() < 1e-7 * scale


class TestBasisIndependence:
    def test_invariants_under_rotations(self):
        _, mp, b, fr = make("kodaira_thurston", [0.6, 0.2, 0.4, 0.9], 2)
        w0 = wplus_matrix(b, lambda2_split(fr))
        rng = np.random.default_rng(5)
        for alpha in rng.uniform(0, 2 * np.pi, size=10):
            fr2 = rotate_supplement(fr, alpha)
            w = wplus_matrix(b, lambda2_split(fr2))
            assert abs(w.norm2 - w0.norm2) < 1e-9 * max(w0.norm2, 1.0)
            assert abs(w.det - w0.det) < 1e-9 * max(abs(w0.det), 1.0)
            assert np.abs(w.eigenvalues - w0.eigenvalues).max() < 1e-9


class TestNablaWplusNorms:
    def test_constant_s_kahler_both_zero(self):
        ref = frame_reference(get_manifold("fubini_study_cp2"), [0.25, -0.15, 0.3, 0.1], 3)
        b = ref.bundle
        n2 = nabla_wplus_norm2(ref)
        assert abs(n2) < 1e-8 * b.S_v**2
        w2 = wplus_norm2_jet(b, ref.acs.jets)
        assert np.abs(jpartials(w2, 1)).max() < 1e-8 * b.S_v**2

    def test_generic_kahler_gradient_identities(self):
        ref = frame_reference(get_manifold("kahler_potential_generic"), [0.3, 0.2, -0.4, 0.6], 3)
        mp, b = ref.mp, ref.bundle
        n2 = nabla_wplus_norm2(ref)
        grad_s2 = float(b.dS @ mp.g_inv @ b.dS)
        assert n2 == pytest.approx(grad_s2 / 6.0, rel=1e-7)
        w2 = wplus_norm2_jet(b, ref.acs.jets)
        dv = jpartials(w2, 1)
        grad_abs2 = float(dv @ mp.g_inv @ dv) / (4.0 * jvalue(w2))
        assert n2 == pytest.approx(grad_abs2, rel=1e-7)

    def test_norm_jet_matches_matrix(self, catalog):
        rng = np.random.default_rng(6)
        for name in ("fubini_study_cp2", "kodaira_thurston", "kahler_potential_generic", "round_conformal"):
            spec = catalog[name]
            pt = spec.sample_points(1, rng)[0]
            mp = spec.metric_point(pt, 2)
            b = curvature_bundle(mp)
            fr = j_frame(mp, spec.j_jets(pt, 0)[..., 0], np.eye(4)[0])
            w = wplus_matrix(b, lambda2_split(fr))
            w2 = wplus_norm2_jet(b, spec.j_jets(pt, 2))
            assert jvalue(w2) == pytest.approx(w.norm2, rel=1e-9, abs=1e-9 * max(np.abs(b.riem_v).max(), 1.0) ** 2)


class TestOperatorHelpers:
    def test_operator_roundtrip(self):
        _, mp, b, fr = make("kodaira_thurston", [0.2, 0.7, 0.4, 0.3], 2)
        W = unpack(b.weyl_v)
        back = operator_to_04(form_operator(W, mp), mp)
        assert np.abs(back - W).max() < 1e-12 * max(np.abs(W).max(), 1.0)

    def test_star_operator_squares_to_identity(self):
        _, mp, b, fr = make("fubini_study_cp2", [0.3, 0.3, 0.1, -0.2], 2)
        S = star_operator(mp, chart_orientation(fr.J, mp))
        assert np.abs(compose(S, S) - identity_operator()).max() < 1e-11

    def test_apply_form_operator(self):
        _, mp, b, fr = make("euclidean_flat", [0, 0, 0, 0], 2)
        Pp, _ = pm_projectors(mp, chart_orientation(fr.J, mp))
        w = endo_to_form(fr.J, mp)
        assert np.abs(apply_form_operator(Pp, w) - w).max() < 1e-12
