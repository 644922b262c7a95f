import numpy as np
import pytest

from weyl4.catalog import conformally_rescaled, get_manifold
from weyl4.conditions import evaluate_identity
from weyl4.curvature import curvature_bundle
from weyl4.exprjet import eval_jet, jderiv, jpartials, jvalue, parse_expression
from weyl4.hermitian import (
    AcsPoint,
    gl121_delta_wplus,
    lambda_jet,
    nabla_j_data,
    phi_psi_pairing,
    projections_p1p2,
    q_j_integrand,
    s_star_jet,
    star_ricci_family,
)
from weyl4.pointgeom import adjoint_endo, build_j_frame, inner_endo, rotate_supplement
from weyl4.selfdual import delta_wpm, lambda2_split, wplus_matrix

from paper_oracles import (
    conformal_bracket,
    conformal_nabla_j,
    ric_plus,
    rictilde_ak_check,
    rictilde_endo,
    theta_form,
    theta_form_interior,
)

KT_POINT = [0.37, 0.21, 0.83, 0.5]


def make(name, pt, order=4):
    spec = get_manifold(name)
    mp = spec.metric_point(pt, order)
    b = curvature_bundle(mp)
    acs = AcsPoint.from_jets(spec.j_jets(pt, 2), mp)
    fr = build_j_frame(mp, acs, np.eye(4)[0])
    return spec, mp, b, acs, fr


# Frozen oracles for the Kodaira-Thurston nilmanifold, derived by hand in the
# left-invariant frame E1 = dx, E2 = dy + x dz, E3 = dz, E4 = dt with
# J E1 = E3, J E2 = E4:
#   S = -1/2, S* = 1/2, |nabla J|^2 = 1/2, Ric* has spectrum (1/4, 1/4, 0, 0),
#   |Rt|^2 = 5/8, |Rt+|^2 = 1/8, |Rt-|^2 = 1/2, Ric*- = 0,
#   q(J) = -3/4, <phi, psi> = -3/8, lambda = 1/6,
#   W+ = diag(1/3, -2/3, 1/3) in the seed-dx frame basis (Omega_J, Omega_I, Omega_K),
#   S_tri = -3/2, S_box = 1/2 for that frame.
KT = {
    "S": -0.5,
    "S_star": 0.5,
    "nabla_j2": 0.5,
    "rt2": 5.0 / 8.0,
    "rtp2": 1.0 / 8.0,
    "rtm2": 0.5,
    "q_j": -0.75,
    "phi_psi": -3.0 / 8.0,
    "lam": 1.0 / 6.0,
    "s_tri": -1.5,
    "s_box": 0.5,
}


class TestStarRicciFamily:
    def test_kahler_star_equals_ricci(self):
        for name in ("fubini_study_cp2", "kahler_potential_generic"):
            _, mp, b, acs, fr = make(name, [0.2, -0.1, 0.3, 0.15])
            star = star_ricci_family(b, acs, fr)
            scale = max(abs(b.S_v), 1.0)
            assert np.abs(star.ric_star - b.ric_v).max() < 1e-9 * scale
            assert abs(star.s_star - b.S_v) < 1e-9 * scale
            assert star.ric_star_minus2 < 1e-18 * scale**2
            assert star.rt2 < 1e-18 * scale**2

    def test_flat_all_zero(self):
        _, mp, b, acs, fr = make("flat_torus", [1.0, 2.0, 3.0, 4.0])
        star = star_ricci_family(b, acs, fr)
        for field in ("ric_star", "ric_tri", "ric_box", "rtilde_I", "rtilde_K"):
            assert np.abs(getattr(star, field)).max() == 0.0

    def test_kodaira_thurston_frozen_values(self):
        _, mp, b, acs, fr = make("kodaira_thurston", KT_POINT)
        star = star_ricci_family(b, acs, fr)
        assert b.S_v == pytest.approx(KT["S"], abs=1e-12)
        assert star.s_star == pytest.approx(KT["S_star"], abs=1e-12)
        assert star.lam == pytest.approx(KT["lam"], abs=1e-12)
        assert star.rt2 == pytest.approx(KT["rt2"], abs=1e-12)
        assert star.rtp2 == pytest.approx(KT["rtp2"], abs=1e-12)
        assert star.rtm2 == pytest.approx(KT["rtm2"], abs=1e-12)
        assert star.ric_star_minus2 < 1e-20
        assert star.s_tri == pytest.approx(KT["s_tri"], abs=1e-12)
        assert star.s_box == pytest.approx(KT["s_box"], abs=1e-12)
        assert np.sort(np.linalg.eigvals(star.ric_star).real) == pytest.approx(
            [0.0, 0.0, 0.25, 0.25], abs=1e-12
        )

    def test_commutation_tables(self, catalog):
        rng = np.random.default_rng(0)
        for name in ("kodaira_thurston", "perturbed_j", "round_conformal", "fubini_study_cp2"):
            spec = catalog[name]
            pt = spec.sample_points(1, rng)[0]
            _, mp, b, acs, fr = make(name, pt, 2)
            star = star_ricci_family(b, acs, fr)
            J = acs.J
            scale = max(abs(b.S_v), 1.0)
            ric_p = ric_plus(b, J)
            ric_m = b.ric_v - ric_p
            ric_star_plus = star.ric_star - star.ric_star_minus
            assert np.abs(ric_p @ J - J @ ric_p).max() < 1e-9 * scale
            assert np.abs(ric_star_plus @ J - J @ ric_star_plus).max() < 1e-9 * scale
            assert np.abs(ric_m @ J + J @ ric_m).max() < 1e-9 * scale
            assert np.abs(star.ric_star_minus @ J + J @ star.ric_star_minus).max() < 1e-9 * scale
            # (Ric*)* = -J Ric* J
            assert np.abs(adjoint_endo(star.ric_star, mp) + J @ star.ric_star @ J).max() < 1e-9 * scale
            # Rt(I), Rt(K) anticommute with J
            assert np.abs(star.rtilde_I @ J + J @ star.rtilde_I).max() < 1e-9 * scale
            assert np.abs(star.rtilde_K @ J + J @ star.rtilde_K).max() < 1e-9 * scale
            # skew parts are honest skew endomorphisms
            assert np.abs(adjoint_endo(star.ric_tri_minus, mp) + star.ric_tri_minus).max() < 1e-9 * scale

    def test_lemma22_identities(self, catalog):
        rng = np.random.default_rng(1)
        for spec in catalog.values():
            for pt in spec.sample_points(3, rng):
                _, mp, b, acs, fr = make(spec.id, pt, 2)
                star = star_ricci_family(b, acs, fr)
                scale = max(abs(b.S_v), np.abs(b.ric_v).max(), 1.0)
                lhs = star.ric_tri + star.ric_box + star.ric_star
                assert np.abs(lhs - b.ric_v).max() < 1e-9 * scale
                assert abs(star.s_tri + star.s_box + star.s_star - b.S_v) < 1e-9 * scale

    def test_norm_identity_web(self, catalog):
        # gl-63, gl-65, gl-69, gl-70, gl-71, gl-72, gl-54 at random points
        rng = np.random.default_rng(2)
        for spec in catalog.values():
            pt = spec.sample_points(1, rng)[0]
            _, mp, b, acs, fr = make(spec.id, pt, 2)
            s = star_ricci_family(b, acs, fr)
            w = wplus_matrix(b, lambda2_split(fr, mp))
            S = b.S_v
            scale = max(abs(S) ** 2, w.norm2, s.rt2, 1.0)
            assert abs(
                s.ric_tri_minus2 + s.ric_box_minus2 - s.ric_star_minus2 - 2.0 * s.j_dot_tri_minus**2
            ) < 1e-8 * scale
            assert abs(
                s.rt2 - 0.25 * (s.s_tri**2 + s.s_box**2)
                - 4.0 * (s.ric_tri_minus2 + s.ric_box_minus2 - s.ric_star_minus2)
            ) < 1e-8 * scale
            assert abs(
                s.rtm2 - 0.125 * (s.s_tri - s.s_box) ** 2
                - 4.0 * (s.ric_tri_minus2 + s.ric_box_minus2 - s.ric_star_minus2)
            ) < 1e-8 * scale
            assert abs(s.rt2 - s.rtp2 - s.rtm2) < 1e-9 * scale
            assert abs(s.rtp2 - 0.125 * (s.s_star - S) ** 2) < 1e-8 * scale
            assert abs(
                w.norm2 - 0.375 * (s.s_star - S / 3.0) ** 2 - 8.0 * s.ric_star_minus2 - s.rtm2
            ) < 1e-8 * scale
            assert abs(
                w.norm2
                - 0.25 * (s.s_star**2 + s.s_tri**2 + s.s_box**2 - S**2 / 3.0)
                - 4.0 * (s.ric_star_minus2 + s.ric_tri_minus2 + s.ric_box_minus2)
            ) < 1e-8 * scale

    def test_rictilde_matches_gl16(self):
        _, mp, b, acs, fr = make("kodaira_thurston", KT_POINT, 2)
        star = star_ricci_family(b, acs, fr)
        direct = rictilde_endo(b, acs.J)
        ric_star_plus = star.ric_star - star.ric_star_minus
        assert np.abs(direct - 0.5 * (ric_star_plus - ric_plus(b, acs.J))).max() < 1e-12


def nijenhuis_coordinate_formula(spec, pt):
    """Oracle: N^a_{ij} from bare coordinate derivatives of J (no connection)."""
    jets = spec.j_jets(pt, 1)
    J = jvalue(jets)
    dJ = np.stack([jvalue(jderiv(jets, m)) for m in range(4)])  # [m,a,b]
    t1 = np.einsum("mi,maj->aij", J, dJ)
    t2 = np.einsum("ab,jbi->aij", J, dJ)
    return t1 - t1.transpose(0, 2, 1) + t2 - t2.transpose(0, 2, 1)


class TestNablaJ:
    def test_kahler_point_everything_vanishes(self):
        _, mp, b, acs, fr = make("fubini_study_cp2", [0.3, -0.2, 0.1, 0.4], 2)
        nj = nabla_j_data(acs, b, fr)
        assert np.abs(nj.nabla_j).max() < 1e-12
        assert np.abs(nj.xi).max() < 1e-12 and np.abs(nj.eta).max() < 1e-12
        assert nj.nijenhuis_norm < 1e-12
        assert nj.d_omega_norm < 1e-12

    def test_kodaira_thurston(self):
        _, mp, b, acs, fr = make("kodaira_thurston", KT_POINT, 2)
        nj = nabla_j_data(acs, b, fr)
        assert nj.d_omega_norm < 1e-10
        assert np.abs(nj.eta - acs.J @ nj.xi).max() < 1e-9
        assert nj.norm2 == pytest.approx(KT["nabla_j2"], abs=1e-12)
        # quasi-Kahler: (nabla_{JX} J) = -(nabla_X J) J
        qk = np.einsum("pm,pab->mab", acs.J, nj.nabla_j) - np.einsum("mac,cb->mab", nj.nabla_j, acs.J)
        assert np.abs(qk).max() < 1e-9
        assert nj.reconstruction_residual < 1e-9
        assert nj.nijenhuis_norm > 0.5  # strictly non-integrable
        # xi = -E1/2 in the chart (E1 = d/dx)
        np.testing.assert_allclose(nj.xi, [-0.5, 0, 0, 0], atol=1e-12)

    def test_nijenhuis_formula_against_coordinate_oracle(self, catalog):
        rng = np.random.default_rng(3)
        for name in ("perturbed_j", "kodaira_thurston", "round_conformal"):
            spec = catalog[name]
            for pt in spec.sample_points(3, rng):
                _, mp, b, acs, fr = make(name, pt, 2)
                nj = nabla_j_data(acs, b, fr)
                oracle = nijenhuis_coordinate_formula(spec, pt)
                assert np.abs(nj.nijenhuis - oracle).max() < 1e-10 * max(1.0, np.abs(oracle).max())

    def test_round_conformal_hermitian_non_kahler(self):
        _, mp, b, acs, fr = make("round_conformal", [0.3, -0.2, 0.1, 0.4], 2)
        nj = nabla_j_data(acs, b, fr)
        assert np.abs(nj.nabla_j).max() > 0.1
        assert nj.d_omega_norm > 0.1
        assert nj.nijenhuis_norm < 1e-10

    @pytest.mark.parametrize("name", ["kodaira_thurston", "perturbed_j", "round_conformal"])
    def test_order_one_j_jets_suffice(self, name):
        # nabla J reads only the first partials of J, which an order-1 jet holds
        spec, mp, b, acs, fr = make(name, KT_POINT, 2)
        acs1 = AcsPoint.from_jets(spec.j_jets(KT_POINT, 1), mp)
        assert acs1.order == 1
        np.testing.assert_array_equal(nabla_j_data(acs1, b, fr).nabla_j, nabla_j_data(acs, b, fr).nabla_j)

    def test_reconstruction_rotated_frames(self):
        _, mp, b, acs, fr = make("kodaira_thurston", KT_POINT, 2)
        for alpha in (0.3, 1.2, 4.0):
            fr2 = rotate_supplement(fr, alpha)
            nj = nabla_j_data(acs, b, fr2)
            assert nj.reconstruction_residual < 1e-9
            assert np.abs(nj.eta - acs.J @ nj.xi).max() < 1e-9


class TestRictildeAkCheck:
    def test_kahler_trivial(self):
        _, mp, b, acs, fr = make("fubini_study_cp2", [0.1, 0.2, -0.2, 0.3])
        star = star_ricci_family(b, acs, fr)
        nj = nabla_j_data(acs, b, fr)
        ok, r30, r31 = rictilde_ak_check(nj, star, b, acs.J)
        assert ok and r30 < 1e-8 and r31 < 1e-8

    def test_kodaira_thurston(self):
        _, mp, b, acs, fr = make("kodaira_thurston", KT_POINT)
        star = star_ricci_family(b, acs, fr)
        nj = nabla_j_data(acs, b, fr)
        ok, r30, r31 = rictilde_ak_check(nj, star, b, acs.J)
        assert ok and r30 < 1e-8 and r31 < 1e-8
        # S* - S = 2 |nabla J|^2 in dimension four
        assert star.s_star - b.S_v == pytest.approx(2.0 * nj.norm2, abs=1e-9)

    def test_not_applicable_when_omega_not_closed(self):
        _, mp, b, acs, fr = make("perturbed_j", [0.4, -0.3, 0.2, 0.7])
        star = star_ricci_family(b, acs, fr)
        nj = nabla_j_data(acs, b, fr)
        ok, r30, r31 = rictilde_ak_check(nj, star, b, acs.J)
        assert not ok and r30 is None and r31 is None


class TestProjections:
    def test_pairings(self, catalog):
        rng = np.random.default_rng(4)
        for spec in catalog.values():
            pt = spec.sample_points(1, rng)[0]
            _, mp, b, acs, fr = make(spec.id, pt, 2)
            star = star_ricci_family(b, acs, fr)
            w = wplus_matrix(b, lambda2_split(fr, mp))
            proj = projections_p1p2(star, w.m)
            scale = max(abs(star.lam), w.norm2, 1.0)
            assert abs(proj.p1_pairing - proj.two_lambda) < 1e-9 * scale
            assert abs(proj.p2_pairing + proj.two_lambda) < 1e-9 * scale
            assert abs(w.norm2 - 6.0 * star.lam**2 - proj.g_norm2) < 1e-9 * scale**2

    def test_kahler_g_vanishes(self):
        _, mp, b, acs, fr = make("fubini_study_cp2", [0.2, 0.2, -0.3, 0.1], 2)
        star = star_ricci_family(b, acs, fr)
        w = wplus_matrix(b, lambda2_split(fr, mp))
        proj = projections_p1p2(star, w.m)
        assert proj.g_norm2 < 1e-12 * w.norm2
        assert np.abs(w.m - star.lam * np.diag([2.0, -1.0, -1.0])).max() < 1e-9 * abs(star.lam)


class TestTheta:
    def test_constant_s_vanishes(self):
        _, mp, b, acs, fr = make("fubini_study_cp2", [0.3, 0.1, 0.2, -0.4], 3)
        assert np.abs(theta_form(b, fr)).max() < 1e-9 * abs(b.S_v)

    def test_matches_interior_product_form(self):
        _, mp, b, acs, fr = make("kahler_potential_generic", [0.3, 0.2, -0.4, 0.6], 3)
        th1 = theta_form(b, fr)
        th2 = theta_form_interior(b, fr)
        assert np.abs(th1 - th2).max() < 1e-10 * max(np.abs(th1).max(), 1e-14)

    def test_kahler_case_of_thm43(self):
        _, mp, b, acs, fr = make("kahler_potential_generic", [0.3, 0.2, -0.4, 0.6], 3)
        dwp = delta_wpm(b, fr)
        th = theta_form(b, fr)
        assert np.abs(dwp + th).max() < 1e-7 * max(np.abs(dwp).max(), 1e-14)

    def test_rotation_invariance(self):
        _, mp, b, acs, fr = make("kahler_potential_generic", [0.5, -0.2, 0.3, 0.1], 3)
        th0 = theta_form(b, fr)
        rng = np.random.default_rng(5)
        for alpha in rng.uniform(0, 2 * np.pi, size=5):
            th = theta_form(b, rotate_supplement(fr, alpha))
            assert np.abs(th - th0).max() < 1e-10 * max(np.abs(th0).max(), 1e-14)


class TestQJ:
    def test_flat(self):
        _, mp, b, acs, fr = make("flat_torus", [1, 2, 3, 4])
        assert q_j_integrand(b, acs.J) == 0.0

    def test_einstein_constant(self):
        _, mp, b, acs, fr = make("fubini_study_cp2", [0.3, -0.1, 0.2, 0.4])
        assert abs(q_j_integrand(b, acs.J)) < 1e-7 * b.S_v**2

    def test_kodaira_thurston_value_and_constancy(self):
        spec = get_manifold("kodaira_thurston")
        rng = np.random.default_rng(6)
        vals = []
        for pt in spec.sample_points(20, rng):
            _, mp, b, acs, fr = make("kodaira_thurston", pt)
            vals.append(q_j_integrand(b, acs.J))
        vals = np.array(vals)
        assert vals.mean() == pytest.approx(KT["q_j"], abs=1e-9)
        assert (vals.max() - vals.min()) < 1e-7 * abs(vals.mean())


class TestPhiPsi:
    def test_kahler_zero(self):
        _, mp, b, acs, fr = make("kahler_potential_generic", [0.4, 0.1, -0.2, 0.3])
        nj = nabla_j_data(acs, b, fr)
        v1, v2 = phi_psi_pairing(b.nabla_ric, nj, mp, fr)
        assert abs(v1) < 1e-10 and abs(v2) < 1e-10

    def test_kodaira_thurston_routes_agree(self):
        # both evaluations must agree; the common value is the hand-derived
        # -3/8 (nabla Ric != 0 here, so the pairing is genuinely nonzero)
        _, mp, b, acs, fr = make("kodaira_thurston", KT_POINT)
        nj = nabla_j_data(acs, b, fr)
        v1, v2 = phi_psi_pairing(b.nabla_ric, nj, mp, fr)
        assert abs(v1 - v2) < 1e-8
        assert v1 == pytest.approx(KT["phi_psi"], abs=1e-10)
        # consistency with the obstruction integrand: q = 2 <phi,psi> holds
        # pointwise here because all quantities are left-invariant
        assert q_j_integrand(b, acs.J) == pytest.approx(2.0 * v1, abs=1e-9)

    def test_gate(self):
        # the pairing holds only where d Omega = 0; EQ126's almost-Kahler gate
        # keeps the evaluator off other points
        spec = get_manifold("perturbed_j")
        assert not evaluate_identity("EQ126", spec, [0.5, 0.2, -0.1, 0.3]).applicable
        assert evaluate_identity("EQ126", get_manifold("kodaira_thurston"), KT_POINT).applicable


class TestConformal:
    def test_constant_f_unchanged(self):
        spec, mp, b, acs, fr = make("kodaira_thurston", KT_POINT, 3)
        nj = nabla_j_data(acs, b, fr)
        f = eval_jet(parse_expression("0.7", spec.coords), KT_POINT, 1)
        assert np.abs(conformal_nabla_j(nj, fr, f) - nj.nabla_j).max() == 0.0

    def test_prediction_matches_recomputation(self):
        for name in ("kahler_potential_generic", "kodaira_thurston"):
            spec = get_manifold(name)
            pt = [0.3, 0.2, 0.4, 0.6]
            f_text = f"0.2*{spec.coords[0]}"
            _, mp, b, acs, fr = make(name, pt, 3)
            nj = nabla_j_data(acs, b, fr)
            f = eval_jet(parse_expression(f_text, spec.coords), pt, 1)
            pred = conformal_nabla_j(nj, fr, f)
            rescaled = conformally_rescaled(spec, f_text)
            mp2 = rescaled.metric_point(pt, 3)
            b2 = curvature_bundle(mp2)
            acs2 = AcsPoint.from_jets(spec.j_jets(pt, 2), mp2)
            fr2 = build_j_frame(mp2, acs2, np.eye(4)[0])
            nj2 = nabla_j_data(acs2, b2, fr2)
            scale = max(np.abs(nj2.nabla_j).max(), 1e-14)
            assert np.abs(pred - nj2.nabla_j).max() < 1e-7 * scale

    def test_bracket_identity(self):
        _, mp, b, acs, fr = make("kodaira_thurston", KT_POINT, 2)
        rng = np.random.default_rng(7)
        f_grad = rng.normal(size=4)
        for _ in range(5):
            X = rng.normal(size=4)
            lhs, rhs = conformal_bracket(f_grad, X, fr, mp)
            assert np.abs(lhs - rhs).max() < 1e-9 * max(np.abs(lhs).max(), 1.0)


class TestFrameDependence:
    def test_invariants_under_rotation(self):
        _, mp, b, acs, fr = make("kodaira_thurston", KT_POINT, 2)
        s0 = star_ricci_family(b, acs, fr)
        rng = np.random.default_rng(8)
        for alpha in rng.uniform(0, 2 * np.pi, size=5):
            s = star_ricci_family(b, acs, rotate_supplement(fr, alpha))
            assert s.rt2 == pytest.approx(s0.rt2, abs=1e-9)
            assert s.rtp2 == pytest.approx(s0.rtp2, abs=1e-9)
            assert s.rtm2 == pytest.approx(s0.rtm2, abs=1e-9)
            assert s.s_tri + s.s_box == pytest.approx(s0.s_tri + s0.s_box, abs=1e-9)

    def test_s_tri_alone_is_frame_dependent(self):
        # S_tri and S_box individually rotate into each other; only their sum
        # and the full norm combinations are invariants (the quarter-turn on
        # the nilmanifold shifts S_tri from -3/2 to -1/2)
        _, mp, b, acs, fr = make("kodaira_thurston", KT_POINT, 2)
        s0 = star_ricci_family(b, acs, fr)
        s1 = star_ricci_family(b, acs, rotate_supplement(fr, np.pi / 4))
        assert abs(s1.s_tri - s0.s_tri) > 0.5
        assert s1.s_tri + s1.s_box == pytest.approx(s0.s_tri + s0.s_box, abs=1e-12)
        # the norm web still closes in the rotated frame
        assert abs(
            s1.ric_tri_minus2 + s1.ric_box_minus2 - s1.ric_star_minus2 - 2.0 * s1.j_dot_tri_minus**2
        ) < 1e-10


class TestStarScalarJet:
    def test_kahler_s_star_jet_equals_s_jet(self):
        _, mp, b, acs, fr = make("kahler_potential_generic", [0.3, 0.2, -0.4, 0.6])
        ss = s_star_jet(b, acs.jets)
        np.testing.assert_allclose(ss, b.S[: len(ss)], atol=1e-12)
        lam = lambda_jet(b, acs.jets)
        np.testing.assert_allclose(jpartials(lam, 1), b.dS / 6.0, atol=1e-12)

    def test_gl121_on_kodaira_thurston(self):
        _, mp, b, acs, fr = make("kodaira_thurston", KT_POINT, 3)
        dwp = delta_wpm(b, fr)
        assert np.abs(dwp).max() > 0.2  # genuinely nonzero here
        assert np.abs(gl121_delta_wplus(b.nabla_ric, b.dS, mp, fr) - dwp).max() < 1e-12
