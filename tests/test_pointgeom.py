import numpy as np
import pytest

from weyl4.exprjet import jconst
from weyl4.hermitian import AcsPoint
from weyl4.pointgeom import (
    FrameError,
    I_STD,
    J_STD,
    K_STD,
    MetricError,
    MetricPoint,
    adjoint_endo,
    build_j_frame,
    check_acs,
    endo_to_form,
    inner_endo,
    rotate_supplement,
)
from weyl4.selfdual import lambda2_split

from paper_oracles import JM_STD, asd_endos, chart_orientation, form_to_endo, hodge_star, inner_form, j_frame


def euclidean_mp(order=2):
    return MetricPoint.from_jets(np.zeros(4), jconst(np.eye(4), order), order)


def random_spd_mp(seed, order=2):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(4, 4))
    g = A @ A.T + 4.0 * np.eye(4)
    return MetricPoint.from_jets(np.zeros(4), jconst(g, order), order), rng


class TestMetricPoint:
    def test_inverse(self):
        mp, _ = random_spd_mp(0)
        assert np.abs(mp.g @ mp.g_inv - np.eye(4)).max() < 1e-12

    def test_rejects_non_spd(self):
        g = np.diag([1.0, 1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            MetricPoint.from_jets(np.zeros(4), jconst(g, 2), 2)

    def test_rejects_asymmetric(self):
        g = np.eye(4)
        g[0, 1] = 0.5
        with pytest.raises(ValueError):
            MetricPoint.from_jets(np.zeros(4), jconst(g, 2), 2)


    def test_rejects_nan(self):
        g = np.eye(4)
        g[2, 2] = np.nan
        with pytest.raises(MetricError, match=r"^metric not finite in the metric stage at point \[0.0, 0.0, 0.0, 0.0\]$"):
            MetricPoint.from_jets(np.zeros(4), jconst(g, 2), 2)


class TestAdjoint:
    def test_identity(self):
        mp, _ = random_spd_mp(1)
        assert np.abs(adjoint_endo(np.eye(4), mp) - np.eye(4)).max() < 1e-13

    def test_euclidean_skew(self):
        mp = euclidean_mp()
        A = np.array([[0, 1, 0, 0], [-1, 0, 2, 0], [0, -2, 0, 0], [0, 0, 0, 0]], float)
        assert np.abs(adjoint_endo(A, mp) + A).max() == 0.0

    def test_bilinear_characterization(self):
        # oracle: g(AX, Y) = g(X, A* Y) directly on random vectors
        mp, rng = random_spd_mp(2)
        A = rng.normal(size=(4, 4))
        As = adjoint_endo(A, mp)
        for _ in range(20):
            X, Y = rng.normal(size=4), rng.normal(size=4)
            assert abs((A @ X) @ mp.g @ Y - X @ mp.g @ (As @ Y)) < 1e-12 * np.linalg.eigvalsh(mp.g)[-1]

    def test_involution(self):
        mp, rng = random_spd_mp(3)
        A = rng.normal(size=(4, 4))
        assert np.abs(adjoint_endo(adjoint_endo(A, mp), mp) - A).max() < 1e-12


class TestInnerEndo:
    def test_unit_lengths(self):
        mp = euclidean_mp()
        assert inner_endo(J_STD, J_STD, mp) == pytest.approx(1.0)
        assert inner_endo(np.eye(4), np.eye(4), mp) == pytest.approx(1.0)

    def test_quaternionic_orthogonality(self):
        mp = euclidean_mp()
        assert inner_endo(I_STD, K_STD, mp) == pytest.approx(0.0, abs=1e-15)
        assert inner_endo(I_STD, J_STD, mp) == pytest.approx(0.0, abs=1e-15)
        assert inner_endo(J_STD, K_STD, mp) == pytest.approx(0.0, abs=1e-15)


def frame_invariant_residuals(frame, mp):
    E = frame.E
    gram = E.T @ mp.g @ E
    res = [np.abs(gram - np.eye(4)).max()]
    res.append(np.abs(frame.J @ E[:, 0] - E[:, 1]).max())
    res.append(np.abs(frame.J @ E[:, 2] - E[:, 3]).max())
    for M in (frame.I, frame.J, frame.K):
        res.append(np.abs(M @ M + np.eye(4)).max())
    res.append(np.abs(frame.I @ frame.J @ frame.K + np.eye(4)).max())
    for M in (frame.I, frame.J, frame.K):
        res.append(abs(inner_endo(M, M, mp) - 1.0))
    res.append(abs(inner_endo(frame.I, frame.J, mp)))
    res.append(abs(inner_endo(frame.I, frame.K, mp)))
    res.append(abs(inner_endo(frame.J, frame.K, mp)))
    return max(res)


class TestJFrame:
    def test_euclidean_standard_seed(self):
        mp = euclidean_mp()
        fr = j_frame(mp, J_STD, np.eye(4)[0])
        assert np.abs(fr.E - np.eye(4)).max() == 0.0
        assert np.abs(fr.I - I_STD).max() == 0.0
        assert np.abs(fr.K - K_STD).max() == 0.0

    def test_euclidean_third_seed(self):
        mp = euclidean_mp()
        fr = j_frame(mp, J_STD, np.eye(4)[2])
        assert frame_invariant_residuals(fr, mp) < 1e-10

    def test_fubini_study_chart_point(self, catalog):
        spec = catalog["fubini_study_cp2"]
        pt = [0.3, -0.2, 0.5, 0.1]
        mp = spec.metric_point(pt, 2)
        fr = j_frame(mp, spec.j_jets(pt, 0)[..., 0], np.eye(4)[0])
        assert frame_invariant_residuals(fr, mp) < 1e-10

    def test_degenerate_seed(self):
        mp = euclidean_mp()
        with pytest.raises(FrameError):
            j_frame(mp, J_STD, np.zeros(4))

    def test_incompatible_j(self):
        mp = euclidean_mp()
        with pytest.raises(FrameError):
            AcsPoint.from_jets(np.eye(4)[..., None], mp)
        with pytest.raises(FrameError):
            check_acs(np.eye(4), mp)

    def test_nan_j_rejected(self):
        J = J_STD.copy()
        J[0, 1] = np.nan
        with pytest.raises(FrameError):
            check_acs(J, euclidean_mp())

    def test_rescaled_metric_validates_identically(self):
        # tolerances are relative to the largest eigenvalue
        mp = MetricPoint.from_jets(np.zeros(4), jconst(1e6 * np.eye(4), 2), 2)
        fr = j_frame(mp, J_STD, np.eye(4)[0])
        assert frame_invariant_residuals(fr, mp) < 1e-9


class TestRotateSupplement:
    def test_zero_angle(self):
        mp = euclidean_mp()
        fr = j_frame(mp, J_STD, np.eye(4)[0])
        fr0 = rotate_supplement(fr, 0.0)
        assert np.abs(fr0.I - fr.I).max() == 0.0

    def test_quarter_turn(self):
        mp = euclidean_mp()
        fr = rotate_supplement(j_frame(mp, J_STD, np.eye(4)[0]), np.pi / 2)
        assert np.abs(fr.I + K_STD).max() < 1e-15
        assert np.abs(fr.K - I_STD).max() < 1e-15
        assert frame_invariant_residuals(fr, mp) < 1e-12

    def test_random_angles_keep_invariants(self, catalog):
        spec = catalog["kodaira_thurston"]
        pt = [0.4, 0.1, 0.7, 0.3]
        mp = spec.metric_point(pt, 2)
        fr = j_frame(mp, spec.j_jets(pt, 0)[..., 0], np.eye(4)[0])
        rng = np.random.default_rng(4)
        for alpha in rng.uniform(0, 2 * np.pi, size=6):
            assert frame_invariant_residuals(rotate_supplement(fr, alpha), mp) < 1e-12


class TestTwoFormCorrespondence:
    def test_j_gives_fundamental_form(self):
        mp, rng = random_spd_mp(5)
        # build a g-compatible J from a frame over a random metric
        fr = j_frame(euclidean_mp(), J_STD, np.eye(4)[0])
        w = endo_to_form(J_STD, euclidean_mp())
        for _ in range(10):
            X, Y = rng.normal(size=4), rng.normal(size=4)
            assert X @ w @ Y == pytest.approx(float((J_STD @ X) @ Y), abs=1e-13)

    def test_zero(self):
        mp = euclidean_mp()
        assert np.abs(endo_to_form(np.zeros((4, 4)), mp)).max() == 0.0

    def test_round_trip_random_skew(self):
        mp, rng = random_spd_mp(6)
        M = rng.normal(size=(4, 4))
        A = M - adjoint_endo(M, mp)
        back = form_to_endo(endo_to_form(A, mp), mp)
        assert np.abs(back - A).max() < 1e-13 * max(np.abs(A).max(), 1.0)

    def test_rejects_non_skew(self):
        mp = euclidean_mp()
        with pytest.raises(ValueError):
            form_to_endo(np.eye(4), mp)

    def test_inner_products_match(self):
        mp, rng = random_spd_mp(7)
        M1, M2 = rng.normal(size=(2, 4, 4))
        A = M1 - adjoint_endo(M1, mp)
        B = M2 - adjoint_endo(M2, mp)
        lhs = inner_form(endo_to_form(A, mp), endo_to_form(B, mp), mp)
        assert lhs == pytest.approx(inner_endo(A, B, mp), rel=1e-12)


class TestHodgeSplit:
    def test_basis_self_dual_and_orthonormal(self, catalog):
        for name in ("fubini_study_cp2", "kodaira_thurston"):
            spec = catalog[name]
            pt = spec.sample_points(1, np.random.default_rng(8))[0]
            mp = spec.metric_point(pt, 2)
            fr = j_frame(mp, spec.j_jets(pt, 0)[..., 0], np.eye(4)[0])
            omegas = [endo_to_form(A, mp) for A in (fr.J, fr.I, fr.K)]
            for w in omegas:
                assert np.abs(hodge_star(w, mp, chart_orientation(fr.J, mp)) - w).max() < 1e-10
            gram = np.array([[inner_form(a, b, mp) for b in omegas] for a in omegas])
            assert np.abs(gram - np.eye(3)).max() < 1e-10

    def test_sd_asd_commute(self):
        # Lemma: a self-dual and an anti-self-dual skew endomorphism commute
        mp = euclidean_mp()
        fr = j_frame(mp, J_STD, np.eye(4)[0])
        rng = np.random.default_rng(9)
        for _ in range(10):
            A = sum(c * M for c, M in zip(rng.normal(size=3), (fr.J, fr.I, fr.K)))
            B = sum(c * M for c, M in zip(rng.normal(size=3), asd_endos(fr)))
            assert np.abs(A @ B - B @ A).max() < 1e-10
            wa = endo_to_form(A, mp)
            wb = endo_to_form(B, mp)
            assert np.abs(hodge_star(wa, mp, chart_orientation(fr.J, mp)) - wa).max() < 1e-12
            assert np.abs(hodge_star(wb, mp, chart_orientation(fr.J, mp)) + wb).max() < 1e-12

    def test_demo_frame_forms_are_self_dual(self, catalog):
        # the star residuals demo 02 printed while AcsPoint.from_jets still checked self-duality
        spec = catalog["fubini_study_cp2"]
        point = [0.3, -0.2, 0.5, 0.1]
        mp = spec.metric_point(point, 2)
        frame = build_j_frame(mp, AcsPoint.from_jets(spec.j_jets(point, 1), mp), np.eye(4)[0])
        orientation = chart_orientation(frame.J, mp)
        for A in lambda2_split(frame):
            w = endo_to_form(A, mp)
            assert np.abs(hodge_star(w, mp, orientation) - w).max() <= 1e-12

    def test_every_compatible_j_is_self_dual_in_its_orientation(self):
        # why AcsPoint.from_jets checks compatibility only: Omega_J of a compatible J is
        # self-dual in the orientation vol = Omega_J^2/2 it induces, whichever that is
        rng = np.random.default_rng(10)
        for std in (J_STD, JM_STD) * 25:
            A = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
            mp = MetricPoint.from_jets(np.zeros(4), jconst(A.T @ A, 0), 0)
            E = np.linalg.solve(A, np.linalg.qr(rng.normal(size=(4, 4)))[0])  # a g-orthonormal frame
            J = E @ std @ np.linalg.inv(E)
            w = AcsPoint.from_jets(J[..., None], mp).omega
            assert np.abs(hodge_star(w, mp, chart_orientation(J, mp)) - w).max() <= 1e-10 * max(np.abs(w).max(), 1.0)

    def test_orientation_sign(self):
        mp = euclidean_mp()
        assert chart_orientation(J_STD, mp) == 1.0
        # -J induces the same orientation (the volume form is quadratic in J);
        # an oppositely-oriented structure flips the sign
        assert chart_orientation(-J_STD, mp) == 1.0
        assert chart_orientation(JM_STD, mp) == -1.0
