"""Curvature quantities that involve the almost complex structure.

Star Ricci tensor and its triangle/box companions for the quaternionic
supplement, their skew parts, the tensor Rt with
``Rt(X,Y) = [R(X,Y) - R(JX,JY), J] J / 4``, nabla J with its (xi, eta)
frame coefficients, the Nijenhuis tensor, the scalar q(J) built from the
second covariant derivative of Ricci, and the phi/psi pairing that
obstructs the Kahler property on compact manifolds.

All endomorphisms are chart-basis matrices; ``frame`` supplies (I, K).  The
frame functions also take stacks (leading row axes; ``bundle`` then anything
holding ``mp`` and the curvature values they read).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureBundle, first_partials
from .exprjet import jeinsum, jet_order, jmatmul, jtruncate, jvalue
from .exprjet import jmul  # noqa: F401  (perfbench/tracer.py wraps this binding)
from .pointgeom import (
    MetricPoint,
    SelfDualFrame,
    chart_orientation,
    check_acs,
    endo_to_form,
    hodge_star,
    inner_endos,
    raise_at_first,
)
from .selfdual import _kron2, _pairs, _trail


@dataclass(frozen=True)
class AcsPoint:
    """Almost complex structure at a point or a stack of points: matrix,
    fundamental form, chart orientation, jets."""

    J: np.ndarray
    omega: np.ndarray
    orientation: np.ndarray
    jets: np.ndarray
    order: int

    @staticmethod
    def from_jets(j_jets: np.ndarray, mp: MetricPoint, tol: float = 1e-10) -> "AcsPoint":
        """Validated J: compatible with g, and Omega_J self-dual, on every row."""
        J = jvalue(j_jets)
        check_acs(J, mp, tol)
        omega = endo_to_form(J, mp)
        sigma = chart_orientation(J, mp)
        r3 = np.abs(hodge_star(omega, mp, sigma) - omega).max(axis=(-2, -1))
        raise_at_first(~(r3 <= tol * np.fmax(np.abs(omega).max(axis=(-2, -1)), 1.0)), mp, "structure",
                       lambda k: f"fundamental form not self-dual (residual {r3.flat[k]:.2e})")
        return AcsPoint(J=J, omega=omega, orientation=sigma, jets=j_jets, order=jet_order(j_jets))


@dataclass(frozen=True)
class StarCurvature:
    """The J-dependent curvature family for one supplement (I, K), at a point
    or stacked (every field then has a leading row axis)."""

    ric_star: np.ndarray
    ric_star_minus: np.ndarray      # skew part of Ric*
    s_star: np.ndarray
    ric_tri: np.ndarray
    ric_box: np.ndarray
    ric_tri_minus: np.ndarray
    ric_box_minus: np.ndarray
    s_tri: np.ndarray
    s_box: np.ndarray
    lam: np.ndarray                 # (S_star - S/3)/4
    rtilde_I: np.ndarray
    rtilde_K: np.ndarray
    rt2: np.ndarray                 # |Rt|^2
    rtp2: np.ndarray                # |Rt^+|^2
    rtm2: np.ndarray                # |Rt^-|^2
    ric_star_minus2: np.ndarray
    ric_tri_minus2: np.ndarray
    ric_box_minus2: np.ndarray
    j_dot_tri_minus: np.ndarray     # <J, Ric_tri^->


def _r_op(bundle: CurvatureBundle) -> np.ndarray:
    """Endomorphisms R(d_p, d_m): r_op[p,m,a,b] with R(d_p,d_m) d_b = r_op[p,m,a,b] d_a."""
    return bundle.mp.g_inv[..., None, None, :, :] @ np.swapaxes(bundle.riem_v, -1, -2)


def rtilde_table(bundle: CurvatureBundle, J: np.ndarray, r_op: np.ndarray | None = None) -> np.ndarray:
    """Rt(d_p, d_m) = [R(d_p,d_m) - R(J d_p, J d_m), J] J / 4 as [p,m,a,b]."""
    if r_op is None:
        r_op = _r_op(bundle)
    rjj = (np.swapaxes(_kron2(J), -1, -2) @ _pairs(r_op)).reshape(r_op.shape)  # R(J d_p, J d_m)
    D, J = r_op - rjj, J[..., None, None, :, :]
    return 0.25 * (D @ J - J @ D) @ J


def _flat(stack: np.ndarray) -> np.ndarray:
    """A stack [..., s, i, j] of 4x4 matrices as rows [..., s, (i, j)]."""
    return stack.reshape(stack.shape[:-2] + (16,))


def star_ricci_family(bundle: CurvatureBundle, acs: AcsPoint, frame: SelfDualFrame) -> StarCurvature:
    mp = bundle.mp
    J = acs.J
    r_op = _r_op(bundle)
    g, g_inv = mp.g[..., None, :, :], mp.g_inv[..., None, :, :]

    # star Ricci of A = J, I, K at once: Ric_A(X) = R(AX, A X_k) X^k
    jik = np.stack([J, frame.I, frame.K], axis=-3)
    # T[s,m,a] = (A g^-1)[s,n,l] r_op[m,n,a,l], then Ric_A[s,a,i] = T[s,m,a] A[s,m,i]
    T = (_flat(jik @ g_inv) @ _pairs(_trail(r_op, 1, 3, 0, 2))).reshape(jik.shape)
    stars = np.swapaxes(T, -1, -2) @ jik
    minus = 0.5 * (stars - g_inv @ np.swapaxes(stars, -1, -2) @ g)
    s_star, s_tri, s_box = np.moveaxis(np.trace(stars, axis1=-2, axis2=-1), -1, 0)
    lam = 0.25 * (s_star - bundle.S_v / 3.0)

    # Rt(A) = Rt(A X_k, X^k) for A = I, K, JI, JK
    rt = rtilde_table(bundle, J, r_op)
    supp = np.stack([frame.I, frame.K, J @ frame.I, J @ frame.K], axis=-3)
    rts = (_flat(supp @ g_inv) @ _pairs(rt)).reshape(supp.shape)
    rtp = 0.5 * (rts[..., :2, :, :] + rts[..., 2:, :, :] @ J[..., None, :, :])
    rtm = rts[..., :2, :, :] - rtp
    squares = np.concatenate([rts[..., :2, :, :], rtp, rtm, minus], axis=-3)
    n2 = np.moveaxis(np.einsum("...skj,...skj->...s", squares, g @ squares @ g_inv) / 4, -1, 0)
    j_dot_tri_minus = np.trace(mp.g_inv @ np.swapaxes(J, -1, -2) @ mp.g @ minus[..., 1, :, :], axis1=-2, axis2=-1) / 4

    return StarCurvature(
        ric_star=stars[..., 0, :, :],
        ric_star_minus=minus[..., 0, :, :],
        s_star=s_star,
        ric_tri=stars[..., 1, :, :],
        ric_box=stars[..., 2, :, :],
        ric_tri_minus=minus[..., 1, :, :],
        ric_box_minus=minus[..., 2, :, :],
        s_tri=s_tri,
        s_box=s_box,
        lam=lam,
        rtilde_I=rts[..., 0, :, :],
        rtilde_K=rts[..., 1, :, :],
        rt2=n2[0] + n2[1],
        rtp2=n2[2] + n2[3],
        rtm2=n2[4] + n2[5],
        ric_star_minus2=n2[6],
        ric_tri_minus2=n2[7],
        ric_box_minus2=n2[8],
        j_dot_tri_minus=j_dot_tri_minus,
    )


# ---------------------------------------------------------------------------
# nabla J and friends
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NablaJData:
    """nabla J and the data read off it, at a point or stacked (leading row axis)."""

    nabla_j: np.ndarray        # [m,a,b] = (nabla_m J)^a_b
    xi: np.ndarray             # vector with nabla_X J = g(xi,X) I + g(eta,X) K
    eta: np.ndarray
    xi_form: np.ndarray        # g(xi, .) components
    eta_form: np.ndarray
    d_omega: np.ndarray        # [i,j,k] components of d Omega
    delta_omega: np.ndarray    # co-differential, (4,)
    nijenhuis: np.ndarray      # [a,i,j] = N(d_i, d_j)^a
    norm2: np.ndarray          # |nabla J|^2 (weighted)
    reconstruction_residual: np.ndarray

    @property
    def d_omega_norm(self) -> float:
        return float(np.abs(self.d_omega).max())

    @property
    def nijenhuis_norm(self) -> float:
        return float(np.abs(self.nijenhuis).max())


def nabla_j_data(acs: AcsPoint, bundle: CurvatureBundle, frame: SelfDualFrame) -> NablaJData:
    if acs.order < 1:
        raise ValueError("nabla J needs J jets of order >= 1")
    mp = bundle.mp
    gv = bundle.gamma_v
    J = acs.J
    dJ = first_partials(acs.jets)  # [m,a,b]
    gm = np.swapaxes(gv, -3, -2)  # [m, a, c] = Gamma^a_{mc}
    nabla_j = dJ + gm @ J[..., None, :, :] - J[..., None, :, :] @ gm

    xi_form, eta_form = np.moveaxis(inner_endos(np.stack([frame.I, frame.K], axis=-3), nabla_j, mp), -2, 0)
    xi = (mp.g_inv @ xi_form[..., None])[..., 0]
    eta = (mp.g_inv @ eta_form[..., None])[..., 0]
    I, K = frame.I[..., None, :, :], frame.K[..., None, :, :]
    recon = nabla_j - xi_form[..., None, None] * I - eta_form[..., None, None] * K

    # partials of Omega = J^T g by the product rule, then the covariant pieces
    g = mp.g[..., None, :, :]
    d_omega_partials = np.swapaxes(dJ, -1, -2) @ g + np.swapaxes(J, -1, -2)[..., None, :, :] @ bundle.dg_v  # [m,i,j]
    # (d Omega)_{ijk} = d_i O_{jk} - d_j O_{ik} + d_k O_{ij}
    d_omega = d_omega_partials - np.swapaxes(d_omega_partials, -3, -2) + np.moveaxis(d_omega_partials, -3, -1)
    omega = acs.omega[..., None, :, :]
    nabla_omega = d_omega_partials - np.swapaxes(gm, -1, -2) @ omega - omega @ gm
    delta_omega = -(_flat(mp.g_inv)[..., None, :] @ nabla_omega.reshape(nabla_omega.shape[:-3] + (16, 4)))[..., 0, :]

    # N(X,Y) = (nabla_{JX} J)Y - (nabla_{JY} J)X + (nabla_X J)(JY) - (nabla_Y J)(JX)
    t1 = np.swapaxes(J, -1, -2)[..., None, :, :] @ np.swapaxes(nabla_j, -3, -2)
    t2 = np.swapaxes(nabla_j @ J[..., None, :, :], -3, -2)
    nijenhuis = t1 - np.swapaxes(t1, -1, -2) + t2 - np.swapaxes(t2, -1, -2)

    # |nabla J|^2 = g^{km} <nabla_k J, nabla_m J> with the weighted product
    norm2 = np.einsum("...km,...km->...", mp.g_inv, inner_endos(nabla_j, nabla_j, mp))

    return NablaJData(
        nabla_j=nabla_j,
        xi=xi,
        eta=eta,
        xi_form=xi_form,
        eta_form=eta_form,
        d_omega=d_omega,
        delta_omega=delta_omega,
        nijenhuis=nijenhuis,
        norm2=norm2,
        reconstruction_residual=np.abs(recon).max(axis=(-3, -2, -1)),
    )


# ---------------------------------------------------------------------------
# Projections, q(J), pairings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionData:
    p1_pairing: np.ndarray    # <W+, P_1> (full trace)
    p2_pairing: np.ndarray
    two_lambda: np.ndarray
    F: np.ndarray        # 3x3 matrix of lambda (2 P_1 - P_2)
    G: np.ndarray        # W+ - F
    g_norm2: np.ndarray  # |G|^2 (full trace)


def projections_p1p2(star: StarCurvature, wplus_m: np.ndarray) -> ProjectionData:
    F = np.asarray(star.lam)[..., None, None] * np.diag([2.0, -1.0, -1.0])
    G = wplus_m - F
    return ProjectionData(
        p1_pairing=wplus_m[..., 0, 0],
        p2_pairing=wplus_m[..., 1, 1] + wplus_m[..., 2, 2],
        two_lambda=2.0 * star.lam,
        F=F,
        G=G,
        g_norm2=np.sum(G * G, axis=(-2, -1)),
    )


def q_j_integrand(bundle: CurvatureBundle, J: np.ndarray) -> np.ndarray:
    """q(J) = g((nabla^2_{X_k,X_l} Ric) J X^k, J X^l)."""
    n2r = bundle.require("nabla2_ric")
    mp = bundle.mp
    # q = U[k,c] V[l,e] (nabla^2_{k,l} Ric)^e_c with U = g^-1 J^T, V = g^-1 (g J)^T
    U = mp.g_inv @ np.swapaxes(J, -1, -2)
    V = mp.g_inv @ np.swapaxes(mp.g @ J, -1, -2)
    return np.einsum("...kc,...le,...klec->...", U, V, n2r)


def ric_derivative_vector(A: np.ndarray, nabla_ric: np.ndarray, mp) -> np.ndarray:
    """v_A = (nabla_{X_k} Ric) A X^k as a vector (components v^c), from the
    values (nabla_m Ric)^a_b; ``mp`` is anything holding ``g_inv``."""
    return np.einsum("...ka,...ba,...kcb->...c", mp.g_inv, A, nabla_ric)


def gl121_delta_wplus(nabla_ric: np.ndarray, dS: np.ndarray, mp, frame) -> np.ndarray:
    """delta W+ from nabla Ric and dS alone (positively oriented (I, J, K));
    ``frame`` is anything holding I, J and K.  Leading row axes pass through."""
    out = np.zeros(np.shape(dS)[:-1] + (4, 4, 4))
    for A in (frame.I, frame.J, frame.K):
        vA = ric_derivative_vector(A, nabla_ric, mp)
        out += 0.25 * np.einsum("...i,...ab->...iab", np.einsum("...ij,...j->...i", mp.g, vA), A)
        out += np.einsum("...i,...ab->...iab", np.einsum("...ji,...j->...i", A, dS), A) / 24.0
    return out


def phi_psi_pairing(nabla_ric: np.ndarray, nj, mp, frame) -> tuple:
    """<phi, psi> two ways: the 2-form contraction against antisymmetrized
    nabla Ric, and the (xi, eta) expression; ``nj`` holds nabla_j, xi and eta.
    Both hold only where d Omega = 0, which the caller gates."""
    nabla_j = nj.nabla_j
    phi = np.swapaxes(nabla_j, -3, -2) - np.moveaxis(nabla_j, -3, -1)  # [e,a,b]
    jphi = np.einsum("...fe,...eab->...fab", frame.J, phi)
    # v[k,n,l] = (nabla_k Ric)^n_l - (nabla_l Ric)^n_k
    v = nabla_ric - np.swapaxes(nabla_ric, -3, -1)
    # jphi with its first index lowered and the other two raised: [n, k, l]
    up = mp.g_inv[..., None, :, :] @ np.einsum("...fn,...fab->...nab", mp.g, jphi) @ mp.g_inv[..., None, :, :]
    via126 = 0.25 * np.einsum("...nkl,...knl->...", up, v)
    vK = ric_derivative_vector(frame.K, nabla_ric, mp)
    vI = ric_derivative_vector(frame.I, nabla_ric, mp)
    pair = "...i,...ij,...j->..."
    via130 = 0.5 * np.einsum(pair, vK, mp.g, nj.xi) - 0.5 * np.einsum(pair, vI, mp.g, nj.eta)
    return via126, via130


# ---------------------------------------------------------------------------
# Star scalar curvature as a jet (for d lambda)
# ---------------------------------------------------------------------------


def s_star_jet(bundle: CurvatureBundle, j_jets: np.ndarray) -> np.ndarray:
    """S_star as a scalar jet, from Riemann jets and the jets of J: with C[n,l] = J^n_k g^{kl},
    Ric*[i,a] = J^m_i R_{mnly} g^{ya} C[n,l], so S_star = R_{mnly} C[n,l] C[m,y]."""
    d = min(bundle.order - 2, jet_order(j_jets))
    riem = jtruncate(bundle.riem, d)
    C = jmatmul(jtruncate(j_jets, d), jtruncate(bundle.mp.inv_jets, d), d)
    rc = jeinsum("mnly,nl->my", riem, C, d)
    return jeinsum("my,my->", rc, C, d)


def lambda_jet(bundle: CurvatureBundle, j_jets: np.ndarray) -> np.ndarray:
    """lambda = (S_star - S/3)/4 as a scalar jet."""
    ss = s_star_jet(bundle, j_jets)
    return 0.25 * (ss - jtruncate(bundle.S, jet_order(ss)) / 3.0)
