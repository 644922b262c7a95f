"""Paper cross-checks and kernel oracles that no command reaches.

The package checks the paper's pointwise identities through ``REGISTRY``
records.  The helpers here compute further facts of the paper a second way
(the Theta form, the Prop. 2.1 coherence check, the conformal change of
nabla J, the almost-Kahler Rtic identity) or spell out a kernel element by
element (2-form operators, W-, the full divergence of W, the (+)/(-)
projections), so that tests can hold the package's quantities against
them.  ``frame_reference`` builds the frame data of one point from the
frame functions directly, apart from the stacked rows of the package.
"""

from types import SimpleNamespace

import numpy as np

from weyl4.conditions import FRAME_SEED
from weyl4.curvature import curvature_bundle
from weyl4.exprjet import jpartials
from weyl4.hermitian import AcsPoint, nabla_j_data, rtilde_table, star_ricci_family
from weyl4.pointgeom import build_j_frame, endo_to_form, inner_endo, inner_endos, rotate_supplement
from weyl4.selfdual import (
    _weyl_on,
    compose,
    form_operator,
    identity_operator,
    interior_product,
    lambda2_split,
    nabla_w_sd_matrices,
    operator_to_04,
    star_operator,
    wplus_matrix,
)

# Frame-basis matrices of the anti-self-dual counterparts of J_STD, I_STD and
# K_STD in weyl4.pointgeom (the second block of J flipped, etc.)
JM_STD = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float)
IM_STD = np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
KM_STD = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float)


def j_frame(mp, J, seed):
    """The J-frame of a J matrix, validated as the package validates it (``AcsPoint.from_jets``)."""
    return build_j_frame(mp, AcsPoint.from_jets(np.asarray(J, dtype=float)[..., None], mp), seed)


def frame_reference(spec, point, order, alpha=0.0):
    """Frame data at one point, each piece from one frame function on the
    point's own metric and curvature bundle, with the supplement rotated by
    ``alpha``: a single-point reference that shares no code with the stacked
    rows of ``weyl4.conditions.stack_rows``."""
    mp = spec.metric_point(point, order)
    bundle = curvature_bundle(mp)
    acs = AcsPoint.from_jets(spec.j_jets(point, 2), mp)
    frame = rotate_supplement(build_j_frame(mp, acs, FRAME_SEED), alpha)
    basis = lambda2_split(frame, mp)
    return SimpleNamespace(
        mp=mp, bundle=bundle, acs=acs, frame=frame, basis=basis,
        star=star_ricci_family(bundle, acs, frame), nj=nabla_j_data(acs, bundle, frame),
        wplus=wplus_matrix(bundle, basis), nabla_sd=nabla_w_sd_matrices(bundle, frame) if order >= 3 else None,
        curvature_scale=max(1.0, float(np.abs(bundle.riem_v).max()), abs(bundle.S_v)),
    )


def asd_endos(frame):
    """The anti-self-dual triple (J-, I-, K-) of a J-frame, orthonormal like (J, I, K)."""
    Einv = np.linalg.inv(frame.E)
    return tuple(frame.E @ M @ Einv for M in (JM_STD, IM_STD, KM_STD))


# ---------------------------------------------------------------------------
# Endomorphisms, 2-forms and operators on them
# ---------------------------------------------------------------------------


def norm_endo(A, mp):
    return float(np.sqrt(max(inner_endo(A, A, mp), 0.0)))


def form_to_endo(w, mp, check=True):
    """Inverse of ``endo_to_form``: the skew endomorphism A with Omega_A = w."""
    if check and np.abs(w + w.T).max() > 1e-10 * max(np.abs(w).max(), 1.0):
        raise ValueError("2-form matrix is not antisymmetric")
    return -mp.g_inv @ w


def inner_form(w1, w2, mp):
    """Form inner product matching <Omega_A, Omega_B> = <A, B>."""
    return float(np.einsum("ij,ik,jl,kl->", w1, mp.g_inv, mp.g_inv, w2)) / 4


def apply_form_operator(M, w):
    return np.einsum("ijkl,kl->ij", M, w)


def _project(endos, A, mp):
    """Orthogonal projection of a skew endomorphism onto the span of an
    orthonormal triple."""
    Bs = np.stack(endos)
    return np.einsum("s,sab->ab", inner_endos(Bs, A[None], mp)[:, 0], Bs)


def project_plus(basis, A):
    """Self-dual part of a skew endomorphism, from a ``Lambda2Basis``."""
    return _project(basis.sd, A, basis.mp)


def project_minus(frame, A, mp):
    """Anti-self-dual part of a skew endomorphism, from a J-frame."""
    return _project(asd_endos(frame), A, mp)


def wminus_matrix(bundle, frame):
    """W- in the orthonormal anti-self-dual basis of a J-frame."""
    return _weyl_on(bundle, asd_endos(frame), bundle.mp)


def pm_projectors(mp, orientation):
    """Projections onto the self-dual and the anti-self-dual 2-forms."""
    star = star_operator(mp, orientation)
    return 0.5 * (identity_operator() + star), 0.5 * (identity_operator() - star)


def delta_wminus(bundle, frame):
    """delta W- from the divergence formula on C_k = (nabla_k W) P_-, one direction at a time."""
    mp = bundle.mp
    P = pm_projectors(mp, frame.orientation)[1]
    C = np.stack([operator_to_04(compose(form_operator(w, mp), P), mp) for w in bundle.require("nabla_weyl")])
    return np.einsum("km,an,kimbn->iab", mp.g_inv, mp.g_inv, C)


def delta_w_full(bundle):
    """delta W(X) = (nabla_{X_k} W)(X, X^k) as an endo table [i,a,b]."""
    nw = bundle.require("nabla_weyl")
    gi = bundle.mp.g_inv
    return np.einsum("km,an,kimbn->iab", gi, gi, nw)


def nabla_wplus_norm2(ref):
    """|nabla W+|^2 at one point, from the 3x3 matrices of nabla_p W+ of its ``frame_reference``."""
    n = ref.nabla_sd
    return float(np.einsum("pq,pab,qba->", ref.mp.g_inv, n, n))


# ---------------------------------------------------------------------------
# Paper facts computed a second way
# ---------------------------------------------------------------------------


def rictilde_endo(bundle, J, rt=None):
    """Rtic(X) = Rt(X, X_k) X^k from the definition."""
    if rt is None:
        rt = rtilde_table(bundle, J)
    return np.einsum("km,ikam->ai", bundle.mp.g_inv, rt)


def ric_plus(bundle, J):
    """J-invariant part (Ric - J Ric J)/2 of the Ricci endomorphism."""
    ric = bundle.ric_v
    return 0.5 * (ric - J @ ric @ J)


def rictilde_ak_check(nabla_j, star, bundle, J, gate=1e-8):
    """Almost-Kahler identities: Rtic = -(1/4) nabla_{X_k} J nabla_{X^k} J and
    S_star - S = 2 |nabla J|^2.  Returns (applicable, residual_30, residual_31)."""
    mp = bundle.mp
    scale = max(np.abs(nabla_j.nabla_j).max(), 1.0)
    if nabla_j.d_omega_norm > gate * scale:
        return False, None, None
    curv = max(abs(bundle.S_v), float(np.abs(bundle.ric_v).max()), 1.0)
    ric_star_plus = star.ric_star - star.ric_star_minus
    lhs = 0.5 * (ric_star_plus - ric_plus(bundle, J))
    rhs = -0.25 * np.einsum("km,kac,mcb->ab", mp.g_inv, nabla_j.nabla_j, nabla_j.nabla_j)
    denom = max(norm_endo(lhs, mp), norm_endo(rhs, mp), curv)
    r30 = norm_endo(lhs - rhs, mp) / denom
    lhs31 = 0.5 * (star.s_star - bundle.S_v)
    r31 = abs(lhs31 - nabla_j.norm2) / max(abs(lhs31), abs(nabla_j.norm2), curv)
    return True, r30, r31


def theta_form(bundle, frame):
    """Theta(X) = (2 dS(JX) J - dS(IX) I - dS(KX) K)/24 as [i,a,b]."""
    dS = bundle.require("dS")
    out = np.zeros((4, 4, 4))
    for A, coef in ((frame.J, 2.0), (frame.I, -1.0), (frame.K, -1.0)):
        out += coef * np.einsum("i,ab->iab", A.T @ dS, A) / 24.0
    return out


def p1_p2_operators(frame, mp):
    """Form-operator matrices of P_1 (projection on the Omega_J axis) and
    P_2 = P_+ - P_1."""
    w = endo_to_form(frame.J, mp)
    w_up = mp.g_inv @ w @ mp.g_inv.T
    P1 = 0.25 * np.einsum("ij,kl->ijkl", w, w_up)
    Pp = 0.5 * (identity_operator() + star_operator(mp, frame.orientation))
    return P1, Pp - P1


def theta_form_interior(bundle, frame):
    """Theta = (1/6) grad S .| (2 P_1 - P_2) through the 2-form correspondence."""
    mp = bundle.mp
    dS = bundle.require("dS")
    P1, P2 = p1_p2_operators(frame, mp)
    C = operator_to_04(2.0 * P1 - P2, mp)
    return interior_product(mp.g_inv @ dS, C, mp) / 6.0


def conformal_nabla_j(nabla_j, frame, f_jet):
    """Predicted nabla J under gbar = exp(f) g:
    (nabla-bar_X J) = nabla_X J + df(KX) I / 2 - df(IX) K / 2."""
    df = jpartials(f_jet, 1)
    return (
        nabla_j.nabla_j
        + 0.5 * np.einsum("m,ab->mab", frame.K.T @ df, frame.I)
        - 0.5 * np.einsum("m,ab->mab", frame.I.T @ df, frame.K)
    )


def conformal_bracket(f_grad, X, frame, mp):
    """Both sides of [df (x) X - g(X) (x) grad f, J] = df(KX) I - df(IX) K."""
    grad = mp.g_inv @ f_grad
    B = np.einsum("b,a->ab", f_grad, X) - np.einsum("b,a->ab", mp.g @ X, grad)
    lhs = B @ frame.J - frame.J @ B
    rhs = float(f_grad @ (frame.K @ X)) * frame.I - float(f_grad @ (frame.I @ X)) * frame.K
    return lhs, rhs


def prop21_equivalence(spec, n_points, seed=0):
    """The four equivalent two-eigenvalue conditions, evaluated independently.

    Per point: (i) spectrum matches (2 lam, -lam, -lam); (ii) |W+|^2 = 6 lam^2;
    (iii) W+ = lam (2P1 - P2); (iv) |Ric*-|^2 + |Rt-|^2 = 0.  All four are
    normalized by a common quadratic scale.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for pt in spec.sample_points(n_points, rng):
        ref = frame_reference(spec, pt, 2)
        lam = ref.star.lam
        w = ref.wplus
        scale = max(w.norm2, 6.0 * lam**2, 1.0)
        target = np.sort(np.array([2.0 * lam, -lam, -lam]))[::-1]
        r1 = float(np.sum((w.eigenvalues - target) ** 2)) / scale
        r2 = abs(w.norm2 - 6.0 * lam**2) / scale
        F = lam * np.diag([2.0, -1.0, -1.0])
        r3 = float(np.sum((w.m - F) ** 2)) / scale
        r4 = (ref.star.ric_star_minus2 + ref.star.rtm2) / scale
        rs = (r1, r2, r3, r4)
        coherent = "small" if max(rs) <= 1e-8 else ("large" if min(rs) >= 1e-4 else "incoherent")
        rows.append({"point": list(map(float, pt)), "residuals": [float(r) for r in rs],
                     "coherence": coherent})
    return {
        "manifold": spec.id,
        "points": rows,
        "max_residual": max(max(r["residuals"]) for r in rows),
        "min_residual": min(min(r["residuals"]) for r in rows),
        "all_coherent": all(r["coherence"] != "incoherent" for r in rows),
    }
