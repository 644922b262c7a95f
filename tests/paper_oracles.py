"""Paper cross-checks and kernel oracles that no command reaches.

The package checks the paper's pointwise identities through ``REGISTRY``
records.  The helpers here compute further facts of the paper a second way
(the Theta form, the Prop. 2.1 coherence check, the conformal change of
nabla J, the almost-Kahler Rtic identity) or spell out a kernel element by
element (2-form operators, W-, the full divergence of W, the (+)/(-)
projections), so that tests can hold the package's quantities against
them.  ``frame_reference`` builds the frame data of one point from the
frame functions directly, apart from the stacked rows of the package.

The package carries R, W and nabla W as 6x6 matrices on the pairs i < j
from the jets to the identities.  The 4-index algebra they replaced is kept
below unchanged, as the reference the pair kernels are held against: the
operator C(A) = C(A X_k, X^k) of a (0,4) tensor, W(J), the star-Ricci family
and Rt from the endomorphism table R(d_p, d_m), and u .| W+ from W+ as a
(0,4) tensor.

The package reads the self-dual 2-forms through the J-splitting alone.  The
Hodge-star operator algebra below (operators on 2-forms as [i, j, k, l]
arrays, the star from epsilon, sqrt(det g) and the chart orientation J
induces) is a second, independent description of Lambda+, and the oracle
the J-splitting is held against: W+ as a (0,4) tensor, delta W+ and the
|W+|^2 jet.
"""

import itertools
from types import SimpleNamespace

import numpy as np

from weyl4.conditions import FRAME_SEED
from weyl4.curvature import christoffel, curvature_bundle
from weyl4.exprjet import jderiv, jeinsum, jet_order, jfunc, jmul, jpartials, jtruncate
from weyl4.hermitian import AcsPoint, StarCurvature, nabla_j_data, star_ricci_family
from weyl4.pointgeom import (
    _flat,
    _trail,
    adjoint_endo,
    build_j_frame,
    endo_to_form,
    inner_endo,
    inner_endos,
    rotate_supplement,
)
from weyl4.selfdual import lambda2_split, nabla_w_sd_matrices, wplus_matrix

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
    basis = lambda2_split(frame)
    return SimpleNamespace(
        mp=mp, bundle=bundle, acs=acs, frame=frame, basis=basis,
        star=star_ricci_family(bundle, acs, frame), nj=nabla_j_data(acs, bundle, frame),
        wplus=wplus_matrix(bundle, basis), nabla_sd=nabla_w_sd_matrices(bundle, basis) if order >= 3 else None,
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


def project_plus(sd, A, mp):
    """Self-dual part of a skew endomorphism, from the triple of ``lambda2_split``."""
    return _project(sd, A, mp)


def project_minus(frame, A, mp):
    """Anti-self-dual part of a skew endomorphism, from a J-frame."""
    return _project(asd_endos(frame), A, mp)


def wminus_matrix(bundle, frame):
    """W- in the orthonormal anti-self-dual basis of a J-frame."""
    return wplus_matrix(bundle, np.stack(asd_endos(frame)))


# ---------------------------------------------------------------------------
# The Hodge-star operator algebra (one point, no leading axes)
# ---------------------------------------------------------------------------

PERMUTATIONS4 = np.array(list(itertools.permutations(range(4))))
PERM_SIGNS4 = np.linalg.det(np.eye(4)[PERMUTATIONS4]).round()  # sign = det of the permutation matrix
EPS4 = np.zeros((4, 4, 4, 4))
EPS4[tuple(PERMUTATIONS4.T)] = PERM_SIGNS4


def chart_orientation(J, mp):
    """Sign of the chart basis in the orientation with vol = Omega_J^2 / 2
    (0 where Omega_J is degenerate)."""
    w = endo_to_form(J, mp)
    return np.sign(w[..., 0, 1] * w[..., 2, 3] - w[..., 0, 2] * w[..., 1, 3] + w[..., 0, 3] * w[..., 1, 2])


def hodge_star(w, mp, orientation):
    """Hodge star of a 2-form for the given chart orientation sign."""
    raised = mp.g_inv @ w @ np.swapaxes(mp.g_inv, -1, -2)  # w^{kl}
    factor = 0.5 * np.asarray(orientation) * np.sqrt(np.linalg.det(mp.g))
    return factor[..., None, None] * np.einsum("ijkl,...kl->...ij", EPS4, raised)



def form_operator(C04, mp):
    """Matrix of the operator induced by a (0,4) tensor: (Cw)_{ij} = M[ijkl] w_{kl}, M = -C_{ij}^{kl}."""
    return -np.einsum("ijab,ak,bl->ijkl", C04, mp.g_inv, mp.g_inv)


def operator_to_04(M, mp):
    """The (0,4) tensor of an operator matrix, inverse to ``form_operator``."""
    return -np.einsum("ijab,ak,bl->ijkl", M, mp.g, mp.g)


def identity_operator():
    eye = np.eye(4)
    return 0.5 * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))


def star_operator(mp, orientation):
    """Hodge star on 2-forms, (orientation/2) sqrt(det g) eps_{ij}^{kl}."""
    factor = 0.5 * orientation * np.sqrt(np.linalg.det(mp.g))
    return factor * np.einsum("ijab,ak,bl->ijkl", EPS4, mp.g_inv, mp.g_inv)


def compose(M1, M2):
    return np.einsum("ijab,abkl->ijkl", M1, M2)


def pm_projectors(mp, orientation):
    """Projections (1 + star)/2 and (1 - star)/2 onto the self-dual and the anti-self-dual 2-forms."""
    star = star_operator(mp, orientation)
    return 0.5 * (identity_operator() + star), 0.5 * (identity_operator() - star)


def wplus_04_star(weyl, mp, orientation):
    """(0,4) components of W+, the operator of W composed with (1 + star)/2."""
    return operator_to_04(compose(form_operator(weyl, mp), pm_projectors(mp, orientation)[0]), mp)


def delta_w_projected(bundle, P):
    """delta of (nabla W) P from the divergence formula on C_k = (nabla_k W) P, one direction at a time."""
    mp = bundle.mp
    C = np.stack([operator_to_04(compose(form_operator(w, mp), P), mp) for w in unpack(bundle.require("nabla_weyl"))])
    return np.einsum("km,an,kimbn->iab", mp.g_inv, mp.g_inv, C)


def det4_jet(G, order):
    """Determinant jet of a (4,4,ncoef) jet matrix, the Leibniz expansion one term at a time."""
    out = 0.0
    for perm, sign in zip(PERMUTATIONS4, PERM_SIGNS4):
        term = G[0, perm[0]]
        for i in range(1, 4):
            term = jmul(term, G[i, perm[i]], order)
        out = out + sign * term
    return out


def wplus_norm2_jet_star(bundle, orientation):
    """|W+|^2 as a scalar jet from the star: (tr W^2 + tr(W^2 star))/2, with
    star = (orientation/2) sqrt(det g) eps_{ij}^{kl} and every factor a jet."""
    d = bundle.order - 2
    g, gi = jtruncate(bundle.mp.jets, d), jtruncate(bundle.mp.inv_jets, d)
    M = -jeinsum("ijbk,bl->ijkl", jeinsum("ijab,ak->ijbk", unpack_jets(bundle.weyl), gi, d), gi, d)
    T2 = jeinsum("ijab,abkl->ijkl", M, M, d)
    eps_up = jeinsum("ijbk,bl->ijkl", np.einsum("ijab,akc->ijbkc", EPS4, gi), gi, d)
    tr_w2_eps = jeinsum("ijab,abij->", T2, eps_up, d)
    return 0.5 * (np.einsum("ijijc->c", T2) + 0.5 * orientation * jmul(tr_w2_eps, jfunc("sqrt", det4_jet(g, d)), d))


# ---------------------------------------------------------------------------
# The 4-index curvature algebra the pair basis replaces
# ---------------------------------------------------------------------------

PAIRS = list(itertools.combinations(range(4), 2))  # 01, 02, 03, 12, 13, 23, the package's pair order


def unpack_jets(x):
    """Jets [..., p, q, c] on pairs as [..., i, j, k, l, c], antisymmetric in (i, j) and in (k, l),
    entry by entry."""
    out = np.zeros(x.shape[:-3] + (4, 4, 4, 4) + x.shape[-1:])
    for p, (i, j) in enumerate(PAIRS):
        for q, (k, l) in enumerate(PAIRS):
            v = x[..., p, q, :]
            out[..., i, j, k, l, :], out[..., j, i, k, l, :] = v, -v
            out[..., i, j, l, k, :], out[..., j, i, l, k, :] = -v, v
    return out


def unpack(x):
    """Values [..., p, q] on pairs as [..., i, j, k, l]."""
    return unpack_jets(x[..., None])[..., 0]


def _pairs(T):
    """A [..., i, j, k, l] array as [..., (i, j), (k, l)] 16x16 matrices."""
    return T.reshape(T.shape[:-4] + (16, 16))


def _kron2(a):
    """a (x) a on index pairs: [(i, j), (k, l)] = a[i, k] a[j, l]."""
    return _pairs(a[..., :, None, :, None] * a[..., None, :, None, :])


def tensor_operator(C, A, mp):
    """Contract a (0,4) curvature-type tensor against a skew endo:
    C(A) = C(A X_k, X^k), returned as an endomorphism matrix.  ``mp`` is
    anything holding ``g_inv``; every argument may carry leading row axes."""
    X = np.einsum("...pm,...pmbn->...bn", A @ mp.g_inv, C)  # C(A X_k, X^k, d_b, d_n)
    return mp.g_inv @ np.swapaxes(X, -1, -2)


def weyl_operator(A, riem, ric, S, mp):
    """W(A) = R(A) - ({Ric, A} - (S/3) A) from the values of R_{ijkl}, the Ricci
    endomorphism and S, over leading row axes too."""
    if np.abs(adjoint_endo(A, mp) + A).max() > 1e-10 * max(np.abs(A).max(), 1.0):
        raise ValueError("weyl operator expects a skew endomorphism")
    RA = tensor_operator(riem, A, mp)
    return RA - (ric @ A + A @ ric) + (np.asarray(S) / 3.0)[..., None, None] * A


def _r_op(bundle):
    """Endomorphisms R(d_p, d_m): r_op[p,m,a,b] with R(d_p,d_m) d_b = r_op[p,m,a,b] d_a."""
    return bundle.mp.g_inv[..., None, None, :, :] @ np.swapaxes(unpack(bundle.riem_v), -1, -2)


def rtilde_table(bundle, J, r_op=None):
    """Rt(d_p, d_m) = [R(d_p,d_m) - R(J d_p, J d_m), J] J / 4 as [p,m,a,b]."""
    if r_op is None:
        r_op = _r_op(bundle)
    rjj = (np.swapaxes(_kron2(J), -1, -2) @ _pairs(r_op)).reshape(r_op.shape)  # R(J d_p, J d_m)
    D, J = r_op - rjj, J[..., None, None, :, :]
    return 0.25 * (D @ J - J @ D) @ J


def star_ricci_family_4index(bundle, acs, frame):
    """``star_ricci_family`` from the endomorphism table R(d_p, d_m) and the table of Rt."""
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


def interior_product(U, C04, mp):
    """(U .| C)(X) = C(U, X) as an endomorphism table [direction, a, b]."""
    return np.einsum("...m,...an,...mibn->...iab", U, mp.g_inv, C04)


def wplus_04(m, sd, mp):
    """(0,4) components of W+ (the Weyl operator composed with P+) from its
    matrix ``m`` in the basis ``sd``: W+_{ijkl} = -m_ab (Omega_a)_{ij} (Omega_b)_{kl} / 4."""
    forms = _flat(np.swapaxes(sd, -1, -2) @ mp.g[..., None, :, :])
    return -0.25 * (np.swapaxes(forms, -1, -2) @ m @ forms).reshape(np.shape(m)[:-2] + (4, 4, 4, 4))


def curvature_jets_full(mp):
    """R_{ijkl} and W_{ijkl} as 4-index jets: all 256 components of R(d_i, d_j) d_k lowered, and
    W = R - (h . g) with h = Ric/2 - S g/12 and the Kulkarni product
    (h . k)_{ijkl} = h_{jk}k_{il} + h_{il}k_{jk} - h_{ik}k_{jl} - h_{jl}k_{ik}."""
    o = mp.order - 2
    gamma = christoffel(mp)
    gam = jtruncate(gamma, o)
    dgamma = np.stack([jderiv(gamma, v) for v in range(4)])  # [m,l,i,k]
    gg = jeinsum("abc,cde->abde", gam, gam, o)
    rup = dgamma.transpose(1, 0, 2, 3, 4) - dgamma.transpose(1, 2, 0, 3, 4) + gg - gg.transpose(0, 2, 1, 3, 4)
    g, gi = jtruncate(mp.jets, o), jtruncate(mp.inv_jets, o)
    riem = jeinsum("mijk,ml->ijkl", rup, g, o)
    ric = jeinsum("aijk,jk->ai", rup, gi, o)
    h = 0.5 * jeinsum("ai,aj->ij", ric, g, o) - jmul(np.einsum("aac->c", ric)[None, None], g, o) / 12.0
    P = jeinsum("jk,il->ijkl", h, g, o)
    return riem, riem - (P + P.transpose(1, 0, 3, 2, 4) - P.transpose(1, 0, 2, 3, 4) - P.transpose(0, 1, 3, 2, 4))


def wplus_norm2_jet_m2(bundle, j_jets):
    """|W+|^2 as a scalar jet from the 4-index form operator M = -W_{ij}^{kl}:
    (tr M^2 - tr(M^2 calJ))/2 + tr(M^2 Omega_J (x) Omega_J^#)/4 with full sums."""
    d = min(bundle.order - 2, jet_order(j_jets))
    g, gi, J = (jtruncate(a, d) for a in (bundle.mp.jets, bundle.mp.inv_jets, j_jets))
    M = -jeinsum("ijbk,bl->ijkl", jeinsum("ijab,ak->ijbk", unpack_jets(jtruncate(bundle.weyl, d)), gi, d), gi, d)
    m2 = jeinsum("ijab,abkl->ijkl", M, M, d)
    tr_j = jeinsum("jl,jl->", jeinsum("ijkl,ik->jl", m2, J, d), J, d)
    m2_omega = jeinsum("ijkl,kl->ij", m2, jeinsum("ki,kj->ij", J, g, d), d)
    tr_p1 = jeinsum("ij,ij->", jeinsum("ik,jk->ij", gi, J, d), m2_omega, d)
    return 0.5 * (np.einsum("ijijc->c", m2) - tr_j) + 0.25 * tr_p1


def s_star_jet_full(bundle, j_jets):
    """S_star = R_{mnly} C[n,l] C[m,y] with C = J g^-1, from the 4-index Riemann jets."""
    d = min(bundle.order - 2, jet_order(j_jets))
    C = jeinsum("nk,kl->nl", jtruncate(j_jets, d), jtruncate(bundle.mp.inv_jets, d), d)
    rc = jeinsum("mnly,nl->my", unpack_jets(jtruncate(bundle.riem, d)), C, d)
    return jeinsum("my,my->", rc, C, d)


def delta_w_full(bundle):
    """delta W(X) = (nabla_{X_k} W)(X, X^k) as an endo table [i,a,b]."""
    nw = unpack(bundle.require("nabla_weyl"))
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
    if np.abs(nabla_j.d_omega).max() > gate * scale:
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
    return P1, pm_projectors(mp, chart_orientation(frame.J, mp))[0] - P1


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
