"""The self-dual 2-forms through the J-splitting, and the W+ apparatus.

Lambda+ = <Omega_J> + [[Lambda^{0,2}]] is spanned by the forms
``Omega_A = A^T g`` of the orthonormal triple (J, I, K) of a J-frame
(``lambda2_split``).  W+, nabla W+, delta W+ and u .| W+ are read in that
one basis, where the projection onto Lambda+ is
``P+ = (1/4) sum_A Omega_A (x) Omega_A^#``.  The |W+|^2 jet has no frame and
writes it with J alone: ``P+ = (1 - calJ)/2 + Omega_J (x) Omega_J^#/4``,
``(calJ w)(X, Y) = w(JX, JY)``.

W and each nabla_k W are 6x6 pair matrices (``curvature``), and a skew
endomorphism A enters through its bivector v(A) = bivector(A g^-1).  The
matrix of such an operator C on an orthonormal triple is then
``<A_a, C(A_b)> = -v(A_a) C v(A_b)^T``: for W+, ``m = -V W V^T`` with V the
3x6 stack of v(J), v(I), v(K), and the same map of each nabla_k W.  On the
full-sum matrices ``(C w)_{ij} = M[i,j,k,l] w_{kl}`` a full trace counts each
pair twice and the packed one once, so the full tr(M^2) is the pair trace of
(2M)^2.

Frame functions take ``bundle`` as anything holding ``mp`` (with ``g`` and
``g_inv``) and the curvature values read, and leading row axes on every
argument: one call serves a point or a stack.

Norms of operators on the self-dual bundle use the full trace (so the
squared norm of W+ is the Frobenius norm of its 3x3 matrix in the
orthonormal basis (Omega_J, Omega_I, Omega_K)); norms of individual
endomorphisms keep the 1/4-weighted product from pointgeom.  Only this
assignment makes the characteristic-polynomial and projection identities
consistent, which the conditions module verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import PAIR_I, PAIR_J, CurvatureBundle, bivector, lambda2, pair_sum, skew
from .exprjet import jeinsum, jet_order, jmul, jtruncate
from .pointgeom import SelfDualFrame


# ---------------------------------------------------------------------------
# Lambda^2 basis
# ---------------------------------------------------------------------------


def lambda2_split(frame: SelfDualFrame) -> np.ndarray:
    """The orthonormal self-dual triple (J, I, K) of a J-frame, stacked as
    [..., 3, 4, 4]: Omega_J spans the J-invariant part of Lambda+ and
    (Omega_I, Omega_K) its J-anti-invariant part."""
    return np.stack([frame.J, frame.I, frame.K], axis=-3)


def _bivectors(sd: np.ndarray, mp) -> np.ndarray:
    """The bivectors v(A) = bivector(A g^-1) of a stack of skew endomorphisms, [..., s, p]."""
    return bivector(sd @ mp.g_inv[..., None, :, :])


def _on_basis(C: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The matrices [..., a, b] = <A_a, C(A_b)> = -v(A_a) C v(A_b)^T of pair matrices C on the
    bivectors V = v(A_a) of an orthonormal stack."""
    return -(V @ C @ np.swapaxes(V, -1, -2))


# ---------------------------------------------------------------------------
# W+ as a 3x3 matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WplusMatrix:
    m: np.ndarray           # symmetric traceless 3x3 in (Omega_J, Omega_I, Omega_K)
    norm2: np.ndarray       # full-trace |W+|^2 = Frobenius(m)^2
    det: np.ndarray
    eigenvalues: np.ndarray  # sorted descending

    @staticmethod
    def from_matrix(m: np.ndarray) -> "WplusMatrix":
        """The invariants of a 3x3 matrix, or of each matrix of a stack."""
        sym = 0.5 * (m + np.swapaxes(m, -1, -2))
        eig = np.sort(np.linalg.eigvalsh(sym), axis=-1)[..., ::-1]
        return WplusMatrix(m=m, norm2=np.sum(m * m, axis=(-2, -1)), det=np.linalg.det(m), eigenvalues=eig)


def wplus_matrix(bundle: CurvatureBundle, Bs: np.ndarray) -> WplusMatrix:
    """Matrix [a, b] = <A_a, W(A_b)> of the Weyl operator on an orthonormal stack
    Bs [..., s, 4, 4]: W+ on the self-dual triple of ``lambda2_split``."""
    return WplusMatrix.from_matrix(_on_basis(bundle.weyl_v, _bivectors(Bs, bundle.mp)))


def wplus_interior(u: np.ndarray, m: np.ndarray, sd: np.ndarray, mp) -> np.ndarray:
    """u .| W+ as the endomorphism table [..., i, a, b] = W+(u, d_i, d_b, d_n) g^{an}, from the
    matrix ``m`` of W+ in the basis ``sd``: W+_{ijkl} = -m_st (Omega_s)_{ij} (Omega_t)_{kl} / 4 with
    Omega_s = A_s^T g, so u .| W+ = -m_st g(A_s u, .) (x) A_t / 4."""
    x = (mp.g[..., None, :, :] @ (sd @ u[..., None, :, None]))[..., 0]  # [s, i] = g(A_s u, d_i)
    return -0.25 * np.einsum("...si,...st,...tab->...iab", x, m, sd)


# ---------------------------------------------------------------------------
# Divergence and derivative norms
# ---------------------------------------------------------------------------


def delta_wpm(bundle: CurvatureBundle, sd: np.ndarray) -> np.ndarray:
    """delta W+ from the local divergence formula applied to the projected
    derivative tensors C_k = (nabla_k W) P+, P+ from the basis ``sd``."""
    nw = bundle.require("nabla_weyl")
    mp = bundle.mp
    # T[i, q] = g^{km} (nabla_k W)[(i, m), q]; the projection acts on the last pair only, so the
    # trace over (k, m) is taken first, on nabla W, and no C is formed
    T = np.einsum("...km,...kqim->...iq", mp.g_inv, skew(np.swapaxes(nw, -1, -2)))
    # P+ = (1/4) sum_s Omega_s^# (x) Omega_s with Omega_s^# = -v(A_s) on the pairs, each counted twice in
    # the full sum, and Omega_s raised by g^-1 is A_s: delta W+(d_i) = -(T V^T)[i, s] A_s / 2
    return -0.5 * np.einsum("...is,...sab->...iab", T @ np.swapaxes(_bivectors(sd, mp), -1, -2), sd)


def nabla_w_sd_matrices(bundle: CurvatureBundle, sd: np.ndarray) -> np.ndarray:
    """3x3 matrices of nabla_p W+ in the basis ``sd``, one per direction."""
    return _on_basis(bundle.require("nabla_weyl"), _bivectors(sd, bundle.mp)[..., None, :, :])


def wplus_norm2_jet(bundle: CurvatureBundle, j_jets: np.ndarray) -> np.ndarray:
    """|W+|^2 as a scalar jet (frame-free), for gradients and Laplacians.

    The form operator M of W commutes with P+, so |W+|^2 = tr(M^2 P+) over
    2-forms; with P+ = (1 - calJ)/2 + Omega_J (x) Omega_J^#/4 that is
    (tr M^2 - tr(M^2 calJ))/2 + tr(M^2 Omega_J (x) Omega_J^#)/4.  On pairs,
    M is -N with N = W Lambda^2(g^-1), calJ is Lambda^2 J and each full trace
    is the pair trace of the pair matrices with a factor 2 each, so
    |W+|^2 = 2 <N^2, Q> with Q = 1 - Lambda^2 J + Omega_J^# (x) Omega_J,
    every factor run through jet arithmetic from the metric and J jets.
    """
    mp = bundle.mp
    nv = len(mp.axes)
    d = min(bundle.order - 2, jet_order(j_jets, nv))
    g, gi, J = (jtruncate(a, d, nv) for a in (mp.jets, mp.inv_jets, j_jets))
    L, LJ = lambda2(np.stack([gi, J]), d)
    N = jeinsum("pr,rq->pq", jtruncate(bundle.weyl, d, nv), L, d)
    # Omega_J = J^T g and Omega_J^# = g^-1 J^T on the pairs
    omega = jeinsum("ki,kj->ij", J, g, d)[..., PAIR_I, PAIR_J, :]
    omega_up = jeinsum("ik,jk->ij", gi, J, d)[..., PAIR_I, PAIR_J, :]
    Q = jmul(omega_up[..., :, None, :], omega[..., None, :, :], d) - LJ
    Q[..., range(6), range(6), 0] += 1.0
    # <N^2, Q> = <N, N^T Q>, the last sum in a fixed order so that a row of a stack keeps its bits
    return 2.0 * pair_sum(jmul(N, jeinsum("rp,rq->pq", N, Q, d), d))
