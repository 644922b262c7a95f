"""The self-dual 2-forms through the J-splitting, and the W+ apparatus.

Lambda+ = <Omega_J> + [[Lambda^{0,2}]] is spanned by the forms
``Omega_A = A^T g`` of the orthonormal triple (J, I, K) of a J-frame
(``lambda2_split``).  W+, nabla W+, delta W+ and the (0,4) tensor W+ are
read in that one basis, where the projection onto Lambda+ is
``P+ = (1/4) sum_A Omega_A (x) Omega_A^#``.  The |W+|^2 jet has no frame and
writes it with J alone: ``P+ = (1 - calJ)/2 + Omega_J (x) Omega_J^#/4``,
``(calJ w)(X, Y) = w(JX, JY)``.

Operators on 2-forms are matrices M with ``(C w)_{ij} = M[i,j,k,l] w_{kl}``
(full sums).  For the operator induced by a (0,4) curvature-type tensor C
via ``C(A) = C(A X_k, X^k)`` this matrix is ``M = -C_{ij}^{kl}``; the trace
of such an operator over the 6-dimensional space of 2-forms is
``M[i,j,i,j]``.  On the pairs i < j of ``curvature`` (order 01, 02, 03, 12,
13, 23) the same operator is the 6x6 matrix 2 M[p, q] = -2 (C L)[p, q] with
L = Lambda^2(g^-1); a full trace counts each pair twice and the packed one
once, so the full tr(M^2) is the pair trace of (2M)^2.

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

from .curvature import PAIR_I, PAIR_J, CurvatureBundle, lambda2, pair_sum
from .exprjet import jeinsum, jet_order, jmul, jtruncate
from .pointgeom import SelfDualFrame, _flat, _pairs, _trail, inner_endos


def interior_product(U: np.ndarray, C04: np.ndarray, mp) -> np.ndarray:
    """(U .| C)(X) = C(U, X) as an endomorphism table [direction, a, b]."""
    return np.einsum("...m,...an,...mibn->...iab", U, mp.g_inv, C04)


# ---------------------------------------------------------------------------
# Lambda^2 basis
# ---------------------------------------------------------------------------


def lambda2_split(frame: SelfDualFrame) -> np.ndarray:
    """The orthonormal self-dual triple (J, I, K) of a J-frame, stacked as
    [..., 3, 4, 4]: Omega_J spans the J-invariant part of Lambda+ and
    (Omega_I, Omega_K) its J-anti-invariant part."""
    return np.stack([frame.J, frame.I, frame.K], axis=-3)


def _forms(sd: np.ndarray, mp) -> tuple[np.ndarray, np.ndarray]:
    """The forms Omega_A = A^T g of a stack of endomorphisms, each as a
    16-row over its index pair, and the raised forms Omega_A^# = g^-1 A^T."""
    At = np.swapaxes(sd, -1, -2)
    return _flat(At @ mp.g[..., None, :, :]), _flat(mp.g_inv[..., None, :, :] @ At)


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
    mp = bundle.mp
    g_inv = mp.g_inv[..., None, :, :]
    # W(B)^a_b = g^{an} (B g^-1)^p_m W_{pmbn}: one index-pair product serves the whole stack
    X = (_flat(Bs @ g_inv) @ _pairs(bundle.weyl_v)).reshape(Bs.shape)
    return WplusMatrix.from_matrix(inner_endos(Bs, g_inv @ np.swapaxes(X, -1, -2), mp))


def wplus_04(m: np.ndarray, sd: np.ndarray, mp) -> np.ndarray:
    """(0,4) components of W+ (the Weyl operator composed with P+) from its
    matrix ``m`` in the basis ``sd``: W+_{ijkl} = -m_ab (Omega_a)_{ij} (Omega_b)_{kl} / 4."""
    forms = _forms(sd, mp)[0]
    return -0.25 * (np.swapaxes(forms, -1, -2) @ m @ forms).reshape(np.shape(m)[:-2] + (4, 4, 4, 4))


# ---------------------------------------------------------------------------
# Divergence and derivative norms
# ---------------------------------------------------------------------------


def delta_wpm(bundle: CurvatureBundle, sd: np.ndarray) -> np.ndarray:
    """delta W+ from the local divergence formula applied to the projected
    derivative tensors C_k = (nabla_k W) P+, P+ from the basis ``sd``."""
    nw = bundle.require("nabla_weyl")
    mp = bundle.mp
    forms, forms_up = _forms(sd, mp)
    # E[i,b,n] = g^{km} C[k,i,m,b,n]; the projection acts on the last index pair only, so the
    # trace over (k, m) is taken first, on nabla W, and no C is formed
    T = np.einsum("...km,...kimx->...ix", mp.g_inv, nw.reshape(nw.shape[:-2] + (16,)))
    # on index pairs, E = T P+ = (T Omega^#^T) Omega / 4
    E = 0.25 * (T @ np.swapaxes(forms_up, -1, -2)) @ forms
    # delta W+[i,a,b] = E[i,b,n] g^{an}
    return np.swapaxes(E.reshape(nw.shape[:-5] + (4, 4, 4)) @ np.swapaxes(mp.g_inv, -1, -2)[..., None, :, :], -1, -2)


def nabla_w_sd_matrices(bundle: CurvatureBundle, sd: np.ndarray) -> np.ndarray:
    """3x3 matrices of nabla_p W+ in the basis ``sd``, one per direction."""
    nw = bundle.require("nabla_weyl")
    mp = bundle.mp
    # the operator of nabla_p W maps the form of B to the endo g^-1 (nabla_p W)_{..ab} Omega_B^{ab};
    # the (p, B) images are paired as one stack
    contracted = nw.reshape(nw.shape[:-5] + (64, 16)) @ np.swapaxes(_forms(sd, mp)[1], -1, -2)
    images = mp.g_inv[..., None, None, :, :] @ _trail(contracted.reshape(nw.shape[:-2] + (3,)), 0, 3, 1, 2)
    pairs = inner_endos(sd, images.reshape(images.shape[:-4] + (12, 4, 4)), mp)
    return pairs.reshape(pairs.shape[:-1] + (4, 3)).swapaxes(-3, -2)


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
