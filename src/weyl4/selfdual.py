"""The self-dual basis of 2-forms and the W+ apparatus.

Operators on 2-forms are handled through matrices M with
``(C w)_{ij} = M[i,j,k,l] w_{kl}`` (full sums).  For the operator induced by
a (0,4) curvature-type tensor C via ``C(A) = C(A X_k, X^k)`` this matrix is
``M = -C_{ij}^{kl}``; the trace of such an operator over the 6-dimensional
space of 2-forms is ``M[i,j,i,j]``.

Operator helpers and frame functions take ``mp`` as anything holding ``g``
and ``g_inv`` (``bundle`` as anything holding ``mp`` and the values read),
and leading row axes on every argument: one call serves a point or a stack.

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

from .curvature import CurvatureBundle
from .exprjet import Jet, jeinsum, jmul, jtruncate, jdet4, jet_sqrt
from .pointgeom import EPS4, MetricPoint, SelfDualFrame, inner_endos


# ---------------------------------------------------------------------------
# Operator matrices on 2-forms
# ---------------------------------------------------------------------------


def _pairs(T: np.ndarray) -> np.ndarray:
    """A [..., i, j, k, l] array as [..., (i, j), (k, l)] 16x16 matrices."""
    return T.reshape(T.shape[:-4] + (16, 16))


def _trail(x: np.ndarray, *order: int) -> np.ndarray:
    """``x`` with its trailing axes permuted by ``order``, leading row axes kept."""
    k = x.ndim - len(order)
    return x.transpose(*range(k), *(k + i for i in order))


def _kron2(a: np.ndarray) -> np.ndarray:
    """a (x) a on index pairs: [(i, j), (k, l)] = a[i, k] a[j, l]."""
    return _pairs(a[..., :, None, :, None] * a[..., None, :, None, :])


def form_operator(C04: np.ndarray, mp) -> np.ndarray:
    """Matrix of the operator induced by a (0,4) tensor: (Cw)_{ij} = M[ijkl] w_{kl}."""
    return -(_pairs(C04) @ _kron2(mp.g_inv)).reshape(C04.shape)


def operator_to_04(M: np.ndarray, mp) -> np.ndarray:
    return -(_pairs(M) @ _kron2(mp.g)).reshape(M.shape)


def identity_operator() -> np.ndarray:
    eye = np.eye(4)
    return 0.5 * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))


IDENTITY_OPERATOR = identity_operator()


def star_operator(mp, orientation) -> np.ndarray:
    factor = 0.5 * np.asarray(orientation) * np.sqrt(np.linalg.det(mp.g))
    eps_up = (_pairs(EPS4) @ _kron2(mp.g_inv)).reshape(factor.shape + EPS4.shape)
    return factor[..., None, None, None, None] * eps_up


def compose(M1: np.ndarray, M2: np.ndarray) -> np.ndarray:
    return (_pairs(M1) @ _pairs(M2)).reshape(M1.shape)


def plus_projector(mp, orientation) -> np.ndarray:
    """Projection onto the self-dual 2-forms, (1 + star)/2."""
    return 0.5 * (IDENTITY_OPERATOR + star_operator(mp, orientation))


def interior_product(U: np.ndarray, C04: np.ndarray, mp) -> np.ndarray:
    """(U .| C)(X) = C(U, X) as an endomorphism table [direction, a, b]."""
    return np.einsum("...m,...an,...mibn->...iab", U, mp.g_inv, C04)


# ---------------------------------------------------------------------------
# Lambda^2 basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lambda2Basis:
    """Orthonormal self-dual skew endomorphisms (J, I, K), 2-forms through
    Omega_A = g(A., .)."""

    sd: tuple
    mp: MetricPoint


def lambda2_split(frame: SelfDualFrame, mp: MetricPoint) -> Lambda2Basis:
    return Lambda2Basis(sd=frame.sd_endos(), mp=mp)


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


def _weyl_on(bundle: CurvatureBundle, endos: tuple, mp: MetricPoint) -> WplusMatrix:
    """Matrix [a, b] = <A_a, W(A_b)> of the Weyl operator on an orthonormal triple."""
    Bs = np.stack(endos, axis=-3)
    # W(B)^a_b = B^p_k W_p^k{}_b{}^a: raise W once, then take all images in one contraction
    raised = np.einsum("...km,...an,...pmbn->...pkab", mp.g_inv, mp.g_inv, bundle.weyl_v)
    images = np.einsum("...spk,...pkab->...sab", Bs, raised)
    return WplusMatrix.from_matrix(inner_endos(Bs, images, mp))


def wplus_matrix(bundle: CurvatureBundle, basis: Lambda2Basis) -> WplusMatrix:
    """W+ in the orthonormal self-dual basis, via the weighted pairing."""
    return _weyl_on(bundle, basis.sd, basis.mp)


def wplus_04(weyl: np.ndarray, mp, orientation) -> np.ndarray:
    """(0,4) components of W+ (the operator composed with the self-dual
    projection), from the values of W_{ijkl}."""
    M = form_operator(weyl, mp)
    return operator_to_04(compose(M, plus_projector(mp, orientation)), mp)


# ---------------------------------------------------------------------------
# Divergence and derivative norms
# ---------------------------------------------------------------------------


def delta_wpm(bundle: CurvatureBundle, frame: SelfDualFrame) -> np.ndarray:
    """delta W+ from the local divergence formula applied to the projected
    derivative tensors C_k = (nabla_k W) P_+."""
    nw = bundle.require("nabla_weyl")
    mp = bundle.mp
    # E[i,b,n] = g^{km} C[k,i,m,b,n]; the projection acts on the last index pair only, so the
    # trace over (k, m) is taken first, on nabla W, and no C is formed
    T = np.einsum("...km,...kimx->...ix", mp.g_inv, nw.reshape(nw.shape[:-2] + (16,)))
    # as 16x16 matrices on index pairs, E = T (g^-1 (x) g^-1) P_+ (g (x) g)
    E = T @ (_kron2(mp.g_inv) @ _pairs(plus_projector(mp, frame.orientation)) @ _kron2(mp.g))
    # delta W+[i,a,b] = E[i,b,n] g^{an}
    return np.swapaxes(E.reshape(nw.shape[:-5] + (4, 4, 4)) @ np.swapaxes(mp.g_inv, -1, -2)[..., None, :, :], -1, -2)


def nabla_w_sd_matrices(bundle: CurvatureBundle, frame: SelfDualFrame) -> np.ndarray:
    """3x3 matrices of nabla_p W+ in the (J, I, K) basis, one per direction."""
    nw = bundle.require("nabla_weyl")
    mp = bundle.mp
    Bs = np.stack(frame.sd_endos(), axis=-3)
    # the operator of nabla_p W maps the form of B to the endo g^-1 (nabla_p W)_{..ab} Omega_B^{ab},
    # with the raised form Omega_B^{ab} = (g^-1 B^T)^{ab}; the (p, B) images are paired as one stack
    forms_up = mp.g_inv[..., None, :, :] @ np.swapaxes(Bs, -1, -2)
    contracted = nw.reshape(nw.shape[:-5] + (64, 16)) @ np.swapaxes(forms_up.reshape(Bs.shape[:-2] + (16,)), -1, -2)
    images = mp.g_inv[..., None, None, :, :] @ _trail(contracted.reshape(nw.shape[:-2] + (3,)), 0, 3, 1, 2)
    pairs = inner_endos(Bs, images.reshape(images.shape[:-4] + (12, 4, 4)), mp)
    return pairs.reshape(pairs.shape[:-1] + (4, 3)).swapaxes(-3, -2)


def wplus_norm2_jet(bundle: CurvatureBundle, orientation: float) -> Jet:
    """|W+|^2 as a scalar jet (frame-free), for gradients and Laplacians.

    Uses the trace over 2-forms: |W+|^2 = (tr W^2 + tr(W^2 star))/2, with
    every factor run through jet arithmetic.
    """
    d = bundle.order - 2
    if d < 0:
        raise ValueError("bundle lacks Weyl jets")
    mp = bundle.mp
    g = jtruncate(mp.jets, bundle.order, d)
    gi = jtruncate(mp.inv_jets, bundle.order - 1, d)
    # M = -W_{ij}^{kl}, the form-operator matrix of W
    M = -jeinsum("ijbk,bl->ijkl", jeinsum("ijab,ak->ijbk", bundle.weyl, gi, d), gi, d)
    T2 = jeinsum("ijab,abkl->ijkl", M, M, d)
    tr_w2 = np.einsum("ijijc->c", T2)

    # star = (orientation/2) sqrt(det g) eps_{ij}^{kl}: EPS4 is constant, so its first
    # raising is a plain contraction, and sqrt(det g) factors out of the trace
    eps_up = jeinsum("ijbk,bl->ijkl", np.einsum("ijab,akc->ijbkc", EPS4, gi), gi, d)
    sqrt_det = jet_sqrt(Jet(jdet4(g, d), d)).coeffs
    tr_w2_eps = jeinsum("ijab,abij->", T2, eps_up, d)
    tr_w2_star = (0.5 * orientation) * jmul(tr_w2_eps, sqrt_det, d)
    return Jet(0.5 * (tr_w2 + tr_w2_star), d)
