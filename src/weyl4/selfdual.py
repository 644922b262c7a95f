"""Self-dual / anti-self-dual splitting and the W+ apparatus.

Operators on 2-forms are handled through matrices M with
``(C w)_{ij} = M[i,j,k,l] w_{kl}`` (full sums).  For the operator induced by
a (0,4) curvature-type tensor C via ``C(A) = C(A X_k, X^k)`` this matrix is
``M = -C_{ij}^{kl}``; the trace of such an operator over the 6-dimensional
space of 2-forms is ``M[i,j,i,j]``.

Operator helpers take ``mp`` as anything holding ``g`` and ``g_inv``, and
leading row axes on every argument: one call serves a point or a stack.

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


def pm_projectors(mp, orientation) -> tuple[np.ndarray, np.ndarray]:
    star = star_operator(mp, orientation)
    return 0.5 * (IDENTITY_OPERATOR + star), 0.5 * (IDENTITY_OPERATOR - star)


def interior_product(U: np.ndarray, C04: np.ndarray, mp) -> np.ndarray:
    """(U .| C)(X) = C(U, X) as an endomorphism table [direction, a, b]."""
    return np.einsum("...m,...an,...mibn->...iab", U, mp.g_inv, C04)


# ---------------------------------------------------------------------------
# Lambda^2 basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lambda2Basis:
    """Six orthonormal skew endomorphisms (2-forms through Omega_A = g(A., .)),
    the first three spanning the self-dual part."""

    endos: tuple        # (J, I, K, J-, I-, K-)
    mp: MetricPoint

    @property
    def sd(self) -> tuple:
        return self.endos[:3]


def lambda2_split(frame: SelfDualFrame, mp: MetricPoint) -> Lambda2Basis:
    return Lambda2Basis(endos=frame.sd_endos() + frame.asd_endos(), mp=mp)


# ---------------------------------------------------------------------------
# W+ as a 3x3 matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WplusMatrix:
    m: np.ndarray           # symmetric traceless 3x3 in (Omega_J, Omega_I, Omega_K)
    norm2: float            # full-trace |W+|^2 = Frobenius(m)^2
    det: float
    eigenvalues: np.ndarray  # sorted descending

    @staticmethod
    def from_matrix(m: np.ndarray) -> "WplusMatrix":
        sym = 0.5 * (m + m.T)
        eig = np.sort(np.linalg.eigvalsh(sym))[::-1]
        return WplusMatrix(
            m=m,
            norm2=float(np.sum(m * m)),
            det=float(np.linalg.det(m)),
            eigenvalues=eig,
        )


def _weyl_on(bundle: CurvatureBundle, endos: tuple, mp: MetricPoint) -> WplusMatrix:
    """Matrix [a, b] = <A_a, W(A_b)> of the Weyl operator on an orthonormal triple."""
    Bs = np.stack(endos)
    # W(B)^a_b = B^p_k W_p^k{}_b{}^a: raise W once, then take all images in one contraction
    raised = np.einsum("km,an,pmbn->pkab", mp.g_inv, mp.g_inv, bundle.weyl_v)
    images = np.einsum("spk,pkab->sab", Bs, raised)
    return WplusMatrix.from_matrix(inner_endos(Bs, images, mp))


def wplus_matrix(bundle: CurvatureBundle, basis: Lambda2Basis) -> WplusMatrix:
    """W+ in the orthonormal self-dual basis, via the weighted pairing."""
    return _weyl_on(bundle, basis.sd, basis.mp)


def weyl_pm_04(weyl: np.ndarray, mp, orientation) -> tuple[np.ndarray, np.ndarray]:
    """(0,4) components of W+ and W- (operator composed with the projections),
    from the values of W_{ijkl}."""
    Pp, Pm = pm_projectors(mp, orientation)
    M = form_operator(weyl, mp)
    return operator_to_04(compose(M, Pp), mp), operator_to_04(compose(M, Pm), mp)


# ---------------------------------------------------------------------------
# Divergence and derivative norms
# ---------------------------------------------------------------------------


def delta_wpm(bundle: CurvatureBundle, frame: SelfDualFrame) -> tuple[np.ndarray, np.ndarray]:
    """(delta W+, delta W-) from the local divergence formula applied to the
    projected derivative tensors C_k = (nabla_k W) P_pm."""
    nw = bundle.require("nabla_weyl")
    mp = bundle.mp
    # as 16x16 matrices on index pairs, C_k = nabla_k W (g^-1 (x) g^-1) P_pm (g (x) g)
    raise2, lower2 = _kron2(mp.g_inv), _kron2(mp.g)
    P = np.stack(pm_projectors(mp, frame.orientation)).reshape(2, 16, 16)
    C = (nw.reshape(64, 16) @ (raise2 @ P @ lower2)).reshape(2, 4, 4, 4, 4, 4)
    out = np.einsum("km,an,skimbn->siab", mp.g_inv, mp.g_inv, C)
    return out[0], out[1]


def nabla_w_sd_matrices(bundle: CurvatureBundle, frame: SelfDualFrame) -> np.ndarray:
    """3x3 matrices of nabla_p W+ in the (J, I, K) basis, one per direction."""
    nw = bundle.require("nabla_weyl")
    mp = bundle.mp
    Bs = np.stack(frame.sd_endos())
    # the operator of nabla_p W maps the form of B to the endo g^-1 (nabla_p W)_{..ab} Omega_B^{ab},
    # with the raised form Omega_B^{ab} = (g^-1 B^T)^{ab}
    forms_up = mp.g_inv @ Bs.transpose(0, 2, 1)
    images = mp.g_inv @ np.einsum("pijab,sab->psij", nw, forms_up)
    return inner_endos(Bs, images, mp)


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
