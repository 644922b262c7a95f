"""Curvature from metric jets.

The whole pipeline runs in truncated Taylor arithmetic: Christoffel symbols,
the (0,4) Riemann tensor, Ricci, scalar curvature and the (0,4) Weyl tensor
are all computed as jets, so coordinate derivatives of any of them are read
off coefficients instead of being re-approximated.

Conventions (normative throughout the package):

* ``R(X,Y) = nabla^2_{X,Y} - nabla^2_{Y,X}`` with
  ``nabla^2_{X,Y} = nabla_X nabla_Y - nabla_{nabla_X Y}``;
* ``Ric(X) = R(X, X_k) X^k`` (positive scalar curvature on round spheres),
  ``S = tr Ric``;
* (0,4) lowering ``R_{ijkl} = g(R(d_i, d_j) d_k, d_l)``;
* for skew A, ``R(A) = R(A X_k, X^k)`` and
  ``W(A) = R(A) - ({Ric, A} - (S/3) A)`` (n = 4);
* scalar Laplacian ``lap f = -g^{ij} (d_i d_j f - Gamma^k_{ij} d_k f)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import Weyl4Error
from .exprjet import jderiv, jeinsum, jet_order, jmul, jpartials, jtruncate, jvalue
from .pointgeom import MetricPoint, is_skew


class InsufficientJetOrder(Weyl4Error, ValueError):
    """A derivative of curvature was requested beyond the metric jet order."""


@dataclass(frozen=True)
class CurvatureBundle:
    """All curvature data available at one point for one metric jet order.

    Jet-valued fields carry their own truncation order (metric order minus
    the number of derivatives taken); ``*_v`` views are plain values.
    """

    mp: MetricPoint
    order: int
    gamma: np.ndarray           # (4,4,4,*) jets of Gamma^k_{ij}, index [k,i,j]
    riem: np.ndarray            # (4,4,4,4,*) jets of R_{ijkl}
    ric: np.ndarray             # (4,4,*) jets of the Ricci endomorphism [a,b]
    ric_form: np.ndarray        # (4,4,*) jets of Ric_{ij}
    S: np.ndarray               # (*,) jet of the scalar curvature
    weyl: np.ndarray            # (4,4,4,4,*) jets of W_{ijkl}
    dS: Optional[np.ndarray]    # (4,) gradient of S (order >= 3)
    nabla_ric: Optional[np.ndarray]       # (4,4,4) values (nabla_m Ric)^a_b
    nabla_ric_jets: Optional[np.ndarray]  # same, as jets (order >= 4)
    nabla2_ric: Optional[np.ndarray]      # (4,4,4,4) values (nabla^2_{m,n} Ric)^a_b
    nabla_weyl: Optional[np.ndarray]      # (4,4,4,4,4) values (nabla_m W)_{ijkl}

    @property
    def gamma_v(self) -> np.ndarray:
        return jvalue(self.gamma)

    @property
    def riem_v(self) -> np.ndarray:
        return jvalue(self.riem)

    @property
    def ric_v(self) -> np.ndarray:
        return jvalue(self.ric)

    @property
    def S_v(self) -> float:
        return float(self.S[0])

    @property
    def weyl_v(self) -> np.ndarray:
        return jvalue(self.weyl)

    @property
    def dg_v(self) -> np.ndarray:
        """Values of the metric's first partials, [m, i, j] = d_m g_ij."""
        return first_partials(self.mp.jets)

    def require(self, field: str):
        value = getattr(self, field)
        if value is None:
            raise InsufficientJetOrder(
                f"{field} needs higher metric jet order than {self.order}"
            )
        return value


def christoffel(mp: MetricPoint) -> np.ndarray:
    """Christoffel jets Gamma^k_{ij} = g^{kl}(d_i g_{jl} + d_j g_{il} - d_l g_{ij})/2."""
    if mp.order < 1:
        raise InsufficientJetOrder("christoffel needs metric jets of order >= 1")
    d = mp.order
    dg = np.stack([jderiv(mp.jets, v) for v in range(4)])  # [v,i,j] = d_v g_{ij}
    # T[l,i,j] = d_i g_{jl} + d_j g_{il} - d_l g_{ij}
    T = dg.transpose(2, 0, 1, 3) + dg.transpose(2, 1, 0, 3) - dg
    return 0.5 * jeinsum("kl,lij->kij", mp.inv_jets, T, d - 1)


def curvature_bundle(mp: MetricPoint) -> CurvatureBundle:
    """Build every curvature quantity the metric jet order supports."""
    d = mp.order
    if d < 2:
        raise InsufficientJetOrder("curvature needs metric jets of order >= 2")
    gamma = christoffel(mp)
    o2 = d - 2
    dgamma = np.stack([jderiv(gamma, v) for v in range(4)])  # [m,k,i,j]
    gam = jtruncate(gamma, o2)
    gg = jeinsum("abc,cde->abde", gam, gam, o2)
    # R(d_i, d_j) d_k = rup[l,i,j,k] d_l
    rup = (
        dgamma.transpose(1, 0, 2, 3, 4)
        - dgamma.transpose(1, 2, 0, 3, 4)
        + gg
        - gg.transpose(0, 2, 1, 3, 4)
    )
    g2 = jtruncate(mp.jets, o2)
    ginv2 = jtruncate(mp.inv_jets, o2)
    riem = jeinsum("mijk,ml->ijkl", rup, g2, o2)  # R_{ijkl} = g_{lm} rup[m,i,j,k]
    ric = jeinsum("aijk,jk->ai", rup, ginv2, o2)
    ric_form = jeinsum("ai,aj->ij", ric, g2, o2)
    S = np.einsum("aac->c", ric)
    weyl = _weyl_04(riem, ric_form, S, g2, o2)

    dS = None
    nabla_ric = nabla_ric_jets = nabla2_ric = nabla_weyl = None
    if d >= 3:
        dS = jpartials(S, 1)
        o3 = d - 3
        ric3 = jtruncate(ric, o3)
        gam3 = jtruncate(gamma, o3)
        # (nabla_m Ric)^a_b = d_m Ric^a_b + Gamma^a_{mk} Ric^k_b - Ric^a_k Gamma^k_{mb}
        nabla_ric_jets = (
            np.stack([jderiv(ric, m) for m in range(4)])
            + jeinsum("amk,kb->mab", gam3, ric3, o3)
            - jeinsum("ak,kmb->mab", ric3, gam3, o3)
        )
        nabla_ric = jvalue(nabla_ric_jets)

        dweyl = jpartials(weyl, 1).transpose(4, 0, 1, 2, 3)  # [m,i,j,k,l]
        gv = jvalue(gam3)
        wv = jvalue(weyl)
        corr = (
            np.einsum("pmi,pjkl->mijkl", gv, wv)
            + np.einsum("pmj,ipkl->mijkl", gv, wv)
            + np.einsum("pmk,ijpl->mijkl", gv, wv)
            + np.einsum("pml,ijkp->mijkl", gv, wv)
        )
        nabla_weyl = dweyl - corr

    if d >= 4:
        gv = jvalue(gamma)
        nrv = jvalue(nabla_ric_jets)
        dnr = jpartials(nabla_ric_jets, 1).transpose(3, 0, 1, 2)  # [m,n,a,b]
        nabla2_ric = (
            dnr
            + np.einsum("amc,ncb->mnab", gv, nrv)
            - np.einsum("cmb,nac->mnab", gv, nrv)
            - np.einsum("pmn,pab->mnab", gv, nrv)
        )

    return CurvatureBundle(
        mp=mp,
        order=d,
        gamma=gamma,
        riem=riem,
        ric=ric,
        ric_form=ric_form,
        S=S,
        weyl=weyl,
        dS=dS,
        nabla_ric=nabla_ric,
        nabla_ric_jets=nabla_ric_jets,
        nabla2_ric=nabla2_ric,
        nabla_weyl=nabla_weyl,
    )


def _kulkarni(h: np.ndarray, k: np.ndarray, order: int) -> np.ndarray:
    """(h . k)_{ijkl} = h_{jk}k_{il} + h_{il}k_{jk} - h_{ik}k_{jl} - h_{jl}k_{ik},
    the product for which constant curvature K is (K/2)(g . g) in our sign."""
    P = jeinsum("jk,il->ijkl", h, k, order)
    return P + P.transpose(1, 0, 3, 2, 4) - P.transpose(1, 0, 2, 3, 4) - P.transpose(0, 1, 3, 2, 4)


def _weyl_04(riem, ric_form, S, g2, order):
    """Standard Ricci decomposition, arranged so the induced operator matches
    W(A) = R(A) - {Ric,A} + (S/3)A.  The correction (Ric_0 . g)/2 + (S g/24) . g
    with Ric_0 = Ric - S g/4 is linear in its first slot: one product (Ric/2 - S g/12) . g."""
    Sg = jmul(S, g2, order)
    return riem - _kulkarni(0.5 * ric_form - Sg / 12.0, g2, order)


# ---------------------------------------------------------------------------
# Operators on skew endomorphisms
# ---------------------------------------------------------------------------


def tensor_operator(C: np.ndarray, A: np.ndarray, mp) -> np.ndarray:
    """Contract a (0,4) curvature-type tensor against a skew endo:
    C(A) = C(A X_k, X^k), returned as an endomorphism matrix.  ``mp`` is
    anything holding ``g_inv``; every argument may carry leading row axes."""
    X = np.einsum("...pm,...pmbn->...bn", A @ mp.g_inv, C)  # C(A X_k, X^k, d_b, d_n)
    return mp.g_inv @ np.swapaxes(X, -1, -2)


def weyl_operator(A: np.ndarray, riem: np.ndarray, ric: np.ndarray, S, mp) -> np.ndarray:
    """W(A) = R(A) - ({Ric, A} - (S/3) A) from the values of R_{ijkl}, the Ricci
    endomorphism and S, over leading row axes too."""
    if not is_skew(A, mp):
        raise ValueError("weyl operator expects a skew endomorphism")
    RA = tensor_operator(riem, A, mp)
    return RA - (ric @ A + A @ ric) + (np.asarray(S) / 3.0)[..., None, None] * A


def first_partials(a: np.ndarray) -> np.ndarray:
    """Values of the first partials of a jet matrix: [..., m, i, j] = d_m a_ij."""
    d = jpartials(a, 1)  # [..., i, j, m]
    return d.transpose(*range(d.ndim - 3), -1, -3, -2)


def laplacian_scalar(f: np.ndarray, gamma: np.ndarray, mp) -> np.ndarray:
    """lap f = -g^{ij}(d_i d_j f - Gamma^k_{ij} d_k f) (sign: -trace of Hessian),
    from a jet of ``f`` and the Christoffel values, over leading row axes too."""
    if jet_order(f) < 2:
        raise InsufficientJetOrder("laplacian needs a scalar jet of order >= 2")
    grad, hess = jpartials(f, 1), jpartials(f, 2)
    return -np.einsum("...ij,...ij->...", mp.g_inv, hess - np.einsum("...kij,...k->...ij", gamma, grad))
