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

R and W are carried as symmetric operators on the 6-dimensional Lambda^2,
from the jets to the identities: jets of the 6x6 matrices ``R[p, q] = R_{ijkl}``
over the pairs p = (i, j), q = (k, l) with i < j and k < l, in the order 01,
02, 03, 12, 13, 23 (``PAIR_I``, ``PAIR_J``), and nabla W as one such matrix
per direction.  A skew endomorphism A enters through the bivector
``v(A) = bivector(A g^-1)``, its pair entries; ``skew`` is the inverse.  The
operator C(A) = C(A X_k, X^k) of a pair matrix C is then
``-2 g^-1 skew(v(A) C)`` (``pair_operator``), and ``<A, C(B)> = -v(A) C v(B)^T``
for the weighted inner product tr(A* B)/4.  A full-sum operator
``(C w)_{ij} = M[i,j,k,l] w_{kl}`` is twice its pair matrix
(``(C w)_p = 2 M[p, q] w_q``), and a full trace over both index pairs
``M[i,j,i,j]`` counts each pair twice, so the traces of products agree
once each factor carries its 2: tr(M^2) over 2-forms is tr((2M_P)^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import Weyl4Error
from .exprjet import AXES, jderiv, jeinsum, jet_order, jmul, jpartials, jtruncate, jvalue
from .pointgeom import MetricPoint, _trail

PAIR_I, PAIR_J = np.triu_indices(4, 1)  # the basis e_i ^ e_j of Lambda^2, i < j: 01, 02, 03, 12, 13, 23


class InsufficientJetOrder(Weyl4Error, ValueError):
    """A derivative of curvature was requested beyond the metric jet order."""


@dataclass(frozen=True)
class CurvatureBundle:
    """All curvature data available at a point or a stack of points (leading
    axes on every field) for one metric jet order.

    Jet-valued fields carry their own truncation order (metric order minus
    the number of derivatives taken); ``*_v`` views are plain values.
    """

    mp: MetricPoint
    order: int
    gamma: np.ndarray           # (4,4,4,*) jets of Gamma^k_{ij}, index [k,i,j]
    riem: np.ndarray            # (6,6,*) jets of R_{ijkl} on pairs
    ric: np.ndarray             # (4,4,*) jets of the Ricci endomorphism [a,b]
    ric_form: np.ndarray        # (4,4,*) jets of Ric_{ij}
    S: np.ndarray               # (*,) jet of the scalar curvature
    weyl: np.ndarray            # (6,6,*) jets of W_{ijkl} on pairs
    dS: Optional[np.ndarray]    # (4,) gradient of S (order >= 3)
    nabla_ric: Optional[np.ndarray]       # (4,4,4) values (nabla_m Ric)^a_b
    nabla2_ric: Optional[np.ndarray]      # (4,4,4,4) values (nabla^2_{m,n} Ric)^a_b
    nabla_weyl: Optional[np.ndarray]      # (4,6,6) values (nabla_m W)_{ijkl} on pairs

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
    def S_v(self) -> np.ndarray:
        return jvalue(self.S)

    @property
    def weyl_v(self) -> np.ndarray:
        return jvalue(self.weyl)

    @property
    def dg_v(self) -> np.ndarray:
        """Values of the metric's first partials, [m, i, j] = d_m g_ij."""
        return first_partials(self.mp.jets, self.mp.axes)

    def require(self, field: str):
        if getattr(self, field) is None:
            raise InsufficientJetOrder(f"{field} needs higher metric jet order than {self.order}")
        return getattr(self, field)


def christoffel(mp: MetricPoint) -> np.ndarray:
    """Christoffel jets Gamma^k_{ij} = g^{kl}(d_i g_{jl} + d_j g_{il} - d_l g_{ij})/2."""
    if mp.order < 1:
        raise InsufficientJetOrder("christoffel needs metric jets of order >= 1")
    d = mp.order
    dg = np.moveaxis(jderiv(mp.jets, axes=mp.axes), -2, -4)  # [v,i,j] = d_v g_{ij}
    # T[l,i,j] = d_i g_{jl} + d_j g_{il} - d_l g_{ij}
    T = _trail(dg, 2, 0, 1, 3) + _trail(dg, 2, 1, 0, 3) - dg
    return 0.5 * jeinsum("kl,lij->kij", mp.inv_jets, T, d - 1)


def curvature_bundle(mp: MetricPoint) -> CurvatureBundle:
    """Build every curvature quantity the metric jet order supports."""
    d, axes, nv = mp.order, mp.axes, len(mp.axes)
    if d < 2:
        raise InsufficientJetOrder("curvature needs metric jets of order >= 2")
    gamma = christoffel(mp)
    o2 = d - 2
    gam = jtruncate(gamma, o2, nv)
    # F[l,i,j,k] = d_i Gamma^l_{jk} + Gamma^l_{ic} Gamma^c_{jk}, and R(d_i, d_j) d_k = rup[l,i,j,k] d_l
    F = np.moveaxis(jderiv(gamma, axes=axes), -2, -4) + jeinsum("lic,cjk->lijk", gam, gam, o2)
    rup = F - _trail(F, 0, 2, 1, 3, 4)
    g2 = jtruncate(mp.jets, o2, nv)
    # R_{pq} = g_{lm} rup[m,p,k] on the pairs p = (i, j), q = (k, l)
    riem = jeinsum("mpk,ml->pkl", rup[..., PAIR_I, PAIR_J, :, :], g2, o2)[..., PAIR_I, PAIR_J, :]
    ric = jeinsum("aijk,jk->ai", rup, jtruncate(mp.inv_jets, o2, nv), o2)
    ric_form = jeinsum("ai,aj->ij", ric, g2, o2)
    S = np.einsum("...aac->...c", ric)
    # the Ricci decomposition, arranged so the induced operator matches W(A) = R(A) - {Ric,A} + (S/3)A:
    # W = R - (Ric_0 . g)/2 - (S g/24) . g with Ric_0 = Ric - S g/4, i.e. R - h . g = R + h ^ g, h = Ric/2 - S g/12
    weyl = riem + wedge(0.5 * ric_form - jmul(S[..., None, None, :], g2, o2) / 12.0, g2, o2)

    dS = None
    nabla_ric = nabla2_ric = nabla_weyl = None
    if d >= 3:
        dS = jpartials(S, 1, axes)
        o3 = d - 3
        ric3 = jtruncate(ric, o3, nv)
        gam3 = jtruncate(gamma, o3, nv)
        # (nabla_m Ric)^a_b = d_m Ric^a_b + Gamma^a_{mk} Ric^k_b - Ric^a_k Gamma^k_{mb}
        nabla_ric_jets = (
            np.moveaxis(jderiv(ric, axes=axes), -2, -4)
            + jeinsum("amk,kb->mab", gam3, ric3, o3)
            - jeinsum("ak,kmb->mab", ric3, gam3, o3)
        )
        nabla_ric = jvalue(nabla_ric_jets)

        # nabla_m W = d_m W - D_m W - W D_m^T on pairs, D_m = wedge(G_m, 1) the action of G_m[i,a] =
        # Gamma^a_{mi} on 2-forms (Gamma^p_{mi} W_{pj..} + Gamma^p_{mj} W_{ip..} on the first pair)
        G = np.moveaxis(jvalue(gam3), -3, -1)[..., None]
        D = wedge(G, np.broadcast_to(np.eye(4)[:, :, None], G.shape), 0)[..., 0]
        W = jvalue(weyl)[..., None, :, :]
        nabla_weyl = np.moveaxis(jpartials(weyl, 1, axes), -1, -3) - D @ W - W @ np.swapaxes(D, -1, -2)

    if d >= 4:
        gv = jvalue(gamma)
        nrv = jvalue(nabla_ric_jets)
        dnr = np.moveaxis(jpartials(nabla_ric_jets, 1, axes), -1, -4)  # [m,n,a,b]
        nabla2_ric = (
            dnr
            + np.einsum("...amc,...ncb->...mnab", gv, nrv)
            - np.einsum("...cmb,...nac->...mnab", gv, nrv)
            - np.einsum("...pmn,...pab->...mnab", gv, nrv)
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
        nabla2_ric=nabla2_ric,
        nabla_weyl=nabla_weyl,
    )


def lambda2(a: np.ndarray, order: int) -> np.ndarray:
    """(Lambda^2 a)[p, q] = a_ik a_jl - a_il a_jk on the pairs p = (i, j), q = (k, l): the matrix
    of a jet matrix a acting on 2-forms, from the outer products of rows i and j of a."""
    o = jeinsum("k,l->kl", a[..., PAIR_I, :, :], a[..., PAIR_J, :, :], order)  # [p, k, l] = a_ik a_jl
    return o[..., PAIR_I, PAIR_J, :] - o[..., PAIR_J, PAIR_I, :]


def wedge(h: np.ndarray, k: np.ndarray, order: int) -> np.ndarray:
    """(h ^ k)[p, q] = h_ik k_jl + h_jl k_ik - h_il k_jk - h_jk k_il on the pairs p = (i, j),
    q = (k, l), from jet matrices h and k; wedge(a, a) = 2 Lambda^2 a.  The Kulkarni product,
    for which constant curvature K is -(K/2)(g ^ g) in our sign, is -(h ^ k)."""
    hk = np.stack([h, k], axis=-4)
    o = jeinsum("k,l->kl", hk[..., PAIR_I, :, :], hk[..., ::-1, PAIR_J, :, :], order)  # h_ik k_jl, k_ik h_jl
    o = o[..., 0, :, :, :, :] + o[..., 1, :, :, :, :]
    return o[..., PAIR_I, PAIR_J, :] - o[..., PAIR_J, PAIR_I, :]


def pair_sum(x: np.ndarray) -> np.ndarray:
    """The sum of a (..., 6, 6, ncoef) jet over both pair axes, entry by entry in row order."""
    return x.reshape(x.shape[:-3] + (36, x.shape[-1])).sum(axis=-2)


def bivector(a: np.ndarray) -> np.ndarray:
    """The pair entries [..., p] = a[..., i, j] of antisymmetric matrices a, i < j; v(A) = bivector(A g^-1)."""
    return a[..., PAIR_I, PAIR_J]


def skew(x: np.ndarray) -> np.ndarray:
    """The antisymmetric 4x4 matrices of the 6-vectors x on the pairs, inverse to ``bivector``."""
    a = np.zeros(x.shape[:-1] + (4, 4))
    a[..., PAIR_I, PAIR_J] = x
    a[..., PAIR_J, PAIR_I] = -x
    return a


def pair_operator(x: np.ndarray, C: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """C(A) = C(A X_k, X^k) = -2 g^-1 skew(v(A) C) as an endomorphism, from a pair matrix C
    (..., 6, 6) and a stack of bivectors x = v(A) (..., s, 6); ``g_inv`` broadcasts to (..., s, 4, 4)."""
    return -2.0 * g_inv @ skew(x @ C)


def first_partials(a: np.ndarray, axes: tuple = AXES) -> np.ndarray:
    """Values of the first partials of a jet matrix in the variables ``axes``: [..., m, i, j] = d_m a_ij."""
    d = jpartials(a, 1, axes)  # [..., i, j, m]
    return d.transpose(*range(d.ndim - 3), -1, -3, -2)


def laplacian_scalar(f: np.ndarray, gamma: np.ndarray, mp) -> np.ndarray:
    """lap f = -g^{ij}(d_i d_j f - Gamma^k_{ij} d_k f) (sign: -trace of Hessian),
    from a jet of ``f`` in the variables of ``mp`` and the Christoffel values, over leading row axes too."""
    if jet_order(f, len(mp.axes)) < 2:
        raise InsufficientJetOrder("laplacian needs a scalar jet of order >= 2")
    grad, hess = jpartials(f, 1, mp.axes), jpartials(f, 2, mp.axes)
    # fixed-order sums, so that a row of a stack keeps its bits (an einsum over six or more rows does not)
    terms = mp.g_inv * (hess - (gamma * grad[..., :, None, None]).sum(axis=-3))
    return -terms.reshape(terms.shape[:-2] + (16,)).sum(axis=-1)
