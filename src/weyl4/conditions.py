"""Identity registry, residual suites, classification and integral checks.

Each numbered relation from the source material is an :class:`IdentityRecord`:
an evaluator producing (lhs, rhs, absolute residual, scale) at a point
context, an applicability predicate evaluated numerically (Kahler /
almost-Kahler / two-eigenvalue / divergence-free gates), and the minimum
metric jet order it needs.  ``run_suite`` samples points, evaluates every
applicable record and aggregates into a deterministic report.

Relative residuals are ``abs / max(scale, 1e-14)`` where the scale is the
largest absolute term on either side, so identities mixing quantities of
different magnitude stay comparable.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import Weyl4Error, __version__
from .catalog import ManifoldSpec
from .curvature import curvature_bundle, laplacian_scalar
from .exprjet import Jet
from .hermitian import (
    AcsPoint,
    NablaJData,
    StarCurvature,
    gl121_delta_wplus,
    lambda_jet,
    nabla_j_data,
    phi_psi_pairing,
    projections_p1p2,
    q_j_integrand,
    star_ricci_family,
)
from .pointgeom import SelfDualFrame, build_j_frame, rotate_supplement
from .selfdual import (
    delta_wpm,
    interior_product,
    lambda2_split,
    nabla_w_sd_matrices,
    weyl_pm_04,
    wplus_matrix,
    wplus_norm2_jet,
)

RESIDUAL_FLOOR = 1e-14
GATE = 1e-8  # applicability gates (scale-relative)

TOL_PASS = 1e-8
TOL_FAIL = 1e-4

CONVENTIONS = {
    "package_version": __version__,
    "curvature_sign": "R(X,Y) = nabla2_{X,Y} - nabla2_{Y,X}; Ric(X) = R(X, X_k) X^k",
    "endo_inner_product": "tr(A* B)/4",
    "lambda2_operator_norms": "full trace over the 3-dimensional self-dual bundle",
    "laplacian_sign": "-g^{ij}(d_i d_j - Gamma^k_{ij} d_k)",
    "orientation": "volume form = Omega_J ^ Omega_J / 2",
    "frame_seed": "first chart basis vector; e3 from deterministic Gram-Schmidt",
    "codifferential": "delta = -g^{mi} (nabla_m .)_{i ...}",
}


class ConditionsError(Weyl4Error):
    pass


class QuadratureError(ConditionsError):
    pass


# ---------------------------------------------------------------------------
# Point context
# ---------------------------------------------------------------------------


@dataclass
class PointContext:
    """Everything the evaluators need at one point and one frame choice."""

    spec: ManifoldSpec
    point: np.ndarray
    order: int
    mp: object
    bundle: object
    acs: Optional[AcsPoint] = None
    frame: Optional[SelfDualFrame] = None
    star: Optional[StarCurvature] = None
    nj: Optional[NablaJData] = None
    basis: object = None
    wplus: object = None
    proj: object = None
    w2jet: Optional[Jet] = None
    lam_jet: Optional[Jet] = None
    dwp: Optional[np.ndarray] = None
    dwm: Optional[np.ndarray] = None
    nabla_sd: Optional[np.ndarray] = None   # 3x3 matrices of nabla_p W+
    rotation: float = 0.0

    @property
    def S(self) -> float:
        return self.bundle.S_v

    @functools.cached_property
    def curvature_scale(self) -> float:
        """Characteristic curvature magnitude; residual denominators never
        drop below it, so identities whose sides vanish only up to rounding
        (flat or Einstein points) normalize against the size of the
        quantities they cancel from.  Computed once per context."""
        return max(1.0, float(np.abs(self.bundle.riem_v).max()), abs(self.bundle.S_v))

    def nabla_wplus_norm2(self) -> float:
        n = self.nabla_sd
        return float(np.einsum("pq,pab,qba->", self.mp.g_inv, n, n))

    def grad_norm2(self, dv: np.ndarray) -> float:
        return float(dv @ self.mp.g_inv @ dv)


def point_context(
    spec: ManifoldSpec,
    point: Sequence[float],
    order: int,
    rotation: float = 0.0,
    frame_seed: Optional[np.ndarray] = None,
) -> PointContext:
    point = np.asarray(point, dtype=float)
    mp = spec.metric_point(point, order)
    bundle = curvature_bundle(mp)
    ctx = PointContext(spec=spec, point=point, order=order, mp=mp, bundle=bundle, rotation=rotation)
    if spec.has_j:
        acs = AcsPoint.from_jets(spec.j_jets(point, 2), mp)
        seed = frame_seed if frame_seed is not None else np.eye(4)[0]
        frame = build_j_frame(mp, acs.J, seed)
        if rotation:
            frame = rotate_supplement(frame, rotation)
        ctx.acs = acs
        _fill_frame_data(ctx, frame)
    return ctx


def rotated_context(ctx: PointContext, alpha: float) -> PointContext:
    """Same point and bundle, quaternionic supplement rotated by alpha."""
    out = PointContext(
        spec=ctx.spec, point=ctx.point, order=ctx.order, mp=ctx.mp, bundle=ctx.bundle,
        acs=ctx.acs, rotation=ctx.rotation + alpha,
    )
    _fill_frame_data(out, rotate_supplement(ctx.frame, alpha))
    return out


def _fill_frame_data(ctx: PointContext, frame: SelfDualFrame) -> None:
    ctx.frame = frame
    ctx.star = star_ricci_family(ctx.bundle, ctx.acs, frame)
    ctx.nj = nabla_j_data(ctx.acs, ctx.bundle, frame)
    ctx.basis = lambda2_split(frame, ctx.mp)
    ctx.wplus = wplus_matrix(ctx.bundle, ctx.basis)
    ctx.proj = projections_p1p2(ctx.star, ctx.wplus.m)
    ctx.w2jet = wplus_norm2_jet(ctx.bundle, frame.orientation)
    if ctx.order >= 3:
        ctx.lam_jet = lambda_jet(ctx.bundle, ctx.acs)
        ctx.dwp, ctx.dwm = delta_wpm(ctx.bundle, frame)
        ctx.nabla_sd = nabla_w_sd_matrices(ctx.bundle, frame)


# ---------------------------------------------------------------------------
# Identity records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    anchor: str
    description: str
    applicability: str  # all | kahler | almost-kahler | requires-gl77 | requires-deltawplus0 | compact-integral
    min_order: int
    evaluator: Optional[Callable[[PointContext], tuple]] = None
    needs_w_support: bool = False  # evaluate only where |W+| is not negligible
    needs_s_support: bool = False
    signed: bool = False           # inequality: lhs - rhs >= 0 up to tolerance


@dataclass(frozen=True)
class IdentityResidual:
    id: str
    point: tuple
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    applicable: bool
    scale: float
    signed_margin: Optional[float] = None


def _res(lhs: float, rhs: float, abs_residual: float, scale: float):
    return float(lhs), float(rhs), float(abs_residual), float(scale)


def _tensor_res(lhs: np.ndarray, rhs: np.ndarray, *scale_terms):
    a = float(np.abs(lhs - rhs).max())
    terms = [float(np.abs(t).max()) for t in (lhs, rhs, *scale_terms)]
    return float(np.abs(lhs).max()), float(np.abs(rhs).max()), a, max(terms)


def _scalar_res(lhs: float, rhs: float, *extra_terms):
    terms = [abs(lhs), abs(rhs)] + [abs(t) for t in extra_terms]
    return _res(lhs, rhs, abs(lhs - rhs), max(terms))


# A relation stated at two anchors (EQ01/82, EQ02/80, EQ03/87, EQ04/88,
# EQ06/77) has one evaluator; each record keeps its own id, anchor and gate.


def _eq01_82(c):  # |W+|^2 = S^2/6
    return _scalar_res(c.wplus.norm2, c.S**2 / 6.0)


def _eq02_80(c):  # det^2 = |W+|^6/54
    return _scalar_res(c.wplus.det**2, c.wplus.norm2**3 / 54.0)


def _eq03_87(c):  # |nabla W+|^2 = |nabla S|^2/6
    return _scalar_res(c.nabla_wplus_norm2(), c.grad_norm2(c.bundle.require("dS")) / 6.0)


def _grad_abs_w(c):
    w2 = c.w2jet
    return c.grad_norm2(w2.gradient()) / (4.0 * w2.value)


def _eq04_88(c):  # |nabla W+|^2 = |nabla |W+||^2
    return _scalar_res(c.nabla_wplus_norm2(), _grad_abs_w(c))


def _wplus_interior(c, u):
    """u .| W+ as a (4, 4, 4) array, W+ taken as a (0,4)-tensor."""
    Wp04, _ = weyl_pm_04(c.bundle, c.frame)
    return interior_product(u, Wp04, c.mp)


def _grad_log_abs_w(c):
    return c.mp.g_inv @ c.w2jet.gradient() / (2.0 * c.w2jet.value)


def _eq05(c):  # delta W+ + grad log|W+| .| W+ = 0
    ip = _wplus_interior(c, _grad_log_abs_w(c))
    return _tensor_res(c.dwp + ip, np.zeros_like(ip), c.dwp, ip)


def _eq06_77(c):  # |W+|^2 = (3/8)(S* - S/3)^2 = 6 lambda^2
    return _scalar_res(c.wplus.norm2, 6.0 * c.star.lam**2)


def _eq42(c):
    lhs = c.star.ric_tri + c.star.ric_box + c.star.ric_star
    return _tensor_res(lhs, c.bundle.ric_v, c.star.ric_tri, c.star.ric_box, c.star.ric_star)


def _eq46(c):
    return _scalar_res(c.star.s_tri + c.star.s_box + c.star.s_star, c.S,
                       c.star.s_tri, c.star.s_box, c.star.s_star)


def _eq48(c):  # W(J) = (S* - S/3) J / 2 + 2 Ric*- J
    from .curvature import weyl_operator

    J = c.acs.J
    lhs = weyl_operator(J, c.bundle)
    rhs = 0.5 * (c.star.s_star - c.S / 3.0) * J + 2.0 * c.star.ric_star_minus @ J
    return _tensor_res(lhs, rhs)


def _eq54(c):
    s = c.star
    rhs = 0.25 * (s.s_star**2 + s.s_tri**2 + s.s_box**2 - c.S**2 / 3.0) + 4.0 * (
        s.ric_star_minus2 + s.ric_tri_minus2 + s.ric_box_minus2
    )
    return _scalar_res(c.wplus.norm2, rhs, s.s_star**2 / 4, s.s_tri**2 / 4, s.s_box**2 / 4, c.S**2 / 12)


def _eq63(c):
    s = c.star
    lhs = s.ric_tri_minus2 + s.ric_box_minus2 - s.ric_star_minus2
    return _scalar_res(lhs, 2.0 * s.j_dot_tri_minus**2, s.ric_tri_minus2, s.ric_box_minus2, s.ric_star_minus2)


def _eq65(c):
    s = c.star
    rhs = 0.25 * (s.s_tri**2 + s.s_box**2) + 4.0 * (s.ric_tri_minus2 + s.ric_box_minus2 - s.ric_star_minus2)
    return _scalar_res(s.rt2, rhs, s.s_tri**2 / 4, s.s_box**2 / 4)


def _eq69(c):
    s = c.star
    rhs = 0.125 * (s.s_tri - s.s_box) ** 2 + 4.0 * (s.ric_tri_minus2 + s.ric_box_minus2 - s.ric_star_minus2)
    return _scalar_res(s.rtm2, rhs, s.s_tri**2 / 8, s.s_box**2 / 8)


def _eq70(c):
    s = c.star
    return _scalar_res(s.rt2, s.rtp2 + s.rtm2)


def _eq71(c):
    s = c.star
    return _scalar_res(s.rtp2, 0.125 * (s.s_star - c.S) ** 2)


def _eq72(c):
    s = c.star
    rhs = 0.375 * (s.s_star - c.S / 3.0) ** 2 + 8.0 * s.ric_star_minus2 + s.rtm2
    return _scalar_res(c.wplus.norm2, rhs, 6 * s.lam**2, s.rtm2)


def _eq73(c):
    return _scalar_res(c.wplus.norm2, 6.0 * c.star.lam**2 + c.proj.g_norm2)


def _eq75(c):
    a = abs(c.proj.p1_pairing - c.proj.two_lambda)
    b = abs(c.proj.p2_pairing + c.proj.two_lambda)
    scale = max(abs(c.proj.p1_pairing), abs(c.proj.p2_pairing), abs(c.proj.two_lambda))
    return _res(c.proj.p1_pairing, c.proj.two_lambda, max(a, b), scale)


def _eq83(c):
    return _scalar_res(c.wplus.det, c.S**3 / 108.0)


def _eq84(c):
    target = np.sort(np.array([c.S / 3.0, -c.S / 6.0, -c.S / 6.0]))[::-1]
    a = float(np.abs(c.wplus.eigenvalues - target).max())
    scale = max(float(np.abs(target).max()), float(np.abs(c.wplus.eigenvalues).max()), RESIDUAL_FLOOR)
    return _res(float(c.wplus.eigenvalues[0]), float(target[0]), a, scale)


def _eq85(c):
    target = (c.S / 6.0) * np.diag([2.0, -1.0, -1.0])
    return _tensor_res(c.wplus.m, target)


def _eq86(c):  # nabla W+ = dS/6 (x) (2 P1 - P2)
    dS = c.bundle.require("dS")
    target = np.einsum("p,ab->pab", dS / 6.0, np.diag([2.0, -1.0, -1.0]))
    return _tensor_res(c.nabla_sd, target)


def _nabla_jx_j(c, i):
    return np.einsum("m,mab->ab", c.frame.J @ np.eye(4)[i], c.nj.nabla_j)


def _eq104(c):
    dlam = c.lam_jet.gradient()
    fr, nj, lam = c.frame, c.nj, c.star.lam
    rhs = np.zeros((4, 4, 4))
    for i in range(4):
        X = np.eye(4)[i]
        rhs[i] = -0.25 * (
            (3.0 * lam * nj.delta_omega[i] + 2.0 * float(dlam @ (fr.J @ X))) * fr.J
            + 3.0 * lam * _nabla_jx_j(c, i)
            - float(dlam @ (fr.I @ X)) * fr.I
            - float(dlam @ (fr.K @ X)) * fr.K
        )
    return _tensor_res(c.dwp, rhs)


def _eq112(c):
    ip = _wplus_interior(c, _grad_log_abs_w(c))
    rhs = np.zeros((4, 4, 4))
    for i in range(4):
        rhs[i] = -0.75 * c.star.lam * (c.nj.delta_omega[i] * c.frame.J + _nabla_jx_j(c, i)) - ip[i]
    return _tensor_res(c.dwp, rhs, ip)


def _eq114(c):  # delta W+ + grad log|S| .| W+ = 0
    ip = _wplus_interior(c, c.mp.g_inv @ c.bundle.require("dS") / c.S)
    return _tensor_res(c.dwp + ip, np.zeros((4, 4, 4)), c.dwp, ip)


def _eq116(c):
    s = c.star
    lhs = c.wplus.norm2 - c.S**2 / 6.0
    rhs = c.S * c.nj.norm2 + c.nj.norm2**2 + 8.0 * s.ric_star_minus2 + s.rt2
    return _scalar_res(lhs, rhs, c.wplus.norm2, c.S**2 / 6.0, s.rt2)


def _eq121(c):
    rhs = gl121_delta_wplus(c.bundle, c.frame)
    return _tensor_res(c.dwp, rhs)


def _eq126(c):
    ok, v1, v2 = phi_psi_pairing(c.bundle, c.nj, c.frame)
    if not ok:
        raise ConditionsError("EQ126 evaluated on a non-almost-Kahler point")
    return _scalar_res(v1, v2)


def _eq128(c):
    nj = c.nj
    r1 = nj.reconstruction_residual
    r2 = float(np.abs(nj.eta - c.acs.J @ nj.xi).max())
    scale = max(np.abs(nj.nabla_j).max(), np.abs(nj.xi).max(), np.abs(nj.eta).max(), 1.0)
    return _res(r1, 0.0, max(r1, r2), scale)


def _eq131(c):  # |W+|^2 >= (3/8)(S* - S/3)^2, signed
    lhs = c.wplus.norm2
    rhs = 6.0 * c.star.lam**2
    return _res(lhs, rhs, max(rhs - lhs, 0.0), max(lhs, rhs, RESIDUAL_FLOOR))


def _eq133(c):  # 2|nabla W+|^2 + lap |W+|^2 = 18 det - S |W+|^2
    lap = laplacian_scalar(c.w2jet, c.bundle)
    lhs = 2.0 * c.nabla_wplus_norm2() + lap
    rhs = 18.0 * c.wplus.det - c.S * c.wplus.norm2
    return _scalar_res(lhs, rhs, lap, 18 * c.wplus.det, c.S * c.wplus.norm2)


def build_registry() -> dict:
    records = [
        IdentityRecord("EQ01", "gl-neu1", "|W+|^2 = S^2/6", "almost-kahler", 2, _eq01_82),
        IdentityRecord("EQ02", "gl-neu2", "det(W+)^2 = |W+|^6/54", "almost-kahler", 2, _eq02_80),
        IdentityRecord("EQ03", "gl-neu3", "|nabla W+|^2 = |nabla S|^2/6", "kahler", 3, _eq03_87),
        IdentityRecord("EQ04", "gl-neu4", "|nabla W+| = |nabla |W+||", "kahler", 3, _eq04_88, needs_w_support=True),
        IdentityRecord("EQ05", "gl-neu5", "delta W+ + grad log|W+| .| W+ = 0", "kahler", 3, _eq05, needs_w_support=True),
        IdentityRecord("EQ06", "gl-neu6", "|W+|^2 = (3/8)(S* - S/3)^2", "almost-kahler", 2, _eq06_77),
        IdentityRecord("EQ42", "gl-42", "Ric_tri + Ric_box + Ric* = Ric", "all", 2, _eq42),
        IdentityRecord("EQ46", "gl-46", "S_tri + S_box + S* = S", "all", 2, _eq46),
        IdentityRecord("EQ48", "gl-48", "W(J) = (S* - S/3)J/2 + 2 Ric*- J", "all", 2, _eq48),
        IdentityRecord("EQ54", "gl-54", "|W+|^2 from scalars and skew parts", "all", 2, _eq54),
        IdentityRecord("EQ63", "gl-63", "skew-part norm balance", "all", 2, _eq63),
        IdentityRecord("EQ65", "gl-65", "|Rt|^2 from scalars and skew parts", "all", 2, _eq65),
        IdentityRecord("EQ69", "gl-69", "|Rt-|^2 from scalars and skew parts", "all", 2, _eq69),
        IdentityRecord("EQ70", "gl-70", "|Rt|^2 = |Rt+|^2 + |Rt-|^2", "all", 2, _eq70),
        IdentityRecord("EQ71", "gl-71", "|Rt+|^2 = (S* - S)^2/8", "all", 2, _eq71),
        IdentityRecord("EQ72", "gl-72", "|W+|^2 = 3/8 (S*-S/3)^2 + 8|Ric*-|^2 + |Rt-|^2", "all", 2, _eq72),
        IdentityRecord("EQ73", "gl-73", "|W+|^2 = 6 lambda^2 + |G|^2", "all", 2, _eq73),
        IdentityRecord("EQ75", "gl-75", "<W+,P1> = 2 lambda = -<W+,P2>", "all", 2, _eq75),
        IdentityRecord("EQ77", "gl-77", "|W+|^2 = 6 lambda^2", "kahler", 2, _eq06_77),
        IdentityRecord("EQ80", "gl-80", "det(W+)^2 = |W+|^6/54", "requires-gl77", 2, _eq02_80),
        IdentityRecord("EQ82", "gl-82", "|W+|^2 = S^2/6", "kahler", 2, _eq01_82),
        IdentityRecord("EQ83", "gl-83", "det(W+) = S^3/108", "kahler", 2, _eq83),
        IdentityRecord("EQ84", "gl-84", "spec(W+) = (S/3, -S/6, -S/6)", "kahler", 2, _eq84),
        IdentityRecord("EQ85", "gl-85", "W+ = (S/6) diag(2,-1,-1)", "kahler", 2, _eq85),
        IdentityRecord("EQ86", "gl-86", "nabla W+ = dS/6 (x) (2P1 - P2)", "kahler", 3, _eq86),
        IdentityRecord("EQ87", "gl-87", "|nabla W+|^2 = |nabla S|^2/6", "kahler", 3, _eq03_87),
        IdentityRecord("EQ88", "gl-88", "|nabla W+|^2 = |nabla |W+||^2", "kahler", 3, _eq04_88, needs_w_support=True),
        IdentityRecord("EQ104", "gl-104", "delta W+ via lambda, delta Omega, nabla J", "requires-gl77", 3, _eq104),
        IdentityRecord("EQ112", "gl-112", "delta W+ + interior term via lambda", "requires-gl77", 3, _eq112, needs_w_support=True),
        IdentityRecord("EQ114", "gl-114", "delta W+ + grad log|S| .| W+ = 0", "kahler", 3, _eq114, needs_s_support=True),
        IdentityRecord("EQ116", "gl-116", "|W+|^2 - S^2/6 = S|nJ|^2 + |nJ|^4 + 8|Ric*-|^2 + |Rt|^2", "almost-kahler", 2, _eq116),
        IdentityRecord("EQ121", "gl-121", "delta W+ from nabla Ric and dS", "all", 3, _eq121),
        IdentityRecord("EQ126", "gl-126/gl-130", "<phi,psi> two evaluations agree", "almost-kahler", 3, _eq126),
        IdentityRecord("EQ128", "gl-128/gl-129", "nabla J = g(xi,.)I + g(eta,.)K; eta = J xi", "almost-kahler", 2, _eq128),
        IdentityRecord("EQ131", "gl-131", "|W+|^2 >= (3/8)(S* - S/3)^2", "all", 2, _eq131, signed=True),
        IdentityRecord("EQ133", "gl-133", "2|nabla W+|^2 + lap|W+|^2 = 18 det(W+) - S|W+|^2", "requires-deltawplus0", 4, _eq133),
        IdentityRecord("EQ117", "gl-117/gl-118", "compact Weitzenboeck integrals", "compact-integral", 4, None),
    ]
    return {r.id: r for r in records}


REGISTRY = build_registry()


def applicable(record: IdentityRecord, ctx: PointContext) -> bool:
    if ctx.acs is None or record.evaluator is None:
        return False
    if record.applicability == "compact-integral":
        return False
    if ctx.order < record.min_order:
        raise ConditionsError(
            f"{record.id} needs metric jet order {record.min_order}, context has {ctx.order}"
        )
    nj = ctx.nj
    scale = max(1.0, np.abs(nj.nabla_j).max())
    if record.applicability == "kahler" and nj.nabla_j_norm > GATE * scale:
        return False
    if record.applicability == "almost-kahler" and nj.d_omega_norm > GATE * scale:
        return False
    if record.applicability == "requires-gl77":
        s77 = max(ctx.wplus.norm2, 6.0 * ctx.star.lam**2, 1.0)
        if abs(ctx.wplus.norm2 - 6.0 * ctx.star.lam**2) > GATE * s77:
            return False
    if record.applicability == "requires-deltawplus0":
        sdw = max(1.0, float(np.abs(ctx.bundle.require("nabla_weyl")).max()))
        if float(np.abs(ctx.dwp).max()) > GATE * sdw:
            return False
    if record.needs_w_support:
        wscale = max(1.0, abs(ctx.S))
        if np.sqrt(max(ctx.wplus.norm2, 0.0)) <= GATE * wscale:
            return False
    if record.needs_s_support and abs(ctx.S) <= GATE:
        return False
    return True


def _residual(record: IdentityRecord, ctx: PointContext) -> Optional[tuple]:
    """(lhs, rhs, abs, scale, rel, signed margin) of one record at one
    context, or None where the record does not apply.  The evaluator's scale
    is widened by the point's curvature scale; the margin is None unless the
    record is an inequality."""
    if not applicable(record, ctx):
        return None
    lhs, rhs, abs_res, scale = record.evaluator(ctx)
    scale = max(scale, ctx.curvature_scale)
    denom = max(scale, RESIDUAL_FLOOR)
    margin = (lhs - rhs) / denom if record.signed else None
    return lhs, rhs, abs_res, scale, abs_res / denom, margin


def evaluate_identity(
    record_id: str,
    spec: ManifoldSpec,
    point: Sequence[float],
    ctx: Optional[PointContext] = None,
) -> IdentityResidual:
    """Evaluate one registry identity at one point."""
    if record_id not in REGISTRY:
        raise ConditionsError(f"unknown identity '{record_id}'")
    record = REGISTRY[record_id]
    if record.evaluator is None:
        raise ConditionsError(f"{record_id} is an integral identity; use check_integral_formulas")
    if ctx is None:
        ctx = point_context(spec, point, record.min_order)
    res = _residual(record, ctx)
    if res is None:
        return IdentityResidual(record.id, tuple(np.asarray(point, float)), 0.0, 0.0, 0.0, 0.0, False, 0.0)
    lhs, rhs, abs_res, scale, rel, margin = res
    return IdentityResidual(
        record.id, tuple(np.asarray(point, float)), lhs, rhs, abs_res, rel, True, scale, margin
    )


# ---------------------------------------------------------------------------
# Suites and reports
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport:
    manifold: str
    points: int
    seed: int
    order: int
    tol_pass: float
    tol_fail: float
    rotations: int
    identities: list           # per-identity aggregate dicts
    classification: Optional[str]
    tags: dict                 # claimed tag -> {"residual": r, "confirmed": bool}
    conventions: dict = field(default_factory=lambda: dict(CONVENTIONS))

    @property
    def passed(self) -> bool:
        ok = all(row["verdict"].startswith("pass") or row["verdict"] == "not applicable"
                 for row in self.identities)
        tags_ok = all(v["confirmed"] for v in self.tags.values())
        return ok and tags_ok

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "manifold": self.manifold,
            "points": self.points,
            "seed": self.seed,
            "jet_order": self.order,
            "rotations": self.rotations,
            "tolerances": {"pass": self.tol_pass, "fail": self.tol_fail},
            "conventions": self.conventions,
            "identities": self.identities,
            "classification": self.classification,
            "tags": self.tags,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["manifold", "id", "anchor", "applicability", "applicable_points",
             "max_rel_residual", "mean_rel_residual", "verdict"]
        )
        for row in self.identities:
            writer.writerow(
                [self.manifold, row["id"], row["anchor"], row["applicability"],
                 row["applicable_points"], row["max_rel_residual"],
                 row["mean_rel_residual"], row["verdict"]]
            )
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"manifold: {self.manifold}  (points={self.points}, seed={self.seed}, order={self.order})"]
        if self.classification:
            lines.append(f"classification: {self.classification}")
        for tag, info in sorted(self.tags.items()):
            state = "ok" if info["confirmed"] else "FAILED"
            lines.append(f"tag {tag}: {state} (residual {info['residual']:.3e})")
        for row in self.identities:
            lines.append(
                f"{row['id']:6s} [{row['anchor']}] applicable={row['applicable_points']:3d} "
                f"max_rel={row['max_rel_residual']:.3e} {row['verdict']}"
            )
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines) + "\n"


def _verdict(record: IdentityRecord, rels: list, margins: list, tol_pass: float, tol_fail: float,
             tags: frozenset) -> str:
    if not rels:
        return "not applicable"
    if not (np.isfinite(rels).all() and np.isfinite(margins).all()):
        return "non-finite"
    if record.signed:
        worst = min(margins)
        if worst >= -tol_pass:
            return "pass"
        if worst <= -tol_fail:
            return "violated"
        return "indeterminate"
    worst = max(rels)
    if worst <= tol_pass:
        return "pass"
    if worst >= tol_fail:
        if "almost-kahler" in tags and record.id in ("EQ01", "EQ02", "EQ06"):
            return "violated (expected: strictly almost Kahler)"
        return "violated"
    return "indeterminate"


def run_suite(
    spec: ManifoldSpec,
    n_points: int,
    seed: int = 0,
    tol_pass: float = TOL_PASS,
    tol_fail: float = TOL_FAIL,
    identities: Optional[Sequence[str]] = None,
    rotations: int = 0,
) -> ConditionReport:
    """Sample points, evaluate all (or selected) applicable identities, aggregate."""
    if n_points < 1:
        raise ConditionsError("n_points must be >= 1")
    ids = list(identities) if identities else [r for r in REGISTRY if REGISTRY[r].evaluator]
    for rid in ids:
        if rid not in REGISTRY:
            raise ConditionsError(f"unknown identity '{rid}'")
    records = [REGISTRY[r] for r in ids if REGISTRY[r].evaluator is not None]
    order = max((r.min_order for r in records), default=2)
    if "constant-s" in spec.tags:
        order = max(order, 3)  # the tag check needs dS

    rng = np.random.default_rng(seed)
    pts = spec.sample_points(n_points, rng)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(n_points, rotations)) if rotations else None

    stats = {r.id: {"rels": [], "margins": [], "applicable": 0} for r in records}
    tag_state = _TagAccumulator(spec)
    classify_acc = _ClassifyAccumulator()

    for k, pt in enumerate(pts):
        base = point_context(spec, pt, order)
        ctxs = [base]
        if rotations:
            ctxs += [rotated_context(base, a) for a in angles[k]]
        if base.acs is not None:
            classify_acc.add(base)
        tag_state.add(base)
        for ctx in ctxs:
            for record in records:
                res = _residual(record, ctx)
                if res is None:
                    continue
                st = stats[record.id]
                st["applicable"] += 1
                st["rels"].append(res[4])
                if record.signed:
                    st["margins"].append(res[5])

    rows = []
    for record in records:
        st = stats[record.id]
        rels, margins = st["rels"], st["margins"]
        # aggregates cover the finite values; the non-finite ones are counted
        finite_rels = [r for r in rels if np.isfinite(r)]
        finite_margins = [m for m in margins if np.isfinite(m)]
        row = {
            "id": record.id,
            "anchor": record.anchor,
            "description": record.description,
            "applicability": record.applicability,
            "applicable_points": st["applicable"],
            "max_rel_residual": max(finite_rels, default=0.0),
            "mean_rel_residual": float(np.mean(finite_rels)) if finite_rels else 0.0,
            "verdict": _verdict(record, rels, margins, tol_pass, tol_fail, spec.tags),
        }
        if finite_margins:
            row["min_signed_margin"] = min(finite_margins)
        non_finite = max(len(rels) - len(finite_rels), len(margins) - len(finite_margins))
        if non_finite:
            row["non_finite_points"] = non_finite
        rows.append(row)

    return ConditionReport(
        manifold=spec.id,
        points=n_points,
        seed=seed,
        order=order,
        tol_pass=tol_pass,
        tol_fail=tol_fail,
        rotations=rotations,
        identities=rows,
        classification=classify_acc.verdict(tol_pass, tol_fail) if spec.has_j else None,
        tags=tag_state.result(tol_pass),
    )


# ---------------------------------------------------------------------------
# Tag verification and classification
# ---------------------------------------------------------------------------


class _TagAccumulator:
    def __init__(self, spec: ManifoldSpec):
        self.spec = spec
        self.res = {tag: 0.0 for tag in spec.tags}
        self.non_finite = {tag: 0 for tag in spec.tags}

    def add(self, ctx: PointContext) -> None:
        b = ctx.bundle
        for tag in self.res:
            if tag == "flat":
                r = np.abs(b.riem_v).max() / max(1.0, np.abs(ctx.mp.g).max() ** 2)
            elif tag == "einstein":
                r = np.abs(b.ric_v - (b.S_v / 4.0) * np.eye(4)).max() / max(1.0, abs(b.S_v) / 4.0)
            elif tag == "kahler":
                r = ctx.nj.nabla_j_norm if ctx.nj else np.inf
            elif tag == "almost-kahler":
                r = ctx.nj.d_omega_norm if ctx.nj else np.inf
            elif tag == "constant-s":
                r = np.abs(b.dS).max() / max(1.0, abs(b.S_v)) if b.dS is not None else np.inf
            elif tag == "conformally-flat":
                r = np.abs(b.weyl_v).max() / max(1.0, np.abs(b.riem_v).max(), abs(b.S_v))
            else:
                r = 0.0
            if np.isfinite(r):
                self.res[tag] = max(self.res[tag], float(r))
            else:
                self.non_finite[tag] += 1

    def result(self, tol_pass: float) -> dict:
        out = {}
        for tag, r in sorted(self.res.items()):
            out[tag] = {"residual": r, "confirmed": bool(r <= tol_pass and not self.non_finite[tag])}
            if self.non_finite[tag]:
                out[tag]["non_finite_points"] = self.non_finite[tag]
        return out


class _ClassifyAccumulator:
    def __init__(self):
        self.r = np.zeros(3)  # largest nabla J, d Omega and N_J residuals so far
        self.non_finite = False

    def add(self, ctx: PointContext) -> None:
        nj = ctx.nj
        r = np.array([nj.nabla_j_norm, nj.d_omega_norm, nj.nijenhuis_norm]) / max(1.0, nj.nabla_j_norm)
        if np.isfinite(r).all():
            self.r = np.maximum(self.r, r)
        else:
            self.non_finite = True

    def residuals(self) -> dict:
        return dict(zip(("nabla_j", "d_omega", "nijenhuis"), map(float, self.r)))

    def verdict(self, tol_pass: float, tol_fail: float) -> str:
        def state(r):
            if r <= tol_pass:
                return "zero"
            if r >= tol_fail:
                return "nonzero"
            return "indeterminate"

        if self.non_finite:
            return "indeterminate"
        s_nj, s_dom, s_nij = map(state, self.r)
        if s_nj == "zero":
            return "Kähler"
        if "indeterminate" in (s_nj, s_dom):
            return "indeterminate"
        if s_dom == "zero":
            return "almost-Kähler non-Kähler"
        if s_nij == "zero":
            return "Hermitian non-Kähler"
        if s_nij == "nonzero":
            return "generic almost-Hermitian"
        return "indeterminate"


def classify_structure(spec: ManifoldSpec, n_points: int, seed: int = 0,
                       tol_pass: float = TOL_PASS, tol_fail: float = TOL_FAIL):
    """Structure verdict from residual gates on nabla J, d Omega and N_J."""
    if not spec.has_j:
        raise ConditionsError(f"manifold '{spec.id}' has no almost complex structure")
    rng = np.random.default_rng(seed)
    acc = _ClassifyAccumulator()
    for pt in spec.sample_points(n_points, rng):
        acc.add(point_context(spec, pt, 2))
    return acc.verdict(tol_pass, tol_fail), acc.residuals()


# ---------------------------------------------------------------------------
# Quadrature and integral formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureSpec:
    n: int = 16
    n_refine: int = 24
    constancy_samples: int = 20
    constancy_tol: float = 1e-8
    allow_constancy: bool = True
    seed: int = 0


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error: float
    used_constancy_shortcut: bool
    volume: float


def _gauss_grid(spec: ManifoldSpec, n: int) -> tuple:
    """Tensor Gauss-Legendre nodes of the domain, shape (n**4, 4), first
    coordinate slowest, and their weights times the volume density."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    axes, waxes = [], []
    for lo, hi in spec.domain:
        axes.append(0.5 * (hi - lo) * nodes + 0.5 * (hi + lo))
        waxes.append(0.5 * (hi - lo) * weights)
    points = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    with np.errstate(all="ignore"):  # a bad density is reported below, by node
        dens = spec.volume_density(points.T)
    bad = np.flatnonzero(~(np.isfinite(dens) & (dens > 0.0)))
    if bad.size:
        raise QuadratureError(
            f"volume density of '{spec.id}' is {float(dens[bad[0]])!r} at node {points[bad[0]].tolist()}"
        )
    return points, np.einsum("i,j,k,l->ijkl", *waxes).ravel() * dens


def _node_values(spec: ManifoldSpec, density, points: np.ndarray) -> np.ndarray:
    """density at each point, the point axis last."""
    vals = np.stack([np.asarray(density(p), dtype=float) for p in points], axis=-1)
    bad = np.flatnonzero(~np.isfinite(vals).reshape(-1, len(points)).all(axis=0))
    if bad.size:
        raise QuadratureError(f"density on '{spec.id}' is not finite at point {points[bad[0]].tolist()}")
    return vals


def integrate_density(
    spec: ManifoldSpec,
    density: Callable[[np.ndarray], object],
    quad: QuadratureSpec = QuadratureSpec(),
) -> IntegralResult:
    """Gauss-Legendre integral of density * volume form over the fundamental domain.

    ``density`` returns a scalar or an array; every component is integrated
    in one pass over the nodes, and value and error have its shape.  The
    constancy shortcut (value * volume) is taken only after an explicit
    constancy check at ``constancy_samples`` random points, and only when
    every component passes it.
    """
    if not spec.compact:
        raise ConditionsError(f"manifold '{spec.id}' is not compact; cannot integrate")
    levels = sorted({max(2, quad.n // 2), quad.n, quad.n_refine})
    grids = {n: _gauss_grid(spec, n) for n in levels}
    vol_fine = grids[quad.n_refine][1].sum()

    if quad.allow_constancy:
        rng = np.random.default_rng(quad.seed)
        vals = _node_values(spec, density, spec.sample_points(quad.constancy_samples, rng, margin=0.0))
        spread = vals.max(axis=-1) - vals.min(axis=-1)
        if np.all(spread <= quad.constancy_tol * np.maximum(np.abs(vals).max(axis=-1), 1.0)):
            mean = vals.mean(axis=-1)
            vol_err = abs(vol_fine - grids[quad.n][1].sum())
            return IntegralResult(mean * vol_fine, spread * vol_fine + abs(mean) * vol_err, True, vol_fine)

    results = [_node_values(spec, density, grids[n][0]) @ grids[n][1] for n in levels]
    errors = [abs(b - a) for a, b in zip(results, results[1:])]
    if len(errors) >= 2 and np.any(
        (errors[-1] > errors[0]) & (errors[-1] > 1e-12 * np.maximum(abs(results[-1]), 1.0))
    ):
        raise QuadratureError(f"quadrature refinement not converging on '{spec.id}': errors {errors}")
    return IntegralResult(results[-1], errors[-1] if errors else 0.0 * results[-1], False, vol_fine)


INTEGRAND_KEYS = ("q_j", "rt2", "ric_star_minus2", "nabla_j2", "nabla_j4", "s", "wplus2", "s2")


def evaluate_integrand(spec: ManifoldSpec, point: np.ndarray) -> dict:
    """All scalars entering the compact integral formulas, at one point."""
    ctx = point_context(spec, point, 4)
    if ctx.acs is None:
        raise ConditionsError("integral formulas need an almost complex structure")
    return {
        "q_j": q_j_integrand(ctx.bundle, ctx.acs),
        "rt2": ctx.star.rt2,
        "ric_star_minus2": ctx.star.ric_star_minus2,
        "nabla_j2": ctx.nj.norm2,
        "nabla_j4": ctx.nj.norm2**2,
        "s": ctx.S,
        "wplus2": ctx.wplus.norm2,
        "s2": ctx.S**2,
    }


def check_integral_formulas(spec: ManifoldSpec, quad: QuadratureSpec = QuadratureSpec()) -> dict:
    """Both compact Weitzenboeck integrals and their difference (the
    integrated pointwise identity).  Requires a compact almost Kahler entry.

    One pipeline evaluation per quadrature/constancy point feeds all the
    integrand scalars.
    """
    if not spec.compact:
        raise ConditionsError(f"manifold '{spec.id}' is not compact")

    def densities(p) -> list:
        d = evaluate_integrand(spec, p)
        return [d[k] for k in INTEGRAND_KEYS] + [d["s"] * d["nabla_j2"]]

    keys = INTEGRAND_KEYS + ("s_nabla_j2",)
    result = integrate_density(spec, densities, quad)
    ints = dict(zip(keys, map(float, result.value)))
    errors = dict(zip(keys, map(float, result.error)))
    Q = ints["q_j"]
    i117 = Q + (ints["rt2"] + 4.0 * ints["ric_star_minus2"] + 0.5 * ints["s_nabla_j2"] + ints["nabla_j4"])
    i118 = Q + 0.5 * (ints["rt2"] + ints["nabla_j4"] + ints["wplus2"] - ints["s2"] / 6.0)
    return {
        "manifold": spec.id,
        "volume": float(result.volume),
        "Q": Q,
        "i117": i117,
        "i118": i118,
        "eq116_integrated": i118 - i117,
        "error_estimate": sum(errors.values()),
        "errors": errors,
        "used_constancy_shortcut": result.used_constancy_shortcut,
    }
