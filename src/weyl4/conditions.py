"""Identity registry, residual suites, classification and integral checks.

Each numbered relation from the source material is an :class:`IdentityRecord`:
an evaluator, a numeric applicability gate (Kahler / almost-Kahler /
two-eigenvalue / divergence-free, support on |W+| or S) and the minimum
metric jet order it needs.  ``point_context`` is the jet stage: it runs
the metric, curvature and J jets once per chunk of a stack of points and
returns the stack's frame-free columns; ``stack_rows`` turns the columns
into one :class:`Rows` and runs the frame stage (J-frames, star-Ricci
family, nabla J, W+) once on the stack.  Each gate is then one mask over
the rows, and each evaluator is called once per run on the rows its gate
admits: stacked rows in, arrays of (lhs, rhs, abs residual, scale) out.
``evaluate_identity`` is the same step on a stack of one row.

Relative residuals are ``abs / max(scale, 1e-14)`` where the scale is the
largest absolute term on either side, so identities mixing quantities of
different magnitude stay comparable.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from . import Weyl4Error, __version__
from .catalog import ManifoldSpec
from .curvature import InsufficientJetOrder, bivector, curvature_bundle, laplacian_scalar, pair_operator
from .exprjet import AXES, NCOORDS, jembed, jpartials
from .hermitian import (
    AcsPoint,
    NablaJData,
    ProjectionData,
    StarCurvature,
    gl121_delta_wplus,
    lambda_jet,
    nabla_j_data,
    phi_psi_pairing,
    projections_p1p2,
    q_j_integrand,
    star_ricci_family,
    supplement_terms,
)
from .pointgeom import build_j_frame, rotate_supplement
from .selfdual import (
    WplusMatrix,
    delta_wpm,
    lambda2_split,
    nabla_w_sd_matrices,
    wplus_interior,
    wplus_matrix,
    wplus_norm2_jet,
)

RESIDUAL_FLOOR = 1e-14
GATE = 1e-8  # applicability gates (scale-relative)
CONSTANCY_TOL = 1e-8  # the quadrature's constancy shortcut: spread of the sampled values (scale-relative)

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
# The jet stage, the stacked rows and the frame stage
# ---------------------------------------------------------------------------


FRAME_SEED = np.eye(4)[0]  # every J-frame starts from the first chart basis vector


JET_BYTES = 2**21  # memory the transient jets of one chunk of the jet stage may take


# a point's share of the transient jets of an 8-point chunk, by (order, variables): tracemalloc's peak
# over 8, the most among the configs tests/test_jet_stage.py runs (in three variables, the round
# metric's factor without t); that test holds a chunk to JET_BYTES
POINT_BYTES = {
    (2, 0): 18_000, (2, 1): 18_000, (2, 2): 18_000, (2, 3): 19_000, (2, 4): 24_000,
    (3, 0): 36_000, (3, 1): 43_000, (3, 2): 51_000, (3, 3): 66_000, (3, 4): 90_000,
    (4, 0): 40_000, (4, 1): 52_000, (4, 2): 98_000, (4, 3): 172_000, (4, 4): 276_000,
}


def _chunk_points(order: int, nvars: int = NCOORDS) -> int:
    """Points per chunk of the jet stage at most, for jets in ``nvars`` variables."""
    return max(1, JET_BYTES // POINT_BYTES[order, nvars])


def point_context(spec: ManifoldSpec, points, order: int) -> dict:
    """The jet stage at a point or a stack of points, shape (..., 4): the frame-free
    columns of ``stack_rows`` with the leading axes of ``points``, read off the metric,
    curvature, J, |W+|^2 and lambda jets.  The jets are in the coordinates the chart
    reads, ``spec.read_axes()``; every column has all four.  It runs in as few equal chunks
    as the byte budget ``JET_BYTES`` allows, each copying out the values it reads, so no
    jet outlives its chunk; R and W leave the chunks as 6x6 pair matrices."""
    points = np.asarray(points, dtype=float)
    flat = points.reshape(-1, 4)
    size = _chunk_points(order, len(spec.read_axes()))
    chunks = [{k: v.copy() for k, v in _jet_columns(spec, chunk, order).items()}
              for chunk in np.array_split(flat, -(-len(flat) // size))]
    cols = {k: np.concatenate([c[k] for c in chunks]) for k in chunks[0]}
    return {k: v.reshape(points.shape[:-1] + v.shape[1:]) for k, v in cols.items()}


def _jet_columns(spec: ManifoldSpec, points: np.ndarray, order: int) -> dict:
    """The columns of ``point_context`` on a chunk of points (n, 4), as views of its jets."""
    axes = spec.read_axes()
    mp = spec.metric_point(points, order, axes)
    b = curvature_bundle(mp)
    cols = dict(point=points, S_v=b.S_v, riem_v=b.riem_v, ric_v=b.ric_v, weyl_v=b.weyl_v, g=mp.g, g_inv=mp.g_inv)
    if order >= 3:
        cols.update(dS=b.dS, nabla_ric=b.nabla_ric)
    if not spec.has_j:
        return cols
    j_jets = spec.j_jets(points, 2, axes)
    # built at order 2 too, where no column reads it: perfbench/tracer.py requires every
    # workload to reach it (ROADMAP item 1)
    w2jet = wplus_norm2_jet(b, j_jets)
    cols.update(j_jets=jembed(j_jets, 2, axes), gamma_v=b.gamma_v, dg_v=b.dg_v)
    if order >= 3:
        cols.update(nabla_weyl=b.nabla_weyl, w2_grad=jpartials(w2jet, 1, axes),
                    lam_grad=jpartials(lambda_jet(b, j_jets), 1, axes))
    if order >= 4:
        cols.update(w2_lap=laplacian_scalar(w2jet, b.gamma_v, mp), nabla2_ric=b.nabla2_ric)
    return cols


@dataclass(frozen=True)
class Rows:
    """Order-0 quantities at many points of one jet order; axis 0 has one
    row per point, or per rotation of its supplement.  ``point_context``
    gives the columns up to ``nabla2_ric``, ``stack_rows`` the rest.  The
    frame stage reads ``j_jets``, ``gamma_v`` and ``dg_v`` and drops them,
    and reads ``nabla_weyl`` and keeps only its per-row maximum, so the
    rows ``stack_rows`` returns hold none of these four.  The rows serve the
    frame functions as metric and curvature bundle.
    ``dS`` and ``nabla_ric`` need jet order 3; the fields from ``j_jets`` on
    need J, and ``nabla_weyl`` to ``lam_grad`` order 3 as well (``w2_lap``
    and ``nabla2_ric`` order 4)."""

    point: np.ndarray
    S_v: np.ndarray
    riem_v: np.ndarray                # (6, 6) pair matrix of R_{ijkl}
    ric_v: np.ndarray                 # Ricci endomorphism
    weyl_v: np.ndarray                # (6, 6) pair matrix of W_{ijkl}
    g: np.ndarray
    g_inv: np.ndarray
    curvature_scale: np.ndarray
    dS: Optional[np.ndarray] = None
    nabla_ric: Optional[np.ndarray] = None
    j_jets: Optional[np.ndarray] = None
    gamma_v: Optional[np.ndarray] = None
    dg_v: Optional[np.ndarray] = None  # metric first partials [m, i, j]
    nabla_weyl: Optional[np.ndarray] = None  # (4, 6, 6): nabla_m W on pairs
    nabla_weyl_max: Optional[np.ndarray] = None  # max |nabla W|
    w2_grad: Optional[np.ndarray] = None
    lam_grad: Optional[np.ndarray] = None
    w2_lap: Optional[np.ndarray] = None
    nabla2_ric: Optional[np.ndarray] = None
    J: Optional[np.ndarray] = None
    I: Optional[np.ndarray] = None
    K: Optional[np.ndarray] = None
    star: Optional[StarCurvature] = None
    nj: Optional[NablaJData] = None
    wplus: Optional[WplusMatrix] = None
    proj: Optional[ProjectionData] = None
    dwp: Optional[np.ndarray] = None
    nabla_sd: Optional[np.ndarray] = None
    axes: ClassVar[tuple] = AXES  # the variables of j_jets, in all four

    @property
    def mp(self) -> "Rows":
        return self

    def require(self, field: str):
        """A curvature field the frame functions read, as ``CurvatureBundle.require`` gives it."""
        if getattr(self, field) is None:
            raise InsufficientJetOrder(f"{field} needs a higher metric jet order than these rows have")
        return getattr(self, field)


def _leafwise(fn, x):
    """``fn`` of every array of ``x``: dataclasses recurse field by field, anything else stays."""
    if is_dataclass(x):
        return type(x)(**{f.name: _leafwise(fn, getattr(x, f.name)) for f in fields(x)})
    return fn(x) if isinstance(x, np.ndarray) else x


def stack_rows(cols: dict, angles: Optional[np.ndarray] = None) -> Rows:
    """The columns of ``point_context`` as one stack of rows, one per point
    (a single point is a stack of one), each row's curvature scale, and the
    frame stage run once on them.  ``angles`` (one row of rotation angles
    per point) puts after each point's row one more row per angle, the
    supplement rotated by it; the frame-free fields, the curvature scale,
    delta W+ and the nabla J data that do not read the supplement included,
    are repeated onto those rows."""
    lead = np.ndim(cols["point"]) - 1
    cols = {k: np.reshape(v, (-1,) + np.shape(v)[lead:]) for k, v in cols.items()}
    # residual scales never drop below max(1, max |Riem|, |S|), so identities that cancel only
    # to rounding (flat or Einstein points) normalize against the quantities they cancel;
    # like Python's max, fmax passes over a NaN term
    scale = np.fmax(np.fmax(1.0, _amax(cols["riem_v"])), np.abs(cols["S_v"]))
    rows = Rows(**cols, curvature_scale=scale)
    if rows.j_jets is None:
        return rows
    acs = AcsPoint.from_jets(rows.j_jets, rows)
    frame = build_j_frame(rows, acs, FRAME_SEED)
    sd = lambda2_split(frame)
    nj = nabla_j_data(acs, rows, frame)
    dwp = None if rows.nabla_weyl is None else delta_wpm(rows, sd)
    if angles is not None:
        take = np.repeat(np.arange(len(rows.S_v)), 1 + angles.shape[1])
        rows, acs, frame, nj = (_leafwise(lambda v: v[take], x) for x in (rows, acs, frame, nj))
        frame = rotate_supplement(frame, np.column_stack([np.zeros(len(angles)), angles]).ravel())
        sd = lambda2_split(frame)
        nj = replace(nj, **supplement_terms(nj.nabla_j, frame, rows))
        dwp = None if dwp is None else dwp[take]
    star = star_ricci_family(rows, acs, frame)
    wplus = wplus_matrix(rows, sd)
    rows = replace(
        rows, J=acs.J, I=frame.I, K=frame.K, star=star, nj=nj, wplus=wplus, proj=projections_p1p2(star, wplus.m),
        dwp=dwp, j_jets=None, gamma_v=None, dg_v=None,
    )
    if dwp is None:
        return rows
    return replace(
        rows, nabla_sd=nabla_w_sd_matrices(rows, sd), nabla_weyl=None, nabla_weyl_max=_amax(rows.nabla_weyl),
    )


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
    # rows where the record applies -> (lhs, rhs, abs residual, scale), each of shape (rows,)
    evaluator: Optional[Callable[[Rows], tuple]] = None
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


def _amax(x: np.ndarray) -> np.ndarray:
    """max |x| over every axis but the leading row axis."""
    return np.abs(x).reshape(len(x), -1).max(axis=1)


def _tensor_res(lhs: np.ndarray, rhs: np.ndarray, *scale_terms):
    terms = [_amax(t) for t in (lhs, rhs, *scale_terms)]
    return terms[0], terms[1], _amax(lhs - rhs), np.max(terms, axis=0)


def _scalar_res(lhs: np.ndarray, rhs: np.ndarray, *extra_terms):
    terms = [np.abs(t) for t in (lhs, rhs, *extra_terms)]
    return lhs, rhs, np.abs(lhs - rhs), np.max(terms, axis=0)


def _outer(v: np.ndarray, A: np.ndarray) -> np.ndarray:
    """[row, i, a, b] = v[row, i] A[row, a, b]."""
    return np.einsum("ri,rab->riab", v, A)


# Evaluators take the rows where their record applies.  A relation stated at
# two anchors (EQ01/82, EQ02/80, EQ03/87, EQ04/88, EQ06/77) has one
# evaluator; each record keeps its own id, anchor and gate.


def _eq01_82(r):  # |W+|^2 = S^2/6
    return _scalar_res(r.wplus.norm2, r.S_v**2 / 6.0)


def _eq02_80(r):  # det^2 = |W+|^6/54
    return _scalar_res(r.wplus.det**2, r.wplus.norm2**3 / 54.0)


def _nabla_wplus_norm2(r):
    return np.einsum("rpq,rpab,rqba->r", r.g_inv, r.nabla_sd, r.nabla_sd)


def _grad_norm2(r, dv):
    return np.einsum("ri,rij,rj->r", dv, r.g_inv, dv)


def _eq03_87(r):  # |nabla W+|^2 = |nabla S|^2/6
    return _scalar_res(_nabla_wplus_norm2(r), _grad_norm2(r, r.dS) / 6.0)


def _eq04_88(r):  # |nabla W+|^2 = |nabla |W+||^2
    return _scalar_res(_nabla_wplus_norm2(r), _grad_norm2(r, r.w2_grad) / (4.0 * r.wplus.norm2))


def _wplus_interior(r, u):
    """u .| W+ as [row, 4, 4, 4], from the W+ matrix in the rows' basis (J, I, K)."""
    return wplus_interior(u, r.wplus.m, np.stack([r.J, r.I, r.K], axis=1), r)


def _dwp_plus_interior(r, u):  # delta W+ + u .| W+ = 0
    ip = _wplus_interior(r, u)
    return _tensor_res(r.dwp + ip, np.zeros_like(ip), r.dwp, ip)


def _grad_log_abs_w(r):
    return np.einsum("rij,rj->ri", r.g_inv, r.w2_grad) / (2.0 * r.wplus.norm2)[:, None]


def _eq05(r):  # delta W+ + grad log|W+| .| W+ = 0
    return _dwp_plus_interior(r, _grad_log_abs_w(r))


def _eq06_77(r):  # |W+|^2 = (3/8)(S* - S/3)^2 = 6 lambda^2
    return _scalar_res(r.wplus.norm2, 6.0 * r.star.lam**2)


def _eq42(r):
    s = r.star
    return _tensor_res(s.ric_tri + s.ric_box + s.ric_star, r.ric_v, s.ric_tri, s.ric_box, s.ric_star)


def _eq46(r):
    s = r.star
    return _scalar_res(s.s_tri + s.s_box + s.s_star, r.S_v, s.s_tri, s.s_box, s.s_star)


def _eq48(r):  # W(J) = (S* - S/3) J / 2 + 2 Ric*- J
    lhs = pair_operator(bivector(r.J @ r.g_inv)[:, None], r.weyl_v, r.g_inv[:, None])[:, 0]
    rhs = 0.5 * (r.star.s_star - r.S_v / 3.0)[:, None, None] * r.J + 2.0 * r.star.ric_star_minus @ r.J
    return _tensor_res(lhs, rhs)


def _eq54(r):
    s = r.star
    rhs = 0.25 * (s.s_star**2 + s.s_tri**2 + s.s_box**2 - r.S_v**2 / 3.0) + 4.0 * (
        s.ric_star_minus2 + s.ric_tri_minus2 + s.ric_box_minus2
    )
    return _scalar_res(r.wplus.norm2, rhs, s.s_star**2 / 4, s.s_tri**2 / 4, s.s_box**2 / 4, r.S_v**2 / 12)


def _eq63(r):
    s = r.star
    lhs = s.ric_tri_minus2 + s.ric_box_minus2 - s.ric_star_minus2
    return _scalar_res(lhs, 2.0 * s.j_dot_tri_minus**2, s.ric_tri_minus2, s.ric_box_minus2, s.ric_star_minus2)


def _eq65(r):
    s = r.star
    rhs = 0.25 * (s.s_tri**2 + s.s_box**2) + 4.0 * (s.ric_tri_minus2 + s.ric_box_minus2 - s.ric_star_minus2)
    return _scalar_res(s.rt2, rhs, s.s_tri**2 / 4, s.s_box**2 / 4)


def _eq69(r):
    s = r.star
    rhs = 0.125 * (s.s_tri - s.s_box) ** 2 + 4.0 * (s.ric_tri_minus2 + s.ric_box_minus2 - s.ric_star_minus2)
    return _scalar_res(s.rtm2, rhs, s.s_tri**2 / 8, s.s_box**2 / 8)


def _eq70(r):
    s = r.star
    return _scalar_res(s.rt2, s.rtp2 + s.rtm2)


def _eq71(r):
    s = r.star
    return _scalar_res(s.rtp2, 0.125 * (s.s_star - r.S_v) ** 2)


def _eq72(r):
    s = r.star
    rhs = 0.375 * (s.s_star - r.S_v / 3.0) ** 2 + 8.0 * s.ric_star_minus2 + s.rtm2
    return _scalar_res(r.wplus.norm2, rhs, 6 * s.lam**2, s.rtm2)


def _eq73(r):
    return _scalar_res(r.wplus.norm2, 6.0 * r.star.lam**2 + r.proj.g_norm2)


def _eq75(r):
    p = r.proj
    a = np.abs(p.p1_pairing - p.two_lambda)
    b = np.abs(p.p2_pairing + p.two_lambda)
    scale = np.max([np.abs(p.p1_pairing), np.abs(p.p2_pairing), np.abs(p.two_lambda)], axis=0)
    return p.p1_pairing, p.two_lambda, np.maximum(a, b), scale


def _eq83(r):
    return _scalar_res(r.wplus.det, r.S_v**3 / 108.0)


def _eq84(r):
    eig = r.wplus.eigenvalues
    target = np.sort(np.stack([r.S_v / 3.0, -r.S_v / 6.0, -r.S_v / 6.0], axis=1), axis=1)[:, ::-1]
    scale = np.maximum(np.maximum(_amax(target), _amax(eig)), RESIDUAL_FLOOR)
    return eig[:, 0], target[:, 0], _amax(eig - target), scale


def _eq85(r):
    return _tensor_res(r.wplus.m, (r.S_v / 6.0)[:, None, None] * np.diag([2.0, -1.0, -1.0]))


def _eq86(r):  # nabla W+ = dS/6 (x) (2 P1 - P2)
    return _tensor_res(r.nabla_sd, np.einsum("rp,ab->rpab", r.dS / 6.0, np.diag([2.0, -1.0, -1.0])))


def _nabla_jx_j(r):
    """[row, i] = nabla_{J e_i} J for each chart direction e_i."""
    return np.einsum("rmi,rmab->riab", r.J, r.nj.nabla_j)


def _eq104(r):
    lam = r.star.lam[:, None]
    # dlam(A e_i) for A = J, I, K and each chart direction e_i
    d_J, d_I, d_K = (np.einsum("rm,rmi->ri", r.lam_grad, A) for A in (r.J, r.I, r.K))
    rhs = -0.25 * (
        _outer(3.0 * lam * r.nj.delta_omega + 2.0 * d_J, r.J)
        + 3.0 * lam[:, :, None, None] * _nabla_jx_j(r)
        - _outer(d_I, r.I)
        - _outer(d_K, r.K)
    )
    return _tensor_res(r.dwp, rhs)


def _eq112(r):
    ip = _wplus_interior(r, _grad_log_abs_w(r))
    rhs = -0.75 * r.star.lam[:, None, None, None] * (_outer(r.nj.delta_omega, r.J) + _nabla_jx_j(r)) - ip
    return _tensor_res(r.dwp, rhs, ip)


def _eq114(r):  # delta W+ + grad log|S| .| W+ = 0
    return _dwp_plus_interior(r, np.einsum("rij,rj->ri", r.g_inv, r.dS) / r.S_v[:, None])


def _eq116(r):
    s = r.star
    lhs = r.wplus.norm2 - r.S_v**2 / 6.0
    rhs = r.S_v * r.nj.norm2 + r.nj.norm2**2 + 8.0 * s.ric_star_minus2 + s.rt2
    return _scalar_res(lhs, rhs, r.wplus.norm2, r.S_v**2 / 6.0, s.rt2)


def _eq121(r):
    return _tensor_res(r.dwp, gl121_delta_wplus(r.nabla_ric, r.dS, r, r))


def _eq126(r):  # both evaluations hold where d Omega = 0, which the record's gate ensures
    return _scalar_res(*phi_psi_pairing(r.nabla_ric, r.nj, r, r))


def _eq128(r):
    nj = r.nj
    r1 = nj.reconstruction_residual
    r2 = _amax(nj.eta - np.einsum("rab,rb->ra", r.J, nj.xi))
    scale = np.max([_amax(nj.nabla_j), _amax(nj.xi), _amax(nj.eta), np.ones_like(r1)], axis=0)
    return r1, np.zeros_like(r1), np.maximum(r1, r2), scale


def _eq131(r):  # |W+|^2 >= (3/8)(S* - S/3)^2, signed
    lhs = r.wplus.norm2
    rhs = 6.0 * r.star.lam**2
    return lhs, rhs, np.maximum(rhs - lhs, 0.0), np.maximum(np.maximum(lhs, rhs), RESIDUAL_FLOOR)


def _eq133(r):  # 2|nabla W+|^2 + lap |W+|^2 = 18 det - S |W+|^2
    lap, det, norm2 = r.w2_lap, r.wplus.det, r.wplus.norm2
    lhs = 2.0 * _nabla_wplus_norm2(r) + lap
    rhs = 18.0 * det - r.S_v * norm2
    return _scalar_res(lhs, rhs, lap, 18 * det, r.S_v * norm2)


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


def _gate_masks(r: Rows) -> dict:
    """Applicability masks over the rows, one per gate, each computed once.
    A gate excludes a row where a "value > threshold" test holds, so a NaN
    gate value keeps the row applicable and its residual shows in the report."""
    if r.nj is None:  # no almost complex structure: no record applies
        return {}
    nj_max = _amax(r.nj.nabla_j)
    scale = np.fmax(1.0, nj_max)  # like max(1.0, x): 1 where x is NaN
    w2, lam2 = r.wplus.norm2, 6.0 * r.star.lam**2
    masks = {
        "all": np.ones(len(r.S_v), dtype=bool),
        "kahler": ~(nj_max > GATE * scale),
        "almost-kahler": ~(_amax(r.nj.d_omega) > GATE * scale),
        "requires-gl77": ~(np.abs(w2 - lam2) > GATE * np.maximum(np.maximum(w2, lam2), 1.0)),
        "w-support": ~(np.sqrt(np.maximum(w2, 0.0)) <= GATE * np.fmax(1.0, np.abs(r.S_v))),
        "s-support": ~(np.abs(r.S_v) <= GATE),
    }
    if r.dwp is not None:
        masks["requires-deltawplus0"] = ~(_amax(r.dwp) > GATE * np.fmax(1.0, r.nabla_weyl_max))
    return masks


def _residual(record: IdentityRecord, rows: Rows, masks: dict) -> Optional[tuple]:
    """(lhs, rhs, abs, scale, rel, signed margin) over the rows where the record
    applies, from one evaluator call on just those rows (None if there are
    none).  Scales are widened by the curvature scale; margins are None
    unless the record is an inequality."""
    if not masks:
        return None
    mask = masks[record.applicability]
    if record.needs_w_support:
        mask = mask & masks["w-support"]
    if record.needs_s_support:
        mask = mask & masks["s-support"]
    if not mask.any():
        return None
    lhs, rhs, abs_res, scale = record.evaluator(rows if mask.all() else _leafwise(lambda v: v[mask], rows))
    scale = np.maximum(scale, rows.curvature_scale[mask])
    denom = np.maximum(scale, RESIDUAL_FLOOR)
    margin = (lhs - rhs) / denom if record.signed else None
    return lhs, rhs, abs_res, scale, abs_res / denom, margin


def evaluate_identity(record_id: str, spec: ManifoldSpec, point: Sequence[float]) -> IdentityResidual:
    """Evaluate one registry identity at one point, at the record's jet
    order: a stack of one row through the residual step ``run_suite`` uses."""
    if record_id not in REGISTRY:
        raise ConditionsError(f"unknown identity '{record_id}'")
    record = REGISTRY[record_id]
    if record.evaluator is None:
        raise ConditionsError(f"{record_id} is an integral identity; use check_integral_formulas")
    rows = stack_rows(point_context(spec, point, record.min_order))
    res = _residual(record, rows, _gate_masks(rows))
    pt = tuple(np.asarray(point, float))
    if res is None:
        return IdentityResidual(record.id, pt, 0.0, 0.0, 0.0, 0.0, False, 0.0)
    lhs, rhs, abs_res, scale, rel, margin = (None if v is None else float(v[0]) for v in res)
    return IdentityResidual(record.id, pt, lhs, rhs, abs_res, rel, True, scale, margin)


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
        return (all(row["verdict"].startswith("pass") or row["verdict"] == "not applicable" for row in self.identities)
                and all(v["confirmed"] for v in self.tags.values()))

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
        keys = ("id", "anchor", "applicability", "applicable_points", "max_rel_residual", "mean_rel_residual", "verdict")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("manifold",) + keys)
        writer.writerows([self.manifold] + [row[k] for k in keys] for row in self.identities)
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


def _verdict(record: IdentityRecord, rels: Sequence, margins: Sequence, tol_pass: float, tol_fail: float,
             tags: frozenset) -> str:
    if len(rels) == 0:
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


def _check_tolerances(tol_pass: float, tol_fail: float) -> None:
    """Refuse a verdict band that is empty, reversed, non-positive or not finite."""
    if not 0.0 < tol_pass < tol_fail < np.inf:
        raise ConditionsError(f"tolerances need 0 < tol_pass < tol_fail < inf, got {tol_pass!r} and {tol_fail!r}")


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
    if rotations < 0:
        raise ConditionsError("rotations must be >= 0")
    _check_tolerances(tol_pass, tol_fail)
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

    rows = stack_rows(point_context(spec, pts, order), angles if spec.has_j else None)
    masks = _gate_masks(rows)
    # tags and classification read each point once, not its rotations
    base = _leafwise(lambda v: v[:: 1 + rotations], rows) if rotations and spec.has_j else rows
    report_rows = []
    for record in records:
        res = _residual(record, rows, masks)
        rel = res[4] if res is not None else np.zeros(0)
        margin = res[5] if res is not None and record.signed else None
        # aggregates cover the finite values; the non-finite ones are counted
        finite = np.isfinite(rel) if margin is None else np.isfinite(rel) & np.isfinite(margin)
        row = {
            "id": record.id,
            "anchor": record.anchor,
            "description": record.description,
            "applicability": record.applicability,
            "applicable_points": len(rel),
            "max_rel_residual": float(rel[finite].max(initial=0.0)),
            "mean_rel_residual": float(rel[finite].mean()) if finite.any() else 0.0,
            "verdict": _verdict(record, rel, [] if margin is None else margin, tol_pass, tol_fail, spec.tags),
        }
        if margin is not None and finite.any():
            row["min_signed_margin"] = float(margin[finite].min())
        if not finite.all():
            row["non_finite_points"] = int(np.count_nonzero(~finite))
        report_rows.append(row)

    return ConditionReport(
        manifold=spec.id,
        points=n_points,
        seed=seed,
        order=order,
        tol_pass=tol_pass,
        tol_fail=tol_fail,
        rotations=rotations,
        identities=report_rows,
        classification=_classify(base.nj, tol_pass, tol_fail)[0] if spec.has_j else None,
        tags=_tag_report(spec.tags, base, tol_pass),
    )


# ---------------------------------------------------------------------------
# Tag verification and classification
# ---------------------------------------------------------------------------


def _tag_report(tags: frozenset, r: Rows, tol_pass: float) -> dict:
    """Each claimed tag's largest finite residual over the rows, whether it
    is confirmed, and how many rows gave a non-finite residual."""
    absent = np.full(len(r.S_v), np.inf)  # a quantity the rows lack cannot confirm a tag
    out = {}
    for tag in sorted(tags):
        if tag == "flat":
            v = _amax(r.riem_v) / np.fmax(1.0, _amax(r.g) ** 2)
        elif tag == "einstein":
            v = _amax(r.ric_v - (r.S_v / 4.0)[:, None, None] * np.eye(4)) / np.fmax(1.0, np.abs(r.S_v) / 4.0)
        elif tag == "kahler":
            v = _amax(r.nj.nabla_j) if r.nj is not None else absent
        elif tag == "almost-kahler":
            v = _amax(r.nj.d_omega) if r.nj is not None else absent
        elif tag == "constant-s":
            v = _amax(r.dS) / np.fmax(1.0, np.abs(r.S_v)) if r.dS is not None else absent
        elif tag == "conformally-flat":
            v = _amax(r.weyl_v) / np.fmax(np.fmax(1.0, _amax(r.riem_v)), np.abs(r.S_v))
        else:
            v = np.zeros(len(r.S_v))
        finite = np.isfinite(v)
        worst = float(v[finite].max(initial=0.0))
        out[tag] = {"residual": worst, "confirmed": bool(worst <= tol_pass and finite.all())}
        if not finite.all():
            out[tag]["non_finite_points"] = int(np.count_nonzero(~finite))
    return out


def _classify(nj: NablaJData, tol_pass: float, tol_fail: float) -> tuple:
    """Structure verdict from stacked nabla J data, and the largest finite
    nabla J, d Omega and N_J residuals (relative to max(1, |nabla J|))."""
    n = _amax(nj.nabla_j)
    r = np.stack([n, _amax(nj.d_omega), _amax(nj.nijenhuis)], axis=1) / np.fmax(1.0, n)[:, None]
    finite = np.isfinite(r).all(axis=1)
    worst = r[finite].max(axis=0, initial=0.0)
    residuals = dict(zip(("nabla_j", "d_omega", "nijenhuis"), map(float, worst)))

    def state(x):
        if x <= tol_pass:
            return "zero"
        if x >= tol_fail:
            return "nonzero"
        return "indeterminate"

    if not finite.all():
        return "indeterminate", residuals
    s_nj, s_dom, s_nij = map(state, worst)
    if s_nj == "zero":
        return "Kähler", residuals
    if "indeterminate" in (s_nj, s_dom):
        return "indeterminate", residuals
    if s_dom == "zero":
        return "almost-Kähler non-Kähler", residuals
    if s_nij == "zero":
        return "Hermitian non-Kähler", residuals
    if s_nij == "nonzero":
        return "generic almost-Hermitian", residuals
    return "indeterminate", residuals


def classify_structure(spec: ManifoldSpec, n_points: int, seed: int = 0,
                       tol_pass: float = TOL_PASS, tol_fail: float = TOL_FAIL):
    """Structure verdict from residual gates on nabla J, d Omega and N_J."""
    if not spec.has_j:
        raise ConditionsError(f"manifold '{spec.id}' has no almost complex structure")
    if n_points < 1:
        raise ConditionsError("n_points must be >= 1")
    _check_tolerances(tol_pass, tol_fail)
    pts = spec.sample_points(n_points, np.random.default_rng(seed))
    return _classify(stack_rows(point_context(spec, pts, 2)).nj, tol_pass, tol_fail)


# ---------------------------------------------------------------------------
# Quadrature and integral formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureSpec:
    n: int = 16
    n_refine: int = 24
    constancy_samples: int = 20
    seed: int = 0


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error: float
    used_constancy_shortcut: bool
    volume: float


def _gauss_grid(spec: ManifoldSpec, n: int, axes: Sequence[int]) -> tuple:
    """Tensor Gauss-Legendre nodes of the domain, n on each axis in ``axes``
    and the one-node rule (the box midpoint, weight the box length) on every
    other axis: shape (n**len(axes), 4), first coordinate slowest, and their
    tensor weights, without the volume density."""
    coords, waxes = [], []
    for i, (lo, hi) in enumerate(spec.domain):
        nodes, weights = np.polynomial.legendre.leggauss(n if i in axes else 1)
        coords.append(0.5 * (hi - lo) * nodes + 0.5 * (hi + lo))
        waxes.append(0.5 * (hi - lo) * weights)
    points = np.stack([a.ravel() for a in np.meshgrid(*coords, indexing="ij")], axis=1)
    return points, np.einsum("i,j,k,l->ijkl", *waxes).ravel()


NODE_CHUNK = 16  # nodes per density call, one frame stage each: larger chunks gained no time, cost ~70 KB per node


def _node_values(spec: ManifoldSpec, density, points: np.ndarray) -> np.ndarray:
    """density at each point, the point axis last, from one call per chunk
    of NODE_CHUNK points."""
    vals = np.concatenate(
        [np.asarray(density(points[i:i + NODE_CHUNK]), dtype=float) for i in range(0, len(points), NODE_CHUNK)],
        axis=-1,
    )
    bad = np.flatnonzero(~np.isfinite(vals).reshape(-1, len(points)).all(axis=0))
    if bad.size:
        raise QuadratureError(f"density on '{spec.id}' is not finite at point {points[bad[0]].tolist()}")
    return vals


def integrate_density(
    spec: ManifoldSpec,
    density: Callable[[np.ndarray], object],
    quad: QuadratureSpec = QuadratureSpec(),
    axes: Sequence[int] = range(4),
) -> IntegralResult:
    """Gauss-Legendre integral of density * volume form over the fundamental domain.

    ``density`` maps points of shape (n, 4) to values with the point axis
    last: shape (n,) for a scalar density, (..., n) for an array of them.
    The nodes of all levels go to it as one stack, in chunks of NODE_CHUNK
    points; every component and level is integrated in that one pass, and
    value and error have its shape without the point axis.  ``axes`` are the
    coordinates the density may depend on: each level puts its nodes on them
    only, and every other axis contributes its box length (``spec.read_axes()``
    for a density built from the spec; the default, all four, holds for any callable).
    The constancy shortcut (value * volume) is taken only after an explicit
    constancy check at ``constancy_samples`` random points, and only when
    every component's spread there is within CONSTANCY_TOL.
    """
    if not spec.compact:
        raise ConditionsError(f"manifold '{spec.id}' is not compact; cannot integrate")
    levels = sorted({max(2, quad.n // 2), quad.n, quad.n_refine})
    grids = [_gauss_grid(spec, n, axes) for n in levels]
    splits = np.cumsum([len(w) for _, w in grids])[:-1]
    nodes, weights = (np.concatenate(part) for part in zip(*grids))
    weights = dict(zip(levels, np.split(weights * spec.volume_density(nodes), splits)))
    vol_fine = weights[quad.n_refine].sum()

    rng = np.random.default_rng(quad.seed)
    vals = _node_values(spec, density, spec.sample_points(quad.constancy_samples, rng, margin=0.0))
    spread = vals.max(axis=-1) - vals.min(axis=-1)
    if np.all(spread <= CONSTANCY_TOL * np.maximum(np.abs(vals).max(axis=-1), 1.0)):
        mean = vals.mean(axis=-1)
        vol_err = abs(vol_fine - weights[quad.n].sum())
        return IntegralResult(mean * vol_fine, spread * vol_fine + abs(mean) * vol_err, True, vol_fine)

    results = [v @ weights[n] for n, v in zip(levels, np.split(_node_values(spec, density, nodes), splits, axis=-1))]
    errors = [abs(b - a) for a, b in zip(results, results[1:])]
    if len(errors) >= 2 and np.any(
        (errors[-1] > errors[0]) & (errors[-1] > 1e-12 * np.maximum(abs(results[-1]), 1.0))
    ):
        raise QuadratureError(f"quadrature refinement not converging on '{spec.id}': errors {errors}")
    return IntegralResult(results[-1], errors[-1] if errors else 0.0 * results[-1], False, vol_fine)


INTEGRAND_KEYS = ("q_j", "rt2", "ric_star_minus2", "nabla_j2", "nabla_j4", "s", "wplus2", "s2")


def evaluate_integrand(spec: ManifoldSpec, points: np.ndarray) -> dict:
    """All scalars entering the compact integral formulas at ``points`` of
    shape (..., 4): one array of shape (...) per key, from one frame stage."""
    if not spec.has_j:
        raise ConditionsError("integral formulas need an almost complex structure")
    r = stack_rows(point_context(spec, points, 4))
    values = {
        "q_j": q_j_integrand(r, r.J),
        "rt2": r.star.rt2,
        "ric_star_minus2": r.star.ric_star_minus2,
        "nabla_j2": r.nj.norm2,
        "nabla_j4": r.nj.norm2**2,
        "s": r.S_v,
        "wplus2": r.wplus.norm2,
        "s2": r.S_v**2,
    }
    return {k: v.reshape(np.shape(points)[:-1]) for k, v in values.items()}


def check_integral_formulas(spec: ManifoldSpec, quad: QuadratureSpec = QuadratureSpec()) -> dict:
    """Both compact Weitzenboeck integrals and their difference (the
    integrated pointwise identity).  Requires a compact almost Kahler entry.

    One jet stage and one frame stage per chunk of quadrature or constancy
    nodes feed all the integrand scalars; the nodes lie on the coordinates
    the metric or J reads.
    """
    def densities(p) -> list:
        d = evaluate_integrand(spec, p)
        return [d[k] for k in INTEGRAND_KEYS] + [d["s"] * d["nabla_j2"]]

    keys = INTEGRAND_KEYS + ("s_nabla_j2",)
    result = integrate_density(spec, densities, quad, spec.read_axes())
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
