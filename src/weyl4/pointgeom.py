"""Point-local metric linear algebra.

Everything here lives at a chart point: adjoints with respect to the
metric, the dimension-weighted inner product ``<A,B> = tr(A* B)/4`` on
endomorphisms, J-adapted orthonormal frames with their quaternionic
supplements (I, K), the skew-endomorphism / 2-form correspondence
``Omega_A(X,Y) = g(AX,Y)``, and the Hodge star on 2-forms in the orientation
fixed by ``vol = Omega_J ^ Omega_J / 2``, which validates J.

All matrices are in the chart basis unless noted; endomorphisms act on
column vectors of chart components, and the frame kernels contract index
pairs (i, j) as 16-rows of one matrix product.  The frame functions also take a stack
of points (leading row axes; ``mp`` holding ``point``, ``g`` and ``g_inv``),
and a failing check names the first failing row's point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import Weyl4Error
from .exprjet import jmatinv, jtruncate, jvalue

N = 4

# Frame-basis matrices of the standard quaternionic triple for a J-frame
# (JX1 = X2, JX3 = X4; IX1 = X3, IX2 = -X4, IX3 = -X1, IX4 = X2;
#  KX1 = -X4, KX2 = -X3, KX3 = X2, KX4 = X1).  Columns are images.
J_STD = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
I_STD = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
K_STD = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]], dtype=float)


PERMUTATIONS4 = np.array(list(itertools.permutations(range(N))))
PERM_SIGNS4 = np.linalg.det(np.eye(N)[PERMUTATIONS4]).round()  # sign = det of the permutation matrix
EPS4 = np.zeros((N, N, N, N))
EPS4[tuple(PERMUTATIONS4.T)] = PERM_SIGNS4


class PointError(Weyl4Error, ValueError):
    """A check that fails at chart ``point`` in pipeline ``stage``."""

    def __init__(self, message: str, point, stage: str):
        self.point = np.asarray(point, dtype=float)
        self.stage = stage
        super().__init__(f"{message} in the {stage} stage at point {self.point.tolist()}")


class FrameError(PointError):
    """An almost complex structure that is not compatible, or a degenerate frame."""


class MetricError(PointError):
    """The metric matrix at ``point`` is not symmetric positive definite."""


def raise_at_first(bad, mp, stage: str, message) -> None:
    """FrameError at the first row where ``bad`` holds; ``message(k)`` describes row k."""
    rows = np.flatnonzero(bad)
    if rows.size:
        k = rows[0]
        raise FrameError(message(k), np.reshape(mp.point, (-1, N))[k], stage)


@dataclass(frozen=True)
class MetricPoint:
    """Metric matrix, inverse, and component jets at one chart point."""

    point: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    jets: np.ndarray       # (4, 4, ncoef)
    inv_jets: np.ndarray   # (4, 4, ncoef of order - 1): every reader truncates to order - 1 or lower
    order: int

    @staticmethod
    def from_jets(point, jets: np.ndarray, order: int) -> "MetricPoint":
        point = np.asarray(point, dtype=float)
        g = jvalue(jets)
        asym = np.abs(g - g.T).max()
        scale = np.abs(g).max()
        if not asym <= 1e-12 * max(scale, 1.0):  # a NaN residual is rejected too
            raise MetricError(f"metric matrix not symmetric (residual {asym:.3e})", point, "metric")
        eig = np.linalg.eigvalsh(0.5 * (g + g.T))
        if not eig[0] > 1e-12 * eig[-1]:
            raise MetricError(f"metric not positive definite (eigenvalues {eig.tolist()})", point, "metric")
        inv_order = max(order - 1, 0)
        inv_jets = jmatinv(jtruncate(jets, inv_order), inv_order)
        return MetricPoint(point, g, jvalue(inv_jets), jets, inv_jets, order)


# ---------------------------------------------------------------------------
# Index-pair matrices
# ---------------------------------------------------------------------------


def _pairs(T: np.ndarray) -> np.ndarray:
    """A [..., i, j, k, l] array as [..., (i, j), (k, l)] 16x16 matrices."""
    return T.reshape(T.shape[:-4] + (16, 16))


def _flat(stack: np.ndarray) -> np.ndarray:
    """A stack [..., s, i, j] of 4x4 matrices as rows [..., s, (i, j)]."""
    return stack.reshape(stack.shape[:-2] + (16,))


def _trail(x: np.ndarray, *order: int) -> np.ndarray:
    """``x`` with its trailing axes permuted by ``order``, leading row axes kept."""
    k = x.ndim - len(order)
    return x.transpose(*range(k), *(k + i for i in order))


def _kron2(a: np.ndarray) -> np.ndarray:
    """a (x) a on index pairs: [(i, j), (k, l)] = a[i, k] a[j, l]."""
    return _pairs(a[..., :, None, :, None] * a[..., None, :, None, :])


# ---------------------------------------------------------------------------
# Adjoints, inner products, 2-form correspondence
# ---------------------------------------------------------------------------


def adjoint_endo(A: np.ndarray, mp: MetricPoint) -> np.ndarray:
    """Adjoint A* with g(AX, Y) = g(X, A*Y)."""
    return mp.g_inv @ np.swapaxes(A, -1, -2) @ mp.g


def is_skew(A: np.ndarray, mp: MetricPoint, tol: float = 1e-10) -> bool:
    res = np.abs(adjoint_endo(A, mp) + A).max()
    return res <= tol * max(np.abs(A).max(), 1.0)


def inner_endo(A: np.ndarray, B: np.ndarray, mp: MetricPoint) -> float:
    """Weighted inner product tr(A* B)/4 (differs from Frobenius by 1/n)."""
    return float(np.trace(adjoint_endo(A, mp) @ B)) / N


def inner_endos(As: np.ndarray, Bs: np.ndarray, mp: MetricPoint) -> np.ndarray:
    """Matrix [..., a, b] of tr(A_a* B_b)/4 over stacks As[..., a, :, :] and Bs[..., b, :, :],
    the row axes of ``mp`` leading."""
    return np.einsum("...akj,...bkj->...ab", As, mp.g[..., None, :, :] @ Bs @ mp.g_inv[..., None, :, :]) / N


def endo_to_form(A: np.ndarray, mp: MetricPoint) -> np.ndarray:
    """2-form of a skew endomorphism: Omega_A(X,Y) = g(AX, Y)."""
    return np.swapaxes(A, -1, -2) @ mp.g


def hodge_star(w: np.ndarray, mp: MetricPoint, orientation) -> np.ndarray:
    """Hodge star on 2-forms for the given chart orientation sign."""
    det = np.linalg.det(mp.g)
    raised = mp.g_inv @ w @ np.swapaxes(mp.g_inv, -1, -2)  # w^{kl}
    factor = 0.5 * np.asarray(orientation) * np.sqrt(det)
    return factor[..., None, None] * np.einsum("ijkl,...kl->...ij", EPS4, raised)


def chart_orientation(J: np.ndarray, mp: MetricPoint) -> np.ndarray:
    """Sign of the chart basis in the orientation with vol = Omega_J^2 / 2
    (0 where Omega_J is degenerate, which the self-duality check rejects)."""
    w = endo_to_form(J, mp)
    return np.sign(w[..., 0, 1] * w[..., 2, 3] - w[..., 0, 2] * w[..., 1, 3] + w[..., 0, 3] * w[..., 1, 2])


# ---------------------------------------------------------------------------
# J-adapted frames and quaternionic supplements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelfDualFrame:
    """Orthonormal J-frame plus quaternionic supplement.

    ``E`` holds the frame vectors e1..e4 as columns (chart components), with
    J e1 = e2 and J e3 = e4.  (I, K) complete J to a quaternionic triple with
    I J K = -1, so (Omega_I, Omega_J, Omega_K) is positively oriented in the
    canonical orientation of the self-dual 2-forms.
    """

    E: np.ndarray
    J: np.ndarray
    I: np.ndarray
    K: np.ndarray


def acs_residuals(J: np.ndarray, mp) -> tuple[np.ndarray, np.ndarray]:
    """Largest entries of J^2 + 1 and of J* + J, per row: J is compatible
    with g where both vanish.  ``mp`` is anything holding ``g`` and ``g_inv``."""
    return np.abs(J @ J + np.eye(N)).max(axis=(-2, -1)), np.abs(adjoint_endo(J, mp) + J).max(axis=(-2, -1))


def check_acs(J: np.ndarray, mp: MetricPoint, tol: float = 1e-10) -> None:
    """Validate J^2 = -1 and J* = -J on every row (a NaN residual fails)."""
    r1, r2 = acs_residuals(J, mp)
    raise_at_first(
        ~((r1 <= tol) & (r2 <= tol)), mp, "structure",
        lambda k: f"not a compatible almost complex structure "
                  f"(J^2 residual {r1.flat[k]:.2e}, adjoint {r2.flat[k]:.2e})",
    )


def _dot(x: np.ndarray, g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """g(x, y) over broadcast rows, evaluated as (x g) y."""
    return ((x[..., None, :] @ g) @ y[..., :, None])[..., 0, 0]


def build_j_frame(mp: MetricPoint, acs, seed: np.ndarray) -> SelfDualFrame:
    """Build a J-frame from a seed vector with a deterministic completion.

    ``acs`` is a validated structure (``AcsPoint.from_jets``), read for its
    ``J``.  e3 is the Gram-Schmidt remainder of the first
    chart basis vector whose residual against span(e1, e2) exceeds 1e-6,
    chosen row by row, which makes frames reproducible across runs.
    """
    J = acs.J
    seed = np.broadcast_to(np.asarray(seed, dtype=float), np.shape(J)[:-1])
    ns = np.sqrt(np.maximum(_dot(seed, mp.g, seed), 0.0))
    raise_at_first(ns < 1e-12, mp, "frame", lambda k: "degenerate frame seed")
    e1 = seed / ns[..., None]
    e2 = (J @ e1[..., None])[..., 0]
    # remainders of the chart basis vectors b_i against span(e1, e2), as rows [..., i, :]
    g, u1, u2 = mp.g[..., None, :, :], e1[..., None, :], e2[..., None, :]
    basis = np.eye(N)
    r = basis - _dot(basis, g, u1)[..., None] * u1 - _dot(basis, g, u2)[..., None] * u2
    nr = np.sqrt(np.maximum(_dot(r, g, r), 0.0))
    ok = nr > 1e-6
    raise_at_first(~ok.any(axis=-1), mp, "frame", lambda k: "no chart basis vector completes the frame")
    first = np.argmax(ok, axis=-1)[..., None]
    e3 = np.take_along_axis(r, first[..., None], axis=-2)[..., 0, :] / np.take_along_axis(nr, first, axis=-1)
    e4 = (J @ e3[..., None])[..., 0]
    E = np.stack([e1, e2, e3, e4], axis=-1)
    Einv = np.linalg.inv(E)
    I = E @ I_STD @ Einv
    K = E @ K_STD @ Einv
    return SelfDualFrame(E=E, J=J, I=I, K=K)


def rotate_supplement(frame: SelfDualFrame, alpha) -> SelfDualFrame:
    """Rotate the quaternionic supplement: I' = cos a I - sin a K, K' = sin a I + cos a K
    (``alpha`` a number, or one angle per row)."""
    c, s = (np.asarray(f(alpha))[..., None, None] for f in (np.cos, np.sin))
    return replace(frame, I=c * frame.I - s * frame.K, K=s * frame.I + c * frame.K)
