"""Point-local metric linear algebra.

Everything here lives at a chart point: adjoints with respect to the
metric, the dimension-weighted inner product ``<A,B> = tr(A* B)/4`` on
endomorphisms, J-adapted orthonormal frames with their quaternionic
supplements (I, K), and the skew-endomorphism / 2-form correspondence
``Omega_A(X,Y) = g(AX,Y)``.

All matrices are in the chart basis unless noted; endomorphisms act on
column vectors of chart components (curvature operators on 2-forms are
6x6 pair matrices, see ``curvature``).  The metric check and the
frame functions also take a stack of points (leading row axes; ``mp``
holding ``point``, ``g`` and ``g_inv``), and a failing check names the
first failing row's point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import Weyl4Error
from .exprjet import AXES, jmatinv, jtruncate, jvalue

N = 4

# Frame-basis matrices of the standard quaternionic triple for a J-frame
# (JX1 = X2, JX3 = X4; IX1 = X3, IX2 = -X4, IX3 = -X1, IX4 = X2;
#  KX1 = -X4, KX2 = -X3, KX3 = X2, KX4 = X1).  Columns are images.
J_STD = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
I_STD = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
K_STD = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]], dtype=float)


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


def _raise_at_first(bad, point, stage: str, message, error=FrameError) -> None:
    """``error`` at the first row where ``bad`` holds, naming that row of
    ``point``; ``message(k)`` describes row k."""
    rows = np.flatnonzero(bad)
    if rows.size:
        k = rows[0]
        raise error(message(k), np.reshape(point, (-1, N))[k], stage)


@dataclass(frozen=True)
class MetricPoint:
    """Metric matrix, inverse, and component jets at a chart point or a stack of them;
    the jets are in the variables ``axes``, which every jet built from them shares."""

    point: np.ndarray      # (..., 4)
    g: np.ndarray
    g_inv: np.ndarray
    jets: np.ndarray       # (..., 4, 4, ncoef)
    inv_jets: np.ndarray   # (..., 4, 4, ncoef of order - 1): every reader truncates to order - 1 or lower
    order: int
    axes: tuple = AXES

    @staticmethod
    def from_jets(point, jets: np.ndarray, order: int, axes: tuple = AXES) -> "MetricPoint":
        """Validated metric jets: g finite, symmetric to 1e-12 of its scale max(1, max |g_ij|) (the one rule
        for a pair g_ij, g_ji, at load and at run time) and on every row positive definite with
        lambda_min > 1e-12 lambda_max; a positive definite g past that bound is named ill-conditioned."""
        point = np.asarray(point, dtype=float)
        g = jvalue(jets)
        gt = np.swapaxes(g, -1, -2)
        diff = np.abs(g - gt)
        asym = diff.max(axis=(-2, -1))
        scale = np.maximum(np.abs(g).max(axis=(-2, -1)), 1.0)
        asymmetric = ~(asym <= 1e-12 * scale)  # NaN is rejected too
        # a row that is not symmetric has no spectrum to check: it stands in as the identity
        eig = np.linalg.eigvalsh(np.where(asymmetric[..., None, None], np.eye(N), 0.5 * (g + gt)))
        finite = np.isfinite(g).all(axis=(-2, -1))

        def message(k):
            if not finite.flat[k]:
                return "metric not finite"
            if asymmetric.flat[k]:  # the worst pair, by its upper entry: the first in row order
                i, j = divmod(int(diff.reshape(-1, N * N)[k].argmax()), N)
                return (f"metric not symmetric (g_{i+1}{j+1} vs g_{j+1}{i+1}: "
                        f"residual {asym.flat[k]:.3e}, scale {scale.flat[k]:.3e})")
            lam = eig.reshape(-1, N)[k]
            if not (lam[0] > 0.0 and np.isfinite(lam).all()):
                return f"metric not positive definite (eigenvalues {lam.tolist()})"
            return f"metric too ill-conditioned in this chart (λ_min/λ_max = {lam[0] / lam[-1]:.3e})"

        _raise_at_first(asymmetric | ~(eig[..., 0] > 1e-12 * eig[..., -1]), point, "metric", message, MetricError)
        inv_order = max(order - 1, 0)
        inv_jets = jmatinv(jtruncate(jets, inv_order, len(axes)), inv_order)
        return MetricPoint(point, g, jvalue(inv_jets), jets, inv_jets, order, axes)


# ---------------------------------------------------------------------------
# Reshapes
# ---------------------------------------------------------------------------


def _flat(stack: np.ndarray) -> np.ndarray:
    """A stack [..., s, i, j] of 4x4 matrices as rows [..., s, (i, j)]."""
    return stack.reshape(stack.shape[:-2] + (16,))


def _trail(x: np.ndarray, *order: int) -> np.ndarray:
    """``x`` with its trailing axes permuted by ``order``, leading row axes kept."""
    k = x.ndim - len(order)
    return x.transpose(*range(k), *(k + i for i in order))


# ---------------------------------------------------------------------------
# Adjoints, inner products, 2-form correspondence
# ---------------------------------------------------------------------------


def adjoint_endo(A: np.ndarray, mp: MetricPoint) -> np.ndarray:
    """Adjoint A* with g(AX, Y) = g(X, A*Y)."""
    return mp.g_inv @ np.swapaxes(A, -1, -2) @ mp.g


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


def check_acs(J: np.ndarray, mp: MetricPoint) -> None:
    """Validate J^2 = -1 and J* = -J to 1e-10 on every row (a NaN residual fails)."""
    r1 = np.abs(J @ J + np.eye(N)).max(axis=(-2, -1))
    r2 = np.abs(adjoint_endo(J, mp) + J).max(axis=(-2, -1))
    _raise_at_first(
        ~((r1 <= 1e-10) & (r2 <= 1e-10)), mp.point, "structure",
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
    chart basis vector whose residual against span(e1, e2) exceeds 1e-6 of
    its own g-norm, chosen row by row, which makes frames reproducible across
    runs.  Both tests are relative, so a constant rescaling of g builds the same frame.
    """
    J = acs.J
    seed = np.broadcast_to(np.asarray(seed, dtype=float), np.shape(J)[:-1])
    ns = np.sqrt(np.maximum(_dot(seed, mp.g, seed), 0.0))
    scale = np.sqrt(np.abs(mp.g).max(axis=(-2, -1))) * np.abs(seed).max(axis=-1)
    _raise_at_first(ns <= 1e-12 * scale, mp.point, "frame", lambda k: "degenerate frame seed")
    e1 = seed / ns[..., None]
    e2 = (J @ e1[..., None])[..., 0]
    # remainders of the chart basis vectors b_i against span(e1, e2), as rows [..., i, :]
    g, u1, u2 = mp.g[..., None, :, :], e1[..., None, :], e2[..., None, :]
    basis = np.eye(N)
    r = basis - _dot(basis, g, u1)[..., None] * u1 - _dot(basis, g, u2)[..., None] * u2
    nr = np.sqrt(np.maximum(_dot(r, g, r), 0.0))
    ok = nr > 1e-6 * np.sqrt(np.diagonal(mp.g, axis1=-2, axis2=-1))
    _raise_at_first(~ok.any(axis=-1), mp.point, "frame", lambda k: "no chart basis vector completes the frame")
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
