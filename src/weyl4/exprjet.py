"""Coordinate expressions and truncated multivariate Taylor (jet) arithmetic.

An :class:`Expr` is a parsed scalar expression over four chart coordinates.
``compile_tape`` lowers an expression, or a grid of them, into one
straight-line :class:`Tape`; ``eval_jet`` evaluates it together with all
mixed partial derivatives up to a requested order (0..4) at a point or a
stack of points, by
propagating truncated Taylor series rather than by finite differencing or
nested dual numbers; order 0 gives plain values.

Jets are stored as dense vectors of Taylor coefficients ``c_alpha =
d^alpha f / alpha!`` indexed by the multi-indices of degree <= order in the
jet's variables (graded lexicographic order), so symmetry of mixed partials
holds by construction.  The variables are sorted chart coordinates, all four
by default; the jet stage runs in those the chart reads, since along any
other every coefficient with a power of it is exactly zero.  An order-4 jet
in k variables has C(4 + k, k) coefficients, so the count alone does not
name the order, and functions that read it take the variables.  The
coefficient array is the only jet type: the curvature pipeline runs whole
tensor fields through the same arithmetic, with ``jeinsum`` the one
tensor-contracting jet product (every index contraction of two jet tensors
goes through it), ``jmul`` the elementwise product, ``jfunc`` a named
function of a jet and ``jderiv`` the coordinate derivative.  ``jpartials``
is the one read-out of derivative values, in every chart direction (zero
along those that are not variables); no other module reads coefficient
positions or factorials.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import Weyl4Error

NCOORDS = 4
MAX_ORDER = 4
AXES = tuple(range(NCOORDS))  # the variables of a jet in every chart coordinate


class ExpressionError(Weyl4Error):
    """Base class for expression parsing/evaluation failures."""


class ExpressionSyntaxError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownSymbolError(ExpressionError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown symbol '{name}' (at offset {offset})")
        self.name = name
        self.offset = offset


class DomainError(ExpressionError):
    """Evaluation left the real domain (log/sqrt/division issues)."""


# ---------------------------------------------------------------------------
# Multi-index tables
# ---------------------------------------------------------------------------


class JetTables:
    """Index tables for jets of a fixed truncation order in ``nvars`` variables."""

    def __init__(self, order: int, nvars: int = NCOORDS):
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        if not 0 <= nvars <= NCOORDS:
            raise ValueError(f"a jet has 0..{NCOORDS} variables, got {nvars}")
        self.order = order
        self.nvars = nvars
        # graded lexicographic: by degree, then lexicographic within a degree; restricted to some
        # variables, this is the order their multi-indices have among those in all four
        alphas = itertools.product(range(order + 1), repeat=nvars)
        self.multis = sorted((a for a in alphas if sum(a) <= order), key=lambda a: (sum(a), a))
        self.ncoef = len(self.multis)
        self.pos = {a: i for i, a in enumerate(self.multis)}

        # coefficient pairs (a, b) with |a + b| <= order, grouped by the output a + b:
        # the pairs of output c are mul_ia/mul_ib[mul_starts[c]:mul_starts[c + 1]]
        iout, self.mul_ia, self.mul_ib = np.array(sorted(
            (self.pos[tuple(x + y for x, y in zip(a, b))], i, j)
            for i, a in enumerate(self.multis) for j, b in enumerate(self.multis) if sum(a) + sum(b) <= order
        ), dtype=np.intp).T
        self.mul_starts = np.searchsorted(iout, np.arange(self.ncoef))
        # the same pairs rank by rank: rank_rows[r] holds the r-th pair of every output with
        # more than r pairs, outputs with the most pairs first; output c is row rank_order[c]
        lengths = np.diff(np.append(self.mul_starts, len(iout)))
        by_length = np.argsort(-lengths, kind="stable")
        self.rank_rows = [self.mul_starts[by_length[: np.count_nonzero(lengths > r)]] + r for r in range(lengths.max())]
        self.rank_order = np.argsort(by_length)

        # d/dx_v: coefficient of beta in the derivative is (beta_v+1)*c[beta+e_v], row v of these
        lower = [a for a in self.multis if sum(a) < order]
        unit = np.eye(nvars, dtype=int)
        shape = (nvars, len(lower))
        self.diff_src = np.reshape(np.array([[self.pos[tuple(b + unit[v])] for b in lower] for v in range(nvars)],
                                            dtype=np.intp), shape)
        self.diff_fac = np.reshape([[b[v] + 1.0 for b in lower] for v in range(nvars)], shape)

        # k-th partials: [i1, ..., ik] -> position of e_i1 + ... + e_ik, and its alpha!
        self.partial_pos: list[np.ndarray] = []
        self.partial_fac: list[np.ndarray] = []
        for k in range(order + 1):
            alphas = [tuple(i.count(v) for v in range(nvars)) for i in itertools.product(range(nvars), repeat=k)]
            shape = (nvars,) * k
            self.partial_pos.append(np.reshape(np.array([self.pos[a] for a in alphas], dtype=np.intp), shape))
            self.partial_fac.append(np.reshape([math.prod(map(math.factorial, a)) for a in alphas], shape).astype(float))


@functools.lru_cache(maxsize=None)
def tables(order: int, nvars: int = NCOORDS) -> JetTables:
    """The tables of jets of ``order`` in ``nvars`` variables, built on first use."""
    return JetTables(order, nvars)


# (ncoef, nvars) -> order: the coefficient count alone does not name it, since 5 coefficients
# are order 4 in one variable or order 1 in four
_ORDER = {(math.comb(n + k, k), k): n for n in range(MAX_ORDER + 1) for k in range(1, NCOORDS + 1)}


def jet_order(a: np.ndarray, nvars: int = NCOORDS) -> int:
    """Truncation order of a coefficient array in ``nvars`` variables, from its trailing axis length.
    A jet in no variables is a constant, whose one coefficient is exact to every order: MAX_ORDER."""
    order = MAX_ORDER if nvars == 0 and a.shape[-1] == 1 else _ORDER.get((a.shape[-1], nvars))
    if order is None:
        raise ValueError(f"{a.shape[-1]} is not a jet coefficient count in {nvars} variables")
    return order


@functools.lru_cache(maxsize=None)
def _product_tables(order: int, ncoef: int) -> JetTables:
    """The tables of a jet of ``order`` with ``ncoef`` coefficients, which name its variable count
    (at order 0 every count has the one coefficient, and their tables agree)."""
    for nvars in range(NCOORDS + 1):
        if math.comb(order + nvars, nvars) == ncoef:
            return tables(order, nvars)
    raise ValueError(f"{ncoef} is not a coefficient count of a jet of order {order}")


# ---------------------------------------------------------------------------
# Coefficient-array arithmetic (trailing axis = Taylor coefficients)
# ---------------------------------------------------------------------------


def jmul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Truncated product of jet coefficient arrays, broadcasting leading axes;
    a fixed summation order gives a row of a stack the bits of the row alone."""
    t = _product_tables(order, a.shape[-1])
    return np.add.reduceat(a[..., t.mul_ia] * b[..., t.mul_ib], t.mul_starts, axis=-1)


def jeinsum(subscripts: str, a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Truncated product of two jet tensors, contracted as ``np.einsum(subscripts)``.

    ``subscripts`` names only the tensor axes (``"ik,kj->ij"``); the trailing
    coefficient axis is implicit, and leading axes are a batch both operands
    share.  Every index must occur in exactly two of the three terms, so the
    product is one batched matmul over the coefficient pairs, ``(P, batch,
    free_a, K) @ (P, batch, K, free_b)`` (a broadcast product when K = 1),
    then each output coefficient sums its pairs rank by rank, in an order
    that gives a batch row its bits alone.
    """
    t = _product_tables(order, a.shape[-1])
    perm_a, shape_a, perm_b, shape_b, shape_out, perm_out = _contraction_plan(
        subscripts, a.shape, b.shape, t.ncoef
    )
    pa = a.transpose(perm_a).reshape(shape_a)[t.mul_ia]
    pb = b.transpose(perm_b).reshape(shape_b)[t.mul_ib]
    prod = (np.matmul(pa, pb) if pa.shape[-1] > 1 else pa * pb).reshape(len(t.mul_ia), -1)
    if order == 0:  # one coefficient pair: nothing to sum
        return prod.reshape(shape_out).transpose(perm_out)
    out = prod[t.rank_rows[0]]
    for rows in t.rank_rows[1:]:
        out[: len(rows)] += prod[rows]
    return out[t.rank_order].reshape(shape_out).transpose(perm_out)


@functools.lru_cache(maxsize=1024)
def _contraction_plan(subscripts: str, shape_a: tuple, shape_b: tuple, ncoef: int) -> tuple:
    """Axis permutations and sizes that move both operands to (coefficient,
    batch, free, contracted) layout, and the coefficient-first output back."""
    inputs, arrow, out = subscripts.partition("->")
    left, comma, right = inputs.partition(",")
    terms = (left, right, out)
    pure = arrow and comma and all(c.isalpha() and sum(c in t for t in terms) == 2 for c in set(left + right + out))
    if not pure or any(len(set(t)) != len(t) for t in terms):
        raise ValueError(f"{subscripts!r} is not a pure two-operand contraction")
    nb = len(shape_a) - 1 - len(left)
    batch = shape_a[:nb]
    if nb < 0 or len(shape_b) - 1 - len(right) != nb or shape_b[:nb] != batch:
        raise ValueError(f"{subscripts!r}: operands {shape_a} and {shape_b} do not share a batch")
    size = dict(zip(left + right, shape_a[nb:-1] + shape_b[nb:-1]))
    contracted = [c for c in left if c in right]
    free_a = [c for c in left if c not in right]
    free_b = [c for c in right if c not in left]
    free = free_a + free_b
    n_free_a, n_contracted, n_free_b = (math.prod(size[c] for c in i) for i in (free_a, contracted, free_b))
    lead = tuple(range(nb))
    return (
        (len(shape_a) - 1,) + lead + tuple(nb + left.index(c) for c in free_a + contracted),
        (shape_a[-1], math.prod(batch), n_free_a, n_contracted),
        (len(shape_b) - 1,) + lead + tuple(nb + right.index(c) for c in contracted + free_b),
        (shape_b[-1], math.prod(batch), n_contracted, n_free_b),
        (ncoef,) + batch + tuple(size[c] for c in free),
        tuple(1 + i for i in lead) + tuple(1 + nb + free.index(c) for c in out) + (0,),
    )


def jderiv(a: np.ndarray, v: Optional[int] = None, axes: tuple = AXES) -> np.ndarray:
    """Coordinate derivative d/dx_v of a jet in the variables ``axes``; the result is a
    jet of one order less, and zero where ``v`` is not among them.  Without ``v``, the
    derivatives along all four coordinates, stacked on axis -2."""
    order = jet_order(a, len(axes))
    if order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    t = tables(order, len(axes))
    if v is None:
        d = a[..., t.diff_src] * t.diff_fac
        if len(axes) == NCOORDS:
            return d
        out = np.zeros(a.shape[:-1] + (NCOORDS, d.shape[-1]))
        out[..., list(axes), :] = d
        return out
    if v not in axes:
        return np.zeros(a.shape[:-1] + (tables(order - 1, len(axes)).ncoef,))
    i = axes.index(v)
    return a[..., t.diff_src[i]] * t.diff_fac[i]


def jtruncate(a: np.ndarray, order_to: int, nvars: int = NCOORDS) -> np.ndarray:
    if order_to > jet_order(a, nvars):
        raise ValueError("cannot raise jet order by truncation")
    return a[..., : tables(order_to, nvars).ncoef]


def jconst(values: np.ndarray | float, order: int, nvars: int = NCOORDS) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    out = np.zeros(values.shape + (tables(order, nvars).ncoef,))
    out[..., 0] = values
    return out


def jvalue(a: np.ndarray) -> np.ndarray:
    return a[..., 0]


def jpartials(a: np.ndarray, k: int, axes: tuple = AXES) -> np.ndarray:
    """Values of every k-th partial of a jet in the variables ``axes``, as trailing
    ``(4,) * k`` axes: ``[..., i1, ..., ik] = d_i1 ... d_ik a``, the coefficient times
    alpha!, and zero where an index is not among ``axes``."""
    t = tables(jet_order(a, len(axes)), len(axes))
    if not 0 <= k <= t.order:
        raise ValueError(f"partials of order {k} outside a jet of order {t.order}")
    d = a[..., t.partial_pos[k]] * t.partial_fac[k]
    if k == 0 or len(axes) == NCOORDS:
        return d
    out = np.zeros(a.shape[:-1] + (NCOORDS,) * k)
    out[(Ellipsis, *_axes_mesh(axes, k))] = d
    return out


@functools.lru_cache(maxsize=None)
def _axes_mesh(axes: tuple, k: int) -> tuple:
    """Index arrays that place a ``(len(axes),) * k`` block at ``axes`` on each of k axes."""
    return np.ix_(*[np.array(axes, dtype=np.intp)] * k)


def jembed(a: np.ndarray, order: int, axes: tuple) -> np.ndarray:
    """A jet of ``order`` in the variables ``axes`` as the same jet in all four,
    its coefficients with a power of another coordinate zero."""
    if len(axes) == NCOORDS:
        return a
    out = np.zeros(a.shape[:-1] + (tables(order).ncoef,))
    out[..., _embedding(order, axes)] = a
    return out


@functools.lru_cache(maxsize=None)
def _embedding(order: int, axes: tuple) -> np.ndarray:
    """Positions among the multi-indices in four variables of those in ``axes``."""
    pos = tables(order).pos
    return np.array([pos[tuple(m[axes.index(v)] if v in axes else 0 for v in AXES)]
                     for m in tables(order, len(axes)).multis], dtype=np.intp)


def jmatinv(G: np.ndarray, order: int) -> np.ndarray:
    """Inverse of a (..., 4, 4, ncoef) jet matrix via the truncated Neumann series."""
    nvars = _product_tables(order, G.shape[-1]).nvars
    g0inv = np.linalg.inv(G[..., 0])
    delta = G.copy()
    delta[..., 0] = 0.0
    # E = -g0inv . delta has no constant term, so E^(order+1) == 0
    E = -np.einsum("...ik,...kjc->...ijc", g0inv, delta)
    acc = jconst(np.broadcast_to(np.eye(NCOORDS), G.shape[:-1]), order, nvars)
    term = acc
    for _ in range(order):
        term = jeinsum("ik,kj->ij", E, term, order)
        acc = acc + term
    return np.einsum("...ijc,...jk->...ikc", acc, g0inv)


# ---------------------------------------------------------------------------
# Functions of jets
# ---------------------------------------------------------------------------


def _compose(a: np.ndarray, derivs: Sequence, order: int) -> np.ndarray:
    """Compose the univariate series with derivatives ``derivs`` at the value of ``a``."""
    h = a.copy()
    h[..., 0] = 0.0
    out = jconst(derivs[order] / math.factorial(order), order, _product_tables(order, a.shape[-1]).nvars)
    for k in range(order - 1, -1, -1):
        out = jmul(out, h, order)
        out[..., 0] += derivs[k] / math.factorial(k)
    return out


# Derivative tables [f(a), f'(a), ..., f^(n)(a)]; ``a`` is a float or an array.
# Powers are products and quotients, never ``**``: numpy's vector power loop
# can differ from the scalar one in the last bit, which would tie digits to the host.


def _reciprocal_derivs(a, n):
    """[1/a, -1/a^2, 2/a^3, ...]: the derivatives (-1)^k k!/a^(k+1) of 1/x at a."""
    out, p = [], a
    for k in range(n + 1):
        out.append((-1.0 if k % 2 else 1.0) * math.factorial(k) / p)
        p = p * a
    return out


def _sin_derivs(a, n):
    s, c = np.sin(a), np.cos(a)
    return [s, c, -s, -c, s][: n + 1]


def _cos_derivs(a, n):
    s, c = np.sin(a), np.cos(a)
    return [c, -s, -c, s, c][: n + 1]


def _exp_derivs(a, n):
    return [np.exp(a)] * (n + 1)


def _log_derivs(a, n):
    if np.any(a <= 0.0):
        raise DomainError(f"log of non-positive value {float(np.min(a))}")
    return [np.log(a)] + _reciprocal_derivs(a, n - 1)


def _sqrt_derivs(a, n):
    if np.any(a < 0.0) or (n >= 1 and np.any(a == 0.0)):
        raise DomainError(f"sqrt domain error at {float(np.min(a))}")
    out, coef, root = [np.sqrt(a)], 0.5, np.sqrt(a)
    for k in range(1, n + 1):
        root = root / a  # a^(1/2 - k)
        out.append(coef * root)
        coef *= 0.5 - k
    return out


def _sinh_derivs(a, n):
    s, c = np.sinh(a), np.cosh(a)
    return [s, c, s, c, s][: n + 1]


def _cosh_derivs(a, n):
    s, c = np.sinh(a), np.cosh(a)
    return [c, s, c, s, c][: n + 1]


def _tan_derivs(a, n):
    f = np.tan(a)
    u = 1.0 + f * f
    out = [f, u, 2 * f * u, u * (2 + 6 * f * f), u * (16 * f + 24 * f * f * f)]
    return out[: n + 1]


def _tanh_derivs(a, n):
    f = np.tanh(a)
    u = 1.0 - f * f
    out = [f, u, -2 * f * u, u * (6 * f * f - 2), u * (16 * f - 24 * f * f * f)]
    return out[: n + 1]


def _atan_derivs(a, n):
    d = 1.0 + a * a
    d2 = d * d
    out = [np.arctan(a), 1 / d, -2 * a / d2, (6 * a * a - 2) / (d2 * d), -24 * a * (a * a - 1) / (d2 * d2)]
    return out[: n + 1]


FUNCTIONS: dict[str, Callable] = {
    "sin": _sin_derivs,
    "cos": _cos_derivs,
    "tan": _tan_derivs,
    "exp": _exp_derivs,
    "log": _log_derivs,
    "sqrt": _sqrt_derivs,
    "sinh": _sinh_derivs,
    "cosh": _cosh_derivs,
    "tanh": _tanh_derivs,
    "atan": _atan_derivs,
}


def jfunc(name: str, a: np.ndarray, nvars: int = NCOORDS, order: Optional[int] = None) -> np.ndarray:
    """The named function of ``FUNCTIONS`` applied to the jet ``a`` in ``nvars`` variables.
    Its order is read off its coefficient count unless given: in no variables every order
    has the one coefficient, while the domain of the function's derivatives depends on it."""
    order = jet_order(a, nvars) if order is None else order
    return _compose(a, FUNCTIONS[name](a[..., 0], order), order)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

ADD_PREC, MUL_PREC, UNARY_PREC, POW_PREC, ATOM_PREC = 10, 20, 25, 30, 100


@dataclass(frozen=True)
class Expr:
    """Base expression node; immutable and shareable after parsing."""

    def precedence(self) -> int:
        return ATOM_PREC


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Sym(Expr):
    name: str
    index: int


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def precedence(self) -> int:
        return {"+": ADD_PREC, "-": ADD_PREC, "*": MUL_PREC, "/": MUL_PREC, "^": POW_PREC}[self.op]


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr

    def precedence(self) -> int:
        return UNARY_PREC


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


def _fold_binop(op: str, a: Expr, b: Expr) -> Expr:
    # constant folding only; no other simplification
    if isinstance(a, Num) and isinstance(b, Num):
        x, y = a.value, b.value
        if op == "+":
            return Num(x + y)
        if op == "-":
            return Num(x - y)
        if op == "*":
            return Num(x * y)
        if op == "/" and y != 0.0:
            return Num(x / y)
        if op == "^" and (x > 0.0 or float(y).is_integer()):
            try:
                value = float(x**y)
            except (ZeroDivisionError, OverflowError):
                value = math.inf
            if not math.isfinite(value):
                raise ExpressionError(f"constant power {x!r}^{y!r} is not a finite number")
            return Num(value)
    return BinOp(op, a, b)


def _fold_neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    return Neg(a)


# ---------------------------------------------------------------------------
# Parser (Pratt, with byte offsets in errors)
# ---------------------------------------------------------------------------

_OPS = "+-*/^()"


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionSyntaxError(f"bad number literal '{text[i:j]}'", i)
            if not math.isfinite(value):
                raise ExpressionSyntaxError(f"number literal '{text[i:j]}' is not finite", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExpressionSyntaxError(f"unexpected character '{ch}'", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str, coords: Sequence[str]):
        self.text = text
        self.coords = list(coords)
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExpressionSyntaxError(f"expected '{kind}'", tok[2])
        return tok

    def parse(self) -> Expr:
        e = self.parse_expr(0)
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError("unexpected trailing input", tok[2])
        return e

    def parse_expr(self, min_bp: int) -> Expr:
        lhs = self.parse_primary()
        while True:
            kind, _, _ = self.peek()
            if kind in ("+", "-"):
                bp = ADD_PREC
            elif kind in ("*", "/"):
                bp = MUL_PREC
            elif kind == "^":
                bp = POW_PREC
            else:
                break
            if bp < min_bp:
                break
            self.next()
            # ^ is right-associative, the rest left-associative
            rhs = self.parse_expr(bp if kind == "^" else bp + 1)
            lhs = _fold_binop(kind, lhs, rhs)
        return lhs

    def parse_primary(self) -> Expr:
        kind, value, offset = self.next()
        if kind == "num":
            return Num(value)
        if kind == "-":
            return _fold_neg(self.parse_expr(UNARY_PREC))
        if kind == "+":
            return self.parse_expr(UNARY_PREC)
        if kind == "(":
            e = self.parse_expr(0)
            self.expect(")")
            return e
        if kind == "ident":
            if value in FUNCTIONS:
                tok = self.next()
                if tok[0] != "(":
                    raise ExpressionSyntaxError(f"expected '(' after function '{value}'", tok[2])
                arg = self.parse_expr(0)
                self.expect(")")
                return Call(value, arg)
            if value in self.coords:
                return Sym(value, self.coords.index(value))
            raise UnknownSymbolError(value, offset)
        raise ExpressionSyntaxError("expected a value", offset)


def parse_expression(text: str, coords: Sequence[str]) -> Expr:
    """Parse ``text`` over the four declared coordinate names."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    if len(coords) != NCOORDS:
        raise ValueError(f"expected {NCOORDS} coordinate names, got {len(coords)}")
    return _Parser(text, coords).parse()


def expr_to_string(e: Expr) -> str:
    """Print an expression; reparsing the output gives a structurally equal tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({expr_to_string(e.arg)})"
    if isinstance(e, Neg):
        inner = expr_to_string(e.operand)
        if e.operand.precedence() < UNARY_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        lhs, rhs = expr_to_string(e.left), expr_to_string(e.right)
        p = e.precedence()
        if e.op == "^":
            if e.left.precedence() < ATOM_PREC or lhs.startswith("-"):  # -2.0^y reads as -(2.0^y)
                lhs = f"({lhs})"
            if e.right.precedence() < POW_PREC:
                rhs = f"({rhs})"
            return f"{lhs}^{rhs}"
        if e.left.precedence() < p:
            lhs = f"({lhs})"
        if e.right.precedence() <= p:
            rhs = f"({rhs})"
        return f"{lhs} {e.op} {rhs}"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Tape:
    """A grid of expressions lowered into one straight-line program.

    Op ``k`` of ``ops`` is ``(kind, inputs, param)`` and computes slot ``k``
    from earlier slots; ``out`` holds the slot of each grid entry, and
    ``dead[k]`` the slots last read by op ``k``, dropped after it so that
    order-0 runs over large grids hold few arrays.  Equal subtrees share one
    slot, constant operands are folded into ``affine`` ops (``s * a + c``),
    and a number exponent is fixed when the tape is compiled.  Every op runs
    on coefficient arrays ``(..., ncoef)``, so order 0 is the same program
    on plain values.
    """

    ops: tuple
    out: np.ndarray
    dead: tuple


def compile_tape(grid) -> Tape:
    """Lower an expression, or a nested sequence of them, into one tape."""
    ops: list = []
    slots: dict = {}

    def emit(kind: str, inputs: tuple, param=None) -> int:
        op = (kind, inputs, param)
        if op not in slots:
            slots[op] = len(ops)
            ops.append(op)
        return slots[op]

    def slot(x) -> int:  # a folded constant (float) becomes a slot where an op needs one
        return emit("const", (), x) if isinstance(x, float) else x

    def lower(e: Expr):
        if isinstance(e, Num):
            return float(e.value)
        if isinstance(e, Sym):
            return emit("coord", (), e.index)
        if isinstance(e, Neg):
            a = lower(e.operand)
            return -a if isinstance(a, float) else emit("affine", (a,), (-1.0, 0.0))
        if isinstance(e, Call):
            return emit("call", (slot(lower(e.arg)),), e.func)
        if not isinstance(e, BinOp):
            raise TypeError(f"not an expression node: {e!r}")
        a, b, op = lower(e.left), lower(e.right), e.op
        if op == "^":
            return emit("pow", (slot(a),), b) if isinstance(b, float) else emit("powv", (slot(a), b))
        if op == "/":
            if isinstance(b, float) and b != 0.0:
                return emit("affine", (slot(a),), (1.0 / b, 0.0))
            op, b = "*", emit("pow", (slot(b),), -1.0)
        if isinstance(b, float):  # a op c
            return emit("affine", (slot(a),), {"+": (1.0, b), "-": (1.0, -b), "*": (b, 0.0)}[op])
        if isinstance(a, float):  # c op b
            return emit("affine", (b,), {"+": (1.0, a), "-": (-1.0, a), "*": (a, 0.0)}[op])
        return emit({"+": "add", "-": "sub", "*": "mul"}[op], (a, b))

    def outputs(g):
        return slot(lower(g)) if isinstance(g, Expr) else [outputs(x) for x in g]

    out = np.array(outputs(grid), dtype=np.intp)
    last = {k: i for i, (_, inputs, _) in enumerate(ops) for k in inputs}
    for k in out.flat:
        last.pop(k, None)
    dead = [[] for _ in ops]
    for k, i in last.items():
        dead[i].append(k)
    return Tape(tuple(ops), out, tuple(map(tuple, dead)))


def _run(tape: Tape, coords: Sequence[np.ndarray], order: int, axes: tuple = AXES) -> list:
    """Slot values of ``tape`` (None once dead): jets of ``order`` in the variables
    ``axes`` at ``coords``, one array of point values per coordinate."""
    nvars = len(axes)
    seeds = tables(order, nvars).partial_pos[1] if order else None
    vals: list = []
    for (kind, inputs, param), dead in zip(tape.ops, tape.dead):
        a = vals[inputs[0]] if inputs else None
        if kind == "mul":
            x = jmul(a, vals[inputs[1]], order)
        elif kind == "affine":
            x = a * param[0]
            x[..., 0] += param[1]
        elif kind == "coord":
            x = jconst(coords[param], order, nvars)
            if order:
                if param not in axes:
                    raise ValueError(f"the tape reads coordinate {param}, which is not among the variables {axes}")
                x[..., seeds[axes.index(param)]] = 1.0
        elif kind == "const":
            x = jconst(param, order, nvars)
        elif kind == "call":
            x = jfunc(param, a, order=order)
        elif kind == "pow":
            x = _jpow(a, param, order)
        elif kind == "powv":
            e = vals[inputs[1]]
            if np.any(e[..., 1:] != 0.0) or np.ptp(e[..., 0]) != 0.0:
                raise DomainError("exponents must be constant expressions")
            x = _jpow(a, float(e.flat[0]), order)
        else:
            x = a + vals[inputs[1]] if kind == "add" else a - vals[inputs[1]]
        vals.append(x)
        for k in dead:
            vals[k] = None
    return vals


@functools.lru_cache(maxsize=None)
def _variables(axes) -> tuple:
    """``axes`` as the variables of a jet: a tuple of sorted chart coordinates."""
    if list(axes) != sorted(set(axes) & set(AXES)):
        raise ValueError(f"jet variables must be sorted chart coordinates, got {axes}")
    return tuple(axes)


def _jpow(a: np.ndarray, p: float, order: int) -> np.ndarray:
    """``a^p`` for a constant ``p``: integer powers by repeated squaring, others as exp(p log a)."""
    v = a[..., 0]
    if p != int(p):
        if np.any(v <= 0.0):
            raise DomainError(f"real power of non-positive base {float(np.min(v))}")
        return jfunc("exp", jfunc("log", a, order=order) * p, order=order)
    n = int(p)
    if n < 0:
        if np.any(v == 0.0):
            raise DomainError("division by a jet with zero value")
        a = _compose(a, _reciprocal_derivs(v, order), order)
    result = jconst(1.0, order, _product_tables(order, a.shape[-1]).nvars) if n == 0 else None
    n = abs(n)
    while n:
        if n & 1:
            result = a if result is None else jmul(result, a, order)
        n >>= 1
        if n:
            a = jmul(a, a, order)
    return result


def eval_jet(expr: Expr | Tape, points, order: int, axes: tuple = AXES) -> np.ndarray:
    """Evaluate ``expr`` and all partials up to ``order`` at ``points`` of
    shape (..., 4), one point or a stack of them.

    Derivatives are exact to machine rounding (jet propagation), not finite
    differences.  The jets are in the variables ``axes``, sorted chart
    coordinates that must include every one the expression reads (all four
    by default).  The result has the leading axes of ``points``, the grid of
    a :class:`Tape` (none for an :class:`Expr`), then the coefficients; a
    row of a stack gets the bits of its point alone.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
    axes = _variables(tuple(axes))
    points = np.asarray(points, dtype=float)
    if points.shape[-1:] != (NCOORDS,):
        raise ValueError("point must have 4 coordinates")
    tape = expr if isinstance(expr, Tape) else compile_tape(expr)
    vals = _run(tape, list(np.moveaxis(points, -1, 0)), order, axes)
    out = np.empty(points.shape[:-1] + tape.out.shape + (tables(order, len(axes)).ncoef,))
    for i, k in np.ndenumerate(tape.out):
        out[(Ellipsis, *i, slice(None))] = vals[k]
    return out
