"""Coordinate expressions and truncated multivariate Taylor (jet) arithmetic.

An :class:`Expr` is a parsed scalar expression over four chart coordinates.
``compile_tape`` lowers an expression, or a grid of them, into one
straight-line :class:`Tape`; ``eval_jet`` evaluates it together with all
mixed partial derivatives up to a requested order (0..4) at a point, by
propagating truncated Taylor series rather than by finite differencing or
nested dual numbers, and ``eval_values`` runs the same tape at order 0 on
arrays.

Jets are stored as dense vectors of Taylor coefficients ``c_alpha =
d^alpha f / alpha!`` indexed by the multi-indices of degree <= order in four
variables (graded lexicographic order), so symmetry of mixed partials holds
by construction.  The coefficient array is the only jet type: the curvature
pipeline runs whole tensor fields through the same arithmetic, with
``jeinsum`` the one tensor-contracting jet product (every index contraction
of two jet tensors goes through it), ``jmul`` the elementwise product,
``jfunc`` a named function of a jet and ``jderiv`` the coordinate
derivative.  ``jpartials`` is the one read-out of derivative values; no
other module reads coefficient positions or factorials.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import Weyl4Error

NCOORDS = 4
MAX_ORDER = 4


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
    """Index tables for jets of a fixed truncation order in 4 variables."""

    def __init__(self, order: int):
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        self.order = order
        self.multis: list[tuple[int, ...]] = []
        for deg in range(order + 1):
            for alpha in itertools.product(range(deg + 1), repeat=NCOORDS):
                if sum(alpha) == deg:
                    self.multis.append(alpha)
        # product over range(deg+1) is not lexicographic per degree; sort within degree
        self.multis = sorted(self.multis, key=lambda a: (sum(a), a))
        self.ncoef = len(self.multis)
        self.pos = {a: i for i, a in enumerate(self.multis)}

        ia, ib, iout = [], [], []
        for i, a in enumerate(self.multis):
            for j, b in enumerate(self.multis):
                if sum(a) + sum(b) <= order:
                    ia.append(i)
                    ib.append(j)
                    iout.append(self.pos[tuple(x + y for x, y in zip(a, b))])
        self.mul_ia = np.asarray(ia, dtype=np.intp)
        self.mul_ib = np.asarray(ib, dtype=np.intp)
        scatter = np.zeros((len(iout), self.ncoef))
        scatter[np.arange(len(iout)), iout] = 1.0
        self.mul_scatter = scatter
        self.scatter_t = np.ascontiguousarray(scatter.T)

        # d/dx_v: coefficient of beta in the derivative is (beta_v+1)*c[beta+e_v]
        self.diff_src: list[np.ndarray] = []
        self.diff_fac: list[np.ndarray] = []
        if order >= 1:
            lower = [a for a in self.multis if sum(a) <= order - 1]
            for v in range(NCOORDS):
                src, fac = [], []
                for beta in lower:
                    up = list(beta)
                    up[v] += 1
                    src.append(self.pos[tuple(up)])
                    fac.append(beta[v] + 1)
                self.diff_src.append(np.asarray(src, dtype=np.intp))
                self.diff_fac.append(np.asarray(fac, dtype=float))

        # k-th partials: [i1, ..., ik] -> position of e_i1 + ... + e_ik, and its alpha!
        self.partial_pos: list[np.ndarray] = []
        self.partial_fac: list[np.ndarray] = []
        for k in range(order + 1):
            alphas = [tuple(i.count(v) for v in range(NCOORDS)) for i in itertools.product(range(NCOORDS), repeat=k)]
            shape = (NCOORDS,) * k
            self.partial_pos.append(np.reshape([self.pos[a] for a in alphas], shape))
            self.partial_fac.append(np.reshape([math.prod(map(math.factorial, a)) for a in alphas], shape).astype(float))


_TABLES: dict[int, JetTables] = {}


def tables(order: int) -> JetTables:
    if order not in _TABLES:
        _TABLES[order] = JetTables(order)
    return _TABLES[order]


_ORDER_BY_NCOEF = {math.comb(n + NCOORDS, NCOORDS): n for n in range(MAX_ORDER + 1)}


def jet_order(a: np.ndarray) -> int:
    """Truncation order of a coefficient array, from its trailing axis length."""
    order = _ORDER_BY_NCOEF.get(a.shape[-1])
    if order is None:
        raise ValueError(f"{a.shape[-1]} is not a jet coefficient count")
    return order


# ---------------------------------------------------------------------------
# Coefficient-array arithmetic (trailing axis = Taylor coefficients)
# ---------------------------------------------------------------------------


def jmul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Truncated product of jet coefficient arrays, broadcasting leading axes."""
    t = tables(order)
    prod = a[..., t.mul_ia] * b[..., t.mul_ib]
    return prod @ t.mul_scatter


def jeinsum(subscripts: str, a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Truncated product of two jet tensors, contracted as ``np.einsum(subscripts)``.

    ``subscripts`` names only the tensor axes (``"ik,kj->ij"``); the trailing
    coefficient axis is implicit.  Every index must occur in exactly two of
    the three terms, so the product is one batched matmul over the coefficient
    pairs, ``(P, free_a, K) @ (P, K, free_b)``, followed by the scatter of the
    pairs onto their output coefficients.
    """
    t = tables(order)
    perm_a, shape_a, perm_b, shape_b, shape_out, perm_out = _contraction_plan(
        subscripts, a.shape, b.shape, t.ncoef
    )
    pa = a.transpose(perm_a).reshape(shape_a)[t.mul_ia]
    pb = b.transpose(perm_b).reshape(shape_b)[t.mul_ib]
    prod = np.matmul(pa, pb).reshape(len(t.mul_ia), -1)
    return (t.scatter_t @ prod).reshape(shape_out).transpose(perm_out)


@functools.lru_cache(maxsize=1024)
def _contraction_plan(subscripts: str, shape_a: tuple, shape_b: tuple, ncoef: int) -> tuple:
    """Axis permutations and sizes that move both operands to (coefficient,
    free, contracted) layout, and the coefficient-first output back."""
    inputs, arrow, out = subscripts.partition("->")
    left, comma, right = inputs.partition(",")
    terms = (left, right, out)
    pure = arrow and comma and all(c.isalpha() and sum(c in t for t in terms) == 2 for c in set(left + right + out))
    if not pure or any(len(set(t)) != len(t) for t in terms):
        raise ValueError(f"{subscripts!r} is not a pure two-operand contraction")
    size = dict(zip(left + right, shape_a[:-1] + shape_b[:-1]))
    contracted = [c for c in left if c in right]
    free_a = [c for c in left if c not in right]
    free_b = [c for c in right if c not in left]
    free = free_a + free_b
    n_free_a, n_contracted, n_free_b = (math.prod(size[c] for c in i) for i in (free_a, contracted, free_b))
    return (
        (len(left),) + tuple(left.index(c) for c in free_a + contracted),
        (shape_a[-1], n_free_a, n_contracted),
        (len(right),) + tuple(right.index(c) for c in contracted + free_b),
        (shape_b[-1], n_contracted, n_free_b),
        (ncoef,) + tuple(size[c] for c in free),
        tuple(1 + free.index(c) for c in out) + (0,),
    )


def jderiv(a: np.ndarray, v: int) -> np.ndarray:
    """Coordinate derivative d/dx_v; the result is a jet of one order less."""
    order = jet_order(a)
    if order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    t = tables(order)
    return a[..., t.diff_src[v]] * t.diff_fac[v]


def jtruncate(a: np.ndarray, order_to: int) -> np.ndarray:
    if order_to > jet_order(a):
        raise ValueError("cannot raise jet order by truncation")
    return a[..., : tables(order_to).ncoef]


def jconst(values: np.ndarray | float, order: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    out = np.zeros(values.shape + (tables(order).ncoef,))
    out[..., 0] = values
    return out


def jvalue(a: np.ndarray) -> np.ndarray:
    return a[..., 0]


def jpartials(a: np.ndarray, k: int) -> np.ndarray:
    """Values of every k-th partial of a jet, as trailing ``(4,) * k`` axes:
    ``[..., i1, ..., ik] = d_i1 ... d_ik a``, the coefficient times alpha!."""
    t = tables(jet_order(a))
    if not 0 <= k <= t.order:
        raise ValueError(f"partials of order {k} outside a jet of order {t.order}")
    return a[..., t.partial_pos[k]] * t.partial_fac[k]


def jmatmul(A: np.ndarray, B: np.ndarray, order: int) -> np.ndarray:
    """Matrix product of two (4,4,ncoef) jet matrices."""
    return jeinsum("ik,kj->ij", A, B, order)


def jmatinv(G: np.ndarray, order: int) -> np.ndarray:
    """Inverse of a (4,4,ncoef) jet matrix via the truncated Neumann series."""
    g0 = G[..., 0]
    g0inv = np.linalg.inv(g0)
    delta = G.copy()
    delta[..., 0] = 0.0
    # E = -g0inv . delta has no constant term, so E^(order+1) == 0
    E = -np.einsum("ik,kjc->ijc", g0inv, delta)
    acc = jconst(np.eye(NCOORDS), order)
    term = acc
    for _ in range(order):
        term = jmatmul(E, term, order)
        acc = acc + term
    return np.einsum("ijc,jk->ikc", acc, g0inv)


PERMUTATIONS4 = np.array(list(itertools.permutations(range(NCOORDS))))
PERM_SIGNS4 = np.linalg.det(np.eye(NCOORDS)[PERMUTATIONS4]).round()  # sign = det of the permutation matrix


def jdet4(G: np.ndarray, order: int) -> np.ndarray:
    """Determinant jet of a (4,4,ncoef) jet matrix (Leibniz expansion, all 24 terms in one batch)."""
    F = G[np.arange(NCOORDS), PERMUTATIONS4]  # [perm, i] = G[i, perm[i]]
    return PERM_SIGNS4 @ jmul(jmul(F[:, 0], F[:, 1], order), jmul(F[:, 2], F[:, 3], order), order)


# ---------------------------------------------------------------------------
# Functions of jets
# ---------------------------------------------------------------------------


def _compose(a: np.ndarray, derivs: Sequence, order: int) -> np.ndarray:
    """Compose the univariate series with derivatives ``derivs`` at the value of ``a``."""
    h = a.copy()
    h[..., 0] = 0.0
    out = jconst(derivs[order] / math.factorial(order), order)
    for k in range(order - 1, -1, -1):
        out = jmul(out, h, order)
        out[..., 0] += derivs[k] / math.factorial(k)
    return out


# Derivative tables [f(a), f'(a), ..., f^(n)(a)]; ``a`` is a float or an array.


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
    return [np.log(a)] + [(-1.0) ** (k - 1) * math.factorial(k - 1) / a**k for k in range(1, n + 1)]


def _sqrt_derivs(a, n):
    if np.any(a < 0.0) or (n >= 1 and np.any(a == 0.0)):
        raise DomainError(f"sqrt domain error at {float(np.min(a))}")
    out = [np.sqrt(a)]
    coef = 0.5
    for k in range(1, n + 1):
        out.append(coef * a ** (0.5 - k))
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
    out = [f, u, 2 * f * u, u * (2 + 6 * f * f), u * (16 * f + 24 * f**3)]
    return out[: n + 1]


def _tanh_derivs(a, n):
    f = np.tanh(a)
    u = 1.0 - f * f
    out = [f, u, -2 * f * u, u * (6 * f * f - 2), u * (16 * f - 24 * f**3)]
    return out[: n + 1]


def _atan_derivs(a, n):
    d = 1.0 + a * a
    out = [np.arctan(a), 1 / d, -2 * a / d**2, (6 * a * a - 2) / d**3, -24 * a * (a * a - 1) / d**4]
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


def jfunc(name: str, a: np.ndarray) -> np.ndarray:
    """The named function of ``FUNCTIONS`` applied to the jet ``a``."""
    order = jet_order(a)
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

Number = Union[float, np.ndarray]


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


def _run(tape: Tape, coords: Sequence[Number], order: int) -> list:
    """Slot values of ``tape`` (None once dead): jets of ``order`` at
    ``coords``, which are floats or broadcastable arrays."""
    vals: list = []
    for (kind, inputs, param), dead in zip(tape.ops, tape.dead):
        a = vals[inputs[0]] if inputs else None
        if kind == "mul":
            x = jmul(a, vals[inputs[1]], order)
        elif kind == "affine":
            x = a * param[0]
            x[..., 0] += param[1]
        elif kind == "coord":
            x = jconst(coords[param], order)
            if order:
                x[..., tables(order).partial_pos[1][param]] = 1.0
        elif kind == "const":
            x = jconst(param, order)
        elif kind == "call":
            x = jfunc(param, a)
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


def _jpow(a: np.ndarray, p: float, order: int) -> np.ndarray:
    """``a^p`` for a constant ``p``: integer powers by repeated squaring, others as exp(p log a)."""
    v = a[..., 0]
    if p != int(p):
        if np.any(v <= 0.0):
            raise DomainError(f"real power of non-positive base {float(np.min(v))}")
        return jfunc("exp", jfunc("log", a) * p)
    n = int(p)
    if n < 0:
        if np.any(v == 0.0):
            raise DomainError("division by a jet with zero value")
        a = _compose(a, [(-1.0) ** k * math.factorial(k) / v ** (k + 1) for k in range(order + 1)], order)
    result = jconst(1.0, order) if n == 0 else None
    n = abs(n)
    while n:
        if n & 1:
            result = a if result is None else jmul(result, a, order)
        n >>= 1
        if n:
            a = jmul(a, a, order)
    return result


def eval_jet(expr: Expr | Tape, point: Sequence[float], order: int) -> np.ndarray:
    """Evaluate ``expr`` and all partials up to ``order`` at ``point``.

    Derivatives are exact to machine rounding (jet propagation), not finite
    differences.  The result is the jet's coefficient array: shape
    ``(ncoef,)`` for an :class:`Expr`, ``tape.out.shape + (ncoef,)`` for
    the grid of a :class:`Tape`.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
    if len(point) != NCOORDS:
        raise ValueError("point must have 4 coordinates")
    tape = expr if isinstance(expr, Tape) else compile_tape(expr)
    vals = _run(tape, [float(p) for p in point], order)
    return np.array([vals[k] for k in tape.out.flat]).reshape(tape.out.shape + (-1,))


def eval_values(expr: Expr | Tape, coords: Sequence[Number]) -> Number:
    """Plain (order-0) values, the same tape at order 0; ``coords`` may be
    broadcastable arrays.  A tape gives its grid axes first, then the
    broadcast shape of ``coords``."""
    tape = expr if isinstance(expr, Tape) else compile_tape(expr)
    lead = np.broadcast_shapes(*(np.shape(c) for c in coords))
    vals = _run(tape, coords, 0)
    out = np.empty(tape.out.shape + lead)
    for i, k in np.ndenumerate(tape.out):
        out[i] = vals[k][..., 0]
    return out[()]
