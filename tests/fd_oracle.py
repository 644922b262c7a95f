"""Independent finite-difference curvature pipeline.

Everything here works from plain (order-0) expression evaluation plus
Richardson-extrapolated central differences, deliberately avoiding the jet
machinery, so it can serve as an oracle for the main pipeline.
"""

import numpy as np

from weyl4.exprjet import BinOp, Call, DomainError, Neg, Num, Sym

UFUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh, "atan": np.arctan,
}


def values(expr, coords):
    """Plain value of an expression tree by a recursive walk; ``coords`` may
    be numpy arrays.  Shares no code with the evaluation tape."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Sym):
        return coords[expr.index]
    if isinstance(expr, Neg):
        return -values(expr.operand, coords)
    if isinstance(expr, Call):
        arg = values(expr.arg, coords)
        if expr.func == "log" and np.any(np.asarray(arg) <= 0.0):
            raise DomainError("log of non-positive value")
        if expr.func == "sqrt" and np.any(np.asarray(arg) < 0.0):
            raise DomainError("sqrt of negative value")
        return UFUNCS[expr.func](arg)
    if isinstance(expr, BinOp):
        a = values(expr.left, coords)
        b = values(expr.right, coords)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            return a / b
        bf = float(np.asarray(b).reshape(-1)[0]) if np.ndim(b) else float(b)
        if bf == int(bf):
            return np.power(a, int(bf)) if np.ndim(a) else a ** int(bf)
        if np.any(np.asarray(a) <= 0.0):
            raise DomainError("real power of non-positive base")
        return np.power(a, b)
    raise TypeError(f"not an expression node: {expr!r}")


def metric_at(spec, x):
    return np.array(
        [[float(values(spec.metric_exprs[i][j], list(x))) for j in range(4)] for i in range(4)]
    )


def central(f, x, i, h):
    xp, xm = np.array(x, float), np.array(x, float)
    xp[i] += h
    xm[i] -= h
    return (f(xp) - f(xm)) / (2.0 * h)


def richardson(f, x, i, h):
    return (4.0 * central(f, x, i, h / 2.0) - central(f, x, i, h)) / 3.0


def second_central(f, x, i, j, h):
    if i == j:
        xp, xm = np.array(x, float), np.array(x, float)
        xp[i] += h
        xm[i] -= h
        return (f(xp) - 2.0 * f(np.array(x, float)) + f(xm)) / h**2
    xs = []
    for si in (1.0, -1.0):
        for sj in (1.0, -1.0):
            xx = np.array(x, float)
            xx[i] += si * h
            xx[j] += sj * h
            xs.append((si * sj, f(xx)))
    return sum(s * v for s, v in xs) / (4.0 * h**2)


def second_richardson(f, x, i, j, h):
    return (4.0 * second_central(f, x, i, j, h / 2.0) - second_central(f, x, i, j, h)) / 3.0


def christoffel_fd(spec, x, h=1e-3):
    g = metric_at(spec, x)
    gi = np.linalg.inv(g)
    dg = np.stack([richardson(lambda p: metric_at(spec, p), x, v, h) for v in range(4)])
    T = dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg
    return 0.5 * np.einsum("kl,lij->kij", gi, T)


def riemann_fd(spec, x, h=1e-3):
    """(0,4) Riemann by finite-differencing the Christoffel symbols."""
    gamma = christoffel_fd(spec, x, h)
    dgamma = np.stack(
        [richardson(lambda p: christoffel_fd(spec, p, h), x, v, h) for v in range(4)]
    )  # [m,k,i,j]
    rup = (
        np.einsum("iljk->lijk", dgamma)
        - np.einsum("jlik->lijk", dgamma)
        + np.einsum("lim,mjk->lijk", gamma, gamma)
        - np.einsum("ljm,mik->lijk", gamma, gamma)
    )
    g = metric_at(spec, x)
    return np.einsum("lm,mijk->ijkl", g, rup)


def ricci_scalar_fd(spec, x, h=1e-3):
    riem = riemann_fd(spec, x, h)
    g = metric_at(spec, x)
    gi = np.linalg.inv(g)
    ric_form = np.einsum("kl,jklm->jm", gi, riem)
    S = float(np.einsum("jm,jm->", gi, ric_form))
    return riem, ric_form, S
