"""Parsing coordinate expressions and evaluating them as jets.

A jet is the array of Taylor coefficients of an expression at a point, up
to order 4, computed by truncated Taylor arithmetic rather than finite
differencing.  ``jvalue`` reads its value and ``jpartials(jet, k)`` the
values of every k-th partial, indexed by the k coordinate directions.
"""

import numpy as np

from weyl4.exprjet import eval_jet, eval_values, expr_to_string, jpartials, jvalue, parse_expression

coords = ("x", "y", "z", "t")

expr = parse_expression("exp(x*y) / (1 + z^2)", coords)
print("parsed:", expr_to_string(expr))

point = [0.3, 0.7, 0.2, 0.0]
jet = eval_jet(expr, point, order=3)
print(f"value at {point}: {jvalue(jet):.12f}")
print("gradient:", jpartials(jet, 1))
print("d^2/dxdy:", jpartials(jet, 2)[0, 1])
print("d^3/dx^2 dy:", jpartials(jet, 3)[0, 0, 1])

# compare one derivative against a central difference
h = 1e-5
f = lambda p: eval_values(expr, list(p))
pp, pm = list(point), list(point)
pp[0] += h
pm[0] -= h
fd = (f(pp) - f(pm)) / (2 * h)
print(f"d/dx: jet {jpartials(jet, 1)[0]:.12f}  vs central difference {fd:.12f}")

# jets are exact: the quartic is reproduced with no truncation error
quartic = parse_expression("x^4 + 2*x^2*y^2 + t*z^3", coords)
j4 = eval_jet(quartic, [1.0, -1.0, 2.0, 0.5], order=4)
d4 = jpartials(j4, 4)
print("d^4/dx^4 of the quartic:", d4[0, 0, 0, 0], "(exact: 24)")
print("d^4/dx^2 dy^2:", d4[0, 0, 1, 1], "(exact: 8)")
