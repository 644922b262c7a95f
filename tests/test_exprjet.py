import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weyl4 import exprjet
from weyl4.exprjet import (
    BinOp,
    DomainError,
    ExpressionSyntaxError,
    UnknownSymbolError,
    eval_jet,
    eval_values,
    expr_to_string,
    jconst,
    jdet4,
    jeinsum,
    jmatinv,
    jmatmul,
    jmul,
    parse_expression,
    tables,
)

XYZT = ("x", "y", "z", "t")


class TestParser:
    def test_two_top_level_summands(self):
        e = parse_expression("x^2 + sin(y)", XYZT)
        assert isinstance(e, BinOp) and e.op == "+"

    def test_malformed_input_offset(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("x +", XYZT)
        assert exc.value.offset == 3

    def test_fubini_study_denominator(self):
        e = parse_expression("1/(1 + u^2 + v^2)", ("u", "v", "p", "q"))
        # independent oracle: hand value at (u,v) = (1,0) is 1/2
        assert eval_values(e, [1.0, 0.0, 0.3, -0.2]) == pytest.approx(0.5, abs=1e-15)

    def test_unknown_symbol_named(self):
        with pytest.raises(UnknownSymbolError) as exc:
            parse_expression("x + foo", XYZT)
        assert exc.value.name == "foo"

    def test_unexpected_character_offset(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("x + $y", XYZT)
        assert exc.value.offset == 4

    def test_function_needs_parentheses(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("sin x", XYZT)

    def test_empty(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ", XYZT)

    def test_requires_four_coordinates(self):
        with pytest.raises(ValueError):
            parse_expression("x", ("x", "y"))

    def test_power_right_associative(self):
        assert parse_expression("x^y^z", XYZT) == parse_expression("x^(y^z)", XYZT)
        assert parse_expression("(x^y)^z", XYZT) != parse_expression("x^y^z", XYZT)

    def test_constant_folding_only(self):
        assert parse_expression("2 + 3*4", XYZT) == exprjet.Num(14.0)
        # no simplification of symbolic subtrees
        e = parse_expression("x*1", XYZT)
        assert isinstance(e, BinOp)


# random expression trees built through the folding constructors
def _exprs(coords):
    leaves = st.one_of(
        st.sampled_from([exprjet.Sym(c, i) for i, c in enumerate(coords)]),
        st.floats(min_value=-4, max_value=4, allow_nan=False).map(
            lambda v: exprjet.Num(float(np.round(v, 3)))
        ),
    )

    def extend(children):
        ops = st.sampled_from(["+", "-", "*"])
        return st.one_of(
            st.tuples(ops, children, children).map(lambda t: exprjet._fold_binop(*t)),
            children.map(exprjet._fold_neg),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "tanh", "atan"]), children).map(
                lambda t: exprjet.Call(t[0], t[1])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_exprs(XYZT))
    def test_print_parse_identity(self, e):
        assert parse_expression(expr_to_string(e), XYZT) == e

    def test_handwritten_cases(self):
        for text in ["x - (y - z)", "-(x*y)", "x^2^3", "x/(y*z)", "x + -2.0", "x^(-2)", "-x^2"]:
            tree = parse_expression(text, XYZT)
            assert parse_expression(expr_to_string(tree), XYZT) == tree


class TestEvalJet:
    def test_polynomial(self):
        j = eval_jet(parse_expression("x^2", XYZT), [3, 0, 0, 0], 2)
        assert j.value == 9.0
        assert j.partial((1, 0, 0, 0)) == 6.0
        assert j.partial((2, 0, 0, 0)) == 2.0

    def test_sin_taylor(self):
        j = eval_jet(parse_expression("sin(x)", XYZT), [0, 0, 0, 0], 3)
        got = [j.partial((k, 0, 0, 0)) for k in range(4)]
        assert got == [0.0, 1.0, 0.0, -1.0]

    def test_exp_xy_vs_richardson(self):
        from fd_oracle import richardson, second_richardson

        e = parse_expression("exp(x*y)", XYZT)
        pt = [0.3, 0.7, 0.0, 0.0]
        j = eval_jet(e, pt, 2)
        f = lambda p: eval_values(e, list(p))
        for i in range(2):
            fd = richardson(f, pt, i, 1e-4)
            assert j.partial(tuple(int(i == k) for k in range(4))) == pytest.approx(fd, rel=1e-6)
        fd2 = second_richardson(f, pt, 0, 1, 1e-4)
        assert j.partial((1, 1, 0, 0)) == pytest.approx(fd2, rel=1e-6)

    def test_coefficient_count(self):
        for order in range(5):
            j = eval_jet(parse_expression("x*y + z", XYZT), [1, 2, 3, 4], order)
            assert j.coeffs.shape == (math.comb(order + 4, 4),)
            assert tables(order).ncoef == math.comb(order + 4, 4)

    def test_order_out_of_range(self):
        e = parse_expression("x", XYZT)
        with pytest.raises(ValueError):
            eval_jet(e, [0, 0, 0, 0], 5)
        with pytest.raises(ValueError):
            eval_jet(e, [0, 0, 0, 0], -1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_jet(parse_expression("log(x)", XYZT), [-1, 0, 0, 0], 1)
        with pytest.raises(DomainError):
            eval_jet(parse_expression("sqrt(x)", XYZT), [-0.5, 0, 0, 0], 0)
        with pytest.raises(DomainError):
            eval_jet(parse_expression("1/x", XYZT), [0, 0, 0, 0], 1)
        with pytest.raises(DomainError):
            eval_jet(parse_expression("x^0.5", XYZT), [-1, 0, 0, 0], 1)

    def test_real_power_against_exp_log(self):
        j1 = eval_jet(parse_expression("x^2.5", XYZT), [1.7, 0, 0, 0], 3)
        j2 = eval_jet(parse_expression("exp(2.5*log(x))", XYZT), [1.7, 0, 0, 0], 3)
        np.testing.assert_allclose(j1.coeffs, j2.coeffs, rtol=1e-13)

    def test_all_functions_first_derivatives(self):
        from fd_oracle import richardson

        for fn in exprjet.FUNCTIONS:
            e = parse_expression(f"{fn}(x)", XYZT)
            pt = [0.37, 0, 0, 0]
            j = eval_jet(e, pt, 4)
            f = lambda p: eval_values(e, list(p))
            fd = richardson(f, pt, 0, 1e-4)
            assert j.partial((1, 0, 0, 0)) == pytest.approx(fd, rel=1e-7), fn


FG = [
    ("x^2*y + cos(z)", "exp(0.3*t) - x*z"),
    ("sin(x*y) + t^3", "1/(1 + x^2 + y^2)"),
]


class TestJetAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        st.sampled_from(FG),
    )
    def test_linearity(self, a, b, fg):
        f_text, g_text = fg
        pt = [0.4, -0.3, 0.8, 0.2]
        combo = parse_expression(f"({a!r})*({f_text}) + ({b!r})*({g_text})", XYZT)
        jf = eval_jet(parse_expression(f_text, XYZT), pt, 3)
        jg = eval_jet(parse_expression(g_text, XYZT), pt, 3)
        jc = eval_jet(combo, pt, 3)
        scale = max(np.abs(jc.coeffs).max(), 1.0)
        assert np.abs(jc.coeffs - (a * jf.coeffs + b * jg.coeffs)).max() <= 1e-14 * scale

    def test_leibniz_order_one(self):
        pt = [0.4, -0.3, 0.8, 0.2]
        for f_text, g_text in FG:
            prod = parse_expression(f"({f_text})*({g_text})", XYZT)
            jf = eval_jet(parse_expression(f_text, XYZT), pt, 1)
            jg = eval_jet(parse_expression(g_text, XYZT), pt, 1)
            jp = eval_jet(prod, pt, 1)
            expect = jf.value * jg.coeffs[1:] + jg.value * jf.coeffs[1:]
            scale = max(np.abs(expect).max(), 1.0)
            assert np.abs(jp.coeffs[1:] - expect).max() <= 1e-15 * scale

    def test_catalog_expressions_vs_richardson(self, catalog):
        # first and second jet coefficients of every metric component match
        # Richardson differences (spot check; the full 100-point sweep is in
        # the acceptance suite)
        from fd_oracle import richardson, second_richardson

        rng = np.random.default_rng(11)
        for spec in catalog.values():
            pts = spec.sample_points(3, rng)
            for pt in pts:
                for i in range(4):
                    for j in range(i, 4):
                        e = spec.metric_exprs[i][j]
                        jet = eval_jet(e, pt, 2)
                        f = lambda p: float(eval_values(e, list(p)))
                        for v in range(4):
                            fd = richardson(f, pt, v, 1e-3)
                            got = jet.partial(tuple(int(v == k) for k in range(4)))
                            tol = 1e-6 * max(abs(fd), 1e-2)
                            assert abs(got - fd) <= max(tol, 1e-8)

    def test_gradient_hessian_helpers(self):
        j = eval_jet(parse_expression("x^2*y + z*t", XYZT), [1.0, 2.0, 3.0, 4.0], 2)
        np.testing.assert_allclose(j.gradient(), [4.0, 1.0, 4.0, 3.0], atol=1e-14)
        H = j.hessian()
        assert H[0, 0] == pytest.approx(4.0)
        assert H[0, 1] == H[1, 0] == pytest.approx(2.0)
        assert H[2, 3] == pytest.approx(1.0)


# Every contraction pattern the package passes to jeinsum, read from its source.
PACKAGE_PATTERNS = sorted(
    {
        m
        for path in Path(exprjet.__file__).parent.glob("*.py")
        for m in re.findall(r'jeinsum\(\s*"([^"]*)"', path.read_text())
    }
)


def broadcast_reference(subscripts, a, b, order):
    """Truncated contraction the slow way: broadcast both operands over every
    index, multiply elementwise with jmul, then sum the contracted axes."""
    inputs, out = subscripts.split("->")
    left, right = inputs.split(",")
    letters = sorted(set(left + right))

    def expand(x, sub):
        present = [c for c in letters if c in sub]
        x = x.transpose([sub.index(c) for c in present] + [len(sub)])
        shape = [x.shape[present.index(c)] if c in sub else 1 for c in letters]
        return x.reshape(shape + [x.shape[-1]])

    prod = jmul(expand(a, left), expand(b, right), order)
    prod = prod.sum(axis=tuple(i for i, c in enumerate(letters) if c not in out))
    kept = [c for c in letters if c in out]
    return prod.transpose([kept.index(c) for c in out] + [len(out)])


def random_jets(rng, subscripts, order):
    left, right = subscripts.split("->")[0].split(",")
    nc = tables(order).ncoef
    return (rng.standard_normal((4,) * len(left) + (nc,)),
            rng.standard_normal((4,) * len(right) + (nc,)))


def random_metric_jet(rng, order):
    """Symmetric jet matrix with a well-conditioned value near 4*I."""
    A = rng.standard_normal((4, 4, tables(order).ncoef))
    G = 0.5 * (A + A.transpose(1, 0, 2))
    G[..., 0] = 4.0 * np.eye(4) + 0.1 * G[..., 0]
    return G


class TestContraction:
    def test_package_patterns_found(self):
        assert {"ik,kj->ij", "jk,il->ijkl", "ijab,abij->"} <= set(PACKAGE_PATTERNS)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(PACKAGE_PATTERNS),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_jeinsum_matches_broadcast_reference(self, subscripts, order, seed):
        a, b = random_jets(np.random.default_rng(seed), subscripts, order)
        got = jeinsum(subscripts, a, b, order)
        ref = broadcast_reference(subscripts, a, b, order)
        # summation order differs; bound the error by the sum of |terms|
        bound = broadcast_reference(subscripts, np.abs(a), np.abs(b), order)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-13 * bound + 1e-300)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
    def test_inverse_times_matrix_is_identity(self, order, seed):
        G = random_metric_jet(np.random.default_rng(seed), order)
        prod = jmatmul(jmatinv(G, order), G, order)
        assert np.abs(prod - jconst(np.eye(4), order)).max() < 1e-11

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
    def test_batched_det_matches_leibniz_loop(self, order, seed):
        G = np.random.default_rng(seed).standard_normal((4, 4, tables(order).ncoef))
        ref = np.zeros(tables(order).ncoef)
        for perm in itertools.permutations(range(4)):
            inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
            sign = (-1) ** inversions
            term = G[0, perm[0]]
            for i in range(1, 4):
                term = jmul(term, G[i, perm[i]], order)
            ref = ref + sign * term
        got = jdet4(G, order)
        assert np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)
        assert got[0] == pytest.approx(np.linalg.det(G[..., 0]), rel=1e-12, abs=1e-12)
