import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fd_oracle import values
from test_frame_kernels import SAK_TORUS
from weyl4 import exprjet
from weyl4.catalog import builtin_manifolds, load_manifold_config
from weyl4.exprjet import (
    FUNCTIONS,
    BinOp,
    Call,
    DomainError,
    ExpressionSyntaxError,
    Neg,
    Num,
    Sym,
    UnknownSymbolError,
    compile_tape,
    eval_jet,
    expr_to_string,
    jconst,
    jeinsum,
    jmatinv,
    jmul,
    jpartials,
    jtruncate,
    jvalue,
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
        assert eval_jet(e, [1.0, 0.0, 0.3, -0.2], 0)[0] == pytest.approx(0.5, abs=1e-15)

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

    @pytest.mark.parametrize("text", ["1e400", "1 + 1e400*x", "2.5E+999*y"])
    def test_number_literal_must_be_finite(self, text):
        with pytest.raises(exprjet.ExpressionSyntaxError, match="is not finite"):
            parse_expression(text, XYZT)

    @pytest.mark.parametrize("text", ["1 + 0^-1*x", "1 + 10^400*x", "(-10)^401"])
    def test_constant_power_must_be_finite(self, text):
        with pytest.raises(exprjet.ExpressionError, match=r"constant power .* is not a finite number"):
            parse_expression(text, XYZT)


# random expression trees built through the folding constructors
def _leaves(coords):
    return st.one_of(
        st.sampled_from([exprjet.Sym(c, i) for i, c in enumerate(coords)]),
        st.floats(min_value=-4, max_value=4, allow_nan=False).map(
            lambda v: exprjet.Num(float(np.round(v, 3)))
        ),
    )


def _fold_pow(a, b):
    try:
        return exprjet._fold_binop("^", a, b)
    except exprjet.ExpressionError:  # a constant power that is not finite has no tree
        return a


def _exprs(coords):
    leaves = _leaves(coords)

    def extend(children):
        ops = st.sampled_from(["+", "-", "*"])
        return st.one_of(
            st.tuples(ops, children, children).map(lambda t: exprjet._fold_binop(*t)),
            st.tuples(children, children).map(lambda t: _fold_pow(*t)),
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
        for text in ["x - (y - z)", "-(x*y)", "x^2^3", "x/(y*z)", "x + -2.0", "x^(-2)", "-x^2", "(-2)^(y - y)"]:
            tree = parse_expression(text, XYZT)
            assert parse_expression(expr_to_string(tree), XYZT) == tree


class TestEvalJet:
    def test_polynomial(self):
        j = eval_jet(parse_expression("x^2", XYZT), [3, 0, 0, 0], 2)
        assert jvalue(j) == 9.0
        assert jpartials(j, 1)[0] == 6.0
        assert jpartials(j, 2)[0, 0] == 2.0

    def test_sin_taylor(self):
        j = eval_jet(parse_expression("sin(x)", XYZT), [0, 0, 0, 0], 3)
        got = [jpartials(j, k)[(0,) * k] for k in range(4)]
        assert got == [0.0, 1.0, 0.0, -1.0]

    def test_exp_xy_vs_richardson(self):
        from fd_oracle import richardson, second_richardson

        e = parse_expression("exp(x*y)", XYZT)
        pt = [0.3, 0.7, 0.0, 0.0]
        j = eval_jet(e, pt, 2)
        f = lambda p: values(e, list(p))
        for i in range(2):
            fd = richardson(f, pt, i, 1e-4)
            assert jpartials(j, 1)[i] == pytest.approx(fd, rel=1e-6)
        fd2 = second_richardson(f, pt, 0, 1, 1e-4)
        assert jpartials(j, 2)[0, 1] == pytest.approx(fd2, rel=1e-6)

    def test_coefficient_count(self):
        for order in range(5):
            j = eval_jet(parse_expression("x*y + z", XYZT), [1, 2, 3, 4], order)
            assert j.shape == (math.comb(order + 4, 4),)
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
        np.testing.assert_allclose(j1, j2, rtol=1e-13)

    def test_all_functions_first_derivatives(self):
        from fd_oracle import richardson

        for fn in exprjet.FUNCTIONS:
            e = parse_expression(f"{fn}(x)", XYZT)
            pt = [0.37, 0, 0, 0]
            j = eval_jet(e, pt, 4)
            f = lambda p: values(e, list(p))
            fd = richardson(f, pt, 0, 1e-4)
            assert jpartials(j, 1)[0] == pytest.approx(fd, rel=1e-7), fn


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
        scale = max(np.abs(jc).max(), 1.0)
        assert np.abs(jc - (a * jf + b * jg)).max() <= 1e-14 * scale

    def test_leibniz_order_one(self):
        pt = [0.4, -0.3, 0.8, 0.2]
        for f_text, g_text in FG:
            prod = parse_expression(f"({f_text})*({g_text})", XYZT)
            jf = eval_jet(parse_expression(f_text, XYZT), pt, 1)
            jg = eval_jet(parse_expression(g_text, XYZT), pt, 1)
            jp = eval_jet(prod, pt, 1)
            expect = jvalue(jf) * jg[1:] + jvalue(jg) * jf[1:]
            scale = max(np.abs(expect).max(), 1.0)
            assert np.abs(jp[1:] - expect).max() <= 1e-15 * scale

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
                        f = lambda p: float(values(e, list(p)))
                        for v in range(4):
                            fd = richardson(f, pt, v, 1e-3)
                            got = jpartials(jet, 1)[v]
                            tol = 1e-6 * max(abs(fd), 1e-2)
                            assert abs(got - fd) <= max(tol, 1e-8)

    def test_gradient_hessian_helpers(self):
        j = eval_jet(parse_expression("x^2*y + z*t", XYZT), [1.0, 2.0, 3.0, 4.0], 2)
        np.testing.assert_allclose(jpartials(j, 1), [4.0, 1.0, 4.0, 3.0], atol=1e-14)
        H = np.array([[jpartials(j, 2)[a, b] for b in range(4)] for a in range(4)])
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
        assert {"ik,kj->ij", "k,l->kl", "rp,rq->pq"} <= set(PACKAGE_PATTERNS)

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

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(PACKAGE_PATTERNS),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_batch_rows_have_the_bits_of_single_rows(self, subscripts, order, seed):
        rng = np.random.default_rng(seed)
        pairs = [random_jets(rng, subscripts, order) for _ in range(5)]
        a, b = (np.stack(x).reshape((5, 1) + x[0].shape) for x in zip(*pairs))
        got = jeinsum(subscripts, a, b, order)
        for k, (ak, bk) in enumerate(pairs):
            assert np.array_equal(got[k, 0], jeinsum(subscripts, ak, bk, order))

    def test_operands_must_share_the_batch(self):
        a, b = jconst(np.ones((3, 4, 4)), 2), jconst(np.ones((2, 4, 4)), 2)
        with pytest.raises(ValueError, match="share a batch"):
            jeinsum("ik,kj->ij", a, b, 2)
        with pytest.raises(ValueError, match="share a batch"):
            jeinsum("ik,kj->ij", a, b[0], 2)

    def test_batched_inverse_rows_have_the_bits_of_single_rows(self):
        rng = np.random.default_rng(5)
        Gs = [random_metric_jet(rng, 3) for _ in range(4)]
        got = jmatinv(np.stack(Gs), 3)
        for k, G in enumerate(Gs):
            assert np.array_equal(got[k], jmatinv(G, 3))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
    def test_inverse_times_matrix_is_identity(self, order, seed):
        G = random_metric_jet(np.random.default_rng(seed), order)
        prod = jeinsum("ik,kj->ij", jmatinv(G, order), G, order)
        assert np.abs(prod - jconst(np.eye(4), order)).max() < 1e-11


# ---------------------------------------------------------------------------
# The expression tape against the recursive tree walk it replaced
# ---------------------------------------------------------------------------


def oracle_jet(e, point, order):
    """Coefficients of ``e`` at ``point`` by the recursive walk the tape
    replaced: one fresh jet per tree node, no sharing, constants as jets.
    Values enter the derivative tables as 0-d arrays, as on the tape, so
    that both round alike."""
    if isinstance(e, Num):
        return jconst(e.value, order)
    if isinstance(e, Sym):
        c = jconst(float(point[e.index]), order)
        if order:
            c[tables(order).pos[tuple(int(k == e.index) for k in range(4))]] = 1.0
        return c
    if isinstance(e, Neg):
        return -oracle_jet(e.operand, point, order)
    if isinstance(e, Call):
        a = oracle_jet(e.arg, point, order)
        return oracle_compose(a, FUNCTIONS[e.func](a[..., 0], order), order)
    a = oracle_jet(e.left, point, order)
    if e.op == "^":
        exp = oracle_jet(e.right, point, order)
        if np.any(exp[1:] != 0.0):
            raise DomainError("exponents must be constant expressions")
        p = float(exp[0])
        if p == int(p):
            return oracle_ipow(a, int(p), order)
        if a[0] <= 0.0:
            raise DomainError("real power of non-positive base")
        lg = oracle_compose(a, FUNCTIONS["log"](a[..., 0], order), order)
        lg = jmul(lg, jconst(p, order), order)
        return oracle_compose(lg, FUNCTIONS["exp"](lg[..., 0], order), order)
    b = oracle_jet(e.right, point, order)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return jmul(a, b, order)
    return jmul(a, oracle_reciprocal(b, order), order)


def oracle_compose(a, derivs, order):
    h = a.copy()
    h[0] = 0.0
    out = np.zeros(tables(order).ncoef)
    out[0] = derivs[order] / math.factorial(order)
    for k in range(order - 1, -1, -1):
        out = jmul(out, h, order)
        out[0] += derivs[k] / math.factorial(k)
    return out


def oracle_reciprocal(a, order):
    v = a[..., 0]
    if v == 0.0:
        raise DomainError("division by a jet with zero value")
    powers = [v]  # v^(k+1) as products, as exprjet writes the derivatives of 1/x
    for _ in range(order):
        powers.append(powers[-1] * v)
    return oracle_compose(a, [(-1.0) ** k * math.factorial(k) / powers[k] for k in range(order + 1)], order)


def oracle_ipow(a, n, order):
    if n == 0:
        return jconst(1.0, order)
    base = a if n > 0 else oracle_reciprocal(a, order)
    n = abs(n)
    result, acc = None, base
    while n:
        if n & 1:
            result = acc if result is None else jmul(result, acc, order)
        n >>= 1
        if n:
            acc = jmul(acc, acc, order)
    return result


def oracle_or_error(e, point, order):
    try:
        return oracle_jet(e, point, order)
    except DomainError:
        return DomainError


def tape_or_error(e, point, order):
    try:
        return eval_jet(e, point, order)
    except DomainError:
        return DomainError


def assert_close(got, ref, rel=1e-14):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= rel * np.abs(ref).max(initial=0.0)


# the round-trip grammar plus division, constant exponents and subtrees used twice
POWERS = [0.0, 1.0, 2.0, 3.0, 5.0, -1.0, -2.0, 0.5, 1.5, 2.25]


def _tape_exprs(coords):
    leaves = _leaves(coords)
    ops = st.sampled_from(["+", "-", "*", "/"])

    def extend(children):
        return st.one_of(
            st.tuples(ops, children, children).map(lambda t: exprjet._fold_binop(*t)),
            st.tuples(ops, children, leaves).map(lambda t: exprjet._fold_binop(*t)),
            st.tuples(ops, leaves, children).map(lambda t: exprjet._fold_binop(*t)),
            st.tuples(children, st.sampled_from(POWERS)).map(lambda t: BinOp("^", t[0], Num(t[1]))),
            st.tuples(st.sampled_from(["+", "*", "/"]), children).map(lambda t: BinOp(t[0], t[1], t[1])),
            st.tuples(children, children).map(lambda t: BinOp("-", Call("sin", t[0]), BinOp("*", t[1], t[0]))),
            children.map(exprjet._fold_neg),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "tanh", "atan"]), children).map(
                lambda t: Call(t[0], t[1])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=14)


POINTS = st.lists(st.floats(min_value=-2, max_value=2).map(lambda v: round(v, 3)), min_size=4, max_size=4)


@pytest.fixture(scope="module")
def tape_specs(tmp_path_factory):
    """Every catalog entry and the strictly almost-Kahler torus config."""
    path = tmp_path_factory.mktemp("tape") / "sak_torus.cfg"
    path.write_text(SAK_TORUS)
    return builtin_manifolds() + [load_manifold_config(str(path))]


class TestTape:
    @settings(max_examples=200, deadline=None)
    @given(_tape_exprs(XYZT), POINTS, st.integers(min_value=0, max_value=4))
    def test_matches_recursive_walk(self, e, point, order):
        with np.errstate(all="ignore"):
            ref = oracle_or_error(e, point, order)
            got = tape_or_error(e, point, order)
        if ref is DomainError:
            assert got is DomainError
            return
        assume(np.all(np.isfinite(ref)))
        assert got is not DomainError
        assert_close(got, ref)

    @pytest.mark.parametrize(
        "text, point",
        [
            ("log(x)", [-1.0, 0, 0, 0]),
            ("log(x - y)", [0.5, 0.5, 0, 0]),
            ("sqrt(x)", [-0.5, 0, 0, 0]),
            ("1/x", [0.0, 0, 0, 0]),
            ("y/(x - x)", [0.3, 1.0, 0, 0]),
            ("x/0", [1.0, 0, 0, 0]),
            ("x^-2", [0.0, 0, 0, 0]),
            ("x^0.5", [-1.0, 0, 0, 0]),
            ("(x - 1)^1.5", [1.0, 0, 0, 0]),
            ("x^y", [1.5, 2.0, 0, 0]),
            ("2^x", [1.0, 0, 0, 0]),
            ("x^(y*z)", [1.5, 2.0, 1.0, 0]),
            ("log(x)^0", [-1.0, 0, 0, 0]),
        ],
    )
    def test_domain_errors_where_the_walk_raises(self, text, point):
        e = parse_expression(text, XYZT)
        for order in range(1, 5):
            assert oracle_or_error(e, point, order) is DomainError
            assert tape_or_error(e, point, order) is DomainError

    def test_constant_operands_fold_into_affine_ops(self):
        point = [0.7, -0.3, 1.1, 0.4]
        for text in ["x/4", "4/x", "3 - x", "x - 3", "2*x", "x*2", "x + 0.5", "0.5 + x", "-x", "-(x*y)/0.25"]:
            e = parse_expression(text, XYZT)
            assert "const" not in {op[0] for op in compile_tape(e).ops}, text
            for order in range(5):
                assert np.array_equal(eval_jet(e, point, order), oracle_jet(e, point, order)), text

    def test_symbolic_exponent_with_zero_derivatives(self):
        e = parse_expression("x^(y - y) + (x + 1)^(2 + z - z)", XYZT)
        for order in range(5):
            assert_close(eval_jet(e, [0.7, 0.2, -0.4, 1.0], order), oracle_jet(e, [0.7, 0.2, -0.4, 1.0], order))
        assert [op[0] for op in compile_tape(e).ops].count("powv") == 2
        assert "powv" not in {op[0] for op in compile_tape(parse_expression("x^2 + y^-1.5", XYZT)).ops}

    def test_shared_subtrees_lower_once(self, catalog):
        tape = catalog["fubini_study_cp2"].metric_tape
        # (1 + u^2 + v^2 + p^2 + q^2)^-2 is one reciprocal for all eight nonzero entries
        assert [(kind, param) for kind, _, param in tape.ops].count(("pow", -1.0)) == 1
        assert sum(op[0] == "coord" for op in tape.ops) == 4
        # constant factors fold into affine ops; the only constant slot is the zero entry
        assert [op for op in tape.ops if op[0] == "const"] == [("const", (), 0.0)]

    def test_catalog_and_sak_tapes_match_walk(self, tape_specs):
        rng = np.random.default_rng(6)
        for spec in tape_specs:
            for point in spec.sample_points(3, rng):
                for order in range(5):
                    g = eval_jet(spec.metric_tape, point, order)
                    for i in range(4):
                        for j in range(4):
                            ref = oracle_jet(spec.metric_exprs[min(i, j)][max(i, j)], point, order)
                            assert_close(g[i, j], ref)
                    J = eval_jet(spec.j_tape, point, order)
                    for i in range(4):
                        for j in range(4):
                            assert_close(J[i, j], oracle_jet(spec.j_exprs[i][j], point, order))

    def test_order_zero_values_match_walk_on_grid(self, tape_specs):
        for spec in tape_specs:
            axes = [np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 6) for lo, hi in spec.domain]
            grid = np.meshgrid(*axes, indexing="ij")
            g = eval_jet(spec.metric_tape, np.stack(grid, axis=-1), 0)[..., 0]
            J = eval_jet(spec.j_tape, np.stack(grid, axis=-1), 0)[..., 0]
            assert g.shape == J.shape == (6, 6, 6, 6, 4, 4)
            for i in range(4):
                for j in range(4):
                    ref = np.broadcast_to(values(spec.metric_exprs[min(i, j)][max(i, j)], grid), grid[0].shape)
                    assert_close(g[..., i, j], ref)
                    ref = np.broadcast_to(values(spec.j_exprs[i][j], grid), grid[0].shape)
                    assert_close(J[..., i, j], ref)

    def test_scalar_values_of_j(self, catalog):
        spec = catalog["perturbed_j"]
        point = [0.4, -0.2, 0.1, 0.3]
        J = spec.j_jets(point, 0)[..., 0]
        assert J.shape == (4, 4)
        assert J[1, 0] == pytest.approx(np.cos(0.3 * np.sin(0.4)), rel=1e-15)
        assert np.array_equal(J, eval_jet(spec.j_tape, point, 0)[..., 0])

    def test_tape_fields_stay_out_of_eq_hash_repr(self, catalog):
        from dataclasses import replace

        spec = catalog["fubini_study_cp2"]
        twin = replace(spec)
        assert twin == spec and hash(twin) == hash(spec)
        assert twin.metric_tape is not spec.metric_tape
        assert "Tape" not in repr(spec)


class TestTruncate:
    def test_truncates_coefficients(self):
        a = np.arange(2 * tables(3).ncoef, dtype=float).reshape(2, -1)
        assert np.array_equal(jtruncate(a, 1), a[:, : tables(1).ncoef])

    @pytest.mark.parametrize("extra", [2, 4])
    def test_non_jet_coefficient_count_raises(self, extra):
        # the source order is read from the trailing axis, which must be a jet's coefficient count
        with pytest.raises(ValueError, match="not a jet coefficient count"):
            jtruncate(np.zeros((4, 4, tables(3).ncoef + extra)), 1)

    def test_cannot_raise_order(self):
        with pytest.raises(ValueError, match="cannot raise"):
            jtruncate(np.zeros(tables(1).ncoef), 2)


# ---------------------------------------------------------------------------
# jpartials, the one read-out of derivative values
# ---------------------------------------------------------------------------


def poly_partial(poly, directions, point):
    """d_{i1} ... d_{ik} of a polynomial {exponents: coefficient} at ``point``."""
    total = 0.0
    for exps, c in poly.items():
        e = list(exps)
        for i in directions:
            c *= e[i]
            e[i] -= 1
        if c:
            total += c * math.prod(p**n for p, n in zip(point, e))
    return total


def readout(coeffs, order, k):
    """The k-th partials read off coefficients one multi-index at a time, the
    way the removed per-partial accessor did: coefficient times alpha!."""
    t = tables(order)
    out = np.empty(coeffs.shape[:-1] + (4,) * k)
    for directions in itertools.product(range(4), repeat=k):
        alpha = tuple(directions.count(v) for v in range(4))
        out[(...,) + directions] = coeffs[..., t.pos[alpha]] * math.prod(map(math.factorial, alpha))
    return out


# demo 01's quartic x^4 + 2 x^2 y^2 + t z^3 and a mixed quartic with every variable
QUARTICS = [
    ("x^4 + 2*x^2*y^2 + t*z^3", {(4, 0, 0, 0): 1.0, (2, 2, 0, 0): 2.0, (0, 0, 3, 1): 1.0}),
    ("3*x*y*z*t - y^3*t + 5*z^2 - x", {(1, 1, 1, 1): 3.0, (0, 3, 0, 1): -1.0, (0, 0, 2, 0): 5.0, (1, 0, 0, 0): -1.0}),
]


class TestPartials:
    @pytest.mark.parametrize("text,poly", QUARTICS)
    def test_polynomial_partials_exact(self, text, poly):
        point = [1.0, -1.0, 2.0, 0.5]
        jet = eval_jet(parse_expression(text, XYZT), point, 4)
        for k in range(5):
            got = jpartials(jet, k)
            assert got.shape == (4,) * k
            want = np.empty((4,) * k)
            for directions in itertools.product(range(4), repeat=k):
                want[directions] = poly_partial(poly, directions, point)
            assert np.array_equal(got, want), k

    def test_against_the_recursive_walk(self):
        point = [0.4, -0.3, 0.8, 0.2]
        for text in [t for pair in FG for t in pair] + ["sqrt(1 + x^2*y) * atan(z - t)", "(1 + x*y)^-2.5"]:
            e = parse_expression(text, XYZT)
            for order in range(5):
                ref = oracle_jet(e, point, order)
                jet = eval_jet(e, point, order)
                for k in range(order + 1):
                    assert np.array_equal(jpartials(ref, k), readout(ref, order, k)), (text, order, k)
                    assert_close(jpartials(jet, k), readout(ref, order, k))

    def test_symmetric_and_leading_axes_kept(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 3, tables(4).ncoef))
        for k in range(5):
            d = jpartials(a, k)
            assert d.shape == (2, 3) + (4,) * k
            assert np.array_equal(d, readout(a, 4, k))
            for perm in itertools.permutations(range(k)):
                assert np.array_equal(d, d.transpose((0, 1) + tuple(2 + p for p in perm)))
        assert np.array_equal(jpartials(a, 0), jvalue(a))

    @pytest.mark.parametrize("order", range(5))
    def test_beyond_the_order_raises(self, order):
        a = np.zeros(tables(order).ncoef)
        with pytest.raises(ValueError, match="outside a jet"):
            jpartials(a, order + 1)
        with pytest.raises(ValueError, match="outside a jet"):
            jpartials(a, -1)
        with pytest.raises(ValueError, match="not a jet coefficient count"):
            jpartials(np.zeros(tables(order).ncoef + 1), 0)


# ---------------------------------------------------------------------------
# Jets in fewer variables: the variable count names the order
# ---------------------------------------------------------------------------

# sorted chart coordinates, and an expression that reads exactly those
VARIABLES = {
    0: ((), "2.5"),
    1: ((2,), "exp(0.5*z)*sin(z) + z^3"),
    2: ((1, 3), "exp(0.5*y)*sin(t) + y*t^2"),
    3: ((0, 1, 3), "exp(0.5*x)*sin(y) + x*y*t^2 - cos(t)"),
    4: (exprjet.AXES, "exp(0.5*x)*sin(y) + x*y*t^2 - cos(z*t)"),
}
VAR_POINT = [0.3, -0.4, 0.7, 0.2]


def jets_in(nvars, order):
    """The variables, and one expression's jet in them and in all four."""
    axes, text = VARIABLES[nvars]
    e = parse_expression(text, XYZT)
    return axes, eval_jet(e, VAR_POINT, order, axes), eval_jet(e, VAR_POINT, order)


class TestVariables:
    @pytest.mark.parametrize("pair", [((4, 1), (1, 4)), ((4, 2), (2, 4)), ((4, 3), (3, 4))],
                             ids=["5 coefficients", "15 coefficients", "35 coefficients"])
    def test_the_variable_count_names_the_order(self, pair):
        (o1, n1), (o2, n2) = pair
        assert tables(o1, n1).ncoef == tables(o2, n2).ncoef
        for order, nvars in pair:
            axes, jet, full = jets_in(nvars, order)
            assert [exprjet.jet_order(jet, n) for n in (n1, n2)] == [o1, o2]
            # the same coefficients, in graded lexicographic order among those in four variables
            assert np.array_equal(exprjet.jembed(jet, order, axes), full)
            for v in range(4):
                d = exprjet.jderiv(jet, v, axes)
                assert d.shape == (tables(order - 1, nvars).ncoef,)
                assert np.array_equal(exprjet.jembed(d, order - 1, axes), exprjet.jderiv(full, v))
            grad = exprjet.jderiv(jet, axes=axes)
            assert np.array_equal(np.stack([exprjet.jderiv(jet, v, axes) for v in range(4)]), grad)
            low = jtruncate(jet, 1, nvars)
            assert low.shape == (tables(1, nvars).ncoef,)
            assert np.array_equal(exprjet.jembed(low, 1, axes), jtruncate(full, 1))
            for k in range(order + 1):
                d = jpartials(jet, k, axes)
                assert d.shape == (4,) * k
                assert np.array_equal(d, jpartials(full, k)), k
                unread = np.ones((4,) * k, dtype=bool)
                unread[np.ix_(*[list(axes)] * k)] = False
                assert (d[unread] == 0.0).all(), k  # exact zeros along an axis the jet does not read
            for name in ("exp", "atan"):
                assert np.array_equal(exprjet.jembed(exprjet.jfunc(name, jet, nvars), order, axes),
                                      exprjet.jfunc(name, full)), name

    @settings(max_examples=150, deadline=None)
    @given(_exprs(XYZT), st.integers(0, exprjet.MAX_ORDER))
    def test_random_expressions_in_their_read_axes_have_the_bits_of_four(self, e, order):
        tape = compile_tape(e)
        axes = tuple(sorted({param for kind, _, param in tape.ops if kind == "coord"}))
        with np.errstate(all="ignore"):
            try:
                full = eval_jet(tape, VAR_POINT, order)
            except exprjet.ExpressionError as exc:
                with pytest.raises(type(exc)):
                    eval_jet(tape, VAR_POINT, order, axes)
                return
            assume(np.isfinite(full).all())  # an unread coefficient of 0 * inf is NaN in four variables
            jet = eval_jet(tape, VAR_POINT, order, axes)
        assert np.array_equal(exprjet.jembed(jet, order, axes), full)

    def test_a_jet_in_no_variables_is_exact_to_every_order(self):
        axes, jet, full = jets_in(0, 3)
        assert jet.shape == (1,) and exprjet.jet_order(jet, 0) == exprjet.MAX_ORDER
        assert np.array_equal(exprjet.jembed(jet, 3, axes), full)
        assert np.array_equal(jpartials(jet, 2, axes), np.zeros((4, 4)))
        assert np.array_equal(exprjet.jderiv(jet, 1, axes), np.zeros(1))
        # the domain of a function's derivatives depends on the order, which such a jet cannot tell
        root = eval_jet(parse_expression("sqrt(x - x)", XYZT), VAR_POINT, 0, ())
        assert exprjet.jfunc("sqrt", root, 0, order=0)[0] == 0.0
        with pytest.raises(DomainError):
            eval_jet(parse_expression("sqrt(x - x)", XYZT), VAR_POINT, 1, (0,))

    def test_variables_must_cover_the_tape_and_be_sorted(self):
        e = parse_expression("x*t", XYZT)
        assert np.array_equal(eval_jet(e, VAR_POINT, 0, ()), eval_jet(e, VAR_POINT, 0))  # values read no variable
        with pytest.raises(ValueError, match="reads coordinate 3"):
            eval_jet(e, VAR_POINT, 2, (0,))
        for axes in ((3, 0), (0, 0), (4,)):
            with pytest.raises(ValueError, match="sorted chart coordinates"):
                eval_jet(e, VAR_POINT, 2, axes)

    @pytest.mark.parametrize("nvars", range(5))
    def test_products_in_fewer_variables_have_the_bits_of_four(self, nvars):
        axes = VARIABLES[nvars][0]
        rng = np.random.default_rng(nvars)
        for order in range(exprjet.MAX_ORDER + 1):
            a, b = (rng.normal(size=(3, 4, 4, tables(order, nvars).ncoef)) for _ in range(2))
            full = [exprjet.jembed(x, order, axes) for x in (a, b)]
            assert np.array_equal(exprjet.jembed(jmul(a, b, order), order, axes), jmul(*full, order))
            assert np.array_equal(exprjet.jembed(jeinsum("ik,kj->ij", a, b, order), order, axes),
                                  jeinsum("ik,kj->ij", *full, order))
