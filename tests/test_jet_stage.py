"""The jet stage on a stack of points equals the stage run point by point,
and the stage in the coordinates a chart reads equals the stage in all four.

``point_context`` runs the metric, curvature and J jets once per chunk of a
stack, in the variables ``spec.read_axes()``.  Each column it returns must
match the same column built from one point at a time, on every catalog entry
and on the benchmark's strictly almost-Kahler torus, at jet orders 2 to 4,
for a stack of one point, for one just past a chunk and for 25 points.  It
must also match, bit for bit, the columns of a twin whose g_11 adds
``0*x + 0*y + 0*z + 0*t``, so that its tapes read all four coordinates, and
the twin's check and classify reports must be the same text.  ``eval_jet``
and ``jmul`` must give every row of a stack the bits of its point alone, in
every number of variables, and one chunk must keep its transient jets within
the stage's memory budget, while only that budget splits a stack.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from weyl4 import conditions, exprjet
from weyl4.catalog import builtin_manifolds, load_manifold_config
from weyl4.conditions import (
    JET_BYTES, POINT_BYTES, _chunk_points, classify_structure, point_context, run_suite, stack_rows,
)
from weyl4.exprjet import AXES, eval_jet, expr_to_string, jconst, parse_expression
from weyl4.pointgeom import MetricError, MetricPoint

from conftest import SIN2_TORUS, TWISTED_J_TORUS, perfbench_module

ORDERS = (2, 3, 4)
NAMES = [s.id for s in builtin_manifolds()] + ["sak_torus"]


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("configs")
    configs = {"sak_torus": perfbench_module("workloads").sak_config(0.37),
               "sin2_torus": SIN2_TORUS, "twisted_j_torus": TWISTED_J_TORUS}
    for name, text in configs.items():
        (tmp / f"{name}.cfg").write_text(text)
    return {s.id: s for s in builtin_manifolds() + [load_manifold_config(str(tmp / f"{n}.cfg")) for n in configs]}


def stack_sizes(order, spec):
    return (1, _chunk_points(order, len(spec.read_axes())) + 1, 25)


def sample(spec, order):
    return spec.sample_points(max(stack_sizes(order, spec)), np.random.default_rng(order))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", NAMES)
def test_stacked_columns_equal_single_points(specs, name, order):
    spec = specs[name]
    pts = sample(spec, order)
    single = [point_context(spec, p, order) for p in pts]
    for n in stack_sizes(order, spec):
        got = point_context(spec, pts[:n], order)
        assert got.keys() == single[0].keys()
        for key, col in got.items():
            want = np.stack([s[key] for s in single[:n]])
            assert col.shape == want.shape, (key, n)
            scale = np.abs(want).max(initial=0.0)
            assert np.array_equal(col, want), (key, n)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", NAMES)
def test_eval_jet_rows_have_the_bits_of_single_points(specs, name, order):
    spec = specs[name]
    pts = sample(spec, order)
    for tape in filter(None, (spec.metric_tape, spec.j_tape)):
        for axes in (AXES, spec.read_axes()):
            single = np.stack([eval_jet(tape, p, order, axes) for p in pts])
            for n in stack_sizes(order, spec):
                assert np.array_equal(eval_jet(tape, pts[:n], order, axes), single[:n]), (axes, n)
            assert np.array_equal(eval_jet(tape, pts.reshape(-1, 1, 4), order, axes), single[:, None]), axes


def test_a_single_point_is_a_stack_without_a_leading_axis(specs):
    spec = specs["kodaira_thurston"]
    pt = sample(spec, 4)[0]
    one, stack = point_context(spec, pt, 4), point_context(spec, pt[None], 4)
    assert one.keys() == stack.keys()
    for key in one:
        assert np.array_equal(one[key][None], stack[key]), key
    assert stack_rows(one).S_v.shape == (1,)


@pytest.mark.parametrize("order", ORDERS)
def test_a_chunk_stays_within_the_jet_budget(specs, order):
    # every entry of the catalog and the benchmark's torus: 0, 1, 2 and 4 variables
    for name in NAMES:
        spec = specs[name]
        pts = spec.sample_points(_chunk_points(order, len(spec.read_axes())), np.random.default_rng(0))
        point_context(spec, pts, order)  # index tables and contraction plans are cached on the first call
        tracemalloc.start()
        try:
            point_context(spec, pts, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= JET_BYTES, (name, order, len(pts), peak)


@pytest.mark.parametrize("order", ORDERS)
def test_one_chunk_where_the_budget_allows(specs, monkeypatch, order):
    # only the byte budget splits a stack: 25 points at order 2 are one chunk in every chart
    sizes = []
    columns = conditions._jet_columns
    monkeypatch.setattr(conditions, "_jet_columns", lambda spec, pts, o: sizes.append(len(pts)) or columns(spec, pts, o))
    for name in NAMES:
        spec = specs[name]
        sizes.clear()
        point_context(spec, spec.sample_points(25, np.random.default_rng(0)), order)
        assert len(sizes) == -(-25 // (JET_BYTES // POINT_BYTES[order, len(spec.read_axes())])), (name, sizes)
        assert order > 2 or sizes == [25], name


def test_jmul_rows_have_the_bits_of_single_rows():
    rng = np.random.default_rng(3)
    for nvars in range(exprjet.NCOORDS + 1):
        for order in range(exprjet.MAX_ORDER + 1):
            a = rng.normal(size=(7, 3) + jconst(0.0, order, nvars).shape)
            b = rng.normal(size=a.shape)
            stacked = exprjet.jmul(a, b, order)
            for i in np.ndindex(a.shape[:-1]):
                assert np.array_equal(stacked[i], exprjet.jmul(a[i], b[i], order)), (nvars, order, i)


def four_axis_twin(spec):
    """``spec`` with ``0*x + 0*y + 0*z + 0*t`` added to g_11: its tapes read all four coordinates."""
    g11 = " + ".join([expr_to_string(spec.metric_exprs[0][0])] + [f"0*{c}" for c in spec.coords])
    metric = ((parse_expression(g11, spec.coords),) + spec.metric_exprs[0][1:],) + spec.metric_exprs[1:]
    return replace(spec, metric_exprs=metric)


TWIN_NAMES = NAMES + ["sin2_torus", "twisted_j_torus"]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", TWIN_NAMES)
def test_the_read_axes_give_the_bits_of_all_four(specs, name, order):
    spec = specs[name]
    twin = four_axis_twin(spec)
    assert twin.read_axes() == AXES
    pts = spec.sample_points(25, np.random.default_rng(5))
    got, want = point_context(spec, pts, order), point_context(twin, pts, order)
    assert got.keys() == want.keys()
    for key, col in got.items():
        assert col.shape == want[key].shape, key
        assert np.array_equal(col, want[key]), key


@pytest.mark.parametrize("name", TWIN_NAMES)
def test_the_read_axes_give_the_reports_of_all_four(specs, name):
    spec = specs[name]
    twin = four_axis_twin(spec)
    assert run_suite(spec, 25, seed=7).to_json() == run_suite(twin, 25, seed=7).to_json()
    assert run_suite(spec, 10, seed=3, rotations=2).to_json() == run_suite(twin, 10, seed=3, rotations=2).to_json()
    if spec.has_j:
        assert json.dumps(classify_structure(spec, 25, 7)) == json.dumps(classify_structure(twin, 25, 7))


class TestStackedMetricCheck:
    """A metric check on a stack names the first failing row, in the words the
    row alone would give."""

    @staticmethod
    def metric_stack(bad_row, bad):
        g = np.stack([np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1 * k for k in range(5)])
        g[bad_row] = bad
        points = np.arange(20.0).reshape(5, 4) / 10.0
        return points, jconst(g, 2)

    @pytest.mark.parametrize("bad", [
        np.diag([1.0, -2.0, 3.0, 4.0]),                    # not positive definite
        np.eye(4) + np.triu(np.full((4, 4), 0.5), 1),      # not symmetric
        np.full((4, 4), np.nan),                           # not finite
    ])
    def test_names_the_row_with_the_single_point_message(self, bad):
        points, jets = self.metric_stack(3, bad)
        with pytest.raises(MetricError) as stacked:
            MetricPoint.from_jets(points, jets, 2)
        with pytest.raises(MetricError) as alone:
            MetricPoint.from_jets(points[3], jets[3], 2)
        assert str(stacked.value) == str(alone.value)
        assert stacked.value.point.tolist() == points[3].tolist()
        assert stacked.value.stage == "metric"

    def test_first_failing_row_wins(self):
        points, jets = self.metric_stack(4, np.diag([1.0, -2.0, 3.0, 4.0]))
        jets[2, 0, 1, 0] += 1.0  # row 2 is not symmetric, row 4 not definite
        with pytest.raises(MetricError, match="not symmetric") as err:
            MetricPoint.from_jets(points, jets, 2)
        assert err.value.point.tolist() == points[2].tolist()
