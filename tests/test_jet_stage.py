"""The jet stage on a stack of points equals the stage run point by point.

``point_context`` runs the metric, curvature and J jets once per chunk of a
stack.  Each column it returns must match the same column built from one
point at a time, on every catalog entry and on the benchmark's strictly
almost-Kahler torus, at jet orders 2 to 4, for a stack of one point, for one
just past a chunk and for 25 points.  ``eval_jet`` must give every row of a
stack the bits of its point alone, and one chunk must keep its transient
jets within the stage's memory budget.
"""

import tracemalloc

import numpy as np
import pytest

from weyl4 import exprjet
from weyl4.catalog import builtin_manifolds, load_manifold_config
from weyl4.conditions import JET_BYTES, _chunk_points, point_context, stack_rows
from weyl4.exprjet import eval_jet, jconst
from weyl4.pointgeom import MetricError, MetricPoint

from conftest import perfbench_module

ORDERS = (2, 3, 4)
NAMES = [s.id for s in builtin_manifolds()] + ["sak_torus"]


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    path = tmp_path_factory.mktemp("sak") / "sak_torus.cfg"
    path.write_text(perfbench_module("workloads").sak_config(0.37))
    return {s.id: s for s in builtin_manifolds() + [load_manifold_config(str(path))]}


def stack_sizes(order):
    return (1, _chunk_points(order) + 1, 25)


def sample(spec, order):
    return spec.sample_points(max(stack_sizes(order)), np.random.default_rng(order))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", NAMES)
def test_stacked_columns_equal_single_points(specs, name, order):
    spec = specs[name]
    pts = sample(spec, order)
    single = [point_context(spec, p, order) for p in pts]
    for n in stack_sizes(order):
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
        single = np.stack([eval_jet(tape, p, order) for p in pts])
        for n in stack_sizes(order):
            assert np.array_equal(eval_jet(tape, pts[:n], order), single[:n]), n
        assert np.array_equal(eval_jet(tape, pts.reshape(-1, 1, 4), order), single[:, None])


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
    spec = specs["kahler_potential_generic"]
    pts = spec.sample_points(_chunk_points(order), np.random.default_rng(0))
    point_context(spec, pts, order)  # index tables and contraction plans are cached on the first call
    tracemalloc.start()
    try:
        point_context(spec, pts, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= JET_BYTES, (order, len(pts), peak)


def test_jmul_rows_have_the_bits_of_single_rows():
    rng = np.random.default_rng(3)
    for order in range(exprjet.MAX_ORDER + 1):
        a = rng.normal(size=(7, 3) + jconst(0.0, order).shape)
        b = rng.normal(size=a.shape)
        stacked = exprjet.jmul(a, b, order)
        for i in np.ndindex(a.shape[:-1]):
            assert np.array_equal(stacked[i], exprjet.jmul(a[i], b[i], order)), (order, i)


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
