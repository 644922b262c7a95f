"""Curvature on the pair basis against the 4-index algebra it replaces.

``curvature_bundle`` carries R and W as jets of 6x6 matrices over the pairs
e_i ^ e_j (i < j), and the |W+|^2 and S* jets are formed on them.  Here the
packed jets are unpacked entry by entry (``paper_oracles.unpack_jets``) and
held against the 256-component R and W, the 16x16 form operator M of W and
the 4-index S* contraction, coefficient by coefficient, on every catalog
entry and on the benchmark's strictly almost-Kahler torus.
"""

import numpy as np
import pytest

from weyl4.catalog import builtin_manifolds, load_manifold_config
from weyl4.curvature import curvature_bundle
from weyl4.hermitian import s_star_jet
from weyl4.selfdual import wplus_norm2_jet

from conftest import perfbench_module
from paper_oracles import curvature_jets_full, s_star_jet_full, unpack_jets, wplus_norm2_jet_m2

NAMES = [s.id for s in builtin_manifolds()] + ["sak_torus"]


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """Order-4 curvature bundles at three points per entry, each with the jets of J."""
    path = tmp_path_factory.mktemp("sak") / "sak_torus.cfg"
    path.write_text(perfbench_module("workloads").sak_config(0.37))
    out = {}
    for spec in builtin_manifolds() + [load_manifold_config(str(path))]:
        pts = spec.sample_points(3, np.random.default_rng(5))
        out[spec.id] = [(curvature_bundle(spec.metric_point(p, 4)), spec.j_jets(p, 2)) for p in pts]
    return out


def curvature_scale(b):
    return max(1.0, float(np.abs(b.riem_v).max()), abs(b.S_v))


@pytest.mark.parametrize("name", NAMES)
def test_packed_riemann_satisfies_the_first_bianchi_identity(bundles, name):
    for b, _ in bundles[name]:
        R = b.riem  # pairs 01, 02, 03, 12, 13, 23
        cyclic = R[0, 5] - R[1, 4] + R[2, 3]
        assert np.abs(cyclic).max() <= 1e-12 * max(1.0, float(np.abs(R).max()))


@pytest.mark.parametrize("name", NAMES)
def test_unpacked_riemann_and_weyl_equal_the_four_index_jets(bundles, name):
    for b, _ in bundles[name]:
        for packed, value, full in zip((b.riem, b.weyl), (b.riem_v, b.weyl_v), curvature_jets_full(b.mp)):
            unpacked = unpack_jets(packed)
            # the values the frame stage reads are the pair matrices, with the 4-index maximum
            assert np.array_equal(packed[..., 0], value)
            assert np.abs(value).max() == np.abs(unpacked[..., 0]).max()
            assert np.abs(unpacked - full).max() <= 1e-12 * max(1.0, float(np.abs(full).max()))


@pytest.mark.parametrize("name", NAMES)
def test_wplus_norm2_and_s_star_jets_equal_the_four_index_algebra(bundles, name):
    for b, j_jets in bundles[name]:
        for got, ref, weight in ((wplus_norm2_jet(b, j_jets), wplus_norm2_jet_m2(b, j_jets), 2),
                                 (s_star_jet(b, j_jets), s_star_jet_full(b, j_jets), 1)):
            assert got.shape == ref.shape == b.S.shape  # order 2: every coefficient up to the second
            scale = max(float(np.abs(ref).max()), curvature_scale(b) ** weight)
            assert np.abs(got - ref).max() <= 1e-12 * scale
