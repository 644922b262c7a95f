"""Stacked-basis frame kernels against the per-element formulas they replace.

Each oracle below is the element-by-element definition (one operator image
and one weighted pairing at a time), kept here the way ``broadcast_reference``
in test_exprjet.py serves ``jeinsum``.  The kernels read R, W and nabla W as
6x6 pair matrices; their references read the 4-index values
(``paper_oracles.unpack``) through the 4-index algebra the pair kernels
replaced.  The kernels that read Lambda+ through the J-splitting (u .| W+,
delta W+, the |W+|^2 jet) are also held against the Hodge-star operator
algebra of ``paper_oracles``.  The frame kernels run on every catalog entry
and on a strictly almost-Kahler torus, at one point of each with the
supplement (I, K) rotated.
"""

import dataclasses
import math

import numpy as np
import pytest

from weyl4.catalog import builtin_manifolds, load_manifold_config
from weyl4.curvature import bivector, curvature_bundle, pair_operator
from weyl4.exprjet import jeinsum, jmatinv, jpartials, tables
from weyl4.hermitian import q_j_integrand
from weyl4.pointgeom import adjoint_endo, endo_to_form, inner_endo, inner_endos
from weyl4.selfdual import delta_wpm, nabla_w_sd_matrices, wplus_interior, wplus_norm2_jet

from paper_oracles import (
    apply_form_operator,
    asd_endos,
    chart_orientation,
    delta_w_projected,
    form_operator,
    form_to_endo,
    _r_op,
    frame_reference,
    interior_product,
    pm_projectors,
    rtilde_table,
    star_ricci_family_4index,
    tensor_operator,
    unpack,
    weyl_operator,
    wminus_matrix,
    wplus_04,
    wplus_04_star,
    wplus_norm2_jet_star,
)

TWO_PI = repr(2.0 * math.pi)

# strictly almost-Kahler, non-homogeneous torus: g = diag(e^{-2a}, e^{2a}, 1, 1),
# a = 0.3 sin 2 pi z, J = -g^{-1} omega_0 with omega_0 = dx^dy + dz^dt
SAK_TORUS = f"""[manifold]
id = sak_torus_test
coords = x, y, z, t
compact = true
domain = 0..1, 0..1, 0..1, 0..1

[metric]
g_11 = exp(-0.6*sin({TWO_PI}*z))
g_22 = exp(0.6*sin({TWO_PI}*z))
g_33 = 1
g_44 = 1

[structure]
J_1_2 = -exp(0.6*sin({TWO_PI}*z))
J_2_1 = exp(-0.6*sin({TWO_PI}*z))
J_3_4 = -1
J_4_3 = 1
"""

J_IDS = [s.id for s in builtin_manifolds() if s.has_j]


@pytest.fixture(scope="module")
def sak_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("sak") / "sak_torus.cfg"
    path.write_text(SAK_TORUS)
    return load_manifold_config(str(path))


@pytest.fixture(scope="module")
def contexts(sak_spec):
    """Order-4 frame data at two points per catalog entry with a J, and on the test torus, then at
    a third point with the supplement (I, K) rotated by 0.7."""
    specs = [s for s in builtin_manifolds() if s.has_j] + [sak_spec]
    rng = np.random.default_rng(17)
    refs = {s.id: [frame_reference(s, p, 4) for p in s.sample_points(2, rng)] for s in specs}
    for s in specs:
        refs[s.id].append(frame_reference(s, s.sample_points(1, rng)[0], 4, alpha=0.7))
    return refs


def assert_close(got, ref, c):
    scale = max(c.curvature_scale, float(np.abs(ref).max()))
    assert np.shape(got) == np.shape(ref)
    assert np.abs(np.asarray(got) - ref).max() <= 1e-13 * scale


IDS = J_IDS + ["sak_torus_test"]


def pairing_oracle(endos, image, mp):
    return np.array([[inner_endo(A, image(B), mp) for B in endos] for A in endos])


def assert_within_scale(got, ref, scale):
    """|got - ref| <= 1e-12 scale, entry by entry, for every field of a frame result."""
    assert np.shape(got) == np.shape(ref)
    assert np.abs(np.asarray(got) - ref).max() <= 1e-12 * scale


@pytest.mark.parametrize("sid", IDS)
class TestFrameKernels:
    def test_weyl_matrices(self, contexts, sid):
        for c in contexts[sid]:
            image = lambda B: tensor_operator(unpack(c.bundle.weyl_v), B, c.mp)
            assert_close(c.wplus.m, pairing_oracle(c.basis, image, c.mp), c)
            assert_close(wminus_matrix(c.bundle, c.frame).m, pairing_oracle(asd_endos(c.frame), image, c.mp), c)

    def test_nabla_wplus_matrices(self, contexts, sid):
        for c in contexts[sid]:
            mp = c.mp
            ref = np.empty((4, 3, 3))
            for p in range(4):
                M = form_operator(unpack(c.bundle.nabla_weyl[p]), mp)
                image = lambda B: form_to_endo(
                    apply_form_operator(M, endo_to_form(B, mp)), mp, check=False
                )
                ref[p] = pairing_oracle(c.basis, image, mp)
            assert_close(nabla_w_sd_matrices(c.bundle, c.basis), ref, c)

    def test_delta_wpm(self, contexts, sid):
        for c in contexts[sid]:
            P = pm_projectors(c.mp, chart_orientation(c.acs.J, c.mp))[0]
            assert_close(delta_wpm(c.bundle, c.basis), delta_w_projected(c.bundle, P), c)

    def test_wplus_04(self, contexts, sid):
        # u .| W+ contracted from the 3x3 matrix, against W+ as a (0,4) tensor from the matrix and from the star
        u = np.array([0.3, -1.1, 0.7, 0.2])
        for c in contexts[sid]:
            got = wplus_interior(u, c.wplus.m, c.basis, c.mp)
            assert_within_scale(got, interior_product(u, wplus_04(c.wplus.m, c.basis, c.mp), c.mp), c.curvature_scale)
            ref = wplus_04_star(unpack(c.bundle.weyl_v), c.mp, chart_orientation(c.acs.J, c.mp))
            assert_close(got, interior_product(u, ref, c.mp), c)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_wplus_norm2_jet(self, sak_spec, sid, order):
        # the value and every partial up to the second, against (tr W^2 + tr(W^2 star))/2
        spec = sak_spec if sid == "sak_torus_test" else {s.id: s for s in builtin_manifolds()}[sid]
        for p in spec.sample_points(2, np.random.default_rng(23)):
            b = curvature_bundle(spec.metric_point(p, order))
            j_jets = spec.j_jets(p, 2)
            got = wplus_norm2_jet(b, j_jets)
            ref = wplus_norm2_jet_star(b, chart_orientation(j_jets[..., 0], b.mp))
            ks = range(min(order - 2, 2) + 1)
            scale = max(max(1.0, float(np.abs(b.riem_v).max()), abs(b.S_v)) ** 2,
                        *(float(np.abs(jpartials(ref, k)).max()) for k in ks))
            for k in ks:
                assert np.abs(jpartials(got, k) - jpartials(ref, k)).max() <= 1e-12 * scale, k

    def test_star_ricci_family(self, contexts, sid):
        for c in contexts[sid]:
            mp, J, I, K, star = c.mp, c.acs.J, c.frame.I, c.frame.K, c.star
            r_op = _r_op(c.bundle)

            def star_ricci(A):
                return np.einsum("mi,nk,kl,mnal->ai", A, A, mp.g_inv, r_op)

            def skew(A):
                return 0.5 * (A - adjoint_endo(A, mp))

            rt = rtilde_table(c.bundle, J, r_op)

            def rtilde(A):
                return np.einsum("pk,km,pmab->ab", A, mp.g_inv, rt)

            assert_close(star.ric_star, star_ricci(J), c)
            assert_close(star.ric_tri, star_ricci(I), c)
            assert_close(star.ric_box, star_ricci(K), c)
            assert_close(star.rtilde_I, rtilde(I), c)
            assert_close(star.rtilde_K, rtilde(K), c)
            rtp = [0.5 * (rtilde(A) + rtilde(J @ A) @ J) for A in (I, K)]
            rtm = [rtilde(A) - p for A, p in zip((I, K), rtp)]
            n2 = lambda ms: sum(inner_endo(A, A, mp) for A in ms)
            curv2 = c.curvature_scale**2
            for got, ref in (
                (star.rt2, n2([rtilde(I), rtilde(K)])),
                (star.rtp2, n2(rtp)),
                (star.rtm2, n2(rtm)),
                (star.ric_star_minus2, n2([skew(star_ricci(J))])),
                (star.ric_tri_minus2, n2([skew(star_ricci(I))])),
                (star.ric_box_minus2, n2([skew(star_ricci(K))])),
            ):
                assert abs(got - ref) <= 1e-13 * max(curv2, abs(ref))
            # every field against the 4-index family, the quadratic ones on the squared scale
            ref = star_ricci_family_4index(c.bundle, c.acs, c.frame)
            for f in dataclasses.fields(star):
                scale = c.curvature_scale ** (2 if f.name.endswith("2") else 1)
                assert_within_scale(getattr(star, f.name), getattr(ref, f.name), scale)

    def test_weyl_operator_at_j(self, contexts, sid):
        # W(J) from the pair matrix of W, as EQ48 reads it, against R(J) - {Ric, J} + (S/3) J on 4 indices
        for c in contexts[sid]:
            mp, b, J = c.mp, c.bundle, c.acs.J
            got = pair_operator(bivector(J @ mp.g_inv)[None], b.weyl_v, mp.g_inv)[0]
            assert_within_scale(got, weyl_operator(J, unpack(b.riem_v), b.ric_v, b.S_v, mp), c.curvature_scale)
            assert_within_scale(got, tensor_operator(unpack(b.weyl_v), J, mp), c.curvature_scale)

    def test_nabla_j_pairings(self, contexts, sid):
        for c in contexts[sid]:
            mp, nj = c.mp, c.nj
            xi = [inner_endo(c.frame.I, nj.nabla_j[m], mp) for m in range(4)]
            eta = [inner_endo(c.frame.K, nj.nabla_j[m], mp) for m in range(4)]
            inner = [[inner_endo(nj.nabla_j[k], nj.nabla_j[m], mp) for m in range(4)] for k in range(4)]
            scale = max(1.0, float(np.abs(nj.nabla_j).max()))
            assert np.abs(nj.xi_form - xi).max() <= 1e-13 * scale
            assert np.abs(nj.eta_form - eta).max() <= 1e-13 * scale
            assert abs(nj.norm2 - np.einsum("km,km->", mp.g_inv, inner)) <= 1e-13 * scale**2

    def test_q_j_integrand(self, contexts, sid):
        for c in contexts[sid]:
            mp, J = c.mp, c.acs.J
            ref = np.einsum("ka,lb,ca,db,ed,klec->", mp.g_inv, mp.g_inv, J, J, mp.g, c.bundle.nabla2_ric)
            scale = max(c.curvature_scale, float(np.abs(c.bundle.nabla2_ric).max()))
            assert abs(q_j_integrand(c.bundle, c.acs.J) - ref) <= 1e-13 * scale

    def test_inverse_jets_stop_at_order_minus_one(self, contexts, sid):
        for c in contexts[sid]:
            mp = c.mp
            assert mp.inv_jets.shape == (4, 4, tables(mp.order - 1).ncoef)
            full = jmatinv(mp.jets, mp.order)[..., : tables(mp.order - 1).ncoef]
            assert np.abs(mp.inv_jets - full).max() <= 1e-14 * max(1.0, float(np.abs(full).max()))


def test_inner_endos_is_the_pairing_matrix(contexts):
    c = contexts["kodaira_thurston"][0]
    As = np.concatenate([c.basis, np.stack(asd_endos(c.frame))])
    ref = np.array([[inner_endo(A, B, c.mp) for B in As] for A in As])
    assert np.abs(inner_endos(As, As, c.mp) - ref).max() <= 1e-14


@pytest.mark.parametrize("subscripts", ["ij,ij->ij", "ii,ij->j", "ij,jk->ik,", "ij,jk", "ij,jk->il", "ij->j"])
def test_jeinsum_rejects_non_contractions(subscripts):
    a = np.zeros((4, 4, tables(2).ncoef))
    with pytest.raises(ValueError):
        jeinsum(subscripts, a, a, 2)
