"""Random-manifold oracle: strictly almost-Kahler tori drawn by Hypothesis.

g = diag(e^{-2a}, e^{2a}, 1, 1) and J = -g^{-1} omega_0, with
omega_0 = dx^dy + dz^dt and a a random trigonometric polynomial in
x, y, z and t.  J is g-orthogonal and its fundamental form is the constant
omega_0 up to sign, so it is closed for every a: each torus is almost Kahler.
When a depends on z or t, nabla J does not vanish (a function of x and y
alone gives a Kahler product of a surface and a flat plane), so the torus is
strictly almost Kahler, and the Kahler identities EQ01 (|W+|^2 = S^2/6) must
fail while every identity stated for all or for almost-Kahler structures holds.
"""

import itertools
import math

from hypothesis import given, settings, strategies as st

from weyl4.catalog import ManifoldSpec
from weyl4.conditions import REGISTRY, classify_structure, run_suite
from weyl4.exprjet import parse_expression

XYZT = ("x", "y", "z", "t")
TWO_PI = repr(2.0 * math.pi)

# integer frequency vectors up to sign (first nonzero component positive), so
# that distinct terms are linearly independent and cannot cancel
FREQS = [k for k in itertools.product((-1, 0, 1, 2), repeat=4) if any(k) and next(c for c in k if c) > 0]
FREQS_ZT = [k for k in FREQS if k[2] or k[3]]

ROWS = [r.id for r in REGISTRY.values() if r.applicability in ("all", "almost-kahler")]
NOT_IDENTITIES_HERE = ("EQ01", "EQ02", "EQ06")  # Kahler relations, stated as almost-Kahler rows


def _term(amplitude, freq, phase):
    arg = " + ".join(f"{c}*{x}" for c, x in zip(freq, XYZT) if c)
    return f"{amplitude!r}*sin({TWO_PI}*({arg}) + {phase!r})"


@st.composite
def sak_potentials(draw):
    """Text of a = sum A_i sin(2 pi k_i . X + phi_i): 1 to 3 terms, distinct
    frequencies, the first depending on z or t, amplitudes in [0.05, 0.3]."""
    first = draw(st.sampled_from(FREQS_ZT))
    rest = draw(st.lists(st.sampled_from(FREQS), max_size=2, unique=True).filter(lambda ks: first not in ks))
    terms = []
    for freq in [first] + rest:
        amplitude = draw(st.floats(min_value=0.05, max_value=0.3))
        phase = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
        terms.append(_term(amplitude, freq, phase))
    return " + ".join(terms)


def sak_torus(a: str) -> ManifoldSpec:
    def grid(entries):
        return tuple(tuple(parse_expression(entries.get((i, j), "0"), XYZT) for j in range(4)) for i in range(4))

    down, up = f"exp(-2*({a}))", f"exp(2*({a}))"
    return ManifoldSpec(
        id="random_sak_torus",
        coords=XYZT,
        metric_exprs=grid({(0, 0): down, (1, 1): up, (2, 2): "1", (3, 3): "1"}),
        j_exprs=grid({(0, 1): f"-{up}", (1, 0): down, (2, 3): "-1", (3, 2): "1"}),
        domain=((0.0, 1.0),) * 4,
        compact=True,
        tags=frozenset({"almost-kahler"}),
        notes=f"a = {a}",
    )


@settings(max_examples=8, deadline=None)
@given(sak_potentials(), st.integers(min_value=0, max_value=2**16))
def test_random_strictly_almost_kahler_torus(a, seed):
    spec = sak_torus(a)
    verdict, _ = classify_structure(spec, 5, seed=seed)
    assert verdict == "almost-Kähler non-Kähler"

    report = run_suite(spec, 5, seed=seed, identities=ROWS)
    assert report.tags["almost-kahler"]["confirmed"]
    verdicts = {row["id"]: row["verdict"] for row in report.identities}
    assert verdicts["EQ01"] == "violated (expected: strictly almost Kahler)"
    failing = {rid: v for rid, v in verdicts.items() if rid not in NOT_IDENTITIES_HERE and v != "pass"}
    assert not failing, failing
