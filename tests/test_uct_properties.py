"""Property tests of uct_check: every ring matches, and the expected side
equals the route that walks the dual action. Free groups acting by random
unimodular matrices have no relators, so their H_1(G; M^*) is free; the
presented inputs, with relators, give it torsion, whose Hom into Z/n the
expected side must carry too."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistedhom import (  # noqa: E402
    CoefficientRing,
    Generator,
    Presentation,
    Representation,
    uct_check,
    unimodular_inverse,
)

from support import perturbed_pair, random_unimodular, sl2_sym_example, walked_dual_uct_expected  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None)
MODULI = (2, 3, 4, 8, 9)


@st.composite
def free_group_actions(draw):
    gens = tuple(Generator(f"g{i}") for i in range(draw(st.integers(1, 3))))
    rank = draw(st.integers(1, 4))
    rng = draw(st.randoms(use_true_random=False))
    matrices = tuple(random_unimodular(rng, rank, steps=draw(st.integers(0, 8))) for _ in gens)
    return Presentation(gens, ()), Representation.build(CoefficientRing.integers(), gens, matrices, rank=rank)


@st.composite
def presented_actions(draw):
    """A built-in pair perturbed over Z, or SL(2, Z) on Sym^k Z^2, k <= 12,
    under a drawn unimodular change of basis."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        p, rep = perturbed_pair(rng)
        assume(rep.ring.modulus == 0)
        return p, rep
    example = sl2_sym_example(draw(st.integers(0, 12)))
    rep = example.representation
    q = random_unimodular(rng, rep.rank, steps=draw(st.integers(0, 8)))
    q_inv = unimodular_inverse(q)
    matrices = tuple(q * m * q_inv for m in rep.matrices)
    return example.presentation, Representation.build(rep.ring, rep.alphabet, matrices, rank=rep.rank)


def _assert_every_ring_matches(p, rep):
    comparisons = uct_check(p, rep, MODULI)
    assert [c.ring.modulus for c in comparisons] == [0, *MODULI]
    for c in comparisons:
        assert c.match, c
        assert c.expected == walked_dual_uct_expected(p, rep, c.ring), c


@SETTINGS
@given(free_group_actions())
def test_every_ring_matches_the_walked_dual_route(pair):
    _assert_every_ring_matches(*pair)


@SETTINGS
@given(presented_actions())
def test_presented_actions_match_the_walked_dual_route(pair):
    _assert_every_ring_matches(*pair)
