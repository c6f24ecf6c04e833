"""Property tests of uct_check on free groups acting by random unimodular
matrices: every ring matches, and the expected side equals the route that
walks the dual action."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistedhom import CoefficientRing, Generator, Presentation, Representation, uct_check  # noqa: E402

from support import random_unimodular, walked_dual_uct_expected  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def free_group_actions(draw):
    gens = tuple(Generator(f"g{i}") for i in range(draw(st.integers(1, 3))))
    rank = draw(st.integers(1, 4))
    rng = draw(st.randoms(use_true_random=False))
    matrices = tuple(random_unimodular(rng, rank, steps=draw(st.integers(0, 8))) for _ in gens)
    return Presentation(gens, ()), Representation.build(CoefficientRing.integers(), gens, matrices, rank=rank)


@SETTINGS
@given(free_group_actions())
def test_every_ring_matches_the_walked_dual_route(pair):
    p, rep = pair
    for c in uct_check(p, rep, (2, 3, 4, 8)):
        assert c.match, c
        assert c.expected == walked_dual_uct_expected(p, rep, c.ring), c
