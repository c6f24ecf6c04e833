"""Property tests of Fox's fundamental formula as the relator checks read
it: block r of (J*P) mod n is M(r) - 1, for the action and for its dual,
whose J and P are h1_homology's d2 and d1 transposed, on hypothesis-drawn
actions and relators that need not hold."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from support import random_unimodular  # noqa: E402
from twistedhom import (  # noqa: E402
    CoefficientRing,
    Generator,
    IntMatrix,
    Presentation,
    Representation,
    Word,
    cocycle_matrix,
    dual,
    evaluate_word,
    principal_map,
    vstack,
)

SETTINGS = settings(max_examples=150, deadline=None)
UNITS = {0: (1, -1), 2: (1,), 3: (1, 2), 4: (1, 3), 6: (1, 5)}


@st.composite
def actions_and_relators(draw):
    """A random action over Z or Z/n and up to four random relators.

    Each matrix is a random unimodular matrix times a unit of the ring, so
    over Z/n it need not be invertible over Z.
    """
    alphabet = tuple(Generator(f"g{i}") for i in range(draw(st.integers(1, 3))))
    rank = draw(st.integers(1, 3))
    modulus = draw(st.sampled_from(sorted(UNITS)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    matrices = [random_unimodular(rng, rank, steps=8).scale(rng.choice(UNITS[modulus])) for _ in alphabet]
    rep = Representation.build(CoefficientRing(modulus), alphabet, matrices)
    letter = st.tuples(st.integers(0, len(alphabet) - 1), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letter, max_size=12), max_size=4))
    return Presentation(alphabet, tuple(Word(alphabet, tuple(r)) for r in relators)), rep


def relators_minus_one(p, rep):
    """The blocks M(r) - 1 mod n, one per relator, stacked."""
    identity = IntMatrix.identity(rep.rank)
    blocks = [(evaluate_word(rep, r) - identity).mod(rep.ring.modulus) for r in p.relators]
    return vstack(*blocks) if blocks else IntMatrix.zeros(0, rep.rank)


@SETTINGS
@given(actions_and_relators())
def test_j_times_p_is_each_relator_minus_one(pair):
    p, rep = pair
    JP = cocycle_matrix(p, rep) * principal_map(rep).matrix
    assert JP.mod(rep.ring.modulus) == relators_minus_one(p, rep)


@SETTINGS
@given(actions_and_relators())
def test_j_times_p_of_the_dual_fixes_the_relators_that_rep_fixes(pair):
    p, rep = pair
    co = dual(rep)
    stacked = relators_minus_one(p, co)
    assert (cocycle_matrix(p, co) * principal_map(co).matrix).mod(rep.ring.modulus) == stacked
    block = rep.rank * rep.rank
    dual_zero = [not any(stacked.entries[i * block : (i + 1) * block]) for i in range(len(p.relators))]
    assert dual_zero == [evaluate_word(rep, r) == IntMatrix.identity(rep.rank) for r in p.relators]
