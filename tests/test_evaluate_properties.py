"""Property tests of evaluate_word and evaluate_group_ring against the
references in support, which multiply by the dense reference_product
letter by letter, on hypothesis-drawn actions, words and group-ring
elements."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from support import reference_evaluate_word, term_by_term_group_ring  # noqa: E402
from twistedhom import (  # noqa: E402
    CoefficientRing,
    Generator,
    GroupRingElement,
    IntMatrix,
    Representation,
    Word,
    evaluate_group_ring,
    evaluate_word,
    hstack,
    invert,
)

ALPHABETS = [tuple(Generator(f"g{i}") for i in range(k)) for k in range(1, 4)]
SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def invertible_matrices(draw, rank):
    """A signed permutation matrix times elementary row additions with
    multipliers of up to 40 bits: unimodular, so invertible over every ring.
    Sparse draws take at most one addition, dense ones up to 2 * rank."""
    permutation = draw(st.permutations(range(rank)))
    rows = [[0] * rank for _ in range(rank)]
    for i, j in enumerate(permutation):
        rows[i][j] = draw(st.sampled_from((1, -1)))
    if rank > 1:
        steps = draw(st.integers(0, 2 * rank) if draw(st.booleans()) else st.integers(0, 1))
        for _ in range(steps):
            i, j = draw(st.lists(st.integers(0, rank - 1), min_size=2, max_size=2, unique=True))
            c = draw(st.integers(-(2**40), 2**40))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows)


@st.composite
def actions(draw):
    """An action of 1-3 generators on A^rank, rank 1-6, over Z, Z/2, Z/3 or Z/4."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    rank = draw(st.integers(1, 6))
    modulus = draw(st.sampled_from((0, 2, 3, 4)))
    matrices = [draw(invertible_matrices(rank)) for _ in alphabet]
    return Representation.build(CoefficientRing(modulus), alphabet, matrices, rank=rank)


def words(alphabet, max_letters=30):
    letters = st.tuples(st.integers(0, len(alphabet) - 1), st.sampled_from((1, -1)))
    return st.lists(letters, max_size=max_letters).map(lambda ls: Word(alphabet, tuple(ls)))


@st.composite
def elements(draw, alphabet):
    """Prefixes of one word, as the terms of a Fox derivative are, and other
    words, with coefficients small and large; possibly no terms at all."""
    base = draw(words(alphabet))
    cuts = draw(st.lists(st.integers(0, len(base)), max_size=6))
    terms = [Word(alphabet, base.letters[:k]) for k in cuts] + draw(st.lists(words(alphabet, 8), max_size=3))
    coefficients = st.one_of(st.integers(-3, 3), st.integers(-(2**64), 2**64))
    return GroupRingElement(alphabet, [(word, draw(coefficients)) for word in terms])


@st.composite
def prefix_families(draw, alphabet):
    """Prefixes of one word split across 2-4 elements, as the Fox derivatives
    of one relator split its prefixes: none is the empty word, one sits in
    two elements, and the inverse of one, a word of the same length that
    neither extends nor is extended by it, joins a drawn element."""
    base = draw(words(alphabet, 40).filter(lambda w: len(w) >= 2))
    count = draw(st.integers(2, 4))
    cuts = draw(st.lists(st.integers(1, len(base)), min_size=1, max_size=10))
    terms = [[] for _ in range(count)]
    for k in cuts:
        terms[draw(st.integers(0, count - 1))].append(Word(alphabet, base.letters[:k]))
    shared = Word(alphabet, base.letters[: draw(st.sampled_from(cuts))])
    for k in draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=2, unique=True)):
        terms[k].append(shared)
    sibling = Word(alphabet, base.letters[: draw(st.sampled_from(cuts))])
    terms[draw(st.integers(0, count - 1))].append(invert(sibling))
    coefficients = st.one_of(st.integers(-3, 3), st.integers(-(2**64), 2**64))
    return [GroupRingElement(alphabet, [(word, draw(coefficients)) for word in ts]) for ts in terms]


@SETTINGS
@given(st.data())
def test_evaluate_word_equals_reference(data):
    rep = data.draw(actions())
    w = data.draw(words(rep.alphabet))
    assert evaluate_word(rep, w) == reference_evaluate_word(rep, w)


@SETTINGS
@given(st.data())
def test_evaluate_group_ring_equals_term_by_term(data):
    rep = data.draw(actions())
    drawn = data.draw(st.lists(elements(rep.alphabet), min_size=1, max_size=4))
    expected = hstack(*[term_by_term_group_ring(rep, e) for e in drawn])
    assert evaluate_group_ring(rep, *drawn) == expected


@SETTINGS
@given(st.data())
def test_evaluate_group_ring_walks_prefix_families(data):
    # The walk continues a term from the previous one only when it extends
    # it; a shared word, an equal-length sibling and a nonempty first term
    # each take the other branch or an empty continuation.
    rep = data.draw(actions())
    drawn = data.draw(prefix_families(rep.alphabet))
    expected = hstack(*[term_by_term_group_ring(rep, e) for e in drawn])
    assert evaluate_group_ring(rep, *drawn) == expected
