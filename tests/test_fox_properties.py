"""Property tests of fox_derivative against the reference derivative, which
builds and reduces every term again, on hypothesis-drawn reduced words."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from support import is_freely_reduced, reference_fox_derivative  # noqa: E402
from twistedhom import Generator, Word, fox_derivative  # noqa: E402

ALPHABETS = [tuple(Generator(f"g{i}") for i in range(k)) for k in range(1, 5)]
SETTINGS = settings(max_examples=200, deadline=None)


@st.composite
def reduced_words(draw, max_letters=60):
    alphabet = draw(st.sampled_from(ALPHABETS))
    letters = draw(
        st.lists(st.tuples(st.integers(0, len(alphabet) - 1), st.sampled_from((1, -1))), max_size=max_letters)
    )
    return Word(alphabet, tuple(letters))


@SETTINGS
@given(reduced_words())
def test_matches_reference(w):
    for gen in w.alphabet:
        derivative = fox_derivative(w, gen)
        assert derivative == reference_fox_derivative(w, gen)
        for word in derivative.terms:
            assert is_freely_reduced(word.letters)
            assert word.letters == w.letters[: len(word.letters)]


@SETTINGS
@given(reduced_words())
def test_trusted_prefix_equals_public_word(w):
    for k in range(len(w) + 1):
        trusted = Word._trusted(w.alphabet, w.letters[:k])
        public = Word(w.alphabet, w.letters[:k])
        assert trusted == public and hash(trusted) == hash(public)
