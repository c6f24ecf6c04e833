import random

import pytest

from twistedhom import (
    Generator,
    ParseError,
    Word,
    identity_word,
    invert,
    multiply,
    parse_word,
    word_to_text,
)
from twistedhom.words import MAX_WORD_LETTERS

from support import random_word

AB = (Generator("a"), Generator("b"))
ABGD = tuple(Generator(n) for n in "abgd")


def test_generator_name_rules():
    Generator("x_1")
    Generator("_tmp")
    for bad in ("", "1a", "a-b", "a b"):
        with pytest.raises(ValueError):
            Generator(bad)


def test_parse_simple():
    w = parse_word("a b a^-1", AB)
    assert len(w) == 3
    assert w.letters == ((0, 1), (1, 1), (0, -1))


def test_parse_reduces():
    assert parse_word("a a^-1 b", AB) == parse_word("b", AB)
    assert len(parse_word("a a^-1 b", AB)) == 1


def test_parse_exponent_expansion():
    w = parse_word("d^3", ABGD)
    assert w.letters == ((3, 1), (3, 1), (3, 1))
    assert parse_word("a^-2", AB).letters == ((0, -1), (0, -1))


def test_parse_caps_the_exponent():
    assert len(parse_word(f"b^-{MAX_WORD_LETTERS}", AB)) == MAX_WORD_LETTERS
    # Rejected before expansion: a billion letters would exhaust memory.
    for token in (f"a^{MAX_WORD_LETTERS + 1}", "a^-1000000000"):
        with pytest.raises(ParseError, match=f"word exceeds the limit of {MAX_WORD_LETTERS} letters") as err:
            parse_word(f"b {token}", AB)
        assert err.value.position == 1


def test_parse_caps_the_letters_of_a_word():
    assert len(parse_word(f"a^{MAX_WORD_LETTERS}", AB)) == MAX_WORD_LETTERS
    # Each token fits alone; the second would take the word past the
    # total, so it is rejected before it expands.
    part = MAX_WORD_LETTERS * 3 // 5
    with pytest.raises(ParseError, match=f"limit of {MAX_WORD_LETTERS} letters") as err:
        parse_word(f"a^{part} a^{part}", AB)
    assert err.value.position == 1
    # A thousand tokens at the cap would ask for a thousand times the cap.
    with pytest.raises(ParseError, match="letters") as err:
        parse_word(f"a^{MAX_WORD_LETTERS} " * 1000, AB)
    assert err.value.position == 1
    # Letters count before free reduction: a^part a^-part is rejected too.
    with pytest.raises(ParseError, match="letters"):
        parse_word(f"a^{part} a^-{part}", AB)
    assert len(parse_word(f"a^{MAX_WORD_LETTERS - 1} b", AB)) == MAX_WORD_LETTERS


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_word("a c", AB)
    assert err.value.position == 1
    with pytest.raises(ParseError):
        parse_word("a^x", AB)
    with pytest.raises(ParseError):
        parse_word("a^0", AB)


def test_multiply_cancellation():
    u = parse_word("a b", AB)
    v = parse_word("b^-1 a", AB)
    assert multiply(u, v) == parse_word("a a", AB)


def test_multiply_identity_neutral():
    w = parse_word("a b a", AB)
    e = identity_word(AB)
    assert multiply(w, e) == w
    assert multiply(e, w) == w


def test_multiply_no_cancellation():
    ag = parse_word("a g", ABGD)
    assert multiply(ag, ag) == parse_word("a g a g", ABGD)


def test_multiply_alphabet_mismatch():
    with pytest.raises(ValueError):
        multiply(parse_word("a", AB), parse_word("a", ABGD))


def test_invert():
    assert invert(parse_word("a b", AB)) == parse_word("b^-1 a^-1", AB)
    assert invert(identity_word(AB)) == identity_word(AB)
    assert invert(parse_word("d d", ABGD)) == parse_word("d^-1 d^-1", ABGD)
    assert invert(invert(parse_word("a b^-1 a", AB))) == parse_word("a b^-1 a", AB)


def test_construction_rejects_bad_letters():
    with pytest.raises(ValueError):
        Word(AB, ((2, 1),))
    with pytest.raises(ValueError):
        Word(AB, ((0, 2),))


@pytest.mark.parametrize("letter", [(0.0, 1), (0, 1.0), ("0", 1), (0, "1")])
def test_construction_rejects_non_integer_letters(letter):
    with pytest.raises(TypeError):
        Word(AB, (letter,))


def test_eager_reduction_invariant():
    w = Word(AB, ((0, 1), (0, -1), (1, 1), (1, 1), (1, -1)))
    assert w.letters == ((1, 1),)


def _is_reduced(w):
    return all(
        (a, sa) != (b, -sb) for (a, sa), (b, sb) in zip(w.letters, w.letters[1:])
    )


def test_word_algebra_axioms_randomized():
    rng = random.Random(20260811)
    for _ in range(100):
        u = random_word(rng, ABGD)
        v = random_word(rng, ABGD)
        w = random_word(rng, ABGD)
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
        assert multiply(w, invert(w)) == identity_word(ABGD)
        assert multiply(invert(w), w) == identity_word(ABGD)
        for result in (multiply(u, v), invert(w)):
            assert _is_reduced(result)
        assert parse_word(word_to_text(w), ABGD) == w


def test_parse_equals_the_checked_word_of_its_letters():
    # parse_word checks each token once and builds its word unchecked; on
    # token strings with exponents and cancelling pairs it must equal the
    # word that Word checks and reduces from the expanded letters.
    rng = random.Random(28)
    for _ in range(300):
        tokens, letters = [], []
        for _ in range(rng.randrange(10)):
            index, exponent = rng.randrange(len(ABGD)), rng.choice((1, -1, 2, -2, 3, -5))
            pair = [exponent, -exponent] if rng.random() < 0.3 else [exponent]
            for k in pair:
                tokens.append(ABGD[index].name if k == 1 else f"{ABGD[index].name}^{k}")
                letters += [(index, 1 if k > 0 else -1)] * abs(k)
        parsed = parse_word(" ".join(tokens), list(ABGD))
        expected = Word(ABGD, tuple(letters))
        assert parsed == expected and parsed.alphabet == ABGD and _is_reduced(parsed)


def test_word_hash_follows_equality():
    # Equal words hash equal, whichever constructor built them; the same
    # letters over two alphabets are unequal words and two dict keys.
    rng = random.Random(5)
    for _ in range(50):
        w = random_word(rng, ABGD, max_len=12)
        again = Word(ABGD, w.letters + ((0, 1), (0, -1)))
        trusted = Word._trusted(ABGD, w.letters)
        assert w == again == trusted
        assert hash(w) == hash(again) == hash(trusted)
    over_ab, over_abgd = Word(AB, ((0, 1), (1, -1))), Word(ABGD, ((0, 1), (1, -1)))
    assert over_ab != over_abgd
    counts = {over_ab: 1}
    counts[over_abgd] = 2
    assert len(counts) == 2 and counts[over_ab] == 1 and counts[over_abgd] == 2
