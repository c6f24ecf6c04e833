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
from twistedhom.fox import _FOX_PIECE_LETTERS
from twistedhom.words import _HASH_WINDOW, MAX_WORD_LETTERS

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
    expected = Word(AB, ((0, 1), (0, -1), (1, -1), (1, -1), (1, -1), (0, 1), (0, 1)))
    assert parse_word("a a^-1 b^-3 a^2", AB) == expected and expected.letters == ((1, -1),) * 3 + ((0, 1),) * 2
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


def _reduced_letters(rng, length):
    """The letters of a random freely reduced word over ABGD."""
    letters = []
    while len(letters) < length:
        letter = (rng.randrange(len(ABGD)), rng.choice((1, -1)))
        if not letters or letters[-1] != (letter[0], -letter[1]):
            letters.append(letter)
    return tuple(letters)


@pytest.mark.parametrize("length", [0, 1, _HASH_WINDOW - 1, _HASH_WINDOW, _HASH_WINDOW + 1, 5 * _HASH_WINDOW])
def test_word_hash_follows_equality_around_the_window(length):
    # The hash reads the length and the last _HASH_WINDOW letters; below, at
    # and above that window, equal words hash equal from either constructor.
    letters = _reduced_letters(random.Random(length), length)
    checked = Word(ABGD, ((0, 1), (0, -1)) + letters)
    trusted = Word._trusted(ABGD, letters)
    assert len(checked) == length and checked == trusted
    assert hash(checked) == hash(trusted) == hash(Word._trusted(ABGD, tuple(list(letters))))


def test_every_prefix_of_a_long_word_is_its_own_key():
    # The 10 001 prefixes of a word at the cap hash apart. They are hashed
    # one at a time: held together they would take 50 M letters. A dict
    # holds the prefixes of one Fox piece, as fox_derivative's terms do.
    letters = _reduced_letters(random.Random(29), MAX_WORD_LETTERS)
    hashes = {hash(Word._trusted(ABGD, letters[:k])) for k in range(MAX_WORD_LETTERS + 1)}
    assert len(hashes) == MAX_WORD_LETTERS + 1
    prefixes = {Word._trusted(ABGD, letters[:k]): k for k in range(_FOX_PIECE_LETTERS + 1)}
    assert len(prefixes) == _FOX_PIECE_LETTERS + 1
    assert all(len(word) == k and prefixes[Word(ABGD, word.letters)] == k for word, k in prefixes.items())


def test_words_that_differ_before_the_window_are_two_keys():
    # Same length and same last _HASH_WINDOW letters: the hashes collide,
    # which costs an equality test, and the dict still tells them apart.
    tail = ((1, 1), (2, 1)) * _HASH_WINDOW
    u, v = Word(ABGD, ((0, 1),) + tail), Word(ABGD, ((3, 1),) + tail)
    assert len(u) == len(v) and u.letters[-_HASH_WINDOW:] == v.letters[-_HASH_WINDOW:]
    assert u != v and hash(u) == hash(v)
    counts = {u: 1}
    counts[v] = 2
    assert len(counts) == 2 and counts[u] == 1 and counts[v] == 2


def test_single_letter_tokens_count_against_the_cap():
    rng = random.Random(30)
    tokens = [rng.choice(("a", "a^-1", "b", "b^-1")) for _ in range(MAX_WORD_LETTERS)]
    letters = [(0 if t[0] == "a" else 1, -1 if t.endswith("^-1") else 1) for t in tokens]
    assert parse_word(" ".join(tokens), AB) == Word(AB, tuple(letters))
    for extra in ("a", "a^-1"):
        with pytest.raises(ParseError) as err:
            parse_word(" ".join(tokens + [extra]), AB)
        assert str(err.value) == f"token {MAX_WORD_LETTERS}: word exceeds the limit of {MAX_WORD_LETTERS} letters"
        assert err.value.position == MAX_WORD_LETTERS


@pytest.mark.parametrize(
    "token, letters, error",
    [
        ("a^1", ((0, 1),), None),
        ("a^01", ((0, 1),), None),
        ("a^-01", ((0, -1),), None),
        ("a^+1", None, "token 1: malformed exponent '+1'"),
        ("a^-", None, "token 1: malformed exponent '-'"),
        ("a^--1", None, "token 1: malformed exponent '--1'"),
        ("c^-1", None, "token 1: unknown generator 'c'"),
        ("A", None, "token 1: unknown generator 'A'"),
    ],
)
def test_other_spellings_go_through_the_exponent_parser(token, letters, error):
    if error is None:
        assert parse_word(f"b {token}", AB).letters == ((1, 1),) + letters
    else:
        with pytest.raises(ParseError) as err:
            parse_word(f"b {token}", AB)
        assert str(err.value) == error and err.value.position == 1
