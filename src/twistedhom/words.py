"""Free-group words over a named generator alphabet.

Words are freely reduced sequences of signed letters. Every constructor
reduces eagerly, so word equality is equality in the free group, and all
values are immutable.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

from .exactlinalg import _read_integer

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Largest number of letters a parsed word may expand to, counted before free
# reduction and checked before each token name^k expands to |k| letters. Fox
# calculus walks a relator in pieces of at most 1 024 letters, and a Word
# hashes a bounded window of its letters, so its time and memory are linear
# in the length: `twistedhom --compute coh1,h1` on e2 plus `relator: a^10000`
# takes 0.46 s and 21 MB of peak RSS, and plus one random relator of 9 999
# letters that holds in the group 0.50 s and 21 MB (e2 alone: 0.10 s, 16 MB;
# Python 3.11, 2 vCPUs). Over Z the entries of J grow with the length instead,
# to 272 bits for a random relator of 10 000 letters, and that growth is what
# holds the cap. No shipped or generated relator has more than about 210
# letters.
MAX_WORD_LETTERS = 10_000

# Most trailing letters of a word that Word.__hash__ reads.
_HASH_WINDOW = 16


class ParseError(ValueError):
    """Malformed word text; ``position`` is the 0-based token index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"token {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class Generator:
    """A named free-group generator."""

    name: str

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ValueError(f"invalid generator name {self.name!r}")

    def __repr__(self):
        return self.name


def _free_reduce(letters):
    out: list[tuple[int, int]] = []
    for index, sign in letters:
        if out and out[-1] == (index, -sign):
            out.pop()
        else:
            out.append((index, sign))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; letters are (generator index, sign) pairs."""

    alphabet: tuple[Generator, ...]
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        letters = tuple((operator.index(i), operator.index(s)) for i, s in self.letters)
        for index, sign in letters:
            if not 0 <= index < len(self.alphabet):
                raise ValueError(f"letter index {index} out of range")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        object.__setattr__(self, "letters", _free_reduce(letters))

    @classmethod
    def _trusted(cls, alphabet: tuple[Generator, ...], letters: tuple[tuple[int, int], ...]) -> Word:
        """A word from a tuple alphabet and a tuple of letters, taken as is.

        For letters already valid and freely reduced, such as a slice of a
        word's letters; Word(...) checks and reduces its letters.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", letters)
        return self

    def __hash__(self):
        # Equal words have equal letters, so the length and the last
        # _HASH_WINDOW letters hash them alike. The window bounds the cost:
        # the prefix terms of one Fox derivative hash O(L) letters together,
        # not O(L^2), and two distinct words of one length that end alike only
        # collide, which costs an equality test and never an answer. A word
        # of at most _HASH_WINDOW letters hashes its whole tuple, which the
        # slice returns as is. The alphabet is left out because hashing it
        # calls Generator.__hash__ once per generator.
        letters = self.letters
        return hash(letters[-_HASH_WINDOW:]) ^ len(letters)

    def __len__(self):
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __repr__(self):
        return f"<{word_to_text(self) or '1'}>"


def identity_word(alphabet) -> Word:
    return Word(tuple(alphabet), ())


def multiply(u: Word, v: Word) -> Word:
    """Freely reduced product u*v; both words must share one alphabet."""
    if u.alphabet != v.alphabet:
        raise ValueError("alphabet mismatch")
    return Word(u.alphabet, u.letters + v.letters)


def invert(w: Word) -> Word:
    """Inverse word: letters reversed with flipped signs."""
    return Word(w.alphabet, tuple((i, -s) for i, s in reversed(w.letters)))


def parse_word(text: str, alphabet) -> Word:
    """Parse whitespace-separated tokens ``name``, ``name^-1`` or ``name^k``.

    A token ``name^k``, with k a nonzero integer written as an optional '-'
    and at most MAX_INPUT_DIGITS ASCII digits, expands to |k| copies of the
    signed letter; the result is freely reduced. The tokens together may
    expand to at most MAX_WORD_LETTERS letters.
    """
    alphabet = tuple(alphabet)
    # The letter of each token form word_to_text writes, name and name^-1, so
    # such a token takes one lookup; any other goes through the exponent
    # parser below, which finds its name among the plain forms.
    letter_of = {}
    for i, gen in enumerate(alphabet):
        letter_of[gen.name] = (i, 1)
        letter_of[f"{gen.name}^-1"] = (i, -1)
    letters: list[tuple[int, int]] = []
    for position, token in enumerate(text.split()):
        letter = letter_of.get(token)
        if letter is not None:
            if len(letters) >= MAX_WORD_LETTERS:
                raise ParseError(f"word exceeds the limit of {MAX_WORD_LETTERS} letters", position)
            letters.append(letter)
            continue
        name, caret, exponent_text = token.partition("^")
        if caret:
            exponent = _read_integer(exponent_text)
            if exponent is None:
                raise ParseError(f"malformed exponent {exponent_text!r}", position)
            if exponent == 0:
                raise ParseError("zero exponent", position)
        else:
            exponent = 1
        if name not in letter_of:
            raise ParseError(f"unknown generator {name!r}", position)
        if len(letters) + abs(exponent) > MAX_WORD_LETTERS:
            raise ParseError(f"word exceeds the limit of {MAX_WORD_LETTERS} letters", position)
        sign = 1 if exponent > 0 else -1
        letters.extend([(letter_of[name][0], sign)] * abs(exponent))
    # Each token was checked above, so the letters skip Word's checks.
    return Word._trusted(alphabet, _free_reduce(letters))


def word_to_text(w: Word) -> str:
    """Canonical text form: ``name`` / ``name^-1`` tokens joined by single spaces.

    ``parse_word`` is a left inverse of this printer; the empty word prints
    as the empty string.
    """
    return " ".join(
        w.alphabet[i].name if s > 0 else f"{w.alphabet[i].name}^-1"
        for i, s in w.letters
    )
