"""Free differential calculus on words, and the cocycle matrix it induces.

The derivative of a word with respect to a generator lives in the integral
group ring of the free group; substituting a representation into the
derivatives of all relators linearizes the crossed-homomorphism condition
into one integer matrix.
"""

from __future__ import annotations

import operator

from .exactlinalg import IntMatrix, hstack, vstack
from .presentation import Presentation
from .representation import Representation, evaluate_group_ring
from .words import Generator, Word, invert, word_to_text


class GroupRingElement:
    """A finite integer combination of free-group words.

    Built from (word, coefficient) pairs and immutable by convention;
    ``terms`` maps each word to its nonzero coefficient.
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms=()):
        self.alphabet = tuple(alphabet)
        clean: dict[Word, int] = {}
        for word, coeff in terms:
            if word.alphabet != self.alphabet:
                raise ValueError("alphabet mismatch")
            c = clean.get(word, 0) + operator.index(coeff)
            if c:
                clean[word] = c
            elif word in clean:
                del clean[word]
        self.terms = clean

    @classmethod
    def zero(cls, alphabet) -> GroupRingElement:
        return cls(alphabet)

    @classmethod
    def one(cls, alphabet) -> GroupRingElement:
        alphabet = tuple(alphabet)
        return cls(alphabet, [(Word(alphabet), 1)])

    @classmethod
    def from_word(cls, word: Word, coeff: int = 1) -> GroupRingElement:
        return cls(word.alphabet, [(word, coeff)])

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __add__(self, other: GroupRingElement) -> GroupRingElement:
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        return GroupRingElement(self.alphabet, list(self.terms.items()) + list(other.terms.items()))

    def __neg__(self) -> GroupRingElement:
        return GroupRingElement(self.alphabet, [(w, -c) for w, c in self.terms.items()])

    def __sub__(self, other: GroupRingElement) -> GroupRingElement:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(self.alphabet, [(w, c * other) for w, c in self.terms.items()])
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        products = []
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                products.append((Word(self.alphabet, w1.letters + w2.letters), c1 * c2))
        return GroupRingElement(self.alphabet, products)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def involute(self) -> GroupRingElement:
        """Apply w -> w^-1 to every term (an anti-automorphism of the ring)."""
        return GroupRingElement(self.alphabet, [(invert(w), c) for w, c in self.terms.items()])

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = sorted((word_to_text(w) or "1", c) for w, c in self.terms.items())
        return " + ".join(f"{c}*{text}" for text, c in parts)


def fox_derivative(w: Word, gen: Generator) -> GroupRingElement:
    """Free derivative of w with respect to gen.

    Characterized by dg/dg = 1, dh/dg = 0 for h != g, d(g^-1)/dg = -g^-1 and
    the product rule d(uv)/dg = du/dg + u * dv/dg. The letter g at position
    k contributes +letters[:k], the letter g^-1 there -letters[:k + 1]:
    prefixes of a reduced word, so every term is a slice of w's letters,
    already reduced, and no term is reduced again.
    """
    if gen not in w.alphabet:
        raise ValueError(f"generator {gen.name!r} is not in the alphabet")
    alphabet, letters = w.alphabet, w.letters
    g_index = alphabet.index(gen)
    terms = []
    for k, (index, sign) in enumerate(letters):
        if index == g_index:
            if sign > 0:
                terms.append((Word._trusted(alphabet, letters[:k]), 1))
            else:
                terms.append((Word._trusted(alphabet, letters[: k + 1]), -1))
    return GroupRingElement(alphabet, terms)


def fundamental_identity_check(w: Word) -> bool:
    """Check sum over g in w's alphabet of (dw/dg) * (g - 1) == w - 1 in the group ring."""
    alphabet = w.alphabet
    total = GroupRingElement.zero(alphabet)
    one = GroupRingElement.one(alphabet)
    for index, gen in enumerate(alphabet):
        g = GroupRingElement.from_word(Word(alphabet, ((index, 1),)))
        total = total + fox_derivative(w, gen) * (g - one)
    return total == GroupRingElement.from_word(w) - one


def cocycle_matrix(p: Presentation, rep: Representation) -> IntMatrix:
    """The linearized cocycle conditions of a presentation.

    One block row per relator r and one block column per generator g; the
    (r, g) block is the action matrix of dr/dg. A stacked coefficient vector
    (d(g1), ..., d(gk)) is annihilated by this matrix exactly when the
    assignment extends to a crossed homomorphism of the presented group.
    """
    if rep.alphabet != p.generators:
        raise ValueError("alphabet mismatch")
    width = len(p.generators) * rep.rank
    block_rows = []
    for relator in p.relators:
        blocks = [
            evaluate_group_ring(rep, fox_derivative(relator, gen))
            for gen in p.generators
        ]
        block_rows.append(hstack(*blocks) if blocks else IntMatrix.zeros(rep.rank, 0))
    if not block_rows:
        return IntMatrix.zeros(0, width)
    return vstack(*block_rows)
