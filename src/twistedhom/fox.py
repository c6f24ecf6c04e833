"""Free differential calculus on words, and the cocycle matrix it induces.

The derivative of a word with respect to a generator lives in the integral
group ring of the free group; substituting a representation into the
derivatives of all relators linearizes the crossed-homomorphism condition
into one integer matrix. That matrix is built from its nonzero rows: a
relator's block row is nonzero only in the blocks of the generators it
uses, so only those are walked, and the dense matrix is never formed.
"""

from __future__ import annotations

import operator

from .exactlinalg import IntMatrix, _nonzero_rows, vstack
from .presentation import Presentation
from .representation import Representation, evaluate_group_ring
from .words import Generator, Word, invert, word_to_text

# Most letters of one piece of a relator in cocycle_matrix. The walk over a
# piece holds all its prefixes at once, about 0.5 M letters at this length.
_FOX_PIECE_LETTERS = 1024


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
    def _trusted(cls, alphabet: tuple[Generator, ...], terms: dict[Word, int]) -> GroupRingElement:
        """An element from a tuple alphabet and a dict of words over it with
        nonzero coefficients, taken as is; GroupRingElement(...) checks the
        alphabet of every word and merges equal words."""
        self = object.__new__(cls)
        self.alphabet = alphabet
        self.terms = terms
        return self

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
    # The terms need no merging: w is freely reduced, so g^-1 at position k
    # is never followed by g, and the prefixes letters[:k] (for g) and
    # letters[:k + 1] (for g^-1) are pairwise distinct. Each word is hashed
    # once, as it enters the dict; the coefficient is the letter's sign.
    terms = {
        Word._trusted(alphabet, letters[:k] if sign > 0 else letters[: k + 1]): sign
        for k, (index, sign) in enumerate(letters)
        if index == g_index
    }
    return GroupRingElement._trusted(alphabet, terms)


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
    """The linearized cocycle conditions of a presentation, as nonzero rows.

    One block row per relator r and one block column per generator g; the
    (r, g) block is the action matrix of dr/dg. A stacked coefficient vector
    (d(g1), ..., d(gk)) is annihilated by this matrix exactly when the
    assignment extends to a crossed homomorphism of the presented group.

    Block (r, g) is zero unless g occurs in r, so each relator's rows are
    read off one evaluate_group_ring walk over the derivatives by the
    generators it uses, in ascending order: the nonzero rows of the walk's
    dense block row are read by _nonzero_rows, and each column is
    relabelled by its generator's block. J is built from these rows and
    never held densely.

    A relator is cut into pieces r = u_1 ... u_m of at most
    _FOX_PIECE_LETTERS letters, and one walk over a piece u gives its block
    row B(u). The product rule joins them, B(r) = sum_c M(u_1 ... u_(c-1))
    * B(u_c), and Fox's fundamental formula advances the prefix matrix by
    one product per piece, M(u) = 1 + B(u)*P, where P stacks the blocks
    M_g - 1 of the relator's generators. So the walk holds the prefixes of
    one piece at a time, and its memory is linear in the relator's length.
    A generator of the relator that a piece lacks is given one shared zero
    element, whose block evaluate_group_ring writes as zeros. A relator
    with no letters has zero rows, and no walk.
    """
    if rep.alphabet != p.generators:
        raise ValueError("alphabet mismatch")
    n, rank, identity = rep.ring.modulus, rep.rank, IntMatrix.identity(rep.rank)
    zero = GroupRingElement.zero(p.generators)
    differences = None
    nonzero = []
    for relator in p.relators:
        letters = relator.letters
        used = sorted({index for index, _ in letters})
        if not used:
            nonzero += [[] for _ in range(rank)]
            continue
        pieces = [
            Word._trusted(relator.alphabet, letters[i : i + _FOX_PIECE_LETTERS])
            for i in range(0, len(letters), _FOX_PIECE_LETTERS)
        ]
        if len(pieces) > 1:
            if differences is None:
                differences = [(m - identity).mod(n) for m in rep.matrices]
            P = vstack(*[differences[i] for i in used])
        prefix = row = None
        for c, piece in enumerate(pieces):
            present = {index for index, _ in piece.letters}
            block = evaluate_group_ring(
                rep, *[fox_derivative(piece, p.generators[i]) if i in present else zero for i in used]
            )
            row = block if prefix is None else (row + prefix * block).mod(n)
            if c + 1 < len(pieces):
                advance = (identity + block * P).mod(n)
                prefix = advance if prefix is None else (prefix * advance).mod(n)
        labels = [i * rank + k for i in used for k in range(rank)]
        nonzero += [[(labels[j], x) for j, x in pairs] for pairs in _nonzero_rows(row)]
    return IntMatrix._from_nonzero(len(p.relators) * rank, len(p.generators) * rank, nonzero)
