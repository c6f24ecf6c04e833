"""Group actions on free modules over Z or Z/n, one invertible matrix per generator.

Vectors are columns and the matrix of a generator has the images of the
basis vectors as its columns, so a word uv acts by matrix(u) * matrix(v).
A word is evaluated letter by letter through exactlinalg._product, with
the nonzero rows of each M_g and M_g^-1 that the matrix itself holds,
formed once per matrix.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .exactlinalg import IntMatrix, _combined, _nonzero_rows, _product, _read_integer, unimodular_inverse
from .presentation import Diagnostic, Presentation
from .words import Generator, Word, word_to_text


@dataclass(frozen=True)
class CoefficientRing:
    """The ring Z when modulus == 0, otherwise Z/modulus with modulus >= 2."""

    modulus: int = 0

    def __post_init__(self):
        object.__setattr__(self, "modulus", operator.index(self.modulus))
        if self.modulus != 0 and self.modulus < 2:
            raise ValueError("modulus must be 0 (for Z) or an integer >= 2")

    @classmethod
    def integers(cls) -> CoefficientRing:
        return cls(0)

    @classmethod
    def modular(cls, n: int) -> CoefficientRing:
        return cls(n)

    @classmethod
    def parse(cls, text: str) -> CoefficientRing:
        text = text.strip()
        if text == "Z":
            return cls(0)
        modulus = _read_integer(text[2:])
        if not text.startswith("Z/") or modulus is None or text.startswith("Z/-"):
            raise ValueError(f"cannot parse ring {text!r} (expected Z or Z/n)")
        return cls(modulus)

    def is_unit(self, value: int) -> bool:
        if self.modulus == 0:
            return value in (1, -1)
        return gcd(value % self.modulus, self.modulus) == 1

    def __str__(self):
        return "Z" if self.modulus == 0 else f"Z/{self.modulus}"


class ActionError(ValueError):
    """An action matrix that Representation.build rejects, for ``generator``."""

    def __init__(self, message: str, generator: str):
        super().__init__(message)
        self.generator = generator


@dataclass(frozen=True)
class Representation:
    """A left action of a generator alphabet on A^rank by invertible matrices."""

    ring: CoefficientRing
    rank: int
    alphabet: tuple[Generator, ...]
    matrices: tuple[IntMatrix, ...]
    inverse_matrices: tuple[IntMatrix, ...]

    @classmethod
    def build(cls, ring: CoefficientRing, alphabet, matrices, rank: int | None = None) -> Representation:
        """Validate and assemble the action; matrices follow alphabet order.

        Rejects matrices of the wrong shape and matrices that are not
        invertible over the ring: an ActionError names the first such generator.
        """
        alphabet = tuple(alphabet)
        matrices = tuple(matrices)
        if len(matrices) != len(alphabet):
            raise ValueError("need exactly one matrix per generator")
        if rank is None:
            if not matrices:
                raise ValueError("rank is required for an empty alphabet")
            rank = matrices[0].rows
        if rank < 1:
            raise ValueError("module rank must be positive")
        reduced = []
        inverses = []
        for gen, matrix in zip(alphabet, matrices):
            if matrix.rows != rank or matrix.cols != rank:
                shape = f"{matrix.rows}x{matrix.cols}, expected {rank}x{rank}"
                raise ActionError(f"action matrix for {gen.name!r} is {shape}", gen.name)
            matrix = matrix.mod(ring.modulus)
            try:
                # One fraction-free elimination over Z, shared with det, gives
                # the adjugate and det M; the inverse is the adjugate times
                # det^-1, taken in Z or mod n, and exists exactly when det M
                # is a unit there.
                inverse = unimodular_inverse(matrix, ring.modulus)
            except ValueError as exc:
                raise ActionError(f"action matrix for {gen.name!r} is not invertible: {exc}", gen.name) from None
            reduced.append(matrix)
            inverses.append(inverse)
        return cls(ring, rank, alphabet, tuple(reduced), tuple(inverses))

    @cached_property
    def _letter_rows(self) -> dict[tuple[int, int], list[list[tuple[int, int]]]]:
        """The nonzero rows of M_g for each letter (g, 1) and of M_g^-1 for
        (g, -1), as _product reads them: each matrix's own, formed once per
        matrix and shared by every Representation that holds it. Not a
        field, so equality and hashing ignore it."""
        return {
            (index, sign): _nonzero_rows(matrix)
            for sign, matrices in ((1, self.matrices), (-1, self.inverse_matrices))
            for index, matrix in enumerate(matrices)
        }

    def action(self, gen: Generator | str) -> IntMatrix:
        name = gen.name if isinstance(gen, Generator) else gen
        for g, matrix in zip(self.alphabet, self.matrices):
            if g.name == name:
                return matrix
        raise KeyError(name)


def change_ring(rep: Representation, ring: CoefficientRing) -> Representation:
    """The same action over a new coefficient ring; rep itself when the ring
    is unchanged.

    Allowed from Z to anything, and from Z/n to Z/m when m divides n; other
    changes have no canonical reduction map. The stored matrices and their
    inverses are reduced mod m, and nothing is inverted again: reduction is
    a ring map, so M^-1 mod m is the unique inverse of M mod m.
    """
    if ring == rep.ring:
        return rep
    old, m = rep.ring.modulus, ring.modulus
    if old != 0 and (m == 0 or old % m):
        raise ValueError(f"cannot change coefficients from {rep.ring} to {ring}")
    return Representation(
        ring,
        rep.rank,
        rep.alphabet,
        tuple(matrix.mod(m) for matrix in rep.matrices),
        tuple(matrix.mod(m) for matrix in rep.inverse_matrices),
    )


def dual(rep: Representation) -> Representation:
    """The contragredient action g -> (M_g^-1)^T on the same free module.

    A word w acts by M(w^-1)^T under it, so evaluating a group-ring element
    on the dual and transposing evaluates the involuted element on rep.
    Built from the stored matrices; nothing is inverted again.
    """
    return Representation(
        rep.ring,
        rep.rank,
        rep.alphabet,
        tuple(m.transpose() for m in rep.inverse_matrices),
        tuple(m.transpose() for m in rep.matrices),
    )


def _letter_entries(rep: Representation, letter: tuple[int, int]) -> tuple[int, ...]:
    """The entries of M_g for the letter (g, 1), of M_g^-1 for (g, -1): the
    stored matrices, already reduced mod n."""
    index, sign = letter
    return (rep.matrices if sign > 0 else rep.inverse_matrices)[index].entries


def evaluate_word(rep: Representation, w: Word) -> IntMatrix:
    """Matrix of a word: the product of generator matrices, with inverse
    matrices for negative letters; the empty word is the identity. The
    product starts from the stored matrix of the first letter."""
    if w.alphabet != rep.alphabet:
        raise ValueError("alphabet mismatch")
    if not w.letters:
        return IntMatrix.identity(rep.rank)
    rows, n, size = rep._letter_rows, rep.ring.modulus, rep.rank
    matrix = _letter_entries(rep, w.letters[0])
    for letter in w.letters[1:]:
        matrix = _product(matrix, rows[letter], size, size, n)
    return IntMatrix._trusted(size, size, tuple(matrix))


def evaluate_group_ring(rep: Representation, element, *more) -> IntMatrix:
    """Matrix of a group-ring element: coefficient-weighted sum of word matrices.

    Given more elements, their matrices side by side, as hstack of the
    calls on each alone. One walk serves them all: the terms of every
    element are taken shortest first, as (length, element, position) tuples
    that sort with no key function, and a term whose letters extend the
    previous term's continues that term's matrix with the new letters only,
    one _product per letter on the rows of rep._letter_rows, with no Word
    built. The terms of the Fox derivatives dr/dg of one relator r, for all
    its generators g, are prefixes of r, so all of them cost at most len(r)
    matrix products together instead of the sum of the prefix lengths. Any
    other term is evaluated by evaluate_word, and a term continuing the
    empty word starts from its first letter's stored matrix. A letter
    multiplies the running matrix by the nonzero rows of its factor and
    reduces it mod n in the same call (_product). Each total is a flat list of
    ints, to which exactlinalg._combined adds coefficient times the matrix.
    An element with no terms gets no total: its block is written from one
    shared zero row, so the zero blocks of a Fox block row cost no walk
    and no reduction.
    """
    elements = (element, *more)
    if any(e.alphabet != rep.alphabet for e in elements):
        raise ValueError("alphabet mismatch")
    rows, n, size = rep._letter_rows, rep.ring.modulus, rep.rank
    totals = [[0] * (size * size) if e.terms else None for e in elements]
    # The position breaks every tie before a Word is compared.
    terms = sorted(
        (len(word.letters), k, position, word, coeff)
        for k, e in enumerate(elements)
        for position, (word, coeff) in enumerate(e.terms.items())
    )
    letters: tuple[tuple[int, int], ...] = ()
    matrix = None
    for _, k, _, word, coeff in terms:
        current = word.letters
        done = len(letters)
        if matrix is not None and current[:done] == letters:
            if not done and current:
                # A term continuing the empty word starts from its first
                # letter's stored matrix, with no product by the identity.
                matrix, done = _letter_entries(rep, current[0]), 1
            for letter in current[done:]:
                matrix = _product(matrix, rows[letter], size, size, n)
        else:
            matrix = evaluate_word(rep, word).entries
        letters = current
        totals[k] = _combined(totals[k], matrix, coeff)
    if n:
        totals = [total and [x % n for x in total] for total in totals]
    zero, entries = [0] * size, []
    for i in range(0, size * size, size):
        for total in totals:
            entries += zero if total is None else total[i : i + size]
    return IntMatrix._trusted(size, size * len(elements), tuple(entries))


def _nontrivial_relator(pos: int, relator: Word) -> Diagnostic:
    return Diagnostic("error", f"relator {pos} ({word_to_text(relator) or '1'}) does not act as the identity")


def check_relators_trivial(rep: Representation, p: Presentation) -> list[Diagnostic]:
    """Report every relator whose action matrix is not the identity."""
    if rep.alphabet != p.generators:
        raise ValueError("alphabet mismatch")
    identity = IntMatrix.identity(rep.rank)
    return [_nontrivial_relator(i, r) for i, r in enumerate(p.relators) if evaluate_word(rep, r) != identity]


def check_bilinear_form_preserved(rep: Representation, form: IntMatrix) -> list[Diagnostic]:
    """Report every generator g whose matrix M fails M^T * form * M = form."""
    if form.rows != rep.rank or form.cols != rep.rank:
        raise ValueError("form has the wrong shape")
    form = form.mod(rep.ring.modulus)
    report = []
    for gen, matrix in zip(rep.alphabet, rep.matrices):
        if (matrix.transpose() * form * matrix).mod(rep.ring.modulus) != form:
            report.append(Diagnostic("error", f"generator {gen.name!r} does not preserve the form"))
    return report
