"""Built-in worked examples: genus-2 Goeritz group data and small toy groups.

The Goeritz example packages a finite presentation of the genus-2 Goeritz
group of the 3-sphere on the four standard generators a, b, g, d, its
action on the first homology of the splitting surface (a rank-4 module
with ordered basis x1, x2, y1, y2), the symplectic intersection form, a
splitting functional for the fast cohomology path, and the expected
answers keyed by computation name and coefficient ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactlinalg import AbelianGroupStructure, IntMatrix
from .presentation import Presentation
from .representation import CoefficientRing, Representation
from .words import Generator, parse_word


@dataclass(frozen=True)
class NamedExample:
    """A presentation with a representation, optional extras and expected results.

    The built-in examples act over Z; cli.parse_input_file returns one over
    the file's ring, Z or Z/n, with the name "". Expected results are keyed
    "name[ring]" (for example "coh1[Z/2]"); a key without a ring qualifier
    applies to any coefficient ring.
    """

    name: str
    presentation: Presentation
    representation: Representation
    form: IntMatrix | None = None
    kerf: IntMatrix | None = None
    expected: dict[str, AbelianGroupStructure] = field(default_factory=dict)


def _sparse_row(length, coeffs):
    row = [0] * length
    for index, value in coeffs.items():
        row[index] = value
    return row


def goeritz_e2() -> NamedExample:
    """The genus-2 Goeritz group of the 3-sphere acting on H_1 of the surface."""
    gens = tuple(Generator(name) for name in "abgd")
    relator_texts = (
        "a a",
        "b b",
        "d d d",
        "a g a g",
        "a d a d^-1",
        "a b a b^-1",
        "g b g b^-1 a^-1",
        "g d d g d^-1",
    )
    presentation = Presentation(gens, tuple(parse_word(t, gens) for t in relator_texts))

    # Columns are the images of x1, x2, y1, y2.
    action_a = IntMatrix.identity(4).scale(-1)
    action_b = IntMatrix.diagonal([1, -1, 1, -1])
    action_g = IntMatrix.from_rows(
        [
            [0, -1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, -1, 0],
        ]
    )
    action_d = IntMatrix.from_rows(
        [
            [-1, -1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, 1, -1],
        ]
    )
    representation = Representation.build(
        CoefficientRing.integers(), gens, (action_a, action_b, action_g, action_d)
    )

    # Intersection pairing x_i . y_i = 1, all other basis pairings zero.
    form = IntMatrix.from_rows(
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
        ]
    )

    # Splitting functional on stacked cocycle coordinates
    # (d(a), d(b), d(g), d(d)), one value slot of the module per row.
    # Row 1 takes the x1 slot of d(a) minus d(d); with the column-convention
    # action this sign is the one that makes f*P the unimodular map
    # v -> (v2, -v1+v2, v3-v4, -v3). Rows 2 to 4 take d(g)-d(b) in the x2
    # slot, d(g)-d(a) in the y1 slot and d(b)-d(d) in the y2 slot.
    kerf = IntMatrix.from_rows(
        [
            _sparse_row(16, {0: 1, 12: -1}),
            _sparse_row(16, {9: 1, 5: -1}),
            _sparse_row(16, {10: 1, 2: -1}),
            _sparse_row(16, {7: 1, 15: -1}),
        ]
    )

    expected = {
        "h0[Z]": AbelianGroupStructure.trivial(),
        "h1[Z]": AbelianGroupStructure(0, (2, 2)),
        "coh1[Z]": AbelianGroupStructure.trivial(),
        "coh1[Z/2]": AbelianGroupStructure(0, (2, 2)),
    }
    return NamedExample("e2", presentation, representation, form, kerf, expected)


def _free2() -> NamedExample:
    """The free group on two generators with the trivial rank-1 module."""
    gens = (Generator("x"), Generator("y"))
    rep = Representation.build(
        CoefficientRing.integers(), gens, (IntMatrix.identity(1), IntMatrix.identity(1))
    )
    return NamedExample(
        "free2",
        Presentation(gens, ()),
        rep,
        expected={
            "h0[Z]": AbelianGroupStructure.free(1),
            "h1[Z]": AbelianGroupStructure.free(2),
            "coh1[Z]": AbelianGroupStructure.free(2),
        },
    )


def _c2_sign() -> NamedExample:
    """The order-2 group acting on Z by -1. Every crossed homomorphism is
    determined by d(a) with no constraint (1 + a acts as zero), while the
    principal ones are exactly 2Z, so H^1 over Z is Z/2."""
    gens = (Generator("a"),)
    rep = Representation.build(CoefficientRing.integers(), gens, (IntMatrix.from_rows([[-1]]),))
    return NamedExample(
        "c2_sign",
        Presentation(gens, (parse_word("a a", gens),)),
        rep,
        expected={
            "h0[Z]": AbelianGroupStructure(0, (2,)),
            "h1[Z]": AbelianGroupStructure.trivial(),
            "coh1[Z]": AbelianGroupStructure(0, (2,)),
            "coh1[Z/2]": AbelianGroupStructure(0, (2,)),
        },
    )


def _c4_sign() -> NamedExample:
    """The order-4 group acting on Z through the sign of the generator."""
    gens = (Generator("a"),)
    rep = Representation.build(CoefficientRing.integers(), gens, (IntMatrix.from_rows([[-1]]),))
    return NamedExample(
        "c4_sign",
        Presentation(gens, (parse_word("a^4", gens),)),
        rep,
        expected={
            "h0[Z]": AbelianGroupStructure(0, (2,)),
            "h1[Z]": AbelianGroupStructure.trivial(),
            "coh1[Z]": AbelianGroupStructure(0, (2,)),
        },
    )


def _trivial() -> NamedExample:
    """A presentation of the trivial group on one killed generator."""
    gens = (Generator("a"),)
    rep = Representation.build(CoefficientRing.integers(), gens, (IntMatrix.identity(1),))
    return NamedExample(
        "trivial",
        Presentation(gens, (parse_word("a", gens),)),
        rep,
        expected={
            "h0[Z]": AbelianGroupStructure.free(1),
            "h1[Z]": AbelianGroupStructure.trivial(),
            "coh1[Z]": AbelianGroupStructure.trivial(),
        },
    )


# Each shipped example's builder, keyed by the name of the example it builds.
_TOYS = {"free2": _free2, "c2_sign": _c2_sign, "c4_sign": _c4_sign, "trivial": _trivial}
_BUILDERS = {"e2": goeritz_e2, **_TOYS}


def toy_examples() -> list[NamedExample]:
    """Small groups with hand-checkable (co)homology: free2, c2_sign,
    c4_sign and trivial."""
    return [build() for build in _TOYS.values()]


def builtin_example(name: str) -> NamedExample:
    """The shipped example called name, built without building the others.

    Raises ValueError naming every shipped example when there is none
    called name.
    """
    if name not in _BUILDERS:
        raise ValueError(f"unknown example {name!r} (known: {', '.join(sorted(_BUILDERS))})")
    return _BUILDERS[name]()


def builtin_examples() -> dict[str, NamedExample]:
    """All shipped examples, keyed by name."""
    return {name: build() for name, build in _BUILDERS.items()}
