"""Seeded input generators, the answer table and the job plans of the benchmark.

Every input is written in the package's documented `.grp` format, so each
job pays for parsing it. Nothing here is added to the package: the chain of
curves, the change of basis and the redundant relators exist only to give
the benchmark inputs whose answers are known in advance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from twistedhom import (
    AbelianGroupStructure,
    CoefficientRing,
    IntMatrix,
    NamedExample,
    Presentation,
    Representation,
    check_bilinear_form_preserved,
    check_relators_trivial,
    goeritz_e2,
    parse_word,
    word_to_text,
)
from twistedhom.cli import example_to_text, parse_input_file
from twistedhom.words import Generator, Word, invert

# Number of elementary operations in the seeded change of basis. Fixed so
# that the integer sizes, and with them the SNF cost, vary little by seed.
BASIS_STEPS = 6
# Inputs drawn per seed; jobs take them in turn, so that a run's median
# covers several draws instead of the cost of one.
INPUTS_PER_SEED = 8
LONG_RELATORS = 4
LONG_RELATOR_LETTERS = 200

G = AbelianGroupStructure
ZERO = G.trivial()
Z2 = G(0, (2,))
Z2Z2 = G(0, (2, 2))

# The paper's table for e2, which long-relators must reproduce unchanged.
E2_TABLE = {
    ("h0", "Z"): ZERO,
    ("coh1", "Z"): ZERO,
    ("coh1", "Z/2"): Z2Z2,
    ("h1", "Z"): Z2Z2,
    ("uct", "Z"): {"Z": ZERO, "Z/2": Z2Z2, "Z/3": ZERO, "Z/4": Z2Z2, "Z/8": Z2Z2},
    ("oracle", "Z"): (64, 16, 4),
}
CHAIN_TABLE = {
    ("h0", "Z"): ZERO,
    ("coh1", "Z"): ZERO,
    ("coh1", "Z/2"): Z2,
    ("h1", "Z"): Z2,
}

# One job is one cli.run call per (stage, ring override); None keeps the
# file's ring, Z.
PLANS = {
    "goeritz-pipeline": (
        ("check", None), ("h0", None), ("coh1", None), ("h1", None),
        ("uct", None), ("oracle", None), ("coh1", "Z/2"),
    ),
    "chain-genus4": (("h0", None), ("coh1", None), ("h1", None), ("coh1", "Z/2")),
    "long-relators": (("check", None), ("coh1", None), ("coh1", "Z/2"), ("h1", None)),
}


@dataclass(frozen=True)
class Workload:
    name: str
    examples: tuple[NamedExample, ...]
    table: dict
    plan: tuple

    def texts(self) -> list[str]:
        return [example_to_text(example) for example in self.examples]


def unimodular_pair(rng: random.Random, n: int) -> tuple[IntMatrix, IntMatrix]:
    """A seeded unimodular Q and its inverse: a signed permutation times
    BASIS_STEPS elementary row additions with coefficient +-1."""
    q = IntMatrix.identity(n)
    q_inv = IntMatrix.identity(n)
    for _ in range(BASIS_STEPS):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        e = [[int(r == s) for s in range(n)] for r in range(n)]
        e_inv = [row[:] for row in e]
        e[i][j], e_inv[i][j] = c, -c
        q = IntMatrix.from_rows(e) * q
        q_inv = q_inv * IntMatrix.from_rows(e_inv)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    p = [[0] * n for _ in range(n)]
    for col, row in enumerate(perm):
        p[row][col] = signs[col]
    p = IntMatrix.from_rows(p)
    # A signed permutation is orthogonal: its inverse is its transpose.
    return q * p, p.transpose() * q_inv


def block_diagonal(block: IntMatrix, copies: int) -> IntMatrix:
    n = block.rows
    rows = [[0] * (n * copies) for _ in range(n * copies)]
    for k in range(copies):
        for i in range(n):
            for j in range(n):
                rows[k * n + i][k * n + j] = block.at(i, j)
    return IntMatrix.from_rows(rows)


def change_basis(example: NamedExample, q: IntMatrix, q_inv: IntMatrix) -> NamedExample:
    """The same module written in the basis given by the columns of Q.

    Actions become Q^-1 A Q and the form Q^T B Q. Cocycle values change as
    d' = Q^-1 d, so the splitting functional becomes f' = f blockdiag(Q);
    then f'P' = fPQ stays unimodular and every answer is unchanged.
    """
    rep = example.representation
    matrices = [q_inv * m * q for m in rep.matrices]
    new_rep = Representation.build(rep.ring, rep.alphabet, matrices, rank=rep.rank)
    form = None if example.form is None else q.transpose() * example.form * q
    kerf = None
    if example.kerf is not None:
        kerf = example.kerf * block_diagonal(q, len(rep.alphabet))
    return NamedExample(example.name, example.presentation, new_rep, form, kerf, dict(example.expected))


def symplectic_form(genus: int) -> IntMatrix:
    """omega on H_1 of the genus-g surface, basis a1..ag, b1..bg: omega(a_i, b_i) = 1."""
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    for i in range(genus):
        rows[i][genus + i] = 1
        rows[genus + i][i] = -1
    return IntMatrix.from_rows(rows)


def chain_curves(genus: int) -> list[tuple[int, ...]]:
    """Homology classes of the chain a1, b1, a2-a1, b2, ..., ag-a(g-1), bg."""
    n = 2 * genus
    curves = []
    for i in range(genus):
        a = [0] * n
        a[i] = 1
        if i:
            a[i - 1] = -1
        b = [0] * n
        b[genus + i] = 1
        curves += [tuple(a), tuple(b)]
    return curves


def chain_example(genus: int, rng: random.Random | None = None) -> NamedExample:
    """The chain of 2g Dehn twists acting on H_1 of the genus-g surface.

    Curve c acts as the transvection x -> x + omega(c, x) c. Curves that
    meet once get the braid relator, disjoint curves a commutator, so every
    relator acts trivially. With ``rng`` the relator order is shuffled.
    """
    omega = symplectic_form(genus)
    curves = chain_curves(genus)
    gens = tuple(Generator(f"c{k + 1}") for k in range(len(curves)))
    matrices = []
    for c in curves:
        col = IntMatrix(len(c), 1, c)
        matrices.append(IntMatrix.identity(len(c)) + col * (col.transpose() * omega))
    relators = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            x, y = gens[i].name, gens[j].name
            if j == i + 1:
                text = f"{x} {y} {x} {y}^-1 {x}^-1 {y}^-1"
            else:
                text = f"{x} {y} {x}^-1 {y}^-1"
            relators.append(parse_word(text, gens))
    if rng is not None:
        rng.shuffle(relators)
    rep = Representation.build(CoefficientRing.integers(), gens, matrices)
    expected = {f"{stage}[{ring}]": value for (stage, ring), value in CHAIN_TABLE.items()}
    return NamedExample(f"chain{genus}", Presentation(gens, tuple(relators)), rep, omega, None, expected)


def _random_word(rng: random.Random, alphabet, length: int) -> Word:
    letters: list[tuple[int, int]] = []
    while len(letters) < length:
        letter = (rng.randrange(len(alphabet)), rng.choice((1, -1)))
        if letters and letters[-1] == (letter[0], -letter[1]):
            continue
        letters.append(letter)
    return Word(alphabet, tuple(letters))


def redundant_relator(rng: random.Random, p: Presentation, letters: int) -> Word:
    """A product of conjugates u r^+-1 u^-1 of defining relators, freely reduced
    to close to ``letters`` letters; it holds in the group, so it changes no answer."""
    alphabet = p.generators

    def piece():
        u = _random_word(rng, alphabet, rng.randint(2, 5))
        r = rng.choice(p.relators)
        if rng.random() < 0.5:
            r = invert(r)
        return u.letters + r.letters + invert(u).letters

    word = Word(alphabet, ())
    while len(word) < letters - 20:
        word = Word(alphabet, word.letters + piece())
    # Of a few candidate last pieces, take the one landing nearest the target.
    candidates = [Word(alphabet, word.letters + piece()) for _ in range(8)]
    return min(candidates, key=lambda w: abs(len(w) - letters))


def long_relators_example(rng: random.Random) -> NamedExample:
    e2 = goeritz_e2()
    p = e2.presentation
    extra = tuple(redundant_relator(rng, p, LONG_RELATOR_LETTERS) for _ in range(LONG_RELATORS))
    # Round-trip through the printer so the file holds word_to_text output.
    extra = tuple(parse_word(word_to_text(w), p.generators) for w in extra)
    presentation = Presentation(p.generators, p.relators + extra)
    return NamedExample("e2-long", presentation, e2.representation, e2.form, e2.kerf, dict(e2.expected))


def draw(name: str, rng: random.Random) -> NamedExample:
    if name == "goeritz-pipeline":
        e2 = goeritz_e2()
        return change_basis(e2, *unimodular_pair(rng, e2.representation.rank))
    if name == "chain-genus4":
        chain = chain_example(4, rng)
        return change_basis(chain, *unimodular_pair(rng, chain.representation.rank))
    if name == "long-relators":
        return long_relators_example(rng)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(PLANS)})")


def build(name: str, seed: int, count: int = INPUTS_PER_SEED) -> Workload:
    """The workload's inputs for one seed; the same seed gives the same inputs."""
    rng = random.Random(f"{name}:{seed}")
    examples = tuple(draw(name, rng) for _ in range(count))
    table = CHAIN_TABLE if name == "chain-genus4" else E2_TABLE
    return Workload(name, examples, table, PLANS[name])


def self_check(workload: Workload) -> None:
    """Refuse an input whose relators or form check fails, or that does not
    survive the file format unchanged."""
    for ex, text in zip(workload.examples, workload.texts()):
        findings = check_relators_trivial(ex.representation, ex.presentation)
        if ex.form is not None:
            findings += check_bilinear_form_preserved(ex.representation, ex.form)
        if findings:
            raise RuntimeError(f"{workload.name}: generated input fails its checks: {findings}")
        parsed = parse_input_file(text)
        if parsed.presentation != ex.presentation or parsed.representation != ex.representation:
            raise RuntimeError(f"{workload.name}: generated input does not round-trip")
