import random
from collections import Counter

import pytest

from twistedhom import (
    CoefficientRing,
    Generator,
    GroupRingElement,
    IntMatrix,
    Presentation,
    Word,
    change_ring,
    cocycle_matrix,
    dual,
    fox,
    fox_derivative,
    fundamental_identity_check,
    goeritz_e2,
    hstack,
    multiply,
    parse_word,
    principal_map,
    representation,
)

from support import (
    chain_example,
    is_freely_reduced,
    random_word,
    reference_cocycle_matrix,
    reference_fox_derivative,
)

E2 = goeritz_e2()
ABGD = E2.presentation.generators
A, B, G, D = ABGD


def ring_elem(text_coeff_pairs, alphabet=ABGD):
    return GroupRingElement(
        alphabet, [(parse_word(t, alphabet), c) for t, c in text_coeff_pairs]
    )


class TestGroupRingElement:
    def test_zero_coefficients_dropped(self):
        e = ring_elem([("a", 1), ("a", -1), ("b", 2)])
        assert e.terms == {parse_word("b", ABGD): 2}

    @pytest.mark.parametrize("coeff", [1.5, "2"])
    def test_non_integer_coefficient_is_rejected(self, coeff):
        with pytest.raises(TypeError):
            GroupRingElement(ABGD, [(parse_word("a", ABGD), coeff)])

    def test_ring_axioms_randomized(self):
        rng = random.Random(21)
        one = GroupRingElement.one(ABGD)
        for _ in range(40):
            x = ring_elem([(f"{'a b g d'.split()[rng.randrange(4)]}", rng.randint(-3, 3))])
            y = GroupRingElement.from_word(random_word(rng, ABGD, 4), rng.randint(-3, 3))
            z = GroupRingElement.from_word(random_word(rng, ABGD, 4), rng.randint(-3, 3))
            assert (x + y) * z == x * z + y * z
            assert x * (y * z) == (x * y) * z
            assert one * x == x * one == x

    def test_involution_antiautomorphism(self):
        rng = random.Random(22)
        for _ in range(40):
            x = GroupRingElement.from_word(random_word(rng, ABGD, 4), rng.randint(-3, 3))
            y = GroupRingElement.from_word(random_word(rng, ABGD, 4), rng.randint(-3, 3))
            assert (x * y).involute() == y.involute() * x.involute()
            assert x.involute().involute() == x


class TestFoxDerivative:
    def test_square(self):
        w = parse_word("a a", ABGD)
        assert fox_derivative(w, A) == ring_elem([("", 1), ("a", 1)])

    def test_other_generator_vanishes(self):
        w = parse_word("a a", ABGD)
        assert fox_derivative(w, B) == GroupRingElement.zero(ABGD)

    def test_inverse_letter(self):
        w = parse_word("a^-1", ABGD)
        assert fox_derivative(w, A) == ring_elem([("a^-1", -1)])

    def test_conjugation_relator(self):
        w = parse_word("a d a d^-1", ABGD)
        assert fox_derivative(w, A) == ring_elem([("", 1), ("a d", 1)])

    def test_squared_product_relator(self):
        w = parse_word("a g a g", ABGD)
        assert fox_derivative(w, G) == ring_elem([("a", 1), ("a g a", 1)])

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            fox_derivative(parse_word("a", ABGD), Generator("x"))

    def test_product_rule_randomized(self):
        rng = random.Random(23)
        for _ in range(60):
            u = random_word(rng, ABGD, 6)
            v = random_word(rng, ABGD, 6)
            g = ABGD[rng.randrange(4)]
            expected = fox_derivative(u, g) + GroupRingElement.from_word(u) * fox_derivative(v, g)
            assert fox_derivative(multiply(u, v), g) == expected


def reduced_word(rng, alphabet, length):
    letters = []
    while len(letters) < length:
        letter = (rng.randrange(len(alphabet)), rng.choice((1, -1)))
        if not letters or letters[-1] != (letter[0], -letter[1]):
            letters.append(letter)
    return Word(alphabet, tuple(letters))


class TestFoxDerivativeMatchesReference:
    """fox_derivative slices its terms out of the word; the reference builds
    and reduces every term again. Equal as group-ring elements, with every
    term freely reduced. Equal term dicts mean every sliced word hashes and
    compares like the word Word(...) builds from the same letters."""

    @staticmethod
    def assert_matches(w):
        for gen in w.alphabet:
            derivative = fox_derivative(w, gen)
            assert derivative == reference_fox_derivative(w, gen)
            assert all(is_freely_reduced(word.letters) for word in derivative.terms)

    def test_empty_word(self):
        w = Word(ABGD)
        self.assert_matches(w)
        assert all(fox_derivative(w, gen) == GroupRingElement.zero(ABGD) for gen in ABGD)

    @pytest.mark.parametrize(
        "text",
        ["a^-1", "a^-1 b", "b a^-1", "a^-1 b a^-1", "a^-1 a^-1 b a", "b a a^-1 a^-1 a^-1", "a^-1 d^-1 g a^-1 d"],
    )
    def test_inverse_letter_at_either_end(self, text):
        self.assert_matches(parse_word(text, ABGD))

    def test_long_word(self):
        w = reduced_word(random.Random(25), ABGD, 2000)
        assert len(w) == 2000
        self.assert_matches(w)

    def test_seeded_words(self):
        rng = random.Random(26)
        for _ in range(100):
            names = [f"g{i}" for i in range(rng.randint(1, 4))]
            alphabet = tuple(Generator(n) for n in names)
            self.assert_matches(random_word(rng, alphabet, 30))


class TestFundamentalIdentity:
    def test_single_letter(self):
        assert fundamental_identity_check(parse_word("a", ABGD))

    def test_two_letters(self):
        # d(ab)/da = 1, d(ab)/db = a, so the identity reads
        # (a - 1) + a(b - 1) = ab - 1.
        assert fundamental_identity_check(parse_word("a b", ABGD))

    def test_randomized(self):
        rng = random.Random(24)
        for _ in range(100):
            names = [f"g{i}" for i in range(rng.randint(1, 4))]
            alphabet = tuple(Generator(n) for n in names)
            w = random_word(rng, alphabet, 10)
            assert fundamental_identity_check(w)


class TestCocycleMatrix:
    def test_alpha_square_block_row_is_zero(self):
        # alpha acts as -identity, so 1 + alpha evaluates to zero and the
        # relation a^2 imposes no linear condition.
        p = Presentation(ABGD, (parse_word("a a", ABGD),))
        J = cocycle_matrix(p, E2.representation)
        assert J.rows == 4 and J.cols == 16
        assert J.is_zero()

    def test_ag_squared_x1_row(self):
        p = Presentation(ABGD, (parse_word("a g a g", ABGD),))
        J = cocycle_matrix(p, E2.representation)
        # The x1 slot of the only block row: coefficient +1 on both x-slots
        # of d(a) and -1 on both x-slots of d(g).
        assert J.row(0) == (1, 1, 0, 0, 0, 0, 0, 0, -1, -1, 0, 0, 0, 0, 0, 0)

    def test_block_layout(self):
        J = cocycle_matrix(E2.presentation, E2.representation)
        assert J.rows == 8 * 4 and J.cols == 4 * 4

    def test_principal_cocycles_are_cocycles(self):
        J = cocycle_matrix(E2.presentation, E2.representation)
        P = principal_map(E2.representation).matrix
        assert (J * P).is_zero()

    def test_no_relators(self):
        J = cocycle_matrix(Presentation(ABGD, ()), E2.representation)
        assert J.rows == 0 and J.cols == 16

    def test_alphabet_mismatch(self):
        other = Presentation((Generator("x"),), ())
        with pytest.raises(ValueError):
            cocycle_matrix(other, E2.representation)


class TestCocycleMatrixZeroBlocks:
    """A generator that does not occur in a relator is given a zero element,
    whose block evaluate_group_ring writes as zeros; J stays equal to the
    reference, which derives the relator by every generator."""

    @pytest.mark.parametrize("modulus", [0, 2, 4])
    @pytest.mark.parametrize("genus", [2, 3, 4, 5])
    def test_chain_equal_to_the_reference(self, genus, modulus):
        # Each relator of the chain contains 2 of its 2g generators.
        example = chain_example(genus)
        rep = change_ring(example.representation, CoefficientRing(modulus))
        for action in (rep, dual(rep)):
            assert cocycle_matrix(example.presentation, action) == reference_cocycle_matrix(example.presentation, action)

    @pytest.mark.parametrize("modulus", [0, 2, 4])
    def test_empty_relator_equal_to_the_reference(self, modulus):
        empty, (first, second) = Word(ABGD), E2.presentation.relators[:2]
        rep = change_ring(E2.representation, CoefficientRing(modulus))
        for relators in ((empty,), (empty, first), (first, empty, second)):
            p = Presentation(ABGD, relators)
            for action in (rep, dual(rep)):
                J = cocycle_matrix(p, action)
                assert J == reference_cocycle_matrix(p, action)
                row = relators.index(empty) * 4
                assert all(J.row(i) == (0,) * 16 for i in range(row, row + 4))

    def test_derivatives_only_by_the_generators_of_a_relator(self, monkeypatch):
        seen = Counter()

        def recording(w, gen):
            seen[w.letters, gen] += 1
            return fox_derivative(w, gen)

        monkeypatch.setattr(fox, "fox_derivative", recording)
        example = chain_example(4)
        p = example.presentation
        cocycle_matrix(p, example.representation)
        expected = Counter((r.letters, p.generators[i]) for r in p.relators for i in {index for index, _ in r.letters})
        assert seen == expected
        assert sum(seen.values()) == 2 * len(p.relators)


class TestCocycleMatrixPieces:
    """A relator longer than _FOX_PIECE_LETTERS is walked piece by piece and
    the block rows are joined by the product rule; J stays equal to the
    reference, which walks each derivative of the whole relator."""

    @pytest.mark.parametrize("modulus", [0, 2, 4])
    @pytest.mark.parametrize("letters", [1023, 1024, 1025, 2055])
    def test_equal_to_the_reference(self, letters, modulus):
        rng = random.Random(letters)
        p = Presentation(ABGD, (reduced_word(rng, ABGD, letters), reduced_word(rng, ABGD, 40)))
        rep = change_ring(E2.representation, CoefficientRing(modulus))
        for action in (rep, dual(rep)):
            assert cocycle_matrix(p, action) == reference_cocycle_matrix(p, action)

    def test_no_derivative_of_more_than_one_piece(self, monkeypatch):
        seen = []

        def recording(w, gen):
            seen.append(len(w))
            return fox_derivative(w, gen)

        monkeypatch.setattr(fox, "fox_derivative", recording)
        p = Presentation(ABGD, (reduced_word(random.Random(27), ABGD, 2055), parse_word("a^3077", ABGD)))
        cocycle_matrix(p, E2.representation)
        assert max(seen) == fox._FOX_PIECE_LETTERS
        assert sorted(set(seen)) == [5, 7, fox._FOX_PIECE_LETTERS]

    def test_products_per_piece(self, monkeypatch):
        # One product per letter of the walk, and at most three per piece to
        # join the pieces: B(u)*P, the prefix times M(u), the prefix times B(u).
        # The walk multiplies through the kernel, the joins through IntMatrix.
        products = 0
        product, kernel = IntMatrix.__mul__, representation._product

        def counting(function):
            def wrapper(*args):
                nonlocal products
                products += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(IntMatrix, "__mul__", counting(product))
        monkeypatch.setattr(representation, "_product", counting(kernel))
        letters = 3077
        p = Presentation(ABGD, (parse_word(f"a^{letters}", ABGD),))
        J = cocycle_matrix(p, E2.representation)
        assert products <= letters + 3 * -(-letters // fox._FOX_PIECE_LETTERS)
        # alpha acts as -1, so d(a^k)/da = 1 + a + ... + a^(k-1) is 1 for odd k.
        assert J == hstack(IntMatrix.identity(4), IntMatrix.zeros(4, 12))
