import random
import re

import pytest

from twistedhom import (
    CoefficientRing,
    Generator,
    GroupRingElement,
    IntMatrix,
    Presentation,
    Representation,
    Word,
    builtin_examples,
    change_ring,
    check_bilinear_form_preserved,
    check_relators_trivial,
    cocycle_matrix,
    dual,
    evaluate_group_ring,
    evaluate_word,
    fox_derivative,
    goeritz_e2,
    hstack,
    identity_word,
    invert,
    multiply,
    parse_word,
    unimodular_inverse,
)

from twistedhom import representation
from twistedhom.representation import ActionError

from support import chain_example, random_unimodular, random_word, term_by_term_group_ring

E2 = goeritz_e2()
ABGD = E2.presentation.generators


class TestCoefficientRing:
    def test_parse_and_str(self):
        assert str(CoefficientRing.parse("Z")) == "Z"
        assert str(CoefficientRing.parse("Z/4")) == "Z/4"
        with pytest.raises(ValueError):
            CoefficientRing.parse("Q")
        with pytest.raises(ValueError):
            CoefficientRing(1)
        with pytest.raises(ValueError):
            CoefficientRing(-3)

    @pytest.mark.parametrize("text", ["Q", "Z/x", "Z/", "Z/2.0", "Z/Z/2", "Z/+5", "Z/ 5", "Z/1_0", "Z/\uff15", "Z/-2"])
    def test_parse_names_the_ring_it_could_not_read(self, text):
        with pytest.raises(ValueError) as err:
            CoefficientRing.parse(text)
        assert str(err.value) == f"cannot parse ring {text!r} (expected Z or Z/n)"

    @pytest.mark.parametrize("modulus", [2.0, "2"])
    def test_modulus_must_be_an_int(self, modulus):
        with pytest.raises(TypeError):
            CoefficientRing(modulus)

    def test_units(self):
        assert CoefficientRing(0).is_unit(-1)
        assert not CoefficientRing(0).is_unit(2)
        assert CoefficientRing(5).is_unit(2)
        assert not CoefficientRing(4).is_unit(2)


class TestBuild:
    def test_rejects_singular_over_z(self):
        with pytest.raises(ValueError, match="not invertible"):
            Representation.build(
                CoefficientRing.integers(),
                (Generator("a"),),
                (IntMatrix.identity(2).scale(2),),
            )

    def test_rejects_non_unit_det_mod_n(self):
        with pytest.raises(ValueError, match="not invertible"):
            Representation.build(
                CoefficientRing.modular(4),
                (Generator("a"),),
                (IntMatrix.diagonal([2, 1]),),
            )

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="3x4"):
            Representation.build(
                CoefficientRing.integers(),
                (Generator("a"),),
                (IntMatrix.zeros(3, 4),),
                rank=4,
            )

    @pytest.mark.parametrize(
        "second, third, message",
        [
            (IntMatrix.diagonal([2, 1]), IntMatrix.zeros(1, 1), "action matrix for 'b' is not invertible"),
            (IntMatrix.zeros(2, 3), IntMatrix.diagonal([2, 1]), "action matrix for 'b' is 2x3, expected 2x2"),
        ],
    )
    def test_action_error_names_the_first_rejected_generator(self, second, third, message):
        alphabet = tuple(Generator(name) for name in "abc")
        with pytest.raises(ActionError, match=re.escape(message)) as err:
            Representation.build(CoefficientRing.integers(), alphabet, (IntMatrix.identity(2), second, third))
        assert err.value.generator == "b"

    @pytest.mark.parametrize(
        "alphabet, matrices, rank, message",
        [
            ((Generator("a"),), (), None, "need exactly one matrix per generator"),
            ((), (), None, "rank is required for an empty alphabet"),
            ((), (), 0, "module rank must be positive"),
        ],
    )
    def test_rejections_of_no_one_action(self, alphabet, matrices, rank, message):
        with pytest.raises(ValueError, match=message) as err:
            Representation.build(CoefficientRing.integers(), alphabet, matrices, rank=rank)
        assert not isinstance(err.value, ActionError)

    def test_inverses_precomputed(self):
        for m, inv in zip(E2.representation.matrices, E2.representation.inverse_matrices):
            assert m * inv == IntMatrix.identity(4)

    def test_inverse_mod_n(self):
        rep = Representation.build(
            CoefficientRing.modular(5),
            (Generator("a"),),
            (IntMatrix.diagonal([2, 1]),),
        )
        assert (rep.matrices[0] * rep.inverse_matrices[0]).mod(5) == IntMatrix.identity(2)


class TestEvaluateWord:
    def test_delta_matrix_columns(self):
        m = evaluate_word(E2.representation, parse_word("d", ABGD))
        assert m.column(0) == (-1, 1, 0, 0)
        assert m.column(1) == (-1, 0, 0, 0)
        assert m.column(2) == (0, 0, 0, 1)
        assert m.column(3) == (0, 0, -1, -1)

    def test_empty_word_is_identity(self):
        assert evaluate_word(E2.representation, identity_word(ABGD)) == IntMatrix.identity(4)

    def test_delta_cubed_is_identity(self):
        # Independent check: cube the matrix directly.
        d = E2.representation.action("d")
        assert d * d * d == IntMatrix.identity(4)
        assert evaluate_word(E2.representation, parse_word("d^3", ABGD)) == IntMatrix.identity(4)

    def test_multiplicative_randomized(self):
        rng = random.Random(11)
        rep = E2.representation
        for _ in range(50):
            u = random_word(rng, ABGD, max_len=6)
            v = random_word(rng, ABGD, max_len=6)
            assert evaluate_word(rep, multiply(u, v)) == evaluate_word(rep, u) * evaluate_word(rep, v)
            w = random_word(rng, ABGD, max_len=6)
            assert evaluate_word(rep, invert(w)) * evaluate_word(rep, w) == IntMatrix.identity(4)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_word(E2.representation, parse_word("x", (Generator("x"),)))


class TestEvaluateGroupRing:
    def test_one_plus_alpha_vanishes(self):
        alphabet = ABGD
        e = GroupRingElement.one(alphabet) + GroupRingElement.from_word(parse_word("a", alphabet))
        assert evaluate_group_ring(E2.representation, e).is_zero()

    def test_empty_element(self):
        assert evaluate_group_ring(E2.representation, GroupRingElement.zero(ABGD)).is_zero()

    def test_one_minus_trivially_acting_word(self):
        e = GroupRingElement.one(ABGD) - GroupRingElement.from_word(parse_word("d^3", ABGD))
        assert evaluate_group_ring(E2.representation, e).is_zero()


def _actions_over(rng, moduli):
    """E2's action and a random change of basis of it, over each ring."""
    q = random_unimodular(rng, 4)
    q_inv = unimodular_inverse(q)
    conjugated = Representation.build(
        E2.representation.ring, ABGD, [q * m * q_inv for m in E2.representation.matrices]
    )
    return [change_ring(rep, CoefficientRing(n)) for n in moduli for rep in (E2.representation, conjugated)]


def _random_element(rng, alphabet) -> GroupRingElement:
    """Nested prefixes of a few words, unrelated words and a cancelling pair,
    with coefficients in [-3, 3] (zero included)."""
    terms = []
    for _ in range(rng.randint(0, 3)):
        base = random_word(rng, alphabet, max_len=12)
        cuts = rng.sample(range(len(base) + 1), rng.randint(0, len(base) + 1))
        terms += [(Word(alphabet, base.letters[:i]), rng.randint(-3, 3)) for i in cuts]
    terms += [(random_word(rng, alphabet, max_len=6), rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))]
    if terms and rng.random() < 0.3:
        word, coeff = rng.choice(terms)
        terms.append((word, -coeff))
    return GroupRingElement(alphabet, terms)


class TestEvaluateGroupRingReference:
    def test_matches_term_by_term_sum(self):
        rng = random.Random(41)
        for rep in _actions_over(rng, (0, 2, 4, 9)):
            for _ in range(40):
                element = _random_element(rng, ABGD)
                assert evaluate_group_ring(rep, element) == term_by_term_group_ring(rep, element)
            for _ in range(10):
                word = random_word(rng, ABGD, max_len=30)
                for gen in ABGD:
                    derivative = fox_derivative(word, gen)
                    for element in (derivative, -derivative, derivative * 3, derivative - derivative):
                        assert evaluate_group_ring(rep, element) == term_by_term_group_ring(rep, element)

    def test_alphabet_mismatch(self):
        x = (Generator("x"),)
        with pytest.raises(ValueError):
            evaluate_group_ring(E2.representation, GroupRingElement.one(x))
        with pytest.raises(ValueError):
            evaluate_group_ring(E2.representation, GroupRingElement.one(ABGD), GroupRingElement.one(x))


class TestEvaluateGroupRingSideBySide:
    """Several elements in one call give the hstack of the calls on each alone."""

    @staticmethod
    def assert_side_by_side(rep, elements):
        expected = hstack(*[evaluate_group_ring(rep, e) for e in elements])
        assert evaluate_group_ring(rep, *elements) == expected
        assert expected == hstack(*[term_by_term_group_ring(rep, e) for e in elements])

    def test_random_elements(self):
        rng = random.Random(45)
        for rep in _actions_over(rng, (0, 2, 3, 4, 8)):
            for _ in range(20):
                self.assert_side_by_side(rep, [_random_element(rng, ABGD) for _ in range(rng.randint(1, 5))])

    def test_zero_elements_among_nonzero_ones(self):
        # The layout of a Fox block row: zero elements, each written from the
        # shared zero row, between elements that are walked.
        rng = random.Random(50)
        zero = GroupRingElement.zero(ABGD)
        for rep in _actions_over(rng, (0, 2, 3, 4, 8)):
            for _ in range(20):
                nonzero = [e for e in (_random_element(rng, ABGD) for _ in range(8)) if e][: rng.randint(1, 3)]
                assert nonzero
                elements = nonzero + [zero] * rng.randint(1, 4)
                rng.shuffle(elements)
                self.assert_side_by_side(rep, elements)

    def test_fox_derivatives_of_one_word(self):
        rng = random.Random(46)
        for rep in _actions_over(rng, (0, 2, 4)):
            for _ in range(10):
                word = random_word(rng, ABGD, max_len=40)
                self.assert_side_by_side(rep, [fox_derivative(word, gen) for gen in ABGD])

    def test_terms_that_are_not_prefixes_of_each_other(self):
        elements = [
            GroupRingElement(ABGD, [(parse_word(text, ABGD), c) for text, c in terms])
            for terms in (
                [("a b", 1), ("b a", -1), ("g d g", 2)],
                [("d", 1), ("a b g", -3), ("b", 1)],
                [("g^-1 a", 1), ("a^-1", -1)],
            )
        ]
        for rep in _actions_over(random.Random(47), (0, 2, 9)):
            self.assert_side_by_side(rep, elements)
            self.assert_side_by_side(rep, elements[::-1])

    def test_equal_length_ties_across_elements(self):
        # The same word and other words of its length in several elements,
        # with coefficients that cancel across the elements but not within one.
        ab, ba, gd = (parse_word(text, ABGD) for text in ("a b", "b a", "g d"))
        elements = [
            GroupRingElement(ABGD, [(ab, 1), (ba, 2)]),
            GroupRingElement(ABGD, [(ab, -1), (gd, 1)]),
            GroupRingElement(ABGD, [(ba, -2), (ab, 5), (gd, -1)]),
        ]
        for rep in _actions_over(random.Random(48), (0, 4)):
            self.assert_side_by_side(rep, elements)

    def test_empty_word_and_zero_elements(self):
        zero, one = GroupRingElement.zero(ABGD), GroupRingElement.one(ABGD)
        a = GroupRingElement.from_word(parse_word("a", ABGD), -2)
        for rep in _actions_over(random.Random(49), (0, 3)):
            for elements in ([zero], [zero, zero], [one], [zero, one, zero], [one, a, one - one], [a, zero, one * 4]):
                self.assert_side_by_side(rep, elements)
            assert evaluate_group_ring(rep, zero, zero, zero) == IntMatrix.zeros(4, 12)


class TestDual:
    def test_dual_twice_is_the_action(self):
        rng = random.Random(43)
        for rep in _actions_over(rng, (0, 2, 3, 8)):
            assert dual(dual(rep)) == rep

    def test_word_acts_by_inverse_transpose(self):
        rng = random.Random(44)
        for rep in _actions_over(rng, (0, 2, 4, 9)):
            dual_rep = dual(rep)
            for _ in range(20):
                w = random_word(rng, ABGD, max_len=10)
                assert evaluate_word(dual_rep, w) == evaluate_word(rep, invert(w)).transpose()


class TestLetterRows:
    def test_read_once_per_representation(self, monkeypatch):
        # The nonzero rows of M_g and M_g^-1 are read once per
        # Representation, not once per evaluate_group_ring call, of which
        # cocycle_matrix makes one per relator.
        calls = []
        real = representation._nonzero_rows

        def counting(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(representation, "_nonzero_rows", counting)
        example = chain_example(4)
        p = example.presentation
        for rep in (example.representation, dual(example.representation)):
            calls.clear()
            cocycle_matrix(p, rep)
            assert 0 < len(calls) <= 2 * len(p.generators)
            cocycle_matrix(p, rep)
            assert len(calls) <= 2 * len(p.generators)

    def test_walked_equals_and_hashes_like_fresh(self):
        example = chain_example(4)
        rep = example.representation
        fresh = Representation(rep.ring, rep.rank, rep.alphabet, rep.matrices, rep.inverse_matrices)
        cocycle_matrix(example.presentation, rep)
        assert "_letter_rows" in vars(rep) and "_letter_rows" not in vars(fresh)
        assert rep == fresh and hash(rep) == hash(fresh)


class TestDiagnostics:
    def test_e2_relators_trivial(self):
        assert check_relators_trivial(E2.representation, E2.presentation) == []

    def test_violation_reported(self):
        gens = (Generator("a"),)
        rep = Representation.build(
            CoefficientRing.integers(),
            gens,
            (IntMatrix.from_rows([[0, -1], [1, 0]]),),  # order 4
        )
        p = Presentation(gens, (parse_word("a a", gens),))
        report = check_relators_trivial(rep, p)
        assert len(report) == 1 and report[0].severity == "error"

    def test_empty_relator_list(self):
        assert check_relators_trivial(E2.representation, Presentation(ABGD, ())) == []

    def test_e2_preserves_symplectic_form(self):
        assert check_bilinear_form_preserved(E2.representation, E2.form) == []

    def test_identity_rep_preserves_any_form(self):
        rng = random.Random(12)
        gens = (Generator("a"),)
        rep = Representation.build(CoefficientRing.integers(), gens, (IntMatrix.identity(3),))
        form = IntMatrix(3, 3, tuple(rng.randint(-4, 4) for _ in range(9)))
        assert check_bilinear_form_preserved(rep, form) == []

    def test_form_of_the_wrong_shape_is_rejected(self):
        with pytest.raises(ValueError, match="form has the wrong shape"):
            check_bilinear_form_preserved(E2.representation, IntMatrix.identity(3))

    def test_form_violation_mod_5(self):
        gens = (Generator("a"),)
        rep = Representation.build(
            CoefficientRing.modular(5), gens, (IntMatrix.diagonal([2, 1, 1, 1]),)
        )
        report = check_bilinear_form_preserved(rep, E2.form)
        assert len(report) == 1 and report[0].severity == "error"


class TestChangeRing:
    def test_z_to_mod(self):
        rep = change_ring(E2.representation, CoefficientRing.modular(2))
        assert rep.ring.modulus == 2
        assert all(set(m.entries) <= {0, 1} for m in rep.matrices)

    def test_mod_to_divisor(self):
        rep4 = change_ring(E2.representation, CoefficientRing.modular(4))
        rep2 = change_ring(rep4, CoefficientRing.modular(2))
        assert rep2.matrices == change_ring(E2.representation, CoefficientRing.modular(2)).matrices

    def test_same_ring_is_the_same_action(self):
        rep = E2.representation
        assert change_ring(rep, rep.ring) is rep
        rep4 = change_ring(rep, CoefficientRing.modular(4))
        assert change_ring(rep4, CoefficientRing.modular(4)) is rep4

    @pytest.mark.parametrize("name", sorted(builtin_examples()) + ["chain3"])
    def test_reduction_is_the_rebuild(self, name):
        # Reduction mod m is a ring map, so reducing the stored inverses gives
        # entry for entry the inverses a rebuild over Z/m computes.
        rep = chain_example(3).representation if name == "chain3" else builtin_examples()[name].representation
        for moduli in ([2], [3], [4], [8], [8, 4, 2]):
            changed = rep
            for modulus in moduli:
                ring = CoefficientRing(modulus)
                changed = change_ring(changed, ring)
                assert changed == Representation.build(ring, rep.alphabet, rep.matrices, rank=rep.rank)

    def test_invalid_changes(self):
        rep3 = change_ring(E2.representation, CoefficientRing.modular(3))
        with pytest.raises(ValueError):
            change_ring(rep3, CoefficientRing.modular(2))
        with pytest.raises(ValueError):
            change_ring(rep3, CoefficientRing.integers())
