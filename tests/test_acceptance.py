"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from contextlib import contextmanager

from twistedhom import (
    AbelianGroupStructure,
    CoefficientRing,
    IntMatrix,
    Presentation,
    Representation,
    brute_force_h1_mod2,
    change_ring,
    cocycle_matrix,
    coinvariants,
    dual,
    fundamental_identity_check,
    goeritz_e2,
    h1_cohomology,
    h1_homology,
    hstack,
    identity_word,
    invert,
    kernel_basis,
    kerf_reduction,
    lattice_quotient,
    multiply,
    parse_word,
    principal_map,
    snf,
    solve_in_lattice,
    uct_check,
)
from twistedhom.homology import checked_cochains
from twistedhom.words import Generator

from support import perturbed_pair, random_int_matrix, random_word

E2 = goeritz_e2()


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_main_homology_result():
    with criterion(1, "H_1 of the Goeritz example over Z is Z/2 + Z/2, under a second"):
        start = time.time()
        result = h1_homology(E2.presentation, E2.representation)
        elapsed = time.time() - start
        assert result == AbelianGroupStructure(0, (2, 2))
        assert elapsed < 1.0


def test_criterion_2_coinvariants_vanish():
    with criterion(2, "coinvariants of the Goeritz example vanish"):
        assert coinvariants(E2.representation).is_trivial()


def test_criterion_3_cohomology_over_four_rings():
    description = "H^1 is (Z/2)^2 over Z/2 and Z/4, trivial over Z and Z/5"
    with criterion(3, description):
        expected = {
            0: AbelianGroupStructure.trivial(),
            2: AbelianGroupStructure(0, (2, 2)),
            4: AbelianGroupStructure(0, (2, 2)),
            5: AbelianGroupStructure.trivial(),
        }
        for modulus, structure in expected.items():
            rep = change_ring(E2.representation, CoefficientRing(modulus))
            assert h1_cohomology(E2.presentation, rep).h1 == structure, modulus
        # Consistency with the two-parameter solution set
        # {(s, t) in A^2 : 2s = 2t = 0}: its size over Z/2 and Z/4 is 4 and
        # over Z and Z/5 it is 1.
        for modulus, structure in expected.items():
            if modulus in (2, 4):
                assert structure.order() == 4
            else:
                assert structure.order() == 1


def test_criterion_4_brute_force_oracle():
    with criterion(4, "mod-2 oracle enumerates 2^16 candidates to (z1, b1, h1) = (64, 16, 4)"):
        assert len(E2.presentation.generators) * E2.representation.rank == 16
        start = time.time()
        counts = brute_force_h1_mod2(E2.presentation, E2.representation)
        elapsed = time.time() - start
        assert counts == (64, 16, 4)
        assert counts.h1_count == 4  # matches the order-4 result of criterion 3
        assert elapsed < 10.0


def test_criterion_5_kerf_fast_path():
    description = "ker-f path agrees over Z, Z/2, Z/4 and f*P is v -> (v2, -v1+v2, v3-v4, -v3)"
    with criterion(5, description):
        for modulus in (0, 2, 4):
            rep = change_ring(E2.representation, CoefficientRing(modulus))
            fast = kerf_reduction(E2.presentation, rep, E2.kerf)
            full = h1_cohomology(E2.presentation, rep)
            assert fast.h1 == full.h1, modulus
        fp = E2.kerf * principal_map(E2.representation).matrix
        assert fp == IntMatrix.from_rows(
            [[0, 1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 0]]
        )
        assert fp.det() in (1, -1)


# Linear constraints on the 16 stacked cocycle coordinates, in the layout
# (d(a), d(b), d(g), d(d)) with module slots (x1, x2, y1, y2): coordinate
# s of d(generator i) has index 4*i + s. Each row below was derived by hand
# from one defining relation by expanding the cocycle rule
# d(uv) = d(u) + u d(v) on both sides and comparing basis coefficients.
def _row(coeffs):
    row = [0] * 16
    for index, value in coeffs.items():
        row[index] = value
    return row


CONSTRAINT_ROWS = [
    # from (a g)^2 = 1: x slots and y slots each give one condition
    ("ag_x", _row({0: 1, 1: 1, 8: -1, 9: -1}), False),
    ("ag_y", _row({2: 1, 3: 1, 10: -1, 11: -1}), False),
    # from a d a = d
    ("ada_x1", _row({0: 2, 1: 1, 12: -2}), False),
    ("ada_x2", _row({0: -1, 1: 1, 13: -2}), False),
    ("ada_y1", _row({2: 1, 3: 1, 14: -2}), False),
    ("ada_y2", _row({2: -1, 3: 2, 15: -2}), False),
    # from a b a = b: the four conditions carry an overall factor of 2
    ("aba_x1", _row({4: 2}), True),
    ("aba_y1", _row({6: 2}), True),
    ("aba_x2", _row({1: 2, 5: -2}), True),
    ("aba_y2", _row({3: 2, 7: -2}), True),
    # from g b g = a b. Note the expansion d(gbg) = d(g) + g d(b) + gb d(g)
    # applies the composite gb with b acting first (function composition),
    # the same convention the gddg rows below need; getting this order
    # wrong flips the d(g) contributions and breaks all four rows.
    ("gbg_x1", _row({8: 1, 9: 1, 5: -1, 0: -1, 4: 1}), False),
    ("gbg_x2", _row({8: -1, 9: 1, 4: -1, 1: -1, 5: 1}), False),
    ("gbg_y1", _row({10: 1, 11: 1, 7: -1, 2: -1, 6: 1}), False),
    ("gbg_y2", _row({10: -1, 11: 1, 6: -1, 3: -1, 7: 1}), False),
    # from g d d g = d
    ("gddg_x1", _row({8: 2, 9: 1, 12: -2, 13: -1}), False),
    ("gddg_y1", _row({10: 1, 14: -1}), False),
]


def test_criterion_6_relation_regression():
    description = "all 16 hand-derived constraints vanish on ker J; doubled ones lie in the row lattice"
    with criterion(6, description):
        J = cocycle_matrix(E2.presentation, E2.representation)
        K = kernel_basis(J)
        assert K.cols == 4
        for name, row, doubled in CONSTRAINT_ROWS:
            product = IntMatrix.from_rows([row]) * K
            assert product.is_zero(), name
            if doubled:
                assert solve_in_lattice(J.transpose(), row) is not None, name
        # The constraint system and the cocycle matrix carve out the same
        # integer solution lattice.
        R = IntMatrix.from_rows([row for _, row, _ in CONSTRAINT_ROWS])
        assert (J * kernel_basis(R)).is_zero()
        assert (R * K).is_zero()


def test_criterion_7_universal_coefficients():
    with criterion(7, "H^1 matches Ext(H_0, A) + Hom(H_1, A) for A in {Z, Z/2, Z/3, Z/4, Z/8}"):
        comparisons = uct_check(E2.presentation, E2.representation, [2, 3, 4, 8])
        assert len(comparisons) == 5
        for c in comparisons:
            assert c.match, str(c.ring)


def test_criterion_8_property_suites():
    description = "randomized suites: SNF, derivative identity, word axioms, J*P = 0, chain checks"
    with criterion(8, description):
        rng = random.Random(88)

        # Smith normal form invariants on 100 small matrices.
        for _ in range(100):
            a = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            res = snf(a)
            assert res.U * a * res.V == res.D
            assert res.U.det() in (1, -1) and res.V.det() in (1, -1)
            diag = res.diagonal()
            assert all(x >= 0 for x in diag)
            assert all(b % a_ == 0 for a_, b in zip(diag, diag[1:]) if a_)

        # Derivative summation identity on 100 random words.
        for _ in range(100):
            alphabet = tuple(Generator(f"g{i}") for i in range(rng.randint(1, 4)))
            assert fundamental_identity_check(random_word(rng, alphabet, 10))

        # Word algebra axioms on 100 random triples.
        alphabet = E2.presentation.generators
        for _ in range(100):
            u, v, w = (random_word(rng, alphabet, 6) for _ in range(3))
            assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
            assert multiply(w, invert(w)) == identity_word(alphabet)

        # Principal cocycles are cocycles, boundaries compose to zero, and
        # the cokernel of the first boundary is the coinvariants, all on
        # 100 random valid pairs built from perturbed built-in examples.
        for _ in range(100):
            p, rep = perturbed_pair(rng)
            n = rep.ring.modulus
            J = cocycle_matrix(p, rep)
            P = principal_map(rep).matrix
            assert (J * P).mod(n).is_zero()
            dual_J, dual_P = checked_cochains(p, dual(rep))
            d1, d2 = dual_P.transpose(), dual_J.transpose()
            assert (d1 * d2).mod(n).is_zero()
            columns = d1 if n == 0 else hstack(d1, IntMatrix.identity(d1.rows).scale(n))
            cokernel = lattice_quotient(IntMatrix.identity(d1.rows), columns)
            assert cokernel == coinvariants(rep)


def test_criterion_9_order_two_toy_oracle():
    description = "sign action of the order-2 group on Z has H^1 = Z/2, by engine and by hand"
    with criterion(9, description):
        gens = (Generator("a"),)
        rep = Representation.build(
            CoefficientRing.integers(), gens, (IntMatrix.from_rows([[-1]]),)
        )
        p = Presentation(gens, (parse_word("a a", gens),))

        # Hand computation. A cocycle is determined by m = d(a), constrained
        # by 0 = d(a a) = (1 + action(a)) m = (1 - 1) m, so Z^1 = Z. The
        # principal cocycle of u sends a to action(a)u - u = -2u, so
        # B^1 = 2Z and the quotient is Z/2.
        J = cocycle_matrix(p, rep)
        assert J == IntMatrix.zeros(1, 1)
        P = principal_map(rep).matrix
        assert P == IntMatrix.from_rows([[-2]])
        assert lattice_quotient(IntMatrix.identity(1), P) == AbelianGroupStructure(0, (2,))

        # Engine computation.
        assert h1_cohomology(p, rep).h1 == AbelianGroupStructure(0, (2,))
