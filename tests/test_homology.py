import random
from collections import Counter
from dataclasses import replace
from math import gcd

import pytest

from twistedhom import (
    AbelianGroupStructure,
    CoefficientRing,
    Generator,
    IntMatrix,
    Presentation,
    Representation,
    brute_force_h1_mod2,
    builtin_examples,
    change_ring,
    check_relators_trivial,
    cocycle_matrix,
    coinvariants,
    dual,
    goeritz_e2,
    h1_cohomology,
    h1_homology,
    hstack,
    kerf_reduction,
    kernel_basis,
    lattice_quotient,
    parse_word,
    principal_map,
    snf,
    solve_in_lattice,
    toy_examples,
    uct_check,
    Word,
)

from twistedhom import cli, homology, representation
from twistedhom.exactlinalg import _subquotient
from twistedhom.homology import _kernel_size_mod2, checked_cochains

from support import (
    SnfRecorder,
    adjugate,
    chain_example,
    count_calls,
    distinct_images_mod2,
    gf_rank,
    gray_code_kernel_count,
    inverse_difference_d1,
    involuted_d2,
    perturbed_pair,
    random_int_matrix,
    random_word,
    reference_coinvariants,
    reference_h1_homology,
    reference_homology,
    row_mask_kernel_count,
    sl2_sym_example,
    walked_dual_uct_expected,
    workload_examples,
)

E2 = goeritz_e2()
ABGD = E2.presentation.generators
TOYS = {ex.name: ex for ex in toy_examples()}


def rep_over(example, modulus):
    return change_ring(example.representation, CoefficientRing(modulus))


@pytest.mark.parametrize("modulus", [2.0, "2"])
def test_uct_moduli_must_be_ints(modulus):
    with pytest.raises(TypeError):
        uct_check(E2.presentation, E2.representation, (modulus,))


class TestCoinvariants:
    def test_e2_coinvariants_vanish(self):
        assert coinvariants(E2.representation).is_trivial()

    def test_trivial_action(self):
        rep = Representation.build(
            CoefficientRing.integers(), (Generator("a"),), (IntMatrix.identity(3),)
        )
        assert coinvariants(rep) == AbelianGroupStructure.free(3)

    def test_sign_action_on_z2(self):
        rep = Representation.build(
            CoefficientRing.integers(), (Generator("a"),), (IntMatrix.identity(2).scale(-1),)
        )
        assert coinvariants(rep) == AbelianGroupStructure(0, (2, 2))

    def test_mod_n(self):
        rep = rep_over(TOYS["c2_sign"], 4)
        assert coinvariants(rep) == AbelianGroupStructure(0, (2,))


class TestPrincipalMap:
    def test_trivial_action_gives_zero(self):
        assert principal_map(TOYS["free2"].representation).matrix.is_zero()

    def test_e2_alpha_block_on_x1(self):
        P = principal_map(E2.representation).matrix
        column = P.column(0)  # image of x1
        assert column[0:4] == (-2, 0, 0, 0)  # block of a

    def test_e2_gamma_block_on_x1(self):
        P = principal_map(E2.representation).matrix
        assert P.column(0)[8:12] == (-1, -1, 0, 0)  # block of g

    def test_shape(self):
        P = principal_map(E2.representation).matrix
        assert P.rows == 16 and P.cols == 4


class TestH1Cohomology:
    def test_e2_over_rings(self):
        expected = {
            0: AbelianGroupStructure.trivial(),
            2: AbelianGroupStructure(0, (2, 2)),
            4: AbelianGroupStructure(0, (2, 2)),
            5: AbelianGroupStructure.trivial(),
        }
        for modulus, structure in expected.items():
            assert h1_cohomology(E2.presentation, rep_over(E2, modulus)).h1 == structure

    def test_c2_sign_hand_computation(self):
        # d(a) = m is a cocycle iff (1 + action(a)) m = 0; the action is -1,
        # so every m works and Z^1 = Z. Principal cocycles are
        # (action(a) - 1)u = -2u, so B^1 = 2Z and H^1 = Z/2.
        toy = TOYS["c2_sign"]
        result = h1_cohomology(toy.presentation, toy.representation)
        assert result.h1 == AbelianGroupStructure(0, (2,))
        assert result.z1_basis.cols == 1

    def test_witnesses_are_cocycles_with_right_order(self):
        rep = rep_over(E2, 2)
        result = h1_cohomology(E2.presentation, rep)
        J = cocycle_matrix(E2.presentation, rep)
        P = principal_map(rep).matrix
        coboundaries = hstack(P, IntMatrix.identity(16).scale(2))
        assert len(result.witnesses) == 2
        for witness in result.witnesses:
            assert all(v % 2 == 0 for v in J.apply(witness))
            # order exactly 2 in the quotient
            assert solve_in_lattice(coboundaries, witness) is None
            assert solve_in_lattice(coboundaries, [2 * x for x in witness]) is not None

    def test_e2_mod2_witnesses_span_reference_classes(self):
        # Reference cocycles in the layout (d(a), d(b), d(g), d(d)):
        # d(a) = 0, d(b) = s(-x1+x2) + t(y1+y2), d(g) = s(x1+x2),
        # d(d) = -s*x2 + t*y2, for the two choices (s,t) = (1,0), (0,1).
        ref1 = (0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0)
        ref2 = (0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1)
        rep = rep_over(E2, 2)
        J = cocycle_matrix(E2.presentation, rep)
        for ref in (ref1, ref2):
            assert all(v % 2 == 0 for v in J.apply(ref))
        result = h1_cohomology(E2.presentation, rep)
        P = principal_map(rep).matrix
        coboundaries = hstack(P, IntMatrix.identity(16).scale(2))

        def spans(vectors):
            return hstack(coboundaries, IntMatrix.from_columns(16, vectors))

        reference = spans([ref1, ref2])
        computed = spans(list(result.witnesses))
        for witness in result.witnesses:
            assert solve_in_lattice(reference, witness) is not None
        for ref in (ref1, ref2):
            assert solve_in_lattice(computed, ref) is not None

    def test_order_matches_field_dimension_count(self):
        # Over a prime field, |H^1| = p^(nullity(J) - rank(P)); both ranks
        # come from plain Gaussian elimination, independent of the lattice
        # machinery.
        rng = random.Random(41)
        for _ in range(40):
            p, rep = perturbed_pair(rng)
            for prime in (2, 3, 5):
                if rep.ring.modulus not in (0, prime):
                    continue
                modular = change_ring(rep, CoefficientRing(prime))
                J = cocycle_matrix(p, modular)
                P = principal_map(modular).matrix
                nullity = J.cols - gf_rank(J, prime)
                expected = prime ** (nullity - gf_rank(P, prime))
                assert h1_cohomology(p, modular).h1.order() == expected

    def test_refuses_nontrivial_relator_action(self):
        gens = (Generator("a"),)
        rep = Representation.build(
            CoefficientRing.integers(), gens, (IntMatrix.from_rows([[0, -1], [1, 0]]),)
        )
        p = Presentation(gens, (parse_word("a a", gens),))
        with pytest.raises(ValueError, match="ill-posed"):
            h1_cohomology(p, rep)


class TestRelatorCheckParity:
    """Every stage rejects an action whose relators do not hold with the
    findings of check_relators_trivial, although none of them evaluates a
    relator: they read J*P or d1*d2."""

    STAGES = {
        "h1_cohomology": lambda p, rep: h1_cohomology(p, rep),
        "kerf_reduction": lambda p, rep: kerf_reduction(p, rep, IntMatrix.zeros(2, 4)),
        "h1_homology": lambda p, rep: h1_homology(p, rep),
        "uct_check": lambda p, rep: uct_check(p, rep, (2, 3)),
        "brute_force_h1_mod2": lambda p, rep: brute_force_h1_mod2(p, rep),
    }

    @pytest.mark.parametrize("relators", [("a b^-1", "a"), ("a", "a b^-1", "b a")], ids=["one", "two"])
    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_same_message_as_check_relators_trivial(self, stage, relators):
        gens = (Generator("a"), Generator("b"))
        m = IntMatrix.from_rows([[0, 1], [1, 1]])  # neither m nor m^2 is 1, over Z or mod 2
        rep = Representation.build(CoefficientRing.integers(), gens, (m, m))
        p = Presentation(gens, tuple(parse_word(r, gens) for r in relators))
        checked = change_ring(rep, CoefficientRing(2)) if stage == "brute_force_h1_mod2" else rep
        messages = [d.message for d in check_relators_trivial(checked, p)]
        assert len(messages) == len(relators) - 1
        with pytest.raises(ValueError) as err:
            self.STAGES[stage](p, rep)
        assert str(err.value) == "cocycle condition is ill-posed: " + "; ".join(messages)


def _kernel_lattice(factored, n):
    """The kernel basis K that _subquotient returns with generators, for an
    empty subgroup."""
    return _subquotient(factored, IntMatrix.zeros(factored.V.cols, 0), n, generators=True)[1]


def _augmented_kernel_over_ring(matrix, n):
    """Reference route to {v : matrix*v = 0 mod n}: the integer kernel of
    [matrix | n*I], projected to the first block of coordinates."""
    full = kernel_basis(hstack(matrix, IntMatrix.identity(matrix.rows).scale(n)))
    return IntMatrix.from_rows([full.row(i) for i in range(matrix.cols)])


class TestModularKernelLattice:
    def test_matches_augmented_reference(self):
        # The lattice contains n*Z^cols, so both bases are square. The new
        # basis lies in the reference lattice (adj(R)*B = 0 mod det R, i.e.
        # R^-1 * B is integral) and has the same index |det| in Z^cols, so
        # the two lattices are equal.
        rng = random.Random(909)
        for trial in range(60):
            rows, cols = rng.randint(1, 6), rng.randint(1, 5)
            matrix = random_int_matrix(rng, rows, cols, -6, 6).to_rows()
            if trial % 3 == 0:
                matrix[rng.randrange(rows)] = [0] * cols
            if trial % 3 == 1 and rows > 1:
                i, j = rng.sample(range(rows), 2)
                matrix[i] = [2 * x - 3 * y for x, y in zip(matrix[j], matrix[i - 1])]
            if trial % 4 == 0:
                column = rng.randrange(cols)
                for row in matrix:
                    row[column] = 2 * row[0]
            matrix = IntMatrix.from_rows(matrix)
            for n in (2, 3, 4, 6, 8, 9):
                factored = snf(matrix, transforms="VX")
                basis = _kernel_lattice(factored, n)
                scales = [n // gcd(d, n) for d in factored.diagonal()] + [1] * (cols - len(factored.diagonal()))
                assert basis == factored.V * IntMatrix.diagonal(scales)
                assert abs(factored.V.det()) == 1
                reference = _augmented_kernel_over_ring(matrix, n)
                assert basis.rows == basis.cols == reference.cols == cols
                assert (matrix * basis).mod(n).is_zero()
                det = reference.det()
                assert det != 0 and abs(basis.det()) == abs(det)
                assert (adjugate(reference) * basis).mod(abs(det)).is_zero()

    def test_zero_matrix_and_units(self):
        assert _kernel_lattice(snf(IntMatrix.zeros(2, 3), transforms="VX"), 4) == IntMatrix.identity(3)
        factored = snf(IntMatrix.identity(2), transforms="VX")
        basis = _kernel_lattice(factored, 6)
        assert basis == factored.V.scale(6) and abs(basis.det()) == 36


class TestH1Homology:
    def test_e2(self):
        assert h1_homology(E2.presentation, E2.representation) == AbelianGroupStructure(0, (2, 2))

    def test_free_group_abelianization(self):
        gens = tuple(Generator(f"g{i}") for i in range(3))
        rep = Representation.build(
            CoefficientRing.integers(), gens, (IntMatrix.identity(1),) * 3
        )
        assert h1_homology(Presentation(gens, ()), rep) == AbelianGroupStructure.free(3)

    def test_trivial_group(self):
        toy = TOYS["trivial"]
        assert h1_homology(toy.presentation, toy.representation).is_trivial()

    def test_boundaries_compose_to_zero(self):
        # d1 = P^T and d2 = J^T of the dual, as h1_homology reads them.
        for example in [E2, *TOYS.values()]:
            J, P = checked_cochains(example.presentation, dual(example.representation))
            assert (P.transpose() * J.transpose()).is_zero()

    def test_d2_matches_involution_reference(self):
        for example in [E2, *TOYS.values()]:
            for n in (0, 2, 3, 4, 8):
                rep = rep_over(example, n)
                J, _ = checked_cochains(example.presentation, dual(rep))
                assert J.transpose() == involuted_d2(example.presentation, rep)
        rng = random.Random(37)
        for _ in range(20):
            p, rep = perturbed_pair(rng)
            assert checked_cochains(p, dual(rep))[0].transpose() == involuted_d2(p, rep)
        # Relators need not act trivially for the boundary to be defined, but
        # checked_cochains refuses them, so these take J unchecked.
        for n in (0, 2, 9):
            rep = rep_over(E2, n)
            relators = tuple(random_word(rng, ABGD, max_len=20) for _ in range(3))
            p = Presentation(ABGD, relators)
            assert cocycle_matrix(p, dual(rep)).transpose() == involuted_d2(p, rep)

    def test_d1_matches_inverse_difference_reference(self):
        for example in [E2, *TOYS.values()]:
            for n in (0, 2, 3, 4, 8):
                rep = rep_over(example, n)
                _, P = checked_cochains(example.presentation, dual(rep))
                assert P.transpose() == inverse_difference_d1(rep)
        rng = random.Random(41)
        for _ in range(20):
            p, rep = perturbed_pair(rng)
            for n in (0, 2, 3, 4, 8):
                if rep.ring.modulus in (0, n):
                    ring_rep = change_ring(rep, CoefficientRing(n))
                    _, P = checked_cochains(p, dual(ring_rep))
                    assert P.transpose() == inverse_difference_d1(ring_rep)

    def test_cokernel_of_d1_is_coinvariants(self):
        for example in [E2, *TOYS.values()]:
            d1 = checked_cochains(example.presentation, dual(example.representation))[1].transpose()
            cokernel = lattice_quotient(IntMatrix.identity(d1.rows), d1)
            assert cokernel == coinvariants(example.representation)

    def test_modular_coefficients_match_tor_arithmetic(self):
        # Over Z/n, first homology is H_1 tensor Z/n plus Tor(H_0, Z/n),
        # both computable by hand from the integral answers.
        from math import gcd

        for example in [E2, *TOYS.values()]:
            h0 = coinvariants(example.representation)
            h1 = h1_homology(example.presentation, example.representation)
            for n in (2, 3, 4):
                tensor = [n] * h1.free_rank + [gcd(d, n) for d in h1.torsion]
                tor = [gcd(d, n) for d in h0.torsion]
                expected = AbelianGroupStructure.from_cyclic_orders(tensor + tor)
                computed = h1_homology(example.presentation, rep_over(example, n))
                assert computed == expected, (example.name, n)

    def test_base_change_invariance(self):
        # H_1 is an isomorphism invariant, so conjugating the module basis
        # must not change it.
        rng = random.Random(31)
        hits = 0
        while hits < 5:
            p, rep = perturbed_pair(rng)
            if rep.rank != 4 or rep.ring.modulus != 0 or len(p.generators) != 4:
                continue
            hits += 1
            assert h1_homology(p, rep) == AbelianGroupStructure(0, (2, 2))


class TestFoxMatrixCost:
    @pytest.mark.parametrize("power", [200, 400])
    def test_products_linear_in_relator_length(self, monkeypatch, power):
        # d(a^k)/da has the k prefixes a^0 .. a^(k-1) as its terms: one
        # product per letter past the first term, not one per prefix letter,
        # and none for a^1, which starts from the stored matrix of a.
        # The walk multiplies through the kernel only, never IntMatrix.__mul__.
        counts = Counter()
        multiply, kernel = IntMatrix.__mul__, representation._product

        def counting(name, function):
            def wrapper(*args):
                counts[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(IntMatrix, "__mul__", counting("IntMatrix", multiply))
        monkeypatch.setattr(representation, "_product", counting("kernel", kernel))
        p = Presentation(ABGD, (parse_word(f"a^{power}", ABGD),))
        for action in (E2.representation, dual(E2.representation)):
            counts.clear()
            cocycle_matrix(p, action)
            assert counts["kernel"] + counts["IntMatrix"] == power - 2
            assert counts["IntMatrix"] == 0


class TestKerfReduction:
    def test_e2_fast_path_matches_full_computation(self):
        for modulus in (0, 2, 4):
            rep = rep_over(E2, modulus)
            fast = kerf_reduction(E2.presentation, rep, E2.kerf)
            full = h1_cohomology(E2.presentation, rep)
            assert fast.h1 == full.h1

    def test_e2_fp_matrix(self):
        P = principal_map(E2.representation).matrix
        fp = E2.kerf * P
        assert fp == IntMatrix.from_rows(
            [[0, 1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 0]]
        )
        assert fp.det() in (1, -1)

    def test_zero_row_fails_precondition(self):
        bad = IntMatrix.from_rows(
            [[0] * 16, list(E2.kerf.row(1)), list(E2.kerf.row(2)), list(E2.kerf.row(3))]
        )
        with pytest.raises(ValueError, match="determinant 0"):
            kerf_reduction(E2.presentation, E2.representation, bad)

    def test_trivial_action_always_fails(self):
        toy = TOYS["free2"]
        f = IntMatrix.from_rows([[1, 0]])
        with pytest.raises(ValueError, match="not invertible"):
            kerf_reduction(toy.presentation, toy.representation, f)

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="must be 4x16"):
            kerf_reduction(E2.presentation, E2.representation, IntMatrix.zeros(4, 4))

    def test_free_group_over_z_is_free_on_the_kernel(self):
        # With no relators every assignment is a cocycle, and f*P = 1 splits
        # Z^4 as ker f + im P, so H^1 = ker f, generated by its basis.
        gens = (Generator("a"), Generator("b"))
        rep = Representation.build(
            CoefficientRing.integers(),
            gens,
            (IntMatrix.from_rows([[1, 1], [0, 1]]), IntMatrix.from_rows([[1, 0], [1, 1]])),
        )
        p = Presentation(gens, ())
        f = IntMatrix.from_rows([[0, 0, 0, 1], [1, 0, 0, 0]])
        assert f * principal_map(rep).matrix == IntMatrix.identity(2)
        result = kerf_reduction(p, rep, f)
        K = result.z1_basis
        assert (K.rows, K.cols) == (4, 2) and (f * K).is_zero()
        assert result.h1 == AbelianGroupStructure.free(2) == h1_cohomology(p, rep).h1
        assert result.witnesses == (K.column(0), K.column(1))

    def test_witnesses_are_cocycles(self):
        rep = rep_over(E2, 2)
        result = kerf_reduction(E2.presentation, rep, E2.kerf)
        J = cocycle_matrix(E2.presentation, rep)
        assert result.h1 == AbelianGroupStructure(0, (2, 2))
        for witness in result.witnesses:
            assert all(v % 2 == 0 for v in J.apply(witness))
            assert all(v % 2 == 0 for v in E2.kerf.apply(witness))


class TestUct:
    def test_e2_consistent(self):
        comparisons = uct_check(E2.presentation, E2.representation, [2, 3, 4, 8])
        assert len(comparisons) == 5
        assert all(c.match for c in comparisons)

    def test_trivial_group_consistent(self):
        toy = TOYS["trivial"]
        comparisons = uct_check(toy.presentation, toy.representation, [2, 3])
        assert all(c.match for c in comparisons)
        assert all(c.computed.is_trivial() for c in comparisons)

    def test_corrupted_h1_reported(self, monkeypatch):
        # A spurious pivot 3 of P, the one SNF without transforms here: the
        # expected side gains Ext(Z/3, A) and loses one free summand of
        # H_1(G; M^*), while the computed side, read off J alone, is as before.
        clean = {c.ring: c.computed for c in uct_check(E2.presentation, E2.representation, [2, 3])}
        real_snf = homology.snf

        def spurious(matrix, *, transforms="UV"):
            result = real_snf(matrix, transforms=transforms)
            return replace(result, pivots=result.pivots + (3,)) if transforms == "" else result

        monkeypatch.setattr(homology, "snf", spurious)
        comparisons = {c.ring: c for c in uct_check(E2.presentation, E2.representation, [2, 3])}
        assert {ring: c.computed for ring, c in comparisons.items()} == clean
        assert not comparisons[CoefficientRing.integers()].match
        assert not comparisons[CoefficientRing.modular(3)].match

    def test_matches_per_ring_route(self):
        moduli = (2, 3, 4, 8, 9)
        examples = [(ex.presentation, ex.representation) for ex in [E2, *TOYS.values()]]
        rng = random.Random(43)
        while len(examples) < 13:
            p, rep = perturbed_pair(rng)
            if rep.ring.modulus == 0:
                examples.append((p, rep))
        for p, rep in examples:
            comparisons = uct_check(p, rep, moduli)
            assert [c.ring.modulus for c in comparisons] == [0, *moduli]
            for c in comparisons:
                assert c.computed == h1_cohomology(p, change_ring(rep, c.ring)).h1

    def test_one_cocycle_matrix_and_no_rebuild(self, monkeypatch):
        calls = {"cocycle_matrix": 0, "change_ring": 0, "build": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(homology, "cocycle_matrix", counted("cocycle_matrix", homology.cocycle_matrix))
        monkeypatch.setattr(homology, "change_ring", counted("change_ring", homology.change_ring))
        build = Representation.__dict__["build"].__func__
        monkeypatch.setattr(Representation, "build", classmethod(counted("build", build)))
        comparisons = uct_check(E2.presentation, E2.representation, [2, 3, 4, 8])
        assert all(c.match for c in comparisons)
        assert calls == {"cocycle_matrix": 1, "change_ring": 0, "build": 0}

    def test_one_snf_of_the_cocycle_matrix(self, monkeypatch):
        for example in (E2, chain_example(3)):
            p, rep = example.presentation, example.representation
            J = cocycle_matrix(p, rep)
            built = []
            monkeypatch.setattr(
                homology, "cocycle_matrix", lambda *args: built.append(args) or cocycle_matrix(*args)
            )
            recorder = SnfRecorder(monkeypatch)
            comparisons = uct_check(p, rep, (2, 3, 4, 8, 9))
            monkeypatch.undo()
            assert all(c.match for c in comparisons)
            assert len(built) == 1
            assert [transforms for _, m, transforms in recorder.calls if m == J] == ["VX"]

    def test_one_snf_of_j_and_no_solve(self, monkeypatch):
        # H_0 and H_1 included: J is factored once, with V^-1, for all five
        # rings, and every ring, Z too, reads its coordinates off V^-1; no
        # lattice is solved.
        for example in (E2, chain_example(4)):
            p, rep = example.presentation, example.representation
            J = cocycle_matrix(p, rep)
            recorder = SnfRecorder(monkeypatch)
            solves = count_calls(monkeypatch, "solve_in_lattice")
            comparisons = uct_check(p, rep, (2, 3, 4, 8))
            monkeypatch.undo()
            assert all(c.match for c in comparisons)
            assert [(caller, t) for caller, m, t in recorder.calls if m == J] == [("uct_check", "VX")]
            assert solves == []

    def test_the_coh1_stage_over_z_still_solves_once(self, monkeypatch):
        # The witness route over Z solves the principal cocycles in the
        # kernel's columns of V, once per coh1 stage; kerf_reduction has no
        # principal columns to solve.
        J = cocycle_matrix(E2.presentation, E2.representation)
        factored = snf(J, transforms="V")
        kernel = [factored.V.column(j) for j in range(len(factored.pivots), J.cols)]
        solves = count_calls(monkeypatch, "solve_in_lattice")
        status, _ = cli.run(cli.JobSpec(example="e2", computations=("coh1",)))
        monkeypatch.undo()
        assert status == 0
        assert len(solves) == 1 and solves[0][0] == IntMatrix.from_columns(J.cols, kernel)

    def test_reads_everything_off_one_pair(self, monkeypatch):
        # No dual is walked and no stage is borrowed: one J and one P, one
        # SNF of J with V^-1 and one diagonal-only SNF of P; every other
        # SNF is a quotient's own.
        for example in (E2, chain_example(3), sl2_sym_example(4)):
            p, rep = example.presentation, example.representation
            J, P = checked_cochains(p, rep)
            borrowed = {name: count_calls(monkeypatch, name) for name in ("dual", "h1_homology", "coinvariants")}
            principals = count_calls(monkeypatch, "principal_map")
            recorder = SnfRecorder(monkeypatch)
            comparisons = uct_check(p, rep, (2, 3, 4, 8))
            monkeypatch.undo()
            assert all(c.match for c in comparisons)
            assert {name: len(calls) for name, calls in borrowed.items()} == dict.fromkeys(borrowed, 0)
            assert len(principals) == 1
            assert [(m, t) for caller, m, t in recorder.calls if caller == "uct_check"] == [(J, "VX"), (P, "")]
            assert {caller for caller, _, _ in recorder.calls} <= {
                "uct_check", "_subquotient", "solve_in_lattice", "from_cyclic_orders",
            }

    def test_requires_integer_action(self):
        with pytest.raises(ValueError, match="over Z"):
            uct_check(E2.presentation, rep_over(E2, 2), [2])

    def test_rejects_bad_moduli(self):
        with pytest.raises(ValueError):
            uct_check(E2.presentation, E2.representation, [1])


class TestUctDualModule:
    """SL(2, Z) on Sym^k Z^2 is not isomorphic to its dual over Z for even
    k >= 4, so pairing H^1 with H_0 and H_1 of M itself, not of M^*, gives
    false mismatches there."""

    MODULI = (2, 3, 4, 8)

    def test_sym4_groups(self):
        example = sl2_sym_example(4)
        p, rep = example.presentation, example.representation
        assert coinvariants(rep) == AbelianGroupStructure.parse("Z/6")
        assert h1_cohomology(p, rep).h1 == AbelianGroupStructure.parse("Z + Z/12")
        assert h1_homology(p, rep) == AbelianGroupStructure.parse("Z + Z/4")

    def test_sym4_matches_on_every_ring(self):
        example = sl2_sym_example(4)
        comparisons = uct_check(example.presentation, example.representation, self.MODULI)
        computed = {str(c.ring): (str(c.computed), str(c.expected)) for c in comparisons}
        assert computed == {
            "Z": ("Z + Z/12", "Z + Z/12"),
            "Z/2": ("Z/2 + Z/2 + Z/2", "Z/2 + Z/2 + Z/2"),
            "Z/3": ("Z/3 + Z/3", "Z/3 + Z/3"),
            "Z/4": ("Z/4 + Z/4 + Z/4", "Z/4 + Z/4 + Z/4"),
            "Z/8": ("Z/4 + Z/4 + Z/8", "Z/4 + Z/4 + Z/8"),
        }
        assert all(c.match for c in comparisons)

    def test_every_k_to_22_matches(self):
        for k in range(23):
            example = sl2_sym_example(k)
            comparisons = uct_check(example.presentation, example.representation, self.MODULI)
            assert [c.ring.modulus for c in comparisons] == [0, *self.MODULI]
            assert all(c.match for c in comparisons), (k, comparisons)

    def test_sym40_matches_on_every_ring(self):
        # V of J reaches 775 bits at k = 40; the group alone is read
        # off V^-1 mod n, so its coordinates stay below n.
        example = sl2_sym_example(40)
        comparisons = uct_check(example.presentation, example.representation, self.MODULI)
        assert [c.ring.modulus for c in comparisons] == [0, *self.MODULI]
        assert all(c.match for c in comparisons), comparisons

    def test_expected_equals_the_walked_dual_route(self):
        # The reference walks dual(rep), checks its own pair and reads H_0
        # and H_1 through coinvariants and h1_homology.
        examples = list(builtin_examples().values()) + [chain_example(genus) for genus in range(2, 7)]
        for name in ("goeritz-pipeline", "chain-genus4", "long-relators"):
            for seed in (1, 2):
                examples += workload_examples(name, seed)
        examples += [sl2_sym_example(k) for k in (4, 5, 6)]
        assert len(examples) == 61
        for example in examples:
            p, rep = example.presentation, example.representation
            for c in uct_check(p, rep, self.MODULI):
                assert c.expected == walked_dual_uct_expected(p, rep, c.ring), (example.name, c)


class TestTransformsAsked:
    def test_kernels_and_chain_h1_build_no_u(self, monkeypatch):
        recorder = SnfRecorder(monkeypatch)
        # Every factorization a kernel quotient is given, with its modulus.
        quotients = count_calls(monkeypatch, "_subquotient")
        chain = chain_example(3)
        assert h1_homology(chain.presentation, chain.representation) == AbelianGroupStructure(0, (2,))
        assert [t for caller, _, t in recorder.calls if caller == "h1_homology"] == ["", ""]
        recorder.calls.clear()
        h1_homology(chain.presentation, change_ring(chain.representation, CoefficientRing.modular(4)))
        assert recorder.asked("h1_homology") == {"VX"}
        recorder.calls.clear()
        # A kernel over Z/n is read with V^-1, over Z with V alone.
        asked, uct_expected = [], []
        for example in (E2, chain):
            p, rep = example.presentation, example.representation
            for ring in (CoefficientRing.integers(), CoefficientRing.modular(4)):
                ring_rep = change_ring(rep, ring)
                h1_cohomology(p, ring_rep)
                coinvariants(ring_rep)
                asked.append(("h1_cohomology", ring.modulus, [t for c, _, t in recorder.calls if c == "h1_cohomology"][-1]))
                if example is E2:
                    kerf_reduction(p, ring_rep, E2.kerf)
                    asked.append(("kerf_reduction", ring.modulus, [t for c, _, t in recorder.calls if c == "kerf_reduction"][-1]))
            h1_homology(p, rep)
            uct_check(p, rep, (2, 3))
            J, P = checked_cochains(p, rep)
            uct_expected += [(J, "VX"), (P, "")]
        assert asked == [
            ("h1_cohomology", 0, "V"), ("kerf_reduction", 0, "V"), ("h1_cohomology", 4, "VX"), ("kerf_reduction", 4, "VX"),
            ("h1_cohomology", 0, "V"), ("h1_cohomology", 4, "VX"),
        ]
        homology_callers = {caller for caller, _, _ in recorder.calls} - {
            "kernel_basis", "solve_in_lattice", "_subquotient", "lattice_quotient",
            "from_cyclic_orders", "unimodular_inverse",
        }
        assert homology_callers == {"coinvariants", "h1_cohomology", "h1_homology", "kerf_reduction", "uct_check"}
        # H_0 on every ring, H_1 over Z and uct_check's P read only a
        # diagonal; every kernel is read off V, and over Z/n off V^-1 too.
        assert recorder.asked("coinvariants") == recorder.asked("h1_homology") == {""}
        assert [(m, t) for caller, m, t in recorder.calls if caller == "uct_check"] == uct_expected
        kernel_callers = homology_callers - {"coinvariants", "h1_homology", "uct_check"}
        assert set().union(*(recorder.asked(caller) for caller in kernel_callers)) == {"V", "VX"}
        factored = [(res, n) for res, _, n, *_ in quotients]
        assert factored and all(res.U == IntMatrix(0, 0, ()) for res, _ in factored)
        assert all(res.X * res.V == IntMatrix.identity(res.V.cols) for res, n in factored if n)
        assert {t for caller, _, t in recorder.calls if caller == "_subquotient"} <= {"", "W"}


def _lattice_route_pairs():
    """Every built-in, 20 perturbed pairs, the chain at genus 2 to 6 and the
    inputs of the three benchmark workloads at two seeds."""
    examples = list(builtin_examples().values()) + [chain_example(genus) for genus in range(2, 7)]
    for name in ("goeritz-pipeline", "chain-genus4", "long-relators"):
        for seed in (5, 6):
            examples += workload_examples(name, seed)
    rng = random.Random(161)
    return [(ex.presentation, ex.representation) for ex in examples] + [perturbed_pair(rng) for _ in range(20)]


class TestInvariantFactors:
    def test_equal_the_ker_im_route(self):
        pairs = _lattice_route_pairs()
        assert sum(rep.ring.modulus == 0 for _, rep in pairs) >= 60
        for p, rep in pairs:
            assert h1_homology(p, rep) == reference_h1_homology(p, rep)
            for n in (0, 2, 3, 4, 8):
                if rep.ring.modulus == 0 or (n and rep.ring.modulus % n == 0):
                    ring_rep = change_ring(rep, CoefficientRing(n))
                    assert coinvariants(ring_rep) == reference_coinvariants(ring_rep)

    def test_cyclic_group_of_order_six_acting_trivially(self):
        gens = (Generator("a"),)
        p = Presentation(gens, (parse_word("a^6", gens),))
        rep = Representation.build(CoefficientRing.integers(), gens, (IntMatrix.identity(1),))
        assert h1_homology(p, rep) == AbelianGroupStructure(0, (6,))
        assert coinvariants(rep) == AbelianGroupStructure.free(1)
        # Over Z/4: H_1 = Z/6 (x) Z/4 + Tor(Z, Z/4) = Z/2, and H_0 = Z/4.
        rep4 = change_ring(rep, CoefficientRing.modular(4))
        assert h1_homology(p, rep4) == AbelianGroupStructure(0, (2,))
        assert coinvariants(rep4) == AbelianGroupStructure(0, (4,))

    def test_free_group_of_rank_three_acting_trivially_on_z2(self):
        gens = tuple(Generator(f"g{i}") for i in range(3))
        rep = Representation.build(CoefficientRing.integers(), gens, (IntMatrix.identity(2),) * 3)
        assert h1_homology(Presentation(gens, ()), rep) == AbelianGroupStructure.free(6)
        assert coinvariants(rep) == AbelianGroupStructure.free(2)

    def test_no_generators_leave_the_whole_module(self):
        # d1 has no columns, so its diagonal is empty and each of the rank
        # entries past it gives Z/gcd(0, n).
        for n, h0 in ((0, AbelianGroupStructure.free(2)), (4, AbelianGroupStructure(0, (4, 4)))):
            rep = Representation.build(CoefficientRing(n), (), (), rank=2)
            assert coinvariants(rep) == reference_coinvariants(rep) == h0
            assert h1_homology(Presentation((), ()), rep).is_trivial()

    def test_two_diagonal_snfs_over_z_and_the_lattice_over_z_mod_n(self, monkeypatch):
        chain = chain_example(3)
        p, rep = chain.presentation, chain.representation
        recorder = SnfRecorder(monkeypatch)
        solves = count_calls(monkeypatch, "solve_in_lattice")
        quotients = count_calls(monkeypatch, "_subquotient")
        h1_homology(p, rep)
        assert [(caller, t) for caller, _, t in recorder.calls] == [("h1_homology", "")] * 2
        assert solves == quotients == []
        for n in (0, 2, 3, 4, 8):
            recorder.calls.clear()
            coinvariants(change_ring(rep, CoefficientRing(n)))
            assert [(caller, t) for caller, _, t in recorder.calls] == [("coinvariants", "")]
        assert solves == quotients == []
        h1_homology(p, change_ring(rep, CoefficientRing.modular(4)))
        assert len(quotients) == 1 and solves == []
        # The lattice mod n is read off V^-1, built by the SNF of d1: no
        # basis is solved in, and X*V = I.
        factored = quotients[0][0]
        assert factored.X * factored.V == IntMatrix.identity(factored.V.cols) and abs(factored.V.det()) == 1


class TestSolveInVColumns:
    def test_equals_solving_in_the_scaled_basis(self):
        # Group, kernel basis and witnesses, entry for entry, on the pairs
        # _subquotient is given: (J, P) on every ring, as in h1_cohomology and
        # uct_check, and the dual's (P^T, J^T) mod n, as in h1_homology.
        examples = list(builtin_examples().values()) + [chain_example(genus) for genus in range(2, 7)]
        for name in ("goeritz-pipeline", "chain-genus4", "long-relators"):
            examples += workload_examples(name, 5)
        rng = random.Random(171)
        pairs = [(ex.presentation, ex.representation) for ex in examples] + [perturbed_pair(rng) for _ in range(20)]
        for p, rep in pairs:
            for n in (0, 2, 3, 4, 8):
                if rep.ring.modulus and (n == 0 or rep.ring.modulus % n):
                    continue
                ring = CoefficientRing(n)
                J, P = checked_cochains(p, change_ring(rep, ring))
                lattices = [(J, P, True)]
                if n:
                    dual_J, dual_P = checked_cochains(p, dual(change_ring(rep, ring)))
                    lattices.append((dual_P.transpose(), dual_J.transpose(), False))
                for outgoing, incoming, generators in lattices:
                    factored = snf(outgoing, transforms="VX" if n else "V")
                    expected = reference_homology(factored, incoming, ring, generators)
                    if generators:
                        assert _subquotient(factored, incoming, n, generators) == expected
                        continue
                    # The group alone builds no kernel basis: it is checked
                    # with an empty subgroup and generators.
                    assert _subquotient(factored, incoming, n, generators) == (expected[0], None, ())
                    assert _kernel_lattice(factored, n) == expected[1]

    def test_witness_coordinates_stay_below_n(self, monkeypatch):
        # Over Z/n the witnesses are read off the SNF of the rows of V^-1
        # that survive, g_j = gcd(d_j, n) != 1, mod n beside diag(g): every
        # entry lies in [0, n]. Carried over Z with the block g*V^-1, they
        # were 82x123 with 22-bit entries at Sym^40 over Z/3, and 64x72
        # with 39-bit entries on the genus-4 chain over Z/4.
        shapes = []
        for example, n in ((sl2_sym_example(40), 3), (chain_example(4), 2), (chain_example(4), 4)):
            p, rep = example.presentation, change_ring(example.representation, CoefficientRing(n))
            J, P = checked_cochains(p, rep)
            diagonal = snf(J, transforms="").diagonal() + (0,) * max(J.cols - J.rows, 0)
            kept = sum(gcd(d, n) != 1 for d in diagonal)
            recorder = SnfRecorder(monkeypatch)
            h1_cohomology(p, rep, cochains=(J, P))
            monkeypatch.undo()
            [coordinates] = [m for caller, m, t in recorder.calls if t == "W"]
            assert (coordinates.rows, coordinates.cols) == (kept, P.cols + kept)
            assert all(0 <= x <= n for x in coordinates.entries)
            shapes.append((coordinates.rows, coordinates.cols))
        assert shapes == [(48, 89), (9, 17), (9, 17)]

    def test_every_lattice_factored_mod_n_is_unimodular(self, monkeypatch):
        # No lattice is solved over Z/n, nor by uct_check over Z: every
        # quotient is given a unimodular V with its inverse X, X*V = V*X = I.
        solves = count_calls(monkeypatch, "solve_in_lattice")
        quotients = count_calls(monkeypatch, "_subquotient")
        for example in (E2, chain_example(3), chain_example(4)):
            p, rep = example.presentation, example.representation
            for n in (2, 3, 4, 8):
                ring_rep = change_ring(rep, CoefficientRing(n))
                for compute in (h1_cohomology, h1_homology):
                    compute(p, ring_rep)
            assert solves == []
            uct_check(p, rep, (2, 3, 4, 8))
            # One factorization serves all five rings of uct_check.
            assert [args[2] for args in quotients[-5:]] == [0, 2, 3, 4, 8]
            assert all(args[0] is quotients[-1][0] for args in quotients[-5:])
            assert solves == []
        monkeypatch.undo()
        assert len(quotients) == 3 * (8 + 5)
        for factored, *_ in quotients:
            V, X = factored.V, factored.X
            assert abs(V.det()) == 1
            assert X * V == V * X == IntMatrix.identity(V.cols)

    def test_no_generators_over_z_mod_4(self, monkeypatch):
        # J is 0x0, so the V^-1 built for it is 0x0, the shape of a transform
        # not built; the route follows the ring, and nothing over Z/4 is
        # solved.
        rep = Representation.build(CoefficientRing.integers(), (), (), rank=2)
        rep4 = change_ring(rep, CoefficientRing.modular(4))
        p = Presentation((), ())
        assert snf(IntMatrix.zeros(0, 0), transforms="VX").X == IntMatrix(0, 0, ())
        recorder = SnfRecorder(monkeypatch)
        solves = count_calls(monkeypatch, "solve_in_lattice")
        cohomology = h1_cohomology(p, rep4)
        assert recorder.asked("h1_cohomology") == {"VX"}
        assert h1_homology(p, rep4) == reference_h1_homology(p, rep4) == AbelianGroupStructure.trivial()
        assert recorder.asked("h1_homology") == {"VX"}
        assert solves == []
        comparisons = uct_check(p, rep, (4,))
        # The ring Z reads its 0 kernel coordinates off the 0x0 V^-1 too.
        assert solves == []
        monkeypatch.undo()
        assert cohomology.h1.is_trivial() and cohomology.witnesses == ()
        assert (cohomology.z1_basis.rows, cohomology.z1_basis.cols) == (0, 0)
        assert [(c.ring.modulus, c.match, str(c.computed)) for c in comparisons] == [(0, True, "0"), (4, True, "0")]

    def test_generator_outside_the_kernel_mod_n_is_named(self):
        # incoming mixes combinations of the kernel basis with random
        # columns. On every ring, for the group alone and with generators,
        # the error names the first column with A*v != 0 mod n (A*v != 0
        # over Z), whatever later columns do.
        rng = random.Random(251)
        named = 0
        for _ in range(60):
            rows, cols = rng.randint(1, 4), rng.randint(1, 5)
            a = random_int_matrix(rng, rows, cols, -6, 6)
            for n in (0, 2, 4, 6):
                factored = snf(a, transforms="VX")
                kernel = _kernel_lattice(factored, n)
                inside = kernel * random_int_matrix(rng, kernel.cols, 3, -3, 3)
                columns = [inside.column(j) for j in range(3)]
                columns += [random_int_matrix(rng, cols, 1, -3, 3).entries for _ in range(3)]
                rng.shuffle(columns)
                incoming = IntMatrix.from_columns(cols, columns)
                outside = [j for j, c in enumerate(columns) if any(x % n if n else x for x in a.apply(c))]
                for generators in (False, True):
                    if not outside:
                        _subquotient(factored, incoming, n, generators)
                        continue
                    named += 1
                    message = f"^subgroup generator {outside[0]} lies outside the ambient lattice$"
                    with pytest.raises(ValueError, match=message):
                        _subquotient(factored, incoming, n, generators)
        assert named > 300


class TestBruteForceOracle:
    def test_e2_counts(self):
        counts = brute_force_h1_mod2(E2.presentation, E2.representation)
        assert counts == (64, 16, 4)

    def test_free2_counts(self):
        toy = TOYS["free2"]
        counts = brute_force_h1_mod2(toy.presentation, toy.representation)
        assert counts == (4, 1, 4)

    def test_trivial_group_counts(self):
        toy = TOYS["trivial"]
        counts = brute_force_h1_mod2(toy.presentation, toy.representation)
        assert counts == (1, 1, 1)

    def test_oracle_matches_engine_on_toys(self):
        for example in [E2, *TOYS.values()]:
            counts = brute_force_h1_mod2(example.presentation, example.representation)
            engine = h1_cohomology(example.presentation, rep_over(example, 2))
            assert counts.h1_count == engine.h1.order()

    def test_principal_count_matches_distinct_images(self):
        rng = random.Random(48)
        pairs = [(ex.presentation, ex.representation) for ex in [E2, *TOYS.values(), chain_example(2)]]
        pairs += [perturbed_pair(rng) for _ in range(12)]
        for p, rep in pairs:
            if rep.ring.modulus % 2 == 0:  # Z, Z/2 and Z/4 reduce to Z/2
                P = principal_map(change_ring(rep, CoefficientRing(2))).matrix
                assert brute_force_h1_mod2(p, rep).b1_count == distinct_images_mod2(P)

    def test_genus3_chain_counts_match_engine(self):
        ex = chain_example(3)
        counts = brute_force_h1_mod2(ex.presentation, ex.representation)
        assert counts == (128, 64, 2)
        assert counts.h1_count == h1_cohomology(ex.presentation, rep_over(ex, 2)).h1.order()

    def test_gray_code_count_matches_row_mask_reference(self):
        rng = random.Random(47)
        matrices = [IntMatrix.zeros(0, 5), IntMatrix.zeros(0, 0), IntMatrix.zeros(3, 0), IntMatrix.zeros(4, 6)]
        for bits in range(17):
            for _ in range(3):
                rows = rng.randint(0, 6)
                entries = [rng.choice((0, 0, 1, 2, 3, -1)) for _ in range(rows * bits)]
                if rows:
                    zero_row = rng.randrange(rows)
                    entries[zero_row * bits : (zero_row + 1) * bits] = [0] * bits
                matrices.append(IntMatrix(rows, bits, tuple(entries)))
        for matrix in matrices:
            expected = row_mask_kernel_count(matrix)
            assert gray_code_kernel_count(matrix) == expected, matrix
            assert _kernel_size_mod2(matrix) == expected, matrix

    def test_bit_bound_comes_before_j_and_the_relator_check(self, monkeypatch):
        ex = chain_example(4)
        p, rep = ex.presentation, ex.representation
        failing = Presentation(p.generators, p.relators + (Word(p.generators, ((0, 1),)),))
        assert check_relators_trivial(change_ring(rep, CoefficientRing(2)), failing)
        builds = count_calls(monkeypatch, "cocycle_matrix")
        for presentation in (p, failing):
            with pytest.raises(ValueError) as err:
                brute_force_h1_mod2(presentation, rep)
            assert str(err.value) == "enumeration over 64 bits exceeds the bound of 36"
            assert type(err.value) is homology.OracleRefusal
        assert builds == []

    def test_table_bound_comes_before_j(self, monkeypatch):
        gens = tuple(Generator(f"g{i}") for i in range(36))
        rep = Representation.build(CoefficientRing.integers(), gens, (IntMatrix.identity(1),) * 36)
        relators = tuple(Word(gens, ((i % 36, 1), (i % 36, -1))) for i in range(513))
        builds = count_calls(monkeypatch, "cocycle_matrix")
        with pytest.raises(ValueError) as err:
            brute_force_h1_mod2(Presentation(gens, relators), rep)
        assert str(err.value) == "2^18 syndromes of 513 bits exceed the bound of 134217728 table bits"
        assert type(err.value) is homology.OracleRefusal
        assert builds == []
        assert brute_force_h1_mod2(Presentation(gens, relators[:512]), rep) == (1 << 36, 1, 1 << 36)

    def test_dimension_bound_refusal(self):
        gens = tuple(Generator(f"g{i}") for i in range(37))
        rep = Representation.build(
            CoefficientRing.integers(), gens, (IntMatrix.identity(1),) * 37
        )
        with pytest.raises(ValueError, match="exceeds the bound"):
            brute_force_h1_mod2(Presentation(gens, ()), rep)
