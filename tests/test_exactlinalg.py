import random
import re
from math import gcd

import pytest

from twistedhom import (
    AbelianGroupStructure,
    IntMatrix,
    cocycle_matrix,
    dual,
    exactlinalg,
    goeritz_e2,
    h1_cohomology,
    h1_homology,
    hstack,
    kernel_basis,
    lattice_quotient,
    snf,
    solve_in_lattice,
    unimodular_inverse,
    vstack,
)
from twistedhom.exactlinalg import TRANSFORMS, _subquotient
from twistedhom.homology import checked_cochains

from support import (
    SnfRecorder,
    adjugate,
    chain_example,
    cofactor_det,
    random_int_matrix,
    random_unimodular,
    reference_snf,
)

NOT_BUILT = IntMatrix(0, 0, ())


def _seeded_snf_inputs():
    """Unit-rich and unit-free matrices, with zero rows, rows repeated up to
    sign, and 0-row or 0-column shapes."""
    rng = random.Random(111)
    matrices = [IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 4), IntMatrix.zeros(5, 0), IntMatrix.zeros(3, 3)]
    pools = [(-1, 0, 0, 1, 1, 2), (0, 0, 2, -2, 3, -4, 6, 9, -15), range(-9, 10), range(-40, 41)]
    for trial in range(240):
        rows, cols = rng.randint(0, 12), rng.randint(0, 10)
        pool = pools[trial % len(pools)]
        entries = [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and trial % 2:
            i, j = rng.sample(range(rows), 2)
            entries[i] = [rng.choice((-1, 1)) * x for x in entries[j]]
        if rows and trial % 3 == 0:
            entries[rng.randrange(rows)] = [0] * cols
        matrices.append(IntMatrix(rows, cols, tuple(x for row in entries for x in row)))
    return matrices


def _diag_ok(diagonal):
    return all(d >= 0 for d in diagonal) and all(
        b % a == 0 for a, b in zip(diagonal, diagonal[1:]) if a
    ) and not any(a == 0 and b != 0 for a, b in zip(diagonal, diagonal[1:]))


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_product_and_apply(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert a * b == IntMatrix.from_rows([[2, 1], [4, 3]])
        assert a.apply((1, 1)) == (3, 7)

    def test_det(self):
        assert IntMatrix.from_rows([[1, 2], [3, 4]]).det() == -2
        assert IntMatrix.identity(5).det() == 1
        assert IntMatrix.zeros(3, 3).det() == 0
        assert IntMatrix.from_rows([[0, 1], [1, 0]]).det() == -1

    def test_det_matches_cofactor_expansion_randomized(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 4)
            m = random_int_matrix(rng, n, n)
            assert m.det() == cofactor_det(m)

    def test_adjugate_identity(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = random_int_matrix(rng, n, n)
            assert adjugate(m) * m == IntMatrix.identity(n).scale(m.det())

    def test_stacking(self):
        a = IntMatrix.from_rows([[1], [2]])
        b = IntMatrix.from_rows([[3], [4]])
        assert hstack(a, b) == IntMatrix.from_rows([[1, 3], [2, 4]])
        assert vstack(a, b) == IntMatrix.from_rows([[1], [2], [3], [4]])

    def test_mod(self):
        m = IntMatrix.from_rows([[-1, 5]])
        assert m.mod(4) == IntMatrix.from_rows([[3, 1]])
        assert m.mod(0) == m

    def test_accessors_read_inside_the_shape(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert [m.at(i, j) for i in range(2) for j in range(3)] == list(m.entries)
        assert [m.row(i) for i in range(2)] == [(1, 2, 3), (4, 5, 6)]
        assert [m.column(j) for j in range(3)] == [(1, 4), (2, 5), (3, 6)]
        assert IntMatrix.zeros(3, 1).column(0) == (0, 0, 0) and IntMatrix.zeros(1, 0).row(0) == ()
        assert IntMatrix.from_columns(2, [(1, 4), (2, 5), (3, 6)]) == m
        assert IntMatrix.from_columns(0, [(), ()]) == IntMatrix.zeros(0, 2)
        assert IntMatrix.from_columns(3, []) == IntMatrix.zeros(3, 0)

    @pytest.mark.parametrize(
        "accessor, index",
        [("column", (-1,)), ("column", (2,)), ("row", (5,)), ("row", (-1,)), ("row", (2,)),
         ("at", (0, 2)), ("at", (2, 0)), ("at", (-1, 0)), ("at", (0, -1))],
    )
    def test_accessors_refuse_an_index_outside_the_shape(self, accessor, index):
        # A negative index or a slice would read another entry, or none,
        # without raising.
        named = f"entry {index}" if accessor == "at" else f"{accessor} {index[0]}"
        with pytest.raises(IndexError, match=f"^{re.escape(named)} lies outside a 2x2 matrix$"):
            getattr(IntMatrix.from_rows([[1, 2], [3, 4]]), accessor)(*index)


class TestSnf:
    def test_identity(self):
        res = snf(IntMatrix.identity(3))
        assert res.D == IntMatrix.identity(3)

    def test_worked_2x2(self):
        # By hand: r2 -= 3*r1 gives [[2,4],[0,-4]]; c2 -= 2*c1 gives
        # diag(2,-4); negate to diag(2,4). gcd of entries is 2 and
        # |det| = |16-24| = 8, so the invariant factors are 2 and 4.
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        res = snf(a)
        assert res.diagonal() == (2, 4)
        assert res.U * a * res.V == res.D

    def test_zero_matrix(self):
        res = snf(IntMatrix.zeros(2, 3))
        assert res.D == IntMatrix.zeros(2, 3)
        assert res.U == IntMatrix.identity(2)
        assert res.V == IntMatrix.identity(3)

    def test_empty_shapes(self):
        for rows, cols in ((0, 0), (0, 3), (3, 0)):
            res = snf(IntMatrix.zeros(rows, cols))
            assert res.D.rows == rows and res.D.cols == cols

    def test_invariants_randomized(self):
        rng = random.Random(101)
        for _ in range(100):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = random_int_matrix(rng, rows, cols)
            res = snf(a)
            assert res.U * a * res.V == res.D
            assert res.U.det() in (1, -1)
            assert res.V.det() in (1, -1)
            diag = res.diagonal()
            assert _diag_ok(diag)
            off_diagonal = [
                res.D.at(i, j)
                for i in range(rows)
                for j in range(cols)
                if i != j
            ]
            assert not any(off_diagonal)
            if rows == cols:
                det = a.det()
                prod = 1
                for d in diag:
                    prod *= d
                assert abs(det) == prod

    def test_deterministic(self):
        a = IntMatrix.from_rows([[6, 4, 2], [4, 2, 4], [2, 4, 6]])
        assert snf(a) == snf(a)

    def test_matches_sympy(self):
        # sympy's Smith normal form is a second, independent implementation.
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        rng = random.Random(103)
        for trial in range(150):
            rows, cols = rng.randint(0, 8), rng.randint(0, 8)
            entries = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            if trial % 3 == 0 and rows > 1:
                # rank deficient: one row repeats another up to sign, or is zero
                i, j = rng.sample(range(rows), 2)
                entries[i] = [rng.choice((-1, 0, 1)) * x for x in entries[j]]
            a = IntMatrix(rows, cols, tuple(x for row in entries for x in row))
            res = snf(a)
            reference = smith_normal_form(sympy.Matrix(rows, cols, list(a.entries)), domain=sympy.ZZ)
            assert res.diagonal() == tuple(int(reference[i, i]) for i in range(min(rows, cols)))
            assert res.U * a * res.V == res.D
            assert res.U.det() in (1, -1) and res.V.det() in (1, -1)
            assert _diag_ok(res.diagonal())


    @pytest.mark.parametrize("transforms", TRANSFORMS)
    def test_matches_reference_snf(self, monkeypatch, transforms):
        # The pivot sequence does not depend on the transforms asked for, so
        # D and each transform that is built equal the reference entry for
        # entry, W and X being the inverses of the reference U and V; a
        # transform not asked for is the 0x0 matrix.
        chain, e2 = chain_example(3), goeritz_e2()
        recorder = SnfRecorder(monkeypatch)
        h1_homology(chain.presentation, chain.representation)
        J, P = checked_cochains(chain.presentation, dual(chain.representation))
        boundaries = [m for caller, m, _ in recorder.calls if caller == "h1_homology"]
        assert boundaries == [P.transpose(), J.transpose()]
        assert [(m.rows, m.cols) for m in boundaries] == [(6, 36), (36, 90)]
        for example in (e2, chain):
            h1_cohomology(example.presentation, example.representation)
        h1_homology(e2.presentation, e2.representation)
        J = cocycle_matrix(chain.presentation, chain.representation)
        assert any(m == J for _, m, _ in recorder.calls)
        monkeypatch.undo()
        for a in _seeded_snf_inputs() + [m for _, m, _ in recorder.calls]:
            reference = reference_snf(a)
            res = snf(a, transforms=transforms)
            assert res.D == reference.D
            assert res.U == (reference.U if "U" in transforms else NOT_BUILT)
            assert res.V == (reference.V if "V" in transforms else NOT_BUILT)
            assert res.W == (unimodular_inverse(reference.U) if "W" in transforms else NOT_BUILT)
            assert res.X == (unimodular_inverse(reference.V) if "X" in transforms else NOT_BUILT)

    def test_default_builds_both_transforms(self):
        a = IntMatrix.from_rows([[2, 4, 1], [6, 8, 3]])
        assert snf(a) == snf(a, transforms="UV") == reference_snf(a)
        for transforms in ("U", "VU", "WU", "UWV", "X"):
            with pytest.raises(ValueError, match="transforms"):
                snf(a, transforms=transforms)
        with pytest.raises(TypeError):
            snf(a, "V")


class TestTransformsAsked:
    def test_each_caller_asks_only_for_what_it_reads(self, monkeypatch):
        recorder = SnfRecorder(monkeypatch)
        basis = IntMatrix.from_rows([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
        sub = IntMatrix.from_columns(3, [(4, 0, 2), (1, 3, 0)])
        # lattice_quotient checks the rank of the ambient basis, solves the
        # subgroup against one factorization of it, then reads the diagonal
        # of the coordinates.
        lattice_quotient(basis, sub)
        assert [(caller, t) for caller, _, t in recorder.calls] == [
            ("lattice_quotient", ""), ("solve_in_lattice", "UV"), ("lattice_quotient", ""),
        ]
        # _subquotient factors nothing but the coordinates. The group alone
        # is read off V^-1 on every ring and solves nothing; with generators,
        # over Z/n the coordinates are read off V^-1 too, and over Z they are
        # solved once in the kernel's columns of V. Then one SNF of the
        # coordinates builds U^-1 (and not U) only when generators are asked
        # for.
        a = IntMatrix.from_rows([[2, 0, 1]])
        routes = (
            (4, "VX", False, [], ""), (4, "VX", True, [], "W"),
            (0, "VX", False, [], ""), (0, "V", True, [("solve_in_lattice", "UV")], "W"),
        )
        for n, transforms, generators, solves, word in routes:
            kernel = IntMatrix.from_columns(3, [(2, 0, 0), (1, 3, 2)] if n else [(1, 0, -2), (0, 3, 0)])
            outgoing = snf(a, transforms=transforms)
            recorder.calls.clear()
            _subquotient(outgoing, kernel, n, generators)
            assert [(caller, t) for caller, _, t in recorder.calls] == solves + [("_subquotient", word)]
        # The group alone needs V^-1: without it the product fails on shape.
        with pytest.raises(ValueError, match="cannot multiply 0x0 by 3x2"):
            _subquotient(snf(a, transforms="V"), kernel, 0)
        recorder.calls.clear()
        rng = random.Random(112)
        for _ in range(10):
            kernel_basis(random_int_matrix(rng, 3, 4))
        lattice_quotient(basis, sub)
        AbelianGroupStructure.from_cyclic_orders([4, 6, 0])
        solve_in_lattice(basis, (1, 2, 3))
        assert recorder.asked("kernel_basis") == {"V"}
        assert recorder.asked("lattice_quotient") == {""}
        assert recorder.asked("from_cyclic_orders") == {""}
        assert recorder.asked("solve_in_lattice") == {"UV"}
        # Inverting is one fraction-free elimination: no SNF at all.
        recorder.calls.clear()
        unimodular_inverse(IntMatrix.from_rows([[2, 1], [1, 1]]))
        unimodular_inverse(IntMatrix.from_rows([[2, 3], [3, 5]]), 4)
        assert recorder.calls == []


class TestKernel:
    def test_coordinate_projection(self):
        k = kernel_basis(IntMatrix.from_rows([[1, 0]]))
        assert k.cols == 1 and tuple(k.column(0)) in ((0, 1), (0, -1))

    def test_single_relation(self):
        k = kernel_basis(IntMatrix.from_rows([[1, 1]]))
        assert k.cols == 1 and tuple(k.column(0)) in ((1, -1), (-1, 1))

    def test_zero_rows(self):
        k = kernel_basis(IntMatrix.zeros(1, 2))
        assert k.cols == 2
        assert abs(k.det()) == 1

    def test_kernel_properties_randomized(self):
        rng = random.Random(202)
        for _ in range(60):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = random_int_matrix(rng, rows, cols)
            k = kernel_basis(a)
            assert (a * k).is_zero()
            # The basis is the columns of V at the zero diagonal positions
            # of the reference SNF.
            ref = reference_snf(a)
            diag = ref.diagonal()
            zero = [j for j in range(cols) if j >= len(diag) or diag[j] == 0]
            assert k == IntMatrix.from_columns(cols, [ref.V.column(j) for j in zero])
            # Saturation: the basis extends to a basis of Z^cols, which is
            # equivalent to its SNF diagonal being all ones.
            if k.cols:
                assert set(snf(k).diagonal()) == {1}
            # Completeness: rank(kernel) + rank(a) = cols.
            rank_a = sum(1 for d in snf(a).diagonal() if d)
            assert k.cols == cols - rank_a
            # Random integer kernel vectors are integer combinations.
            combo = k.apply([rng.randint(-3, 3) for _ in range(k.cols)])
            assert solve_in_lattice(k, combo) is not None


class TestSolveInLattice:
    def test_diagonal_solve(self):
        b = IntMatrix.identity(2).scale(2)
        assert solve_in_lattice(b, (4, 6)) == (2, 3)

    def test_parity_obstruction(self):
        b = IntMatrix.identity(2).scale(2)
        assert solve_in_lattice(b, (1, 0)) is None

    def test_rank_one(self):
        b = IntMatrix.from_rows([[1], [1]])
        assert solve_in_lattice(b, (3, 3)) == (3,)
        assert solve_in_lattice(b, (3, 2)) is None

    def test_solutions_randomized(self):
        rng = random.Random(303)
        for _ in range(60):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            b = random_int_matrix(rng, rows, cols, -3, 3)
            x = tuple(rng.randint(-3, 3) for _ in range(cols))
            target = b.apply(x)
            solution = solve_in_lattice(b, target)
            assert solution is not None
            assert b.apply(solution) == target

    def test_no_solution_honest_small(self):
        # Exhaustive cross-check on tiny instances: if the solver says no,
        # no small integer vector works either (targets are small enough
        # that any solution has small coordinates here).
        rng = random.Random(404)
        for _ in range(40):
            b = random_int_matrix(rng, 2, 2, -2, 2)
            target = (rng.randint(-2, 2), rng.randint(-2, 2))
            if solve_in_lattice(b, target) is None:
                for x0 in range(-8, 9):
                    for x1 in range(-8, 9):
                        assert b.apply((x0, x1)) != target


    def test_batched_solve_matches_vector_form(self):
        rng = random.Random(707)
        seen = set()
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 4)
            b = random_int_matrix(rng, rows, cols, -3, 3)
            targets = [b.apply([rng.randint(-3, 3) for _ in range(cols)]) for _ in range(3)]
            targets += [tuple(rng.randint(-4, 4) for _ in range(rows)) for _ in range(3)]
            rng.shuffle(targets)
            batched = solve_in_lattice(b, IntMatrix.from_columns(rows, targets))
            assert batched == [solve_in_lattice(b, t) for t in targets]
            seen.update(x is None for x in batched)
        assert seen == {True, False}

    def test_batched_solve_shapes(self):
        b = IntMatrix.identity(2).scale(2)
        assert solve_in_lattice(b, IntMatrix.zeros(2, 0)) == []
        assert solve_in_lattice(b, IntMatrix.from_columns(2, [(2, 4), (1, 0)])) == [(1, 2), None]
        with pytest.raises(ValueError, match="length mismatch"):
            solve_in_lattice(b, IntMatrix.zeros(3, 1))


class TestLatticeQuotient:
    def test_diagonal_quotient(self):
        q = lattice_quotient(IntMatrix.identity(2), IntMatrix.identity(2).scale(2))
        assert q == AbelianGroupStructure(0, (2, 2))

    def test_no_relations(self):
        q = lattice_quotient(IntMatrix.identity(2), IntMatrix.zeros(2, 0))
        assert q == AbelianGroupStructure.free(2)

    def test_kill_one_coordinate(self):
        sub = IntMatrix.from_columns(2, [(1, 0)])
        assert lattice_quotient(IntMatrix.identity(2), sub) == AbelianGroupStructure.free(1)

    def test_sub_equals_ambient(self):
        rng = random.Random(505)
        for _ in range(20):
            basis = random_int_matrix(rng, 3, 3)
            if basis.det() == 0:
                continue
            assert lattice_quotient(basis, basis).is_trivial()

    def test_rejects_dependent_ambient_columns(self):
        dependent = IntMatrix.from_columns(2, [(1, 0), (2, 0)])
        with pytest.raises(ValueError, match="dependent"):
            lattice_quotient(dependent, IntMatrix.from_columns(2, [(1, 0)]))

    def test_outside_generator_names_column(self):
        with pytest.raises(ValueError, match="generator 1"):
            lattice_quotient(
                IntMatrix.identity(2).scale(2),
                IntMatrix.from_columns(2, [(2, 0), (1, 0)]),
            )

    def test_snf_count_independent_of_subgroup_size(self, monkeypatch):
        calls = []

        def counting_snf(matrix, **kwargs):
            calls.append(matrix.cols)
            return snf(matrix, **kwargs)

        monkeypatch.setattr(exactlinalg, "snf", counting_snf)
        rng = random.Random(808)
        basis = IntMatrix.from_rows([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
        counts = []
        for width in (1, 30):
            sub = [basis.apply([rng.randint(-3, 3) for _ in range(3)]) for _ in range(width)]
            calls.clear()
            lattice_quotient(basis, IntMatrix.from_columns(3, sub))
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_mixed_structure(self):
        sub = IntMatrix.from_columns(3, [(2, 0, 0), (0, 3, 0)])
        q = lattice_quotient(IntMatrix.identity(3), sub)
        assert q == AbelianGroupStructure(1, (6,))


class TestUnimodularInverse:
    def test_round_trip(self):
        rng = random.Random(606)
        for _ in range(30):
            n = rng.randint(1, 5)
            q = random_unimodular(rng, n)
            inverse = unimodular_inverse(q)
            assert q * inverse == inverse * q == IntMatrix.identity(n)
            assert inverse == adjugate(q).scale(q.det())

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match=r"\|det\| = 4 is not a unit over Z$"):
            unimodular_inverse(IntMatrix.identity(2).scale(2))
        with pytest.raises(ValueError, match="non-square"):
            unimodular_inverse(IntMatrix.zeros(2, 3))

    def test_over_z_mod_n(self):
        rng = random.Random(607)
        for n in (2, 3, 4, 6, 8, 9):
            found = 0
            while found < 12:
                size = rng.randint(1, 5)
                m = random_int_matrix(rng, size, size, -9, 9)
                det = m.det()
                if gcd(det, n) != 1:
                    with pytest.raises(ValueError, match=f"is not a unit over Z/{n}"):
                        unimodular_inverse(m, n)
                    continue
                found += 1
                inverse = unimodular_inverse(m, n)
                identity = IntMatrix.identity(size)
                assert (m * inverse).mod(n) == (inverse * m).mod(n) == identity.mod(n)
                assert all(0 <= x < n for x in inverse.entries)
                assert inverse == adjugate(m).scale(pow(det, -1, n)).mod(n)
        for matrix, n, det in (
            (IntMatrix.zeros(3, 3), 2, 0),
            (IntMatrix.from_rows([[1, 2], [2, 4]]), 7, 0),
            (IntMatrix.diagonal([2, 1]), 4, 2),
            (IntMatrix.from_rows([[3, 1], [1, 5]]), 4, 14),
            (IntMatrix.diagonal([3, 1]), 9, 3),
        ):
            with pytest.raises(ValueError, match=rf"\|det\| = {det} is not a unit over Z/{n}"):
                unimodular_inverse(matrix, n)


class TestAbelianGroupStructure:
    def test_str(self):
        assert str(AbelianGroupStructure.trivial()) == "0"
        assert str(AbelianGroupStructure.free(1)) == "Z"
        assert str(AbelianGroupStructure(2, (4,))) == "Z^2 + Z/4"
        assert str(AbelianGroupStructure(0, (2, 2))) == "Z/2 + Z/2"

    @pytest.mark.parametrize(
        "group",
        [
            AbelianGroupStructure.trivial(),
            AbelianGroupStructure.free(1),
            AbelianGroupStructure.free(3),
            AbelianGroupStructure(0, (2, 2)),
            AbelianGroupStructure(1, (2, 6)),
            AbelianGroupStructure(12, (3, 9, 18)),
            AbelianGroupStructure(10**9, (10**20,)),
        ],
    )
    def test_parse_round_trip(self, group):
        assert AbelianGroupStructure.parse(str(group)) == group

    def test_parse_counts_free_rank_without_expanding_it(self):
        assert AbelianGroupStructure.parse("Z^1000000000") == AbelianGroupStructure.free(10**9)
        assert AbelianGroupStructure.parse("Z^2 + Z + Z/4 + Z/0") == AbelianGroupStructure(4, (4,))

    @pytest.mark.parametrize(
        "text, summand",
        [
            ("Z^-3 + Z/2", "Z^-3"),
            ("Z^", "Z^"),
            ("Z^x", "Z^x"),
            ("Z^ 3", "Z^ 3"),
            ("Z^1.5", "Z^1.5"),
            ("Z/x", "Z/x"),
            ("Z/2 + Z/", "Z/"),
            ("Q", "Q"),
            ("Z/+5", "Z/"),
            ("Z + Z/+1", "Z/"),
            ("Z/ 5", "Z/ 5"),
            ("Z/1_0", "Z/1_0"),
            ("Z/\uff15", "Z/\uff15"),
            ("Z/-2", "Z/-2"),
        ],
    )
    def test_parse_rejects_a_malformed_summand(self, text, summand):
        with pytest.raises(ValueError) as err:
            AbelianGroupStructure.parse(text)
        assert str(err.value) == f"cannot parse group summand {summand!r} in {text!r}"

    def test_from_cyclic_orders_canonicalizes(self):
        # Z/2 + Z/3 = Z/6, and Z/4 + Z/6 = Z/2 + Z/12.
        assert AbelianGroupStructure.from_cyclic_orders([2, 3]) == AbelianGroupStructure(0, (6,))
        assert AbelianGroupStructure.from_cyclic_orders([4, 6]) == AbelianGroupStructure(0, (2, 12))
        assert AbelianGroupStructure.from_cyclic_orders([0, 1, 5]) == AbelianGroupStructure(1, (5,))

    def test_invalid_chain_rejected(self):
        with pytest.raises(ValueError):
            AbelianGroupStructure(0, (4, 2))
        with pytest.raises(ValueError):
            AbelianGroupStructure(0, (1,))

    def test_order(self):
        assert AbelianGroupStructure(0, (2, 4)).order() == 8
        assert AbelianGroupStructure.free(1).order() is None


@pytest.mark.parametrize("bad", [2.7, "3"])
@pytest.mark.parametrize(
    "make",
    [
        lambda bad: IntMatrix(1, 2, (bad, 3)),
        lambda bad: IntMatrix(bad, 1, (1, 2, 3)),
        lambda bad: IntMatrix.identity(2).apply((bad, 1)),
        lambda bad: solve_in_lattice(IntMatrix.identity(2), (bad, 2)),
        lambda bad: AbelianGroupStructure(bad),
        lambda bad: AbelianGroupStructure(0, (bad,)),
        lambda bad: AbelianGroupStructure.from_cyclic_orders((bad,)),
    ],
    ids=["entries", "rows", "apply", "solve_in_lattice", "free_rank", "torsion", "from_cyclic_orders"],
)
def test_non_integers_are_rejected_not_truncated(make, bad):
    with pytest.raises(TypeError):
        make(bad)
