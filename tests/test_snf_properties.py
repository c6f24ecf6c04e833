"""Property tests of the SNF for every choice of transforms, of its pivots,
of the U^-1 and V^-1 it builds, of its agreement with the reference SNF on
sparse and on tall mostly zero inputs, of the trusted IntMatrix
constructor behind the matrices exactlinalg computes, and of the
invariant factors of a direct sum of cyclic groups."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistedhom import AbelianGroupStructure, IntMatrix, hstack, snf, unimodular_inverse, vstack  # noqa: E402
from twistedhom.exactlinalg import TRANSFORMS  # noqa: E402

from support import reference_snf  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def matrices(draw, max_side=6, bound=30):
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    entries = draw(st.lists(st.integers(-bound, bound), min_size=rows * cols, max_size=rows * cols))
    return IntMatrix(rows, cols, tuple(entries))


@st.composite
def fold_prone_matrices(draw, max_side=6):
    """Matrices with zero rows and columns and 0-row or 0-column shapes.
    Non-units on a permuted diagonal, with few other entries, make pivots
    that do not divide the rest of their block, so that the SNF folds a row
    into the pivot row."""
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    entries = [[draw(st.sampled_from((0, 0, 0, 0, 1, -2, 6, 10))) for _ in range(cols)] for _ in range(rows)]
    where = zip(draw(st.permutations(range(rows))), draw(st.permutations(range(cols))))
    for i, j in where:
        entries[i][j] = draw(st.sampled_from((2, -3, 4, 9, -10, 15, 25)))
    for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows // 2)):
        entries[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=cols // 2)):
        for row in entries:
            row[j] = 0
    return IntMatrix(rows, cols, tuple(x for row in entries for x in row))


@st.composite
def sparse_matrices(draw, max_short=5, max_long=24):
    """Tall and wide matrices with at most 10% nonzeros, some rows and
    columns zeroed. Drawn without units, the least entry need not divide
    the rest of its block, so that the SNF folds a row into the pivot row."""
    short, long = draw(st.integers(1, max_short)), draw(st.integers(10, max_long))
    rows, cols = draw(st.sampled_from(((short, long), (long, short))))
    values = draw(st.sampled_from(((1, -1, 2, -3, 6), (2, -3, 4, -10, 15, 25))))
    entries = [[0] * cols for _ in range(rows)]
    cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    for i, j in draw(st.sets(cell, max_size=rows * cols // 10)):
        entries[i][j] = draw(st.sampled_from(values))
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        entries[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in entries:
            row[j] = 0
    return IntMatrix.from_rows(entries)


@st.composite
def tie_matrices(draw, max_side=7):
    """Matrices of few distinct values, so that ties are settled by position
    after earlier column swaps have moved some columns: of 0 and +-1, with
    rows holding several units, for the pivot; of 0 and non-units, for the
    least remainder in the column phase."""
    rows, cols = draw(st.integers(2, max_side)), draw(st.integers(2, max_side))
    values = draw(st.sampled_from(((0, 0, 0, 1, -1), (0, 0, 3, -4, 5, 7))))
    return IntMatrix(rows, cols, draw(st.lists(st.sampled_from(values), min_size=rows * cols, max_size=rows * cols)))


@st.composite
def tall_mostly_zero_matrices(draw, max_rows=40, max_cols=5):
    """Tall matrices with at least 80% zero rows. Each nonzero row is a
    combination a*r + b*s of two drawn rows, so that row additions empty
    rows as the elimination runs."""
    rows, cols = draw(st.integers(5, max_rows)), draw(st.integers(1, max_cols))
    row = st.lists(st.sampled_from((0, 1, -1, 2, -3, 4, 6)), min_size=cols, max_size=cols)
    r, s = draw(row), draw(row)
    entries = [[0] * cols for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), min_size=1, max_size=rows // 5)):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        entries[i] = [a * x + b * y for x, y in zip(r, s)]
    return IntMatrix.from_rows(entries)


def public(matrix: IntMatrix) -> IntMatrix:
    return IntMatrix(matrix.rows, matrix.cols, tuple(matrix.entries))


@SETTINGS
@given(matrices(), st.sampled_from(TRANSFORMS))
def test_snf_invariants(a, transforms):
    res = snf(a, transforms=transforms)
    m, n = a.rows, a.cols
    assert (res.D.rows, res.D.cols) == (m, n)
    assert not any(res.D.at(i, j) for i in range(m) for j in range(n) if i != j)
    diag = res.diagonal()
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero) and diag[: len(nonzero)] == tuple(nonzero)
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    assert (res.U.rows, res.U.cols) == ((m, m) if "U" in transforms else (0, 0))
    assert (res.V.rows, res.V.cols) == ((n, n) if "V" in transforms else (0, 0))
    assert (res.X.rows, res.X.cols) == ((n, n) if "X" in transforms else (0, 0))
    if "U" in transforms:
        assert abs(res.U.det()) == 1
    if "V" in transforms:
        assert abs(res.V.det()) == 1
    if transforms == "UV":
        assert res.U * a * res.V == res.D
    assert res.D == snf(a).D


@SETTINGS
@given(fold_prone_matrices() | matrices() | sparse_matrices())
@example(IntMatrix.zeros(0, 3))
@example(IntMatrix.zeros(3, 0))
@example(IntMatrix.diagonal([6, 0, 4]))
def test_pivots_are_the_nonzero_diagonal(a):
    # For every letter: the pivots are a positive divisibility chain as long
    # as sympy's rank, the diagonal is the pivots padded with zeros, and the
    # D built from pivots and shape equals the reference's, which is also
    # the product of its own transforms, U * a * V.
    sympy = pytest.importorskip("sympy")
    rank = sympy.Matrix(a.rows, a.cols, list(a.entries)).rank()
    ref = reference_snf(a)
    reference = ref.U * a * ref.V
    assert ref.D == reference
    for transforms in TRANSFORMS:
        res = snf(a, transforms=transforms)
        assert all(type(d) is int and d > 0 for d in res.pivots)
        assert all(b % d == 0 for d, b in zip(res.pivots, res.pivots[1:]))
        assert len(res.pivots) == rank
        assert res.diagonal() == res.pivots + (0,) * (min(a.rows, a.cols) - rank)
        assert res.shape == (a.rows, a.cols)
        assert res.D == reference


@SETTINGS
@given(fold_prone_matrices() | matrices())
@example(IntMatrix.diagonal([2, 3]))
@example(IntMatrix.from_rows([[0, 0], [3, 3], [3, 0], [2, 0]]))
@example(IntMatrix.zeros(0, 3))
@example(IntMatrix.zeros(3, 0))
def test_w_inverts_u_and_no_letter_changes_the_others(a):
    full = snf(a, transforms="UV")
    W = snf(a, transforms="W").W
    X = snf(a, transforms="VX").X
    identity = IntMatrix.identity(a.rows)
    assert full.U * W == identity and W * full.U == identity
    for transforms in TRANSFORMS:
        res = snf(a, transforms=transforms)
        assert res.D == full.D
        for letter, built in (("U", full.U), ("V", full.V), ("W", W), ("X", X)):
            assert getattr(res, letter) == (built if letter in transforms else IntMatrix(0, 0, ()))


@SETTINGS
@given(fold_prone_matrices() | matrices() | sparse_matrices() | tie_matrices())
@example(IntMatrix.from_rows([[0, 0, 1], [1, -1, 0]]))
@example(IntMatrix.from_rows([[-3, -3, 2]]))
@example(IntMatrix.zeros(0, 3))
@example(IntMatrix.zeros(3, 0))
@example(IntMatrix.zeros(0, 0))
def test_x_inverts_v_and_leaves_v_and_the_pivots(a):
    # Each column operation on V is mirrored on X by its inverse row
    # operation, so X is V^-1 on both sides, and asking for it changes
    # neither V nor the pivots, which stay those of the reference SNF.
    res, ref = snf(a, transforms="VX"), reference_snf(a)
    identity = IntMatrix.identity(a.cols)
    assert res.X * res.V == identity and res.V * res.X == identity
    assert res.V == snf(a, transforms="V").V == ref.V
    assert res.pivots == snf(a, transforms="V").pivots == ref.pivots
    assert res.X == unimodular_inverse(res.V)
    assert res.U == res.W == IntMatrix(0, 0, ())


@SETTINGS
@given(sparse_matrices() | tie_matrices())
# After the first pivot swaps columns 0 and 2, row 1 holds units at
# positions 1 and 2: the rule takes position 1, original column 1, where
# the lower original column, 0, would give another V.
@example(IntMatrix.from_rows([[0, 0, 1], [1, -1, 0]]))
# The pivot 2 swaps columns 0 and 2, and both -3 leave the remainder 1:
# the column phase takes position 1, not original column 0.
@example(IntMatrix.from_rows([[-3, -3, 2]]))
def test_sparse_inputs_match_the_reference(a):
    ref = reference_snf(a)
    for transforms in TRANSFORMS:
        res = snf(a, transforms=transforms)
        assert res.D == ref.D
        if "U" in transforms:
            assert res.U == ref.U
        if "V" in transforms:
            assert res.V == ref.V
        if "W" in transforms:
            assert ref.U * res.W == IntMatrix.identity(a.rows)


@SETTINGS
@given(matrices(), matrices(), st.integers(-5, 5), st.integers(2, 9))
def test_computed_matrices_equal_public_ones(a, b, c, n):
    results = [a.transpose(), -a, a.scale(c), a.mod(n), a + a, a - a, a * a.transpose(),
               hstack(a, a), vstack(a, a), IntMatrix.identity(a.rows), IntMatrix.zeros(a.rows, b.cols)]
    if a.cols == b.rows:
        results.append(a * b)
    res = snf(a)
    results += [res.U, res.D, res.V, snf(a, transforms="W").W, snf(a, transforms="VX").X, snf(a, transforms="").U]
    for matrix in results:
        assert all(type(x) is int for x in matrix.entries)
        assert matrix == public(matrix) and hash(matrix) == hash(public(matrix))


@SETTINGS
@given(st.integers(0, 5), st.integers(0, 5), st.integers(1, 3))
def test_public_constructor_validates(rows, cols, extra):
    with pytest.raises(ValueError, match="entries"):
        IntMatrix(rows, cols, (0,) * (rows * cols + extra))
    with pytest.raises(ValueError, match="negative"):
        IntMatrix(-extra, cols, ())
    with pytest.raises(ValueError, match="negative"):
        IntMatrix.zeros(rows, -extra)
    with pytest.raises(ValueError, match="negative"):
        IntMatrix.identity(-extra)
    assert IntMatrix(rows, cols, [True] * (rows * cols)).entries == (1,) * (rows * cols)


@SETTINGS
@given(tall_mostly_zero_matrices())
@example(IntMatrix.from_rows([[0, 0], [2, 4], [0, 0], [0, 0], [-2, -4], [0, 0], [0, 0], [0, 0], [0, 0], [1, 3]]))
def test_tall_mostly_zero_inputs_match_the_reference(a):
    # The SNF scans only the rows from t on that are nonzero, skipping rows
    # zero from the start and rows that row additions empty; it must find
    # the pivots and transforms of the reference, which scans every row.
    ref = reference_snf(a)
    for transforms in TRANSFORMS:
        res = snf(a, transforms=transforms)
        assert res.pivots == ref.pivots
        assert res.U == (ref.U if "U" in transforms else IntMatrix(0, 0, ()))
        assert res.V == (ref.V if "V" in transforms else IntMatrix(0, 0, ()))
        if "W" in transforms:
            assert ref.U * res.W == IntMatrix.identity(a.rows)
        if "X" in transforms:
            assert res.X * ref.V == IntMatrix.identity(a.cols)


@st.composite
def cyclic_orders(draw):
    """Orders of cyclic groups, 0 for Z: a divisibility chain, possibly
    shuffled, with 0s and 1s put anywhere."""
    orders = [draw(st.integers(2, 6))]
    for _ in range(draw(st.integers(0, 5))):
        orders.append(orders[-1] * draw(st.integers(1, 4)))
    if draw(st.booleans()):
        orders = draw(st.permutations(orders))
    if draw(st.booleans()):
        orders = draw(st.lists(st.integers(0, 30), max_size=6))
    for x in draw(st.lists(st.sampled_from((0, 1)), max_size=3)):
        orders.insert(draw(st.integers(0, len(orders))), x)
    return orders


@SETTINGS
@given(cyclic_orders())
@example([])
@example([1, 0, 1])
@example([4, 6, 0])
@example([2, 2, 4, 0, 12])
def test_from_cyclic_orders_equals_the_snf_route(orders):
    # The cokernel of diag(orders) is the direct sum; its SNF pivots are the
    # invariant factors, and its zero diagonal entries the free rank.
    pivots = snf(IntMatrix.diagonal(orders), transforms="").pivots if orders else ()
    expected = AbelianGroupStructure(len(orders) - len(pivots), tuple(d for d in pivots if d > 1))
    assert AbelianGroupStructure.from_cyclic_orders(orders) == expected
