"""Property tests of form independence: a matrix built from its entries and
the same matrix built from its nonzero rows are one matrix. They compare,
hash and print alike, every operation gives the same result on either, and
products agree with a dense reference as well. Each matrix forms its other
view once, and no operation changes the rows it shares."""

from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistedhom.exactlinalg import IntMatrix, _nonzero_rows, hstack, vstack  # noqa: E402

from support import reference_product  # noqa: E402

SETTINGS = settings(max_examples=80, deadline=None)

# Mostly zeros and small entries, as in the cochains, with some past 64 bits.
ENTRIES = st.sampled_from((0, 0, 0, 1, -1, 2, -3)) | st.integers(-(2**70), 2**70)
SIZES = st.integers(0, 5)


def entries_of(rows: int, cols: int):
    return st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols).map(tuple)


def forms(rows: int, cols: int, entries: tuple[int, ...]) -> tuple[IntMatrix, IntMatrix]:
    """The matrix built from its entries and built from its nonzero rows,
    the rows read off a separate copy, so the first holds only entries."""
    return (
        IntMatrix(rows, cols, entries),
        IntMatrix._from_nonzero(rows, cols, _nonzero_rows(IntMatrix(rows, cols, entries))),
    )


@st.composite
def matrix_forms(draw, rows=None, cols=None):
    """Both forms of a drawn matrix; a shape not given is drawn, 0 included."""
    rows = draw(SIZES) if rows is None else rows
    cols = draw(SIZES) if cols is None else cols
    return forms(rows, cols, draw(entries_of(rows, cols)))


@st.composite
def factor_pairs(draw):
    """The forms of a rows x inner and an inner x cols matrix."""
    rows, inner, cols = draw(SIZES), draw(SIZES), draw(SIZES)
    return draw(matrix_forms(rows, inner)), draw(matrix_forms(inner, cols))


def snapshot(matrix: IntMatrix) -> list[list[tuple[int, int]]]:
    return [list(pairs) for pairs in _nonzero_rows(matrix)]


@SETTINGS
@given(matrix_forms())
def test_forms_compare_hash_and_print_alike(pair):
    dense, rows = pair
    assert dense == rows and rows == dense and not (dense != rows)
    assert hash(dense) == hash(rows)
    assert repr(dense) == repr(rows)
    assert _nonzero_rows(dense) == _nonzero_rows(rows)
    if dense.rows and dense.cols:
        other = IntMatrix(dense.rows, dense.cols, (dense.entries[0] + 1,) + dense.entries[1:])
        assert rows != other and other != rows


@SETTINGS
@given(matrix_forms())
def test_unary_operations_agree_across_forms(pair):
    dense, rows = pair
    shared = snapshot(rows)
    m, n = dense.rows, dense.cols
    transposed = IntMatrix(n, m, tuple(dense.entries[i * n + j] for j in range(n) for i in range(m)))
    for matrix in pair:
        assert matrix.transpose() == transposed
        assert _nonzero_rows(matrix.transpose()) == _nonzero_rows(transposed)
        for modulus in (2, 3, 4, 8):
            reduced = IntMatrix(m, n, tuple(x % modulus for x in dense.entries))
            assert matrix.mod(modulus) == reduced
            assert _nonzero_rows(matrix.mod(modulus)) == _nonzero_rows(reduced)
        assert matrix.mod(0) is matrix
        assert matrix.is_zero() == (not any(dense.entries))
        assert matrix.scale(-2) == IntMatrix(m, n, tuple(-2 * x for x in dense.entries))
    assert snapshot(rows) == shared


@SETTINGS
@given(factor_pairs())
def test_products_agree_across_forms_and_with_the_reference(pairs):
    left, right = pairs
    expected = reference_product(left[0], right[0])
    shared = [snapshot(left[1]), snapshot(right[1])]
    for a, b in product(left, right):
        result = a * b
        assert result == expected
        assert _nonzero_rows(result) == _nonzero_rows(expected)
    assert [snapshot(left[1]), snapshot(right[1])] == shared


@SETTINGS
@given(st.data())
def test_apply_agrees_across_forms_and_with_the_reference(data):
    dense, rows = data.draw(matrix_forms())
    vector = data.draw(entries_of(dense.cols, 1))
    expected = reference_product(dense, IntMatrix(dense.cols, 1, vector)).entries
    assert dense.apply(vector) == rows.apply(vector) == expected


@SETTINGS
@given(st.data())
def test_mixed_stacks_agree_across_forms(data):
    cols = data.draw(SIZES)
    top, bottom = data.draw(matrix_forms(cols=cols)), data.draw(matrix_forms(cols=cols))
    stacked = IntMatrix(top[0].rows + bottom[0].rows, cols, top[0].entries + bottom[0].entries)
    for a, b in product(top, bottom):
        assert vstack(a, b) == stacked
        assert _nonzero_rows(vstack(a, b)) == _nonzero_rows(stacked)
    rows = data.draw(SIZES)
    left, right = data.draw(matrix_forms(rows=rows)), data.draw(matrix_forms(rows=rows))
    side_by_side = IntMatrix.from_rows([*a, *b] for a, b in zip(left[0].to_rows(), right[0].to_rows()))
    for a, b in product(left, right):
        joined = hstack(a, b)
        assert (joined.rows, joined.cols) == (rows, left[0].cols + right[0].cols)
        assert joined.entries == side_by_side.entries


@SETTINGS
@given(st.data())
def test_det_agrees_across_forms(data):
    size = data.draw(SIZES)
    dense, rows = data.draw(matrix_forms(size, size))
    assert dense.det() == rows.det()


@SETTINGS
@given(matrix_forms())
def test_each_view_is_formed_once(pair):
    dense, rows = pair
    assert rows.entries is rows.entries
    assert _nonzero_rows(dense) is _nonzero_rows(dense)
    assert _nonzero_rows(rows) is _nonzero_rows(rows)
    assert dense.entries is dense.entries
