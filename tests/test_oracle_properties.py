"""Property tests of the mod-2 oracle's meet-in-the-middle kernel count
against the row-mask reference, on hypothesis-drawn matrices."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistedhom import IntMatrix  # noqa: E402
from twistedhom.homology import _kernel_size_mod2  # noqa: E402

from support import row_mask_kernel_count  # noqa: E402

SETTINGS = settings(max_examples=200, deadline=None)


@st.composite
def matrices(draw, max_rows=8, max_cols=12):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    entries = draw(st.lists(st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols))
    return IntMatrix(rows, cols, tuple(entries))


@SETTINGS
@given(matrices())
def test_kernel_count_matches_row_mask_reference(matrix):
    assert _kernel_size_mod2(matrix) == row_mask_kernel_count(matrix)


@SETTINGS
@given(matrices(), st.integers(0, 11))
def test_a_repeated_column_doubles_the_kernel(matrix, j):
    # v + e_j + e_last is in the kernel with v, so the count doubles.
    if not matrix.cols:
        return
    j %= matrix.cols
    column = matrix.column(j)
    entries = [x for i in range(matrix.rows) for x in (*matrix.row(i), column[i])]
    doubled = IntMatrix(matrix.rows, matrix.cols + 1, tuple(entries))
    assert _kernel_size_mod2(doubled) == 2 * _kernel_size_mod2(matrix)
