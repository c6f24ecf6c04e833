"""Property tests of the integer products: IntMatrix.__mul__ and
IntMatrix.apply, which multiply nonzero rows, and the Fox walk's kernel,
exactlinalg._product, mod n, against the dense triple loop in support and
against sympy."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from support import reference_product  # noqa: E402
from twistedhom import IntMatrix  # noqa: E402
from twistedhom.exactlinalg import _nonzero_rows, _product  # noqa: E402

SETTINGS = settings(max_examples=200, deadline=None)
MODULI = (2, 3, 4, 8)

# Small values of both signs, and values of 100 bits and more.
VALUES = st.one_of(
    st.integers(-9, 9),
    st.integers(2**100, 2**130),
    st.integers(-(2**130), -(2**100)),
)


@st.composite
def entries(draw, count):
    """count entries, dense or sparse: a sparse draw holds at most 10% nonzeros."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(VALUES, min_size=count, max_size=count)))
    cells = draw(st.sets(st.integers(0, max(count - 1, 0)), max_size=count // 10)) if count else set()
    return tuple(draw(VALUES.filter(bool)) if k in cells else 0 for k in range(count))


@st.composite
def product_pairs(draw, max_side=12):
    """a and b with a.cols == b.rows; each of the three sizes may be 0."""
    rows, inner, cols = (draw(st.integers(0, max_side)) for _ in range(3))
    return (
        IntMatrix(rows, inner, draw(entries(rows * inner))),
        IntMatrix(inner, cols, draw(entries(inner * cols))),
    )


def pair(rows, inner, cols, value=3):
    """An a and b of the given sizes, every entry value."""
    return IntMatrix(rows, inner, (value,) * (rows * inner)), IntMatrix(inner, cols, (value,) * (inner * cols))


@SETTINGS
@given(product_pairs())
# A product with no columns: a range over its rows with a step of 0 fails.
@example(pair(3, 2, 0))
@example(pair(0, 2, 3))
@example(pair(3, 0, 2))
@example(pair(0, 0, 0))
def test_product_equals_the_references(ab):
    sympy = pytest.importorskip("sympy")
    a, b = ab
    expected = reference_product(a, b)
    assert a * b == expected
    product = sympy.Matrix(a.rows, a.cols, list(a.entries)) * sympy.Matrix(b.rows, b.cols, list(b.entries))
    assert product.shape == (a.rows, b.cols)
    assert tuple(int(x) for x in product) == expected.entries
    for j in range(b.cols):
        assert a.apply(b.column(j)) == expected.column(j)
    for n in MODULI:
        assert tuple(_product(a.entries, _nonzero_rows(b), a.rows, b.cols, n)) == expected.mod(n).entries


def test_shape_mismatch():
    a, b = IntMatrix.zeros(2, 3), IntMatrix.zeros(2, 3)
    with pytest.raises(ValueError, match="cannot multiply 2x3 by 2x3"):
        a * b
    with pytest.raises(ValueError, match="vector length mismatch"):
        a.apply((1, 2))
