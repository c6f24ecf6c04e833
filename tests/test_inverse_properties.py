"""Property tests of the fraction-free elimination that inverts an action
and gives a determinant: over Z and Z/n, unimodular_inverse equals the
adjugate times det^-1, or refuses with the |det| of a Laplace expansion,
and IntMatrix.det equals that expansion. The matrices drawn are dense,
free of +-1 (so every pivot is a Bareiss step), permuted triangular, and
singular."""

from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistedhom import IntMatrix, unimodular_inverse  # noqa: E402

from support import adjugate, cofactor_det  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None)
MODULI = (0, 2, 3, 4, 6, 8, 9, 12)
DENSE = (0, 1, -1, 2, -3, 4, 6, -9)
NO_UNIT = (0, 0, 2, -2, 3, -3, 4, 5, -6, 9)


@st.composite
def squares(draw, max_side=8):
    """A square matrix of side 0 to max_side, of one of four kinds."""
    size = draw(st.integers(0, max_side))
    kind = draw(st.sampled_from(("dense", "no unit", "triangular", "singular")))
    if kind == "triangular":
        # Upper triangular, its diagonal units or not, rows permuted.
        diagonal = draw(st.lists(st.sampled_from((1, -1, 1, -1, 2, 3)), min_size=size, max_size=size))
        above = st.integers(-5, 5)
        rows = [[diagonal[i] if i == j else draw(above) if j > i else 0 for j in range(size)] for i in range(size)]
        rows = [rows[i] for i in draw(st.permutations(range(size)))]
    else:
        values = st.sampled_from(NO_UNIT if kind == "no unit" else DENSE)
        rows = [draw(st.lists(values, min_size=size, max_size=size)) for _ in range(size)]
        if kind == "singular" and size:
            # One row becomes a combination of the others (zero when alone).
            i = draw(st.integers(0, size - 1))
            coefficients = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
            rows[i] = [sum(c * r[j] for c, r, k in zip(coefficients, rows, range(size)) if k != i) for j in range(size)]
    return IntMatrix(size, size, tuple(x for row in rows for x in row))


@SETTINGS
@given(squares(), st.sampled_from(MODULI))
@example(IntMatrix.from_rows([[2, 3], [3, 5]]), 0)
@example(IntMatrix.from_rows([[2, 3], [3, 5]]), 4)
@example(IntMatrix.from_rows([[3, 1], [1, 5]]), 4)
@example(IntMatrix.from_rows([[0, 2, 3], [3, 0, 2], [2, 3, 0]]), 35)
@example(IntMatrix.from_rows([[-1]]), 3)
@example(IntMatrix.zeros(0, 0), 0)
def test_inverse_is_the_adjugate_over_det(m, n):
    det = cofactor_det(m)
    if gcd(det, n) != 1:
        ring = f"Z/{n}" if n else "Z"
        with pytest.raises(ValueError, match=rf"^\|det\| = {abs(det)} is not a unit over {ring}$"):
            unimodular_inverse(m, n)
        return
    inverse = unimodular_inverse(m, n)
    expected = adjugate(m).scale(pow(det, -1, n) if n else det)
    assert inverse == expected.mod(n)
    assert all(0 <= x < n for x in inverse.entries) if n else (m * inverse == IntMatrix.identity(m.rows))


@SETTINGS
@given(squares())
@example(IntMatrix.from_rows([[2, 3], [3, 5]]))
@example(IntMatrix.from_rows([[0, -1], [1, 0]]))
@example(IntMatrix.from_rows([[2, 0, 3], [0, 2, 5], [4, 3, 0]]))
def test_det_is_the_cofactor_expansion(m):
    assert m.det() == cofactor_det(m)
