"""Property tests of the kernel quotient ker(A) / (im(incoming) + n*Z^m):
the group alone, read off V^-1 on the rows that survive, equals the group
of the witness route and of the reference that solves in the scaled kernel
basis, over Z and Z/n, and both routes name the same first generator
outside the kernel. The positions the quotient keeps are a suffix of the
SNF's diagonal, and the integer kernel basis is V's columns past the
rank."""

from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistedhom import CoefficientRing, IntMatrix, kernel_basis, snf  # noqa: E402
from twistedhom.exactlinalg import _subquotient  # noqa: E402

from support import filtered_kernel_basis, reference_homology  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None)
MODULI = (0, 2, 3, 4, 6, 8, 9, 12)


@st.composite
def matrices(draw, max_side=5):
    """A small matrix with zeros, units and entries sharing factors with
    the moduli."""
    rows, cols = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    return IntMatrix(rows, cols, draw(st.lists(st.sampled_from((0, 0, 1, -1, 2, -3, 4, 6, -9)), min_size=rows * cols, max_size=rows * cols)))


@st.composite
def quotients(draw, max_side=5):
    """(A, incoming, n) with every column of incoming in ker A mod n: kernel
    combinations, plus multiples of n over Z/n, which leave the class."""
    a = draw(matrices(max_side))
    cols = a.cols
    n = draw(st.sampled_from(MODULI))
    kernel = _subquotient(snf(a, transforms="VX"), IntMatrix.zeros(cols, 0), n, generators=True)[1]
    count = draw(st.integers(0, 4))
    small = st.integers(-3, 3)
    mix = IntMatrix(kernel.cols, count, draw(st.lists(small, min_size=kernel.cols * count, max_size=kernel.cols * count)))
    shift = IntMatrix(cols, count, draw(st.lists(small, min_size=cols * count, max_size=cols * count)))
    return a, kernel * mix + shift.scale(n), n


def outside_first(a: IntMatrix, incoming: IntMatrix, n: int) -> int | None:
    """The first column v of incoming with A*v != 0 mod n (over Z, != 0)."""
    for j in range(incoming.cols):
        if any(x % n if n else x for x in a.apply(incoming.column(j))):
            return j
    return None


@SETTINGS
@given(quotients())
# No generators: A has no columns, so V^-1 is 0x0.
@example((IntMatrix.zeros(2, 0), IntMatrix.zeros(0, 2), 4))
# incoming has no columns.
@example((IntMatrix.from_rows([[2, 0, 1]]), IntMatrix.zeros(3, 0), 6))
@example((IntMatrix.from_rows([[2, 0, 1]]), IntMatrix.zeros(3, 0), 0))
# s_1 = g_1 = 2: a coordinate not divided by s_1 would vanish mod g_1.
@example((IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[2]]), 4))
# Every g_j = gcd(d_j, 3) is 1, so every row drops out.
@example((IntMatrix.from_rows([[1, 2], [0, 5]]), IntMatrix.from_columns(2, [(3, 0), (0, 9)]), 3))
def test_the_group_alone_equals_both_routes(case):
    a, incoming, n = case
    group, kernel, generators = _subquotient(snf(a, transforms="VX"), incoming, n)
    assert kernel is None and generators == ()
    assert group == _subquotient(snf(a, transforms="VX" if n else "V"), incoming, n, True)[0]
    assert group == reference_homology(snf(a, transforms="V"), incoming, CoefficientRing(n))[0]


@SETTINGS
@given(quotients(), st.lists(st.integers(-3, 3), min_size=5, max_size=5), st.integers(0, 4))
def test_a_generator_outside_is_named_first_on_both_routes(case, entries, where):
    a, incoming, n = case
    pushed = IntMatrix.from_columns(a.cols, [tuple(entries[: a.cols])])
    columns = [incoming.column(j) for j in range(incoming.cols)]
    columns.insert(min(where, len(columns)), pushed.column(0))
    incoming = IntMatrix.from_columns(a.cols, columns)
    first = outside_first(a, incoming, n)
    for generators in (False, True):
        factored = snf(a, transforms="VX")
        if first is None:
            _subquotient(factored, incoming, n, generators)
            continue
        with pytest.raises(ValueError, match=f"^subgroup generator {first} lies outside the ambient lattice$"):
            _subquotient(factored, incoming, n, generators)


@SETTINGS
@given(matrices(), st.sampled_from(MODULI))
def test_kept_positions_are_a_suffix_and_the_kernel_is_the_tail_of_v(a, n):
    # d_j | d_k for j <= k, and d_j | 0 past the pivots, so gcd(d_j, n)
    # divides gcd(d_k, n): once a position is kept, every later one is.
    factored = snf(a, transforms="V")
    diagonal = factored.pivots + (0,) * (a.cols - len(factored.pivots))
    kept = [gcd(d, n) != 1 for d in diagonal]
    assert kept == sorted(kept)
    assert kernel_basis(a) == filtered_kernel_basis(factored)
