"""Property tests of invariance under Tietze moves, on e2 and the genus-3
chain over Z, Z/2 and Z/4. A new generator x with the relator x*w^-1 and
M_x = M(w), or a run of Nielsen moves g_i -> g_i*g_j, presents the same
group acting on the same module, so H_0, H^1 and H_1 do not change: the
lattice subquotients are read off matrices of other shapes and entries."""

from functools import cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from support import add_generator, chain_example, nielsen_move  # noqa: E402
from twistedhom import (  # noqa: E402
    CoefficientRing,
    IntMatrix,
    Word,
    change_ring,
    cocycle_matrix,
    coinvariants,
    evaluate_group_ring,
    fox_derivative,
    goeritz_e2,
    h1_cohomology,
    h1_homology,
)

SETTINGS = settings(max_examples=60, deadline=None)
EXAMPLES = {"e2": goeritz_e2(), "chain3": chain_example(3)}
INPUTS = st.tuples(st.sampled_from(sorted(EXAMPLES)), st.sampled_from((0, 2, 4)))
# Generator indices are drawn past the 4 of e2 and reduced mod the count.
LETTERS = st.lists(st.tuples(st.integers(0, 5), st.sampled_from((1, -1))), max_size=8)


@cache
def pair(name, n):
    example = EXAMPLES[name]
    return example.presentation, change_ring(example.representation, CoefficientRing(n))


def groups(p, rep):
    return coinvariants(rep), h1_cohomology(p, rep).h1, h1_homology(p, rep)


@cache
def base_groups(name, n):
    return groups(*pair(name, n))


@SETTINGS
@given(INPUTS, LETTERS)
def test_a_new_generator_keeps_every_group_and_extends_every_witness(inputs, letters):
    p, rep = pair(*inputs)
    count, n = len(p.generators), rep.ring.modulus
    w = Word(p.generators, tuple((i % count, sign) for i, sign in letters))
    moved_p, moved_rep = add_generator(p, rep, w)
    assert groups(moved_p, moved_rep) == base_groups(*inputs)
    # A cocycle d extends to x by d(x) = d(w) = sum_g M(dw/dg) d(g).
    d_of_w = evaluate_group_ring(rep, *(fox_derivative(w, g) for g in p.generators))
    moved_J = cocycle_matrix(moved_p, moved_rep)
    for witness in h1_cohomology(p, rep).witnesses:
        extended = witness + d_of_w.apply(witness)
        assert (moved_J * IntMatrix(len(extended), 1, extended)).mod(n).is_zero()


@SETTINGS
@given(INPUTS, st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)), min_size=1, max_size=3))
def test_nielsen_moves_keep_every_group(inputs, moves):
    p, rep = pair(*inputs)
    count = len(p.generators)
    for i, offset in moves:
        p, rep = nielsen_move(p, rep, i % count, (i + offset) % count)
    assert groups(p, rep) == base_groups(*inputs)
