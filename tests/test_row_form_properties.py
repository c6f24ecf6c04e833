"""Property tests of the row form: J, P, d1, d2, vstack(J, f) and the Z/n
coordinates, built as nonzero rows, equal their dense references entry for
entry and row for row, on drawn presentations and actions over Z and Z/n."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistedhom import CoefficientRing, change_ring  # noqa: E402
from twistedhom.exactlinalg import _nonzero_rows  # noqa: E402

from support import perturbed_pair, random_int_matrix, row_form_pairs  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def actions_on_rings(draw):
    """A perturbed built-in pair, over its own ring or moved to a drawn
    Z/n where the change of ring is allowed, with a drawn functional f."""
    rng = draw(st.randoms(use_true_random=False))
    p, rep = perturbed_pair(rng)
    modulus = draw(st.sampled_from((0, 2, 3, 4, 8)))
    if modulus and rep.ring.modulus in (0, modulus):
        rep = change_ring(rep, CoefficientRing(modulus))
    f = random_int_matrix(rng, rep.rank, len(p.generators) * rep.rank)
    return p, rep, f


@SETTINGS
@given(actions_on_rings())
def test_row_form_equals_the_dense_references(drawn):
    for name, built, dense in row_form_pairs(*drawn):
        assert _nonzero_rows(built) == _nonzero_rows(dense), name
        assert built == dense, name
