"""The cochains travel as nonzero rows: on the chain family the row form
equals the dense references, no h0, coh1, h1 or uct stage forms the
entries of a dense J, d2 or coordinate matrix, and the oracle forms none
of J or P."""

import random

import pytest

from twistedhom import CoefficientRing, IntMatrix, change_ring, exactlinalg
from twistedhom.cli import JobSpec, example_to_text, run
from twistedhom.exactlinalg import _nonzero_rows
from twistedhom.homology import checked_cochains

from support import chain_example, random_int_matrix, reference_cocycle_matrix, row_form_pairs


@pytest.mark.parametrize("genus", range(2, 7))
@pytest.mark.parametrize("modulus", [0, 2])
def test_chain_row_form_equals_the_dense_references(genus, modulus):
    example = chain_example(genus)
    p, rep = example.presentation, change_ring(example.representation, CoefficientRing(modulus))
    f = random_int_matrix(random.Random(genus), rep.rank, len(p.generators) * rep.rank)
    for name, built, dense in row_form_pairs(p, rep, f):
        assert _nonzero_rows(built) == _nonzero_rows(dense), name
        assert built == dense, name


def record_formed(monkeypatch) -> list[tuple[int, int]]:
    """Records the shape of every entries tuple formed from now on: by the
    public constructor, by _trusted, and on first read of a matrix built
    from its nonzero rows."""
    formed = []
    trusted, post_init = IntMatrix._trusted, IntMatrix.__post_init__
    row_built = getattr(exactlinalg, "_RowBuilt", None)

    def record_trusted(cls, rows, cols, entries):
        formed.append((rows, cols))
        return trusted(rows, cols, entries)

    def record_post_init(self):
        formed.append((self.rows, self.cols))
        post_init(self)

    monkeypatch.setattr(IntMatrix, "_trusted", classmethod(record_trusted))
    monkeypatch.setattr(IntMatrix, "__post_init__", record_post_init)
    if row_built is not None:
        lazy = row_built.__getattr__

        def record_lazy(self, name):
            if name == "entries":
                formed.append((self.rows, self.cols))
            return lazy(self, name)

        monkeypatch.setattr(row_built, "__getattr__", record_lazy)
    return formed


def test_no_stage_forms_a_dense_cochain(tmp_path, monkeypatch):
    # J has a row per relator and module basis vector, and d2 and the h1
    # coordinates as many columns; nothing else comes near that size.
    example = chain_example(6)
    path = tmp_path / "chain6.grp"
    path.write_text(example_to_text(example))
    tall = len(example.presentation.relators) * example.representation.rank
    formed = record_formed(monkeypatch)
    for ring, stages in ((None, ("h0", "coh1", "h1", "uct")), (CoefficientRing.modular(2), ("h0", "coh1", "h1"))):
        status, records = run(JobSpec(path=str(path), ring=ring, computations=stages))
        assert status == 0, records
    assert formed
    assert max(max(shape) for shape in formed) < tall, sorted(formed, key=max)[-3:]


def test_the_oracle_forms_no_dense_cochain(tmp_path, monkeypatch):
    # The mod-2 oracle reads the column bitmasks of J and P off their
    # nonzero rows: chain g = 2 has 16 bits, and no entries tuple of J's
    # or P's shape is formed.
    example = chain_example(2)
    path = tmp_path / "chain2.grp"
    path.write_text(example_to_text(example))
    J, P = checked_cochains(example.presentation, change_ring(example.representation, CoefficientRing.modular(2)))
    assert J.cols == 16
    formed = record_formed(monkeypatch)
    status, records = run(JobSpec(path=str(path), computations=("oracle",)))
    assert status == 0, records
    assert [r["name"] for r in records if "z1_count" in r] == ["oracle"], records
    assert formed
    assert {(J.rows, J.cols), (P.rows, P.cols)}.isdisjoint(formed), sorted(set(formed))


def test_row_built_matrix_equals_hashes_and_prints_as_dense():
    example = chain_example(2)
    p, rep = example.presentation, example.representation
    J = checked_cochains(p, rep)[0]
    dense = IntMatrix(J.rows, J.cols, reference_cocycle_matrix(p, rep).entries)
    assert J == dense and dense == J and not (J != dense)
    assert hash(J) == hash(dense)
    assert repr(J) == repr(dense)
    assert J.transpose() == dense.transpose()
    assert J.mod(2) == dense.mod(2)
    assert J != dense.mod(2)
