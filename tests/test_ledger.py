"""Every answer in the committed ledger (tests/ledger.tsv) is computed again
and must be equal, the witnesses' digest included; the first line that
differs is named. Rewrite the ledger with tests/ledger.py only when a
change of witnesses is intended and stated."""

import time

from ledger import LEDGER, compute_ledger


def test_the_ledger_is_recomputed_unchanged():
    start = time.perf_counter()
    computed = compute_ledger()
    seconds = time.perf_counter() - start
    committed = LEDGER.read_text(encoding="utf-8").splitlines()
    for number, (old, new) in enumerate(zip(committed, computed), 1):
        assert new == old, f"ledger line {number} differs:\n  committed: {old}\n  computed:  {new}"
    assert len(computed) == len(committed), f"ledger has {len(committed)} lines, computed {len(computed)}"
    assert seconds < 15, f"the ledger took {seconds:.1f} s"
