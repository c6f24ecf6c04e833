"""The answer ledger: every group the package computes on a fixed corpus,
one line per (input, ring, stage), so that "no answer changed" is a check
anyone can rerun (tests/test_ledger.py).

Each line holds five tab-separated fields: input, ring, stage, the group
as text (or the oracle's counts, or the error), and a digest of z1_basis
and of the witnesses, "-" where the stage has none. A change that moves
only the witnesses rewrites only the last field.

The corpus is the built-in examples, the genus-2 to genus-6 chains,
SL(2, Z) on Sym^k Z^2 for k = 0 to 22, and each benchmark workload's
inputs at seeds 1 and 2. Each input is written in the file format and read
back, as the command line reads it. Over Z, Z/2, Z/3, Z/4 and Z/8 the
stages h0, coh1, coh1-kerf (for an input with a kerf) and h1 run as
cli.run runs them; uct gives one line per ring it compares and the mod-2
oracle one line, both from the input's own ring.

Rewrite the ledger with:

    PYTHONPATH=src python3 tests/ledger.py
"""

import hashlib
from pathlib import Path

from twistedhom import CoefficientRing, builtin_examples, change_ring
from twistedhom.cli import UCT_MODULI, example_to_text, parse_input_file
from twistedhom.homology import (
    OracleRefusal,
    brute_force_h1_mod2,
    checked_cochains,
    coinvariants,
    h1_cohomology,
    h1_homology,
    kerf_reduction,
    uct_check,
)

from support import chain_example, sl2_sym_example, workload_examples

LEDGER = Path(__file__).resolve().parent / "ledger.tsv"
RINGS = ("Z", "Z/2", "Z/3", "Z/4", "Z/8")
WORKLOADS = ("goeritz-pipeline", "chain-genus4", "long-relators")
SEEDS = (1, 2)


def corpus():
    """(name, example) for every input of the ledger, in ledger order."""
    yield from sorted(builtin_examples().items())
    for genus in range(2, 7):
        yield f"chain{genus}", chain_example(genus)
    for k in range(23):
        yield f"sl2-sym{k}", sl2_sym_example(k)
    for workload in WORKLOADS:
        for seed in SEEDS:
            for i, example in enumerate(workload_examples(workload, seed)):
                yield f"{workload}:{seed}:{i}", example


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def cohomology_fields(result) -> tuple[str, str]:
    """The group of a CohomologyResult, and one digest of its z1_basis and
    witnesses."""
    basis = result.z1_basis
    return str(result.h1), digest(((basis.rows, basis.cols, basis.entries), result.witnesses))


def ring_lines(p, rep, kerf):
    """(stage, text, digest) for each stage run over rep's ring."""

    def attempt(stage, compute):
        try:
            return (stage, *compute())
        except ValueError as exc:
            return stage, f"error: {exc}", "-"

    yield attempt("h0", lambda: (str(coinvariants(rep)), "-"))
    try:
        cochains = checked_cochains(p, rep)
    except ValueError as exc:
        yield "coh1", f"error: {exc}", "-"
    else:
        yield attempt("coh1", lambda: cohomology_fields(h1_cohomology(p, rep, cochains=cochains)))
        if kerf is not None:
            yield attempt("coh1-kerf", lambda: cohomology_fields(kerf_reduction(p, rep, kerf, cochains=cochains)))
    yield attempt("h1", lambda: (str(h1_homology(p, rep)), "-"))


def input_lines(name, example):
    """The ledger lines of one input, read back from its text."""
    data = parse_input_file(example_to_text(example))
    p, rep = data.presentation, data.representation
    for ring in RINGS:
        for stage, text, witnesses in ring_lines(p, change_ring(rep, CoefficientRing.parse(ring)), data.kerf):
            yield "\t".join((name, ring, stage, text, witnesses))
    try:
        comparisons = uct_check(p, rep, UCT_MODULI)
    except ValueError as exc:
        yield "\t".join((name, str(rep.ring), "uct", f"error: {exc}", "-"))
    else:
        for c in comparisons:
            yield "\t".join((name, str(c.ring), "uct", f"{c.computed} (expected {c.expected})", "-"))
    try:
        counts = brute_force_h1_mod2(p, rep)
    except OracleRefusal as exc:
        text = f"skipped: {exc}"
    except ValueError as exc:
        text = f"error: {exc}"
    else:
        text = "z1={} b1={} h1={}".format(*counts)
    yield "\t".join((name, "Z/2", "oracle", text, "-"))


def compute_ledger() -> list[str]:
    return [line for name, example in corpus() for line in input_lines(name, example)]


if __name__ == "__main__":
    lines = compute_ledger()
    LEDGER.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"wrote {len(lines)} lines to {LEDGER}")
