"""Tests of the benchmark itself: generators, answer table, tracer.

Run from the root of the repository with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from twistedhom import (  # noqa: E402
    IntMatrix,
    check_bilinear_form_preserved,
    check_relators_trivial,
    cli,
    fox,
    homology,
    principal_map,
    representation,
)


def _write(tmp_path, example) -> str:
    path = tmp_path / f"{example.name}.grp"
    path.write_text(cli.example_to_text(example), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_chain_action_is_valid(genus):
    ex = workloads.chain_example(genus, random.Random(genus))
    assert len(ex.presentation.relators) == genus * (2 * genus - 1)
    assert check_relators_trivial(ex.representation, ex.presentation) == []
    assert check_bilinear_form_preserved(ex.representation, ex.form) == []


@pytest.mark.parametrize("seed", range(5))
def test_change_of_basis_keeps_every_check(seed):
    rng = random.Random(seed)
    q, q_inv = workloads.unimodular_pair(rng, 4)
    assert q * q_inv == IntMatrix.identity(4)
    ex = workloads.change_basis(workloads.goeritz_e2(), q, q_inv)
    assert check_relators_trivial(ex.representation, ex.presentation) == []
    assert check_bilinear_form_preserved(ex.representation, ex.form) == []
    assert (ex.kerf * principal_map(ex.representation).matrix).det() in (1, -1)


def test_long_relators_hold_in_the_group():
    ex = workloads.build("long-relators", 7, count=1).examples[0]
    extra = ex.presentation.relators[-workloads.LONG_RELATORS :]
    assert all(abs(len(w) - workloads.LONG_RELATOR_LETTERS) <= 10 for w in extra)
    assert check_relators_trivial(ex.representation, ex.presentation) == []


@pytest.mark.parametrize("name", sorted(workloads.PLANS))
def test_same_seed_same_input(name):
    first = workloads.build(name, 3, count=2)
    workloads.self_check(first)
    assert first.texts() == workloads.build(name, 3, count=2).texts()
    assert len(set(first.texts() + workloads.build(name, 4, count=2).texts())) == 4


@pytest.mark.parametrize("name", sorted(workloads.PLANS))
def test_one_job_matches_the_table(tmp_path, name):
    workload = workloads.build(name, 11, count=1)
    times, refs, probes, problems = run.run_job(workload, Path(_write(tmp_path, workload.examples[0])))
    assert problems == []
    assert set(times) == set(refs) == {(stage, ring or "Z") for stage, ring in workload.plan}
    assert len(probes) == len(workload.plan) + 1 and all(p > 0 for p in probes)


def test_table_check_catches_a_wrong_answer():
    table = workloads.E2_TABLE
    record = {"name": "h1", "ring": "Z", "free_rank": 0, "torsion": [2], "structure": "Z/2"}
    summary = {"name": "summary", "exit_status": 0, "failed_stages": []}
    assert run.verdict(table, "h1", "Z", 0, [record, summary])
    good = dict(record, torsion=[2, 2], structure="Z/2 + Z/2")
    assert run.verdict(table, "h1", "Z", 0, [good, summary]) == []
    assert run.verdict(table, "h1", "Z", 1, [good, summary])
    assert run.verdict(table, "h1", "Z", 0, [{"name": "h1", "error": "boom"}, summary])


@pytest.mark.parametrize("genus", [3, 4])
def test_chain_uct_matches_on_all_five_rings(tmp_path, genus):
    ex = workloads.chain_example(genus, random.Random(0))
    status, records = cli.run(cli.JobSpec(path=_write(tmp_path, ex), computations=("uct",)))
    assert status == 0
    assert records[0]["all_match"] and len(records[0]["comparisons"]) == 5


def test_chain_genus2_oracle(tmp_path):
    ex = workloads.chain_example(2, random.Random(0))
    status, records = cli.run(cli.JobSpec(path=_write(tmp_path, ex), computations=("oracle",)))
    assert status == 0
    assert (records[0]["z1_count"], records[0]["b1_count"], records[0]["h1_count"]) == (32, 16, 2)


def test_tracer_rebinds_every_import_site(tmp_path):
    before = dict(tracing.bound_functions())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.leftover() == []
        for module, name in [
            (homology, "snf"), (homology, "solve_in_lattice"), (homology, "evaluate_group_ring"),
            (homology, "change_ring"), (fox, "evaluate_group_ring"), (cli, "h1_cohomology"),
            (representation, "evaluate_word"),
        ]:
            assert hasattr(getattr(module, name), "__traced__"), f"{module.__name__}.{name}"
        assert hasattr(representation.Representation.__dict__["build"].__func__, "__traced__")
        with pytest.raises(RuntimeError):
            tracing.assert_untraced()
        path = _write(tmp_path, workloads.goeritz_e2())
        cli.run(cli.JobSpec(path=path, computations=("coh1",)))
    finally:
        tracer.uninstall()
    tracing.assert_untraced()
    assert all(func is before[name] for name, func in tracing.bound_functions())

    names = [span.name for span in tracer.spans]
    for expected in ("cli.run", "cli.parse_input_file", "Representation.build", "fox.cocycle_matrix",
                     "representation.evaluate_word", "exactlinalg.snf", "exactlinalg.solve_in_lattice"):
        assert expected in names
    # evaluate_word is reached through evaluate_group_ring's module global.
    parents = {tracer.spans[s.parent].name for s in tracer.spans if s.name == "representation.evaluate_word"}
    assert "representation.evaluate_group_ring" in parents


def test_self_time_subtracts_children():
    spans = [
        tracing.Span("exactlinalg.snf", 0, None, 0.0, 10.0, 10.0, {"cells": 4, "rows": 2, "cols": 2, "bits": 3, "input": 1}),
        tracing.Span("exactlinalg.snf", 0, 0, 1.0, 3.0, 4.0, {"cells": 6, "rows": 2, "cols": 3, "bits": 5, "input": 1}),
    ]
    metrics, busiest = run.layer_metrics(spans, 1.0, 1.25)
    assert busiest == [(pytest.approx(9.0), "exactlinalg.snf")]
    assert metrics["snf.self_s"] == pytest.approx((10.0 - 3.0) + 2.0)
    assert metrics["snf.calls"] == 2
    assert metrics["snf.distinct_ratio"] == 0.5
    assert (metrics["snf.max_cols"], metrics["snf.max_bits"], metrics["snf.cells"]) == (3, 5, 10)
    assert metrics["trace.overhead"] == 1.25
    assert metrics["uct_check.self_s"] == 0.0


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, pytest.approx(200 / 3), 1)
    # Too few samples: the upper middle one, never below the median.
    assert run.tail([4.0, 1.0, 3.0, 2.0]) == (3.0, 75.0, 1)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.unit(m["name"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.PLANS)
