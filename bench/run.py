"""The twistedhom benchmark: seeded workloads through ``twistedhom.cli.run``.

Usage, from the root of the repository:

    python3 bench/run.py --workload goeritz-pipeline --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: a job starts only
after the previous one finished. A job is one ``cli.run(JobSpec(...))``
call per stage of the workload's plan, on an input file generated from the
seed in the documented ``.grp`` format, so every stage pays for loading
and parsing it. Every answer is compared with the benchmark's own table.
Job and stage times are reported in refs (see REFERENCE_ITERATIONS) and
in raw seconds. bench/METRICS.md describes every metric.

With ``--trace 0`` the run prints the end-to-end metrics. With
``--trace 1`` it spends half the time untraced and half with the tracer
installed, and prints the per-layer metrics and the tracing overhead. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-ups per run, each side of the timed loop: one burst of set-ups would
# see the machine at only one moment.
SETUP_REPEATS = 4
# A run keeps going past --seconds until it has this many jobs, so that
# the slow workloads still give a median of several samples.
MIN_JOBS = 3
TRACE_MIN_JOBS = 2
TAIL_BEYOND = 10

# Fixed pure-Python work timed before and after every stage. On a shared
# 2-vCPU host the speed drifts by 20% and more over tens of seconds, so raw
# times of runs made a minute apart disagree by more than a useful bound. A stage's
# time divided by the mean of the reference loop's times around it, a
# "ref", cancels most of that drift; raw seconds are printed beside it.
REFERENCE_ITERATIONS = 12_000

# Stages reported by name: (stage, ring) -> base name, as in coh1_s and
# coh1_ref. Only the ones in END_TO_END are in the JSON result; the others
# are printed for the workloads that run them.
STAGE_METRICS = {
    ("coh1", "Z"): "coh1",
    ("coh1", "Z/2"): "coh1_mod2",
    ("h1", "Z"): "h1",
    ("uct", "Z"): "uct",
    ("oracle", "Z"): "oracle",
    ("check", "Z"): "check",
    ("h0", "Z"): "h0",
}
END_TO_END = ("setup_s", "job_ref.p50", "job_ref.tail", "coh1_ref", "coh1_mod2_ref", "h1_ref", "peak_rss_mb")

# Per-layer metric label -> span name recorded by the tracer.
LAYERS = {
    "snf": "exactlinalg.snf",
    "solve_in_lattice": "exactlinalg.solve_in_lattice",
    "kernel_basis": "exactlinalg.kernel_basis",
    "unimodular_inverse": "exactlinalg.unimodular_inverse",
    "cocycle_matrix": "fox.cocycle_matrix",
    "fox_derivative": "fox.fox_derivative",
    "evaluate_word": "representation.evaluate_word",
    "evaluate_group_ring": "representation.evaluate_group_ring",
    "check_relators_trivial": "representation.check_relators_trivial",
    "Representation.build": "Representation.build",
    "change_ring": "representation.change_ring",
    "coinvariants": "homology.coinvariants",
    "h1_cohomology": "homology.h1_cohomology",
    "h1_homology": "homology.h1_homology",
    "kerf_reduction": "homology.kerf_reduction",
    "uct_check": "homology.uct_check",
    "chain_boundaries": "homology.chain_boundaries",
    "brute_force_h1_mod2": "homology.brute_force_h1_mod2",
    "cli.parse_input_file": "cli.parse_input_file",
    "cli.run": "cli.run",
    "words.parse_word": "words.parse_word",
}
PER_LAYER = (
    "snf.calls", "snf.distinct_ratio", "snf.self_s", "snf.cells", "snf.max_rows", "snf.max_cols", "snf.max_bits",
    "solve_in_lattice.calls", "solve_in_lattice.self_s", "kernel_basis.calls", "kernel_basis.self_s",
    "unimodular_inverse.self_s",
    "cocycle_matrix.calls", "cocycle_matrix.self_s", "fox_derivative.calls", "fox_derivative.terms",
    "evaluate_word.calls", "evaluate_word.letters", "evaluate_word.self_s", "evaluate_group_ring.self_s",
    "check_relators_trivial.self_s", "Representation.build.calls", "Representation.build.self_s",
    "change_ring.calls",
    "coinvariants.self_s", "h1_cohomology.self_s", "h1_homology.self_s", "kerf_reduction.self_s",
    "uct_check.self_s", "chain_boundaries.self_s",
    "brute_force_h1_mod2.self_s", "brute_force_h1_mod2.candidates", "brute_force_h1_mod2.candidates_per_s",
    "cli.parse_input_file.self_s", "cli.run.self_s", "words.parse_word.calls", "words.parse_word.letters",
    "trace.overhead",
)
UNITS = {
    "jobs_per_s": "1/s", "peak_rss_mb": "MB", "distinct_ratio": "ratio", "max_bits": "bits",
    "candidates_per_s": "1/s", "overhead": "ratio", "failed_ratio": "ratio", "percentile": "%", "beyond": "count",
}


def unit(metric: str) -> str:
    base = metric.partition(".")[0]
    field = metric.rpartition(".")[2]
    for key in (metric, field):
        if key in UNITS:
            return UNITS[key]
    for key in (field, base):
        if key.endswith("_s"):
            return "s"
        if key.endswith("_ref"):
            return "ref"
    return "count"


def reference_loop() -> float:
    """Seconds taken by REFERENCE_ITERATIONS steps of a fixed integer loop."""
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return perf_counter() - start


def fresh_import():
    """Import the package and the generators from scratch, as a new process would."""
    for name in [n for n in sys.modules if n in ("twistedhom", "workloads") or n.startswith("twistedhom.")]:
        del sys.modules[name]
    importlib.import_module("twistedhom.cli")
    return importlib.import_module("workloads")


def set_up(name: str, seed: int, workdir: Path):
    """Import, generate, write and self-check the inputs, SETUP_REPEATS
    times; the last repetition's modules and files are the ones jobs use."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workloads = fresh_import()
        workload = workloads.build(name, seed)
        paths = []
        for index, text in enumerate(workload.texts()):
            paths.append(workdir / f"{name}-{index}.grp")
            paths[-1].write_text(text, encoding="utf-8")
        workloads.self_check(workload)
        times.append(perf_counter() - start)
    return workload, paths, times


def verdict(table: dict, stage: str, ring: str, status: int, records: list[dict]) -> list[str]:
    """Why one stage's output is wrong; empty when it matches the table."""
    problems = [f"{r['name']}: {r['error']}" for r in records if "error" in r]
    if status != 0:
        problems.append(f"exit status {status}")
    by_name = {r["name"]: r for r in records if "error" not in r}
    if stage not in by_name:
        return problems + [f"{stage}[{ring}]: no result"]
    record = by_name[stage]
    if stage == "check":
        if not record["passed"]:
            problems.append(f"check failed: {record['findings']}")
        return problems
    want = table[(stage, ring)]
    if stage == "uct":
        got = {c["ring"]: c["computed"] for c in record["comparisons"]}
        if got != {k: str(v) for k, v in want.items()} or not record["all_match"]:
            problems.append(f"uct: got {got}")
    elif stage == "oracle":
        got = (record["z1_count"], record["b1_count"], record["h1_count"])
        if got != want:
            problems.append(f"oracle: got {got}, want {want}")
    else:
        for name in (stage, f"{stage}-kerf"):
            if name in by_name and by_name[name]["structure"] != str(want):
                problems.append(f"{name}[{ring}]: got {by_name[name]['structure']}, want {want}")
    return problems


def run_job(workload, path: Path) -> tuple[dict, dict, list[float], list[str]]:
    """One cli.run call per stage of the plan, with the reference loop timed
    before the first stage and after each. Returns each stage's seconds, its
    time in refs, the reference loop's times and what went wrong."""
    cli = sys.modules["twistedhom.cli"]
    parse_ring = sys.modules["twistedhom.representation"].CoefficientRing.parse
    times, refs, problems = {}, {}, []
    probes = [reference_loop()]
    for stage, ring in workload.plan:
        key = (stage, ring or "Z")
        spec = cli.JobSpec(path=str(path), ring=parse_ring(ring) if ring else None, computations=(stage,))
        start = perf_counter()
        try:
            status, records = cli.run(spec)
        except Exception:
            problems.append(f"{stage}[{ring or 'Z'}] raised:\n{traceback.format_exc()}")
            status, records = None, []
        times[key] = perf_counter() - start
        probes.append(reference_loop())
        refs[key] = times[key] / ((probes[-2] + probes[-1]) / 2)
        if status is not None:
            problems += verdict(workload.table, *key, status, records)
    return times, refs, probes, problems


def closed_loop(workload, paths: list[Path], seconds: float, min_jobs: int = MIN_JOBS, tracer=None) -> dict:
    """Run jobs back to back, taking the inputs in turn, for ``seconds`` and
    at least ``min_jobs`` jobs."""
    loop = {"jobs": [], "jobs_ref": [], "stages": defaultdict(list), "stages_ref": defaultdict(list),
            "probes": [], "failures": []}
    jobs = loop["jobs"]
    start = perf_counter()
    while len(jobs) < min_jobs or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.job = len(jobs)
        times, refs, probes, problems = run_job(workload, paths[len(jobs) % len(paths)])
        jobs.append(sum(times.values()))
        loop["jobs_ref"].append(sum(refs.values()))
        for key in times:
            loop["stages"][key].append(times[key])
            loop["stages_ref"][key].append(refs[key])
        loop["probes"] += probes
        if problems:
            loop["failures"].append(problems)
    return loop


def tail(times: list[float]) -> tuple[float, float, int]:
    """Time at the highest percentile with at least TAIL_BEYOND samples beyond
    it, that percentile, and the number beyond; with too few samples, the
    upper middle one."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(loop: dict, setup_times: list[float]) -> tuple[dict, dict]:
    """The BENCHMARK.json metrics and the extra figures printed beside them.

    Job and stage times are given twice: in refs, which the result carries,
    and in raw seconds, which are printed. Jobs per second counts the time
    spent in cli.run only, not the reference loop."""
    jobs = loop["jobs"]
    figures = {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": len(jobs) / sum(jobs),
        "ref_loop_s": statistics.median(loop["probes"]),
    }
    for name, times in (("job_ref", loop["jobs_ref"]), ("job_s", jobs)):
        figures[f"{name}.p50"] = statistics.median(times)
        figures[f"{name}.tail"], percentile, beyond = tail(times)
    figures["job_ref.tail.percentile"], figures["job_ref.tail.beyond"] = percentile, beyond
    for key, name in STAGE_METRICS.items():
        if key in loop["stages"]:
            figures[f"{name}_ref"] = statistics.median(loop["stages_ref"][key])
            figures[f"{name}_s"] = statistics.median(loop["stages"][key])
    figures["jobs"] = len(jobs)
    figures["failed_ratio"] = len(loop["failures"]) / len(jobs)
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {name: figures.pop(name) for name in END_TO_END}
    return metrics, figures


def layer_metrics(spans, untraced_p50: float, traced_p50: float) -> tuple[dict, list]:
    """Per-layer figures per traced job, reported as the median over jobs
    (the largest value for the max_ figures), and the spans with the most
    self time per job, largest first."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.closed - span.start
    per_job = defaultdict(lambda: defaultdict(float))
    distinct = defaultdict(set)
    peaks = defaultdict(int)
    for index, span in enumerate(spans):
        acc = per_job[span.job]
        acc[f"{span.name}.calls"] += 1
        acc[f"{span.name}.self_s"] += span.end - span.start - covered[index]
        for key, value in span.attrs.items():
            if key == "input":
                distinct[span.job].add(value)
            elif key in ("rows", "cols", "bits"):
                peaks[f"{span.name}.max_{key}"] = max(peaks[f"{span.name}.max_{key}"], value)
            else:
                acc[f"{span.name}.{key}"] += value
    snf, brute = LAYERS["snf"], LAYERS["brute_force_h1_mod2"]
    for job, acc in per_job.items():
        acc[f"{snf}.distinct_ratio"] = len(distinct[job]) / acc[f"{snf}.calls"] if acc[f"{snf}.calls"] else 0.0
        self_s = acc[f"{brute}.self_s"]
        acc[f"{brute}.candidates_per_s"] = acc[f"{brute}.candidates"] / self_s if self_s else 0.0
    metrics = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead":
            metrics[metric] = traced_p50 / untraced_p50
            continue
        label, _, field = metric.rpartition(".")
        key = f"{LAYERS[label]}.{field}"
        if field.startswith("max_"):
            metrics[metric] = peaks[key]
        else:
            metrics[metric] = statistics.median(acc.get(key, 0.0) for acc in per_job.values()) if per_job else 0.0
    names = {span.name for span in spans}
    busiest = sorted(
        ((statistics.median(acc.get(f"{name}.self_s", 0.0) for acc in per_job.values()), name) for name in names),
        reverse=True,
    )
    return metrics, busiest


def write_spans(spans, name: str, seed: int) -> Path:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{name}-{seed}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for index, s in enumerate(spans):
            row = {"id": index, "job": s.job, "parent": s.parent, "name": s.name, "start": s.start, "end": s.end}
            row.update(s.attrs)
            handle.write(json.dumps(row) + "\n")
    return path


def report(metrics: dict, extra: dict) -> None:
    for name, value in {**metrics, **extra}.items():
        print(f"{name} = {value:.6g} {unit(name)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "twistedhom" / "__init__.py").is_file():
        print(f"error: no twistedhom package under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(BENCH))
    import tracer as tracing

    with tempfile.TemporaryDirectory(prefix=".inputs-", dir=BENCH) as workdir:
        workload, paths, setup_times = set_up(args.workload, args.seed, Path(workdir))
        tracing.assert_untraced()
        if not args.trace:
            loop = closed_loop(workload, paths, args.seconds)
            tracing.assert_untraced()
            setup_times += set_up(args.workload, args.seed, Path(workdir))[2]
            metrics, extra = end_to_end(loop, setup_times)
            loops = [loop]
        else:
            untraced = closed_loop(workload, paths, args.seconds / 2, TRACE_MIN_JOBS)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                left = tracer.leftover()
                if left:
                    raise RuntimeError(f"tracer missed import sites: {', '.join(left)}")
                traced = closed_loop(workload, paths, args.seconds / 2, TRACE_MIN_JOBS, tracer)
            finally:
                tracer.uninstall()
            tracing.assert_untraced()
            p50 = statistics.median(untraced["jobs_ref"]), statistics.median(traced["jobs_ref"])
            metrics, busiest = layer_metrics(tracer.spans, *p50)
            extra = {"job_ref.p50.untraced": p50[0], "job_ref.p50.traced": p50[1], "spans": len(tracer.spans)}
            print("most self time per job: " + ", ".join(f"{name} {value:.4g} s" for value, name in busiest[:6]))
            print(f"spans written to {write_spans(tracer.spans, args.workload, args.seed).relative_to(ROOT)}")
            loops = [untraced, traced]

    attempted = sum(len(loop["jobs"]) for loop in loops)
    failures = [f for loop in loops for f in loop["failures"]]
    for problems in failures[:3]:
        print("FAILED job: " + "; ".join(problems))
    extra.setdefault("failed_ratio", len(failures) / attempted)
    print(f"workload = {args.workload}, seed = {args.seed}, trace = {args.trace}")
    report(metrics, extra)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
