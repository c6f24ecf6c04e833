"""Command-line front end and the group-description file format.

The input format is UTF-8 and line-oriented; blank lines and lines starting
with '#' are skipped. Every key but relator and relation appears at most
once; "action a" and "expect h1" are keys of their own::

    generators: a b g d           # distinct names, at most MAX_GENERATORS (256)
    relator: a a                  # one relator per line, or:
    relation: a d a = d           # contributes the relator (lhs)(rhs)^-1
    ring: Z                       # or Z/4; a --ring flag overrides this
    rank: 4                       # 1 to MAX_RANK (256)
    action a: [-1 0 0 0; 0 -1 0 0; 0 0 -1 0; 0 0 0 -1]
    form: [...]                   # optional bilinear form to check
    kerf: [...]                   # optional splitting functional
    expect h1: Z/2 + Z/2          # optional: h0, coh1 or h1, or e.g. coh1[Z/2] to pin a ring

The number of generators times the rank, the column count of the cocycle
matrix, is at most MAX_COCYCLE_COLUMNS (1024), and the number of relators
times the rank, its row count, at most MAX_COCYCLE_ROWS (16384). The
relator letters in all, after free reduction, times the cube of the rank,
the work of the Fox walk, are at most MAX_WALK_WORK (2^27). Each cap is an
error on the line that crosses it. Action matrices are written
row by row ('rows separated by ;'); their columns are the images of the
module basis vectors. Every integer (rank, entry, exponent, modulus,
order) is an optional '-' and at most MAX_INPUT_DIGITS (40) ASCII decimal
digits; a modulus or an order takes no '-'. A rejected line, the library's
own checks included, is reported as "line N: <reason>".
Every result record states its own verdict, and the exit status is 0
exactly when no record reports an error, a failed check or a mismatch. An
oracle that declines an input past its bounds gives a record that says
"skipped", with its reason and no verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .exactlinalg import AbelianGroupStructure, IntMatrix, _read_integer
from .goeritzdata import NamedExample, builtin_example
from .homology import (
    OracleRefusal,
    brute_force_h1_mod2,
    checked_cochains,
    coinvariants,
    h1_cohomology,
    h1_homology,
    kerf_reduction,
    uct_check,
)
from .presentation import Presentation, from_equations, validate
from .representation import (
    ActionError,
    CoefficientRing,
    Representation,
    change_ring,
    check_bilinear_form_preserved,
    check_relators_trivial,
)
from .words import MAX_WORD_LETTERS, Generator, parse_word, word_to_text

COMPUTATION_ORDER = ("check", "h0", "coh1", "h1", "uct", "oracle")
UCT_MODULI = (2, 3, 4, 8)
# An input with no generators still builds the rank x rank identity, so the
# rank alone sets the size of the work; no shipped input goes past 8.
MAX_RANK = 256
# The cocycle matrix has rank columns per generator; no shipped input has more than 8.
MAX_GENERATORS = 256
# Columns of the cocycle matrix J, generators * rank. h1_cohomology over Z
# with identity actions of rank 32 and one commutator relator took 0.2 s
# and 28 MB of peak RSS at 576 columns, 0.4 s and 57 MB at 1024 and 1.0 s
# and 115 MB at 1600 (Python 3.11, 2 vCPUs), mostly in products with the
# dense square U and V of the lattice solve and the kernel basis. The cap
# admits the genus-16 chain (32 x 32); the largest shipped or generated
# input has 400 columns.
MAX_COCYCLE_COLUMNS = 1024
# Rows of J, relators * rank. J is held as its nonzero rows, so its rows
# cost little by themselves: h1_cohomology over Z with identity actions of
# rank 32 and commutator relators at 1024 columns took 0.4 s and 57 MB of
# peak RSS at 4096 rows and 0.6 s and 59 MB at 15872 (Python 3.11, 2
# vCPUs; 4.2 s and 292 MB at 15872 while J was dense). The cap admits the
# genus-16 chain (496 x 32 = 15872); the largest shipped or generated
# input has 3800 rows.
MAX_COCYCLE_ROWS = 16384
# Relator letters after free reduction times rank^3: the Fox walk makes one
# rank x rank product per letter, and the parser has not read the actions,
# so a dense action is assumed. One product mod 2 of a 0/1 prefix by a
# dense +-1 factor took 0.61 / 4.5 / 38 ms at rank 32 / 64 / 128, about
# 18 ns x rank^3 (Python 3.11, 2 vCPUs), so the cap bounds one walk at
# about 2.4 s. It admits the genus-16 chain (2046 letters x 32^3, about
# 67M) and e2 with one more relator at MAX_WORD_LETTERS (10029 x 4^3).
MAX_WALK_WORK = 1 << 27


class InputFormatError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class JobSpec:
    """One run: an input source, a coefficient ring and computations to do."""

    path: str | None = None
    example: str | None = None
    ring: CoefficientRing | None = None
    computations: tuple[str, ...] = ("check", "h0", "coh1", "h1")


def _parse_matrix(text: str) -> IntMatrix:
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("matrix must be enclosed in [ ]")
    rows = []
    for chunk in text[1:-1].split(";"):
        row = [_read_integer(tok) for tok in chunk.split()]
        if None in row:
            raise ValueError(f"bad matrix entry in {chunk.strip()!r}")
        rows.append(row)
    return IntMatrix.from_rows(rows)


def _format_matrix(matrix: IntMatrix) -> str:
    rows = ["  ".join(str(x) for x in matrix.row(i)) for i in range(matrix.rows)]
    return "[" + ";  ".join(rows) + "]"


def _expect_name(text: str) -> str:
    """Canonical form of an expect name: h0, coh1 or h1, optionally followed
    by [ring] for any ring CoefficientRing.parse accepts."""
    if not text:
        raise ValueError("expect needs a result name")
    name, bracket, ring = text.partition("[")
    if name not in ("h0", "coh1", "h1") or (bracket and not ring.endswith("]")):
        raise ValueError(f"unknown result {text!r} (expected h0, coh1 or h1, optionally followed by [ring])")
    return f"{name}[{CoefficientRing.parse(ring[:-1])}]" if bracket else name


def parse_input_file(text: str) -> NamedExample:
    """Parse the documented format into a NamedExample named "".

    Raises InputFormatError with a line number for syntax problems, a
    repeated key or generator name, a rank outside 1..MAX_RANK, more than
    MAX_GENERATORS generators, more than MAX_COCYCLE_COLUMNS generators *
    rank, MAX_COCYCLE_ROWS relators * rank or MAX_WALK_WORK relator letters
    * rank^3 (on the line that crosses the cap, before any action is
    inverted), a relator of more than MAX_WORD_LETTERS letters, a bad
    expect name, a form that is not rank x rank, a kerf that is not
    rank x (generators * rank), and any value the library rejects.
    """
    generators: tuple[Generator, ...] | None = None
    names: set[str] = set()
    relators = []
    letters = 0
    ring = CoefficientRing.integers()
    rank: int | None = None
    actions: dict[str, IntMatrix] = {}
    form = kerf = None
    expected: dict[str, AbelianGroupStructure] = {}
    first_line: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()  # '#' cannot occur in any value
        if not line:
            continue
        try:
            key, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"expected 'key: value', got {line!r}")
            key, value = key.strip(), value.strip()
            parts = key.split() or [""]
            if parts[0] == "expect":
                name = _expect_name(key[len("expect") :].strip())
                canonical = f"expect {name}"
            else:
                canonical = " ".join(parts)
            if key not in ("relator", "relation"):
                if canonical in first_line:
                    raise ValueError(f"repeated {canonical!r} line (first on line {first_line[canonical]})")
                first_line[canonical] = lineno

            if key == "generators":
                tokens = value.split()
                if len(tokens) > MAX_GENERATORS:
                    raise ValueError(f"{len(tokens)} generators exceed the limit of {MAX_GENERATORS}")
                generators = tuple(Generator(tok) for tok in tokens)
                names = {g.name for g in generators}
                if len(names) != len(generators):
                    repeated = next(tok for i, tok in enumerate(tokens) if tok in tokens[:i])
                    raise ValueError(f"generator {repeated!r} is declared twice")
            elif key in ("relator", "relation"):
                if generators is None:
                    raise ValueError("generators must be declared first")
                if key == "relator":
                    relators.append(parse_word(value, generators))
                else:
                    lhs_text, eq, rhs_text = value.partition("=")
                    if not eq:
                        raise ValueError("relation needs 'lhs = rhs'")
                    pair = (parse_word(lhs_text, generators), parse_word(rhs_text, generators))
                    relators.append(from_equations(generators, [pair]).relators[0])
                if len(relators[-1].letters) > MAX_WORD_LETTERS:
                    raise ValueError(f"relator exceeds the limit of {MAX_WORD_LETTERS} letters")
                letters += len(relators[-1].letters)
            elif key == "ring":
                ring = CoefficientRing.parse(value)
            elif key == "rank":
                rank = _read_integer(value)
                if rank is None:
                    raise ValueError(f"bad rank {value!r}")
                if not 1 <= rank <= MAX_RANK:
                    raise ValueError(f"rank {rank} is outside 1..{MAX_RANK}")
            elif parts[0] == "action":
                if len(parts) != 2:
                    raise ValueError("action needs a generator name")
                if parts[1] not in names:
                    raise ValueError(f"action for undeclared generator {parts[1]!r}")
                actions[parts[1]] = _parse_matrix(value)
            elif key == "form":
                form = _parse_matrix(value)
            elif key == "kerf":
                kerf = _parse_matrix(value)
            elif parts[0] == "expect":
                expected[name] = AbelianGroupStructure.parse(value)
            else:
                raise ValueError(f"unknown key {key!r}")
            columns = len(generators or ()) * (rank or 0)
            if columns > MAX_COCYCLE_COLUMNS:
                raise ValueError(
                    f"{len(generators)} generators x rank {rank} = {columns} cocycle columns"
                    f" exceed the limit of {MAX_COCYCLE_COLUMNS}"
                )
            rows = len(relators) * (rank or 0)
            if rows > MAX_COCYCLE_ROWS:
                raise ValueError(
                    f"{len(relators)} relators x rank {rank} = {rows} cocycle rows"
                    f" exceed the limit of {MAX_COCYCLE_ROWS}"
                )
            work = letters * (rank or 0) ** 3
            if work > MAX_WALK_WORK:
                raise ValueError(
                    f"{letters} relator letters x rank {rank}^3 = {work} exceed the Fox walk limit of {MAX_WALK_WORK}"
                )
        except ValueError as exc:
            raise InputFormatError(str(exc), lineno) from None

    last = len(text.splitlines()) or 1
    if generators is None:
        raise InputFormatError("missing 'generators:' line", last)
    if rank is None:
        raise InputFormatError("missing 'rank:' line", last)
    for gen in generators:
        if gen.name not in actions:
            raise InputFormatError(f"missing action for generator {gen.name!r}", last)
    try:
        representation = Representation.build(ring, generators, [actions[g.name] for g in generators], rank=rank)
    except ActionError as exc:
        raise InputFormatError(str(exc), first_line[f"action {exc.generator}"]) from None
    for key, matrix, cols in (("form", form, rank), ("kerf", kerf, len(generators) * rank)):
        if matrix is not None and (matrix.rows, matrix.cols) != (rank, cols):
            shape = f"{matrix.rows}x{matrix.cols}, expected {rank}x{cols}"
            raise InputFormatError(f"{key} is {shape}", first_line[key])
    presentation = Presentation(generators, tuple(relators))
    return NamedExample("", presentation, representation, form, kerf, expected)


def example_to_text(example: NamedExample) -> str:
    """Serialize a NamedExample in the input file format (round-trips)."""
    p, rep = example.presentation, example.representation
    lines = [f"# {example.name}", "generators: " + " ".join(g.name for g in p.generators)]
    lines.extend(f"relator: {word_to_text(r)}" for r in p.relators)
    lines.append(f"ring: {rep.ring}")
    lines.append(f"rank: {rep.rank}")
    for gen, matrix in zip(rep.alphabet, rep.matrices):
        lines.append(f"action {gen.name}: {_format_matrix(matrix)}")
    if example.form is not None:
        lines.append(f"form: {_format_matrix(example.form)}")
    if example.kerf is not None:
        lines.append(f"kerf: {_format_matrix(example.kerf)}")
    for name in sorted(example.expected):
        lines.append(f"expect {name}: {example.expected[name]}")
    return "\n".join(lines) + "\n"


def _load(job: JobSpec) -> NamedExample:
    if (job.path is None) == (job.example is None):
        raise ValueError("exactly one of an input path or --example is required")
    if job.example is not None:
        return builtin_example(job.example)
    with open(job.path, encoding="utf-8") as handle:
        return parse_input_file(handle.read())


def _structure_record(name, ring, structure, witnesses=(), expected=None):
    record = {
        "name": name,
        "ring": str(ring),
        "free_rank": structure.free_rank,
        "torsion": list(structure.torsion),
        "structure": str(structure),
        "witnesses": [list(w) for w in witnesses],
    }
    if expected is not None:
        record["expected"] = str(expected)
        record["match"] = structure == expected
    return record


def _failed(record) -> bool:
    """A record fails when it carries an error or a false verdict."""
    return "error" in record or any(record.get(key) is False for key in ("passed", "match", "all_match"))


def run(job: JobSpec) -> tuple[int, list[dict]]:
    """Execute the selected computations in a fixed order.

    Returns the exit status and one self-describing record per computation,
    then a summary. A record fails when it has an error or its passed, match
    or all_match is false; the coh1-kerf record is matched against coh1's
    structure. The oracle record has a verdict too when H^1 over Z/2 is
    known: its h1_count is matched against the order of this run's coh1
    when the ring is Z/2, else of the file's "expect coh1[Z/2]". The summary
    lists the failed records in order, and the status is 1 when there is
    one, else 0. An oracle refusal (OracleRefusal) is not a failure: its
    record says "skipped" and gives the reason.
    """
    if isinstance(job.computations, str):
        raise ValueError(f"computations must be a tuple of names, not the string {job.computations!r}")
    if not job.computations:
        raise ValueError("at least one computation must be selected")
    unknown = set(job.computations) - set(COMPUTATION_ORDER)
    if unknown:
        raise ValueError(f"unknown computations: {', '.join(sorted(unknown))}")
    data = _load(job)
    ring = job.ring if job.ring is not None else data.representation.ring
    rep = change_ring(data.representation, ring)
    p = data.presentation
    records: list[dict] = []
    coh1_mod2 = data.expected.get("coh1[Z/2]")

    def expected(name):
        return data.expected.get(f"{name}[{ring}]", data.expected.get(name))

    for computation in COMPUTATION_ORDER:
        if computation not in job.computations:
            continue
        try:
            if computation == "check":
                diagnostics = [("presentation", d) for d in validate(p)]
                diagnostics += [("action", d) for d in check_relators_trivial(rep, p)]
                if data.form is not None:
                    diagnostics += [("form", d) for d in check_bilinear_form_preserved(rep, data.form)]
                findings = [f"{d.severity}: {where}: {d.message}" for where, d in diagnostics]
                passed = not any(d.severity == "error" for _, d in diagnostics)
                records.append({"name": "check", "ring": str(ring), "passed": passed, "findings": findings})
            elif computation == "h0":
                records.append(_structure_record("h0", ring, coinvariants(rep), expected=expected("h0")))
            elif computation == "coh1":
                cochains = checked_cochains(p, rep)
                result = h1_cohomology(p, rep, cochains=cochains)
                records.append(_structure_record("coh1", ring, result.h1, result.witnesses, expected("coh1")))
                if ring.modulus == 2:
                    coh1_mod2 = result.h1
                if data.kerf is not None:
                    try:
                        fast = kerf_reduction(p, rep, data.kerf, cochains=cochains)
                    except ValueError as exc:
                        records.append({"name": "coh1-kerf", "error": str(exc)})
                    else:
                        records.append(_structure_record("coh1-kerf", ring, fast.h1, fast.witnesses, result.h1))
            elif computation == "h1":
                records.append(_structure_record("h1", ring, h1_homology(p, rep), expected=expected("h1")))
            elif computation == "uct":
                comparisons = uct_check(p, data.representation, UCT_MODULI)
                records.append(
                    {
                        "name": "uct",
                        "ring": str(data.representation.ring),
                        "all_match": all(c.match for c in comparisons),
                        "comparisons": [
                            {
                                "ring": str(c.ring),
                                "computed": str(c.computed),
                                "expected": str(c.expected),
                                "match": c.match,
                            }
                            for c in comparisons
                        ],
                    }
                )
            elif computation == "oracle":
                try:
                    counts = brute_force_h1_mod2(p, data.representation)
                except OracleRefusal as exc:
                    record = {"name": "oracle", "ring": "Z/2", "skipped": str(exc)}
                else:
                    record = {"name": "oracle", "ring": "Z/2", **counts._asdict()}
                    if coh1_mod2 is not None:
                        record["expected"] = str(coh1_mod2)
                        record["match"] = counts.h1_count == coh1_mod2.order()
                records.append(record)
        except ValueError as exc:
            records.append({"name": computation, "error": str(exc)})

    failed = [record["name"] for record in records if _failed(record)]
    status = 1 if failed else 0
    records.append({"name": "summary", "exit_status": status, "failed_stages": failed})
    return status, records


_TEXT_LABEL = {"h0": "H_0", "coh1": "H^1", "coh1-kerf": "H^1 (ker-f path)", "h1": "H_1"}


def _verdict_text(record) -> str:
    if "match" not in record:
        return ""
    return "  [expected {}: {}]".format(record["expected"], "ok" if record["match"] else "MISMATCH")


def render_text(records) -> str:
    lines = []
    for record in records:
        name = record["name"]
        if "error" in record:
            lines.append(f"{name}: ERROR: {record['error']}")
        elif name == "check":
            lines.append("check: ok" if record["passed"] else "check: FAILED")
            lines.extend(f"  {finding}" for finding in record["findings"])
        elif name in _TEXT_LABEL:
            lines.append(f"{_TEXT_LABEL[name]} = {record['structure']}" + _verdict_text(record))
        elif name == "uct":
            lines.append("uct: " + ("ok" if record["all_match"] else "FAILED"))
            for c in record["comparisons"]:
                verdict = "ok" if c["match"] else "MISMATCH"
                lines.append(f"  {c['ring']}: computed {c['computed']}, expected {c['expected']} ({verdict})")
        elif name == "oracle" and "skipped" in record:
            lines.append(f"oracle (mod 2): skipped: {record['skipped']}")
        elif name == "oracle":
            line = "oracle (mod 2): z1={z1_count} b1={b1_count} h1={h1_count}".format(**record)
            lines.append(line + _verdict_text(record))
        elif name == "summary":
            if record["failed_stages"]:
                lines.append("FAILED stages: " + ", ".join(record["failed_stages"]))
            else:
                lines.append("ok")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twistedhom",
        description="Twisted first (co)homology of finitely presented groups, exactly.",
    )
    parser.add_argument("path", nargs="?", help="input file in the documented format")
    parser.add_argument("--example", help="name of a built-in example (e.g. e2)")
    parser.add_argument("--ring", help="coefficient ring override: Z or Z/n")
    parser.add_argument(
        "--compute",
        help="comma-separated subset of: " + ", ".join(COMPUTATION_ORDER),
    )
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    parser.add_argument("--check", action="store_true", help="run diagnostics only")
    args = parser.parse_args(argv)

    try:
        ring = CoefficientRing.parse(args.ring) if args.ring else None
        computations = JobSpec.computations
        if args.check:
            computations = ("check",)
        elif args.compute is not None:
            computations = tuple(args.compute.replace(",", " ").split())
        job = JobSpec(args.path, args.example, ring, computations)
        status, records = run(job)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "structured":
        for record in records:
            print(json.dumps(record, sort_keys=True))
    else:
        print(render_text(records))
    return status


if __name__ == "__main__":
    sys.exit(main())
