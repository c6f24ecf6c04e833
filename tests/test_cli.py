import dataclasses
import json
import re
from pathlib import Path

import pytest

from twistedhom import (
    AbelianGroupStructure,
    CoefficientRing,
    IntMatrix,
    builtin_examples,
    change_ring,
    goeritz_e2,
    h1_cohomology,
    kerf_reduction,
)
from twistedhom import cli, homology
from twistedhom.cli import (
    MAX_COCYCLE_COLUMNS,
    MAX_COCYCLE_ROWS,
    MAX_GENERATORS,
    MAX_RANK,
    MAX_WALK_WORK,
    InputFormatError,
    JobSpec,
    example_to_text,
    main,
    parse_input_file,
    render_text,
    run,
)
from twistedhom.exactlinalg import MAX_INPUT_DIGITS
from twistedhom.homology import UctComparison
from twistedhom.words import MAX_WORD_LETTERS

from support import chain_example, count_calls

DEMOS = Path(__file__).resolve().parents[1] / "demos"
E2_TEXT = example_to_text(goeritz_e2())

SMALL = """\
generators: a
relator: a a
ring: Z
rank: 1
action a: [-1]
"""

# Spellings that no site reads as an integer, each rejected with the site's
# own message on its line.
NOT_INTEGERS = {
    "plus": "+1",
    "underscore": "1_0",
    "arabic-indic": "\u0663",
    "fullwidth": "\uff15",
    "double-minus": "--1",
    "minus": "-",
    "exponent": "1e3",
    "hex": "0x10",
    "41-digits": "9" * (MAX_INPUT_DIGITS + 1),
    "minus-41-digits": "-" + "9" * (MAX_INPUT_DIGITS + 1),
}


class TestParseInputFile:
    @pytest.mark.parametrize("name", sorted(builtin_examples()))
    def test_round_trip_objects(self, name):
        ex = builtin_examples()[name]
        assert parse_input_file(example_to_text(ex)) == dataclasses.replace(ex, name="")

    def test_matrices_are_built_from_the_checked_entries(self, monkeypatch):
        # Every entry is checked once, as it is read, and each matrix is
        # built from those ints as they are: e2's four actions, its form
        # and its kerf make no public IntMatrix construction, which would
        # convert every entry again.
        built = []
        init = IntMatrix.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(IntMatrix, "__init__", counting)
        example = parse_input_file((DEMOS / "e2.grp").read_text(encoding="utf-8"))
        assert len(example.representation.matrices) == 4
        assert example.form is not None and example.kerf is not None
        assert built == []
        assert example == dataclasses.replace(goeritz_e2(), name="")

    def test_dimension_mismatch_names_line(self):
        text = SMALL.replace("action a: [-1]", "action a: [-1 0; 0 1; 1 1]")
        with pytest.raises(InputFormatError) as err:
            parse_input_file(text)
        assert "3x2" in str(err.value) and err.value.line == 5

    def test_undeclared_generator_in_relator(self):
        text = SMALL.replace("relator: a a", "relator: a q")
        with pytest.raises(InputFormatError, match="unknown generator 'q'"):
            parse_input_file(text)

    def test_non_invertible_action(self):
        with pytest.raises(InputFormatError, match="not invertible") as err:
            parse_input_file(SMALL.replace("[-1]", "[2]"))
        assert err.value.line == 5
        # The rejected action's own line, not the first action's.
        text = "generators: a b\nring: Z\nrank: 1\naction b: [2]\naction a: [1]\n"
        with pytest.raises(InputFormatError, match="'b' is not invertible") as err:
            parse_input_file(text)
        assert err.value.line == 4

    def test_exponent_over_the_cap_names_line(self):
        with pytest.raises(InputFormatError, match="exceeds the limit") as err:
            parse_input_file(SMALL.replace("relator: a a", "relator: a^1000000000"))
        assert err.value.line == 2

    def test_word_over_the_letter_cap_names_line(self):
        part = MAX_WORD_LETTERS * 3 // 5
        text = SMALL.replace("relator: a a", f"relator: a a\nrelator: a^{part} a^{part}")
        with pytest.raises(InputFormatError, match="token 1: word exceeds the limit") as err:
            parse_input_file(text)
        assert err.value.line == 3
        with pytest.raises(InputFormatError, match="word exceeds the limit") as err:
            parse_input_file(SMALL.replace("relator: a a", f"relation: a = a^{part} a^{part}"))
        assert err.value.line == 2

    def test_relator_of_a_relation_over_the_letter_cap_names_line(self):
        def text(part):
            return f"generators: a b\nrelator: a a\nrelation: a^{part} = b^{part}\nrank: 1\naction a: [1]\naction b: [1]\n"

        message = f"relator exceeds the limit of {MAX_WORD_LETTERS} letters"
        with pytest.raises(InputFormatError, match=message) as err:
            parse_input_file(text(MAX_WORD_LETTERS * 3 // 5))
        assert err.value.line == 3
        parsed = parse_input_file(text(MAX_WORD_LETTERS // 2))
        assert len(parsed.presentation.relators[1]) == MAX_WORD_LETTERS == 10_000

    def test_generator_count_over_the_cap_names_line(self):
        def text(count):
            names = [f"g{i}" for i in range(count)]
            actions = "".join(f"action {name}: [1]\n" for name in names)
            return "# header\ngenerators: " + " ".join(names) + "\nrank: 1\n" + actions

        with pytest.raises(InputFormatError, match=f"{MAX_GENERATORS + 1} generators exceed the limit") as err:
            parse_input_file(text(MAX_GENERATORS + 1))
        assert err.value.line == 2
        parsed = parse_input_file(text(MAX_GENERATORS))
        assert len(parsed.presentation.generators) == MAX_GENERATORS == 256

    def test_cocycle_columns_at_the_cap_parse(self):
        names = [f"g{i}" for i in range(MAX_GENERATORS)]
        actions = "".join(f"action {name}: [1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1]\n" for name in names)
        parsed = parse_input_file("generators: " + " ".join(names) + "\nrank: 4\n" + actions)
        rep = parsed.representation
        assert len(rep.matrices) * rep.rank == MAX_COCYCLE_COLUMNS == 1024

    @pytest.mark.parametrize("rank_first", [False, True], ids=["generators-first", "rank-first"])
    def test_cocycle_columns_over_the_cap_name_the_completing_line(self, rank_first):
        # 41 * 25 = 1025 columns, completed on the last line. With the
        # generators first, g0's singular action comes before it, so the
        # error is raised before any action is inverted.
        generators = "generators: " + " ".join(f"g{i}" for i in range(41))
        lines = ["rank: 25", "ring: Z", generators] if rank_first else [generators, "action g0: [0]", "ring: Z", "rank: 25"]
        message = f"^line {len(lines)}: 41 generators x rank 25 = 1025 cocycle columns exceed the limit of {MAX_COCYCLE_COLUMNS}$"
        with pytest.raises(InputFormatError, match=message):
            parse_input_file("\n".join(lines) + "\naction g1: [1]\n")

    def test_cocycle_rows_at_the_cap_parse(self):
        relators = "relator: a a\n" * MAX_COCYCLE_ROWS
        parsed = parse_input_file("generators: a\nrank: 1\n" + relators + "action a: [-1]\n")
        rows = len(parsed.presentation.relators) * parsed.representation.rank
        assert rows == MAX_COCYCLE_ROWS == 16384

    @pytest.mark.parametrize("rank_first", [True, False], ids=["rank-first", "relators-first"])
    def test_cocycle_rows_over_the_cap_name_the_crossing_line(self, rank_first):
        # One row over: 16385 relators x rank 1, crossed by the last relator
        # line or by the rank line after all relators. a's singular action
        # comes first, so the error is raised before any action is inverted.
        relators = ["relator: a a"] * (MAX_COCYCLE_ROWS + 1)
        head = ["generators: a", "action a: [0]"]
        lines = head + (["rank: 1"] + relators if rank_first else relators + ["rank: 1"])
        count = MAX_COCYCLE_ROWS + 1
        message = f"^line {len(lines)}: {count} relators x rank 1 = {count} cocycle rows exceed the limit of {MAX_COCYCLE_ROWS}$"
        with pytest.raises(InputFormatError, match=message):
            parse_input_file("\n".join(lines) + "\n")

    def test_walk_work_at_the_cap_parses(self):
        # 4096 letters after free reduction x 32^3 is the cap itself.
        identity = "[" + "; ".join(" ".join(str(int(i == j)) for j in range(32)) for i in range(32)) + "]"
        parsed = parse_input_file(f"generators: a\nrank: 32\nrelator: a^4097 a^-1\naction a: {identity}\n")
        letters = sum(len(r) for r in parsed.presentation.relators)
        assert letters * parsed.representation.rank ** 3 == MAX_WALK_WORK == 1 << 27

    @pytest.mark.parametrize("rank_first", [True, False], ids=["rank-first", "relators-first"])
    def test_walk_work_over_the_cap_names_the_crossing_line(self, rank_first):
        # 2 + 4095 = 4097 letters at rank 32, one letter over, crossed by the
        # relation line or by the rank line after both relators. a's singular
        # action comes first, so the error is raised before any action is
        # inverted.
        relators = ["relator: a a", "relation: a^4000 = a^-95"]
        head = ["generators: a", "action a: [0]"]
        lines = head + (["rank: 32"] + relators if rank_first else relators + ["rank: 32"])
        work = 4097 * 32**3
        message = f"^line {len(lines)}: 4097 relator letters x rank 32\\^3 = {work} exceed the Fox walk limit of {MAX_WALK_WORK}$"
        with pytest.raises(InputFormatError, match=message):
            parse_input_file("\n".join(lines) + "\n")

    def test_relation_lines(self):
        text = "generators: a b\nrelation: a b = b a\nring: Z\nrank: 1\naction a: [1]\naction b: [1]\n"
        parsed = parse_input_file(text)
        assert len(parsed.presentation.relators) == 1
        assert len(parsed.presentation.relators[0]) == 4

    def test_unknown_key(self):
        with pytest.raises(InputFormatError, match="unknown key"):
            parse_input_file(SMALL + "colour: red\n")

    def test_missing_rank(self):
        text = "generators: a\naction a: [1]\n"
        with pytest.raises(InputFormatError, match="rank"):
            parse_input_file(text)

    def test_rank_outside_the_bounds_names_line(self):
        for rank in ("0", "-3", str(MAX_RANK + 1), "100000"):
            text = "generators:\nring: Z\nrank: " + rank + "\n"
            with pytest.raises(InputFormatError, match=f"rank {rank} is outside") as err:
                parse_input_file(text)
            assert err.value.line == 3
        with pytest.raises(InputFormatError, match="rank 0 is outside") as err:
            parse_input_file(SMALL.replace("rank: 1", "rank: 0"))
        assert err.value.line == 4
        parsed = parse_input_file(f"generators:\nrank: {MAX_RANK}\n")
        assert parsed.representation.rank == MAX_RANK

    def test_missing_action(self):
        text = "generators: a b\nring: Z\nrank: 1\naction a: [1]\n"
        with pytest.raises(InputFormatError, match="missing action"):
            parse_input_file(text)

    def test_expect_lines(self):
        parsed = parse_input_file(SMALL + "expect coh1[Z]: Z/2\nexpect h0: Z/2\n")
        assert parsed.expected["coh1[Z]"] == AbelianGroupStructure(0, (2,))
        assert parsed.expected["h0"] == AbelianGroupStructure(0, (2,))

    @pytest.mark.parametrize(
        "text, fragment, line",
        [
            (SMALL.replace("[-1]", "-1"), "matrix must be enclosed in [ ]", 5),
            (SMALL.replace("[-1]", "[1 x]"), "bad matrix entry in '1 x'", 5),
            (SMALL.replace("[-1]", "[1 0; 1]"), "matrix rows have unequal lengths", 5),
            (SMALL + "kerf: [1; 1 2]\n", "matrix rows have unequal lengths", 6),
            (SMALL + "rank 1\n", "expected 'key: value', got 'rank 1'", 6),
            ("generators: a 1a\n", "invalid generator name '1a'", 1),
            ("relator: a\ngenerators: a\n", "generators must be declared first", 1),
            (SMALL + "relation: a a\n", "relation needs 'lhs = rhs'", 6),
            (SMALL.replace("ring: Z", "ring: Q"), "cannot parse ring 'Q' (expected Z or Z/n)", 3),
            (SMALL.replace("ring: Z", "ring: Z/1"), "modulus must be 0 (for Z) or an integer >= 2", 3),
            (SMALL + "action: [1]\n", "action needs a generator name", 6),
            (SMALL + "action q: [1]\n", "action for undeclared generator 'q'", 6),
            (SMALL + "expect: 0\n", "expect needs a result name", 6),
            (SMALL + "expect h1: Q\n", "cannot parse group summand 'Q' in 'Q'", 6),
            (SMALL + "expect h1: Z^-3 + Z/2\n", "cannot parse group summand 'Z^-3' in 'Z^-3 + Z/2'", 6),
            (SMALL + "expect h0: Z/x\n", "cannot parse group summand 'Z/x' in 'Z/x'", 6),
            (SMALL.replace("ring: Z", "ring: Z/x"), "cannot parse ring 'Z/x' (expected Z or Z/n)", 3),
            (SMALL.replace("ring: Z", "ring: Z/1_0"), "cannot parse ring 'Z/1_0' (expected Z or Z/n)", 3),
            (SMALL + "expect h1: Z/1_0\n", "cannot parse group summand 'Z/1_0' in 'Z/1_0'", 6),
            (SMALL + "form: []\n", "form is 1x0, expected 1x1", 6),
            (SMALL + "form: [1 0; 0 1]\n", "form is 2x2, expected 1x1", 6),
            (SMALL + "kerf: []\n", "kerf is 1x0, expected 1x1", 6),
            (SMALL + "kerf: [1 0]\n# trailer\n", "kerf is 1x2, expected 1x1", 6),
            (
                "generators: a b\nkerf: [1 0; 0 1]\nrank: 2\naction a: [1 0; 0 1]\naction b: [1 0; 0 1]\n",
                "kerf is 2x2, expected 2x4",
                2,
            ),
            # The actions are built first, so a bad action is reported before a bad kerf.
            (
                SMALL.replace("[-1]", "[2]") + "kerf: []\n",
                "action matrix for 'a' is not invertible: |det| = 2 is not a unit over Z",
                5,
            ),
            ("# header\nrank: 1\n", "missing 'generators:' line", 2),
            ("", "missing 'generators:' line", 1),
        ],
    )
    def test_each_rejection_names_its_line(self, text, fragment, line):
        with pytest.raises(InputFormatError) as err:
            parse_input_file(text)
        assert str(err.value) == f"line {line}: {fragment}"
        assert err.value.line == line

    @pytest.mark.parametrize("spelling", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
    @pytest.mark.parametrize(
        "site, line, message",
        [
            pytest.param(lambda x: SMALL.replace("rank: 1", f"rank: {x}"), 4, "bad rank {!r}", id="rank"),
            pytest.param(lambda x: SMALL.replace("[-1]", f"[0 {x}]"), 5, "bad matrix entry in '0 {}'", id="action"),
            pytest.param(lambda x: SMALL + f"form: [1; {x}]\n", 6, "bad matrix entry in {!r}", id="form"),
            pytest.param(lambda x: SMALL + f"kerf: [{x} 1]\n", 6, "bad matrix entry in '{} 1'", id="kerf"),
            pytest.param(
                lambda x: SMALL.replace("relator: a a", f"relator: a a^{x}"),
                2,
                "token 1: malformed exponent {!r}",
                id="relator",
            ),
            pytest.param(
                lambda x: SMALL.replace("relator: a a", f"relation: a^{x} = a"),
                2,
                "token 0: malformed exponent {!r}",
                id="relation",
            ),
            pytest.param(
                lambda x: SMALL.replace("ring: Z", f"ring: Z/{x}"),
                3,
                "cannot parse ring 'Z/{}' (expected Z or Z/n)",
                id="ring",
            ),
            pytest.param(
                lambda x: SMALL + f"expect h1[Z/{x}]: 0\n",
                6,
                "cannot parse ring 'Z/{}' (expected Z or Z/n)",
                id="expect-ring",
            ),
        ],
    )
    def test_one_integer_rule_at_every_site(self, spelling, site, line, message):
        with pytest.raises(InputFormatError) as err:
            parse_input_file(site(spelling))
        assert str(err.value) == f"line {line}: " + message.format(spelling)
        assert err.value.line == line

    @pytest.mark.parametrize("spelling", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
    def test_one_integer_rule_in_an_expect_value(self, spelling):
        value = f"Z + Z/{spelling}"
        with pytest.raises(InputFormatError) as err:
            parse_input_file(SMALL + f"expect h1: {value}\n")
        # The message names the rejected Z/ summand and the whole value.
        assert re.fullmatch(f"line 6: cannot parse group summand 'Z/[^']*' in {re.escape(repr(value))}", str(err.value))
        assert err.value.line == 6

    @pytest.mark.parametrize(
        "spelling, value",
        [("-1", -1), ("0", 0), ("007", 7), ("-12", -12), ("9" * MAX_INPUT_DIGITS, 10**MAX_INPUT_DIGITS - 1)],
        ids=["-1", "0", "007", "-12", "40-digits"],
    )
    def test_integers_keep_their_values(self, spelling, value):
        parsed = parse_input_file(SMALL + f"form: [{spelling}]\nkerf: [{spelling}]\n")
        assert parsed.form == parsed.kerf == IntMatrix.from_rows([[value]])
        rank_text = f"generators:\nrank: {spelling}\n"
        if 1 <= value <= MAX_RANK:
            assert parse_input_file(rank_text).representation.rank == value
        else:
            with pytest.raises(InputFormatError, match=f"^line 2: rank {value} is outside 1..{MAX_RANK}$"):
                parse_input_file(rank_text)
        relator_text = SMALL + f"relator: a^{spelling}\n"
        if value == 0 or abs(value) > MAX_WORD_LETTERS:
            with pytest.raises(InputFormatError, match="^line 6: token 0: (zero exponent|word exceeds the limit)"):
                parse_input_file(relator_text)
        else:
            relator = parse_input_file(relator_text).presentation.relators[-1]
            assert relator.letters == ((0, 1 if value > 0 else -1),) * abs(value)
        ring_text = SMALL.replace("ring: Z", f"ring: Z/{spelling}") + f"expect h1[Z/{spelling}]: Z/{spelling}\n"
        if value < 0:
            with pytest.raises(InputFormatError, match=f"^line 3: cannot parse ring 'Z/{spelling}'"):
                parse_input_file(ring_text)
        else:
            parsed = parse_input_file(ring_text)
            assert parsed.representation.ring == CoefficientRing(value)
            expected = AbelianGroupStructure.from_cyclic_orders([value])
            assert parsed.expected == {f"h1[{CoefficientRing(value)}]": expected}

    @pytest.mark.parametrize(
        "name, fragment",
        [
            ("hl[Z]", "unknown result 'hl[Z]'"),
            ("h1 [Z]", "unknown result 'h1 [Z]'"),
            ("coh1[Z/2", "unknown result 'coh1[Z/2'"),
            ("coh1-kerf", "unknown result 'coh1-kerf'"),
            ("coh1[Q]", "cannot parse ring 'Q'"),
            ("coh1[Z/1_0]", "cannot parse ring 'Z/1_0'"),
            ("h0[Z/1]", "modulus must be 0"),
        ],
    )
    def test_expect_name_that_names_no_result_is_rejected_on_its_line(self, name, fragment):
        with pytest.raises(InputFormatError, match=re.escape(fragment)) as err:
            parse_input_file(SMALL + f"expect {name}: Z/7\n")
        assert err.value.line == 6

    def test_expect_names_are_stored_canonically(self):
        parsed = parse_input_file(SMALL + "expect coh1[Z/02]: Z/2\nexpect h0[ Z ]: 0\nexpect  h1: 0\n")
        assert set(parsed.expected) == {"coh1[Z/2]", "h0[Z]", "h1"}
        repeated = "repeated 'expect coh1[Z/2]' line (first on line 6)"
        with pytest.raises(InputFormatError, match=re.escape(repeated)) as err:
            parse_input_file(SMALL + "expect coh1[Z/2]: 0\nexpect coh1[Z/02]: 0\n")
        assert err.value.line == 7

    @pytest.mark.parametrize(
        "actions, message, line",
        [
            ("action a: [2 0; 0 1]\naction b: [1]\n", "action matrix for 'a' is not invertible", 4),
            ("action b: [1]\naction a: [2 0; 0 1]\n", "action matrix for 'a' is not invertible", 5),
            ("action b: [2 0; 0 1]\naction a: [1]\n", "action matrix for 'a' is 1x1, expected 2x2", 5),
        ],
    )
    def test_first_rejected_action_in_generator_order_names_its_line(self, actions, message, line):
        with pytest.raises(InputFormatError, match=re.escape(message)) as err:
            parse_input_file("generators: a b\nring: Z\nrank: 2\n" + actions)
        assert err.value.line == line

    def test_comments_and_blank_lines(self):
        parse_input_file("# comment\n\n" + SMALL)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("generators: a", "repeated 'generators' line (first on line 1)"),
            ("ring: Z/2", "repeated 'ring' line (first on line 3)"),
            ("rank: 1", "repeated 'rank' line (first on line 4)"),
            ("action  a: [1]", "repeated 'action a' line (first on line 5)"),
            ("form: [1]\nform: [2]", "repeated 'form' line (first on line 6)"),
            ("kerf: [1]\nkerf: [2]", "repeated 'kerf' line (first on line 6)"),
            ("expect h1: 0\nexpect h1: Z", "repeated 'expect h1' line (first on line 6)"),
        ],
    )
    def test_repeated_key_names_its_line(self, extra, message):
        text = SMALL + extra + "\n"
        with pytest.raises(InputFormatError, match=re.escape(message)) as err:
            parse_input_file(text)
        assert err.value.line == text.count("\n")

    def test_relator_and_relation_may_repeat(self):
        parsed = parse_input_file(SMALL + "relator: a^-2\nrelation: a = a^-1\n")
        assert len(parsed.presentation.relators) == 3

    def test_generator_declared_twice_names_its_line(self):
        with pytest.raises(InputFormatError, match="generator 'a' is declared twice") as err:
            parse_input_file("# header\ngenerators: a b a\nrank: 1\naction a: [1]\naction b: [1]\n")
        assert err.value.line == 2


def record_by_name(records, name):
    matches = [r for r in records if r["name"] == name]
    assert len(matches) == 1, name
    return matches[0]


def structure_record(name, ring, result):
    return {
        "name": name,
        "ring": str(ring),
        "free_rank": result.h1.free_rank,
        "torsion": list(result.h1.torsion),
        "structure": str(result.h1),
        "witnesses": [list(w) for w in result.witnesses],
    }


class TestCoh1Stage:
    """One coh1 stage builds one cochain pair (J, P) and checks the relators
    through J*P, and gives the records that h1_cohomology and kerf_reduction
    give on their own."""

    @pytest.mark.parametrize("modulus", [0, 2])
    def test_one_cochain_pair_and_no_relator_evaluation(self, monkeypatch, modulus):
        ring = CoefficientRing(modulus)
        ex = goeritz_e2()
        rep = change_ring(ex.representation, ring)
        full = h1_cohomology(ex.presentation, rep)
        fast = kerf_reduction(ex.presentation, rep, ex.kerf)
        builds = count_calls(monkeypatch, "cocycle_matrix")
        principals = count_calls(monkeypatch, "principal_map")
        checks = count_calls(monkeypatch, "check_relators_trivial")
        status, records = run(JobSpec(example="e2", ring=ring, computations=("coh1",)))
        assert (len(builds), len(principals), len(checks)) == (1, 1, 0)
        assert status == 0
        coh1 = record_by_name(records, "coh1")
        assert {k: v for k, v in coh1.items() if k not in ("expected", "match")} == structure_record("coh1", ring, full)
        assert coh1["match"] is True
        kerf = structure_record("coh1-kerf", ring, fast) | {"expected": str(full.h1), "match": True}
        assert record_by_name(records, "coh1-kerf") == kerf

    def test_nontrivial_relator_is_the_same_coh1_error(self, tmp_path):
        text = "generators: a\nrelator: a a\nring: Z\nrank: 2\naction a: [0 -1; 1 0]\nkerf: [1 0; 0 1]\n"
        path = tmp_path / "bad.grp"
        path.write_text(text)
        parsed = parse_input_file(text)
        with pytest.raises(ValueError) as err:
            h1_cohomology(parsed.presentation, parsed.representation)
        status, records = run(JobSpec(path=str(path), computations=("coh1",)))
        assert status == 1
        assert records == [
            {"name": "coh1", "error": str(err.value)},
            {"name": "summary", "exit_status": 1, "failed_stages": ["coh1"]},
        ]


class TestRun:
    @pytest.mark.parametrize("modulus", [0, 2])
    @pytest.mark.parametrize("name", ["e2", "chain3"])
    def test_no_stage_reads_the_dense_snf_matrix(self, tmp_path, monkeypatch, name, modulus):
        # Every rank and group is read off the pivots, so no stage builds
        # the dense D of any SNF.
        from twistedhom.exactlinalg import SnfResult

        example = goeritz_e2() if name == "e2" else chain_example(3)
        path = tmp_path / f"{name}.grp"
        path.write_text(example_to_text(example))
        reads, build = [], SnfResult.D.fget

        def counting(self):
            reads.append(self.shape)
            return build(self)

        monkeypatch.setattr(SnfResult, "D", property(counting))
        ring = CoefficientRing(modulus)
        status, _ = run(JobSpec(path=str(path), ring=ring, computations=cli.COMPUTATION_ORDER))
        assert status == 0 and reads == []

    def test_no_matrix_product_takes_the_dense_kernel(self, monkeypatch):
        # IntMatrix.__mul__ multiplies nonzero rows; exactlinalg._product is
        # the Fox walk's kernel alone, bound in representation as its own name.
        from twistedhom import exactlinalg

        def refused(*args):
            raise AssertionError("an IntMatrix product took the dense kernel")

        monkeypatch.setattr(exactlinalg, "_product", refused)
        jobs = [(CoefficientRing(0), cli.COMPUTATION_ORDER), (CoefficientRing(2), ("coh1", "h1"))]
        for ring, computations in jobs:
            status, records = run(JobSpec(example="e2", ring=ring, computations=computations))
            assert status == 0, records

    def test_oracle_builds_one_cochain_pair(self, monkeypatch):
        builds = count_calls(monkeypatch, "cocycle_matrix")
        principals = count_calls(monkeypatch, "principal_map")
        status, records = run(JobSpec(example="e2", computations=("oracle",)))
        assert (len(builds), len(principals)) == (1, 1)
        assert status == 0 and record_by_name(records, "oracle")["h1_count"] == 4

    @pytest.mark.parametrize(
        "computations, counts", [(JobSpec.computations, (1, 2)), (("uct",), (0, 1))], ids=["default", "uct"]
    )
    def test_one_dual_action_per_job(self, monkeypatch, computations, counts):
        # H_0 reads d1 off the inverse matrices, so only H_1 builds the dual,
        # and P is built for the action's pair and the dual's. uct reads the
        # dual's chain complex off the action's own pair: no dual, one P.
        duals = count_calls(monkeypatch, "dual")
        principals = count_calls(monkeypatch, "principal_map")
        status, _ = run(JobSpec(example="e2", computations=computations))
        assert status == 0 and (len(duals), len(principals)) == counts

    def test_h1_builds_the_action_once(self, tmp_path, monkeypatch):
        from twistedhom import Representation

        path = tmp_path / "e2.grp"
        path.write_text(E2_TEXT)
        builds = []
        build = Representation.build.__func__

        def counting(cls, *args, **kwargs):
            builds.append(args[0])
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(Representation, "build", classmethod(counting))
        status, _ = run(JobSpec(path=str(path), computations=("h1",)))
        assert status == 0 and len(builds) == 1

    @pytest.mark.parametrize("computation, modulus", [("coh1", 2), ("oracle", 0)])
    def test_a_ring_change_inverts_no_action_again(self, tmp_path, monkeypatch, computation, modulus):
        from twistedhom import Representation, representation

        path = tmp_path / "e2.grp"
        path.write_text(E2_TEXT)
        builds, inverses = [], []
        build, inverse = Representation.build.__func__, representation.unimodular_inverse

        def counting(cls, *args, **kwargs):
            builds.append(args)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(Representation, "build", classmethod(counting))
        monkeypatch.setattr(representation, "unimodular_inverse", lambda *args: inverses.append(args) or inverse(*args))
        job = JobSpec(path=str(path), ring=CoefficientRing(modulus), computations=(computation,))
        status, _ = run(job)
        assert status == 0
        # One build when the file is parsed, inverting each of e2's four actions.
        assert (len(builds), len(inverses)) == (1, 4)

    def test_e2_h1_over_z(self):
        status, records = run(JobSpec(example="e2", computations=("h1",)))
        assert status == 0
        record = record_by_name(records, "h1")
        assert record["structure"] == "Z/2 + Z/2"
        assert record["match"] is True
        assert "H_1 = Z/2 + Z/2" in render_text(records)

    def test_e2_mod2_coh1_and_oracle_agree(self):
        from twistedhom import CoefficientRing

        status, records = run(
            JobSpec(example="e2", ring=CoefficientRing(2), computations=("coh1", "oracle"))
        )
        assert status == 0
        coh1 = record_by_name(records, "coh1")
        oracle = record_by_name(records, "oracle")
        order = 2 ** len(coh1["torsion"]) if coh1["free_rank"] == 0 else None
        assert order == 4 and oracle["h1_count"] == 4
        assert (oracle["expected"], oracle["match"]) == ("Z/2 + Z/2", True)
        assert "oracle (mod 2): z1=64 b1=16 h1=4  [expected Z/2 + Z/2: ok]" in render_text(records)

    @pytest.mark.parametrize("modulus", [2, 0])
    def test_oracle_count_that_disagrees_fails_the_run(self, monkeypatch, modulus):
        brute_force_h1_mod2 = cli.brute_force_h1_mod2

        def wrong(*args):
            return brute_force_h1_mod2(*args)._replace(h1_count=8)

        monkeypatch.setattr(cli, "brute_force_h1_mod2", wrong)
        job = JobSpec(example="e2", ring=CoefficientRing(modulus), computations=("coh1", "oracle"))
        status, records = run(job)
        assert status == 1
        oracle = record_by_name(records, "oracle")
        assert (oracle["h1_count"], oracle["expected"], oracle["match"]) == (8, "Z/2 + Z/2", False)
        assert record_by_name(records, "summary")["failed_stages"] == ["oracle"]
        assert "h1=8  [expected Z/2 + Z/2: MISMATCH]\nFAILED stages: oracle" in render_text(records)

    def test_oracle_is_matched_against_this_runs_mod2_coh1_first(self, tmp_path):
        path = tmp_path / "e2.grp"
        path.write_text(E2_TEXT.replace("expect coh1[Z/2]: Z/2 + Z/2", "expect coh1[Z/2]: Z/2"))
        status, records = run(JobSpec(path=str(path), ring=CoefficientRing(2), computations=("coh1", "oracle")))
        assert status == 1
        assert record_by_name(records, "coh1")["match"] is False
        assert record_by_name(records, "oracle")["match"] is True
        assert record_by_name(records, "summary")["failed_stages"] == ["coh1"]
        status, records = run(JobSpec(path=str(path), computations=("coh1", "oracle")))
        assert record_by_name(records, "oracle")["match"] is False
        assert record_by_name(records, "summary")["failed_stages"] == ["oracle"]

    def test_oracle_without_a_known_mod2_coh1_has_no_verdict(self, tmp_path):
        path = tmp_path / "small.grp"
        path.write_text(SMALL)
        status, records = run(JobSpec(path=str(path), computations=("coh1", "oracle")))
        assert status == 0
        oracle = record_by_name(records, "oracle")
        assert oracle == {"name": "oracle", "ring": "Z/2", "z1_count": 2, "b1_count": 1, "h1_count": 2}
        assert render_text(records).splitlines()[1] == "oracle (mod 2): z1=2 b1=1 h1=2"

    def test_oracle_refusal_by_bits_is_skipped_not_failed(self, tmp_path):
        path = tmp_path / "chain4.grp"
        path.write_text(example_to_text(chain_example(4)))
        status, records = run(JobSpec(path=str(path), ring=CoefficientRing(2), computations=("coh1", "oracle")))
        assert status == 0
        assert record_by_name(records, "coh1")["match"] is True
        reason = "enumeration over 64 bits exceeds the bound of 36"
        assert record_by_name(records, "oracle") == {"name": "oracle", "ring": "Z/2", "skipped": reason}
        assert record_by_name(records, "summary")["failed_stages"] == []
        assert render_text(records).splitlines()[1:] == [f"oracle (mod 2): skipped: {reason}", "ok"]

    def test_oracle_refusal_by_table_size_is_skipped_not_failed(self, monkeypatch):
        # e2 has 16 bits and 32 rows of J: 2^8 syndromes of 32 bits.
        job = JobSpec(example="e2", ring=CoefficientRing(2), computations=("coh1", "oracle"))
        monkeypatch.setattr(homology, "ORACLE_MAX_TABLE_BITS", 32 << 8)
        status, records = run(job)
        assert status == 0 and record_by_name(records, "oracle")["match"] is True
        monkeypatch.setattr(homology, "ORACLE_MAX_TABLE_BITS", (32 << 8) - 1)
        status, records = run(job)
        assert status == 0
        reason = "2^8 syndromes of 32 bits exceed the bound of 8191 table bits"
        assert record_by_name(records, "oracle") == {"name": "oracle", "ring": "Z/2", "skipped": reason}
        assert record_by_name(records, "summary")["failed_stages"] == []
        assert f"oracle (mod 2): skipped: {reason}" in render_text(records)

    def test_oracle_on_a_relator_that_fails_the_check_is_an_error(self, tmp_path):
        # a swaps the basis vectors, so the relator a is not trivial mod 2.
        path = tmp_path / "swap.grp"
        path.write_text("generators: a\nrelator: a\nrank: 2\naction a: [0 1; 1 0]\n")
        status, records = run(JobSpec(path=str(path), computations=("oracle",)))
        assert status == 1
        oracle = record_by_name(records, "oracle")
        assert set(oracle) == {"name", "error"}
        assert oracle["error"] == "cocycle condition is ill-posed: relator 0 (a) does not act as the identity"
        assert record_by_name(records, "summary")["failed_stages"] == ["oracle"]
        assert render_text(records).splitlines() == [f"oracle: ERROR: {oracle['error']}", "FAILED stages: oracle"]

    def test_e2_mod5_coh1_trivial(self):
        from twistedhom import CoefficientRing

        status, records = run(JobSpec(example="e2", ring=CoefficientRing(5), computations=("coh1",)))
        assert status == 0
        assert record_by_name(records, "coh1")["structure"] == "0"

    def test_expected_mismatch_fails_with_named_stage(self, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text(E2_TEXT.replace("expect h1[Z]: Z/2 + Z/2", "expect h1[Z]: Z/4"))
        status, records = run(JobSpec(path=str(path), computations=("h1",)))
        assert status == 1
        summary = record_by_name(records, "summary")
        assert summary["failed_stages"] == ["h1"]
        assert "MISMATCH" in render_text(records)

    def test_expectation_under_a_noncanonical_ring_is_compared(self, tmp_path):
        path = tmp_path / "e2.grp"
        path.write_text(E2_TEXT.replace("expect coh1[Z/2]: Z/2 + Z/2", "expect coh1[Z/02]: Z/7"))
        status, records = run(JobSpec(path=str(path), ring=CoefficientRing(2), computations=("coh1",)))
        assert status == 1
        assert record_by_name(records, "coh1")["match"] is False
        assert record_by_name(records, "summary")["failed_stages"] == ["coh1"]

    def test_kerf_route_that_disagrees_fails_the_run(self, monkeypatch):
        kerf_reduction = cli.kerf_reduction

        def wrong(*args, **kwargs):
            return dataclasses.replace(kerf_reduction(*args, **kwargs), h1=AbelianGroupStructure(0, (3,)))

        monkeypatch.setattr(cli, "kerf_reduction", wrong)
        status, records = run(JobSpec(example="e2", computations=("coh1",)))
        assert status == 1
        assert record_by_name(records, "coh1")["structure"] == "0"
        kerf = record_by_name(records, "coh1-kerf")
        assert (kerf["structure"], kerf["expected"], kerf["match"]) == ("Z/3", "0", False)
        assert record_by_name(records, "summary")["failed_stages"] == ["coh1-kerf"]
        text = render_text(records)
        assert "H^1 (ker-f path) = Z/3  [expected 0: MISMATCH]\nFAILED stages: coh1-kerf" in text

    def test_expect_mismatch_and_kerf_disagreement_both_fail(self, tmp_path, monkeypatch):
        kerf_reduction = cli.kerf_reduction

        def wrong(*args, **kwargs):
            return dataclasses.replace(kerf_reduction(*args, **kwargs), h1=AbelianGroupStructure(0, (3,)))

        monkeypatch.setattr(cli, "kerf_reduction", wrong)
        path = tmp_path / "e2.grp"
        path.write_text(E2_TEXT.replace("expect coh1[Z]: 0", "expect coh1[Z]: Z/7"))
        status, records = run(JobSpec(path=str(path), computations=("coh1",)))
        assert status == 1
        assert record_by_name(records, "coh1")["match"] is False
        assert record_by_name(records, "coh1-kerf")["match"] is False
        assert record_by_name(records, "summary") == {
            "name": "summary",
            "exit_status": 1,
            "failed_stages": ["coh1", "coh1-kerf"],
        }

    @pytest.mark.parametrize("name", sorted(builtin_examples()))
    def test_every_stage_of_a_builtin_passes(self, name):
        status, records = run(JobSpec(example=name, computations=cli.COMPUTATION_ORDER))
        assert status == 0
        *results, summary = records
        assert [r["name"] for r in results if r["name"] != "coh1-kerf"] == list(cli.COMPUTATION_ORDER)
        for record in results:
            assert "error" not in record, record
            assert all(record.get(key) is not False for key in ("passed", "match", "all_match")), record
        assert summary == {"name": "summary", "exit_status": 0, "failed_stages": []}

    def test_kerf_route_error_is_rendered(self, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("no splitting")

        monkeypatch.setattr(cli, "kerf_reduction", failing)
        status, records = run(JobSpec(example="e2", computations=("coh1",)))
        assert status == 1
        assert record_by_name(records, "coh1-kerf") == {"name": "coh1-kerf", "error": "no splitting"}
        assert "coh1-kerf: ERROR: no splitting\nFAILED stages: coh1-kerf" in render_text(records)

    def test_uct_mismatch_fails_the_run(self, monkeypatch):
        uct_check = cli.uct_check

        def wrong(*args):
            first, *rest = uct_check(*args)
            return [UctComparison(first.ring, first.computed, AbelianGroupStructure(0, (5,)), False), *rest]

        monkeypatch.setattr(cli, "uct_check", wrong)
        status, records = run(JobSpec(example="e2", computations=("uct",)))
        assert status == 1
        uct = record_by_name(records, "uct")
        assert uct["all_match"] is False
        assert [c["match"] for c in uct["comparisons"]] == [False, True, True, True, True]
        assert record_by_name(records, "summary")["failed_stages"] == ["uct"]
        text = render_text(records)
        assert text.startswith("uct: FAILED\n  Z: computed 0, expected Z/5 (MISMATCH)\n  Z/2: ")
        assert text.endswith("FAILED stages: uct")

    def test_failing_kerf_precondition_named_without_losing_coh1(self, tmp_path):
        path = tmp_path / "badkerf.grp"
        path.write_text(SMALL + "kerf: [0]\n")
        status, records = run(JobSpec(path=str(path), computations=("coh1",)))
        assert status == 1
        assert record_by_name(records, "coh1")["structure"] == "Z/2"
        assert "not invertible" in record_by_name(records, "coh1-kerf")["error"]
        assert record_by_name(records, "summary")["failed_stages"] == ["coh1-kerf"]

    def test_check_stage_flags_bad_action(self, tmp_path):
        path = tmp_path / "bad.grp"
        # Order-4 action with an order-2 relator: parses fine, fails check.
        path.write_text(
            "generators: a\nrelator: a a\nring: Z\nrank: 2\naction a: [0 -1; 1 0]\n"
        )
        status, records = run(JobSpec(path=str(path), computations=("check",)))
        assert status == 1
        assert record_by_name(records, "check")["passed"] is False

    def test_uct_needs_integral_data(self, tmp_path):
        path = tmp_path / "mod2.grp"
        path.write_text(SMALL.replace("ring: Z", "ring: Z/2"))
        status, records = run(JobSpec(path=str(path), computations=("uct",)))
        assert status == 1
        assert "over Z" in record_by_name(records, "uct")["error"]

    def test_uct_and_full_pipeline(self):
        status, records = run(
            JobSpec(example="e2", computations=("check", "h0", "coh1", "h1", "uct", "oracle"))
        )
        assert status == 0
        assert record_by_name(records, "uct")["all_match"] is True

    def test_computation_order_normalized(self):
        _, records = run(JobSpec(example="e2", computations=("h1", "check", "h0")))
        names = [r["name"] for r in records if r["name"] != "summary"]
        assert names == ["check", "h0", "h1"]

    def test_requires_a_computation(self):
        with pytest.raises(ValueError):
            run(JobSpec(example="e2", computations=()))

    def test_unknown_computation_refused(self, monkeypatch):
        # Checked before the input is loaded, as main checks --compute.
        loads = count_calls(monkeypatch, "builtin_example")
        with pytest.raises(ValueError, match=re.escape("unknown computations: cohl")):
            run(JobSpec(example="e2", computations=("cohl",)))
        with pytest.raises(ValueError, match=re.escape("unknown computations: cohl, zeta")):
            run(JobSpec(example="e2", computations=("h0", "zeta", "cohl")))
        assert loads == []

    def test_bare_string_refused(self):
        # "coh1" would otherwise run h1 as well, matched as a substring.
        with pytest.raises(ValueError, match=re.escape("computations must be a tuple of names, not the string 'coh1'")):
            run(JobSpec(example="e2", computations="coh1"))

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            run(JobSpec())
        with pytest.raises(ValueError):
            run(JobSpec(path="x", example="e2"))

    def test_unknown_example(self):
        known = ", ".join(sorted(builtin_examples()))
        with pytest.raises(ValueError, match=re.escape(f"unknown example 'nope' (known: {known})")):
            run(JobSpec(example="nope"))

    def test_an_example_run_builds_that_example_alone(self, monkeypatch):
        from twistedhom import representation

        generators = len(goeritz_e2().presentation.generators)
        inverses, inverse = [], representation.unimodular_inverse
        monkeypatch.setattr(representation, "unimodular_inverse", lambda *args: inverses.append(args) or inverse(*args))
        status, _ = run(JobSpec(example="e2"))
        # One inversion per action of e2, and none for the toy examples.
        assert status == 0 and len(inverses) == generators

    def test_text_and_structured_numeric_agreement(self):
        _, records = run(JobSpec(example="e2", computations=("h0", "coh1", "h1", "oracle")))
        text = render_text(records)
        for record in records:
            if record["name"] in ("h0", "coh1", "h1"):
                assert record["structure"] in text
            if record["name"] == "oracle":
                assert f"z1={record['z1_count']}" in text


class TestMain:
    def test_text_output(self, capsys):
        assert main(["--example", "e2", "--compute", "h1"]) == 0
        out = capsys.readouterr().out
        assert "H_1 = Z/2 + Z/2" in out

    def test_structured_output(self, capsys):
        assert main(["--example", "e2", "--compute", "h1", "--format", "structured"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        record = [r for r in lines if r.get("name") == "h1"][0]
        assert record["free_rank"] == 0 and record["torsion"] == [2, 2]

    def test_check_flag(self, capsys):
        assert main(["--example", "e2", "--check"]) == 0
        assert "check: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["file", "example"])
    def test_the_check_stage_on_e2_takes_no_snf(self, tmp_path, monkeypatch, capsys, source):
        # Each of e2's four actions is inverted by one fraction-free
        # elimination, and checking the relators factors nothing.
        path = tmp_path / "e2.grp"
        path.write_text(E2_TEXT)
        calls = count_calls(monkeypatch, "snf")
        argv = [str(path)] if source == "file" else ["--example", "e2"]
        assert main([*argv, "--compute", "check"]) == 0
        assert "check: ok" in capsys.readouterr().out
        assert calls == []

    def test_ring_flag(self, capsys):
        assert main(["--example", "e2", "--ring", "Z/5", "--compute", "coh1"]) == 0
        assert "H^1 = 0" in capsys.readouterr().out

    def test_ring_flag_takes_ascii_digits_only(self, capsys):
        assert main(["--example", "e2", "--ring", "Z/1_0", "--compute", "coh1"]) == 2
        assert "cannot parse ring 'Z/1_0'" in capsys.readouterr().err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.grp"
        path.write_text("generators: a\nrank: one\n")
        assert main([str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["/nonexistent/file.grp"]) == 2

    def test_unknown_compute_exit_2(self, capsys):
        assert main(["--example", "e2", "--compute", "zeta"]) == 2
        assert capsys.readouterr().err == "error: unknown computations: zeta\n"

    @pytest.mark.parametrize("compute", ["", ","])
    def test_empty_compute_exit_2(self, capsys, compute):
        # An empty --compute selects nothing; it is not the default stages.
        assert main(["--example", "e2", "--compute", compute]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: at least one computation must be selected\n"
        assert captured.out == ""

    def test_shipped_e2_file(self, capsys):
        import pathlib

        path = pathlib.Path(__file__).resolve().parent.parent / "demos" / "e2.grp"
        assert path.read_text(encoding="utf-8") == E2_TEXT
        assert main([str(path), "--compute", "check,h0,coh1,h1"]) == 0
        out = capsys.readouterr().out
        assert "H_1 = Z/2 + Z/2" in out
