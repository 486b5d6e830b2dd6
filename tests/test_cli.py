"""Command-line interface: output formats, exit codes, byte stability."""

import dataclasses
import hashlib
import json
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import eager_contract_all, eager_jsonl_lines, fraction_atlas_record
from wahlkit import badcurves
from wahlkit import wahl_tstring
from wahlkit.cli import EXPAND_LENGTH_CAP, main
from wahlkit.curveconfig import config_to_json, random_blowup

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_refused(capsys, tmp_path, data, message):
    """`blowdown` on data exits 2 with message on stderr, no output and no traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "blowdown", str(bad))
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


class TestExpand:
    def test_smallest_singularity(self, capsys):
        code, out, _ = run(capsys, "expand", "2", "1")
        assert code == 0
        assert "T-string: [4]" in out
        assert "discrepancies: -1/2" in out
        assert "|det| = 4 = p^2" in out

    def test_p5_q2(self, capsys):
        code, out, _ = run(capsys, "expand", "5", "2")
        assert code == 0
        assert "T-string: [3, 5, 2]" in out
        assert "-3/5, -4/5, -2/5" in out

    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "expand", "5", "2", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec == {
            "p": 5,
            "q": 2,
            "ell": 3,
            "b": [3, 5, 2],
            "discrepancies": ["-3/5", "-4/5", "-2/5"],
            "det": 25,
            "checksum_ok": True,
        }

    def test_non_coprime_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "expand", "4", "2")
        assert code == 2
        assert "coprime" in err
        assert out == ""

    def test_q_out_of_range(self, capsys):
        code, _, err = run(capsys, "expand", "3", "3")
        assert code == 2
        assert err

    def test_json_is_the_record_as_json_writes_it(self, capsys):
        for p, q in [(2, 1), (5, 2), (13, 5), (97, 60), (1000, 999)]:
            code, out, _ = run(capsys, "expand", str(p), str(q), "--json")
            assert code == 0
            want = json.dumps(fraction_atlas_record(wahl_tstring(p, q)), separators=(",", ":"))
            assert out == want + "\n"

    @pytest.mark.parametrize("q", ["1", str(10**21 - 1)])
    def test_a_string_over_the_length_cap_is_refused_before_it_is_built(self, capsys, q):
        start = time.perf_counter()
        code, out, err = run(capsys, "expand", str(10**21), q, "--json")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (f"error: the T-string of ({10**21}, {q}) has length {10**21 - 1}, "
                       f"above the cap of {EXPAND_LENGTH_CAP}\n")

    def test_a_string_at_the_length_cap_is_expanded(self, capsys):
        assert EXPAND_LENGTH_CAP == 100_000
        code, out, _ = run(capsys, "expand", "100000", "1")
        assert code == 0
        assert "p = 100000, q = 1, ell = 99999\n" in out
        code, out, err = run(capsys, "expand", "100002", "1")  # ell = 100 001
        assert (code, out) == (2, "")
        assert "has length 100001, above the cap of 100000" in err


def fibonacci_pairs_around(limit):
    """Consecutive Fibonacci pairs (p, q): the last with p**2 < 10**limit, then the first past it.

    All partial quotients of p/q are 1, so the T-string is as short as a
    p of that size allows.
    """
    q, p = 1, 2
    while p * p < 10**limit:
        q, p = p, p + q
    return (q, p - q), (p, q)


@pytest.fixture
def print_limit():
    """Python's limit on printed integer digits lowered to its minimum, 640, for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield 640
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints integers of any length")
class TestExpandPrintLimit:
    """`expand` refuses a pair whose p**2 is too long for str(), and prints one just under."""

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_at_the_default_limit_a_longer_p_squared_is_refused(self, capsys, mode):
        limit = sys.get_int_max_str_digits()
        _, (p, q) = fibonacci_pairs_around(limit)
        start = time.perf_counter()
        code, out, err = run(capsys, "expand", str(p), str(q), *mode)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (f"error: p^2 has more than {limit} digits, "
                       "Python's limit for printing an integer\n")

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_both_sides_of_a_lowered_limit(self, capsys, print_limit, mode):
        (p, q), (p_over, q_over) = fibonacci_pairs_around(print_limit)
        assert len(str(p * p)) == print_limit
        code, out, err = run(capsys, "expand", str(p), str(q), *mode)
        assert (code, err) == (0, "")
        if mode:
            assert json.loads(out)["det"] == p * p
        else:
            assert f"\n|det| = {p * p} = p^2\n" in out
        code, out, err = run(capsys, "expand", str(p_over), str(q_over), *mode)
        assert (code, out) == (2, "")
        assert err == (f"error: p^2 has more than {print_limit} digits, "
                       "Python's limit for printing an integer\n")


class TestAtlas:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "atlas", "--max-len", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2**5 - 1

    def test_sorted_and_byte_stable(self, capsys):
        _, first, _ = run(capsys, "atlas", "--max-len", "4")
        _, second, _ = run(capsys, "atlas", "--max-len", "4")
        assert first == second
        records = [json.loads(x) for x in first.strip().split("\n")]
        keys = [(r["ell"], r["b"]) for r in records]
        assert keys == sorted(keys)

    def test_each_line_is_its_record_as_json_writes_it(self, capsys):
        _, out, _ = run(capsys, "atlas", "--max-len", "7")
        lines = out.split("\n")
        assert lines.pop() == ""
        assert len(lines) == 2**7 - 1
        for line in lines:
            b = tuple(json.loads(line)["b"])
            assert line == json.dumps(fraction_atlas_record(b), separators=(",", ":"))

    def test_records_validate(self, capsys):
        _, out, _ = run(capsys, "atlas", "--max-len", "4")
        for line in out.strip().split("\n"):
            rec = json.loads(line)
            assert rec == fraction_atlas_record(tuple(rec["b"]))
            assert rec["det"] == rec["p"] ** 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "atlas.jsonl"
        code, out, _ = run(capsys, "atlas", "--max-len", "3", "--out", str(target))
        assert code == 0
        assert "wrote 7 records" in out
        assert len(target.read_text().strip().split("\n")) == 7

    @pytest.mark.parametrize("max_len", ["0", "-3", "17"])
    def test_max_len_out_of_range(self, capsys, max_len):
        code, out, err = run(capsys, "atlas", "--max-len", max_len)
        assert (code, out) == (2, "")
        assert err == f"error: --max-len must be in 1..16, got {max_len}\n"


# stdout of `wahlkit oracle --max-len 4`
def kill_one_survivor(monkeypatch):
    """Make the bad survivor [2, 3, 5, 3] B1 internal=[1] e_hits=[1, 3] die, and no other row."""
    examine = badcurves._examine

    def flip_one(*args):
        o = examine(*args)
        if (o.t, o.kind, o.internal, o.e_hits) == ((2, 3, 5, 3), "B1", (1,), (1, 3)):
            return dataclasses.replace(o, verdict=badcurves.DIES)
        return o

    monkeypatch.setattr(badcurves, "_examine", flip_one)


# what the oracle through length 4 reports after kill_one_survivor
KILLED_SURVIVOR_FAILURES = (
    "REVERSAL [2, 3, 5, 3] B1 internal=[1] e_hits=[1, 3]: mirror verdict SURVIVES_BAD != DIES",
    "REVERSAL [3, 5, 3, 2] B2 internal=[4] e_hits=[2, 4]: mirror verdict DIES != SURVIVES_BAD",
)


SURVEY_4 = """\
examined 560 candidates
verdicts: {'DIES': 550, 'SURVIVES_BAD': 10}
  NO_MINUS_ONE         310
  MAGIC_E              306
  MULTI_EDGE           192
  SW                   178
  PATTERN_SINGLE       124
  PATTERN_ENDPOINTS    96
  CYCLE                72
  MAGIC_FULL           62
  ZERO_INCIDENCE       28
  THREE_NEIGHBOR       16

10 surviving bad curves:
  ell=3: 2
  ell=4: 8
  [2, 5, 3] B1 internal=[1] e_hits=[1, 2] case=B1.1
  [3, 5, 2] B2 internal=[3] e_hits=[2, 3] case=B2.1
  [2, 2, 5, 4] B1 internal=[1] e_hits=[1, 3] case=B1.1
  [2, 2, 5, 4] B1 internal=[1, 2] e_hits=[2, 4] case=B1.3
  [2, 3, 5, 3] B1 internal=[1] e_hits=[1, 3] case=B1.1
  [2, 6, 2, 3] B1 internal=[1] e_hits=[1, 2] case=B1.1
  [3, 2, 6, 2] B2 internal=[4] e_hits=[3, 4] case=B2.1
  [3, 5, 3, 2] B2 internal=[4] e_hits=[2, 4] case=B2.1
  [4, 5, 2, 2] B2 internal=[3, 4] e_hits=[1, 3] case=B2.3
  [4, 5, 2, 2] B2 internal=[4] e_hits=[2, 4] case=B2.1

family [2,..,2,ell+3] survivors by length:
  ell=1: corrected=0 reversed=0
  ell=2: corrected=0 reversed=0
  ell=3: corrected=0 reversed=0
  ell=4: corrected=0 reversed=0

oracle passed: True
"""


class TestOracle:
    def test_prints_the_pinned_survey(self, capsys):
        assert run(capsys, "oracle", "--max-len", "4") == (0, SURVEY_4, "")

    def test_out_file_is_the_pinned_jsonl(self, capsys, tmp_path):
        target = tmp_path / "outcomes.jsonl"
        code, out, err = run(capsys, "oracle", "--max-len", "5", "--out", str(target))
        assert (code, err) == (0, "")
        assert out.endswith(f"oracle passed: True\nwrote 2400 records to {target}\n")
        # the digest of test_case_oracle_jsonl_is_byte_identical_at_length_five
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "78ce31bfc36412a037443e365d584026239d6bc96ad33a24e33157e18e042481")

    @pytest.mark.parametrize("max_len", ["0", "9"])
    def test_max_len_out_of_range(self, capsys, max_len):
        code, out, err = run(capsys, "oracle", "--max-len", max_len)
        assert (code, out) == (2, "")
        assert err == f"error: --max-len must be in 1..8, got {max_len}\n"

    def test_a_failed_oracle_exits_1(self, capsys, monkeypatch):
        kill_one_survivor(monkeypatch)
        code, out, err = run(capsys, "oracle", "--max-len", "4")
        assert (code, err) == (1, "")
        assert out.endswith(
            "\n  ell=4: corrected=0 reversed=0\n\n"
            + "".join(f"{line}\n" for line in KILLED_SURVIVOR_FAILURES)
            + "oracle passed: False\n")


@pytest.mark.parametrize("argv", [
    ["atlas", "--max-len", "2"],
    ["oracle", "--max-len", "2"],
    ["blowdown", str(FIXTURES / "interior_hit.json"), "--json"],
])
def test_an_unwritable_out_exits_1_without_a_traceback(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out.jsonl"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 1
    assert "wrote" not in out
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


class TestBlowdown:
    def test_contracts_the_double_point_fixture(self, capsys):
        code, out, _ = run(capsys, "blowdown", str(FIXTURES / "intersection_blowup.json"))
        assert code == 0
        assert "status: CONTRACTED_TO_POINT after 3 steps" in out

    def test_stuck_fixture(self, capsys):
        code, out, _ = run(capsys, "blowdown", str(FIXTURES / "single_minus_two.json"))
        assert code == 0
        assert "status: STUCK after 0 steps" in out

    def test_violation_fixture(self, capsys):
        code, out, _ = run(capsys, "blowdown", str(FIXTURES / "interior_hit.json"))
        assert code == 0
        assert "status: SW_VIOLATION" in out
        assert "violation at" in out

    def test_json_trace(self, capsys):
        code, out, _ = run(
            capsys, "blowdown", str(FIXTURES / "interior_hit.json"), "--json"
        )
        assert code == 0
        records = [json.loads(x) for x in out.strip().split("\n")]
        assert records[-1]["status"] == "SW_VIOLATION"
        assert records[0]["step"] == 1

    def test_out_without_json_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "x.jsonl"
        code, out, err = run(
            capsys, "blowdown", str(FIXTURES / "interior_hit.json"), "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--json" in err
        assert not target.exists()

    def test_out_with_json_writes_the_trace(self, capsys, tmp_path):
        target = tmp_path / "x.jsonl"
        code, _, _ = run(
            capsys, "blowdown", str(FIXTURES / "interior_hit.json"), "--json", "--out", str(target)
        )
        assert code == 0
        records = [json.loads(x) for x in target.read_text().strip().split("\n")]
        assert records[-1]["status"] == "SW_VIOLATION"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "blowdown", "/nonexistent/nowhere.json")
        assert code == 2
        assert "cannot read" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "blowdown", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_invalid_config(self, capsys, tmp_path):
        bad = tmp_path / "bad_config.json"
        bad.write_text(json.dumps({"vertices": [], "edges": [[1, 2, 1]]}))
        code, _, err = run(capsys, "blowdown", str(bad))
        assert code == 2
        assert "invalid configuration" in err

    def test_readme_example_contracts(self, capsys, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        example = readme.split("A configuration file for `blowdown` looks like")[1]
        example = example.split("```json")[1].split("```")[0]
        path = tmp_path / "readme.json"
        path.write_text(example)
        code, out, err = run(capsys, "blowdown", str(path))
        assert (code, err) == (0, "")
        assert "status: CONTRACTED_TO_POINT" in out

    @pytest.mark.parametrize(
        "vertex,edge,message",
        [
            ({}, [1, 2, 1], "each edge must be a JSON object, got [1, 2, 1]"),
            ({"id": True}, {"a": 1, "b": 2}, "vertex field 'id' must be an integer, got True"),
            ({"self_int": -1.7}, {"a": 1, "b": 2}, "vertex field 'self_int' must be an integer"),
            ({"k_degree": "-1"}, {"a": 1, "b": 2}, "vertex field 'k_degree' must be an integer"),
            ({"mult": False}, {"a": 1, "b": 2}, "vertex field 'mult' must be an integer"),
            ({"mult": -3}, {"a": 1, "b": 2}, "vertex 1 has multiplicity -3 < 0"),
            ({}, {"a": 1.0, "b": 2}, "edge field 'a' must be an integer, got 1.0"),
            ({}, {"a": 1, "b": None}, "edge field 'b' must be an integer, got None"),
            ({}, {"a": 1, "b": 2, "m": True}, "edge field 'm' must be an integer, got True"),
            ({"label": 5}, {"a": 1, "b": 2}, "vertex field 'label' must be a valid Unicode string"),
            ({"label": "\ud800"}, {"a": 1, "b": 2}, "got '\\ud800'"),
        ],
    )
    def test_bad_fields_exit_2_naming_the_field(self, capsys, tmp_path, vertex, edge, message):
        first = {"id": 1, "self_int": -1, "k_degree": -1, "mult": 1, **vertex}
        second = {"id": 2, "self_int": -2, "k_degree": 0, "mult": 1}
        data = {"vertices": [first, second], "edges": [edge]}
        assert_refused(capsys, tmp_path, data, message)

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"vertices": 5, "edges": []},
             "configuration field 'vertices' must be a JSON array, got 5"),
            ({"edges": []}, "configuration field 'vertices' is missing"),
            ({"vertices": [{"id": 1, "self_int": -1, "k_degree": -1}], "edges": {"a": 1}},
             "configuration field 'edges' must be a JSON array, got {'a': 1}"),
        ],
    )
    def test_bad_top_level_shape_exits_2_naming_the_field(self, capsys, tmp_path, data, message):
        assert_refused(capsys, tmp_path, data, message)

    @pytest.mark.parametrize(
        "label",
        ["x\nstatus: CONTRACTED_TO_POINT after 9 steps", "tab\there", "cr\r", "\x1b[2J",
         "line\u2028separator", "no\u00a0break", "zero\u200bwidth"],
    )
    def test_unprintable_label_exits_2_naming_the_field(self, capsys, tmp_path, label):
        data = {"vertices": [{"id": 1, "self_int": -2, "k_degree": 0, "label": label}],
                "edges": []}
        assert_refused(capsys, tmp_path, data,
                       f"vertex field 'label' must be printable, got {label!r}")

    def test_a_deeply_nested_value_is_cut_in_the_message(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a short path, so the line length is the message's
        Path("deep.json").write_text("[" * 900 + "]" * 900)
        code, out, err = run(capsys, "blowdown", "deep.json")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 200
        assert "configuration must be a JSON object, got [[[" in err
        assert err.endswith("[" * 80 + "...\n")

    def test_a_long_unprintable_label_is_cut_in_the_message(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        label = "\x07" * 10_000
        Path("long.json").write_text(json.dumps(
            {"vertices": [{"id": 1, "self_int": -2, "k_degree": 0, "label": label}], "edges": []}))
        code, out, err = run(capsys, "blowdown", "long.json")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 200
        assert f"vertex field 'label' must be printable, got {repr(label)[:80]}...\n" in err

    def test_a_label_cannot_forge_a_status_line(self, capsys, tmp_path):
        # a stuck curve whose label, printed verbatim, would add a line that
        # reads like the status of a successful contraction
        forged = "x\nstatus: CONTRACTED_TO_POINT after 9 steps"
        path = tmp_path / "forged.json"
        path.write_text(json.dumps({"vertices": [
            {"id": 1, "self_int": -1, "k_degree": -1, "label": "e"},
            {"id": 2, "self_int": -3, "k_degree": 1, "label": forged},
        ], "edges": [{"a": 1, "b": 2}]}))
        code, out, err = run(capsys, "blowdown", str(path))
        assert (code, out) == (2, "")
        assert "vertex field 'label' must be printable" in err
        assert "status:" not in out

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 10**9), st.integers(0, 14))
    def test_text_and_json_match_the_eager_chain(self, capsys, tmp_path, seed, depth):
        c = random_blowup(random.Random(seed), depth)
        path = tmp_path / "divisor.json"
        path.write_text(json.dumps(config_to_json(c)))
        status, steps = eager_contract_all(c)
        expected = [
            f"step {k}: blow down {vid}; remaining: "
            + (", ".join(f"{v.label or v.id}({v.self_int},{v.k_degree})" for v in cfg.vertices)
               or "(none)")
            for k, (vid, _, cfg, _) in enumerate(steps, start=1)
        ]
        expected.append(f"status: {status} after {len(steps)} steps")
        assert run(capsys, "blowdown", str(path)) == (0, "\n".join(expected) + "\n", "")
        code, out, _ = run(capsys, "blowdown", str(path), "--json")
        assert (code, out) == (0, "\n".join(eager_jsonl_lines(status, steps)) + "\n")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False)
    | st.text(st.characters(exclude_categories=()), max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
FIELDS = ("id", "self_int", "k_degree", "mult", "label", "a", "b", "m")


@st.composite
def mutated_configs(draw):
    """A valid random divisor with a few fields, entries or keys changed."""
    data = config_to_json(random_blowup(random.Random(draw(st.integers(0, 10**6))),
                                        draw(st.integers(0, 6))))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(["vertices", "edges"]))
        rows = data[key]
        action = draw(st.sampled_from(["set", "drop_field", "drop_row", "copy_row", "replace"]))
        if action == "replace":
            data[key] = draw(JSON_VALUES)
            break
        if not rows:
            continue
        i = draw(st.integers(0, len(rows) - 1))
        if action == "set":
            rows[i][draw(st.sampled_from(FIELDS))] = draw(JSON_VALUES | st.integers(-3, 12))
        elif action == "drop_field":
            rows[i].pop(draw(st.sampled_from(sorted(rows[i]))))
        elif action == "drop_row":
            rows.pop(i)
        else:
            rows.append(dict(rows[i]))
    return data


class TestBlowdownFuzz:
    """Any JSON document either contracts (exit 0) or is refused (exit 2), never a traceback."""

    def check(self, capsys, tmp_path, data):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "blowdown", str(path))
        assert code in (0, 2)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ")

    def test_nesting_too_deep_to_parse(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(capsys, "blowdown", str(path))
        assert code == 2
        assert err == f"error: {path}: invalid configuration: JSON nested too deeply\n"

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(JSON_VALUES)
    def test_arbitrary_json(self, capsys, tmp_path, data):
        self.check(capsys, tmp_path, data)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_configs())
    def test_mutated_configs(self, capsys, tmp_path, data):
        self.check(capsys, tmp_path, data)


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "14/14 checks passed" in out

    def test_a_failed_oracle_names_its_failures(self, capsys, monkeypatch):
        kill_one_survivor(monkeypatch)
        code, out, _ = run(capsys, "verify", "--filter", "oracle")
        assert code == 1
        assert out == "".join([
            "badcurves.oracle  FAIL\n",
            *(f"  - {line}\n" for line in KILLED_SURVIVOR_FAILURES),
            "0/1 checks passed\n",
        ])

    def test_filter(self, capsys):
        code, out, _ = run(capsys, "verify", "--filter", "bounds")
        assert code == 0
        assert "bounds.headline" in out
        assert "tstring" not in out

    def test_filter_without_matches(self, capsys):
        code, _, err = run(capsys, "verify", "--filter", "nosuchcheck")
        assert code == 2
        assert "no checks match" in err

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--json", "--filter", "discrepancy")
        assert code == 0
        rows = [json.loads(x) for x in out.strip().split("\n")]
        assert all(r["ok"] for r in rows)
        assert {r["check"] for r in rows} == {
            "discrepancy.kawamata",
            "discrepancy.determinant",
        }

    def test_seed_changes_nothing(self, capsys):
        a = run(capsys, "verify", "--filter", "random", "--seed", "1")
        b = run(capsys, "verify", "--filter", "random", "--seed", "99")
        assert a[0] == b[0] == 0


class TestParser:
    def test_no_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
