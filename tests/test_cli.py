"""End-to-end command-line tests: envelope shape, exit codes, determinism."""

import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import flag_one_sum, nested
from bottnull import cli, ledger, nullcone, repthy
from bottnull.rootsys import build_root_system

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
OLD_TABLE = os.path.join(GOLDEN_DIR, "ledger_v1_builtin.json")


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# ------------------------------------------------------------ envelope shape

def test_envelope_fields_and_byte_determinism(capsys):
    code, out, _ = run_cli(capsys, ["roots", "--family", "A", "--rank", "2"])
    assert code == 0
    assert out.endswith("\n") and not out.endswith("\n\n")
    doc = json.loads(out)
    assert set(doc) == {"version", "command", "root_system", "payload"}
    assert doc["version"] == "bott-null/1"
    assert doc["command"] == "roots"
    assert doc["root_system"] == {"family": "A", "rank": 2}
    # Canonical serialization: sorted keys, two-space indent, one newline.
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    payload = doc["payload"]
    assert payload["cartan"] == [[2, -1], [-1, 2]]
    assert payload["positive_count"] == 3
    assert payload["dim_g"] == 8
    assert payload["rho"] == "f:1,1"
    assert payload["positive_roots"][0]["fund"] == "f:2,-1"


def test_repeated_runs_are_identical(capsys):
    argv = ["psupp", "--family", "B", "--rank", "2", "--expr", "b^2"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


# ---------------------------------------------------------------- exit codes

def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["roots", "--family", "A"])  # missing --rank
    assert exc.value.code == 1


def test_bad_expression_exits_1(capsys):
    code, _, err = run_cli(capsys, ["dim", "--family", "A", "--rank", "2",
                                    "--expr", "b+"])
    assert code == 1
    assert "error" in err


def test_unexpected_character_exits_1_with_its_position(capsys):
    code, out, err = run_cli(capsys, ["psupp", "--family", "A", "--rank", "2",
                                      "--expr", "b$"])
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "bottnull: error: unexpected character (at position 1)"]


def test_bad_weight_exits_1(capsys):
    code, _, err = run_cli(capsys, ["bwb", "--family", "A", "--rank", "2",
                                    "--weight", "f:1"])
    assert code == 1
    code, _, err = run_cli(capsys, ["bwb", "--family", "A", "--rank", "2",
                                    "--weight", "oops"])
    assert code == 1


def test_unsupported_rank_exits_2(capsys):
    code, _, err = run_cli(capsys, ["roots", "--family", "A", "--rank", "9"])
    assert code == 2
    code, _, err = run_cli(capsys, ["roots", "--family", "B", "--rank", "3"])
    assert code == 2


def test_missing_input_file_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["nullcone", "--input",
                                    str(tmp_path / "absent.json")])
    assert code == 1


def test_ledger_gap_exits_2(capsys):
    code, _, err = run_cli(capsys, ["verdict", "--family", "A", "--rank", "3",
                                    "-r", "4"])
    assert code == 2
    assert "coverage" in err


def _assert_no_format_option(capsys, argv):
    # nullcone and verdict print JSON only: --format is not an option there.
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--format", "tsv"])
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith("usage: bottnull")
    assert err[1] == "bottnull: error: unrecognized arguments: --format tsv"


def test_nullcone_rejects_tsv(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(nullcone.tuple_to_json(
        nullcone.MatrixTuple(n=2, matrices=(((0, 1), (0, 0)),))))
    _assert_no_format_option(capsys, ["nullcone", "--input", str(path)])


def test_verdict_rejects_tsv(capsys):
    _assert_no_format_option(capsys, ["verdict", "--family", "A", "--rank", "2",
                                      "-r", "2"])


# ------------------------------------------------------------- JSON payloads

def test_bwb_nonvanishing_payload(capsys):
    doc = run_json(capsys, ["bwb", "--family", "A", "--rank", "2",
                            "--weight", "f:-6,3"])
    payload = doc["payload"]
    assert payload == {
        "input": "f:-6,3",
        "vanishes": False,
        "degree": 2,
        "weight": "f:3,0",
        "weight_root_coords": "r:2,1",
        "dimension": 10,
    }


def test_bwb_vanishing_payload(capsys):
    doc = run_json(capsys, ["bwb", "--family", "A", "--rank", "2",
                            "--weight", "f:-1,0"])
    assert doc["payload"] == {"input": "f:-1,0", "vanishes": True}


def test_weyl_word_payload(capsys):
    doc = run_json(capsys, ["weyl", "--family", "A", "--rank", "2",
                            "--word", "2,1", "--weight", "f:-6,3"])
    payload = doc["payload"]
    assert payload["word"] == [2, 1]
    assert payload["reduced"] == [2, 1]
    assert payload["length"] == 2
    assert payload["dot"] == "f:3,0"
    assert payload["act"] == "f:3,3"
    assert len(payload["inversions"]) == 2


def test_weyl_enumeration_payload(capsys):
    doc = run_json(capsys, ["weyl", "--family", "B", "--rank", "2"])
    assert doc["payload"]["order"] == 8
    assert doc["payload"]["by_length"] == {
        "0": 1, "1": 2, "2": 2, "3": 2, "4": 1}


def test_verdict_payload(capsys):
    doc = run_json(capsys, ["verdict", "--family", "A", "--rank", "3",
                            "-r", "3"])
    payload = doc["payload"]
    assert payload["r"] == 3
    assert payload["normal"] == "no"
    assert payload["rational"] == "unknown"
    assert payload["path"] == "page-scan"
    hit = [w for w in payload["witnesses"] if w["a"] == -3 and w["b"] == 3]
    assert hit and hit[0]["module"] == [
        {"weight": "f:0,2,0", "mult": 1, "dim": 20}]


def test_decompose_payload(capsys):
    doc = run_json(capsys, ["decompose", "--family", "A", "--rank", "2",
                            "--expr", "g*g"])
    payload = doc["payload"]
    assert payload["total_dim"] == 64
    mults = {m["weight"]: m["mult"] for m in payload["modules"]}
    assert mults == {"f:0,0": 1, "f:1,1": 2, "f:3,0": 1, "f:0,3": 1,
                     "f:2,2": 1}


# ----------------------------------------------------------------- TSV views

def test_dim_tsv(capsys):
    code, out, _ = run_cli(capsys, ["dim", "--family", "A", "--rank", "2",
                                    "--expr", "g", "--format", "tsv"])
    assert code == 0
    assert out == "expr\tdim\ng\t8\n"


def test_psupp_tsv_rows(capsys):
    code, out, _ = run_cli(capsys, ["psupp", "--family", "B", "--rank", "2",
                                    "--expr", "b^2", "--format", "tsv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree\tweight\tmult"
    rows = [line.split("\t") for line in lines[1:]]
    assert rows == [
        ["0", "f:0,0", "4"],
        ["1", "f:0,0", "8"],
        ["2", "f:0,0", "4"],
        ["2", "f:0,1", "1"],
        ["3", "f:0,0", "1"],
    ]


def test_weights_tsv_matches_json(capsys):
    code, tsv, _ = run_cli(capsys, ["weights", "--family", "A", "--rank", "2",
                                    "--expr", "q", "--format", "tsv"])
    assert code == 0
    doc = run_json(capsys, ["weights", "--family", "A", "--rank", "2",
                            "--expr", "q"])
    rows = [line.split("\t") for line in tsv.splitlines()[1:]]
    assert rows == [[w["weight"], str(w["mult"])]
                    for w in doc["payload"]["weights"]]
    assert doc["payload"]["dim"] == 3


# ------------------------------------------------------------ nullcone files

def test_nullcone_member_and_flag(capsys, tmp_path):
    t = nullcone.MatrixTuple(n=3, matrices=(
        ((0, 1, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
    ))
    path = tmp_path / "tuple.json"
    path.write_text(nullcone.tuple_to_json(t))

    doc = run_json(capsys, ["nullcone", "--input", str(path)])
    assert doc["root_system"] is None
    assert doc["payload"] == {"op": "member", "n": 3, "r": 2, "member": True}

    doc = run_json(capsys, ["nullcone", "--input", str(path), "--op", "flag"])
    payload = doc["payload"]
    assert payload["member"] is True
    assert len(payload["flag"]) == 3
    assert all(len(vec) == 3 for vec in payload["flag"])


def test_nullcone_nonmember(capsys, tmp_path):
    t = nullcone.MatrixTuple(n=2, matrices=(
        ((0, 1), (0, 0)),
        ((0, 0), (1, 0)),
    ))
    path = tmp_path / "pair.json"
    path.write_text(nullcone.tuple_to_json(t))
    doc = run_json(capsys, ["nullcone", "--input", str(path)])
    assert doc["payload"]["member"] is False
    doc = run_json(capsys, ["nullcone", "--input", str(path), "--op", "flag"])
    assert doc["payload"] == {"op": "flag", "n": 2, "r": 2,
                              "member": False, "flag": None}


def test_nullcone_resolve(capsys, tmp_path):
    doc_in = {
        "g": [["1", "1"], ["0", "1"]],
        "matrices": [[["0", "2"], ["0", "0"]]],
    }
    path = tmp_path / "res.json"
    path.write_text(json.dumps(doc_in))
    doc = run_json(capsys, ["nullcone", "--input", str(path),
                            "--op", "resolve"])
    assert doc["payload"]["matrices"] == [[["0", "2"], ["0", "0"]]]

    doc_in["g"] = [["0", "1"], ["1", "0"]]  # swap: conjugate to lower
    path.write_text(json.dumps(doc_in))
    doc = run_json(capsys, ["nullcone", "--input", str(path),
                            "--op", "resolve"])
    assert doc["payload"]["matrices"] == [[["0", "0"], ["2", "0"]]]


# Fixed tuples and resolution points, several with denominators.  The stored
# outputs were produced before the row reduction was shared between rref,
# mat_inverse and common_flag; they pin every printed fraction.
NULLCONE_TUPLES = {
    "t3-member": [  # g x g^-1 for strictly upper x and det g = 3
        [["-1/3", "2/3", "1/3"], ["4/3", "-2/3", "-4/3"], ["-1", "1", "1"]],
        [["-2", "1", "2"], ["0", "0", "0"], ["-2", "1", "2"]]],
    "t3-nonmember": [
        [["1/2", "1", "0"], ["0", "0", "2/3"], ["1", "0", "-1/2"]],
        [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]],
    "t4-member": [
        [["-19/4", "19/2", "-17/2", "53/4"], ["-4", "8", "-15/2", "21/2"],
         ["-11/4", "11/2", "-11/2", "29/4"], ["-3/4", "3/2", "-3/2", "9/4"]],
        [["2", "-4", "4", "-4"], ["3", "-6", "6", "-8"],
         ["2", "-4", "4", "-6"], ["0", "0", "0", "0"]]],
    "t4-nonmember": [  # x^4 = 1/3, and a Jordan block beside a torus
        [["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"],
         ["1/3", "0", "0", "0"]],
        [["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "0"],
         ["0", "0", "0", "-1"]]],
}
NULLCONE_RESOLVE = {
    "r3": {"g": [["1/2", "1", "0"], ["0", "2", "1"], ["1", "0", "-1/3"]],
           "matrices": [[["0", "1", "1/2"], ["0", "0", "-1"], ["0", "0", "0"]],
                        [["0", "0", "2"], ["0", "0", "0"], ["0", "0", "0"]]]},
    "r4": {"g": [["2", "0", "1", "0"], ["1", "1", "0", "0"],
                 ["0", "1", "3", "1"], ["0", "0", "1", "1"]],
           "matrices": [[["0", "1", "0", "2/5"], ["0", "0", "-1", "1"],
                         ["0", "0", "0", "3"], ["0", "0", "0", "0"]]]},
}
NULLCONE_GOLDEN = sorted(
    [(name, op) for name in NULLCONE_TUPLES for op in ("member", "flag")]
    + [(name, "resolve") for name in NULLCONE_RESOLVE])


@pytest.mark.parametrize("name,op", NULLCONE_GOLDEN,
                         ids=[f"{n}-{op}" for n, op in NULLCONE_GOLDEN])
def test_nullcone_matches_golden(capsys, tmp_path, name, op):
    if op == "resolve":
        doc = NULLCONE_RESOLVE[name]
    else:
        mats = NULLCONE_TUPLES[name]
        doc = {"n": len(mats[0]), "matrices": mats}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["nullcone", "--input", str(path),
                                      "--op", op])
    assert code == 0, err
    golden = os.path.join(GOLDEN_DIR, f"nullcone_{name}_{op}.json")
    with open(golden, "r", encoding="utf-8") as fh:
        assert out == fh.read()


def test_nullcone_malformed_json_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, ["nullcone", "--input", str(path)])
    assert code == 1


# One minimal valid invocation of every subcommand but report.
NON_REPORT_ARGV = [
    ["roots", "--family", "A", "--rank", "2"],
    ["weyl", "--family", "A", "--rank", "2"],
    ["bwb", "--family", "A", "--rank", "2", "--weight", "f:0,0"],
    ["weights", "--family", "A", "--rank", "2", "--expr", "b"],
    ["psupp", "--family", "A", "--rank", "2", "--expr", "b"],
    ["mult", "--family", "A", "--rank", "2", "--expr", "g", "--weight", "f:0,0"],
    ["dim", "--family", "A", "--rank", "2", "--expr", "b"],
    ["decompose", "--family", "A", "--rank", "2", "--expr", "g"],
    ["nullcone", "--input", "absent.json"],
    ["verdict", "--family", "A", "--rank", "2", "-r", "1"],
]


@pytest.mark.parametrize("argv", NON_REPORT_ARGV, ids=lambda a: a[0])
def test_seed_is_rejected_outside_report(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", "1"])
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith("usage: bottnull")
    assert err[1] == "bottnull: error: unrecognized arguments: --seed 1"


def test_seed_picks_the_report_sample(capsys):
    # A2 checks every subset through the wedge profile: the seed leaves the
    # golden.
    with open(os.path.join(GOLDEN_DIR, "report_a2.json"), encoding="utf-8") as fh:
        want = fh.read()
    code, out, _ = run_cli(capsys, ["report", "--family", "A", "--rank", "2",
                                    "--seed", "5"])
    assert code == 0 and out == want
    # A6 samples its subsets, and the report names the seed it drew them with.
    doc = run_json(capsys, ["report", "--family", "A", "--rank", "6",
                            "--seed", "5"])
    (check,) = [c for c in doc["payload"]["checks"]
                if c["id"] == "distinct-roots"]
    assert check["status"] == "pass"
    assert "sampled, seed 5" in check["detail"]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def _table_with(tmp, weight, mult=1, key="A/2/2/1"):
    """The built-in table, saved with the module at ``key`` set to
    ``mult`` copies of ``weight``."""
    doc = json.loads(ledger.save_table(ledger.builtin_tables()))
    (entry,) = [e for e in doc["entries"] if e["key"] == key]
    entry["module"] = [[weight, mult]]
    return _write(tmp, "t.json", json.dumps(doc))


def _edited_table(tmp, edit):
    """The built-in table, saved after ``edit`` changed its document."""
    doc = json.loads(ledger.save_table(ledger.builtin_tables()))
    edit(doc)
    return _write(tmp, "t.json", json.dumps(doc))


def _a5_table_with_interval(tmp, key, lo, hi):
    """``verdict`` A5 r=4 on the built-in table with the entry at ``key``
    set to lo..hi copies of the trivial module."""
    def edit(doc):
        (entry,) = [e for e in doc["entries"] if e["key"] == key]
        entry.pop("module", None)
        entry["lo"], entry["hi"] = ([[[0] * 5, m]] if m else []
                                    for m in (lo, hi))
    return ["verdict", "--family", "A", "--rank", "5", "-r", "4",
            "--table", _edited_table(tmp, edit)]


def _old_placeholder(tmp, key):
    """``verdict`` A2 r=1 on a bott-null-ledger/1 table that holds a
    "trivial-unresolved" entry at ``key`` alone."""
    doc = {"version": "bott-null-ledger/1", "complete": [],
           "entries": [{"key": key, "module": "trivial-unresolved"}]}
    return ["verdict", "--family", "A", "--rank", "2", "-r", "1",
            "--table", _write(tmp, "t.json", json.dumps(doc))]


def _verdict_with_table(tmp, weight, mult=1):
    return ["verdict", "--family", "A", "--rank", "2", "-r", "3",
            "--table", _table_with(tmp, weight, mult)]


def _nullcone_doc(tmp, doc, op="member"):
    return ["nullcone", "--op", op,
            "--input", _write(tmp, "t.json", json.dumps(doc))]


_NINES = "f:" + "9" * 4300

MALFORMED_INPUTS = {
    # Once read by int(): an answer for (10, 0).
    "weight-f-underscore": lambda tmp: ["bwb", "--family", "A", "--rank", "2",
                                        "--weight", "f: 1_0,0"],
    "weight-f-space": lambda tmp: ["bwb", "--family", "A", "--rank", "2",
                                   "--weight", "f: 1,0"],
    "verdict-r-0": lambda tmp: ["verdict", "--family", "A", "--rank", "2",
                                "-r", "0"],
    "table-not-json": lambda tmp: [
        "verdict", "--family", "A", "--rank", "2", "-r", "2",
        "--table", _write(tmp, "t.json", "{not json")],
    # Each once a UnicodeDecodeError traceback.
    "table-not-utf8": lambda tmp: [
        "verdict", "--family", "A", "--rank", "2", "-r", "1",
        "--table", _write_bytes(tmp, "t.json", b"\xff\xfe")],
    "nullcone-input-not-utf8": lambda tmp: [
        "nullcone", "--input", _write_bytes(tmp, "t.json", b"\xff\xfe")],
    "table-is-directory": lambda tmp: [
        "verdict", "--family", "A", "--rank", "2", "-r", "2",
        "--table", str(tmp)],
    "table-bad-key": lambda tmp: [
        "verdict", "--family", "A", "--rank", "2", "-r", "2",
        "--table", _write(tmp, "t.json", json.dumps({
            "version": ledger.TABLE_FORMAT, "complete": [],
            "entries": [{"key": "A/2/x/1", "module": [[[0, 0], 1]]}]}))],
    "table-weight-wrong-rank": lambda tmp: _verdict_with_table(tmp, [0, 0, 0]),
    "table-weight-not-dominant": lambda tmp: _verdict_with_table(tmp, [-1, 0]),
    # (1,1) is dominant but outside the potential support of H^1(b^2).
    "table-breaks-support-bound": lambda tmp: _verdict_with_table(tmp, [1, 1]),
    # Once accepted: a witness of dimension -20 in the A3 r=3 verdict.
    "table-mult-negative": lambda tmp: [
        "verdict", "--family", "A", "--rank", "3", "-r", "3",
        "--table", _table_with(tmp, [0, 2, 0], -1, key="A/3/3/3")],
    # Once truncated to 1.
    "table-mult-float": lambda tmp: _verdict_with_table(tmp, [0, 0], 1.9),
    # Once a silent replacement of the built-in H^1 = C.
    "table-duplicate-key": lambda tmp: [
        "verdict", "--family", "A", "--rank", "2", "-r", "3",
        "--table", _edited_table(tmp, lambda doc: doc["entries"].append(
            {"key": "A/2/2/1", "module": [[[0, 0], 2]]}))],
    # Once exit 0 and "normal: no" from a claim that H^*(X, b^4) = 0 on A3,
    # where chi(X, b^4) = -1603.
    "table-complete-without-entries": lambda tmp: [
        "verdict", "--family", "A", "--rank", "3", "-r", "4",
        "--table", _edited_table(
            tmp, lambda doc: doc["complete"].append("A/3/4"))],
    # Once accepted; with complete blocks validated, b^-1 failed to parse.
    "table-complete-q-negative": lambda tmp: [
        "verdict", "--family", "A", "--rank", "2", "-r", "1",
        "--table", _edited_table(
            tmp, lambda doc: doc["complete"].append("A/2/-1"))],
    # Once read as {(0, 0): 1}, the last multiplicity listed.
    "table-module-weight-twice": lambda tmp: [
        "verdict", "--family", "A", "--rank", "2", "-r", "3",
        "--table", _edited_table(tmp, lambda doc: doc["entries"][0].update(
            module=[[[0, 0], 2], [[0, 0], 1]]))],
    # Once read by int() as A/2/2/1, the built-in table's first key.
    "table-key-underscore": lambda tmp: [
        "verdict", "--family", "A", "--rank", "2", "-r", "3",
        "--table", _edited_table(
            tmp, lambda doc: doc["entries"][0].update(key="A/2/2/0_1"))],
    # Once loaded, the list kept as the entry's provenance, and exit 0.
    "table-provenance-not-a-string": lambda tmp: [
        "verdict", "--family", "A", "--rank", "2", "-r", "1",
        "--table", _edited_table(tmp, lambda doc: doc["entries"][0].update(
            provenance=["x", 5]))],
    # Once exit 2 with the bare cost-cap message, naming no table key.
    "table-complete-past-cost-cap": lambda tmp: [
        "verdict", "--family", "A", "--rank", "2", "-r", "1",
        "--table", _edited_table(
            tmp, lambda doc: doc["complete"].append("A/1/3000000"))],
    # An interval entry: lo above hi; hi above the potential support (4788);
    # an H^3 too small for chi_G(0) = -3.
    "table-interval-lo-above-hi": lambda tmp: _a5_table_with_interval(
        tmp, "A/5/4/2", 5, 4),
    "table-interval-above-potential-support": lambda tmp:
        _a5_table_with_interval(tmp, "A/5/4/3", 3, 4789),
    "table-interval-misses-euler": lambda tmp: _a5_table_with_interval(
        tmp, "A/5/4/3", 0, 2),
    # An old-format placeholder past the cost cap, one whose zero weight is
    # outside potential support, and one whose zero weight once took 8 GB.
    "table-old-placeholder-past-cost-cap": lambda tmp: _old_placeholder(
        tmp, "A/1/3000000/1"),
    "table-old-placeholder-rank-unsupported": lambda tmp: _old_placeholder(
        tmp, "A/1000000000/1/1"),
    "table-old-placeholder-outside-support": lambda tmp: _old_placeholder(
        tmp, "A/2/2/4"),
    # Once accepted: an n x n identity row-reduced for a bare n.
    "nullcone-member-no-matrices": lambda tmp: _nullcone_doc(
        tmp, {"n": 1000000000, "matrices": []}),
    "nullcone-flag-no-matrices": lambda tmp: _nullcone_doc(
        tmp, {"n": 1000000000, "matrices": []}, op="flag"),
    "nullcone-n-negative": lambda tmp: _nullcone_doc(
        tmp, {"n": -1, "matrices": []}),
    "nullcone-n-float": lambda tmp: _nullcone_doc(
        tmp, {"n": 2.7, "matrices": [[[0, 1], [0, 0]]]}),
    "nullcone-n-bool": lambda tmp: _nullcone_doc(
        tmp, {"n": True, "matrices": [[[0]]]}),
    # Once exit 0 with "r": 1 and an sl_2 flag: the form and r were ignored.
    "nullcone-form-key": lambda tmp: _nullcone_doc(
        tmp, {"n": 2, "r": 5, "form": "B", "matrices": [[[0, 1], [0, 0]]]},
        op="flag"),
    "nullcone-r-differs": lambda tmp: _nullcone_doc(
        tmp, {"n": 2, "r": 2, "matrices": [[[0, 1], [0, 0]]]}),
    "resolve-form-key": lambda tmp: _nullcone_doc(
        tmp, {"g": [[1, 0], [0, 1]], "form": "B",
              "matrices": [[[0, 1], [0, 0]]]}, op="resolve"),
    "resolve-g-empty": lambda tmp: _nullcone_doc(
        tmp, {"g": [], "matrices": []}, op="resolve"),
    "nullcone-entry-1-over-0": lambda tmp: [
        "nullcone", "--input", _write(tmp, "t.json", json.dumps(
            {"n": 2, "matrices": [[["0", "1/0"], ["0", "0"]]]}))],
    "nullcone-input-is-directory": lambda tmp: [
        "nullcone", "--input", str(tmp)],
    "resolve-size-mismatch": lambda tmp: [
        "nullcone", "--op", "resolve", "--input", _write(tmp, "t.json", json.dumps(
            {"g": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
             "matrices": [[[0, 1], [0, 0]]]}))],
    "resolve-g-not-square": lambda tmp: [
        "nullcone", "--op", "resolve", "--input", _write(tmp, "t.json", json.dumps(
            {"g": [[1, 0], [0]], "matrices": [[[0, 1], [0, 0]]]}))],
    # Entries other than an int or an integer/"p/q" string.  Both infinities
    # were once an OverflowError traceback from Fraction.
    "nullcone-entry-infinity": lambda tmp: _nullcone_doc(
        tmp, {"n": 2, "matrices": [[[0, float("inf")], [0, 0]]]}),
    "nullcone-entry-nan-in-flag": lambda tmp: _nullcone_doc(
        tmp, {"n": 2, "matrices": [[[0, float("nan")], [0, 0]]]}, op="flag"),
    "resolve-g-entry-infinity": lambda tmp: _nullcone_doc(
        tmp, {"g": [[1, float("-inf")], [0, 1]],
              "matrices": [[[0, 1], [0, 0]]]}, op="resolve"),
    # Once read as 1.
    "nullcone-entry-bool": lambda tmp: _nullcone_doc(
        tmp, {"n": 2, "matrices": [[[0, True], [0, 0]]]}),
    # Once read as the binary fraction 3602879701896397/36028797018963968.
    "nullcone-entry-float": lambda tmp: _nullcone_doc(
        tmp, {"n": 2, "matrices": [[[0, 0.1], [0, 0]]]}),
    # Once expanded to a 13-million-bit integer before any check.
    "nullcone-entry-huge-exponent": lambda tmp: _nullcone_doc(
        tmp, {"n": 2, "matrices": [[["0", "1e4000000"], ["0", "0"]]]}),
    # Once exit 0: the group enumeration, with the weight silently dropped.
    "weyl-weight-without-word": lambda tmp: [
        "weyl", "--family", "A", "--rank", "2", "--weight", "f:1,0"],
    # Once a RecursionError traceback from the parser.
    "expr-nested-300-parens": lambda tmp: [
        "psupp", "--family", "A", "--rank", "2",
        "--expr", "(" * 300 + "b" + ")" * 300],
    "expr-nested-250-wedges": lambda tmp: [
        "psupp", "--family", "A", "--rank", "2",
        "--expr", "wedge^1(" * 250 + "b" + ")" * 250],
    # Each once a traceback past Python's 4,300-digit int-to-text limit:
    # a Weyl dimension of more than 4,300 digits, ...
    "bwb-weight-161-digits-a7": lambda tmp: [
        "bwb", "--family", "A", "--rank", "7",
        "--weight", "f:" + ",".join([str(10 ** 160)] * 7)],
    # ... or a coordinate pushed past the limit by one reflection.
    "bwb-weight-4300-digits": lambda tmp: [
        "bwb", "--family", "A", "--rank", "2", "--weight", _NINES + ",0"],
    "weyl-word-weight-4300-digits": lambda tmp: [
        "weyl", "--family", "A", "--rank", "2", "--word", "1",
        "--weight", _NINES + ",0"],
    "weights-line-4300-digits": lambda tmp: [
        "weights", "--family", "A", "--rank", "2",
        "--expr", f"L[{_NINES[2:]},0]*b"],
    # Once 2.3 s inside Fraction building 10^3000000.
    "bwb-root-coords-exponent": lambda tmp: [
        "bwb", "--family", "A", "--rank", "2", "--weight", "r:1e3000000,0"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_1_without_traceback(tmp_path, case):
    argv = MALFORMED_INPUTS[case](tmp_path)
    proc = subprocess.run([sys.executable, "-m", "bottnull.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("bottnull: error: ")


@pytest.mark.parametrize("argv", [
    ["bwb", "--family", "A", "--rank", "7",
     "--weight", "f:" + ",".join(["9" * 100] * 7)],
    ["weights", "--family", "A", "--rank", "2",
     "--expr", "L[-" + "9" * 100 + ",0]*b"],
])
def test_coordinates_of_100_digits_run(capsys, argv):
    # The widest accepted coordinates keep every number printable.
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    assert json.loads(out)["payload"]


def test_resolve_refuses_a_non_square_g(capsys, tmp_path):
    code, out, err = run_cli(capsys, _nullcone_doc(
        tmp_path, {"g": [[1, 0], [0]], "matrices": [[[0, 1], [0, 0]]]},
        op="resolve"))
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "bottnull: error: bad resolve document: g must be a square matrix"]


@pytest.mark.parametrize("argv,message", [
    (lambda tmp: _nullcone_doc(tmp, [1]),
     "bad matrix-tuple document: expected a JSON object"),
    (lambda tmp: ["verdict", "--family", "A", "--rank", "2", "-r", "3",
                  "--table", _write(tmp, "t.json", "[1]")],
     "bad table document: expected a JSON object"),
    (lambda tmp: _nullcone_doc(tmp, {"matrices": [[[0, 1], [0, 0]]]},
                               op="resolve"),
     "bad resolve document: missing key 'g'"),
    (lambda tmp: _nullcone_doc(tmp, [1], op="resolve"),
     "bad resolve document: expected a JSON object"),
], ids=["tuple-list", "table-list", "resolve-without-g", "resolve-list"])
def test_json_document_of_the_wrong_shape_is_named(capsys, tmp_path, argv,
                                                   message):
    # Each once exited 1 with a line of Python internals ("list indices
    # must be integers or slices, not str", "'list' object has no
    # attribute 'get'", "bad resolve document: 'g'").
    code, out, err = run_cli(capsys, argv(tmp_path))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"bottnull: error: {message}"]


def test_nesting_is_refused_past_100_levels(capsys):
    code, out, err = run_cli(capsys, ["dim", "--family", "A", "--rank", "2",
                                      "--expr", "(" * 101 + "b" + ")" * 101])
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "bottnull: error: expression nested too deeply (at position 100)"]
    code, _, err = run_cli(capsys, ["psupp", "--family", "A", "--rank", "2",
                                    "--expr", nested(101)])
    assert code == 1 and "nested too deeply" in err


@pytest.mark.parametrize("command", ["weights", "psupp", "decompose", "dim"])
def test_nesting_of_100_levels_runs(capsys, command):
    # Evaluating and printing the deepest accepted tree (its text is the
    # memo key) stay inside Python's recursion limit.  The expression is b plus
    # trivial terms, so decompose refuses it as a non-module, with exit 2.
    code, out, err = run_cli(capsys, [command, "--family", "A", "--rank", "2",
                                      "--expr", nested(100)])
    if command == "decompose":
        assert code == 2 and err.startswith("bottnull: error: weight multiset")
    else:
        assert code == 0, err
        assert json.loads(out)["payload"]["expr"] == nested(100)


def test_user_table_that_validates_gives_a_verdict(tmp_path, capsys):
    code, out, err = run_cli(capsys, _verdict_with_table(tmp_path, [0, 0]))
    assert code == 0, err
    assert json.loads(out)["payload"]["normal"] == ledger.NORMAL_YES


_DIGITS = "expression dimension has more than 4300 decimal digits"

RUNAWAY = [
    # Dimension 2.2e13: refused by the evaluation cost cap, not run.
    (["psupp"], "sym^12(g)", "expression evaluation exceeds the cost cap of "
     "5000000 weight terms"),
    # 4,633 digits, more than Python converts to text.
    (["dim"], "b^3000", _DIGITS),
    # A 5e9-bit integer: refused before it is built.
    (["dim"], "b^1000000000", _DIGITS),
    # One weight of multiplicity 7^6000 (5,071 digits): each was once a
    # traceback when the answer was printed.
    (["weights"], "h^6000", _DIGITS),
    (["psupp"], "h^6000", _DIGITS),
    (["decompose"], "h^6000", _DIGITS),
    (["mult", "--weight", "f:0,0,0,0,0,0,0"], "h^6000", _DIGITS),
    # 4,658 digits: once about 3 s of Newton steps, then the traceback.
    (["decompose"], "wedge^300(h^20)", _DIGITS),
]


def test_runaway_expression_exits_2_on_its_cost_cap():
    for command, expr, message in RUNAWAY:
        proc = subprocess.run(
            [sys.executable, "-m", "bottnull.cli", *command, "--family", "A",
             "--rank", "7", "--expr", expr],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [f"bottnull: error: {message}"]


def test_power_refused_after_its_steps_exits_2_with_one_line(capsys):
    # b^9 on A7 passes the look-ahead of its first six convolutions and is
    # refused before the seventh.
    code, out, err = run_cli(capsys, ["psupp", "--family", "A", "--rank", "7",
                                      "--expr", "b^9"])
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "bottnull: error: expression evaluation exceeds the cost cap of "
        "5000000 weight terms"]


# -------------------------------------------------------------------- report

# Stored report outputs, byte for byte.  A7 runs mult_in's signed orbit,
# cut at the support's root-coordinate floor, and the sampled
# distinct-roots check.
REPORT_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
                  ("A", 7), ("B", 2)]


@pytest.mark.parametrize("family,rank", REPORT_SYSTEMS)
def test_report_matches_golden_any_thread_count(capsys, family, rank):
    golden = os.path.join(GOLDEN_DIR, f"report_{family.lower()}{rank}.json")
    with open(golden, "r", encoding="utf-8") as fh:
        want = fh.read()
    code, out, _ = run_cli(capsys, [
        "report", "--family", family, "--rank", str(rank)])
    assert code == 0
    assert out == want


def test_report_checks_all_pass(capsys):
    doc = run_json(capsys, ["report", "--family", "A", "--rank", "2"])
    payload = doc["payload"]
    assert payload["passed"] is True
    assert all(c["status"] == "pass" for c in payload["checks"])
    ids = [c["id"] for c in payload["checks"]]
    assert ids == sorted(set(ids), key=ids.index)  # no duplicate check ids


def test_report_a1_runs_only_covered_checks(capsys):
    # The table covers A1 only at q = 1: block checks for b^1 alone, and no
    # made-up cohomology at q = 2.
    doc = run_json(capsys, ["report", "--family", "A", "--rank", "1"])
    assert doc["payload"]["passed"] is True
    assert [c["id"] for c in doc["payload"]["checks"]] == [
        "psupp-b1", "table-b1", "highest-root-norm", "hodge-wedge-profile"]


def test_report_failure_exits_2(capsys, monkeypatch):
    # Sabotage one ingredient: the report must flag it and exit 2.
    monkeypatch.setattr(cli.repthy, "invariant_dim",
                        lambda rs, expr: 0)
    code, out, _ = run_cli(capsys, ["report", "--family", "A", "--rank", "2"])
    assert code == 2
    doc = json.loads(out)
    failed = [c["id"] for c in doc["payload"]["checks"]
              if c["status"] == "fail"]
    assert "table-b2" in failed


@pytest.mark.usefixtures("cold_memos")
def test_report_fails_only_the_wedge_profile_on_a_flagged_sum(
        capsys, monkeypatch):
    # Every walk reports -2 rho, the top wedge power of n, as nontrivial;
    # no other check of A4 meets that weight.
    rs = build_root_system("A", 4)
    flag_one_sum(monkeypatch, tuple(2 * c for c in rs.rho))
    code, out, _ = run_cli(capsys, ["report", "--family", "A", "--rank", "4"])
    assert code == 2
    checks = json.loads(out)["payload"]["checks"]
    assert [c["id"] for c in checks if c["status"] == "fail"] == [
        "hodge-wedge-profile"]
    assert "distinct-roots" not in {c["id"] for c in checks}
    (profile,) = [c for c in checks if c["id"] == "hodge-wedge-profile"]
    assert profile["detail"].startswith("wedge^10(n) potential support ")


def test_tangent_square_is_checked_without_tensor_square_coverage(
        capsys, monkeypatch):
    # The identity holds for type A with n >= 3, whatever the table covers.
    # A4 states no verdict, so its report reads no tensor-square cell.
    doc = json.loads(ledger.save_table(ledger.builtin_tables()))
    doc["complete"].remove("A/4/2")
    doc["entries"] = [e for e in doc["entries"]
                      if not e["key"].startswith("A/4/2/")]
    text = json.dumps(doc)
    monkeypatch.setattr(cli.ledger, "builtin_tables",
                        lambda: ledger.load_table(text))
    doc = run_json(capsys, ["report", "--family", "A", "--rank", "4"])
    checks = {c["id"]: c for c in doc["payload"]["checks"]}
    assert "table-b2" not in checks
    assert checks["tangent-square-a"] == {
        "id": "tangent-square-a", "status": "pass",
        "detail": "chi(X, (g/b)^2) = 575 = dim(g x g) - 1"}


def test_verdict_on_a_table_with_a_negative_degree_survivor_exits_2(capsys):
    # The table passes validation, but its page has a certain survivor in
    # total degree -2 (see test_ledger.py): exit 2 and one line on stderr.
    table = os.path.join(GOLDEN_DIR, "ledger_a2_negative_degree.json")
    code, out, err = run_cli(capsys, ["verdict", "--family", "A", "--rank",
                                      "2", "-r", "2", "--table", table])
    assert (code, out) == (2, "")
    assert err == ("bottnull: error: cell (-2,0) certainly survives in total "
                   "degree -2 < 0: the table is inconsistent\n")


def test_decompose_b2_matches_golden(capsys):
    # Recorded before the ring's steps summed one signed dot walk: signed
    # Newton walks for sym and wedge, then a tensor step.
    with open(os.path.join(GOLDEN_DIR, "decompose_b2_sym3_wedge2.json"), "r",
              encoding="utf-8") as fh:
        want = fh.read()
    code, out, _ = run_cli(capsys, ["decompose", "--family", "B", "--rank",
                                    "2", "--expr", "sym^3(g)*wedge^2(g)"])
    assert (code, out) == (0, want)


def test_decompose_a7_matches_golden(capsys):
    # The stdout that CI compares the installed script with.  The sym^2(g)
    # file was recorded while sym^k was still evaluated in full, before the
    # ring's Newton walk answered it.
    for golden, expr in (("decompose_a7_g3.json", "g^3"),
                         ("decompose_a7_sym2_g.json", "sym^2(g)")):
        with open(os.path.join(GOLDEN_DIR, golden), "r",
                  encoding="utf-8") as fh:
            want = fh.read()
        code, out, _ = run_cli(capsys, ["decompose", "--family", "A",
                                        "--rank", "7", "--expr", expr])
        assert code == 0
        assert out == want


def test_weights_a7_matches_golden(capsys):
    # The stdout that CI compares the installed script with.
    with open(os.path.join(GOLDEN_DIR, "weights_a7_g2.json"), "r",
              encoding="utf-8") as fh:
        want = fh.read()
    code, out, _ = run_cli(capsys, ["weights", "--family", "A", "--rank", "7",
                                    "--expr", "g^2"])
    assert code == 0
    assert out == want


def test_psupp_a7_matches_golden(capsys):
    # The stdout that CI compares the installed script with; its sha256 is
    # perfbench/expected.json's psupp_A7_b4_sha256.
    with open(os.path.join(GOLDEN_DIR, "psupp_a7_b4.json"), "r",
              encoding="utf-8") as fh:
        want = fh.read()
    code, out, _ = run_cli(capsys, ["psupp", "--family", "A", "--rank", "7",
                                    "--expr", "b^4"])
    assert code == 0
    assert out == want


@pytest.mark.parametrize("table", [[], ["--table", OLD_TABLE]],
                         ids=["builtin", "old-format-file"])
def test_verdict_a5_r4_matches_golden(capsys, table):
    # The stdout that CI compares the installed script with, with and
    # without the built-in table saved in the format before intervals.
    with open(os.path.join(GOLDEN_DIR, "verdict_a5_r4.json"), "r",
              encoding="utf-8") as fh:
        want = fh.read()
    code, out, _ = run_cli(capsys, ["verdict", "--family", "A", "--rank", "5",
                                    "-r", "4", *table])
    assert code == 0
    assert out == want


@pytest.mark.parametrize("golden,argv", [
    ("psupp_a4_line_b2.json",
     ["--family", "A", "--rank", "4", "--expr", "L[-1,2,0,-1]*b^2"]),
    ("psupp_b2_line_wedge2.json",
     ["--family", "B", "--rank", "2", "--expr", "L[-1,3]*wedge^2(g)"]),
    ("psupp_a5_b4.json", ["--family", "A", "--rank", "5", "--expr", "b^4"]),
    ("psupp_a6_b4.json", ["--family", "A", "--rank", "6", "--expr", "b^4"]),
])
def test_psupp_matches_golden(capsys, golden, argv):
    # Recorded before weights with a coordinate -1 were dropped while
    # packed (A6 b^4: before dot walks stopped at their first wall); CI
    # compares the installed script with the same files.
    with open(os.path.join(GOLDEN_DIR, golden), "r", encoding="utf-8") as fh:
        want = fh.read()
    code, out, _ = run_cli(capsys, ["psupp", *argv])
    assert code == 0
    assert out == want


def _set_module(key, pairs):
    def edit(doc):
        for entry in doc["entries"]:
            if entry["key"] == key:
                entry["module"] = pairs
    return edit


def _drop_entry(key):
    def edit(doc):
        doc["entries"] = [e for e in doc["entries"] if e["key"] != key]
    return edit


@pytest.mark.parametrize("edit,failing", [
    (_set_module("A/3/3/3", [[[2, 0, 0], 1]]), "table-b3"),  # wrong module
    (_drop_entry("A/3/3/3"), "table-b3"),  # missing degree
    (_set_module("A/3/3/2", [[[0, 0, 0], 3]]), "table-b3"),  # wrong multiplicity
    (lambda doc: doc["complete"].append("A/3/4"), "table-b4"),  # false mark
], ids=["wrong-module", "missing-degree", "wrong-multiplicity",
        "false-completeness-mark"])
def test_report_fails_on_a_mutated_table(capsys, monkeypatch, edit, failing):
    # Every covered block of the table is checked, whatever its (rank, q).
    doc = json.loads(ledger.save_table(ledger.builtin_tables()))
    edit(doc)
    text = json.dumps(doc)
    monkeypatch.setattr(cli.ledger, "builtin_tables",
                        lambda: ledger.load_table(text))
    code, out, _ = run_cli(capsys, ["report", "--family", "A", "--rank", "3"])
    assert code == 2
    failed = [c["id"] for c in json.loads(out)["payload"]["checks"]
              if c["status"] == "fail"]
    assert failing in failed


def _claim(family, rank, check_id, claim):
    """``cli._CITED_CLAIMS`` with the claim of the last row of (family, rank,
    check_id) replaced."""
    rows = list(cli._CITED_CLAIMS)
    i = max(i for i, row in enumerate(rows)
            if row[:3] == (family, rank, check_id))
    rows[i] = (family, rank, check_id, claim, rows[i][4])
    return tuple(rows)


@pytest.mark.parametrize("family,rank,check_id,claim", [
    # Letters 2 and 3 swapped.  Swapping 5 and 1 would not do: s_1 and s_5
    # commute, so (3,2,4,5,1) is the same element as (3,2,4,1,5).
    ("A", 5, "dot-identities",
     ((2, 3, 4, 1, 5), (0, 0, 2, 0, 0), (0, 0, -4, 0, 0))),
    ("B", 2, "verdict-not-normal",  # L(1,0) for L(0,1)
     (2, ("no", "unknown", "page-scan"), (-2, 2), (1, 0))),
    ("A", 5, "verdict-normalization-not-rational",  # a wrong dimension
     (4, ("unknown", "normalization-not-rational", "page-scan"), (-4, 5), 174)),
    ("A", 2, "verdict-criterion",  # r = 6 off the criterion
     (6, ("no", "unknown", "page-scan"), None, None)),
    ("A", 2, "tensor-square-page-control",  # (-1,1) is zero on the page
     (2, (-1, 1), 1)),
], ids=["dot-word", "witness-module", "witness-dimension", "criterion-path",
        "page-control-cell"])
def test_report_fails_on_a_mutated_claim(capsys, monkeypatch, family, rank,
                                         check_id, claim):
    monkeypatch.setattr(cli, "_CITED_CLAIMS",
                        _claim(family, rank, check_id, claim))
    code, out, _ = run_cli(capsys, ["report", "--family", family,
                                    "--rank", str(rank)])
    assert code == 2
    failed = [c["id"] for c in json.loads(out)["payload"]["checks"]
              if c["status"] == "fail"]
    assert failed == [check_id]


# ------------------------------------------------------------ installed script

def test_console_script_roundtrip():
    out = subprocess.run(
        [sys.executable, "-m", "bottnull.cli", "dim", "--family", "A",
         "--rank", "3", "--expr", "b^2"],
        capture_output=True, text=True)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["payload"] == {"expr": "b^2", "dim": 81}


# ---------------------------------------------------------------------- fuzz

# Half supported systems, half unsupported or malformed ranks.
_SMALL_SYSTEMS = (st.sampled_from([("A", "1"), ("A", "2"), ("B", "2")])
                  | st.sampled_from([("A", "0"), ("A", "9"), ("B", "3"),
                                     ("A", "x")]))


def _expressions(degree):
    """Expression text: grammar trees over every atom and operator, with
    powers and wedge/sym degrees drawn from ``degree``, plus loose text."""
    line = st.lists(st.integers(-3, 3), max_size=3).map(
        lambda c: "L[" + ",".join(map(str, c)) + "]")
    atom = st.sampled_from(["n", "h", "b", "g", "q", "x"]) | line

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+*"), inner).map("".join),
            st.tuples(inner, degree).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(["wedge", "sym"]), degree, inner).map(
                lambda t: f"{t[0]}^{t[1]}({t[2]})"))

    loose = st.text(alphabet="nhbgqL[]()+*^,-01 wedgsym", max_size=10)
    return st.recursive(atom, extend, max_leaves=3) | loose


_WEIGHTS = st.one_of(
    st.lists(st.integers(-3, 3), max_size=3).map(
        lambda c: "f:" + ",".join(map(str, c))),
    st.lists(st.sampled_from(["0", "1", "-2", "1/2", "3/2", "1/0", "x"]),
             max_size=3).map(lambda c: "r:" + ",".join(c)),
    st.text(alphabet="fr:,-0123/x", max_size=8))

_ENTRIES = st.sampled_from(["0", "0", "0", "1", "-1", "1/2", "-2/3", "2"])


def _square(n):
    return st.lists(st.lists(_ENTRIES, min_size=n, max_size=n),
                    min_size=n, max_size=n)


def _trace_free(m):
    m = [list(row) for row in m]
    m[-1][-1] = str(-sum((Q(m[i][i]) for i in range(len(m) - 1)), Q(0)))
    return m


def _upper(m):
    return [[x if j > i else "0" for j, x in enumerate(row)]
            for i, row in enumerate(m)]


def _matrix_docs(n):
    mats = st.lists(_square(n).map(_trace_free) | _square(n).map(_upper),
                    min_size=1, max_size=3)
    return st.one_of(
        st.fixed_dictionaries({"n": st.sampled_from([n, n + 1]),
                               "matrices": mats}),
        st.fixed_dictionaries({"g": _square(n) | _square(n + 1),
                               "matrices": mats}))


def _table_doc(value):
    doc = json.loads(ledger.save_table(ledger.builtin_tables()))
    doc["entries"][0]["module"] = value
    return doc


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | _ENTRIES
    | st.sampled_from(["1/0", "x", "trivial-unresolved"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(
                       ["n", "g", "matrices", "version", "entries",
                        "complete", "key", "module"]), inner, max_size=3)),
    max_leaves=8)

_DOCS = st.one_of(
    st.integers(1, 4).flatmap(_matrix_docs).map(json.dumps),
    _JSON.map(_table_doc).map(json.dumps),
    _JSON.map(json.dumps),
    st.text(max_size=12))


def _system(cmd, *extra):
    return st.tuples(_SMALL_SYSTEMS, *extra).map(
        lambda t: [cmd, "--family", t[0][0], "--rank", t[0][1],
                   *[a for part in t[1:] for a in part]])


_SMALL = st.integers(0, 2)
_ARGV = st.one_of(
    _system("roots"),
    _system("weyl", st.sampled_from([[], ["--word", "1,2"], ["--word", "3"],
                                     ["--word", "x"]]),
            st.sampled_from([[]]) | _WEIGHTS.map(lambda w: ["--weight", w])),
    _system("bwb", _WEIGHTS.map(lambda w: ["--weight", w])),
    *[_system(cmd, _expressions(_SMALL).map(lambda e: ["--expr", e]))
      for cmd in ("weights", "psupp", "decompose")],
    _system("mult", _expressions(_SMALL).map(lambda e: ["--expr", e]),
            _WEIGHTS.map(lambda w: ["--weight", w])),
    # dim evaluates nothing, so its exponents may be huge.
    _system("dim", _expressions(_SMALL | st.integers(5000, 10 ** 12)).map(
        lambda e: ["--expr", e])),
    st.sampled_from(["member", "flag", "resolve"]).map(
        lambda op: ["nullcone", "--input", "@FILE", "--op", op]),
    st.tuples(st.sampled_from([("A", "1"), ("A", "2"), ("A", "3"),
                               ("B", "2"), ("A", "8")]),
              st.integers(-1, 4), st.booleans()).map(
        lambda t: ["verdict", "--family", t[0][0], "--rank", t[0][1],
                   "-r", str(t[1])] + (["--table", "@FILE"] if t[2] else [])),
    st.sampled_from([("A", "1"), ("A", "2"), ("B", "2")]).map(
        lambda s: ["report", "--family", s[0], "--rank", s[1]]),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=st.tuples(_ARGV, st.sampled_from([[], ["--format", "tsv"]])),
       doc=_DOCS)
def test_cli_fuzz_exits_0_1_or_2_without_traceback(argv, doc):
    argv = argv[0] + argv[1]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
        argv = [path if a == "@FILE" else a for a in argv]
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert lines == []
    else:
        assert code in (1, 2), (argv, code)
        # One error line; argparse names the subcommand and adds a usage line.
        assert lines and re.match(r"bottnull( \w+)?: error: ", lines[-1]), lines
        assert len(lines) == 1 or (len(lines) == 2
                                   and lines[0].startswith("usage: ")), lines
