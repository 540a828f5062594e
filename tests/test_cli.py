"""End-to-end command-line tests: envelope shape, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

from bottnull import cli, ledger, nullcone, repthy

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


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


def test_nullcone_rejects_tsv(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(nullcone.tuple_to_json(
        nullcone.MatrixTuple(n=2, matrices=(((0, 1), (0, 0)),))))
    code, _, err = run_cli(capsys, ["nullcone", "--input", str(path),
                                    "--format", "tsv"])
    assert code == 1


def test_verdict_rejects_tsv(capsys):
    code, _, err = run_cli(capsys, ["verdict", "--family", "A", "--rank", "2",
                                    "-r", "2", "--format", "tsv"])
    assert code == 1


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
    # A2's distinct-roots check is exhaustive: the seed leaves the golden.
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


def _table_with(tmp, weight):
    """The built-in table, saved with the A/2/2/1 module set to ``weight``."""
    doc = json.loads(ledger.save_table(ledger.builtin_tables()))
    (entry,) = [e for e in doc["entries"] if e["key"] == "A/2/2/1"]
    entry["module"] = [[weight, 1]]
    return _write(tmp, "t.json", json.dumps(doc))


def _verdict_with_table(tmp, weight):
    return ["verdict", "--family", "A", "--rank", "2", "-r", "3",
            "--table", _table_with(tmp, weight)]


MALFORMED_INPUTS = {
    "verdict-r-0": lambda tmp: ["verdict", "--family", "A", "--rank", "2",
                                "-r", "0"],
    "table-not-json": lambda tmp: [
        "verdict", "--family", "A", "--rank", "2", "-r", "2",
        "--table", _write(tmp, "t.json", "{not json")],
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


def test_user_table_that_validates_gives_a_verdict(tmp_path, capsys):
    code, out, err = run_cli(capsys, _verdict_with_table(tmp_path, [0, 0]))
    assert code == 0, err
    assert json.loads(out)["payload"]["normal"] == ledger.NORMAL_YES


def test_runaway_expression_exits_2_on_its_cost_cap():
    # Dimension 2.2e13: refused by the evaluation cost cap, not run.
    proc = subprocess.run(
        [sys.executable, "-m", "bottnull.cli", "psupp", "--family", "A",
         "--rank", "7", "--expr", "sym^12(g)"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "bottnull: error: expression evaluation exceeds the cost cap of "
        "5000000 weight terms"]


# -------------------------------------------------------------------- report

# Stored report outputs, byte for byte.  A7 runs the signed-orbit mult_in
# at full size and the sampled distinct-roots check.
REPORT_SYSTEMS = [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6), ("A", 7),
                  ("B", 2)]


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


def test_report_failure_exits_2(capsys, monkeypatch):
    # Sabotage one ingredient: the report must flag it and exit 2.
    monkeypatch.setattr(cli.repthy, "invariant_dim",
                        lambda rs, expr: 0)
    code, out, _ = run_cli(capsys, ["report", "--family", "A", "--rank", "2"])
    assert code == 2
    doc = json.loads(out)
    failed = [c["id"] for c in doc["payload"]["checks"]
              if c["status"] == "fail"]
    assert "tensor-square-a" in failed


# ------------------------------------------------------------ installed script

def test_console_script_roundtrip():
    out = subprocess.run(
        [sys.executable, "-m", "bottnull.cli", "dim", "--family", "A",
         "--rank", "3", "--expr", "b^2"],
        capture_output=True, text=True)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["payload"] == {"expr": "b^2", "dim": 81}
