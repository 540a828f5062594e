"""Stored CLI runs, byte for byte: stdout, stderr and exit code of a fixed
corpus that covers every subcommand in JSON and, where it has one, TSV.

The stored files were written by the code as it stood before the CLI got
one output path; the ``VERDICT_RANGE`` records, before page cells stopped
holding a decomposed module.  ``python tests/test_cli_golden.py`` writes
them again from the ``bottnull`` on ``sys.path``; run it only to record a
deliberate change of output.
"""

import io
import json
import os
import shlex
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from bottnull import cli

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# Input documents, written into the working directory of every run.
INPUTS = {
    "tuple.json": {"n": 3, "matrices": [
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]]]},
    "pair.json": {"n": 2, "matrices": [
        [[0, 1], [0, 0]],
        [[0, 0], [1, 0]]]},
    "res.json": {"g": [["1/2", "1"], ["0", "3"]],
                 "matrices": [[["0", "2"], ["0", "0"]]]},
}

CORPUS = {
    "roots_a2": "roots --family A --rank 2",
    "roots_b2_tsv": "roots --family B --rank 2 --format tsv",
    "weyl_b2": "weyl --family B --rank 2",
    "weyl_b2_tsv": "weyl --family B --rank 2 --format tsv",
    "weyl_a2_word": "weyl --family A --rank 2 --word 2,1 --weight f:-6,3",
    "weyl_a2_word_tsv": ("weyl --family A --rank 2 --word 2,1 --weight f:-6,3 "
                         "--format tsv"),
    "weyl_a3_word_tsv": "weyl --family A --rank 3 --word 1,2,1,2 --format tsv",
    "bwb_a2_nonvanishing": "bwb --family A --rank 2 --weight f:-6,3",
    "bwb_a2_nonvanishing_tsv": ("bwb --family A --rank 2 --weight f:-6,3 "
                                "--format tsv"),
    "bwb_a2_vanishing": "bwb --family A --rank 2 --weight f:-1,0",
    "bwb_a2_vanishing_tsv": "bwb --family A --rank 2 --weight f:-1,0 --format tsv",
    "weights_b2": "weights --family B --rank 2 --expr 'wedge^2(n)'",
    "weights_b2_tsv": "weights --family B --rank 2 --expr 'wedge^2(n)' --format tsv",
    "psupp_a2": "psupp --family A --rank 2 --expr b^3",
    "psupp_a2_tsv": "psupp --family A --rank 2 --expr b^3 --format tsv",
    "mult_a2": "mult --family A --rank 2 --expr 'g*g' --weight f:1,1",
    "mult_a2_tsv": "mult --family A --rank 2 --expr 'g*g' --weight f:1,1 --format tsv",
    "dim_a3": "dim --family A --rank 3 --expr b^2",
    "dim_a3_tsv": "dim --family A --rank 3 --expr b^2 --format tsv",
    "decompose_a2": "decompose --family A --rank 2 --expr 'g*g'",
    "decompose_a2_tsv": "decompose --family A --rank 2 --expr 'g*g' --format tsv",
    # Products, powers, wedges and sums of G-modules, recorded while
    # decompose still evaluated every weight of the expression.
    "decompose_a6_wedge3": "decompose --family A --rank 6 --expr 'wedge^3(g)'",
    "decompose_a5_sum": "decompose --family A --rank 5 --expr 'g+wedge^2(g)'",
    "decompose_b2_wedge2": "decompose --family B --rank 2 --expr 'wedge^2(g)'",
    "decompose_b2_wedge2_tsv": ("decompose --family B --rank 2 "
                                "--expr 'wedge^2(g)' --format tsv"),
    "decompose_a4_line_power": ("decompose --family A --rank 4 "
                                "--expr 'L[0,0,0,0]*g^2'"),
    "nullcone_member": "nullcone --input tuple.json",
    "nullcone_flag": "nullcone --input tuple.json --op flag",
    "nullcone_nonmember_flag": "nullcone --input pair.json --op flag",
    "nullcone_resolve": "nullcone --input res.json --op resolve",
    "verdict_a2": "verdict --family A --rank 2 -r 2",
    "verdict_a3": "verdict --family A --rank 3 -r 3",
    "report_a2_tsv": "report --family A --rank 2 --format tsv",
    "report_b2_tsv": "report --family B --rank 2 --format tsv",
    # Error paths: the -r check comes before the rank check.
    "verdict_a9_r0": "verdict --family A --rank 9 -r 0",
    "verdict_gap": "verdict --family A --rank 3 -r 4",
    "roots_a9": "roots --family A --rank 9",
    "dim_bad_expr": "dim --family A --rank 2 --expr b+",
    "weyl_bad_word": "weyl --family A --rank 2 --word 3",
    "nullcone_absent": "nullcone --input absent.json",
    # The first weight that fails the invariance check names the error, so
    # these pin the order in which evaluation first meets each weight.
    "decompose_a3_b2_not_invariant": "decompose --family A --rank 3 --expr b^2",
    "mult_a2_line_g_not_invariant": ("mult --family A --rank 2 --expr 'L[1,0]*g' "
                                     "--weight f:0,0"),
    "decompose_b2_wedge_not_invariant": ("decompose --family B --rank 2 "
                                         "--expr 'wedge^2(b)+q'"),
    # A coordinate wider than a machine word, through tensor, wedge and sym.
    "weights_a2_wide": ("weights --family A --rank 2 --expr "
                        "'L[100000000000000000000,-3]*wedge^2(b)+sym^2(L[-7,2])'"),
}

# (family, rank) -> the largest r of the benchmark's verdict range; every
# verdict in it is recorded.
VERDICT_RANGE = {("A", 1): 6, ("A", 2): 6, ("A", 3): 3, ("A", 4): 3,
                 ("A", 5): 4, ("A", 6): 4, ("A", 7): 3, ("B", 2): 2}
VERDICTS = {f"verdict_{f.lower()}{rank}_r{r}":
            f"verdict --family {f} --rank {rank} -r {r}"
            for (f, rank), top in VERDICT_RANGE.items()
            for r in range(1, top + 1)}
CORPUS.update({name: cmd for name, cmd in VERDICTS.items()
               if cmd not in CORPUS.values()})


def run_case(name: str) -> str:
    """Run one corpus command in the current directory; the record of it."""
    for file_name, doc in INPUTS.items():
        with open(file_name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    argv = shlex.split(CORPUS[name])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return (f"$ bottnull {shlex.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"cli_{name}.txt")


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open(golden_path(name), "r", encoding="utf-8") as fh:
        want = fh.read()
    assert run_case(name) == want


if __name__ == "__main__":
    for case in sorted(CORPUS):
        with tempfile.TemporaryDirectory() as tmp:
            here = os.getcwd()
            os.chdir(tmp)
            try:
                text = run_case(case)
            finally:
                os.chdir(here)
        with open(golden_path(case), "w", encoding="utf-8") as fh:
            fh.write(text)
        print(golden_path(case))
