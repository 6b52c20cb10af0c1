"""CLI output pinned byte for byte: stdout, stderr and exit code per argv.

The recorded outputs live in tests/golden/cli.json; table-ring files are
committed next to it and named in argv as {golden}/<file>, so no output
holds a temporary path.  After a deliberate output change, rewrite the
record with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from ringfv.cli import main
from ringfv.residue import check_theorem_main

GOLDEN = Path(__file__).parent / "golden"
RECORD = GOLDEN / "cli.json"

F2 = "table:@{golden}/f2.json"
Z6 = "zmod:6"
Z2XZ3 = "product:zmod:2,zmod:3"

CASES = {
    "parse-ring": ["parse", "E x1. x0*x1 = 1 & ~(x0 = 0)"],
    "parse-ring-json": ["parse", "A x0. x0 = 0 | ~(x0 = 0) -> 12 = x0*3", "--json"],
    "parse-bool": ["parse", "--lang", "bool", "y0 <= y1 & ~(y0 = 0)"],
    "parse-bool-json": ["parse", "--lang", "bool", "E y2. y2 v y0 = 1", "--json"],
    "parse-bool-numeral": ["parse", "--lang", "bool", "5000 = y0"],
    "parse-bool-nested": ["parse", "--lang", "bool", "(" * 30 + "y0 = 1" + ")" * 30],
    "parse-numeral-limit": ["parse", "4096 = 0"],
    "parse-error": ["parse", "x0 = "],
    "eval-zmod": ["eval", "--ring", Z6, "--formula", "E x1. x0*x1 = 1",
                  "--assign", "x0=5"],
    "eval-zmod-json": ["eval", "--ring", Z6, "--formula", "E x1. x3*x1 = 1",
                       "--assign", "x003=2", "--json"],
    "eval-product": ["eval", "--ring", "product:zmod:4,zmod:9",
                     "--formula", "x0*x0 = x0", "--assign", "x0=(1,0)"],
    "eval-product-json": ["eval", "--ring", Z2XZ3, "--formula", "x0*x1 = 0",
                          "--assign", "x0=(1,0),x1=[0,2]", "--json"],
    "eval-table": ["eval", "--ring", F2, "--formula", "x0*x0 = x0",
                   "--assign", "x0=1"],
    "eval-table-json": ["eval", "--ring", F2, "--formula", "E x1. x0+x1 = 0",
                        "--assign", "x0=1.0", "--json"],
    "eval-unbound": ["eval", "--ring", Z6, "--formula", "x0 = x1",
                     "--assign", "x0=1"],
    "eval-bad-variable": ["eval", "--ring", Z6, "--formula", "x0 = 0",
                          "--assign", "y0=1"],
    "eval-bad-literal": ["eval", "--ring", Z6, "--formula", "x0 = 0",
                         "--assign", "x0=("],
    "eval-not-an-element": ["eval", "--ring", Z6, "--formula", "x0 = 0",
                            "--assign", "x0=7"],
    "translate-atom": ["translate", "--formula", "x0 = 0"],
    "translate-exists-json": ["translate", "--formula",
                              "E x1. x0*x1 = 1 & ~(x0 = 0)", "--json"],
    "translate-and3": ["translate", "--formula", "x0 = 0 & x1 = 1 & x0*x1 = x1"],
    "translate-forall-json": ["translate", "--formula", "A x0. E x1. x0*x1 = x0",
                              "--json"],
    "translate-depth-refusal": ["translate", "--formula",
                                "E x0. E x1. E x2. E x3. x0*x1 = x2*x3"],
    "translate-cell-refusal": ["translate", "--formula",
                               "E x0. E x1. x0*x1 = 0 & ~(x0 = 0)"],
    "translate-cell-refusal-huge": ["translate", "--formula",
                                    "A x0. A x1. x0*x1 = 0 -> x0 = 0 | x1 = 0"],
    "check-z6-smoke": ["check", "--ring", Z6, "--formula-suite", "smoke"],
    "check-z6-smoke-json": ["check", "--ring", Z6, "--formula-suite", "smoke",
                            "--json"],
    "check-z2xz3-atomic": ["check", "--ring", Z2XZ3, "--formula-suite", "atomic"],
    "axioms-z6": ["axioms", "--ring", Z6, "--budget", "16"],
    "equiv-z6": ["equiv", "--left", Z6, "--right", Z2XZ3],
    "equiv-z6-json": ["equiv", "--left", Z6, "--right", Z2XZ3, "--json"],
    "equiv-z12-json": ["equiv", "--left", "zmod:12",
                       "--right", "product:zmod:4,zmod:3", "--json"],
    "atoms-z60": ["atoms", "--ring", "zmod:60"],
    "atoms-z60-json": ["atoms", "--ring", "zmod:60", "--json"],
    "atoms-z2xz9": ["atoms", "--ring", "product:zmod:2,zmod:9"],
    "atoms-table-json": ["atoms", "--ring", F2, "--json"],
    "atoms-z1": ["atoms", "--ring", "zmod:1"],
    "atoms-oversized": ["atoms", "--ring", "zmod:1000001"],
    "atoms-bad-modulus": ["atoms", "--ring", "zmod:x"],
    "atoms-table-without-size": ["atoms", "--ring", "table:@{golden}/no_size.json"],
}


def replay(argv) -> dict:
    argv = [a.replace("{golden}", str(GOLDEN)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_record_covers_the_case_list(record):
    assert sorted(record) == sorted(CASES)
    assert all(record[name]["argv"] == argv for name, argv in CASES.items())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_record(record, name):
    expected = record[name]
    assert replay(CASES[name]) == {k: expected[k] for k in ("exit", "stdout", "stderr")}


def test_equiv_rows_are_the_theorem_verdicts():
    result = replay(CASES["equiv-z12-json"])
    rows = json.loads(result["stdout"])["sentences"]
    assert rows == [vars(v) | {"ok": v.ok} for v in check_theorem_main(12).verdicts]


if __name__ == "__main__":
    recorded = {name: {"argv": argv} | replay(argv) for name, argv in CASES.items()}
    RECORD.write_text(json.dumps(recorded, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(recorded)} cases in {RECORD}", file=sys.stderr)
