"""Command-line interface: subcommands, exit codes, JSON schemas."""

import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from ringfv.cli import (EXIT_FAIL, EXIT_OK, EXIT_USAGE, MAX_TABLE_SIZE, main,
                        parse_assignment, parse_ring_descriptor)
from ringfv.rings import modular_ring, product_ring


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload, schema_name):
    schema = json.loads(
        resources.files("ringfv.schemas").joinpath(schema_name).read_text())
    jsonschema.validate(payload, schema)


# --- descriptors and assignments ---

def test_parse_ring_descriptor_zmod():
    assert parse_ring_descriptor("zmod:6").label == "Z/6"
    assert parse_ring_descriptor("zmod:1000000").size == 10**6  # the limit


def test_parse_ring_descriptor_product():
    ring = parse_ring_descriptor("product:zmod:2,zmod:3")
    assert ring.label == "Z/2 x Z/3" and ring.size == 6


F2_TABLE = {"size": 2, "add": [0, 1, 1, 0], "mul": [0, 0, 0, 1],
            "zero": 0, "one": 1, "label": "F2"}


def write_table(tmp_path, table=F2_TABLE):
    path = tmp_path / "f2.json"
    path.write_text(json.dumps(table))
    return f"table:@{path}"


def test_parse_ring_descriptor_table(tmp_path):
    ring = parse_ring_descriptor(write_table(tmp_path))
    assert ring.label == "F2" and ring.size == 2


@pytest.mark.parametrize("bad", [{"size": "2"}, {"one": 1.0}, {"add": "0110"},
                                 {"label": 5}])
def test_table_with_mistyped_field_is_rejected(capsys, tmp_path, bad):
    ring = write_table(tmp_path, F2_TABLE | bad)
    code, _, err = run_cli(capsys, "atoms", "--ring", ring)
    (key,) = bad
    assert code == EXIT_USAGE and key in err


@pytest.mark.parametrize("key", ["size", "add", "mul", "zero", "one"])
def test_table_with_missing_field_is_rejected(capsys, tmp_path, key):
    table = {k: v for k, v in F2_TABLE.items() if k != key}
    code, out, err = run_cli(capsys, "atoms", "--ring", write_table(tmp_path, table))
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: table ring file has no {key!r}\n"


def test_table_over_the_size_limit_is_refused(capsys, tmp_path):
    n = MAX_TABLE_SIZE + 1
    table = {"size": n, "zero": 0, "one": 1,
             "add": [(a + b) % n for a in range(n) for b in range(n)],
             "mul": [a * b % n for a in range(n) for b in range(n)]}
    code, out, err = run_cli(capsys, "atoms", "--ring", write_table(tmp_path, table))
    assert code == EXIT_USAGE and out == ""
    assert err == (f"error: table ring has {n} elements, "
                   f"above the limit {MAX_TABLE_SIZE}\n")


@pytest.mark.parametrize("ring, message", [
    ("zmod:x", "bad zmod modulus 'x'"),
    ("zmod:", "bad zmod modulus ''"),
    ("zmod:-6", "bad zmod modulus '-6'"),
    ("product:zmod:2,zmod:x", "bad zmod modulus 'x'"),
    ("zmod:" + "9" * 5000, "zmod modulus has 5000 digits, more than 4300"),
], ids=["letter", "empty", "negative", "product-factor", "long"])
def test_bad_ring_modulus_is_a_usage_error(capsys, ring, message):
    code, out, err = run_cli(capsys, "atoms", "--ring", ring)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {message}\n"


def test_parse_ring_descriptor_errors():
    with pytest.raises(ValueError):
        parse_ring_descriptor("zmod6")
    with pytest.raises(ValueError):
        parse_ring_descriptor("product:product:zmod:2,zmod:3,zmod:5")


def test_parse_assignment_tuples():
    ring = product_ring([modular_ring(2), modular_ring(3)])
    env = parse_assignment("x0=(1,0),x1=(0,2)", ring)
    assert env == {0: (1, 0), 1: (0, 2)}
    with pytest.raises(ValueError):
        parse_assignment("x0=(9,9)", ring)
    with pytest.raises(ValueError):
        parse_assignment("y0=1", modular_ring(6))
    with pytest.raises(ValueError):
        parse_assignment("x0=(", modular_ring(6))


# --- subcommands ---

def test_atoms_text(capsys):
    code, out, _ = run_cli(capsys, "atoms", "--ring", "zmod:6")
    assert code == EXIT_OK
    assert "idempotents: 0, 1, 3, 4" in out
    assert "atoms: 3, 4" in out
    assert "stalk at 3: 2 elements, connected" in out
    assert "stalk at 4: 3 elements, connected" in out


def test_python_dash_m_runs_the_cli(capsys):
    _, expected, _ = run_cli(capsys, "atoms", "--ring", "zmod:6")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "ringfv", "atoms", "--ring", "zmod:6"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == expected


def test_atoms_json_schema(capsys):
    code, out, _ = run_cli(capsys, "atoms", "--ring", "zmod:60", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload, "atoms.schema.json")
    assert payload["atoms"] == [36, 40, 45]


def test_parse_subcommand(capsys):
    code, out, _ = run_cli(capsys, "parse", "0 = 0", "--json")
    assert code == EXIT_OK
    validate(json.loads(out), "parse.schema.json")


def test_parse_bool_subcommand(capsys):
    code, out, _ = run_cli(capsys, "parse", "y0 <= y1", "--lang", "bool")
    assert code == EXIT_OK and "y0 <= y1" in out


def test_eval_subcommand(capsys):
    code, out, _ = run_cli(capsys, "eval", "--ring", "zmod:6",
                           "--formula", "E x1. x0*x1 = 1",
                           "--assign", "x0=2", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload, "eval.schema.json")
    assert payload["result"] is False and payload["boolean_value"] == 4


@pytest.mark.parametrize("ring", ["zmod:6", "table"])
def test_eval_float_literal_is_the_carrier_element(capsys, tmp_path, ring):
    if ring == "table":
        ring = write_table(tmp_path)
    code, out, _ = run_cli(capsys, "eval", "--ring", ring, "--formula", "x0 = 1",
                           "--assign", "x0=1.0", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload, "eval.schema.json")
    assert payload["assignment"] == {"x0": 1} and payload["result"] is True


@pytest.mark.parametrize("literal", ["(1000, 0)", "(0, 0, 0)", "(1.5, 0)", "5"])
def test_eval_refuses_a_value_outside_a_large_product(capsys, literal):
    code, _, err = run_cli(capsys, "eval", "--ring", "product:zmod:1000,zmod:1000",
                           "--formula", "x0 = x0", "--assign", f"x0={literal}")
    assert code == EXIT_USAGE
    assert err == f"error: {literal} is not an element of Z/1000 x Z/1000\n"


def test_translate_subcommand(capsys):
    code, out, _ = run_cli(capsys, "translate", "--formula", "x0 = 0", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload, "translate.schema.json")
    assert payload["cell_count"] == 2 and payload["psi"] == "y0 = 1"


def test_check_subcommand_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--ring", "zmod:6",
                           "--formula-suite", "smoke", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload, "check.schema.json")
    assert payload["ok"] is True


def test_check_subcommand_file_suite(capsys, tmp_path):
    path = tmp_path / "suite.txt"
    path.write_text("# comment\n0 = 0\nE x0. x0 = 0\n\n")
    code, out, _ = run_cli(capsys, "check", "--ring", "zmod:4",
                           "--formula-suite", f"@{path}")
    assert code == EXIT_OK and "2 formulas" in out


def test_axioms_subcommand(capsys):
    code, out, _ = run_cli(capsys, "axioms", "--ring", "zmod:6",
                           "--budget", "16", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload, "axioms.schema.json")
    assert payload["ok"] is True


def test_equiv_subcommand(capsys):
    code, out, _ = run_cli(capsys, "equiv", "--left", "zmod:6",
                           "--right", "product:zmod:2,zmod:3", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload, "equiv.schema.json")
    assert payload["ok"] is True and len(payload["sentences"]) == 30


def test_equiv_rejects_open_formulas(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("x0 = 0\n")
    code, _, err = run_cli(capsys, "equiv", "--left", "zmod:6",
                           "--right", "zmod:6", "--sentences", str(path))
    assert code == EXIT_USAGE and "free variables" in err


# --- exit codes and config ---

def test_exit_usage_on_bad_formula(capsys):
    code, _, err = run_cli(capsys, "parse", "x0 = ")
    assert code == EXIT_USAGE and "error:" in err


def test_exit_usage_on_bad_ring(capsys):
    code, _, err = run_cli(capsys, "atoms", "--ring", "zmod:1")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("parse", "4097 = 0"),
    ("parse", "(" * 3000 + "x0 = 0" + ")" * 3000),
    ("parse", "~" * 700 + "x0 = 0"),
    ("atoms", "--ring", "zmod:1000001"),
    ("atoms", "--ring", "product:zmod:1000,zmod:1001"),
    ("translate", "--formula", "E x0. E x1. E x2. x0 = 0 & x1 = 0 & x2 = 0"),
    ("translate", "--formula", "E x0. E x1. E x2. E x3. E x4. x0 = x4"),
], ids=["numeral", "parentheses", "negations", "zmod", "product",
        "cells-past-int", "depth-past-int"])
def test_exit_usage_on_oversized_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == "" and err.startswith("error:")


LONG_RUN = "9" * 5000


@pytest.mark.parametrize("argv, column", [
    (("parse", "x0 = " + LONG_RUN), 6),
    (("parse", "x0 = x" + LONG_RUN), 6),
    (("parse", "--lang", "bool", "y0 = y0 & part" + LONG_RUN + "(y0)"), 11),
], ids=["numeral", "variable-index", "part-arity"])
def test_long_digit_run_is_a_parse_error(capsys, argv, column):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: 1:{column}: ") and err.count("\n") == 1
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("assign", [
    "x" + LONG_RUN + "=1", "x\u00b2=1", "x0=abc", "x0=--1",
    "x0=" + "-" * 20000 + "1", "x0=" + LONG_RUN,
    "x0=[" + ",".join(["0"] * 3000) + "]", "x0=" + "9" * 900,
    "y" + LONG_RUN + "=1",
], ids=["long-index", "superscript-digit", "name", "double-minus",
        "20000-minuses", "5000-nines", "3000-list", "900-nines", "long-name"])
def test_bad_assignment_variable_is_a_usage_error(capsys, assign):
    """Bad names and literals alike: one short line of the program's own text."""
    argv = ["eval", "--ring", "zmod:6", "--formula", "x0 = 0", "--assign", assign]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "set_int_max_str_digits" not in err and "int()" not in err
    assert "0x" not in err and len(err) < 120
    assert (code, out, err) == run_cli(capsys, *argv)


@pytest.mark.parametrize("assign", ["x0=1,x0=2", "x0=1,x00=2"],
                         ids=["same-name", "leading-zero"])
def test_repeated_assignment_variable_is_a_usage_error(capsys, assign):
    code, out, err = run_cli(capsys, "eval", "--ring", "zmod:6",
                             "--formula", "x0 = 0", "--assign", assign)
    assert code == EXIT_USAGE and out == ""
    assert err == "error: variable x0 is assigned twice\n"


def test_assignment_index_leading_zeros_do_not_count():
    assert parse_assignment("x" + "0" * 5000 + "3=2", modular_ring(6)) == {3: 2}


def test_atoms_on_twelve_factor_product(capsys):
    ring = "product:" + ",".join(["zmod:2"] * 12)
    code, out, _ = run_cli(capsys, "atoms", "--ring", ring)
    assert code == EXIT_OK
    assert out.count(": 2 elements, connected") == 12


def test_exit_usage_on_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_depth_three_is_refused_by_the_cell_cap(capsys):
    code, out, err = run_cli(capsys, "translate",
                             "--formula", "E x0. E x1. E x2. x0 = x1")
    assert code == EXIT_USAGE and out == ""
    assert err == ("error: translation would have about 65536 cells, "
                   "beyond the cap 4096\n")
    code, _, err = run_cli(capsys, "translate", "--formula", "0 = 0",
                           "--max-depth", "3")
    assert code == EXIT_USAGE and "unrecognized arguments: --max-depth" in err


def test_byte_identical_reruns(capsys):
    argv = ["check", "--ring", "zmod:6", "--formula-suite", "smoke", "--json"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_axioms_budget_below_one_is_a_usage_error(capsys, budget):
    code, out, err = run_cli(capsys, "axioms", "--ring", "zmod:60",
                             "--budget", budget)
    assert code == EXIT_USAGE and out == ""
    assert err == (f"error: budget max_assignments must be at least 1, "
                   f"got {budget}\n")


def test_axioms_budget_one_checks_every_axiom(capsys):
    code, out, err = run_cli(capsys, "axioms", "--ring", "zmod:60",
                             "--budget", "1")
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    assert len(lines) == 11 and lines[-1] == "result: PASS"
    assert all(": pass (" in line and "(0 instances)" not in line
               for line in lines[1:-1])


# --- fuzzing: every argv ends with exit 0, 1 or 2 and no traceback ---

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
FUZZ_RINGS = ("zmod:2", "zmod:4", "zmod:6", "zmod:12", "product:zmod:2,zmod:3",
              "product:zmod:2,zmod:2", "product:zmod:2,zmod:4",
              "table:@{golden}/f2.json")
FUZZ_BAD_RINGS = ("", "ring", "zmod:", "zmod:0", "zmod:1", "zmod:-3", "zmod:x",
                  "zmod:²", "zmod:99999999999", "product:",
                  "product:zmod:2,product:zmod:3", "table:@{golden}/no_size.json",
                  "table:@{golden}/missing.json", "table:@{golden}")
FUZZ_FORMULAS = ("x0 = 0", "x0*x1 = 1", "E x1. x0*x1 = x0 & ~(x1 = 1)",
                 "A x0. x0 = 0 | ~(x0*x0 = x0)", "x0 = 1 -> E x1. x1*x1 = x0",
                 "0 = 0", "x2 + x0 = 3")
FUZZ_BOOL_FORMULAS = ("y0 <= y1", "part3(y0, y1, y2)", "E w0. w0 = y0 ^ ~y1",
                      "A y0. y0 = 0 | ~(y0 = 1)")
FUZZ_ASSIGNMENTS = ("x0=1", "x0=1,x1=0", "x0=(1,0)", "x1=(0,1),x0=(1,1)")
FUZZ_BAD_ASSIGNMENTS = ("", "x0=", "x0=1,x0=2", "y0=1", "x0=[1,", "x0=99",
                        "=1", "x0==1", ",,", "x0=1.5")
FUZZ_INTS = ("1", "2", "3")
FUZZ_BAD_INTS = ("0", "-1", "x", "", "9" * 30)
FUZZ_SUITES = ("smoke", "@{sentences}")
FUZZ_BAD_SUITES = ("nosuch", "@{golden}/missing.txt", "@{golden}")
FUZZ_ALPHABET = "xyw0123456789=+-*~&|()<>^v.,AE !²"


def _mutate(rng, text):
    """Delete, insert or replace one character, or cut the text short."""
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(4)
    if op == 3:
        return text[:i]
    return text[:i] + ("" if op == 0 else rng.choice(FUZZ_ALPHABET)) + text[i + (op != 1):]


def _fuzz_argv(rng, command, sentences):
    """Half the argvs are well formed; in the rest each input is malformed
    with probability one half, from a list of bad values or by mutation."""
    broken = rng.random() < 0.5

    def pick(good, bad=()):
        value = rng.choice(good)
        if broken and rng.random() < 0.5:
            value = rng.choice(bad) if bad and rng.random() < 0.5 else _mutate(rng, value)
        return value.replace("{golden}", GOLDEN).replace("{sentences}", sentences)

    ring = lambda: pick(FUZZ_RINGS, FUZZ_BAD_RINGS)
    formula = lambda: pick(FUZZ_FORMULAS)
    if command == "parse":
        argv = (["parse", formula()] if rng.random() < 0.5 else
                ["parse", pick(FUZZ_BOOL_FORMULAS), "--lang", "bool"])
    elif command == "eval":
        argv = ["eval", "--ring", ring(), "--formula", formula(),
                "--assign", pick(FUZZ_ASSIGNMENTS, FUZZ_BAD_ASSIGNMENTS)]
    elif command == "translate":
        argv = ["translate", "--formula", formula()]
    elif command == "check":
        argv = ["check", "--ring", ring(), "--formula-suite",
                pick(FUZZ_SUITES, FUZZ_BAD_SUITES)]
    elif command == "axioms":
        argv = ["axioms", "--ring", ring(), "--budget", pick(FUZZ_INTS, FUZZ_BAD_INTS),
                "--seed", pick(FUZZ_INTS, FUZZ_BAD_INTS)]
    elif command == "equiv":
        argv = ["equiv", "--left", ring(), "--right", ring(), "--sentences",
                pick(("default30", "{sentences}"), ("{golden}", "{golden}/f2.json"))]
    else:
        argv = ["atoms", "--ring", ring()]
    if rng.random() < 0.3:
        argv.append("--json")
    return argv


@pytest.mark.parametrize("command", ["parse", "eval", "translate", "check",
                                     "axioms", "equiv", "atoms"])
def test_cli_fuzz_exit_codes(capsys, tmp_path, command):
    """Seeded argvs over rings of at most 12 elements: exit 0, 1 or 2 only,
    and never a traceback.  Some argv exits 0, so a flag the parser no
    longer knows cannot turn a command's fuzzing into usage errors only."""
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("E x0. x0*x0 = x0 & ~(x0 = 0)\n"
                         "A x0. x0 = 0 | x0 = 1\nE x0. x0*x0 = 1 + 1\n")
    codes = []
    for i in range(25):
        argv = _fuzz_argv(random.Random(f"{command}-{i}"), command, str(sentences))
        code, _, err = run_cli(capsys, *argv)
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE), argv
        assert "Traceback" not in err, argv
        codes.append(code)
    assert EXIT_OK in codes
