"""Batch command-line interface.

Subcommands: parse, eval, translate, check, axioms, equiv, atoms.  Exit
code 0 on success or all-pass, 1 on any mismatch or axiom failure, 2 on
usage, parse or input errors.  Output is deterministic: identical argv
give byte-identical output.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys

from .axioms import CheckBudget, run_axiom_suite
from .formula import (MAX_DIGITS, canonicalize, format_ring_formula,
                      free_variables, parse_bool_formula, parse_ring_formula)
from .residue import DEFAULT_SENTENCES, compare_sentences
from .rings import (atom_stalks, atoms, idempotents, is_connected,
                    modular_ring, product_ring, table_ring)
from .semantics import boolean_value, eval_direct
from .suites import available_suites, formula_suite
from .translate import oracle_sweep, translate

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

# Every command that takes a ring scans its carrier, so larger rings are refused.
MAX_RING_SIZE = 10**6
# A table ring's axioms are checked in time cubic in its size: 256 elements
# take about 4 s, so larger tables are refused before any table is scanned.
MAX_TABLE_SIZE = 256
# Longer than any element literal of a ring within MAX_RING_SIZE.
MAX_LITERAL = 1000


def _echo(text: str) -> str:
    """Input echoed in an error message, cut so the message stays one short line."""
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def _parse_decimal(digits: str, what: str) -> int:
    """The tokenizer's numeral rule: decimal digits only, at most MAX_DIGITS
    of them after leading zeros, checked before int() runs."""
    if not digits.isdecimal():
        raise ValueError(f"bad {what} {_echo(repr(digits))}")
    significant = digits.lstrip("0")
    if len(significant) > MAX_DIGITS:
        raise ValueError(f"{what} has {len(significant)} digits, "
                         f"more than {MAX_DIGITS}")
    return int(significant or "0")


def _check_ring_size(text: str, size: int) -> None:
    if size > MAX_RING_SIZE:
        raise ValueError(f"ring {text!r} has {size} elements, "
                         f"above the limit {MAX_RING_SIZE}")


def parse_ring_descriptor(text: str):
    """zmod:<n>, product:<desc>,<desc>,... (flat), or table:@<json file>."""
    if text.startswith("zmod:"):
        n = _parse_decimal(text[5:], "zmod modulus")
        _check_ring_size(text, n)
        return modular_ring(n)
    if text.startswith("product:"):
        parts = [p for p in text[8:].split(",") if p]
        if any(p.startswith("product:") for p in parts):
            raise ValueError("nested product descriptors are not supported")
        factors = [parse_ring_descriptor(p) for p in parts]
        _check_ring_size(text, math.prod(f.size for f in factors))
        return product_ring(factors)
    if text.startswith("table:@"):
        with open(text[7:], encoding="utf-8") as fh:
            data = json.load(fh)
        _check_table(data)
        size = data["size"]
        add = [data["add"][i * size:(i + 1) * size] for i in range(size)]
        mul = [data["mul"][i * size:(i + 1) * size] for i in range(size)]
        return table_ring(add, mul, data["zero"], data["one"], data.get("label"))
    raise ValueError(f"unknown ring descriptor {text!r}; "
                     "use zmod:<n>, product:..., or table:@<file>")


def _check_table(data) -> None:
    """Types and lengths of a table-ring file, checked before any use."""
    if not isinstance(data, dict):
        raise ValueError("a table ring file must hold a JSON object")
    for key in ("size", "add", "mul", "zero", "one"):
        if key not in data:
            raise ValueError(f"table ring file has no {key!r}")
    for key in ("size", "zero", "one"):
        if type(data[key]) is not int:
            raise ValueError(f"table ring {key!r} must be an integer")
    if data["size"] > MAX_TABLE_SIZE:
        raise ValueError(f"table ring has {data['size']} elements, "
                         f"above the limit {MAX_TABLE_SIZE}")
    for key in ("add", "mul"):
        table = data[key]
        if not isinstance(table, list) or any(type(v) is not int for v in table):
            raise ValueError(f"table ring {key!r} must be a list of integers")
        if len(table) != data["size"] ** 2:
            raise ValueError(f"table ring {key!r} must have size*size entries")
    if data.get("label") is not None and type(data["label"]) is not str:
        raise ValueError("table ring 'label' must be a string")


def _split_top_level(text: str) -> list:
    parts, depth, current = [], 0, []
    for c in text:
        if c == "," and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        depth += c in "([{"
        depth -= c in ")]}"
        current.append(c)
    parts.append("".join(current))
    return [p for p in parts if p.strip()]


def parse_assignment(text: str, ring) -> dict:
    """x0=3,x1=(1,0) style assignment literals, validated against the ring."""
    env = {}
    for item in _split_top_level(text):
        name, _, literal = item.partition("=")
        name, literal = name.strip(), literal.strip()
        if not name.startswith("x"):
            raise ValueError(f"bad assignment variable {_echo(repr(name))}")
        index = _parse_decimal(name[1:], "assignment variable index")
        if index in env:
            raise ValueError(f"variable {_echo(f'x{index}')} is assigned twice")
        if len(literal) > MAX_LITERAL:
            raise ValueError(f"assignment literal has {len(literal)} characters, "
                             f"more than {MAX_LITERAL}")
        try:
            value = ast.literal_eval(literal)
        except (SyntaxError, ValueError, TypeError, MemoryError, RecursionError):
            raise ValueError(f"bad assignment literal {_echo(repr(literal))}") from None
        if isinstance(value, list):
            value = tuple(value)
        try:
            # the carrier's own element, so 1.0 on Z/6 becomes 1
            value = ring.elements[ring.elements.index(value)]
        except ValueError:
            raise ValueError(f"{_echo(repr(value))} is not an element of "
                             f"{ring.label}") from None
        env[index] = value
    return env


def load_formula_file(path: str) -> list:
    """One formula per line; blank lines and # comments ignored."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                out.append(line)
    return out


def _element_json(e):
    return e if isinstance(e, int) else str(e)


def _emit(payload: dict, as_json: bool, lines):
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_parse(args) -> int:
    if args.lang == "bool":
        f = parse_bool_formula(args.formula)
        payload = {"language": "bool", "formula": str(f),
                   "free_variables": sorted(free_variables(f))}
        _emit(payload, args.json,
              [str(f), f"free variables: {sorted(free_variables(f))}"])
        return EXIT_OK
    f = parse_ring_formula(args.formula)
    payload = {"language": "ring", "formula": str(f),
               "free_variables": sorted(free_variables(f)),
               "canonical": format_ring_formula(canonicalize(f))}
    _emit(payload, args.json,
          [str(f), f"free variables: {sorted(free_variables(f))}",
           f"canonical: {payload['canonical']}"])
    return EXIT_OK


def cmd_eval(args) -> int:
    ring = parse_ring_descriptor(args.ring)
    env = parse_assignment(args.assign, ring)
    f = parse_ring_formula(args.formula)
    result = eval_direct(ring, f, env)
    value = boolean_value(ring, f, env)
    payload = {"ring": ring.label, "formula": str(f),
               "assignment": {f"x{k}": _element_json(v) for k, v in sorted(env.items())},
               "result": result, "boolean_value": _element_json(value)}
    _emit(payload, args.json,
          [f"{ring.label} |= {f}  at {payload['assignment']}: {str(result).lower()}",
           f"boolean value: {value}"])
    return EXIT_OK


def cmd_translate(args) -> int:
    f = parse_ring_formula(args.formula)
    result = translate(f)
    payload = result.to_json()
    lines = [f"source: {payload['source']}", f"psi: {payload['psi']}",
             f"cells ({payload['cell_count']}):"]
    lines += [f"  [{i}] {c}" for i, c in enumerate(payload["cells"])]
    _emit(payload, args.json, lines)
    return EXIT_OK


def _resolve_suite(name: str) -> list:
    if name.startswith("@"):
        return load_formula_file(name[1:])
    return [format_ring_formula(f) for f in formula_suite(name)]


def cmd_check(args) -> int:
    ring = parse_ring_descriptor(args.ring)
    suite = args.formula_suite
    formulas = [parse_ring_formula(t) for t in _resolve_suite(suite)]
    report = oracle_sweep(ring, formulas)
    payload = report.to_json() | {"suite": suite}
    lines = [f"ring: {report.ring}",
             f"suite: {suite} ({report.formulas} formulas)",
             f"instances: {report.instances}"]
    for m in report.mismatches:
        lines.append(f"MISMATCH {m.formula} at "
                     f"{{{', '.join(f'x{k}={v}' for k, v in sorted(m.assignment.items()))}}}: "
                     f"direct={m.direct} via_fv={m.via_fv}")
    for p in report.partition_failures:
        lines.append(f"PARTITION FAILURE {p}")
    lines.append("result: " + ("PASS" if report.ok else "FAIL"))
    _emit(payload, args.json, lines)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_axioms(args) -> int:
    ring = parse_ring_descriptor(args.ring)
    budget = CheckBudget(max_assignments=args.budget, seed=args.seed)
    reports = run_axiom_suite(ring, budget)
    ok = all(r.passed for r in reports)
    payload = {"ring": ring.label, "reports": [r.to_json() for r in reports], "ok": ok}
    lines = [f"ring: {ring.label}"]
    for r in reports:
        lines.append(f"{r.check}: {r.verdict} ({r.instances} instances)")
        if r.counterexample:
            lines.append(f"  counterexample: {json.dumps(r.counterexample)}")
    lines.append("result: " + ("PASS" if ok else "FAIL"))
    _emit(payload, args.json, lines)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_equiv(args) -> int:
    left = parse_ring_descriptor(args.left)
    right = parse_ring_descriptor(args.right)
    texts = (DEFAULT_SENTENCES if args.sentences == "default30"
             else load_formula_file(args.sentences))
    verdicts = compare_sentences(left, right, texts)
    rows = [vars(v) | {"ok": v.ok} for v in verdicts]
    ok = all(v.ok for v in verdicts)
    payload = {"left": left.label, "right": right.label, "sentences": rows, "ok": ok}
    lines = [f"left: {left.label}", f"right: {right.label}"]
    for row in rows:
        mark = "agree" if row["ok"] else "DISAGREE"
        lines.append(f"{mark} [{str(row['left']).lower()}] {row['sentence']}")
    lines.append("result: " + ("PASS" if ok else "FAIL"))
    _emit(payload, args.json, lines)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_atoms(args) -> int:
    ring = parse_ring_descriptor(args.ring)
    stalks = [{"atom": _element_json(st.unit), "size": st.size,
               "connected": is_connected(st)} for st in atom_stalks(ring)]
    payload = {"ring": ring.label, "size": ring.size,
               "idempotents": [_element_json(e) for e in idempotents(ring)],
               "atoms": [_element_json(e) for e in atoms(ring)],
               "stalks": stalks, "connected": is_connected(ring)}
    lines = [f"ring: {ring.label} ({ring.size} elements)",
             "idempotents: " + ", ".join(str(e) for e in idempotents(ring)),
             "atoms: " + ", ".join(str(e) for e in atoms(ring))]
    for st in atom_stalks(ring):
        lines.append(f"stalk at {st.unit}: {st.size} elements, "
                     f"{'connected' if is_connected(st) else 'NOT connected'}")
    lines.append(f"connected: {'yes' if is_connected(ring) else 'no'}")
    _emit(payload, args.json, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringfv",
        description="Translate ring formulas to Boolean-algebra conditions "
                    "over stalks and verify on finite rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print it back")
    p.add_argument("formula")
    p.add_argument("--lang", choices=("ring", "bool"), default="ring")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("eval", help="evaluate a formula on a ring")
    p.add_argument("--ring", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", default="")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("translate", help="translate a formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="compare direct and translated evaluation")
    p.add_argument("--ring", required=True)
    p.add_argument("--formula-suite", default="default-depth2",
                   help=f"one of {', '.join(available_suites())}, or @<file>")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("axioms", help="run the axiom checkers on a ring")
    p.add_argument("--ring", required=True)
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("equiv", help="compare two rings on a sentence suite")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--sentences", default="default30",
                   help="a file of sentences, or 'default30'")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("atoms", help="list idempotents, atoms and stalks")
    p.add_argument("--ring", required=True)
    p.add_argument("--json", action="store_true")
    return parser


COMMANDS = {"parse": cmd_parse, "eval": cmd_eval, "translate": cmd_translate,
            "check": cmd_check, "axioms": cmd_axioms, "equiv": cmd_equiv,
            "atoms": cmd_atoms}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
