"""ASTs, concrete grammar, parsers, printers and structural utilities.

Two languages live here.  The ring language has terms built from +, -, *,
0, 1 and variables x0, x1, ..., equations between terms, the classical
connectives and quantifiers.  The Boolean-algebra language has terms built
from ^ (meet), v (join), ~ (complement), 0, 1 and variables y0, y1, ...
(plus a disjoint w0, w1, ... namespace for patching variables), equations
and the derived order <=, the same connectives and quantifiers, and the
partN(...) partition macro.

Numerals in the ring language are sugar: k parses to the balanced sum of
k copies of 1 (0 parses to the constant 0).  a <= b in the Boolean
language is sugar for a ^ b = a.  Printing re-sugars both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

# Parsed "w<k>" Boolean variables map to index k + W_OFFSET so that the
# w-namespace can never collide with y-variables of the same digits.
W_OFFSET = 1 << 20

# A numeral k parses to about 2k nodes, so larger ones are refused up front.
MAX_NUMERAL = 4096

# int() refuses longer digit strings (CPython's default conversion limit), so
# longer digit runs are refused up front, leading zeros not counted.
MAX_DIGITS = 4300


class ParseError(ValueError):
    def __init__(self, message, line=1, column=1):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class Node:
    """Shared behaviour for all AST nodes: printing.

    Every node class is a frozen dataclass, so nodes compare and hash by
    structure through the generated __eq__ and __hash__.  Each node object
    also has one attribute outside the dataclass fields, _free_variables,
    which free_variables fills on its first call on that object.
    """

    _free_variables = None

    def __str__(self):
        if isinstance(self, RingTerm):
            return format_ring_term(self)
        if isinstance(self, RingFormula):
            return format_ring_formula(self)
        if isinstance(self, BoolTerm):
            return format_bool_term(self)
        return format_bool_formula(self)


class RingTerm(Node):
    pass


class RingFormula(Node):
    pass


class BoolTerm(Node):
    pass


class BoolFormula(Node):
    pass


# --- ring terms ---

@dataclass(frozen=True)
class Var(RingTerm):
    index: int


@dataclass(frozen=True)
class Zero(RingTerm):
    pass


@dataclass(frozen=True)
class One(RingTerm):
    pass


@dataclass(frozen=True)
class Add(RingTerm):
    left: RingTerm
    right: RingTerm


@dataclass(frozen=True)
class Sub(RingTerm):
    left: RingTerm
    right: RingTerm


@dataclass(frozen=True)
class Mul(RingTerm):
    left: RingTerm
    right: RingTerm


ZERO = Zero()
ONE = One()


# --- ring formulas ---

@dataclass(frozen=True)
class Eq(RingFormula):
    left: RingTerm
    right: RingTerm


@dataclass(frozen=True)
class Not(RingFormula):
    body: RingFormula


@dataclass(frozen=True)
class And(RingFormula):
    left: RingFormula
    right: RingFormula


@dataclass(frozen=True)
class Or(RingFormula):
    left: RingFormula
    right: RingFormula


@dataclass(frozen=True)
class Implies(RingFormula):
    left: RingFormula
    right: RingFormula


@dataclass(frozen=True)
class Exists(RingFormula):
    var: int
    body: RingFormula


@dataclass(frozen=True)
class Forall(RingFormula):
    var: int
    body: RingFormula


# --- Boolean-algebra terms ---

@dataclass(frozen=True)
class BVar(BoolTerm):
    index: int


@dataclass(frozen=True)
class Bot(BoolTerm):
    pass


@dataclass(frozen=True)
class Top(BoolTerm):
    pass


@dataclass(frozen=True)
class Meet(BoolTerm):
    left: BoolTerm
    right: BoolTerm


@dataclass(frozen=True)
class Join(BoolTerm):
    left: BoolTerm
    right: BoolTerm


@dataclass(frozen=True)
class Complement(BoolTerm):
    body: BoolTerm


BOT = Bot()
TOP = Top()


# --- Boolean-algebra formulas ---

@dataclass(frozen=True)
class BEq(BoolFormula):
    left: BoolTerm
    right: BoolTerm


@dataclass(frozen=True)
class BNot(BoolFormula):
    body: BoolFormula


@dataclass(frozen=True)
class BAnd(BoolFormula):
    left: BoolFormula
    right: BoolFormula


@dataclass(frozen=True)
class BOr(BoolFormula):
    left: BoolFormula
    right: BoolFormula


@dataclass(frozen=True)
class BImplies(BoolFormula):
    left: BoolFormula
    right: BoolFormula


@dataclass(frozen=True)
class BExists(BoolFormula):
    var: int
    body: BoolFormula


@dataclass(frozen=True)
class BForall(BoolFormula):
    var: int
    body: BoolFormula


# Node kinds as sets of classes: dispatch on type(node) is one set lookup.
_BINARY = frozenset((Add, Sub, Mul, Eq, And, Or, Implies, Meet, Join,
                     BEq, BAnd, BOr, BImplies))
_QUANT = frozenset((Exists, Forall, BExists, BForall))
_BODY = _QUANT | {Not, Complement, BNot}
_VARS = frozenset((Var, BVar))


def children(node) -> tuple:
    """The immediate subnodes: both operands of a binary node, the body of
    a negation, complement or quantifier, none for variables and constants."""
    cls = type(node)
    if cls in _BINARY:
        return node.left, node.right
    if cls in _BODY:
        return (node.body,)
    return ()


def rebuild(node, kids):
    """A node of the same kind (and bound variable) over the given children."""
    cls = type(node)
    if cls in _QUANT:
        return cls(node.var, *kids)
    return cls(*kids) if kids else node


def numeral(k: int) -> RingTerm:
    """The balanced sum of k copies of 1; 0 gives the constant 0."""
    if k < 0:
        raise ValueError("numerals are non-negative")
    if k == 0:
        return ZERO
    if k == 1:
        return ONE
    return Add(numeral((k + 1) // 2), numeral(k // 2))


def _numeral_value(t: RingTerm):
    """Inverse of numeral() on exactly its canonical trees, else None."""
    if isinstance(t, Zero):
        return 0
    stack, ones = [t], 0
    while stack:
        node = stack.pop()
        if isinstance(node, One):
            ones += 1
        elif isinstance(node, Add):
            stack.append(node.left)
            stack.append(node.right)
        else:
            return None
    return ones if t == numeral(ones) else None


def leq(a: BoolTerm, b: BoolTerm) -> BoolFormula:
    """The derived order a <= b, i.e. a ^ b = a."""
    return BEq(Meet(a, b), a)


def join_all(terms) -> BoolTerm:
    """The left-nested join (..(t_0 v t_1) v ..) v t_n of a nonempty sequence."""
    return functools.reduce(Join, terms)


def partition_conditions(cells) -> BoolFormula:
    """Join-is-top and pairwise-meet-is-bottom over the given Boolean terms."""
    cells = list(cells)
    if not cells:
        raise ValueError("a partition needs at least one cell")
    out = BEq(join_all(cells), TOP)
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            out = BAnd(out, BEq(Meet(cells[i], cells[j]), BOT))
    return out


# --- structural utilities ---

def free_variables(node) -> frozenset:
    """Free variable indices of a formula or term, in either language.

    The first call on a node object stores the set in that object's
    _free_variables attribute (not a dataclass field, so equality, hashing
    and repr do not see it); later calls on the same object read it back
    without walking or hashing the subtree.  Below that, a structural
    cache shares the sets between equal nodes built separately.
    """
    out = node._free_variables
    if out is None:
        out = _structural_free_variables(node)
        object.__setattr__(node, "_free_variables", out)
    return out


@functools.lru_cache(maxsize=None)
def _structural_free_variables(node) -> frozenset:
    cls = type(node)
    if cls in _VARS:
        return frozenset((node.index,))
    out = frozenset()
    for child in children(node):
        out |= free_variables(child)
    if cls in _QUANT:
        out -= {node.var}
    return out


@functools.lru_cache(maxsize=None)
def max_var_index(node) -> int:
    """Largest variable index occurring anywhere (bound included); -1 if none."""
    cls = type(node)
    if cls in _VARS:
        return node.index
    out = node.var if cls in _QUANT else -1
    for child in children(node):
        out = max(out, max_var_index(child))
    return out


def quantifier_depth(f) -> int:
    depth = 0
    for child in children(f):
        depth = max(depth, quantifier_depth(child))
    return depth + (type(f) in _QUANT)


def ast_size(node) -> int:
    """Number of AST nodes, terms and formulas both counted."""
    size = 1
    for child in children(node):
        size += ast_size(child)
    return size


def _substitute(node, mapping, var_cls):
    if not mapping:
        return node
    cls = type(node)
    if cls is var_cls:
        return mapping.get(node.index, node)
    kids = children(node)
    if cls in _QUANT:
        fv = free_variables(node)
        live = {k: t for k, t in mapping.items() if k in fv}
        if not live:
            return node
        var, (body,) = node.var, kids
        if any(var in free_variables(t) for t in live.values()):
            # fresh is above every index in node and in the live terms, so
            # the binder's rename rides along in the same walk
            fresh = 1 + max(max_var_index(node),
                            max(max_var_index(t) for t in live.values()))
            live[var] = var_cls(fresh)
            var = fresh
        return cls(var, _substitute(body, live, var_cls))
    return rebuild(node, [_substitute(k, mapping, var_cls) for k in kids])


def substitute(f: RingFormula, var: int, term: RingTerm) -> RingFormula:
    """Capture-avoiding substitution of a ring term for a free variable."""
    return _substitute(f, {var: term}, Var)


def substitute_bool(f, mapping: dict) -> "BoolFormula | BoolTerm":
    """Simultaneous capture-avoiding substitution of Boolean terms."""
    return _substitute(f, dict(mapping), BVar)


def canonicalize(f: RingFormula) -> RingFormula:
    """Rewrite into the Eq/Not/And/Exists fragment.

    Or and Implies go through De Morgan, Forall through ~E~.  Double
    negations produced along the way are erased, so the pass is idempotent.
    """
    if isinstance(f, Eq):
        return f
    if isinstance(f, Not):
        return _negate(f.body)
    if isinstance(f, And):
        return And(canonicalize(f.left), canonicalize(f.right))
    if isinstance(f, Or):
        return Not(And(_negate(f.left), _negate(f.right)))
    if isinstance(f, Implies):
        return Not(And(canonicalize(f.left), _negate(f.right)))
    if isinstance(f, Exists):
        return Exists(f.var, canonicalize(f.body))
    if isinstance(f, Forall):
        return Not(Exists(f.var, _negate(f.body)))
    raise TypeError(f"not a ring formula: {f!r}")


def _negate(f: RingFormula) -> RingFormula:
    g = canonicalize(f)
    if isinstance(g, Not):
        return g.body
    return Not(g)


def canonical_relabel(f: RingFormula) -> RingFormula:
    """Rename free variables by first occurrence and alpha-rename bound ones.

    Free variables map onto 0..k-1 in order of first occurrence; bound
    variables continue from k in binding order.  Formulas equal after
    relabelling are renamings of each other, which is the deduplication
    notion used by the generated formula suites.
    """
    order = []
    seen = set()

    def scan_free(node, bound):
        cls = type(node)
        if cls is Var:
            if node.index not in bound and node.index not in seen:
                seen.add(node.index)
                order.append(node.index)
            return
        if cls in _QUANT:
            bound = bound | {node.var}
        for child in children(node):
            scan_free(child, bound)

    scan_free(f, frozenset())
    free_map = {v: i for i, v in enumerate(order)}
    counter = [len(order)]

    def relabel(node, env):
        cls = type(node)
        if cls is Var:
            return Var(env.get(node.index, free_map.get(node.index, node.index)))
        if cls in _QUANT:
            name = counter[0]
            counter[0] += 1
            (body,) = children(node)
            return cls(name, relabel(body, {**env, node.var: name}))
        return rebuild(node, [relabel(child, env) for child in children(node)])

    return relabel(f, {})


# --- tokenizer ---

_RING_OPS = ("->", "+", "-", "*", "=", "~", "&", "|", "(", ")", ".")
_BOOL_OPS = ("->", "<=", "^", "=", "~", "&", "|", "(", ")", ".", ",")


def _digit_value(digits: str, what: str, col: int) -> int:
    significant = digits.lstrip("0")
    if len(significant) > MAX_DIGITS:
        raise ParseError(f"{what} has {len(significant)} digits, more than {MAX_DIGITS}",
                         column=col)
    return int(significant or "0")


def _tokenize(text: str, lang: str):
    ops = _RING_OPS if lang == "ring" else _BOOL_OPS
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        col = i + 1
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            value = _digit_value(text[i:j], "numeral", col)
            if lang == "ring" and value > MAX_NUMERAL:
                raise ParseError(f"numeral {value} is above the limit {MAX_NUMERAL}",
                                 column=col)
            tokens.append(("num", value, col))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            i = j
            if word in ("E", "A"):
                tokens.append(("quant", word, col))
            elif lang == "bool" and word == "v":
                tokens.append(("op", "v", col))
            elif lang == "bool" and word.startswith("part") and word[4:].isdecimal():
                arity = _digit_value(word[4:], "partition arity", col)
                tokens.append(("part", arity, col))
            else:
                letters = "x" if lang == "ring" else "yw"
                if word[0] in letters and word[1:].isdecimal():
                    idx = _digit_value(word[1:], "variable index", col)
                    if word[0] == "w":
                        idx += W_OFFSET
                    tokens.append(("var", idx, col))
                else:
                    raise ParseError(f"malformed variable name {word!r}", column=col)
            continue
        for op in ops:
            if text.startswith(op, i):
                tokens.append(("op", op, col))
                i += len(op)
                break
        else:
            raise ParseError(f"unknown token {c!r}", column=col)
    tokens.append(("eof", None, n + 1))
    return tokens


class _Parser:
    """Recursive descent with backtracking at the relation/negation choice."""

    def __init__(self, text, lang):
        self.tokens = _tokenize(text, lang)
        self.pos = 0
        self.worst = None  # furthest error, for good messages after backtracking

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, value):
        kind, val, _ = self.tokens[self.pos]
        if kind == "op" and val == value:
            self.pos += 1
            return True
        return False

    def expect(self, value):
        if not self.accept(value):
            self.fail(f"expected {value!r}")

    def fail(self, message):
        _, val, col = self.peek()
        err = ParseError(f"{message}, found {val!r}" if val is not None else message,
                         column=col)
        if self.worst is None or err.column >= self.worst.column:
            self.worst = err
        raise err

    def done(self):
        if self.peek()[0] != "eof":
            self.fail("trailing input")

    # shared formula skeleton; term syntax and relations come from subclasses

    def formula(self):
        kind, val, _ = self.peek()
        if kind == "quant":
            self.take()
            vkind, vidx, vcol = self.take()
            if vkind != "var":
                raise ParseError("expected a variable after quantifier", column=vcol)
            self.expect(".")
            body = self.formula()
            return self.mk_quant(val, vidx, body)
        return self.implication()

    def implication(self):
        left = self.disjunction()
        if self.accept("->"):
            return self.mk_implies(left, self.formula())
        return left

    def disjunction(self):
        out = self.conjunction()
        while self.accept("|"):
            out = self.mk_or(out, self.conjunction())
        return out

    def conjunction(self):
        out = self.literal()
        while self.accept("&"):
            out = self.mk_and(out, self.literal())
        return out

    def literal(self):
        save = self.pos
        try:
            return self.relation()
        except ParseError:
            self.pos = save
        if self.accept("~"):
            return self.mk_not(self.literal())
        if self.accept("("):
            f = self.formula()
            self.expect(")")
            return f
        if self.peek()[0] == "part":
            return self.part_macro()
        self.fail("expected a formula")

    def part_macro(self):
        self.fail("expected a formula")


class _RingParser(_Parser):
    def __init__(self, text):
        super().__init__(text, "ring")

    mk_and = staticmethod(And)
    mk_or = staticmethod(Or)
    mk_not = staticmethod(Not)
    mk_implies = staticmethod(Implies)

    @staticmethod
    def mk_quant(kw, var, body):
        return Exists(var, body) if kw == "E" else Forall(var, body)

    def relation(self):
        left = self.term()
        self.expect("=")
        return Eq(left, self.term())

    def term(self):
        out = self.factor()
        while True:
            if self.accept("+"):
                out = Add(out, self.factor())
            elif self.accept("-"):
                out = Sub(out, self.factor())
            else:
                return out

    def factor(self):
        out = self.atom()
        while self.accept("*"):
            out = Mul(out, self.atom())
        return out

    def atom(self):
        kind, val, _ = self.peek()
        if kind == "num":
            self.take()
            return numeral(val)
        if kind == "var":
            self.take()
            return Var(val)
        if self.accept("("):
            t = self.term()
            self.expect(")")
            return t
        self.fail("expected a term")


class _BoolParser(_Parser):
    def __init__(self, text):
        super().__init__(text, "bool")

    mk_and = staticmethod(BAnd)
    mk_or = staticmethod(BOr)
    mk_not = staticmethod(BNot)
    mk_implies = staticmethod(BImplies)

    @staticmethod
    def mk_quant(kw, var, body):
        return BExists(var, body) if kw == "E" else BForall(var, body)

    def relation(self):
        left = self.term()
        if self.accept("="):
            return BEq(left, self.term())
        if self.accept("<="):
            return leq(left, self.term())
        self.fail("expected '=' or '<='")

    def part_macro(self):
        _, arity, col = self.take()
        if arity < 1:
            raise ParseError("partN needs N >= 1", column=col)
        self.expect("(")
        args = [self.term()]
        while self.accept(","):
            args.append(self.term())
        self.expect(")")
        if len(args) != arity:
            raise ParseError(f"part{arity} expects {arity} arguments, got {len(args)}",
                             column=col)
        return partition_conditions(args)

    def term(self):
        out = self.factor()
        while self.accept("v"):
            out = Join(out, self.factor())
        return out

    def factor(self):
        out = self.atom()
        while self.accept("^"):
            out = Meet(out, self.atom())
        return out

    def atom(self):
        kind, val, _ = self.peek()
        if kind == "num":
            if val == 0:
                self.take()
                return BOT
            if val == 1:
                self.take()
                return TOP
            self.fail("only 0 and 1 are Boolean constants")
        if kind == "var":
            self.take()
            return BVar(val)
        if self.accept("~"):
            return Complement(self.atom())
        if self.accept("("):
            t = self.term()
            self.expect(")")
            return t
        self.fail("expected a Boolean term")


def _run_parser(parser):
    try:
        f = parser.formula()
        parser.done()
        return f
    except ParseError as err:
        worst = parser.worst
        if worst is not None and worst.column > err.column:
            raise worst from None
        raise


def parse_ring_formula(text: str) -> RingFormula:
    """Parse ring-language concrete syntax into its unique AST."""
    return _run_parser(_RingParser(text))


def parse_bool_formula(text: str) -> BoolFormula:
    """Parse Boolean-algebra concrete syntax, expanding <= and partN sugar."""
    return _run_parser(_BoolParser(text))


# --- printers ---
#
# Formula precedence: quantifier 0, -> 1, | 2, & 3, ~ and equations 4.
# Ring term precedence: +,- at 1, * at 2, atoms at 3.  Equations under ~
# always get parentheses: in the Boolean language "~y0 = y1" already means
# "(complement y0) = y1", so the formula negation must print as ~(...).

def _fmt_ring_term(t, prec):
    k = _numeral_value(t)
    if k is not None:
        return str(k)
    if isinstance(t, Var):
        return f"x{t.index}"
    if isinstance(t, (Add, Sub)):
        op = "+" if isinstance(t, Add) else "-"
        s = _fmt_ring_term(t.left, 1) + op + _fmt_ring_term(t.right, 2)
        return f"({s})" if prec > 1 else s
    if isinstance(t, Mul):
        s = _fmt_ring_term(t.left, 2) + "*" + _fmt_ring_term(t.right, 3)
        return f"({s})" if prec > 2 else s
    raise TypeError(f"not a ring term: {t!r}")


def format_ring_term(t: RingTerm) -> str:
    return _fmt_ring_term(t, 0)


def _var_name(index: int) -> str:
    if index >= W_OFFSET:
        return f"w{index - W_OFFSET}"
    return f"y{index}"


def _fmt_bool_term(t, prec):
    if isinstance(t, BVar):
        return _var_name(t.index)
    if isinstance(t, Bot):
        return "0"
    if isinstance(t, Top):
        return "1"
    if isinstance(t, Complement):
        return "~" + _fmt_bool_term(t.body, 3)
    if isinstance(t, Join):
        s = _fmt_bool_term(t.left, 1) + " v " + _fmt_bool_term(t.right, 2)
        return f"({s})" if prec > 1 else s
    if isinstance(t, Meet):
        s = _fmt_bool_term(t.left, 2) + " ^ " + _fmt_bool_term(t.right, 3)
        return f"({s})" if prec > 2 else s
    raise TypeError(f"not a Boolean term: {t!r}")


def format_bool_term(t: BoolTerm) -> str:
    return _fmt_bool_term(t, 0)


def _operand(t: BoolTerm) -> str:
    # compound operands of = and <= are parenthesized for readability
    if isinstance(t, (Meet, Join)):
        return f"({_fmt_bool_term(t, 0)})"
    return _fmt_bool_term(t, 3)


def _fmt_formula(f, prec, lang):
    if lang == "ring":
        eq_cls, not_cls, and_cls, or_cls = Eq, Not, And, Or
        imp_cls, ex_cls, fa_cls = Implies, Exists, Forall
    else:
        eq_cls, not_cls, and_cls, or_cls = BEq, BNot, BAnd, BOr
        imp_cls, ex_cls, fa_cls = BImplies, BExists, BForall

    if isinstance(f, eq_cls):
        if lang == "ring":
            return _fmt_ring_term(f.left, 0) + " = " + _fmt_ring_term(f.right, 0)
        if isinstance(f.left, Meet) and f.left.left == f.right:
            return _operand(f.right) + " <= " + _operand(f.left.right)
        return _operand(f.left) + " = " + _operand(f.right)
    if isinstance(f, not_cls):
        if isinstance(f.body, eq_cls):
            return "~(" + _fmt_formula(f.body, 0, lang) + ")"
        return "~" + _fmt_formula(f.body, 4, lang)
    if isinstance(f, and_cls):
        s = _fmt_formula(f.left, 3, lang) + " & " + _fmt_formula(f.right, 4, lang)
        return f"({s})" if prec > 3 else s
    if isinstance(f, or_cls):
        s = _fmt_formula(f.left, 2, lang) + " | " + _fmt_formula(f.right, 3, lang)
        return f"({s})" if prec > 2 else s
    if isinstance(f, imp_cls):
        s = _fmt_formula(f.left, 2, lang) + " -> " + _fmt_formula(f.right, 0, lang)
        return f"({s})" if prec > 1 else s
    if isinstance(f, (ex_cls, fa_cls)):
        letter = "E" if isinstance(f, ex_cls) else "A"
        name = f"x{f.var}" if lang == "ring" else _var_name(f.var)
        s = f"{letter} {name}. " + _fmt_formula(f.body, 0, lang)
        return f"({s})" if prec > 0 else s
    raise TypeError(f"not a {lang} formula: {f!r}")


def format_ring_formula(f: RingFormula) -> str:
    return _fmt_formula(f, 0, "ring")


def format_bool_formula(f: BoolFormula) -> str:
    return _fmt_formula(f, 0, "bool")
