"""The ideal-calculus script language.

Line-oriented statements drive every operation the workbench offers:

    ring R = poly(p=2; X, Y, Z) / ideal(X*Y, X*Z) with primes [ideal(X), ideal(Y, Z)]
    let I = ideal(Y, X - Z)
    check sop(I)
    report closedness(ideal(0), ne)

One ambient ring is active per script; the declaration's / clause
establishes the quotient context and its optional primes list feeds the
decomposition machinery.  Everything after '#' on a line is a comment.

Script-level ideal values track two forms.  The raw generator tuple, as
entered, feeds the count-sensitive operations (sop, regular, the
theorem verdicts).  The handle, the entered ideal joined with the
defining ideal, feeds equality, membership and the algebraic operators,
which is what reading generators in the presented ring means.  Derived
values (meet, colon, bracket, dc, ker) take their reduced basis as the
raw form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__
from .errors import IcalcError, NeedsPrimesError, ParseError, ScriptError
from .field import PrimeField
from .groebner import normal_form
from .ideals import Ideal, ring_map_kernel
from .monomials import MonomialOrder
from .poly import PolyRing, parse_poly, tokenize
from .rings import is_regular_sequence, is_system_of_parameters, make_ring
from .closure import (
    NE,
    TIGHT,
    bounded_frobenius_check,
    closedness_necessary_test,
    colon_capture_report,
    construct_ne_test_data,
    decomposition_closure,
    structural_verdict,
    theorem_contain_verdict,
)

# The argument slots of each check and report kind, in order: 'expr' an
# ideal expression, 'poly' a polynomial text, 'mode' tight or ne, and a
# trailing 'unmixed' an optional flag.
CHECK_ARGS = {
    "equal": ("expr", "expr"),
    "member": ("poly", "expr"),
    "sop": ("expr",),
    "regular": ("expr",),
}
REPORT_ARGS = {
    "closedness": ("expr", "mode"),
    "contain": ("expr",),
    "structural": ("expr", "expr", "unmixed"),
    "capture": ("expr",),
    "netest": (),
    "frobenius": ("expr", "poly", "poly"),
}
CHECK_KINDS = tuple(CHECK_ARGS)
REPORT_KINDS = tuple(REPORT_ARGS)
# Parsing, printing and evaluation recurse on every level of an
# expression tree; deeper trees would exhaust the interpreter's stack.
MAX_NESTING = 100


# ---------------------------------------------------------------- AST

@dataclass(frozen=True)
class EIdeal:
    gens: tuple  # canonical generator texts


@dataclass(frozen=True)
class EName:
    name: str


@dataclass(frozen=True)
class ESum:
    left: object
    right: object


@dataclass(frozen=True)
class EProd:
    left: object
    right: object


@dataclass(frozen=True)
class EMeet:
    left: object
    right: object


@dataclass(frozen=True)
class EColon:
    left: object
    right: object


@dataclass(frozen=True)
class EBracket:
    arg: object
    e: int


@dataclass(frozen=True)
class EDc:
    arg: object
    mode: str


@dataclass(frozen=True)
class EKer:
    targets: tuple          # target variable names
    images: tuple           # (source variable, image text) pairs


@dataclass(frozen=True)
class RingDecl:
    name: str
    p: int
    variables: tuple
    defining: object        # expr or None
    primes: tuple           # exprs, possibly empty
    line: int = field(compare=False)


@dataclass(frozen=True)
class LetStmt:
    name: str
    expr: object
    line: int = field(compare=False)


@dataclass(frozen=True)
class CheckStmt:
    kind: str
    args: tuple             # exprs and ("poly", text) entries
    line: int = field(compare=False)


@dataclass(frozen=True)
class ReportStmt:
    kind: str
    args: tuple
    flags: tuple
    line: int = field(compare=False)


@dataclass(frozen=True)
class Script:
    statements: tuple


# ---------------------------------------------------------------- parsing

def _scan(text: str, line_no: int):
    """Tokenize one line, keeping (kind, value) pairs poly-compatible."""
    try:
        return tokenize(text)
    except ParseError as exc:
        raise ScriptError(f"line {line_no}: {exc}") from exc


def _too_deep(line):
    return ScriptError(
        f"line {line}: expression nested deeper than {MAX_NESTING} levels"
    )


class _LineParser:
    def __init__(self, toks, line_no):
        self.toks = toks
        self.pos = 0
        self.line = line_no
        self.depth = 0

    def fail(self, message):
        raise ScriptError(f"line {self.line}, token {self.pos + 1}: {message}")

    def error(self, expected):
        found = (
            repr(self.toks[self.pos][1])
            if self.pos < len(self.toks)
            else "end of line"
        )
        self.fail(f"expected {expected}, found {found}")

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def expect_op(self, op):
        if self.peek() != ("op", op):
            self.error(f"'{op}'")
        self.pos += 1

    def expect_name(self, what="a name"):
        kind, value = self.peek()
        if kind != "name":
            self.error(what)
        self.pos += 1
        return value

    def expect_int(self):
        kind, value = self.peek()
        if kind != "int":
            self.error("an integer")
        self.pos += 1
        return value

    def expect_fresh(self, seen, what, noun):
        """A name not in seen; a repeat is an error at that name."""
        name = self.expect_name(what)
        if name in seen:
            self.pos -= 1
            self.fail(f"duplicate {noun} {name!r}")
        seen.append(name)
        return name

    def expect_names(self, what, noun):
        """A comma-separated list of distinct names."""
        names = []
        self.expect_fresh(names, what, noun)
        while self.peek() == ("op", ","):
            self.pos += 1
            self.expect_fresh(names, what, noun)
        return tuple(names)

    def expect_keyword(self, word):
        if self.peek() != ("name", word):
            self.error(f"'{word}'")
        self.pos += 1

    def expect_mode(self):
        kind, mode = self.peek()
        if kind != "name" or mode not in (TIGHT, NE):
            self.error("'tight' or 'ne'")
        self.pos += 1
        return mode

    def at_end(self):
        return self.pos >= len(self.toks)

    # polynomial spans run to the next ',' or ')' since the poly
    # grammar itself has no parentheses
    def poly_text(self, what="a polynomial"):
        start = self.pos
        while self.pos < len(self.toks):
            kind, value = self.toks[self.pos]
            if kind == "op" and value in ",)":
                break
            # adjacent factors would print glued into another name
            if kind != "op" and self.pos > start and self.toks[self.pos - 1][0] != "op":
                self.error("'*' between factors")
            self.pos += 1
        if self.pos == start:
            self.error(what)
        return _toks_text(self.toks[start:self.pos])

    def parse_expr(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _too_deep(self.line)
        node = self.parse_prod()
        while self.peek() == ("op", "+"):
            self.pos += 1
            node = ESum(node, self.parse_prod())
        self.depth -= 1
        return node

    def parse_prod(self):
        node = self.parse_atom()
        while self.peek() == ("op", "*"):
            self.pos += 1
            node = EProd(node, self.parse_atom())
        return node

    def parse_atom(self):
        kind, value = self.peek()
        if kind != "name":
            self.error("an ideal expression")
        if value == "ideal":
            self.pos += 1
            self.expect_op("(")
            gens = [self.poly_text()]
            while self.peek() == ("op", ","):
                self.pos += 1
                gens.append(self.poly_text())
            self.expect_op(")")
            return EIdeal(tuple(gens))
        if value in ("meet", "colon"):
            self.pos += 1
            self.expect_op("(")
            a = self.parse_expr()
            self.expect_op(",")
            b = self.parse_expr()
            self.expect_op(")")
            return EMeet(a, b) if value == "meet" else EColon(a, b)
        if value == "bracket":
            self.pos += 1
            self.expect_op("(")
            a = self.parse_expr()
            self.expect_op(",")
            e = self.expect_int()
            self.expect_op(")")
            return EBracket(a, e)
        if value == "dc":
            self.pos += 1
            self.expect_op("(")
            a = self.parse_expr()
            self.expect_op(",")
            mode = self.expect_mode()
            self.expect_op(")")
            return EDc(a, mode)
        if value == "ker":
            self.pos += 1
            self.expect_op("(")
            targets = self.expect_names("a target variable", "target variable")
            self.expect_op(";")
            sources, images = [], []
            while True:
                src = self.expect_fresh(sources, "a source variable", "source variable")
                self.expect_op("->")
                images.append((src, self.poly_text("an image polynomial")))
                if self.peek() == ("op", ","):
                    self.pos += 1
                    continue
                break
            self.expect_op(")")
            return EKer(targets, tuple(images))
        self.pos += 1
        return EName(value)


def _toks_text(toks):
    """Canonical text for a token run; parsing it back gives the same run.

    A space goes between two tokens exactly when either is +, - or ->.
    """
    out, spaced_before = [], False
    for i, (kind, value) in enumerate(toks):
        spaced = kind == "op" and value in ("+", "-", "->")
        if i and (spaced or spaced_before):
            out.append(" ")
        out.append(str(value))
        spaced_before = spaced
    return "".join(out)


def parse_script(source: str) -> Script:
    """Parse the line-oriented script grammar; first error wins."""
    statements = []
    seen_names = set()
    for line_no, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        toks = _scan(line, line_no)
        lp = _LineParser(toks, line_no)
        head = lp.expect_name("'ring', 'let', 'check' or 'report'")
        if head == "ring":
            statements.append(_parse_ring(lp, seen_names))
        elif head == "let":
            statements.append(_parse_let(lp, seen_names))
        elif head in ("check", "report"):
            statements.append(_parse_call(lp, seen_names, head))
        else:
            lp.pos -= 1
            lp.error("'ring', 'let', 'check' or 'report'")
        if not lp.at_end():
            lp.error("end of line")
    return Script(tuple(statements))


def _check_fresh(name, seen, line):
    if name in seen:
        raise ScriptError(f"line {line}: duplicate binding of {name!r}")
    seen.add(name)


def _check_bound(expr, seen, line, depth=1):
    """Rejects unbound names, and trees deeper than MAX_NESTING, which
    long '+' or '*' chains build without nesting parentheses."""
    if depth > MAX_NESTING:
        raise _too_deep(line)
    if isinstance(expr, EName):
        if expr.name not in seen:
            raise ScriptError(f"line {line}: unknown identifier {expr.name!r}")
    elif isinstance(expr, (ESum, EProd, EMeet, EColon)):
        _check_bound(expr.left, seen, line, depth + 1)
        _check_bound(expr.right, seen, line, depth + 1)
    elif isinstance(expr, (EBracket, EDc)):
        _check_bound(expr.arg, seen, line, depth + 1)


def _parse_ring(lp, seen):
    name = lp.expect_name("a ring name")
    _check_fresh(name, seen, lp.line)
    lp.expect_op("=")
    lp.expect_keyword("poly")
    lp.expect_op("(")
    lp.expect_keyword("p")
    lp.expect_op("=")
    p = lp.expect_int()
    lp.expect_op(";")
    variables = lp.expect_names("a variable name", "variable")
    lp.expect_op(")")
    defining = None
    primes = ()
    if lp.peek() == ("op", "/"):
        lp.pos += 1
        defining = lp.parse_expr()
        _check_bound(defining, seen, lp.line)
        if lp.peek() == ("name", "with"):
            lp.pos += 1
            lp.expect_keyword("primes")
            lp.expect_op("[")
            prime_list = [lp.parse_expr()]
            while lp.peek() == ("op", ","):
                lp.pos += 1
                prime_list.append(lp.parse_expr())
            lp.expect_op("]")
            for e in prime_list:
                _check_bound(e, seen, lp.line)
            primes = tuple(prime_list)
    return RingDecl(name, p, variables, defining, primes, lp.line)


def _parse_let(lp, seen):
    name = lp.expect_name("a binding name")
    lp.expect_op("=")
    expr = lp.parse_expr()
    _check_bound(expr, seen, lp.line)
    _check_fresh(name, seen, lp.line)
    return LetStmt(name, expr, lp.line)


def _parse_call(lp, seen, head):
    """A check or report statement, read by its kind's argument slots."""
    table = CHECK_ARGS if head == "check" else REPORT_ARGS
    kind = lp.expect_name(f"a {head} kind")
    if kind not in table:
        lp.pos -= 1
        lp.error("one of " + ", ".join(table))
    lp.expect_op("(")
    args = []
    flags = ()
    for i, slot in enumerate(table[kind]):
        if slot == "unmixed":
            if lp.peek() == ("op", ","):
                lp.pos += 1
                lp.expect_keyword("unmixed")
                flags = ("unmixed",)
            continue
        if i:
            lp.expect_op(",")
        if slot == "expr":
            args.append(lp.parse_expr())
        elif slot == "poly":
            args.append(("poly", lp.poly_text()))
        else:
            args.append(lp.expect_mode())
    lp.expect_op(")")
    for arg in args:
        if not isinstance(arg, (tuple, str)):
            _check_bound(arg, seen, lp.line)
    if head == "check":
        return CheckStmt(kind, tuple(args), lp.line)
    return ReportStmt(kind, tuple(args), flags, lp.line)


# ---------------------------------------------------------------- printing

def _expr_text(expr) -> str:
    if isinstance(expr, EIdeal):
        return "ideal(%s)" % ", ".join(expr.gens)
    if isinstance(expr, EName):
        return expr.name
    if isinstance(expr, ESum):
        return f"{_expr_text(expr.left)} + {_expr_text(expr.right)}"
    if isinstance(expr, EProd):
        return f"{_expr_text(expr.left)}*{_expr_text(expr.right)}"
    if isinstance(expr, EMeet):
        return f"meet({_expr_text(expr.left)}, {_expr_text(expr.right)})"
    if isinstance(expr, EColon):
        return f"colon({_expr_text(expr.left)}, {_expr_text(expr.right)})"
    if isinstance(expr, EBracket):
        return f"bracket({_expr_text(expr.arg)}, {expr.e})"
    if isinstance(expr, EDc):
        return f"dc({_expr_text(expr.arg)}, {expr.mode})"
    if isinstance(expr, EKer):
        pieces = ", ".join(f"{src} -> {text}" for src, text in expr.images)
        return "ker(%s; %s)" % (", ".join(expr.targets), pieces)
    raise TypeError(f"not an expression: {expr!r}")


def _stmt_text(stmt) -> str:
    if isinstance(stmt, RingDecl):
        head = "ring %s = poly(p=%d; %s)" % (
            stmt.name,
            stmt.p,
            ", ".join(stmt.variables),
        )
        if stmt.defining is not None:
            head += " / " + _expr_text(stmt.defining)
            if stmt.primes:
                head += " with primes [%s]" % ", ".join(
                    _expr_text(e) for e in stmt.primes
                )
        return head
    if isinstance(stmt, LetStmt):
        return f"let {stmt.name} = {_expr_text(stmt.expr)}"
    if isinstance(stmt, (CheckStmt, ReportStmt)):
        head = "check" if isinstance(stmt, CheckStmt) else "report"
        parts = [
            arg if isinstance(arg, str)
            else arg[1] if isinstance(arg, tuple)
            else _expr_text(arg)
            for arg in stmt.args + getattr(stmt, "flags", ())
        ]
        return "%s %s(%s)" % (head, stmt.kind, ", ".join(parts))
    raise TypeError(f"not a statement: {stmt!r}")


def print_script(script: Script) -> str:
    """Canonical text; parsing it back yields an identical AST."""
    return "\n".join(_stmt_text(s) for s in script.statements) + "\n"


# ---------------------------------------------------------------- evaluation

@dataclass(frozen=True)
class RunOptions:
    order: str = "grevlex"
    emax: int = 5
    seed: int = 0


@dataclass(frozen=True)
class ScriptIdeal:
    """A script-level ideal value: entered generators plus quotient handle."""

    raw: tuple
    handle: Ideal


@dataclass(frozen=True)
class ReportDocument:
    """Everything a script run produced, ready for text or JSON emission."""

    scenario: str
    version: str
    seed: int
    order: str
    emax: int
    checks: tuple           # (label, passed, detail or None) triples
    entries: tuple          # (label, kind, payload) triples

    @property
    def all_checks_pass(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def to_json_dict(self):
        checks = []
        for label, passed, detail in self.checks:
            record = {"label": label, "pass": passed}
            if detail is not None:
                record["detail"] = detail
            checks.append(record)
        return {
            "scenario": self.scenario,
            "version": self.version,
            "seed": self.seed,
            "order": self.order,
            "emax": self.emax,
            "checks": checks,
            "entries": [
                {"label": label, "kind": kind, "data": payload.to_json_dict()}
                for label, kind, payload in self.entries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"scenario {self.scenario} (seed {self.seed}, order {self.order})"]
        for label, passed, detail in self.checks:
            lines.append(f"  {'ok  ' if passed else 'FAIL'} {label}")
            if detail is not None:
                lines.append(f"       {detail}")
        for label, kind, payload in self.entries:
            lines.append(f"  -- {label}")
            lines.extend("     " + text for text in _entry_lines(kind, payload))
        return "\n".join(lines) + "\n"


def _basis_text(ideal: Ideal) -> str:
    if not ideal.groebner:
        return "(0)"
    return "(%s)" % ", ".join(str(g) for g in ideal.groebner)


def _entry_lines(kind, payload):
    data = payload.to_json_dict()
    if kind in ("closedness", "contain", "structural"):
        out = [f"status: {data['status']}"]
        if "witness" in data:
            out.append(f"witness: {data['witness']}")
        out.append("bound: (%s)" % ", ".join(data["dc_generators"]))
        if data["citations"]:
            out.append("citations: " + ", ".join(data["citations"]))
        out.extend("note: " + n for n in data["notes"])
        return out
    if kind == "frobenius":
        held = ", ".join(f"e={e}:{'ok' if h else 'no'}" for e, h in data["checks"])
        return [f"verdict: {data['verdict']} ({held})"]
    if kind == "netest":
        out = [
            "pairs: " + "; ".join(f"c={c}, d={d}" for c, d in data["pairs"]),
            f"exponent: {data['qprime_exponent']}",
            f"c: {data['c']} (in R-bullet: {data['c_in_r_bullet']})",
        ]
        out.extend("note: " + n for n in data["notes"])
        return out
    if kind == "capture":
        out = []
        for row in data["rows"]:
            out.append(
                "k=%d: colon=(%s) in_ideal=%s tight=%s ne=%s"
                % (
                    row["k"],
                    ", ".join(row["colon_generators"]),
                    row["in_ideal"],
                    row["in_tight_bound"],
                    row["in_ne_bound"],
                )
            )
        out.extend("note: " + n for n in data["notes"])
        return out
    raise ValueError(f"unknown entry kind {kind!r}")


class Evaluator:
    """Single-pass statement interpreter; one per script run."""

    def __init__(self, options: RunOptions):
        self.options = options
        self.ring = None
        self.qring = None
        self.defining = None
        self.bindings = {}
        self.checks = []
        self.entries = []

    def fail(self, stmt, message):
        raise ScriptError(f"line {stmt.line}: {_stmt_text(stmt)}: {message}")

    def run(self, script: Script, scenario: str) -> ReportDocument:
        for stmt in script.statements:
            try:
                self._execute(stmt)
            except ScriptError:
                raise
            except IcalcError as exc:
                raise ScriptError(
                    f"line {stmt.line}: {_stmt_text(stmt)}: {exc}"
                ) from exc
        return ReportDocument(
            scenario=scenario,
            version=__version__,
            seed=self.options.seed,
            order=self.options.order,
            emax=self.options.emax,
            checks=tuple(self.checks),
            entries=tuple(self.entries),
        )

    def _execute(self, stmt):
        if isinstance(stmt, RingDecl):
            self._declare_ring(stmt)
        elif isinstance(stmt, LetStmt):
            self._require_ring(stmt)
            self.bindings[stmt.name] = self._eval(stmt.expr)
        elif isinstance(stmt, CheckStmt):
            self._require_ring(stmt)
            passed, detail = self._run_check(stmt, self._args(stmt))
            self.checks.append((_stmt_text(stmt), passed, detail))
        else:
            self._require_ring(stmt)
            payload = self._run_report(stmt, self._args(stmt))
            self.entries.append((_stmt_text(stmt), stmt.kind, payload))

    def _require_ring(self, stmt):
        if self.ring is None:
            self.fail(stmt, "no ring declared yet")

    def _declare_ring(self, stmt):
        if self.ring is not None:
            self.fail(stmt, "only one ring declaration per script")
        if self.options.order == "lex":
            order = MonomialOrder.lex()
        else:
            order = MonomialOrder.grevlex()
        self.ring = PolyRing(PrimeField(stmt.p), stmt.variables, order)
        self.defining = Ideal(self.ring, ())
        if stmt.defining is not None:
            self.defining = self._eval(stmt.defining).handle
        primes = None
        if stmt.primes:
            primes = tuple(self._eval(e).handle for e in stmt.primes)
        self.qring = make_ring(self.ring, self.defining, primes=primes)

    def _args(self, stmt):
        """Each argument slot's value: a ScriptIdeal, a Poly or the mode."""
        return [
            arg if isinstance(arg, str)
            else parse_poly(self.ring, arg[1]) if isinstance(arg, tuple)
            else self._eval(arg)
            for arg in stmt.args
        ]

    def _plain(self, value: ScriptIdeal) -> Ideal:
        return Ideal(self.ring, value.raw)

    def _derived(self, ideal: Ideal) -> ScriptIdeal:
        return ScriptIdeal(raw=ideal.groebner, handle=ideal + self.defining)

    def _eval(self, expr) -> ScriptIdeal:
        if isinstance(expr, EIdeal):
            gens = tuple(
                g for g in (parse_poly(self.ring, t) for t in expr.gens) if not g.is_zero
            )
            return ScriptIdeal(
                raw=gens, handle=Ideal(self.ring, gens) + self.defining
            )
        if isinstance(expr, EName):
            return self.bindings[expr.name]
        if isinstance(expr, ESum):
            a, b = self._eval(expr.left), self._eval(expr.right)
            return ScriptIdeal(raw=a.raw + b.raw, handle=a.handle + b.handle)
        if isinstance(expr, EProd):
            a, b = self._eval(expr.left), self._eval(expr.right)
            raw = tuple(f * g for f in a.raw for g in b.raw)
            return ScriptIdeal(
                raw=raw, handle=Ideal(self.ring, raw) + self.defining
            )
        if isinstance(expr, EMeet):
            a, b = self._eval(expr.left), self._eval(expr.right)
            return self._derived(a.handle.intersect(b.handle))
        if isinstance(expr, EColon):
            a, b = self._eval(expr.left), self._eval(expr.right)
            return self._derived(a.handle.colon(b.handle))
        if isinstance(expr, EBracket):
            a = self._eval(expr.arg)
            return self._derived(self._plain(a).bracket_power(expr.e) + self.defining)
        if isinstance(expr, EDc):
            if self.qring is None:
                raise NeedsPrimesError("dc(...) cannot appear in the ring declaration")
            a = self._eval(expr.arg)
            return self._derived(
                decomposition_closure(self.qring, self._plain(a), expr.mode)
            )
        if isinstance(expr, EKer):
            target = PolyRing(
                self.ring.field, expr.targets, MonomialOrder.grevlex()
            )
            images = {src: parse_poly(target, text) for src, text in expr.images}
            kernel = ring_map_kernel(self.ring, target, images)
            return ScriptIdeal(
                raw=kernel.generators, handle=kernel + self.defining
            )
        raise TypeError(f"not an expression: {expr!r}")

    def _run_check(self, stmt, args):
        if stmt.kind == "equal":
            a, b = args
            if a.handle == b.handle:
                return True, None
            return False, "left = %s; right = %s" % (
                _basis_text(a.handle),
                _basis_text(b.handle),
            )
        if stmt.kind == "member":
            poly, value = args
            if value.handle.contains(poly):
                return True, None
            return False, f"normal form {normal_form(poly, value.handle.groebner)}"
        if stmt.kind == "sop":
            result = is_system_of_parameters(self.qring, args[0].raw)
            if result.is_sop:
                return True, None
            return False, (
                f"quotient dimension {result.quotient_dim}; "
                f"count matches dimension: {result.count_matches_dim}"
            )
        result = is_regular_sequence(self.qring, args[0].raw)
        if result.regular:
            return True, None
        if not result.proper:
            return False, "the sequence generates the unit ideal"
        return False, f"first zerodivisor at step {result.first_failure}"

    def _run_report(self, stmt, args):
        if stmt.kind == "closedness":
            value, mode = args
            return closedness_necessary_test(self.qring, self._plain(value), mode)
        if stmt.kind == "contain":
            return theorem_contain_verdict(self.qring, self._plain(args[0]))
        if stmt.kind == "structural":
            p_value, i_value = args
            return structural_verdict(
                self.ring,
                self._plain(p_value),
                i_value.raw,
                unmixed_asserted="unmixed" in stmt.flags,
                seed=self.options.seed,
            )
        if stmt.kind == "capture":
            return colon_capture_report(self.qring, args[0].raw)
        if stmt.kind == "netest":
            return construct_ne_test_data(self.qring)
        value, x, c = args
        return bounded_frobenius_check(
            self.qring, self._plain(value), x, c, 0, self.options.emax
        )


def run_script(script: Script, options: RunOptions = RunOptions(), scenario: str = "script") -> ReportDocument:
    """Evaluate a parsed script and collect its report document."""
    return Evaluator(options).run(script, scenario)
