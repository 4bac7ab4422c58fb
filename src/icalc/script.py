"""The ideal-calculus script language.

Line-oriented statements drive every operation the workbench offers:

    ring R = poly(p=2; X, Y, Z) / ideal(X*Y, X*Z) with primes [ideal(X), ideal(Y, Z)]
    let I = ideal(Y, X - Z)
    check sop(I)
    report closedness(ideal(0), ne)

One ambient ring is active per script; the declaration's / clause
establishes the quotient context and its optional primes list feeds the
decomposition machinery.  Each declared prime is an ambient ideal that
contains J, passed as entered, so the ring's own checks apply to it.
Everything after '#' on a line is a comment.

Script-level ideal values track two forms.  The raw generator tuple, as
entered, feeds the count-sensitive operations (sop, regular, the
theorem verdicts).  The handle, an ambient ideal that contains the
defining ideal J, feeds equality, membership and the algebraic
operators, which is what reading generators in the presented ring
means.  Each handle lists J's generators at most once:
ideal(...), ker(...), + and * values join their raw generators with J,
and meet, colon, bracket and dc values, which contain J already, are
their own handle.  Derived values (meet, colon, bracket, dc, ker) take
their reduced basis as the raw form.
"""

from __future__ import annotations

import json

from . import __version__
from .errors import (
    ArgumentTypeError,
    IcalcError,
    NeedsPrimesError,
    ParseError,
    PreconditionError,
    RingSpecError,
    ScriptError,
)
from .field import PrimeField
from .groebner import normal_form
from .ideals import Ideal, ring_map_kernel
from .monomials import GREVLEX, LEX, MonomialOrder
from .poly import PolyRing, parse_poly, read_poly, tokenize
from .records import Record
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

# The argument slots of each named form, check and report kind, in
# order: 'expr' an ideal expression, 'poly' a polynomial text, 'int' an
# integer, 'mode' tight or ne, and a trailing 'unmixed' an optional flag.
FORM_ARGS = {
    "meet": ("expr", "expr"),
    "colon": ("expr", "expr"),
    "bracket": ("expr", "int"),
    "dc": ("expr", "mode"),
}
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

class EIdeal(Record):
    __slots__ = ("gens",)  # canonical generator texts


class EName(Record):
    __slots__ = ("name",)


class EForm(Record):
    # kind is '+' or '*' with two operands, or a FORM_ARGS name with its
    # slots' values
    __slots__ = ("kind", "args")


class EKer(Record):
    # target variable names; (source variable, image text) pairs
    __slots__ = ("targets", "images")


class RingDecl(Record):
    # defining is an expr or None; primes are exprs, possibly none
    __slots__ = ("name", "p", "variables", "defining", "primes", "line")
    _uncompared = ("line",)


class LetStmt(Record):
    __slots__ = ("name", "expr", "line")
    _uncompared = ("line",)


class CheckStmt(Record):
    # args are exprs and ("poly", text) entries
    __slots__ = ("kind", "args", "line")
    _uncompared = ("line",)


class ReportStmt(Record):
    __slots__ = ("kind", "args", "flags", "line")
    _uncompared = ("line",)


class Script(Record):
    __slots__ = ("statements",)


# ---------------------------------------------------------------- parsing

def _too_deep(line):
    return ScriptError(
        f"line {line}: expression nested deeper than {MAX_NESTING} levels"
    )


class _LineParser:
    def __init__(self, toks, line_no, rings):
        self.toks = toks
        self.rings = rings  # ring names declared so far; no expression may use one
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

    def expect(self, kind, value=None, what=None):
        """The next token's value; it must be of kind, and equal value when
        one is given.  Otherwise an error names what, or the quoted value."""
        found_kind, found = self.peek()
        if found_kind != kind or (value is not None and found != value):
            self.error(what or f"'{value}'")
        self.pos += 1
        return found

    def expect_fresh(self, seen, what, noun):
        """A name not in seen; a repeat is an error at that name."""
        name = self.expect("name", what=what)
        if name in seen:
            self.pos -= 1
            self.fail(f"duplicate {noun} {name!r}")
        seen.append(name)
        return name

    def listed(self, read):
        """One or more items, each read by read(), separated by commas."""
        items = [read()]
        while self.peek() == ("op", ","):
            self.pos += 1
            items.append(read())
        return tuple(items)

    def expect_names(self, what, noun):
        """A comma-separated list of distinct names."""
        names = []
        return self.listed(lambda: self.expect_fresh(names, what, noun))

    def expect_mode(self):
        kind, mode = self.peek()
        if kind != "name" or mode not in (TIGHT, NE):
            self.error("'tight' or 'ne'")
        self.pos += 1
        return mode

    def at_end(self):
        return self.pos >= len(self.toks)

    def poly_text(self, what="a polynomial"):
        """The canonical text of the polynomial at the cursor, read by the
        polynomial grammar; its names are resolved at evaluation."""
        start = self.pos
        if self.peek()[0] not in ("int", "name") and self.peek() != ("op", "-"):
            self.error(what)
        try:
            self.pos = read_poly(self.toks, start)[1]
        except ParseError as exc:
            self.fail(exc)
        # adjacent factors would print glued into another name
        if self.peek()[0] in ("int", "name"):
            self.error("'*' between factors")
        return _toks_text(self.toks[start:self.pos])

    def call_args(self, slots):
        """The parenthesized arguments of a form, check or report, read
        slot by slot; returns the values and the flags given."""
        self.expect("op", "(")
        args = []
        flags = ()
        for i, slot in enumerate(slots):
            if slot == "unmixed":
                if self.peek() == ("op", ","):
                    self.pos += 1
                    self.expect("name", "unmixed")
                    flags = ("unmixed",)
                continue
            if i:
                self.expect("op", ",")
            if slot == "expr":
                args.append(self.parse_expr())
            elif slot == "poly":
                args.append(("poly", self.poly_text()))
            elif slot == "int":
                args.append(self.expect("int", what="an integer"))
            else:
                args.append(self.expect_mode())
        self.expect("op", ")")
        return tuple(args), flags

    def parse_expr(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _too_deep(self.line)
        node = self.parse_prod()
        while self.peek() == ("op", "+"):
            self.pos += 1
            node = EForm("+", (node, self.parse_prod()))
        self.depth -= 1
        return node

    def parse_prod(self):
        node = self.parse_atom()
        while self.peek() == ("op", "*"):
            self.pos += 1
            node = EForm("*", (node, self.parse_atom()))
        return node

    def parse_atom(self):
        kind, value = self.peek()
        if kind != "name":
            self.error("an ideal expression")
        if value == "ideal":
            self.pos += 1
            self.expect("op", "(")
            gens = self.listed(self.poly_text)
            self.expect("op", ")")
            return EIdeal(gens)
        if value in FORM_ARGS:
            self.pos += 1
            return EForm(value, self.call_args(FORM_ARGS[value])[0])
        if value == "ker":
            self.pos += 1
            self.expect("op", "(")
            targets = self.expect_names("a target variable", "target variable")
            self.expect("op", ";")
            sources = []

            def image():
                src = self.expect_fresh(sources, "a source variable", "source variable")
                self.expect("op", "->")
                return (src, self.poly_text("an image polynomial"))

            images = self.listed(image)
            self.expect("op", ")")
            return EKer(targets, images)
        if value in self.rings:
            self.fail(f"{value!r} names the ring, not an ideal")
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
    ring_names = set()
    for line_no, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            toks = tokenize(line)
        except ParseError as exc:
            raise ScriptError(f"line {line_no}: {exc}") from exc
        lp = _LineParser(toks, line_no, ring_names)
        head = lp.expect("name", what="'ring', 'let', 'check' or 'report'")
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
    long '+' or '*' chains build without nesting parentheses.  Slot values
    other than expressions pass."""
    if depth > MAX_NESTING:
        raise _too_deep(line)
    if isinstance(expr, EName):
        if expr.name not in seen:
            raise ScriptError(f"line {line}: unknown identifier {expr.name!r}")
    elif isinstance(expr, EForm):
        for arg in expr.args:
            _check_bound(arg, seen, line, depth + 1)


def _parse_ring(lp, seen):
    name = lp.expect("name", what="a ring name")
    _check_fresh(name, seen, lp.line)
    lp.rings.add(name)
    lp.expect("op", "=")
    lp.expect("name", "poly")
    lp.expect("op", "(")
    lp.expect("name", "p")
    lp.expect("op", "=")
    p = lp.expect("int", what="an integer")
    lp.expect("op", ";")
    variables = lp.expect_names("a variable name", "variable")
    lp.expect("op", ")")
    defining = None
    primes = ()
    if lp.peek() == ("op", "/"):
        lp.pos += 1
        defining = lp.parse_expr()
        _check_bound(defining, seen, lp.line)
        if lp.peek() == ("name", "with"):
            lp.pos += 1
            lp.expect("name", "primes")
            lp.expect("op", "[")
            primes = lp.listed(lp.parse_expr)
            lp.expect("op", "]")
            for e in primes:
                _check_bound(e, seen, lp.line)
    return RingDecl(name, p, variables, defining, primes, lp.line)


def _parse_let(lp, seen):
    name = lp.expect("name", what="a binding name")
    lp.expect("op", "=")
    expr = lp.parse_expr()
    _check_bound(expr, seen, lp.line)
    _check_fresh(name, seen, lp.line)
    return LetStmt(name, expr, lp.line)


def _parse_call(lp, seen, head):
    """A check or report statement, read by its kind's argument slots."""
    table = CHECK_ARGS if head == "check" else REPORT_ARGS
    kind = lp.expect("name", what=f"a {head} kind")
    if kind not in table:
        lp.pos -= 1
        lp.error("one of " + ", ".join(table))
    args, flags = lp.call_args(table[kind])
    for arg in args:
        _check_bound(arg, seen, lp.line)
    if head == "check":
        return CheckStmt(kind, args, lp.line)
    return ReportStmt(kind, args, flags, lp.line)


# ---------------------------------------------------------------- printing

def _expr_text(expr) -> str:
    if isinstance(expr, EIdeal):
        return "ideal(%s)" % ", ".join(expr.gens)
    if isinstance(expr, EName):
        return expr.name
    if isinstance(expr, EForm):
        if expr.kind in FORM_ARGS:
            return f"{expr.kind}({_args_text(expr.args)})"
        infix = " + " if expr.kind == "+" else expr.kind
        return infix.join(_expr_text(arg) for arg in expr.args)
    if isinstance(expr, EKer):
        pieces = ", ".join(f"{src} -> {text}" for src, text in expr.images)
        return "ker(%s; %s)" % (", ".join(expr.targets), pieces)
    raise TypeError(f"not an expression: {expr!r}")


def _args_text(args) -> str:
    """Slot values as written: expressions, polynomial texts, ints, modes."""
    return ", ".join(
        arg[1] if isinstance(arg, tuple)
        else str(arg) if isinstance(arg, (str, int))
        else _expr_text(arg)
        for arg in args
    )


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
                head += " with primes [%s]" % _args_text(stmt.primes)
        return head
    if isinstance(stmt, LetStmt):
        return f"let {stmt.name} = {_expr_text(stmt.expr)}"
    if isinstance(stmt, (CheckStmt, ReportStmt)):
        head = "check" if isinstance(stmt, CheckStmt) else "report"
        args = stmt.args + getattr(stmt, "flags", ())
        return "%s %s(%s)" % (head, stmt.kind, _args_text(args))
    raise TypeError(f"not a statement: {stmt!r}")


def print_script(script: Script) -> str:
    """Canonical text; parsing it back yields an identical AST."""
    return "\n".join(_stmt_text(s) for s in script.statements) + "\n"


# ---------------------------------------------------------------- evaluation

class RunOptions(Record):
    __slots__ = ("order", "emax", "seed")
    _defaults = {"order": "grevlex", "emax": 5, "seed": 0}


class ScriptIdeal(Record):
    """A script-level ideal value.

    raw is the generator tuple as entered (a derived value's reduced
    basis); handle is the ambient ideal, containing J, that the value
    means in the presented ring.
    """

    __slots__ = ("raw", "handle")


class ReportDocument(Record):
    """Everything a script run produced, ready for text or JSON emission."""

    # checks are (label, passed, detail or None) triples; entries are
    # (label, kind, payload) triples
    __slots__ = ("scenario", "version", "seed", "order", "emax", "checks", "entries")

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
        # Checked once, before any statement runs: a script need not
        # declare a ring or report frobenius to be run with the options.
        if options.order not in (LEX, GREVLEX):
            raise RingSpecError(f"unknown order {options.order!r}; expected 'lex' or 'grevlex'")
        # type(), not isinstance: a bool is an int subclass, but no count or seed.
        if type(options.emax) is not int or options.emax < 0:
            raise PreconditionError(f"need 0 <= e_min <= e_max; emax is {options.emax!r}")
        if type(options.seed) is not int:
            raise ArgumentTypeError(f"the run seed must be an integer; seed is {options.seed!r}")
        self.options = options
        self.ring = None
        self.qring = None
        self.defining = None
        self.bindings = {}
        self.checks = []
        self.entries = []

    def run(self, script: Script, scenario: str) -> ReportDocument:
        for stmt in script.statements:
            try:
                self._execute(stmt)
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
        elif self.ring is None:
            raise ScriptError("no ring declared yet")
        elif isinstance(stmt, LetStmt):
            self.bindings[stmt.name] = self._eval(stmt.expr)
        elif isinstance(stmt, CheckStmt):
            passed, detail = self._run_check(stmt, self._args(stmt.args))
            self.checks.append((_stmt_text(stmt), passed, detail))
        else:
            payload = self._run_report(stmt, self._args(stmt.args))
            self.entries.append((_stmt_text(stmt), stmt.kind, payload))

    def _declare_ring(self, stmt):
        if self.ring is not None:
            raise ScriptError("only one ring declaration per script")
        self.ring = PolyRing(PrimeField(stmt.p), stmt.variables, MonomialOrder(self.options.order))
        self.defining = Ideal(self.ring, ())
        if stmt.defining is not None:
            self.defining = self._eval(stmt.defining).handle
        primes = None
        if stmt.primes:
            primes = tuple(self._plain(self._eval(e)) for e in stmt.primes)
        self.qring = make_ring(self.ring, self.defining, primes=primes)

    def _args(self, args):
        """Each slot's value, left to right: a ScriptIdeal, a Poly, an int
        or the mode."""
        return [
            arg if isinstance(arg, (str, int))
            else parse_poly(self.ring, arg[1]) if isinstance(arg, tuple)
            else self._eval(arg)
            for arg in args
        ]

    def _plain(self, value: ScriptIdeal) -> Ideal:
        return Ideal(self.ring, value.raw)

    def _entered(self, raw) -> ScriptIdeal:
        return ScriptIdeal(raw=raw, handle=Ideal(self.ring, raw) + self.defining)

    def _derived(self, ideal: Ideal) -> ScriptIdeal:
        # meet, colon, bracket and dc results already contain J.
        return ScriptIdeal(raw=ideal.groebner, handle=ideal)

    def _eval(self, expr) -> ScriptIdeal:
        if isinstance(expr, EIdeal):
            return self._entered(tuple(
                g for g in (parse_poly(self.ring, t) for t in expr.gens) if not g.is_zero
            ))
        if isinstance(expr, EName):
            return self.bindings[expr.name]
        if isinstance(expr, EForm):
            if expr.kind == "dc" and self.qring is None:
                raise NeedsPrimesError("dc(...) cannot appear in the ring declaration")
            a, b = self._args(expr.args)
            if expr.kind == "+":
                return self._entered(a.raw + b.raw)
            if expr.kind == "*":
                return self._entered(tuple(f * g for f in a.raw for g in b.raw))
            if expr.kind == "meet":
                return self._derived(a.handle.intersect(b.handle))
            if expr.kind == "colon":
                return self._derived(a.handle.colon(b.handle))
            if expr.kind == "bracket":
                return self._derived(self._plain(a).bracket_power(b) + self.defining)
            return self._derived(decomposition_closure(self.qring, self._plain(a), b))
        if isinstance(expr, EKer):
            target = PolyRing(
                self.ring.field, expr.targets, MonomialOrder.grevlex()
            )
            images = {src: parse_poly(target, text) for src, text in expr.images}
            return self._entered(ring_map_kernel(self.ring, target, images).generators)
        raise TypeError(f"not an expression: {expr!r}")

    def _run_check(self, stmt, args):
        if stmt.kind == "equal":
            a, b = args
            if a.handle == b.handle:
                return True, None
            return False, "left = %s; right = %s" % tuple(
                Ideal(self.ring, v.handle.groebner) for v in (a, b)
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
