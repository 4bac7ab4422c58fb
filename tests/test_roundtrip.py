"""Seeded round-trip fuzz of the script printer and parser.

Random statement trees are built by the grammar: sums of products of
atoms, so that the unparenthesized printed form parses back to the same
tree.  Every script holds one statement of each check and report kind
between random `let` bindings, and the argument of each kind is drawn
from its own slot list below, written independently of the parser.
Printing a script and parsing the text back must give an equal tree.
"""

import random
from functools import lru_cache

from icalc.script import (
    CHECK_KINDS,
    REPORT_KINDS,
    CheckStmt,
    EForm,
    EIdeal,
    EKer,
    EName,
    LetStmt,
    ReportStmt,
    RingDecl,
    Script,
    parse_script,
    print_script,
)

SEEDS = range(200)
VARIABLES = ("X", "Y", "Z", "T", "W1")
TARGETS = ("U", "V", "S_2")

CHECK_SLOTS = {
    "equal": ("expr", "expr"),
    "member": ("poly", "expr"),
    "sop": ("expr",),
    "regular": ("expr",),
}
REPORT_SLOTS = {
    "closedness": ("expr", "mode"),
    "contain": ("expr",),
    "structural": ("expr", "expr", "unmixed"),
    "capture": ("expr",),
    "netest": (),
    "frobenius": ("expr", "poly", "poly"),
}


def _poly_text(rng, names):
    """Canonical polynomial text: '+' and '-' spaced, everything else tight."""
    out = "- " if rng.random() < 0.2 else ""
    for i in range(rng.randint(1, 3)):
        if i:
            out += rng.choice((" + ", " - "))
        factors = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.25:
                factors.append(str(rng.randint(0, 40)))
            elif roll < 0.5:
                factors.append("%s^%d" % (rng.choice(names), rng.randint(0, 9)))
            else:
                factors.append(rng.choice(names))
        out += "*".join(factors)
    return out


def _expr(rng, names, depth):
    node = _prod(rng, names, depth)
    while rng.random() < 0.3:
        node = EForm("+", (node, _prod(rng, names, depth)))
    return node


def _prod(rng, names, depth):
    node = _atom(rng, names, depth)
    while rng.random() < 0.3:
        node = EForm("*", (node, _atom(rng, names, depth)))
    return node


def _atom(rng, names, depth):
    forms = ["ideal", "ker"] + (["name"] if names else [])
    if depth:
        forms += ["meet", "colon", "bracket", "dc"]
    form = rng.choice(forms)
    if form == "ideal":
        return EIdeal(tuple(_poly_text(rng, VARIABLES) for _ in range(rng.randint(1, 3))))
    if form == "name":
        return EName(rng.choice(names))
    if form == "ker":
        targets = tuple(rng.sample(TARGETS, rng.randint(1, len(TARGETS))))
        sources = rng.sample(VARIABLES, rng.randint(1, 3))
        return EKer(targets, tuple((s, _poly_text(rng, targets)) for s in sources))
    if form == "bracket":
        return EForm("bracket", (_expr(rng, names, depth - 1), rng.randint(0, 12)))
    if form == "dc":
        return EForm("dc", (_expr(rng, names, depth - 1), rng.choice(("tight", "ne"))))
    pair = (_expr(rng, names, depth - 1), _expr(rng, names, depth - 1))
    return EForm(form, pair)


def _args(rng, names, slots):
    args, flags = [], ()
    for slot in slots:
        if slot == "expr":
            args.append(_expr(rng, names, rng.randint(0, 2)))
        elif slot == "poly":
            args.append(("poly", _poly_text(rng, VARIABLES)))
        elif slot == "mode":
            args.append(rng.choice(("tight", "ne")))
        elif rng.random() < 0.5:
            flags = ("unmixed",)
    return tuple(args), flags


def random_script(seed):
    rng = random.Random(seed)
    variables = tuple(rng.sample(VARIABLES, rng.randint(1, len(VARIABLES))))
    defining = primes = None
    if rng.random() < 0.7:
        defining = _expr(rng, [], rng.randint(0, 2))
        primes = tuple(_expr(rng, [], 1) for _ in range(rng.randint(0, 3)))
    stmts = [RingDecl("R", rng.choice((2, 3, 5, 32003)), variables, defining, primes or (), 1)]
    heads = ["let"] * rng.randint(0, 4) + list(CHECK_SLOTS) + list(REPORT_SLOTS)
    rng.shuffle(heads)
    names = []
    for line, head in enumerate(heads, start=2):
        if head == "let":
            stmts.append(LetStmt(f"I{line}", _expr(rng, names, rng.randint(0, 2)), line))
            names.append(f"I{line}")
        elif head in CHECK_SLOTS:
            args, _ = _args(rng, names, CHECK_SLOTS[head])
            stmts.append(CheckStmt(head, args, line))
        else:
            args, flags = _args(rng, names, REPORT_SLOTS[head])
            stmts.append(ReportStmt(head, args, flags, line))
    return Script(tuple(stmts))


@lru_cache(maxsize=None)
def _scripts():
    return tuple(random_script(seed) for seed in SEEDS)


def test_the_fuzz_covers_every_kind_and_slot():
    assert tuple(CHECK_SLOTS) == CHECK_KINDS
    assert tuple(REPORT_SLOTS) == REPORT_KINDS
    seen = set()
    for script in _scripts():
        for stmt in script.statements:
            if isinstance(stmt, ReportStmt) and stmt.kind == "structural":
                seen.add(("unmixed", bool(stmt.flags)))
            if isinstance(stmt, RingDecl):
                seen.add(("defining", stmt.defining is not None))
            stack = list(getattr(stmt, "args", ()))
            stack += [getattr(stmt, "expr", None), getattr(stmt, "defining", None)]
            while stack:
                node = stack.pop()
                if isinstance(node, EForm):
                    seen.add(("form", node.kind))
                    # a form's ideal operands; its int and mode slots are not statement slots
                    stack += [arg for arg in node.args if not isinstance(arg, (int, str))]
                elif node is not None:
                    seen.add(type(node).__name__)
    assert {("unmixed", True), ("unmixed", False)} <= seen
    assert {("defining", True), ("defining", False)} <= seen
    assert {"EIdeal", "EName", "EKer", "tuple", "str"} <= seen
    assert {("form", kind) for kind in ("+", "*", "meet", "colon", "bracket", "dc")} <= seen


def test_print_then_parse_gives_the_same_tree():
    for seed, script in zip(SEEDS, _scripts()):
        text = print_script(script)
        assert parse_script(text) == script, (seed, text)
        assert print_script(parse_script(text)) == text, seed
