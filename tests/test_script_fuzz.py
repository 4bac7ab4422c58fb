"""Seeded mutation fuzz of the four scenario scripts.

Each case takes one scenario, picks one non-comment line and deletes,
inserts or replaces one to three of its tokens; replacements come mostly
from the script's own tokens and otherwise from a small pool of grammar
words.  Every mutated script must either run to a report or stop with an
IcalcError (ScriptError included); anything else is a crash.  A sample
also goes through the command line, which must exit with its documented
code and print no traceback.

The pool holds no integer above 3, so no `bracket` exponent can exceed 3
and no case runs for long.
"""

import random
import re
from collections import Counter
from functools import lru_cache

import pytest

from icalc import cli
from icalc.errors import IcalcError
from icalc.scenarios import SCENARIOS
from icalc.script import RunOptions, parse_script, run_script

CASES_PER_SCENARIO = 750
CLI_CASES = 48
OPTIONS = RunOptions(emax=2)
POOL = (
    "(", ")", ",", ";", "+", "-", "*", "^", "->", "/", "[", "]", "=",
    "0", "1", "3", "ideal", "meet", "colon", "bracket", "dc", "ker",
    "tight", "ne", "unmixed", "let", "check", "report", "ring", "R", "U",
)
TOKEN = re.compile(r"->|\w+|\S")


def _class(tok):
    return "int" if tok.isdigit() else "name" if tok[0].isalpha() or tok[0] == "_" else "op"


def mutate(source, rng):
    """One mutated copy of source: 1 to 3 tokens of one line changed.

    A replacement usually keeps the class of the token it replaces
    (name, integer or operator), so that more cases parse.
    """
    lines = source.splitlines()
    own = TOKEN.findall(re.sub(r"#.*", "", source))
    spots = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
    at = rng.choice(spots)
    toks = TOKEN.findall(lines[at])
    k = rng.randint(1, 3)
    i = rng.randrange(len(toks) + 1)

    def draw(like=None):
        if rng.random() < 0.15:
            return rng.choice(POOL)
        same = [t for t in own if _class(t) == _class(like)] if like else own
        return rng.choice(same)

    op = rng.choice(("delete", "insert", "replace"))
    if op == "delete":
        del toks[i:i + k]
    elif op == "insert":
        toks[i:i] = [draw() for _ in range(k)]
    else:
        toks[i:i + k] = [draw(tok) for tok in toks[i:i + k]] or [draw()]
    lines[at] = " ".join(toks)
    return "\n".join(lines) + "\n"


def outcome(text):
    """'clean', 'parse' or 'eval'; any other exception propagates."""
    try:
        script = parse_script(text)
    except IcalcError:
        return "parse"
    try:
        run_script(script, OPTIONS).to_json()
    except IcalcError:
        return "eval"
    return "clean"


def cases(name, seed, count):
    rng = random.Random(f"{name}:{seed}")
    return [mutate(SCENARIOS[name], rng) for _ in range(count)]


@lru_cache(maxsize=None)
def _outcomes(name):
    mix = Counter()
    for text in cases(name, 1, CASES_PER_SCENARIO):
        try:
            mix[outcome(text)] += 1
        except Exception as exc:  # a crash: report the script that caused it
            pytest.fail(f"{type(exc).__name__}: {exc}\n--- script ---\n{text}")
    return mix


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_mutation_ends_in_a_report_or_an_icalc_error(name):
    mix = _outcomes(name)
    assert sum(mix.values()) == CASES_PER_SCENARIO
    assert mix["parse"] and mix["clean"], mix


def test_the_mutations_reach_evaluation_errors():
    assert sum(_outcomes(name)["eval"] for name in SCENARIOS) > 0


def test_a_sample_exits_with_its_documented_code(tmp_path, capsys):
    expected = {"parse": {2}, "eval": {3}, "clean": {0, 1}}
    path = tmp_path / "case.icl"
    sample = [text for name in sorted(SCENARIOS) for text in cases(name, 2, CLI_CASES // 4)]
    assert len(set(sample)) > CLI_CASES // 2
    for n, text in enumerate(sample):
        path.write_text(text)
        code = cli.main(["run", str(path), "--emax", "2"])
        err = capsys.readouterr().err
        assert code in expected[outcome(text)], (n, code, text)
        assert "Traceback" not in err, text
