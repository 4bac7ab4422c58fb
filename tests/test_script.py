import json

import pytest

from icalc import (
    RunOptions,
    parse_script,
    print_script,
    run_script,
)
from icalc.errors import (
    ArgumentTypeError,
    IcalcError,
    PreconditionError,
    RingSpecError,
    ScriptError,
)
from icalc.scenarios import SCENARIOS, run_scenario, scenario_script
from icalc.script import (
    CheckStmt,
    EForm,
    EIdeal,
    EKer,
    EName,
    Evaluator,
    MAX_NESTING,
    LetStmt,
    RingDecl,
)

RING_LINE = (
    "ring R = poly(p=2; X, Y, Z) / ideal(X*Y, X*Z) "
    "with primes [ideal(X), ideal(Y, Z)]"
)


# ---------------------------------------------------------------- parsing

def test_parse_ring_declaration():
    decl = parse_script(RING_LINE).statements[0]
    assert isinstance(decl, RingDecl)
    assert decl.name == "R"
    assert decl.p == 2
    assert decl.variables == ("X", "Y", "Z")
    assert decl.defining == EIdeal(("X*Y", "X*Z"))
    assert decl.primes == (EIdeal(("X",)), EIdeal(("Y", "Z")))


def test_parse_let_keeps_generator_texts():
    script = parse_script(RING_LINE + "\nlet I = ideal(Y, X - Z)")
    let = script.statements[1]
    assert isinstance(let, LetStmt)
    assert let.name == "I"
    assert let.expr == EIdeal(("Y", "X - Z"))


def test_parse_nested_expression_tree():
    src = "\n".join(
        (
            RING_LINE,
            "let I = ideal(Y)",
            "let P = ideal(X)",
            "let Q = ideal(Y, Z)",
            "check equal(I + meet(P, Q), meet(I + P, I + Q))",
        )
    )
    stmt = parse_script(src).statements[-1]
    assert isinstance(stmt, CheckStmt)
    left, right = stmt.args
    assert left == EForm("+", (EName("I"), EForm("meet", (EName("P"), EName("Q")))))
    assert right == EForm(
        "meet",
        (EForm("+", (EName("I"), EName("P"))), EForm("+", (EName("I"), EName("Q")))),
    )


def test_parse_bracket_dc_and_ker():
    src = "\n".join(
        (
            RING_LINE,
            "let I = ideal(Y)",
            "let B = bracket(I, 2)",
            "let D = dc(I, ne)",
            "let K = ker(U, T; X -> U^2, Y -> U^3, Z -> U*T)",
        )
    )
    _, _, b, d, k = parse_script(src).statements
    assert b.expr == EForm("bracket", (EName("I"), 2))
    assert d.expr == EForm("dc", (EName("I"), "ne"))
    assert k.expr == EKer(
        ("U", "T"), (("X", "U^2"), ("Y", "U^3"), ("Z", "U*T"))
    )


def test_comments_and_blank_lines_are_skipped():
    src = "\n".join(
        (
            "# a full-line comment",
            "",
            RING_LINE + "  # trailing comment",
            "let I = ideal(Y)  # another",
        )
    )
    assert len(parse_script(src).statements) == 2


def test_round_trip_on_every_scenario():
    for name in SCENARIOS:
        script = parse_script(scenario_script(name))
        again = parse_script(print_script(script))
        assert again == script, name


def test_parse_error_reports_position():
    with pytest.raises(ScriptError, match=r"line 1, token 3"):
        parse_script("ring R + poly(p=2; X)")


def test_parse_error_on_trailing_tokens():
    with pytest.raises(ScriptError, match="expected end of line"):
        parse_script(RING_LINE + "\nlet I = ideal(Y) ideal(Z)")


def test_duplicate_binding_is_rejected():
    src = RING_LINE + "\nlet I = ideal(Y)\nlet I = ideal(Z)"
    with pytest.raises(ScriptError, match="line 3: duplicate binding of 'I'"):
        parse_script(src)


def test_unknown_identifier_is_rejected_at_parse_time():
    with pytest.raises(ScriptError, match="line 2: unknown identifier 'K'"):
        parse_script(RING_LINE + "\nlet I = K + ideal(Y)")


@pytest.mark.parametrize(
    "line, token",
    [
        ("report capture(R)", 4),
        ("let A = R", 4),
        ("check equal(ideal(X) + R, ideal(X))", 9),
        ("let B = meet(ideal(Y), colon(ideal(X), R))", 18),
    ],
)
def test_ring_name_is_not_an_ideal(line, token):
    with pytest.raises(ScriptError, match=rf"line 2, token {token}: 'R' names the ring, not an ideal"):
        parse_script(RING_LINE + "\n" + line)


def test_ring_name_is_not_an_ideal_in_its_own_declaration():
    with pytest.raises(ScriptError, match=r"line 1, token 15: 'R' names the ring, not an ideal"):
        parse_script("ring R = poly(p=2; X, Y) / R")


def test_ring_name_stays_reserved():
    with pytest.raises(ScriptError, match="line 2: duplicate binding of 'R'"):
        parse_script(RING_LINE + "\nlet R = ideal(Y)")


def test_unknown_statement_head():
    with pytest.raises(ScriptError, match="expected 'ring', 'let', 'check' or 'report'"):
        parse_script("compute ideal(X)")


@pytest.mark.parametrize(
    "nest",
    [
        lambda n: "meet(" * (n - 1) + "ideal(X)" + ", ideal(Y))" * (n - 1),
        lambda n: " * ".join(["ideal(X)"] * n),
    ],
    ids=["meet", "product-chain"],
)
def test_nesting_limit_is_exact(nest):
    parse_script(RING_LINE + "\nlet I = " + nest(MAX_NESTING))
    with pytest.raises(ScriptError, match="line 2: expression nested deeper"):
        parse_script(RING_LINE + "\nlet I = " + nest(MAX_NESTING + 1))


def test_bad_dc_mode_is_rejected():
    with pytest.raises(ScriptError, match="'tight' or 'ne'"):
        parse_script(RING_LINE + "\nlet D = dc(ideal(Y), weak)")


@pytest.mark.parametrize(
    "line, message",
    [
        ("let D = dc(ideal(Y), weak)", "line 2, token 11: expected 'tight' or 'ne', found 'weak'"),
        (
            "report closedness(ideal(Y), weak)",
            "line 2, token 9: expected 'tight' or 'ne', found 'weak'",
        ),
        ("let D = dc(ideal(Y), 3)", "line 2, token 11: expected 'tight' or 'ne', found 3"),
    ],
    ids=["dc", "closedness", "dc-int"],
)
def test_bad_mode_is_reported_at_the_mode(line, message):
    with pytest.raises(ScriptError) as info:
        parse_script(RING_LINE + "\n" + line)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "src, message",
    [
        (
            "ring R = poly(p=2; X, X2)\ncheck equal(ideal(X 2), ideal(X2))",
            "line 2, token 7: expected '*' between factors, found 2",
        ),
        (
            "ring R = poly(p=2; Y, Y1)\nlet I = ideal(Y Y1 2)",
            "line 2, token 7: expected '*' between factors, found 'Y1'",
        ),
        (
            "ring R = poly(p=2; X, Y)\nreport frobenius(ideal(X), X^2 3, Y)",
            "line 2, token 12: expected '*' between factors, found 3",
        ),
        (
            "ring R = poly(p=2; X, Y)\nlet K = ker(U; X -> 2 U, Y -> U)",
            "line 2, token 11: expected '*' between factors, found 'U'",
        ),
    ],
    ids=["name-int", "name-name", "int-int", "int-name"],
)
def test_adjacent_factors_need_a_star(src, message):
    with pytest.raises(ScriptError) as info:
        parse_script(src)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "src, message",
    [
        ("ring R = poly(p=2; X, Y, X)", "line 1, token 14: duplicate variable 'X'"),
        (
            RING_LINE + "\nlet K = ker(U; X -> U, Y -> U^2, X -> U^3)",
            "line 2, token 18: duplicate source variable 'X'",
        ),
        (
            RING_LINE + "\nlet K = ker(U, U; X -> U)",
            "line 2, token 8: duplicate target variable 'U'",
        ),
    ],
    ids=["ring-variable", "ker-source", "ker-target"],
)
def test_repeated_names_are_rejected_where_they_repeat(src, message):
    with pytest.raises(ScriptError) as info:
        parse_script(src)
    assert str(info.value) == message


# ---------------------------------------------------------------- running

def test_empty_script_runs_clean():
    doc = run_script(parse_script(""), scenario="empty")
    assert doc.checks == ()
    assert doc.entries == ()
    assert doc.all_checks_pass


def test_statement_before_ring_fails():
    script = parse_script("let I = ideal(Y)")
    with pytest.raises(ScriptError, match="no ring declared yet"):
        run_script(script)


def test_second_ring_declaration_fails():
    script = parse_script(RING_LINE + "\n" + RING_LINE.replace("R", "S"))
    with pytest.raises(ScriptError, match="only one ring declaration"):
        run_script(script)


def test_failed_equal_prints_both_bases():
    src = RING_LINE + "\ncheck equal(ideal(Y), ideal(Z))"
    doc = run_script(parse_script(src))
    (label, passed, detail), = doc.checks
    assert label == "check equal(ideal(Y), ideal(Z))"
    assert not passed
    assert not doc.all_checks_pass
    assert "left = (" in detail and "right = (" in detail
    assert "Y" in detail and "Z" in detail


@pytest.mark.parametrize(
    "value, detail",
    [
        ("ideal(X)", "first zerodivisor at step 0"),
        ("ideal(1)", "the sequence generates the unit ideal"),
    ],
    ids=["zerodivisor", "unit"],
)
def test_failed_regular_names_the_failure(value, detail):
    src = f"ring R = poly(p=2; X, Y) / ideal(X*Y)\ncheck regular({value})"
    (_, passed, found), = run_script(parse_script(src)).checks
    assert (passed, found) == (False, detail)


def test_failed_member_shows_the_normal_form():
    src = RING_LINE + "\ncheck member(Y + Z, ideal(X))"
    doc = run_script(parse_script(src))
    (_, passed, detail), = doc.checks
    assert not passed
    assert detail.startswith("normal form ")
    assert "Y + Z" in detail


def test_passing_checks_carry_no_detail():
    src = RING_LINE + "\ncheck member(X*Y, ideal(0))"
    doc = run_script(parse_script(src))
    (_, passed, detail), = doc.checks
    assert passed and detail is None


def test_evaluation_error_carries_line_and_statement():
    src = "ring R = poly(p=2; X, Y)\nlet I = colon(ideal(Y), ideal(0))"
    script = parse_script(src)
    with pytest.raises(ScriptError) as err:
        run_script(script)
    assert "line 2" in str(err.value)
    assert "colon(ideal(Y), ideal(0))" in str(err.value)


def test_lex_option_changes_the_printed_basis():
    src = "ring R = poly(p=2; X, Y)\ncheck equal(ideal(Y^3 + X), ideal(0))"
    script = parse_script(src)
    grev = run_script(script, RunOptions(order="grevlex"))
    lexi = run_script(script, RunOptions(order="lex"))
    assert "Y^3 + X" in grev.checks[0][2]
    assert "X + Y^3" in lexi.checks[0][2]
    assert grev.order == "grevlex" and lexi.order == "lex"


@pytest.fixture
def executed(monkeypatch):
    """The statements an Evaluator executes, in order."""
    seen = []
    execute = Evaluator._execute

    def spy(self, stmt):
        seen.append(stmt)
        return execute(self, stmt)

    monkeypatch.setattr(Evaluator, "_execute", spy)
    return seen


@pytest.mark.parametrize("order", ["Lex", "GREVLEX", "block", "degrevlex"])
@pytest.mark.parametrize("source", ["", RING_LINE + "\nlet I = ideal(Y)"], ids=["no-ring", "ring"])
def test_unknown_run_order_fails_before_any_statement(executed, order, source):
    with pytest.raises(RingSpecError) as err:
        run_script(parse_script(source), RunOptions(order=order))
    assert str(err.value) == f"unknown order {order!r}; expected 'lex' or 'grevlex'"
    assert executed == []


@pytest.mark.parametrize("emax", [-1, 2.0, "2", None, True, False])
def test_bad_emax_fails_before_any_statement(executed, emax):
    # no frobenius report: the run options are checked all the same
    script = parse_script(RING_LINE + "\nlet I = ideal(Y)")
    with pytest.raises(PreconditionError) as err:
        run_script(script, RunOptions(emax=emax))
    assert str(err.value) == f"need 0 <= e_min <= e_max; emax is {emax!r}"
    assert executed == []


@pytest.mark.parametrize("seed", ["a", 1.5, None, True, False])
def test_non_integer_seed_fails_before_any_statement(executed, seed):
    with pytest.raises(ArgumentTypeError) as err:
        run_script(parse_script("ring R = poly(p=2; X)\n"), RunOptions(seed=seed))
    assert str(err.value) == f"the run seed must be an integer; seed is {seed!r}"
    assert isinstance(err.value, TypeError)
    assert executed == []


def test_good_run_options_run_every_statement(executed):
    script = parse_script(RING_LINE + "\nlet I = ideal(Y)")
    run_script(script, RunOptions(order="lex", emax=0))
    assert executed == list(script.statements)


def test_report_document_shape():
    doc = run_scenario("badcolon")
    data = doc.to_json_dict()
    assert data["scenario"] == "badcolon"
    assert set(data) == {
        "scenario",
        "version",
        "seed",
        "order",
        "emax",
        "checks",
        "entries",
    }
    for record in data["checks"]:
        assert set(record) == {"label", "pass"}
        assert record["pass"] is True
    kinds = [entry["kind"] for entry in data["entries"]]
    assert kinds == [
        "closedness",
        "closedness",
        "capture",
        "frobenius",
        "frobenius",
        "netest",
    ]


def test_json_output_is_stable():
    first = run_scenario("badintersect").to_json()
    second = run_scenario("badintersect").to_json()
    assert first == second
    assert json.loads(first)["scenario"] == "badintersect"


def test_text_report_marks_failures():
    src = RING_LINE + "\ncheck equal(ideal(Y), ideal(Z))\ncheck member(X, ideal(X))"
    doc = run_script(parse_script(src))
    text = doc.to_text()
    assert "FAIL check equal(ideal(Y), ideal(Z))" in text
    assert "ok   check member(X, ideal(X))" in text


def test_every_scenario_passes_its_checks():
    for name in SCENARIOS:
        doc = run_scenario(name)
        assert doc.all_checks_pass, name
        assert doc.scenario == name


def test_bracket_inside_the_ring_declaration():
    src = "\n".join((
        "ring R = poly(p=2; X, Y, Z) / bracket(ideal(X*Y, X*Z), 1) "
        "with primes [ideal(X), bracket(ideal(Y, Z), 0)]",
        "check member(X^2*Y^2, ideal(0))",
        "check member(X*Y, ideal(0))",
        "check equal(bracket(ideal(Y), 1), ideal(Y^2))",
    ))
    doc = run_script(parse_script(src))
    assert [passed for _, passed, _ in doc.checks] == [True, False, True]
