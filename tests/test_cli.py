import json
import time

import pytest

from icalc import properties
from icalc.cli import (
    EXIT_CHECK_FAILED,
    EXIT_EVALUATION,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

GOOD_SCRIPT = """\
ring R = poly(p=2; X, Y, Z) / ideal(X*Y, X*Z) with primes [ideal(X), ideal(Y, Z)]
let I = ideal(Y, X - Z)
check sop(I)
check member(X*Y, ideal(0))
"""

FAILING_SCRIPT = """\
ring R = poly(p=2; X, Y)
check equal(ideal(X), ideal(Y))
"""


def write(tmp_path, text, name="case.icalc"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_green_script(tmp_path, capsys):
    assert main(["run", write(tmp_path, GOOD_SCRIPT)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok   check sop(I)" in out


def test_run_failing_check(tmp_path, capsys):
    assert main(["run", write(tmp_path, FAILING_SCRIPT)]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "FAIL check equal(ideal(X), ideal(Y))" in out


def test_run_missing_file(capsys):
    assert main(["run", "/nonexistent/path.icalc"]) == EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


def test_run_parse_error(tmp_path, capsys):
    path = write(tmp_path, "ring R poly(p=2; X)\n")
    assert main(["run", path]) == EXIT_USAGE
    assert "expected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "expr",
    [
        "meet(" * 400 + "ideal(X)" + ", ideal(Y))" * 400,
        " + ".join(["ideal(X)"] * 400),
    ],
    ids=["nested-meet", "long-sum"],
)
def test_run_deep_expression_is_a_parse_error(tmp_path, capsys, expr):
    path = write(tmp_path, f"ring R = poly(p=2; X, Y)\nlet I = {expr}\n")
    assert main(["run", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "line 2: expression nested deeper than 100 levels" in err


def test_run_evaluation_error(tmp_path, capsys):
    path = write(tmp_path, "ring R = poly(p=2; X, Y)\nreport netest()\n")
    assert main(["run", path]) == EXIT_EVALUATION
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, code, message",
    [
        (
            "ring R = poly(p=2; X, Y, Z) / dc(ideal(X*Y, X*Z), tight)\n",
            EXIT_EVALUATION,
            "icalc: line 1: ring R = poly(p=2; X, Y, Z) / dc(ideal(X*Y, X*Z), tight): "
            "dc(...) cannot appear in the ring declaration\n",
        ),
        (
            "ring R = poly(p=2; X, X)\n",
            EXIT_USAGE,
            "icalc: line 1, token 12: duplicate variable 'X'\n",
        ),
        (
            "ring R = poly(p=2; X, Y)\n"
            "check equal(ker(U; X -> U, Y -> U^2, X -> U^3), ker(U; Y -> U^2, X -> U^3))\n",
            EXIT_USAGE,
            "icalc: line 2, token 18: duplicate source variable 'X'\n",
        ),
        (
            "ring R = poly(p=2; X, Y, Z) / ideal(X*Y, X*Z) with primes [ideal(X), ideal(Y, Z)]\n"
            "report capture(R)\n",
            EXIT_USAGE,
            "icalc: line 2, token 4: 'R' names the ring, not an ideal\n",
        ),
        (
            "ring R = poly(p=2; X, Y)\nlet A = R\n",
            EXIT_USAGE,
            "icalc: line 2, token 4: 'R' names the ring, not an ideal\n",
        ),
        (
            # a declared prime is checked as entered, not widened by J
            "ring R = poly(p=2; X, Y, Z) / ideal(X*Y, X*Z) with primes [ideal(X), ideal(Y)]\n"
            "report closedness(ideal(0), ne)\n",
            EXIT_EVALUATION,
            "icalc: line 1: ring R = poly(p=2; X, Y, Z) / ideal(X*Y, X*Z) with primes "
            "[ideal(X), ideal(Y)]: defining generator X*Z escapes the component (Y)\n",
        ),
        (
            "ring R = poly(p=2; X, Y) / ideal(X) with primes [ideal(X), ideal(X, Y)]\n",
            EXIT_EVALUATION,
            "icalc: line 1: ring R = poly(p=2; X, Y) / ideal(X) with primes "
            "[ideal(X), ideal(X, Y)]: the component (X) lies inside (X, Y)\n",
        ),
    ],
    ids=[
        "dc-in-ring",
        "repeated-variable",
        "ker-source-twice",
        "ring-as-report-argument",
        "ring-as-let-value",
        "prime-without-j",
        "nested-primes",
    ],
)
def test_run_rejects_bad_declarations_without_a_traceback(tmp_path, capsys, text, code, message):
    assert main(["run", write(tmp_path, text)]) == code
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


def test_run_rejects_a_missing_star_instead_of_gluing_names(tmp_path, capsys):
    # X 2 used to print as X2, another variable of this ring, and pass
    text = "ring R = poly(p=2; X, X2)\ncheck equal(ideal(X 2), ideal(X2))\n"
    assert main(["run", write(tmp_path, text)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "icalc: line 2, token 7: expected '*' between factors, found 2\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "line, message",
    [
        ("let I = ideal(X^)", "token 6: exponent must be an integer literal"),
        ("let I = ideal(X*)", "token 6: unexpected token ')' in polynomial"),
        ("let I = ideal(X*-Y)", "token 6: unexpected token '-' in polynomial"),
        ("let I = ideal(+X)", "token 6: expected a polynomial, found '+'"),
        ("let K = ker(U; X -> U^2 ; Y -> U)", "token 13: expected ')', found ';'"),
    ],
    ids=["dangling-caret", "dangling-star", "star-minus", "leading-plus", "semicolon-after-image"],
)
def test_run_rejects_a_malformed_polynomial_as_a_parse_error(tmp_path, capsys, line, message):
    # the script parser reads each polynomial by the grammar of parse_poly
    assert main(["run", write(tmp_path, "ring R = poly(p=3; X, Y)\n" + line)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"icalc: line 2, {message}\n"
    assert captured.out == ""


def test_run_resolves_polynomial_names_at_evaluation(tmp_path, capsys):
    text = "ring R = poly(p=3; X, Y)\nlet I = ideal(X, W)\n"
    assert main(["run", write(tmp_path, text)]) == EXIT_EVALUATION
    assert "'W' is not a variable of F_3[X,Y]" in capsys.readouterr().err


def test_run_json_to_stdout(tmp_path, capsys):
    assert main(["run", write(tmp_path, GOOD_SCRIPT), "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == "grevlex"
    assert all(record["pass"] for record in data["checks"])


def test_run_json_to_file_keeps_text_on_stdout(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["run", write(tmp_path, GOOD_SCRIPT), "--json", str(out_path)])
    assert code == EXIT_OK
    assert "ok   check sop(I)" in capsys.readouterr().out
    data = json.loads(out_path.read_text(encoding="utf-8"))
    assert data["checks"][0]["label"] == "check sop(I)"


def test_run_huge_bracket_exponent_exits_three_at_once(tmp_path, capsys):
    path = write(tmp_path, "ring R = poly(p=3; X, Y)\nlet B = bracket(ideal(X), 100000000)\n")
    start = time.perf_counter()
    assert main(["run", path]) == EXIT_EVALUATION
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "line 2" in err and "exponent beyond 2^31" in err


def test_run_option_passthrough(tmp_path, capsys):
    path = write(tmp_path, "ring R = poly(p=3; X, Y)\n")
    code = main(["run", path, "--json", "--order", "lex", "--emax", "2", "--seed", "7"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert (data["order"], data["emax"], data["seed"]) == ("lex", 2, 7)


def test_repro_unknown_scenario(capsys):
    assert main(["repro", "nope"]) == EXIT_USAGE
    err = capsys.readouterr().err
    for name in ("badcolon", "badintersect", "cmdvr-demo", "contain-demo"):
        assert name in err


def test_repro_text_mode(capsys):
    assert main(["repro", "badcolon"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("scenario badcolon")
    assert "FAIL" not in out


def test_repro_json_round_trips(capsys):
    assert main(["repro", "contain-demo", "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["scenario"] == "contain-demo"
    assert data["entries"]


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["bogus-command"])
    assert err.value.code == EXIT_USAGE


def test_repro_unwritable_json_target_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(["repro", "badcolon", "--json", str(target)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"icalc: cannot write {target}: ")
    assert captured.out == ""
    assert not target.exists()


@pytest.mark.parametrize(
    "text",
    [GOOD_SCRIPT, "ring R = poly(p=2; X, Y)\nreport frobenius(ideal(X), X, Y)\n"],
    ids=["no-frobenius", "frobenius"],
)
def test_run_rejects_a_negative_emax_at_parsing(tmp_path, capsys, text):
    with pytest.raises(SystemExit) as err:
        main(["run", write(tmp_path, text), "--emax", "-1"])
    assert err.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "argument --emax: expected an integer >= 0, found '-1'" in captured.err
    assert captured.out == ""


def _fake_suite(name, cases, failures):
    return lambda: properties.SuiteResult(name, cases, list(failures))


def test_check_suite_clean(monkeypatch, capsys):
    monkeypatch.setattr(properties, "ALL_SUITES", (_fake_suite("clean", 12, ()),))
    assert main(["check-suite"]) == EXIT_OK
    assert capsys.readouterr().out == "clean: 12 cases, ok\n"


def test_check_suite_prints_the_first_five_failures(monkeypatch, capsys):
    failures = [f"case {i} broke" for i in range(7)]
    monkeypatch.setattr(
        properties,
        "ALL_SUITES",
        (_fake_suite("flaky", 20, failures), _fake_suite("clean", 3, ())),
    )
    assert main(["check-suite"]) == EXIT_CHECK_FAILED
    assert capsys.readouterr().out.splitlines() == (
        ["flaky: 20 cases, 7 FAILED"]
        + [f"  case {i} broke" for i in range(5)]
        + ["clean: 3 cases, ok"]
    )
