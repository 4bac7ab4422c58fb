"""Semantics of the value records: construction, equality, immutability.

Every value class of icalc derives from ``icalc.records.Record``.  These
tests pin what callers rely on: names, fields and their order, keyword
and positional construction, structural equality and hashing, the repr,
pickling, and that the perfbench tracer can still patch methods on the
class.
"""

import importlib.util
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import icalc
import icalc.properties  # noqa: F401  (defines SuiteResult)
from icalc.errors import NotPrimeError, RingSpecError
from icalc.field import PrimeField
from icalc.monomials import MonomialOrder
from icalc.poly import PolyRing
from icalc.records import Record
from icalc.script import (
    CheckStmt,
    EForm,
    EName,
    LetStmt,
    ReportDocument,
    ReportStmt,
    RingDecl,
    RunOptions,
    ScriptIdeal,
)

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"

FIELDS = {
    "PrimeField": ("p",),
    "MonomialOrder": ("kind", "front"),
    "PolyRing": ("field", "variables", "order"),
    "Classification": ("equidimensional", "absolutely_minimal", "top", "low"),
    "SopCheck": ("elements", "count_matches_dim", "quotient_dim", "is_sop"),
    "RegSeqReport": ("elements", "steps", "proper", "first_failure"),
    "CmProbeResult": ("verdict", "sop", "heuristic", "report"),
    "ClosureReport": ("subject", "mode", "dc_result", "status", "witness", "citations", "notes"),
    "FrobeniusCertificate": ("subject", "x", "c", "checks", "verdict"),
    "NeTestData": ("pairs", "qprime_exponent", "c", "c_in_r_bullet", "notes"),
    "NormalizedSop": ("h", "lead", "rest"),
    "ColonCaptureRow": ("k", "colon", "in_ideal", "in_tight_bound", "in_ne_bound"),
    "ColonCaptureReport": ("sop", "rows", "notes"),
    "EIdeal": ("gens",),
    "EName": ("name",),
    "EForm": ("kind", "args"),
    "EKer": ("targets", "images"),
    "RingDecl": ("name", "p", "variables", "defining", "primes", "line"),
    "LetStmt": ("name", "expr", "line"),
    "CheckStmt": ("kind", "args", "line"),
    "ReportStmt": ("kind", "args", "flags", "line"),
    "Script": ("statements",),
    "RunOptions": ("order", "emax", "seed"),
    "ScriptIdeal": ("raw", "handle"),
    "ReportDocument": ("scenario", "version", "seed", "order", "emax", "checks", "entries"),
    "SuiteResult": ("name", "cases", "failures"),
}
HOT = {"PrimeField", "MonomialOrder", "PolyRing"}
RECORDS = {cls.__name__: cls for cls in Record.__subclasses__()}
GENERIC = sorted(set(RECORDS) - HOT)
# the expression nodes that EForm stands for, by the kind that tags them
FORMS = {"ESum": "+", "EProd": "*", "EMeet": "meet", "EColon": "colon",
         "EBracket": "bracket", "EDc": "dc"}


def test_every_record_keeps_its_name_and_fields_in_order():
    assert {name: cls._fields for name, cls in RECORDS.items()} == FIELDS


def _form_is_structural(kind):
    values = (0, 1)
    a, b = EForm(kind, values), EForm(args=values, kind=kind)
    assert a is not b and a == b and hash(a) == hash(b)
    for i in range(len(values)):
        assert EForm(kind, values[:i] + ("other",) + values[i + 1:]) != a
    for other in set(FORMS.values()) - {kind}:
        assert EForm(other, values) != a


@pytest.mark.parametrize("name", sorted(GENERIC + list(FORMS)))
def test_equality_and_hash_are_structural_per_class(name):
    if name in FORMS:
        _form_is_structural(FORMS[name])
        return
    cls = RECORDS[name]
    values = tuple(range(len(cls._fields)))
    a, b = cls(*values), cls(**dict(zip(cls._fields, values)))
    assert a is not b and a == b and hash(a) == hash(b)
    for i, field in enumerate(cls._fields):
        changed = cls(*values[:i], "other", *values[i + 1:])
        assert (changed == a) is (field in cls._uncompared), field
    twin = type(name, (Record,), {"__slots__": cls._fields, "_uncompared": cls._uncompared})
    assert twin(*values) != a


def test_hot_records_compare_by_value():
    def ring():
        return PolyRing(PrimeField(5), ("X", "Y"), MonomialOrder.block_elimination(1))

    first, second = ring(), ring()
    assert first.field is not second.field and first.order is not second.order
    assert first == second and hash(first) == hash(second)
    assert first.field == second.field and hash(first.field) == hash(second.field)
    assert first.order == second.order and hash(first.order) == hash(second.order)
    assert PrimeField(5) != PrimeField(7)
    assert MonomialOrder.block_elimination(1) != MonomialOrder.block_elimination(2)
    assert MonomialOrder.grevlex() != MonomialOrder.lex()
    assert first != PolyRing(PrimeField(5), ("X", "Y"), MonomialOrder.grevlex())
    assert PrimeField(5) != 5 and MonomialOrder.lex() != "lex"


def test_sum_and_product_of_the_same_operands_differ():
    a, b = EName("A"), EName("B")
    assert EForm("+", (a, b)) != EForm("*", (a, b))
    assert len({EForm("+", (a, b)), EForm("*", (a, b)), EForm("+", (a, b))}) == 2


def test_statements_compare_without_their_line():
    expr = EName("I")
    assert LetStmt("J", expr, 1) == LetStmt("J", expr, 9)
    assert hash(LetStmt("J", expr, 1)) == hash(LetStmt("J", expr, 9))
    assert CheckStmt("sop", (expr,), 2) == CheckStmt("sop", (expr,), 5)
    assert ReportStmt("capture", (expr,), (), 3) == ReportStmt("capture", (expr,), (), 4)
    assert RingDecl("R", 2, ("X",), None, (), 1) == RingDecl("R", 2, ("X",), None, (), 7)
    assert LetStmt("J", expr, 1) != LetStmt("K", expr, 1)


def test_run_options_defaults_and_keywords():
    options = RunOptions()
    assert (options.order, options.emax, options.seed) == ("grevlex", 5, 0)
    assert RunOptions(emax=2) == RunOptions("grevlex", 2, 0)
    assert RunOptions("lex", seed=3) == RunOptions(order="lex", emax=5, seed=3)


def test_keyword_construction():
    ring = PolyRing(PrimeField(2), ("X",), MonomialOrder.grevlex())
    value = ScriptIdeal(raw=(ring.var("X"),), handle="h")
    assert value.raw == (ring.var("X"),) and value.handle == "h"
    doc = ReportDocument(
        scenario="s", version="v", seed=0, order="grevlex", emax=5, checks=(), entries=()
    )
    assert doc == ReportDocument("s", "v", 0, "grevlex", 5, (), ())
    assert PolyRing(field=PrimeField(2), variables=("X",), order=MonomialOrder.grevlex()) == ring
    assert MonomialOrder(kind="block", front=1) == MonomialOrder.block_elimination(1)
    assert PrimeField(p=3) == PrimeField(3)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((), {}, "missing field 'raw'"),
        ((1,), {}, "missing field 'handle'"),
        ((1, 2, 3), {}, "takes 2 fields, got 3"),
        ((1,), {"raw": 1, "handle": 2}, r"unknown or repeated fields \['raw'\]"),
        ((), {"raw": 1, "handle": 2, "other": 3}, r"unknown or repeated fields \['other'\]"),
    ],
)
def test_bad_construction_is_a_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        ScriptIdeal(*args, **kwargs)


def test_assignment_and_deletion_raise():
    ring = PolyRing(PrimeField(2), ("X",), MonomialOrder.grevlex())
    for record, name in (
        (RunOptions(), "emax"),
        (EName("A"), "name"),
        (ring, "variables"),
        (ring.field, "p"),
        (ring.order, "key"),
        (RunOptions(), "not_a_field"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_repr_names_the_class_and_its_fields():
    assert repr(EForm("+", (EName("A"), EName("B")))) == (
        "EForm(kind='+', args=(EName(name='A'), EName(name='B')))"
    )
    assert repr(RunOptions()) == "RunOptions(order='grevlex', emax=5, seed=0)"
    assert repr(MonomialOrder.lex()) == "MonomialOrder(kind='lex', front=0)"
    ring = PolyRing(PrimeField(2), ("X",), MonomialOrder.grevlex())
    assert repr(ring) == (
        "PolyRing(field=PrimeField(p=2), variables=('X',), "
        "order=MonomialOrder(kind='grevlex', front=0))"
    )


def test_records_pickle_by_value():
    ring = PolyRing(PrimeField(3), ("X", "Y"), MonomialOrder.block_elimination(1))
    for record in (ring, LetStmt("J", EName("I"), 4), RunOptions(emax=1)):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and repr(copy) == repr(record)
    assert pickle.loads(pickle.dumps(ring)).order.key((1, 0)) == ring.order.key((1, 0))


@pytest.mark.parametrize("p", [0, 1, 4, 2**31, "5", 5.0])
def test_prime_field_validation_is_unchanged(p):
    with pytest.raises(NotPrimeError):
        PrimeField(p)


def test_monomial_order_validation_is_unchanged():
    with pytest.raises(ValueError, match="unknown order kind: 'degrevlex'"):
        MonomialOrder("degrevlex")
    with pytest.raises(ValueError, match="front block size must be non-negative"):
        MonomialOrder.block_elimination(-1)


@pytest.mark.parametrize(
    "field, variables, order, message",
    [
        (5, ("X",), MonomialOrder.grevlex(), "field must be a PrimeField, not 5"),
        (PrimeField(5), ["X"], MonomialOrder.grevlex(), "variables must be a tuple of names"),
        (PrimeField(5), (), MonomialOrder.grevlex(), "at least one variable"),
        (PrimeField(5), ("X", "X"), MonomialOrder.grevlex(), "duplicate names"),
        (PrimeField(5), ("X",), "grevlex", "order must be a MonomialOrder"),
        (PrimeField(5), ("X",), MonomialOrder.block_elimination(2), "front block 2 exceeds the 1 variables"),
    ],
)
def test_poly_ring_validation_is_unchanged(field, variables, order, message):
    with pytest.raises(RingSpecError, match=message):
        PolyRing(field, variables, order)


def test_tracer_patches_record_methods_on_the_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    inv, to_json = PrimeField.__dict__["inv"], ReportDocument.__dict__["to_json"]
    tracer = tracing.Tracer(icalc, {})
    tracer.install()
    try:
        assert PrimeField(7).inv(3) == 5
        ReportDocument("s", "v", 0, "grevlex", 5, (), ()).to_json()
    finally:
        tracer.uninstall()
    assert tracer.counts["field.inv.calls"] == 1
    assert "script.to_json" in tracer.names
    assert PrimeField.__dict__["inv"] is inv and ReportDocument.__dict__["to_json"] is to_json


def test_import_does_not_load_dataclasses():
    code = "import sys; sys.path.insert(0, 'src'); import icalc, icalc.cli; print('dataclasses' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=ROOT, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
