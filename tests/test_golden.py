"""Byte-for-byte pins of the four built-in scenario reports.

The files under golden/ hold the reference output of
`icalc repro <name> --json` (*.json) and of `icalc repro <name>`
(*.txt); a change to the engine or to the report renderers that keeps
every answer must print the same bytes, from a cold basis cache and
from the warm one a first run leaves behind.
"""

from pathlib import Path

import pytest

from icalc import groebner
from icalc.cli import main
from icalc.scenarios import SCENARIOS

GOLDEN = Path(__file__).parent / "golden"


def test_every_scenario_has_a_golden_report():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_repro_json_is_byte_identical_to_golden(name, capsys):
    assert main(["repro", name, "--json"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()


def test_every_scenario_has_a_golden_text_report():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_repro_text_is_byte_identical_to_golden(name, capsys):
    assert main(["repro", name]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_repro_json_is_byte_identical_cold_and_warm(name, capsys):
    groebner._GB_CACHE.clear()
    golden = (GOLDEN / f"{name}.json").read_bytes()
    for run in ("cold", "warm"):
        assert main(["repro", name, "--json"]) == 0, run
        assert capsys.readouterr().out.encode("utf-8") == golden, run
