"""Every name the benchmark tracer wraps still resolves on icalc.

perfbench/tracing.py patches the functions listed in SPANNED and
COUNTED by name; a name that moved or vanished would silently drop its
spans and counters.  The benchmark's own tests are outside this suite's
testpaths, so the check lives here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _resolves(module, name):
    mod = importlib.import_module(f"icalc.{module}")
    if "." in name:
        cls_name, method = name.split(".")
        return method in vars(getattr(mod, cls_name, object))
    return callable(getattr(mod, name, None))


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = [
        (module, name)
        for table in (tracing.SPANNED, tracing.COUNTED)
        for module, names in table.items()
        for name in names
    ]
    assert len(traced) > 20
    assert [t for t in traced if not _resolves(*t)] == []
