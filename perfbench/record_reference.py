"""Record the reference answers the benchmark checks against.

    python3 perfbench/record_reference.py

Run it from the root of a checkout of the commit whose answers are the
reference; the files under perfbench/data/ are rewritten from that
commit's code.  Writes:

* data/scenarios/<name>.json, the --json report of each scenario script
  (the scripts must equal the program's built-in SCENARIOS);
* data/frobenius.json, the membership verdict for every (p, a, b, e)
  and every x, c of the pools, as one "1"/"0" string per (p, a, b, e),
  x major;
* data/classic.json, the digest of the reduced basis for every system
  and variable permutation, each basis first put through the
  Buchberger criterion and checked to hold the generators.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import icalc  # noqa: E402
from workloads import (  # noqa: E402
    C_POOL,
    CLASSIC_SYSTEMS,
    DATA,
    FROBENIUS_EMAX,
    X_POOL,
    basis_digest,
    classic_system,
    frobenius_key,
    frobenius_subject,
    perm_key,
    surface_ring,
)


def record_scenarios():
    for path in sorted((DATA / "scenarios").glob("*.icl")):
        text = path.read_text()
        if icalc.SCENARIOS.get(path.stem) != text:
            raise SystemExit(f"{path.name} differs from the built-in scenario")
        doc = icalc.run_script(icalc.parse_script(text), icalc.RunOptions(), scenario=path.stem)
        path.with_suffix(".json").write_bytes(doc.to_json().encode())


def record_frobenius():
    table = {}
    for p, emax in FROBENIUS_EMAX.items():
        ring, qring, xs, cs = surface_ring(icalc, p)
        for a, b in itertools.product(range(p), repeat=2):
            for e in range(emax + 1):
                bits = ""
                for x, c in itertools.product(xs, cs):
                    cert = icalc.bounded_frobenius_check(qring, frobenius_subject(icalc, ring, a, b), x, c, e, e)
                    bits += "1" if cert.checks[0][1] else "0"
                table[frobenius_key(p, a, b, e)] = bits
            print(f"frobenius p={p} a={a} b={b}", flush=True)
    (DATA / "frobenius.json").write_text(json.dumps(table, indent=1) + "\n")
    ones = sum(bits.count("1") for bits in table.values())
    print(f"frobenius: {ones} of {len(table) * len(X_POOL) * len(C_POOL)} memberships hold")


def record_classic():
    table = {}
    for name in CLASSIC_SYSTEMS:
        ring, polys = classic_system(icalc, name)
        table[name] = {}
        for perm in itertools.permutations(range(ring.nvars)):
            gens = [icalc.poly.transport(f, ring, perm) for f in polys]
            basis = icalc.groebner_basis(ring, gens)
            if not icalc.is_groebner_basis(basis):
                raise SystemExit(f"{name} {perm}: not a Groebner basis")
            if any(not icalc.normal_form(f, basis).is_zero for f in gens):
                raise SystemExit(f"{name} {perm}: a generator escapes the basis")
            table[name][perm_key(perm)] = basis_digest(basis)
        print(f"classic {name}: {len(table[name])} permutations", flush=True)
    (DATA / "classic.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    record_scenarios()
    record_frobenius()
    record_classic()
