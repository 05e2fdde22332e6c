"""Regenerate tests/golden_catalog64.json, the pinned answers test_golden.py
compares against.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden_catalog64.py

Only regenerate from code whose answers are trusted: the table exists so
that a refactor of the lattice or the solver cannot change a catalog answer
without a test failing.  The two digests pin the lattice itself, not only
its counts: ``subgroups_sha256`` hashes the sorted subgroup bitsets and
``meet_irreducible_sha256`` the lattice indices of the meet-irreducible
subgroups.  ``nodes``, ``candidates`` and ``witness_sha256`` (the witness
parts' bitsets, in witness order) pin the set-cover search as well as its
answer, so a change to its bounds that alters the search shows here.
"""

import hashlib
import json
from pathlib import Path

import permdeg as pd

GOLDEN_PATH = Path(__file__).with_name("golden_catalog64.json")
MAX_ORDER = 64


def _digest(values) -> str:
    text = ",".join(format(v, "x") for v in values)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def golden_entry(G: pd.FiniteGroup) -> dict:
    lat = G.lattice()
    flags = lat.meet_irreducible_flags()
    result = pd.mu_exact(G)
    return {
        "order": G.order,
        "mu": result.mu,
        "nodes": result.nodes_explored,
        "candidates": result.candidates_considered,
        "witness_sha256": _digest(H.bits for H in result.witness.parts),
        "subgroups": len(lat),
        "normal": sum(lat.normal_flags),
        "minimal_normal": len(lat.minimal_normals),
        "meet_irreducible": sum(flags),
        "socle_order": pd.socle(G).order,
        "center_order": pd.center(G).order,
        "incompressible_type": pd.classify_incompressible(G).structural_type,
        "is_CS": pd.is_CS(G),
        "subgroups_sha256": _digest(sorted(s.bits for s in lat.subgroups)),
        "meet_irreducible_sha256": _digest(i for i, f in enumerate(flags) if f),
    }


def main() -> None:
    table = {e.name: golden_entry(pd.build(e.expr))
             for e in pd.catalog(MAX_ORDER)}
    # one group per line, so a changed answer shows as a one-line diff
    lines = [f"{json.dumps(name)}: {json.dumps(row, sort_keys=True)}"
             for name, row in table.items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
