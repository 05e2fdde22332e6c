"""Every catalog(64) answer against the table in golden_catalog64.json, which
was generated before the lattice engine was rewritten on coset masks: no
refactor can change a catalog answer, a subgroup or a meet-irreducible
index without this test failing."""

import json

import permdeg as pd

from conftest import group_for
from make_golden_catalog64 import GOLDEN_PATH, MAX_ORDER, golden_entry


def test_catalog64_matches_golden_table():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    entries = pd.catalog(MAX_ORDER)
    assert [e.name for e in entries] == list(golden)
    for e in entries:
        assert golden_entry(group_for(e.name)) == golden[e.name], e.name
