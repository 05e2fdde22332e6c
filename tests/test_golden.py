"""Every catalog(48) answer against the table in golden_catalog48.json, which
was generated before the lattice and solver were refactored: no refactor can
change a catalog answer without this test failing."""

import json

from conftest import group_for
from make_golden_catalog48 import GOLDEN_PATH, golden_entry


def test_catalog48_matches_golden_table(catalog48):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert [e.name for e in catalog48] == list(golden)
    for e in catalog48:
        assert golden_entry(group_for(e.name)) == golden[e.name], e.name
