"""Regenerate expected.json, the answers every benchmark run is checked against.

    python3 perfbench/make_expected.py

For every group a workload solves it records mu, the lattice counts
(subgroups, meet-irreducible, minimal normal), the incompressibility type
and central-socle membership.  Each mu is checked
against every independent source that applies: the primary-decomposition
formula for abelian groups, the brute-force oracle up to order 48, and
published constants.  A disagreement stops the script without writing.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import permdeg as pd  # noqa: E402
from workloads import BATCH_MAX_ORDER, LARGE_SUITE  # noqa: E402

# SL(2,5) has a unique involution, so some point stabiliser of a faithful
# action has odd order; the largest such subgroup is C5, giving 120/5 = 24.
# mu(Q8) = 8 for the same reason, and mu is additive on nilpotent groups
# (Wright 1975), so mu(Q8 x Q8) = 16; with mu(D4) = 4 (the square's
# symmetries), mu(D4 x D4) = 8.  S5 acts on 5 points and S4 is too small to
# contain it, so mu(S5) = 5.
LITERATURE = {"SL(2,5)": 24, "Q8 x Q8": 16, "S5": 5, "D4 x D4": 8}


def solve(name: str, G) -> dict:
    lat = G.lattice()
    mu = pd.mu_exact(G).mu
    sources = {}
    if G.is_abelian():
        sources["abelian-formula"] = pd.m_value(pd.primary_decomposition(G))
    if G.order <= pd.ORACLE_CAP:
        sources["oracle"] = pd.mu_oracle(G).mu
    if name in LITERATURE:
        sources["literature"] = LITERATURE[name]
    wrong = {k: v for k, v in sources.items() if v != mu}
    if wrong:
        sys.exit(f"{name}: mu_exact={mu} disagrees with {wrong}")
    return {"order": G.order, "mu": mu, "mu_sources": sources,
            "subgroups": len(lat),
            "meet_irreducible": sum(lat.meet_irreducible_flags()),
            "minimal_normals": len(lat.minimal_normals)}


def main() -> None:
    names = [e.name for e in pd.catalog(BATCH_MAX_ORDER)] + list(LARGE_SUITE)
    groups = {}
    for name in names:
        G = pd.build(pd.parse_group_expr(name))
        entry = solve(name, G)
        entry["incompressible_type"] = pd.classify_incompressible(G).structural_type
        entry["is_CS"] = pd.is_CS(G)
        groups[name] = entry
    out = HERE / "expected.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"groups": groups}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out.name}: {len(groups)} groups")


if __name__ == "__main__":
    main()
