"""The candidate source of a group with one minimal normal subgroup,
``groups.least_core_free_subgroup``, held to its full subgroup lattice.

``lattice_problems(G)`` solves G with ``mu_exact``, and a fresh copy of G,
which holds no lattice yet, with ``_search`` on every meet-irreducible
subgroup of its lattice.  mu, the node count, the candidate count and the
witness bitsets must be equal.

Run as a script, it checks every catalog group with one minimal normal up
to the order given, and that there are as many of them as given:

    PYTHONPATH=src python tests/one_minimal_check.py 256 123
"""

import sys

import permdeg as pd
from permdeg.solver import _search


def solve_key(res: pd.SolveResult) -> tuple:
    return (res.mu, res.nodes_explored, res.candidates_considered,
            [H.bits for H in res.witness.parts])


def lattice_problems(G: pd.FiniteGroup) -> list[str]:
    """Where ``mu_exact`` of G departs from a search on G's lattice."""
    got = solve_key(pd.mu_exact(G))
    fresh = pd.FiniteGroup(G.table_bytes, label=G.label, validate=False)
    lat = fresh.lattice()
    ref = solve_key(_search(
        fresh, pd.minimal_normals(fresh),
        [b for b, f in zip(lat.bits, lat.meet_irreducible_flags()) if f]))
    if got != ref:
        return [f"{G.label}: (mu, nodes, candidates, witness) {got}, "
                f"on the lattice {ref}"]
    return []


def main(max_order: int, expected: int) -> int:
    checked, problems = 0, []
    for e in pd.catalog(max_order):
        G = pd.build(e.expr)
        if len(pd.minimal_normals(G)) != 1:
            continue
        checked += 1
        problems += lattice_problems(G)
    for p in problems:
        print(p)
    print(checked, "groups with one minimal normal,", len(problems), "problems")
    return 1 if problems or checked != expected else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
