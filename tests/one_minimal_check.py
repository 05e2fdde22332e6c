"""The candidate source of a group with one minimal normal subgroup,
``groups.least_core_free_subgroup``, held to its full subgroup lattice.

``lattice_problems(G)`` solves G with ``mu_exact``, and a fresh copy of G,
which holds no lattice yet, with ``_search`` on every meet-irreducible
subgroup of its lattice.  mu, the node count, the candidate count and the
witness bitsets must be equal.

Run as a script, it checks every catalog group with one minimal normal up
to the order given, and that there are as many of them as given:

    PYTHONPATH=src python tests/one_minimal_check.py 256 123

or, with ``metacyclic`` first, every split metacyclic group C_m :r C_n
(``metacyclic_presentations``) up to the order given, and that there are
as many presentations, and as many with one minimal normal, as given:

    PYTHONPATH=src python tests/one_minimal_check.py metacyclic 256 1113 103
"""

import math
import sys

import permdeg as pd
from permdeg.solver import _search

# groups outside the catalog, each as (m, n, r) for C_m :r C_n: Frobenius
# groups and others with maximal subgroups that are not normal
BEYOND_CATALOG = {
    "F20": (5, 4, 2), "F21": (7, 3, 2), "F39": (13, 3, 3), "F42": (7, 6, 3),
    "F52": (13, 4, 5), "F55": (11, 5, 3), "C9:C6": (9, 6, 2),
    "Dic3": (3, 4, 2), "SD16": (8, 2, 3), "M16": (8, 2, 5), "SD32": (16, 2, 7),
}


def split_metacyclic(m: int, n: int, r: int) -> pd.FiniteGroup:
    """C_m :r C_n, the generator of C_n acting on C_m by g -> r g; r^n
    must be 1 mod m."""
    action = [[g * pow(r, h, m) % m for g in range(m)] for h in range(n)]
    G = pd.semidirect_product(pd.make_cyclic(m), pd.make_cyclic(n), action)
    G.label = f"C{m} :{r} C{n}"
    return G


def metacyclic_presentations(max_order: int) -> list[tuple[int, int, int]]:
    """(m, n, r) with m n <= max_order and r a unit mod m, r != 1, r^n = 1:
    the split metacyclic groups with a nontrivial action, one r per class
    {r^k : gcd(k, n) = 1}, which give one group up to isomorphism."""
    out = []
    for m in range(3, max_order // 2 + 1):
        for n in range(2, max_order // m + 1):
            done = {1}
            for r in range(2, m):
                if r in done or math.gcd(r, m) != 1 or pow(r, n, m) != 1:
                    continue
                done.update(pow(r, k, m) for k in range(1, n) if math.gcd(k, n) == 1)
                out.append((m, n, r))
    return out


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


def main_metacyclic(max_order: int, expected: int, expected_one: int) -> int:
    presentations = metacyclic_presentations(max_order)
    one, problems = 0, []
    for m, n, r in presentations:
        G = split_metacyclic(m, n, r)
        if len(pd.minimal_normals(G)) != 1:
            continue
        one += 1
        problems += lattice_problems(G)
    for p in problems:
        print(p)
    print(len(presentations), "split metacyclic presentations,", one,
          "with one minimal normal,", len(problems), "problems")
    return 1 if problems or (len(presentations), one) != (expected, expected_one) else 0


if __name__ == "__main__":
    if sys.argv[1] == "metacyclic":
        sys.exit(main_metacyclic(*map(int, sys.argv[2:5])))
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
