"""The candidate source of a non-abelian nilpotent group,
``groups.nilpotent_lattice_top``, held to its full subgroup lattice.

``top_problems(G)`` checks two things.  The subgroups the source returns,
with their meet-irreducible flags, are exactly the lattice's subgroups of
index at most I, the largest index returned.  And a search on the source's
candidates gives the same mu, node count and witness bitsets as a search on
the lattice's, on a fresh copy of G that holds no lattice yet.

Run as a script, it checks every non-abelian nilpotent catalog group up to
the order given:

    PYTHONPATH=src python tests/nilpotent_top_check.py 256

A group whose lattice is over the subgroup budget is held to the mu in
``CAPPED`` instead, with one node.
"""

import sys

import permdeg as pd
from permdeg.groups import is_nilpotent, nilpotent_lattice_top
from permdeg.solver import _search

# mu is additive over direct products of nilpotent groups (Wright 1975), and
# mu(Ab(2^5)) = 10, mu(D4) = 4; the lattice has 79,535 subgroups
CAPPED = {"Ab(2,2,2,2,2) x D4": 14}


def solve_key(res: pd.SolveResult) -> tuple:
    return (res.mu, res.nodes_explored, [H.bits for H in res.witness.parts])


def top_problems(G: pd.FiniteGroup) -> list[str]:
    """Where the nilpotent source of G departs from G's lattice."""
    n = G.order
    top = nilpotent_lattice_top(G)
    index = max(n // b.bit_count() for b in top)
    problems = []
    fresh = pd.FiniteGroup(G.mult, label=G.label, validate=False)
    lat = fresh.lattice()
    want = {b: f for b, f in zip(lat.bits, lat.meet_irreducible_flags())
            if n // b.bit_count() <= index}
    if top != want:
        problems.append(f"{G.label}: {len(top)} subgroups of index <= "
                        f"{index}, the lattice has {len(want)}")
    got = solve_key(pd.mu_exact(G))
    ref = solve_key(_search(
        fresh, pd.minimal_normals(fresh),
        [b for b, f in zip(lat.bits, lat.meet_irreducible_flags()) if f]))
    if got != ref:
        problems.append(f"{G.label}: (mu, nodes, witness) {got}, "
                        f"on the lattice {ref}")
    return problems


def main(max_order: int) -> int:
    checked, problems = 0, []
    for e in pd.catalog(max_order):
        G = pd.build(e.expr)
        if G.is_abelian() or not is_nilpotent(G):
            continue
        checked += 1
        if e.name in CAPPED:
            res = pd.mu_exact(G)
            if (res.mu, res.nodes_explored) != (CAPPED[e.name], 1):
                problems.append(f"{e.name}: mu {res.mu} in "
                                f"{res.nodes_explored} nodes")
        else:
            problems += top_problems(G)
    for p in problems:
        print(p)
    print(checked, "non-abelian nilpotent groups,", len(problems), "problems")
    return 1 if problems or not checked else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
