"""A non-abelian nilpotent group is solved from the top of its lattice
(``groups.nilpotent_lattice_top``), down to the least index whose
meet-irreducible subgroups cover every minimal normal.  The full lattice is
what that source is held to (``nilpotent_top_check``)."""

import pytest

import permdeg as pd
from permdeg.groups import is_nilpotent, nilpotent_lattice_top

from nilpotent_top_check import top_problems


def extraspecial_27(exponent: int) -> pd.FiniteGroup:
    """3^(1+2) of exponent 3 or 9, from a table built here.

    Exponent 3: the Heisenberg group mod 3, (a, b, c)(a', b', c') =
    (a + a', b + b', c + c' + a b'), at index 9a + 3b + c.  Its cubes are
    all trivial, so they do not generate its Frattini subgroup.
    Exponent 9: C9 : C3, (x, y)(x', y') = (x + 4^y x', y + y') with x mod 9
    and y mod 3, at index 3x + y; 4 has order 3 mod 9.
    """
    if exponent == 3:
        elems = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
        index = {e: i for i, e in enumerate(elems)}
        table = [[index[(a + d) % 3, (b + e) % 3, (c + f + a * e) % 3]
                  for d, e, f in elems] for a, b, c in elems]
    else:
        elems = [(x, y) for x in range(9) for y in range(3)]
        index = {e: i for i, e in enumerate(elems)}
        table = [[index[(x + 4 ** y * u) % 9, (y + v) % 3] for u, v in elems]
                 for x, y in elems]
    return pd.from_multiplication_table(table, label=f"3^(1+2) exp {exponent}")


def test_catalog128_matches_lattice():
    checked = 0
    for e in pd.catalog(128):
        G = pd.build(e.expr)
        if G.is_abelian() or not is_nilpotent(G):
            continue
        checked += 1
        assert top_problems(G) == [], e.name
    assert checked == 107


@pytest.mark.parametrize("exponent", [3, 9])
def test_extraspecial_27_matches_lattice(exponent):
    # the centre Z, of order 3, is the one minimal normal, and a subgroup of
    # order 3 other than Z misses it
    G = extraspecial_27(exponent)
    assert is_nilpotent(G) and not G.is_abelian()
    assert max(G._element_orders()) == exponent
    assert top_problems(G) == []
    assert pd.mu_exact(G).mu == 9


def test_solve_builds_no_lattice():
    G = pd.build(pd.parse_group_expr("D4 x D4"))
    assert pd.mu_exact(G).mu == 8
    assert G._lattice is None


def test_capped_lattice_solved_from_its_top():
    # 2,923 subgroups of index <= 4 of the 79,535 in the lattice, which is
    # over the budget; mu(Ab(2^5)) + mu(D4) = 10 + 4, additive for
    # nilpotent factors
    G = pd.build(pd.parse_group_expr("Ab(2,2,2,2,2) x D4"))
    res = pd.mu_exact(G)
    assert (res.mu, res.nodes_explored) == (14, 1)
    assert len(nilpotent_lattice_top(G)) == 2923


def test_budget_stops_the_source(monkeypatch):
    # Ab(2,2) x D4 has 67 subgroups of index <= 4
    G = pd.build(pd.parse_group_expr("Ab(2,2) x D4"))
    assert len(nilpotent_lattice_top(G)) == 67
    monkeypatch.setattr(pd.groups, "LATTICE_SUBGROUP_CAP", 60)
    with pytest.raises(pd.ResourceCapError):
        nilpotent_lattice_top(G)
    with pytest.raises(pd.ResourceCapError):
        pd.mu_exact(G)
    assert G._lattice is None


def test_refuses_a_group_that_is_not_nilpotent():
    with pytest.raises(pd.DomainError):
        nilpotent_lattice_top(pd.build(pd.parse_group_expr("S4")))
