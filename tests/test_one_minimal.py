"""A group with exactly one minimal normal subgroup N is solved from the
subgroups that avoid N (``groups.least_core_free_subgroup``), with no
lattice.  The full lattice is what that source is held to
(``one_minimal_check``)."""

import pytest

import permdeg as pd
import permdeg.groups as groups
from permdeg.groups import least_core_free_subgroup, perfect_residual, subgroup_as_group

from conftest import group_for
from one_minimal_check import BEYOND_CATALOG, lattice_problems, split_metacyclic


def test_catalog128_matches_lattice():
    checked = 0
    for e in pd.catalog(128):
        G = pd.build(e.expr)
        if len(pd.minimal_normals(G)) != 1:
            continue
        checked += 1
        assert lattice_problems(G) == [], e.name
    assert checked == 79


def test_walk_forms_exactly_the_subgroups_avoiding_n(catalog64):
    # the least core-free subgroup is taken from what the walk forms, so it
    # must form each subgroup that avoids N, and none that holds N.  The
    # p-groups with one subgroup of prime order, answered with no walk, are
    # walked here too: every zuppo holds N, so the walk forms 1 alone
    walked = 0
    for G in ([pd.build(e.expr) for e in catalog64]
              + [split_metacyclic(*p) for p in BEYOND_CATALOG.values()]):
        minimal = pd.minimal_normals(G)
        if len(minimal) != 1:
            continue
        walked += 1
        (nb,) = minimal
        # the walk as least_core_free_subgroup runs it
        walk = groups._cyclic_extension(G, [([1], [])], nb)
        formed = {b for members, _, _ in walk for b in members}
        assert formed == {b for b in G.lattice().bits if b & nb != nb}, G.label
    assert walked == 61


@pytest.mark.parametrize("expr", ["S5", "SL(2,5)", "S4 x C2", "SL(2,3) x C2",
                                  *BEYOND_CATALOG])
def test_every_subgroup_matches_lattice(expr):
    # subgroups taken as groups, with one minimal normal or more: each is
    # solved through whichever source it takes, against its own lattice.
    # The split metacyclic groups the catalog lacks (F20, F42, SD16, ...)
    # have maximal subgroups that are not normal
    G = (split_metacyclic(*BEYOND_CATALOG[expr]) if expr in BEYOND_CATALOG
         else group_for(expr))
    one = 0
    for b in G.lattice().bits[1:]:
        H, _ = subgroup_as_group(G.subgroup(b))
        one += len(pd.minimal_normals(H)) == 1
        assert lattice_problems(H) == [], f"{expr}: {b:x}"
    assert one


@pytest.mark.parametrize("expr", ["S5", "SL(2,5)"])
def test_solve_builds_no_lattice(expr):
    G = pd.build(pd.parse_group_expr(expr))
    pd.mu_exact(G)
    assert G._lattice is None


def test_a5_is_not_taken_for_a_shortcut_group():
    # every non-identity element of A5 has prime order, and A5, simple, is
    # its own minimal normal; a subgroup of index 5 avoids it
    S5 = group_for("S5")
    A5, _ = subgroup_as_group(S5.subgroup(perfect_residual(S5)[0]))
    orders = A5._element_orders()
    assert A5.order == 60 and sum(o in (2, 3, 5) for o in orders) == 59
    assert pd.minimal_normals(A5) == [(1 << 60) - 1]
    assert least_core_free_subgroup(A5).bit_count() == 12
    assert pd.mu_exact(A5).mu == 5


@pytest.mark.parametrize("expr,mu", [("C27", 27), ("Q16", 16), ("C2", 2)])
def test_one_subgroup_of_prime_order_forms_no_zuppos(expr, mu, monkeypatch):
    # a p-group with p - 1 elements of order p has N as its one subgroup of
    # order p, inside every other nontrivial subgroup
    def no_zuppos(G):
        raise AssertionError("zuppos formed")
    monkeypatch.setattr(groups, "_zuppos", no_zuppos)
    G = pd.build(pd.parse_group_expr(expr))
    assert least_core_free_subgroup(G) == 1
    res = pd.mu_exact(G)
    assert (res.mu, res.nodes_explored, res.candidates_considered) == (mu, 1, 1)


def test_dihedral_2_group_is_walked():
    # D8 has one minimal normal, its centre, but 9 involutions: the walk
    # finds a reflection subgroup
    G = pd.build(pd.parse_group_expr("D8"))
    h = least_core_free_subgroup(G)
    assert h.bit_count() == 2 and h & pd.minimal_normals(G)[0] == 1
    assert pd.mu_exact(G).mu == 8


@pytest.mark.parametrize("cap,raises", [(153, True), (154, False)])
def test_walk_counts_against_the_subgroup_budget(cap, raises, monkeypatch):
    # 154 of S5's 156 subgroups avoid A5, the trivial one included
    monkeypatch.setattr(groups, "LATTICE_SUBGROUP_CAP", cap)
    G = pd.build(pd.parse_group_expr("S5"))
    if raises:
        with pytest.raises(pd.ResourceCapError):
            least_core_free_subgroup(G)
    else:
        assert least_core_free_subgroup(G).bit_count() == 24


def test_refuses_a_group_with_two_minimal_normals():
    with pytest.raises(pd.DomainError):
        least_core_free_subgroup(pd.build(pd.parse_group_expr("D6")))


def test_walk_forms_no_mask_of_a_zuppo_holding_n(monkeypatch):
    # the one involution of SL(2,5) spans N, its centre, and lies in every
    # zuppo of even order, so the walk drops those zuppos before any join
    # reads their coset masks: none is formed; those of orders 3 and 5 are
    lists = []

    def recording(G):
        zuppo, zmask = zuppos(G)
        lists.append(zuppo)
        return zuppo, zmask

    zuppos = groups._zuppos
    monkeypatch.setattr(groups, "_zuppos", recording)
    G = pd.build(pd.parse_group_expr("SL(2,5)"))
    assert least_core_free_subgroup(G).bit_count() == 5
    (zuppo,) = lists
    orders = G._element_orders()
    formed: dict[int, int] = {}
    for z, info in enumerate(zuppo):
        if info is not None and z == info[2][1]:  # once per <z>
            formed[orders[z]] = formed.get(orders[z], 0) + sum(map(bool, info[3]))
    assert formed.keys() == {2, 3, 4, 5}
    assert formed[2] == formed[4] == 0
    assert formed[3] and formed[5]
