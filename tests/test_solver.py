"""The exact solver, the brute-force oracle, and the structural checkers."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from functools import reduce

import pytest

import permdeg as pd
import permdeg.solver as solver
from permdeg.catalog import Abelian, Cyclic, Dihedral, DirectProduct, Quaternion
from permdeg.groups import (
    Subgroup,
    _conjugacy_class,
    character_kernels,
    subgroup_as_group,
)
from permdeg.solver import (
    _candidates,
    _minimal_and_meet_irreducible,
    _root_bounds,
    _search,
    cover_sets,
    parts_kernel_bits,
)

from conftest import group_for, lattice_covers, mu_of


def rep_of_orders(G, orders):
    """Representation built from the first lattice subgroup of each order."""
    lat = G.lattice()
    parts = []
    pool = list(lat.subgroups)
    for o in orders:
        H = next(H for H in pool if H.order == o)
        pool.remove(H)
        parts.append(H)
    return pd.representation(G, parts)


class TestRepresentationBasics:
    def test_degree_of_full_group(self):
        G = group_for("S3")
        assert pd.degree(pd.representation(G, [G.full_subgroup()])) == 1

    def test_degree_v4_two_z2(self):
        assert pd.degree(rep_of_orders(group_for("Ab(2,2)"), [2, 2])) == 4

    def test_degree_s3_point_stabilizer(self):
        assert pd.degree(rep_of_orders(group_for("S3"), [2])) == 3

    def test_regular_rep_faithful(self):
        for expr in ("C6", "Q8", "S3"):
            G = group_for(expr)
            assert pd.is_faithful(pd.representation(G, [G.trivial_subgroup()]))

    def test_q8_single_proper_part_never_faithful(self):
        G = group_for("Q8")
        for H in G.lattice().subgroups:
            if 1 < H.order < 8:
                assert not pd.is_faithful(pd.representation(G, [H]))

    def test_s3_point_stabilizer_faithful(self):
        assert pd.is_faithful(rep_of_orders(group_for("S3"), [2]))

    def test_empty_rep_not_faithful_on_nontrivial(self):
        G = group_for("C2")
        R = pd.representation(G, [])
        assert not pd.is_faithful(R)
        assert pd.kernel_bits(R) == (1 << 2) - 1

    @pytest.mark.parametrize("expr", ["S4", "SL(2,3)", "D4 x C2", "Q8 x C3",
                                      "S3 x S3"])
    def test_parts_kernel_is_core_of_intersection(self, expr):
        # the element test against the class search of core(), on every
        # subgroup and every pair of subgroups, unfaithful kernels included
        G = group_for(expr)
        subs = [H.bits for H in G.lattice().subgroups]
        cores = {}

        def core_of(bits):
            if bits not in cores:
                cores[bits] = pd.core(G, Subgroup(G, bits)).bits
            return cores[bits]

        for i, a in enumerate(subs):
            assert parts_kernel_bits(G, [a]) == core_of(a)
            for b in subs[i + 1:]:
                assert parts_kernel_bits(G, [a, b]) == core_of(a & b)
        assert len(set(cores.values())) > 2


class TestRealizeAction:
    @staticmethod
    def image_size(R):
        return len(set(pd.realize_action(R)))

    def test_regular_action_image(self):
        G = group_for("D4")
        R = pd.representation(G, [G.trivial_subgroup()])
        perms = pd.realize_action(R)
        assert len(perms[0]) == G.order
        assert self.image_size(R) == G.order

    def test_s3_three_point_action(self):
        R = rep_of_orders(group_for("S3"), [2])
        perms = pd.realize_action(R)
        assert len(perms[0]) == 3
        assert len(set(perms)) == 6

    def test_image_size_is_order_over_kernel(self):
        rng = random.Random(2)
        for expr in ("C12", "D6", "Q8", "Ab(2,2)"):
            G = group_for(expr)
            lat = G.lattice()
            for _ in range(10):
                parts = rng.sample(lat.subgroups, rng.randint(1, 3))
                R = pd.representation(G, parts)
                k = bin(pd.kernel_bits(R)).count("1")
                assert len(set(pd.realize_action(R))) == G.order // k

    def test_action_is_homomorphism(self):
        G = group_for("D4")
        R = rep_of_orders(G, [2, 4])
        perms = pd.realize_action(R)
        for a in range(G.order):
            for b in range(G.order):
                composed = tuple(perms[a][perms[b][i]] for i in range(len(perms[0])))
                assert composed == perms[G.mul(a, b)]

    def test_every_solver_witness_is_faithful_of_degree_mu(self):
        # faithfulness without core(): the |G| permutations of the coset
        # action are distinct iff the kernel is trivial
        for expr in [e.name for e in pd.catalog(32)] + ["S5", "SL(2,5)"]:
            G = group_for(expr)
            res = pd.mu_exact(G)
            perms = pd.realize_action(res.witness)
            assert len(set(perms)) == G.order, expr
            assert all(len(p) == res.mu for p in perms), expr


def self_or(x):
    return x


class TestCoverSets:
    def test_trivial_core_covers_everything(self):
        G = group_for("S3")
        lat = G.lattice()
        covers = lattice_covers(lat)
        full = (1 << len(lat.minimal_normals)) - 1
        for i, H in enumerate(lat.subgroups):
            if pd.core(G, H).is_trivial():
                assert covers[i] == full

    def test_full_group_covers_nothing(self):
        G = group_for("Ab(2,2)")
        lat = G.lattice()
        covers = lattice_covers(lat)
        assert covers[lat.subgroup_index(G.full_subgroup())] == 0

    def test_v4_z2_covers_other_two(self):
        G = group_for("Ab(2,2)")
        lat = G.lattice()
        covers = lattice_covers(lat)
        for i, H in enumerate(lat.subgroups):
            if H.order == 2:
                assert bin(covers[i]).count("1") == 2
                # it fails to cover exactly itself
                k = lat.minimal_normals.index(i)
                assert not (covers[i] >> k) & 1

    def test_faithful_iff_covered_randomized(self):
        rng = random.Random(5)
        for expr in ("C12", "D6", "Q8", "Ab(2,2,2)", "S4"):
            G = group_for(expr)
            lat = G.lattice()
            covers = lattice_covers(lat)
            full = (1 << len(lat.minimal_normals)) - 1
            for _ in range(20):
                idxs = rng.sample(range(len(lat)), rng.randint(1, 3))
                R = pd.representation(G, [lat.subgroups[i] for i in idxs])
                mask = 0
                for i in idxs:
                    mask |= covers[i]
                assert pd.is_faithful(R) == (mask == full)


    def test_subset_matches_full(self):
        rng = random.Random(11)
        for expr in ("S4", "SL(2,3)", "D4 x C2", "S3 x S3", "Q8 x C3"):
            # the subset and the full list are computed on two separately
            # built groups, so neither can read the other's results
            G = pd.build(pd.parse_group_expr(expr))
            lat = G.lattice()
            idx = rng.sample(range(len(lat)), len(lat) // 3)
            part = lattice_covers(lat, idx)
            H = pd.build(pd.parse_group_expr(expr))
            full = lattice_covers(H.lattice())
            assert part == [full[i] for i in idx], expr


class TestMuExact:
    @pytest.mark.parametrize("expr,expected", [
        ("C8", 8), ("S3", 3), ("C6", 5), ("Ab(2,2)", 4), ("Q8", 8),
        ("C12", 7), ("Ab(2,2,2)", 6), ("S4", 4), ("D4", 4), ("D6", 5),
        ("SL(2,3)", 8),
        # closed forms above the oracle's cap: mu(Q_2^k) = 2^k, mu(S_n) = n
        ("Q16", 16), ("Q32", 32), ("Q64", 64), ("Q128", 128), ("S5", 5),
    ])
    def test_known_values(self, expr, expected):
        res = pd.mu_exact(group_for(expr))
        assert res.mu == expected
        assert pd.is_faithful(res.witness)
        assert pd.degree(res.witness) == expected

    def test_trivial_group(self):
        res = pd.mu_exact(pd.make_cyclic(1))
        assert res.mu == 1

    def test_cayley_bound(self, catalog48):
        for entry in catalog48:
            if entry.order <= 24:
                assert mu_of(entry.name) <= entry.order

    def test_deterministic_witness(self):
        a = pd.mu_exact(pd.build(pd.parse_group_expr("D6")))
        b = pd.mu_exact(pd.build(pd.parse_group_expr("D6")))
        assert [H.bits for H in a.witness.parts] == [H.bits for H in b.witness.parts]

    def test_solve_builds_no_subgroup_objects(self):
        # the solver reads the lattice's bitsets; the Subgroup objects are
        # built on first access to lat.subgroups, in the order of lat.bits
        G = pd.build(pd.parse_group_expr("D4 x D4"))
        pd.mu_exact(G)
        lat = G.lattice()
        assert "subgroups" not in vars(lat)
        assert lat.subgroups == [Subgroup(G, b) for b in lat.bits]
        assert lat.subgroups is lat.subgroups

    def test_solved_once_per_group(self):
        G = pd.build(pd.parse_group_expr("D6"))
        res = pd.mu_exact(G)
        assert pd.mu_exact(G) is res
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.mu = 0

    @pytest.mark.parametrize("expr,mu,nodes", [
        ("C12 x D6", 12, 5), ("C18 x D6", 16, 8)])
    def test_memo_prunes_a_rederived_node(self, expr, mu, nodes):
        # two candidate orders reach the same uncovered set here, the later
        # at no less cost, so the memo cuts it: one of the few catalog
        # groups where it fires
        res = pd.mu_exact(group_for(expr))
        assert (res.mu, res.nodes_explored) == (mu, nodes)
        assert pd.degree(res.witness) == mu
        assert pd.is_faithful(res.witness)

    def test_search_improves_on_the_greedy_seed(self):
        # no catalog(256) search beats its greedy seed, so the search is
        # handed two meet-irreducible subgroups of S4 x C2: a covers some
        # minimal normals at a lower cost per minimal normal than b, which
        # covers them all.  The seed takes a, then b; the search finds b
        # alone.  Meet-irreducible parts keep the socle bounds admissible.
        # No abelian group has such a list: a new candidate covers
        # p^(w-1) of the points left in its prime's layer of the socle
        # (w the dimension of what is left there), whatever it is, so the
        # seed takes each layer's candidates in cost order, which is a
        # cheapest basis of that layer's matroid (Edmonds 1971)
        G = group_for("S4 x C2")
        minimal, meet_irr = _minimal_and_meet_irreducible(G)
        full = (1 << len(minimal)) - 1
        cands = _candidates(G, minimal, meet_irr)
        a, b = next((a, b) for a in cands for b in cands
                    if b[2] == full and a[2] != full
                    and a[0] * full.bit_count() < b[0] * a[2].bit_count())
        parts = [a[1], b[1]]
        res = _search(G, minimal, parts)
        # an exhaustive cover over the same two subgroups
        covers = cover_sets(minimal, parts)
        cheapest = min(
            sum(G.order // parts[i].bit_count() for i in chosen)
            for r in range(1, len(parts) + 1)
            for chosen in itertools.combinations(range(len(parts)), r)
            if reduce(int.__or__, (covers[i] for i in chosen)) == full)
        assert res.mu == cheapest == b[0] < a[0] + b[0]
        assert [H.bits for H in res.witness.parts] == [b[1]]
        assert pd.is_faithful(res.witness)

    def test_search_refuses_a_minimal_normal_no_candidate_covers(self):
        # C6's subgroup of order 3 covers its minimal normal of order 2 but
        # holds the one of order 3, so no choice of parts is faithful
        G = group_for("C6")
        minimal = pd.minimal_normals(G)
        three = next(b for b in minimal if b.bit_count() == 3)
        with pytest.raises(pd.InternalInvariantError, match="covered by no"):
            _search(G, minimal, [three])

    @pytest.mark.parametrize("expr", ["S5", "SL(2,5)", "S4 x C2", "Q8 x Q8"])
    def test_subgroup_monotonicity(self, expr):
        # mu(H) <= mu(G) for H <= G (Johnson 1971); each H is built afresh,
        # one per conjugacy class, and searched on its own
        G = group_for(expr)
        mu = pd.mu_exact(G).mu
        seen = set()
        for H in G.lattice().subgroups:
            if H.bits in seen:
                continue
            seen.update(_conjugacy_class(G, H.bits))
            Hgrp, _ = subgroup_as_group(H)
            assert pd.mu_exact(Hgrp).mu <= mu, (expr, H.order)


class TestSocleBounds:
    """The search's root bounds against mu, on every catalog(64) group.  A
    bound that is too high could cut the optimum; one that is too weak
    leaves the search walking the subspace lattice of an abelian socle."""

    def test_root_bound_at_most_mu(self, catalog64):
        for entry in catalog64:
            G = group_for(entry.name)
            assert max(_root_bounds(G)) <= pd.mu_exact(G).mu, entry.name

    def test_central_matroid_bound_is_mu_on_cs_groups(self, catalog64):
        for entry in catalog64:
            G = group_for(entry.name)
            if pd.is_CS(G):
                assert _root_bounds(G)[1] == pd.mu_exact(G).mu, entry.name

    def test_cs_groups_solve_at_the_root(self, catalog64):
        for entry in catalog64:
            G = group_for(entry.name)
            if pd.is_CS(G):
                assert pd.mu_exact(G).nodes_explored == 1, entry.name


def _count_product_sets(monkeypatch) -> list[int]:
    """Record each ``FiniteGroup.product_set_bits`` call: bound A is its
    only caller in the package."""
    calls = []
    product_set_bits = pd.FiniteGroup.product_set_bits

    def counted(G, abits, bbits):
        calls.append(abits)
        return product_set_bits(G, abits, bbits)

    monkeypatch.setattr(pd.FiniteGroup, "product_set_bits", counted)
    return calls


def _fresh(name):
    return pd.build(pd.parse_group_expr(name))


class TestBoundOrder:
    """Each search node tests its bounds cheapest first and forms bound A's
    product sets only when the cheapest cover and bound B leave it open.
    The cut is the same as on the largest bound, so no count moves."""

    def test_central_socle_forms_no_product_set(self, monkeypatch):
        # bound B is mu at the root of a group with a central socle, as in
        # Ab(2^5), where mu = 10
        calls = _count_product_sets(monkeypatch)
        cs = []
        for entry in pd.catalog(32):
            G = _fresh(entry.name)
            if pd.is_CS(G):
                cs.append(entry.name)
                assert pd.mu_exact(G).nodes_explored == 1, entry.name
                assert calls == [], entry.name
        assert len(cs) == 147 and "Ab(2,2,2,2,2)" in cs

    def test_bound_a_closes_the_roots_it_alone_can(self, catalog64, monkeypatch):
        # with A read as 0, the roots only A closes stay open: 55 groups of
        # catalog(64), D6 first, take 1 node with A and 2 to 6 without it
        socle_bounds = solver._socle_bounds
        calls = _count_product_sets(monkeypatch)
        r = pd.mu_exact(_fresh("D6"))
        assert (r.mu, r.nodes_explored) == (5, 1) and calls
        solved = [pd.mu_exact(group_for(entry.name)) for entry in catalog64]
        monkeypatch.setattr(
            solver, "_socle_bounds",
            lambda *args: (lambda uncovered: 0, socle_bounds(*args)[1]))
        needs_a = []
        for entry, with_a in zip(catalog64, solved):
            without = pd.mu_exact(_fresh(entry.name))
            assert without.mu == with_a.mu, entry.name
            if without.nodes_explored != with_a.nodes_explored:
                assert with_a.nodes_explored == 1, entry.name
                assert 2 <= without.nodes_explored <= 6, entry.name
                needs_a.append(entry.name)
        assert len(needs_a) == 55 and needs_a[0] == "D6"


def _prime_order_subgroups(G):
    """The subgroups <x> of prime order, sorted by (order, bitset): in an
    abelian group, its minimal normals, found without a normal closure."""
    subs = set()
    for x in range(1, G.order):
        k = G.element_order(x)
        if all(k % d for d in range(2, k)):
            bits, y = 1, x
            while y:
                bits |= 1 << y
                y = G.mul(y, x)
            subs.add(bits)
    return sorted(subs, key=lambda b: (b.bit_count(), b))


def _least_prime(m):
    return next(d for d in range(2, m + 1) if m % d == 0)


def _kernel_problems(G, kernels):
    """Why ``kernels`` are not the proper meet-irreducible subgroups of the
    abelian G, each once, found with no character and no coordinates.

    Each K must have prime-power index p^k, hold every element of order
    prime to p and miss some p^(k-1)-th power: then G/K is a p-group of
    order p^k with an element of order p^k, so it is cyclic.  G is
    isomorphic to its dual, and the kernels are those of the generators of
    the dual's nontrivial cyclic p-subgroups, one per subgroup, so there
    must be as many as G has such subgroups: sum 1/phi(o(x)) over the
    x != 1 of prime-power order."""
    n, full = G.order, (1 << G.order) - 1
    orders = [G.element_order(x) for x in range(n)]
    cyclic = 0
    for o, count in G.order_profile().items():
        p = _least_prime(o) if o > 1 else 0
        if p and p ** round(math.log(o, p)) == o:
            cyclic += count // (o - o // p)
    problems = []
    if len(kernels) != cyclic:
        problems.append(f"{len(kernels)} kernels, {cyclic} cyclic subgroups")
    if len(set(kernels)) != len(kernels):
        problems.append("a kernel repeats")
    # per prime p: the elements of order prime to p, the p-th power map, and
    # powers[p][j], the p^j-th powers of G as a bitset
    prime_to, pth, powers = {}, {}, {}
    for K in kernels:
        size = K.bit_count()
        m = n // size if size and n % size == 0 else 1
        p = _least_prime(m) if m > 1 else 0
        k = round(math.log(m, p)) if p else 0
        if not p or p ** k != m:
            problems.append(f"{K:x}: {size} elements, index not a prime power > 1")
            continue
        if p not in prime_to:
            prime_to[p] = sum(1 << x for x in range(n) if orders[x] % p)
            powers[p] = [full]
        while len(powers[p]) < k:
            if p not in pth:
                power = list(range(n))
                for _ in range(p - 1):
                    power = [G.table[y][x] for x, y in enumerate(power)]
                pth[p] = power
            powers[p].append(sum({1 << pth[p][x] for x in range(n)
                                  if powers[p][-1] >> x & 1}))
        if prime_to[p] & ~K:
            problems.append(f"{K:x}: misses an element of order prime to {p}")
        if not powers[p][k - 1] & ~K:
            problems.append(f"{K:x}: G/K has no element of order {m}")
    return problems


class TestAbelianSource:
    """An abelian group is solved from its characters, with no lattice.
    The lattice, and the closed form past the reach of criterion 2, are
    what the character source is held to."""

    def test_abelian_solve_builds_no_lattice(self):
        G = pd.build(pd.parse_group_expr("Ab(2,2,2,2,2,2)"))
        pd.mu_exact(G)
        pd.is_CS(G)
        pd.classify_incompressible(G)
        assert G._lattice is None

    def test_character_source_matches_lattice(self):
        # the kernels are every proper meet-irreducible subgroup, each once,
        # so in particular those that cover a minimal normal; the candidate
        # lists after dominance pruning are then equal too
        entries = [e for e in pd.catalog(100) if "abelian" in e.tags]
        for e in entries:
            G = pd.build(e.expr)
            lat = G.lattice()
            subs = lat.subgroups
            minimal = [subs[i].bits for i in lat.minimal_normals]
            meet_irr = [H.bits for H, f in zip(subs, lat.meet_irreducible_flags())
                        if f and not H.is_full()]
            kernels = character_kernels(G)
            assert sorted(kernels) == sorted(meet_irr), e.name
            assert _prime_order_subgroups(G) == minimal, e.name
            assert (_candidates(G, minimal, kernels)
                    == _candidates(G, minimal, meet_irr)), e.name

    def test_abelian_formula_orders_101_to_256(self):
        # mu = m(primary decomposition) past criterion 2's order 100:
        # primary_decomposition counts torsion layers, which the character
        # source never reads.  The minimal normals past the lattice test
        # above are held to the subgroups of prime order, and the kernels
        # to a check that builds no character (``_kernel_problems``)
        entries = [e for e in pd.catalog(256)
                   if "abelian" in e.tags and e.order > 100]
        assert len(entries) == 1721
        for e in entries:
            G = pd.build(e.expr)
            assert pd.minimal_normals(G) == _prime_order_subgroups(G), e.name
            assert _kernel_problems(G, character_kernels(G)) == [], e.name
            assert pd.mu_exact(G).mu == pd.m_value(
                pd.primary_decomposition(G)), e.name


class TestMuOracle:
    @pytest.mark.parametrize("expr,expected", [
        ("C6", 5), ("Ab(2,2)", 4), ("Q8", 8), ("S3", 3), ("S4", 4),
    ])
    def test_known_values(self, expr, expected):
        assert pd.mu_oracle(group_for(expr)).mu == expected

    def test_order_cap(self):
        with pytest.raises(pd.ResourceCapError):
            pd.mu_oracle(group_for("SL(2,5)"))

    def test_agrees_with_exact_small(self):
        for expr in ("C16", "D8", "Q16", "Ab(4,2)", "SL(2,3)", "D12",
                     "Ab(3,3)", "C24"):
            G = group_for(expr)
            assert pd.mu_oracle(G).mu == pd.mu_exact(G).mu


class TestAbelianFormula:
    @pytest.mark.parametrize("factors,expected", [
        ((4, 3), 7), ((2, 2), 4), ((8,), 8), ((2, 3), 5),
    ])
    def test_m_value(self, factors, expected):
        G = pd.make_abelian(list(factors))
        assert pd.m_value(pd.primary_decomposition(G)) == expected

    def test_m_value_trivial_is_one(self):
        assert pd.m_value(pd.primary_decomposition(pd.make_cyclic(1))) == 1

    @pytest.mark.parametrize("expr,expected", [
        ("C12", 7), ("Ab(2,2,2)", 6), ("C6", 5), ("Ab(9,3)", 12),
        ("Ab(8,4,2)", 14), ("C100", 29),
    ])
    def test_mu_abelian(self, expr, expected):
        assert pd.mu_abelian(group_for(expr)) == expected

    def test_mu_abelian_rejects_nonabelian(self):
        with pytest.raises(pd.DomainError):
            pd.mu_abelian(group_for("S3"))

    def test_witness_structure(self):
        G = group_for("C12")
        W = pd.abelian_witness(G)
        assert pd.is_faithful(W)
        assert pd.degree(W) == 7

    def test_m_function_lemma_properties(self):
        # m(K) <= |K|; m(K x L) = m(K) + m(L); monotone under subgroups
        for expr in ("C12", "Ab(4,2)", "Ab(2,2,2)", "Ab(9,3)", "C30"):
            G = group_for(expr)
            mG = pd.m_value(pd.primary_decomposition(G))
            assert mG <= G.order
            for H in G.lattice().subgroups:
                Hg, _ = pd.subgroup_as_group(H)
                assert pd.m_value(pd.primary_decomposition(Hg)) <= mG
        for a, b in (("C4", "C3"), ("Ab(2,2)", "C9"), ("C8", "C2")):
            K, L = group_for(a), group_for(b)
            P = pd.direct_product(K, L)
            assert (pd.m_value(pd.primary_decomposition(P))
                    == pd.m_value(pd.primary_decomposition(K))
                    + pd.m_value(pd.primary_decomposition(L)))


class TestInducedRepresentation:
    def test_on_full_group_is_same(self):
        G = group_for("S3")
        R = rep_of_orders(G, [2])
        ind = pd.induced_representation(R, G.full_subgroup())
        assert [H.bits for H in ind.parts] == [H.bits for H in R.parts]

    def test_induced_need_not_be_faithful(self):
        # restricting the faithful 3-point representation of S3 to the very
        # stabilizer it uses kills faithfulness
        G = group_for("S3")
        R = rep_of_orders(G, [2])
        ind = pd.induced_representation(R, R.parts[0])
        assert not pd.is_faithful(ind)

    def test_on_trivial_subgroup_faithful(self):
        G = group_for("D4")
        R = rep_of_orders(G, [4])
        ind = pd.induced_representation(R, G.trivial_subgroup())
        assert pd.is_faithful(ind)


class TestReduceToMeetIrreducible:
    def test_already_irreducible_unchanged(self):
        G = group_for("S3")
        res = pd.mu_exact(G)
        out = pd.reduce_to_meet_irreducible(res.witness)
        assert sorted(H.bits for H in out.parts) == sorted(
            H.bits for H in res.witness.parts)

    def test_v4_trivial_part_splits(self):
        G = group_for("Ab(2,2)")
        R = pd.representation(G, [G.trivial_subgroup()])
        out = pd.reduce_to_meet_irreducible(R)
        assert sorted(H.order for H in out.parts) == [2, 2]
        assert pd.degree(out) == 4
        assert pd.is_faithful(out)

    def test_rejects_nonminimal(self):
        G = group_for("C6")  # mu = 5, regular rep degree 6
        R = pd.representation(G, [G.trivial_subgroup()])
        with pytest.raises(pd.PreconditionError):
            pd.reduce_to_meet_irreducible(R)

    def test_rejects_unfaithful(self):
        G = group_for("Q8")
        R = pd.representation(G, [pd.center(G), pd.center(G), pd.center(G),
                                  pd.center(G)])
        assert pd.degree(R) == 16  # wrong on purpose: not faithful either
        with pytest.raises(pd.PreconditionError):
            pd.reduce_to_meet_irreducible(R)


class TestDecompositions:
    def test_product_construction_faithful(self):
        G = H = group_for("C2")
        P = pd.direct_product(G, H)
        lat = P.lattice()
        # 1 x H = {0, 1}; G x 1 = {0, 2} under pair indexing
        R = pd.representation(P, [Subgroup(P, 0b0011), Subgroup(P, 0b0101)])
        # part 0 = 1 x H serves the G side; part 1 = G x 1 serves the H side
        report = pd.check_decomposition(G, H, R, [0])
        assert report.kind == "faithful"

    def test_kind_matches_core_by_core_reference(self):
        # the definitions with one core per factor slice, on every one- and
        # two-part representation and every bipartition of it
        def meet_of_cores(F, slices):
            inter = (1 << F.order) - 1
            for b in slices:
                inter &= pd.core(F, Subgroup(F, b)).bits
            return inter

        def reference_kind(G, H, R, left):
            nG, nH = G.order, H.order
            right = [i for i in range(len(R.parts)) if i not in left]
            elems = [[divmod(e, nH) for e in K.elements()] for K in R.parts]
            cap_g = [sum(1 << g for g, h in es if h == 0) for es in elems]
            cap_h = [sum(1 << h for g, h in es if g == 0) for es in elems]
            proj_g = [sum(1 << g for g in {g for g, _ in es}) for es in elems]
            proj_h = [sum(1 << h for h in {h for _, h in es}) for es in elems]
            weak = (meet_of_cores(G, [cap_g[i] for i in left]) == 1
                    and meet_of_cores(H, [cap_h[i] for i in right]) == 1)
            faithful = (
                all(proj_h[i].bit_count() == nH and len(elems[i])
                    == proj_g[i].bit_count() * nH for i in left)
                and all(proj_g[i].bit_count() == nG and len(elems[i])
                        == proj_h[i].bit_count() * nG for i in right)
                and meet_of_cores(G, [proj_g[i] for i in left]) == 1
                and meet_of_cores(H, [proj_h[i] for i in right]) == 1)
            return "faithful" if faithful else ("weak-faithful" if weak else "none")

        kinds = set()
        for g, h in [("C2", "C2"), ("C4", "C2"), ("S3", "C2"), ("C2", "S3")]:
            G, H = group_for(g), group_for(h)
            P = pd.direct_product(G, H)
            subs = P.lattice().subgroups
            reps = [[A] for A in subs] + [[A, B] for i, A in enumerate(subs)
                                          for B in subs[i:]]
            for parts in reps:
                R = pd.representation(P, parts)
                for left in ([], [0], [1], [0, 1])[:2 ** len(parts)]:
                    kind = pd.check_decomposition(G, H, R, left).kind
                    assert kind == reference_kind(G, H, R, left), (g, h, parts, left)
                    kinds.add(kind)
        assert kinds == {"faithful", "weak-faithful", "none"}

    def test_coprime_minimal_splits(self):
        G, H = group_for("C4"), group_for("C3")
        P = pd.direct_product(G, H)
        res = pd.mu_exact(P)
        report = pd.find_weak_decomposition(G, H, res.witness)
        assert report is not None
        assert pd.weak_decomposition_inequality_check(report)
        assert (report.induced_degree_left + report.induced_degree_right
                <= pd.degree(res.witness))

    def test_q8_z4_weak_decomposition_found(self):
        G, H = group_for("Q8"), group_for("C4")
        P = pd.direct_product(G, H)
        res = pd.mu_exact(P)
        report = pd.find_weak_decomposition(G, H, res.witness)
        assert report is not None
        assert pd.weak_decomposition_inequality_check(report)

    def test_single_trivial_part_not_decomposable(self):
        G, H = group_for("C2"), group_for("C3")
        P = pd.direct_product(G, H)
        R = pd.representation(P, [P.trivial_subgroup()])
        assert pd.find_weak_decomposition(G, H, R) is None

    def test_inequality_check_rejects_none_kind(self):
        G, H = group_for("C2"), group_for("C3")
        P = pd.direct_product(G, H)
        R = pd.representation(P, [P.full_subgroup()])
        report = pd.check_decomposition(G, H, R, [])
        assert report.kind == "none"
        with pytest.raises(pd.PreconditionError):
            pd.weak_decomposition_inequality_check(report)


class TestCSAndAdditivity:
    def test_abelian_is_cs(self):
        for expr in ("C2", "C12", "Ab(2,2,2)", "Ab(9,3)"):
            assert pd.is_CS(group_for(expr))

    def test_sl25_is_cs(self):
        assert pd.is_CS(group_for("SL(2,5)"))

    def test_s3_not_cs(self):
        assert not pd.is_CS(group_for("S3"))

    def test_trivial_not_cs(self):
        assert not pd.is_CS(pd.make_cyclic(1))

    def test_q8_cs_and_cse(self):
        G = group_for("Q8")
        assert pd.is_CS(G)
        ok, wit = pd.is_CSE(G)
        assert ok and wit.order == 8

    def test_s3_cse_witness_c3(self):
        ok, wit = pd.is_CSE(group_for("S3"))
        assert ok
        assert wit.order == 3

    def test_additivity_coprime(self):
        rec = pd.verify_additivity(group_for("C4"), group_for("C3"))
        assert rec.lhs == rec.rhs == 7
        assert rec.equal and rec.guaranteed == "coprime"

    def test_additivity_cs(self):
        rec = pd.verify_additivity(group_for("Q8"), group_for("C4"))
        assert rec.lhs == rec.rhs == 12
        assert rec.guaranteed == "CS"

    def test_additivity_s3_s3_via_cse(self):
        # S3 has the central-socle subgroup C3 with the same mu, so the
        # product is additive through the extended collection
        rec = pd.verify_additivity(group_for("S3"), group_for("S3"))
        assert rec.lhs == rec.rhs == 6
        assert rec.guaranteed == "CSE"

    def test_product_additivity_sweep(self):
        # mu(G x H) <= mu(G) + mu(H) on every non-abelian product of
        # catalog(128), with equality for coprime orders and for two
        # nilpotent factors (Wright 1975, "Degrees of minimal embeddings
        # for some direct products").  Each product is built afresh
        def nilpotent(atom):
            # D_n has order 2n and is nilpotent iff n is a power of 2
            return isinstance(atom, (Cyclic, Abelian, Quaternion)) or (
                isinstance(atom, Dihedral) and atom.n & (atom.n - 1) == 0)

        products = equalities = 0
        for entry in pd.catalog(128):
            expr = entry.expr
            if not isinstance(expr, DirectProduct) or "abelian" in entry.tags:
                continue
            G, H = expr.factors
            products += 1
            mu = pd.mu_exact(pd.build(expr)).mu
            bound = mu_of(str(G)) + mu_of(str(H))
            assert mu <= bound, entry.name
            if (math.gcd(pd.declared_order(G), pd.declared_order(H)) == 1
                    or nilpotent(G) and nilpotent(H)):
                equalities += 1
                assert mu == bound, entry.name
        assert (products, equalities) == (318, 133)


class TestCompression:
    def test_cr_z6(self):
        assert pd.compression_ratio(group_for("C6")) == Fraction(6, 5)

    def test_cr_q8(self):
        assert pd.compression_ratio(group_for("Q8")) == 1

    def test_cr_s4(self):
        assert pd.compression_ratio(group_for("S4")) == 6

    @pytest.mark.parametrize("expr,expected", [
        ("C9", "cyclic-prime-power"),
        ("Q16", "generalized-quaternion"),
        ("Ab(2,2)", "klein-four"),
        ("C6", "compressible"),
        ("C32", "cyclic-prime-power"),
        ("S3", "compressible"),
    ])
    def test_classify(self, expr, expected):
        verdict = pd.classify_incompressible(group_for(expr))
        assert verdict.structural_type == expected
        assert (expected != "compressible") == (verdict.cr == 1)

    def test_classify_with_ratio_checks_the_given_cr(self):
        G = group_for("C8")
        assert pd.classify_with_ratio(G, Fraction(1)).structural_type == (
            "cyclic-prime-power")
        with pytest.raises(pd.InternalInvariantError):
            pd.classify_with_ratio(G, Fraction(1, 2))

    def test_classify_rejects_trivial(self):
        with pytest.raises(pd.DomainError):
            pd.classify_incompressible(pd.make_cyclic(1))

    def test_cr_monotone_full_subgroup(self):
        G = group_for("D6")
        assert pd.cr_monotonicity_check(G, G.full_subgroup())

    def test_cr_monotone_sl25_z5(self):
        G = group_for("SL(2,5)")
        H = next(H for H in G.lattice().subgroups if H.order == 5)
        assert pd.cr_monotonicity_check(G, H)

    def test_cr_monotone_sweep(self, catalog48):
        for entry in catalog48:
            if entry.order > 24:
                continue
            G = group_for(entry.name)
            for H in G.lattice().subgroups:
                assert pd.cr_monotonicity_check(G, H)


class TestSemidirectBound:
    def test_dihedral_from_inversion(self):
        for n in (3, 5):
            Cn, C2 = pd.make_cyclic(n), pd.make_cyclic(2)
            rep = pd.semidirect_bound_check(Cn, C2, pd.inversion_action(Cn, C2))
            assert rep.mu_product == n
            assert rep.bound == n + 2
            assert rep.holds and rep.embedding_injective

    def test_trivial_action_tight(self):
        C4, C3 = pd.make_cyclic(4), pd.make_cyclic(3)
        rep = pd.semidirect_bound_check(C4, C3, pd.trivial_action(C4, C3))
        assert rep.mu_product == 7 and rep.bound == 7
        assert rep.holds and rep.embedding_injective


class TestSocleProperties:
    @pytest.mark.parametrize("expr", ["Ab(2,2)", "Q8", "Ab(9,3)", "C12",
                                      "Ab(2,2,2)", "Q16"])
    def test_minimal_witness_passes(self, expr):
        G = group_for(expr)
        res = pd.mu_exact(G)
        report = pd.socle_induced_properties_check(G, res.witness)
        assert report.passed

    def test_v4_hyperplane_dimensions(self):
        G = group_for("Ab(2,2)")
        res = pd.mu_exact(G)
        # each part is one of the Z2 subgroups: dimension 1 inside the
        # 2-dimensional socle
        report = pd.socle_induced_properties_check(G, res.witness)
        assert report.codimension_one

    def test_rejects_non_cs(self):
        G = group_for("S3")
        with pytest.raises(pd.PreconditionError):
            pd.socle_induced_properties_check(G, pd.mu_exact(G).witness)

    def test_socle_equals_product_of_zp_layers_for_cs(self, catalog48):
        # for central-socle groups the socle is generated by the central
        # elements of prime order
        for entry in catalog48:
            if entry.order > 24:
                continue
            G = group_for(entry.name)
            if not pd.is_CS(G):
                continue
            Z = pd.center(G)
            primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
            gens = [z for z in Z.elements() if G.element_order(z) in primes]
            if gens:
                assert pd.socle(G).bits == G.subgroup_generated_bits(gens)
            else:
                assert pd.socle(G).is_trivial()
