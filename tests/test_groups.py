"""Group construction, validation, and structural machinery."""

import itertools
import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import permdeg as pd
from permdeg.errors import GroupFormatError, InvalidActionError, ResourceCapError
from permdeg.groups import (
    Subgroup,
    bits_to_list,
    list_to_bits,
    prime_factors,
    torsion_layer,
)
from permdeg.iso import are_isomorphic
from permdeg.solver import cover_sets

from conftest import group_for


# Reference definitions, kept deliberately naive: the lattice engine
# derives the same answers from coset masks, upper covers and conjugacy
# orbits, and the tests below hold it to these.


def _strict_supergroups(lat, i):
    """Lattice indices of every subgroup strictly containing subgroup i."""
    bi = lat.subgroups[i].bits
    return [j for j, s in enumerate(lat.subgroups)
            if s.bits != bi and (s.bits | bi) == s.bits]


def _core_over_all_conjugates(G, H):
    """Intersection of g H g^-1 over every g, conjugating with numpy."""
    elems = np.array(H.elements())
    bits = H.bits
    for g in range(G.order):
        ginv = int(np.flatnonzero(G.mult[g] == 0)[0])
        bits &= list_to_bits(G.mult[G.mult[g, elems], ginv].tolist())
    return bits


def _numpy_closure(G, gens):
    """Subgroup generated by ``gens``: grow a set under right
    multiplication by the generators with numpy indexing."""
    members = np.array([0])
    gens = np.array(gens, dtype=np.int64)
    while True:
        grown = np.union1d(members, G.mult[np.ix_(members, gens)].ravel())
        if len(grown) == len(members):
            return list_to_bits(members.tolist())
        members = grown


def _naive_minimal_normals(lat):
    """Lattice indices of the nontrivial normal subgroups that contain no
    other nontrivial normal subgroup, normality tested by conjugation."""
    normals = [H.bits for H in lat.subgroups if H.bits != 1 and H.is_normal()]
    return [lat.index_of[n] for n in normals
            if not any(m != n and (m | n) == n for m in normals)]


def _naive_joins(G, S):
    """<S, z> for every z of prime-power order outside S with z^p in S,
    each generated from all of S's elements."""
    out = set()
    for z in range(1, G.order):
        primes = prime_factors(G.element_order(z))
        if len(primes) == 1 and z not in S and G.power(z, primes[0]) in S:
            out.add(G.subgroup_generated_bits(S.elements() + [z]))
    return out


@pytest.fixture(scope="module")
def catalog32():
    return [group_for(e.name) for e in pd.catalog(32)]


# non-abelian groups beyond catalog(32), where conjugacy classes are larger
BEYOND32 = ("S5", "SL(2,5)")


def test_bitset_helpers_roundtrip():
    assert bits_to_list(0b1011) == [0, 1, 3]
    assert list_to_bits([0, 1, 3]) == 0b1011


class TestConstruction:
    def test_cyclic_is_residue_addition(self):
        Z5 = pd.make_cyclic(5)
        for a in range(5):
            for b in range(5):
                assert Z5.mul(a, b) == (a + b) % 5

    def test_cyclic_rejects_nonpositive(self):
        with pytest.raises(pd.DomainError):
            pd.make_cyclic(0)

    def test_dihedral_order_and_relations(self):
        # Dn has order 2n; reflections are the elements n..2n-1
        D4 = pd.make_dihedral(4)
        assert D4.order == 8
        assert D4.element_order(1) == 4          # rotation r
        assert all(D4.element_order(i) == 2 for i in range(4, 8))
        # s r s = r^-1
        s = 4
        assert D4.mul(D4.mul(s, 1), s) == D4.inverse(1)

    def test_dihedral_d3_is_s3(self):
        assert are_isomorphic(pd.make_dihedral(3), pd.make_symmetric(3))

    def test_quaternion_unique_involution(self):
        for order in (8, 16, 32):
            Q = pd.make_generalized_quaternion(order)
            assert Q.order == order
            involutions = [a for a in range(order) if Q.element_order(a) == 2]
            assert len(involutions) == 1

    def test_quaternion_rejects_bad_order(self):
        with pytest.raises(pd.DomainError):
            pd.make_generalized_quaternion(12)
        with pytest.raises(pd.DomainError):
            pd.make_generalized_quaternion(4)

    def test_symmetric_order(self):
        assert pd.make_symmetric(3).order == 6
        assert pd.make_symmetric(4).order == 24

    @pytest.mark.parametrize("n", [4, 5])
    def test_symmetric_table_is_composition(self, n):
        # element i is the i-th permutation in lexicographic order, and the
        # product p*q maps k to p[q[k]]
        perms = np.array(list(itertools.permutations(range(n))))
        index = {tuple(p): i for i, p in enumerate(perms.tolist())}
        ref = np.array([[index[tuple(row)] for row in p[perms].tolist()]
                        for p in perms])
        assert np.array_equal(pd.make_symmetric(n).mult, ref)

    def test_sl2_orders(self):
        assert pd.make_SL2(2).order == 6
        assert pd.make_SL2(3).order == 24
        assert pd.make_SL2(5).order == 120

    def test_sl22_is_s3(self):
        assert are_isomorphic(pd.make_SL2(2), pd.make_symmetric(3))

    def test_abelian_coprime_factors_is_cyclic(self):
        assert are_isomorphic(pd.make_abelian([4, 3]), pd.make_cyclic(12))

    def test_direct_product_indexing(self):
        G = pd.make_cyclic(4)
        H = pd.make_cyclic(3)
        P = pd.direct_product(G, H)
        assert P.order == 12
        for g1 in range(4):
            for h1 in range(3):
                for g2 in range(4):
                    for h2 in range(3):
                        x = g1 * 3 + h1
                        y = g2 * 3 + h2
                        assert P.mul(x, y) == G.mul(g1, g2) * 3 + H.mul(h1, h2)

    def test_direct_product_cap(self):
        with pytest.raises(ResourceCapError):
            pd.direct_product(pd.make_cyclic(20), pd.make_cyclic(20))

    def test_semidirect_inversion_is_dihedral(self):
        C5 = pd.make_cyclic(5)
        C2 = pd.make_cyclic(2)
        P = pd.semidirect_product(C5, C2, pd.inversion_action(C5, C2))
        assert are_isomorphic(P, pd.make_dihedral(5))

    def test_semidirect_trivial_action_is_direct_product(self):
        C3 = pd.make_cyclic(3)
        C4 = pd.make_cyclic(4)
        P = pd.semidirect_product(C3, C4, pd.trivial_action(C3, C4))
        assert np.array_equal(P.mult, pd.direct_product(C3, C4).mult)

    def test_semidirect_rejects_non_automorphism(self):
        C4 = pd.make_cyclic(4)
        C2 = pd.make_cyclic(2)
        bad = np.array([[0, 1, 2, 3], [0, 2, 1, 3]])  # not multiplicative
        with pytest.raises(InvalidActionError):
            pd.semidirect_product(C4, C2, bad)


class TestTableValidation:
    def test_z3_addition_table(self):
        G = pd.from_multiplication_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        assert are_isomorphic(G, pd.make_cyclic(3))

    def test_identity_relabeled_to_zero(self):
        # same table with the identity in slot 1
        G = pd.from_multiplication_table([[2, 0, 1], [0, 1, 2], [1, 2, 0]])
        assert G.mul(0, 2) == 2 and G.mul(2, 0) == 2

    def test_rejects_non_latin_square(self):
        with pytest.raises(GroupFormatError):
            pd.from_multiplication_table([[0, 1], [1, 1]])

    def test_rejects_non_associative(self):
        # Latin square with identity that is not a group (order 5 loop)
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(GroupFormatError, match="associativ"):
            pd.from_multiplication_table(table)

    def test_rejects_missing_identity(self):
        with pytest.raises(GroupFormatError):
            # row 1 is the identity map but column 1 is not: no two-sided identity
            pd.from_multiplication_table([[1, 2, 0], [0, 1, 2], [2, 0, 1]])

    def test_load_table_file(self, tmp_path):
        path = tmp_path / "z3.tbl"
        path.write_text("# cyclic of order 3\n3\n0 1 2\n1 2 0\n2 0 1\n")
        G = pd.load_table_file(str(path))
        assert are_isomorphic(G, pd.make_cyclic(3))

    def test_load_table_file_refuses_order_before_rows(self, tmp_path):
        # missing and malformed rows are not reached
        path = tmp_path / "big.tbl"
        for text in ("300\n", "300\n0 1 x\n"):
            path.write_text(text)
            with pytest.raises(ResourceCapError, match="order 300 exceeds cap 256"):
                pd.load_table_file(str(path))


class TestElementStructure:
    def test_element_orders_divide_group_order(self):
        for expr in ("C12", "D6", "Q16", "S4"):
            G = group_for(expr)
            for a in range(G.order):
                assert G.order % G.element_order(a) == 0

    def test_exponent(self):
        assert group_for("Ab(2,2)").exponent() == 2
        assert group_for("S3").exponent() == 6

    def test_subgroup_generated_bits_matches_numpy_closure(self, catalog32):
        for G in catalog32:
            n = G.order
            for g in range(n):
                for gens in ([g], [g, (5 * g + 3) % n], [g, g * g % n, n - 1]):
                    assert (G.subgroup_generated_bits(gens)
                            == _numpy_closure(G, gens)), (G.label, gens)

    def test_generators_generate(self):
        for expr in ("C12", "D6", "Q8", "S4", "SL(2,3)"):
            G = group_for(expr)
            gens = G.generators()
            assert G.subgroup_generated_bits(gens) == (1 << G.order) - 1


class TestLattice:
    def test_z6_has_four_subgroups(self):
        lat = group_for("C6").lattice()
        assert sorted(s.order for s in lat.subgroups) == [1, 2, 3, 6]

    def test_v4_has_five_subgroups(self):
        lat = group_for("Ab(2,2)").lattice()
        assert sorted(s.order for s in lat.subgroups) == [1, 2, 2, 2, 4]

    def test_q8_has_six_subgroups_all_normal(self):
        lat = group_for("Q8").lattice()
        assert len(lat) == 6
        assert all(lat.normal_flags)

    def test_hamiltonian_lattice_needs_no_class_search(self, monkeypatch):
        # every subgroup of a Hamiltonian group is normal, and the join of
        # two normal subgroups is their product set, a class of its own: no
        # join searches a conjugacy class, abelian or not
        def no_class_search(*args):
            raise AssertionError("conjugacy class searched")

        monkeypatch.setattr(pd.groups, "_conjugacy_class", no_class_search)
        for expr in ("Q8", "Q8 x C2", "Ab(2,2,2) x Q8"):
            lat = pd.build(pd.parse_group_expr(expr)).lattice()
            assert all(lat.normal_flags), expr

    def test_s4_subgroup_count(self):
        assert len(group_for("S4").lattice()) == 30

    def test_lagrange(self, catalog48):
        for entry in catalog48:
            if entry.order > 24:
                continue
            G = group_for(entry.name)
            for H in G.lattice().subgroups:
                assert G.order % H.order == 0

    def test_subgroups_closed(self):
        for expr in ("D6", "SL(2,3)", "Ab(4,2)"):
            for H in group_for(expr).lattice().subgroups:
                assert H.is_closed()

    def test_minimal_normals_v4(self):
        lat = group_for("Ab(2,2)").lattice()
        assert [lat.subgroups[i].order for i in lat.minimal_normals] == [2, 2, 2]

    def test_minimal_normals_s3(self):
        lat = group_for("S3").lattice()
        mins = [lat.subgroups[i] for i in lat.minimal_normals]
        assert len(mins) == 1 and mins[0].order == 3

    def test_minimal_normal_cyclic_p_group(self):
        lat = group_for("C8").lattice()
        assert [lat.subgroups[i].order for i in lat.minimal_normals] == [2]

    def test_minimal_normals_and_socle_match_naive(self, catalog32):
        # the lattice finds each minimal normal with one AND against the
        # union of those before it, and the socle is generated by that union
        for G in catalog32 + [group_for(e)
                              for e in BEYOND32 + ("Ab(2,2,2,2) x Q8",)]:
            lat = G.lattice()
            naive = _naive_minimal_normals(lat)
            assert lat.minimal_normals == naive, G.label
            union = [x for i in naive for x in lat.subgroups[i].elements()]
            assert pd.socle(G).bits == _numpy_closure(G, union), G.label

    def test_flags_and_covers_match_naive_joins(self, catalog32):
        # the enumeration skips zuppos whose join it already has, and it
        # gives a class representative's flag to the rest of its class; a
        # join lost, or a flag misplaced, shows here even where the catalog
        # answers agree.  The joins of S contain all its upper covers and
        # each contains one, so the covers are the minimal joins, found
        # here without the lattice's own scan
        for G in catalog32 + [group_for(e)
                              for e in BEYOND32 + ("S4 x C2",)]:
            lat = G.lattice()
            flags = lat.meet_irreducible_flags()
            for i, S in enumerate(lat.subgroups):
                joins = _naive_joins(G, S)
                assert flags[i] == (reduce(int.__and__, joins, -1) != S.bits), \
                    G.label
                covers = sorted(lat.index_of[a] for a in joins if not any(
                    b != a and (a | b) == a for b in joins))
                assert lat.minimal_strict_supergroups(i) == covers, G.label

    def test_normal_flags_match_is_normal(self, catalog32):
        for G in catalog32 + [group_for(e) for e in BEYOND32]:
            lat = G.lattice()
            assert lat.normal_flags == [H.is_normal() for H in lat.subgroups], \
                G.label


# relabeling the elements of a group (0, the identity, fixed) must carry
# its lattice and μ over unchanged; the class-at-a-time enumeration must
# not depend on which member of a conjugacy class it meets first
RELABELED = ("S4", "SL(2,3)", "D4 x C2", "Q8 x C2", "S5")


def _relabeled(G, sigma):
    """The table of G with element a renamed sigma[a], built and
    validated through from_multiplication_table."""
    n = G.order
    table = [[0] * n for _ in range(n)]
    for a, row in enumerate(G.table):
        for b, ab in enumerate(row):
            table[sigma[a]][sigma[b]] = sigma[ab]
    return pd.from_multiplication_table(table, label=f"{G.label}'")


def _image(bits, sigma):
    return list_to_bits(sigma[x] for x in bits_to_list(bits))


def _structure(G):
    """Subgroup bitsets, the normal, minimal-normal and meet-irreducible
    ones (equal sets of images also give equal counts), and μ."""
    lat = G.lattice()
    bits = [H.bits for H in lat.subgroups]
    flags = lat.meet_irreducible_flags()
    return (set(bits),
            {b for b, f in zip(bits, lat.normal_flags) if f},
            {bits[i] for i in lat.minimal_normals},
            {b for b, f in zip(bits, flags) if f},
            pd.mu_exact(G).mu)


@pytest.mark.parametrize("expr", RELABELED)
# no shrinking: a smaller relabeling explains nothing more, and shrinking a
# permutation of up to 119 elements takes minutes
@settings(max_examples=5, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_relabeling_carries_lattice_and_mu(expr, data):
    G = group_for(expr)
    sigma = [0] + data.draw(st.permutations(range(1, G.order)))
    subgroups, normal, minimal, meet_irr, mu = _structure(G)
    got = _structure(_relabeled(G, sigma))
    assert got[0] == {_image(b, sigma) for b in subgroups}
    assert got[1] == {_image(b, sigma) for b in normal}
    assert got[2] == {_image(b, sigma) for b in minimal}
    assert got[3] == {_image(b, sigma) for b in meet_irr}
    assert got[4] == mu


class TestMeetIrreducible:
    def test_q8_census(self):
        # center = meet of two C4s -> reducible; trivial subgroup is NOT a
        # meet of larger subgroups (any two contain the center) -> irreducible
        G = group_for("Q8")
        lat = G.lattice()
        assert not lat.is_meet_irreducible(pd.center(G))
        assert lat.is_meet_irreducible(G.trivial_subgroup())
        assert sum(lat.meet_irreducible_flags()) == 5

    def test_v4_trivial_is_meet_reducible(self):
        G = group_for("Ab(2,2)")
        lat = G.lattice()
        assert not lat.is_meet_irreducible(G.trivial_subgroup())

    def test_chain_lattice_all_meet_irreducible(self):
        lat = group_for("C16").lattice()
        assert all(lat.meet_irreducible_flags())

    def test_meet_reducible_iff_two_supergroups_meet(self, catalog48):
        for entry in catalog48:
            if entry.order > 16:
                continue
            lat = group_for(entry.name).lattice()
            flags = lat.meet_irreducible_flags()
            for i in range(len(lat)):
                sups = _strict_supergroups(lat, i)
                bi = lat.subgroups[i].bits
                pair_meets = any(
                    lat.subgroups[a].bits & lat.subgroups[b].bits == bi
                    for ai, a in enumerate(sups) for b in sups[ai + 1:])
                if sups:
                    assert flags[i] == (not pair_meets)

    def test_minimal_strict_supergroups_are_upper_covers(self, catalog32):
        for G in catalog32:
            lat = G.lattice()
            for i in range(len(lat)):
                sups = _strict_supergroups(lat, i)
                minimal = [a for a in sups if not any(
                    b != a and (lat.subgroups[a].bits | lat.subgroups[b].bits)
                    == lat.subgroups[a].bits for b in sups)]
                assert lat.minimal_strict_supergroups(i) == minimal, G.label


class TestCenterCoreSocle:
    def test_center_q8(self):
        assert pd.center(group_for("Q8")).order == 2

    def test_center_s3_trivial(self):
        assert pd.center(group_for("S3")).is_trivial()

    def test_center_abelian_is_full(self):
        G = group_for("Ab(4,3)")
        assert pd.center(G).is_full()

    def test_center_is_elements_whose_row_equals_column(self, catalog32):
        for G in catalog32:
            zs = [z for z in range(G.order)
                  if np.array_equal(G.mult[z], G.mult[:, z])]
            assert pd.center(G).bits == list_to_bits(zs), G.label

    def test_cover_sets_and_normal_flags_match_conjugate_cores(self, monkeypatch):
        # The lattice no longer stores cores, but it still gives the solver
        # every core fact it uses: once it is built, cover sets and normal
        # flags agree with the cores built by conjugating with every
        # element, without one further conjugation.
        def no_conjugation(*args):
            raise AssertionError("conjugation after the lattice was built")

        for expr in [e.name for e in pd.catalog(32)] + list(BEYOND32):
            G = group_for(expr)
            lat = G.lattice()
            cores = [_core_over_all_conjugates(G, H) for H in lat.subgroups]
            monkeypatch.setattr(G, "conjugate_bits", no_conjugation)
            minimal = [lat.subgroups[i].bits for i in lat.minimal_normals]
            masks = [sum(1 << k for k, nb in enumerate(minimal)
                         if (cb | nb) != cb) for cb in cores]
            assert cover_sets(G, lat, range(len(lat))) == masks, expr
            assert lat.normal_flags == [cb == H.bits for cb, H
                                        in zip(cores, lat.subgroups)], expr

    def test_kernel_bits_match_conjugate_cores(self, catalog32):
        # core() memoizes nothing now; what stays is that kernel_bits, the
        # core of the parts' intersection, agrees with the cores built by
        # conjugating with every element, on repeated and fresh calls alike
        G = group_for("S4")
        lat = G.lattice()
        cores = [_core_over_all_conjugates(G, H) for H in lat.subgroups]
        for _ in range(2):
            assert [pd.core(G, H).bits for H in lat.subgroups] == cores
        R = pd.representation(G, lat.subgroups[1:4])
        assert pd.kernel_bits(R) == cores[1] & cores[2] & cores[3]
        rng = random.Random(3)
        for G in catalog32 + [group_for(e) for e in BEYOND32]:
            lat = G.lattice()
            cores = [_core_over_all_conjugates(G, H) for H in lat.subgroups]
            for _ in range(10):
                idxs = rng.sample(range(len(lat)),
                                  min(len(lat), rng.randint(1, 3)))
                R = pd.representation(G, [lat.subgroups[i] for i in idxs])
                kernel = (1 << G.order) - 1
                for i in idxs:
                    kernel &= cores[i]
                assert pd.kernel_bits(R) == kernel, G.label

    def test_core_of_normal_subgroup_is_itself(self):
        G = group_for("D6")
        for H in G.lattice().subgroups:
            if H.is_normal():
                assert pd.core(G, H).bits == H.bits

    def test_core_point_stabilizer_s3(self):
        # a 2-element subgroup of S3 is self-normalizing with trivial core
        G = group_for("S3")
        H = next(H for H in G.lattice().subgroups if H.order == 2)
        assert pd.core(G, H).is_trivial()

    def test_core_is_intersection_of_all_conjugates(self, catalog32):
        for G in catalog32 + [group_for(e) for e in BEYOND32]:
            for H in G.lattice().subgroups:
                assert pd.core(G, H).bits == _core_over_all_conjugates(G, H), \
                    G.label

    def test_socle_q8(self):
        assert pd.socle(group_for("Q8")).order == 2

    def test_socle_s3(self):
        assert pd.socle(group_for("S3")).order == 3

    def test_socle_elementary_abelian_is_full(self):
        G = group_for("Ab(2,2,2)")
        assert pd.socle(G).is_full()

    def test_socle_product_s3_s3(self):
        G = group_for("S3")
        P = pd.direct_product(G, G)
        left = pd.socle(G).bits
        expected = 0
        for g in bits_to_list(left):
            for h in bits_to_list(left):
                expected |= 1 << (g * G.order + h)
        assert pd.socle(P).bits == expected


class TestTorsionAndPrimary:
    def test_torsion_layer_z12(self):
        G = group_for("C12")
        assert torsion_layer(G, 2).order == 2
        assert torsion_layer(G, 4).order == 4
        assert torsion_layer(G, 6).order == 6
        assert torsion_layer(G, 12).order == 12

    def test_torsion_layer_rejects_nonabelian(self):
        with pytest.raises(pd.DomainError):
            torsion_layer(group_for("S3"), 2)

    def test_primary_z12(self):
        assert sorted(pd.primary_decomposition(group_for("C12")).factors) == [3, 4]

    def test_primary_klein(self):
        assert pd.primary_decomposition(group_for("Ab(2,2)")).factors == (2, 2)

    def test_primary_trivial(self):
        assert pd.primary_decomposition(pd.make_cyclic(1)).factors == ()

    def test_primary_order_product(self, catalog48):
        for entry in catalog48:
            if "abelian" not in entry.tags or entry.order > 48:
                continue
            G = group_for(entry.name)
            d = pd.primary_decomposition(G)
            assert d.order == G.order
            for q in d.factors:
                assert len(set(prime_factors(q))) == 1

    def test_abelian_basis_generates_with_right_orders(self):
        for expr in ("C12", "Ab(4,2)", "Ab(2,2,2)", "Ab(9,3)", "Ab(8,4,2)"):
            G = group_for(expr)
            basis = pd.abelian_basis(G)
            assert sorted(o for _, o in basis) == sorted(
                pd.primary_decomposition(G).factors)
            bits = G.subgroup_generated_bits([g for g, _ in basis])
            assert bits == (1 << G.order) - 1


class TestDerivedGroups:
    def test_subgroup_as_group(self):
        G = group_for("S3")
        H = next(H for H in G.lattice().subgroups if H.order == 3)
        Hg, embed = pd.subgroup_as_group(H)
        assert are_isomorphic(Hg, pd.make_cyclic(3))
        for a in range(3):
            for b in range(3):
                assert embed[Hg.mul(a, b)] == G.mul(embed[a], embed[b])

    def test_quotient_q8_by_center(self):
        G = group_for("Q8")
        Q, proj = pd.quotient_group(G, pd.center(G))
        assert are_isomorphic(Q, pd.make_abelian([2, 2]))
        for a in range(G.order):
            for b in range(G.order):
                assert proj[G.mul(a, b)] == Q.mul(proj[a], proj[b])

    def test_quotient_rejects_non_normal(self):
        G = group_for("S3")
        H = next(H for H in G.lattice().subgroups if H.order == 2)
        with pytest.raises(pd.DomainError):
            pd.quotient_group(G, H)


class TestCoprimeSubgroupSplitting:
    @pytest.mark.parametrize("a,b", [("C4", "C3"), ("S3", "C5")])
    def test_every_subgroup_splits(self, a, b):
        G, H = group_for(a), group_for(b)
        P = pd.direct_product(G, H)
        nH = H.order
        for K in P.lattice().subgroups:
            elems = K.elements()
            gs = sorted({e // nH for e in elems})
            hs = sorted({e % nH for e in elems})
            assert sorted(elems) == sorted(g * nH + h for g in gs for h in hs)
