"""Group construction, validation, and structural machinery."""

import gc
import itertools
import random
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import permdeg as pd
from permdeg.errors import (
    DomainError,
    GroupFormatError,
    InvalidActionError,
    ResourceCapError,
)
from permdeg.groups import (
    Subgroup,
    _conjugacy_class,
    _times,
    _zuppos,
    abelian_positions,
    bits_to_list,
    is_nilpotent,
    list_to_bits,
    perfect_residual,
    prime_factors,
)
from iso import are_isomorphic

from conftest import group_for, lattice_covers, table_array
from one_minimal_check import BEYOND_CATALOG, split_metacyclic


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
    mult, elems = table_array(G), np.array(H.elements())
    bits = H.bits
    for g in range(G.order):
        ginv = int(np.flatnonzero(mult[g] == 0)[0])
        bits &= list_to_bits(mult[mult[g, elems], ginv].tolist())
    return bits


def _conjugates_by_every_element(G, H):
    """The set of g H g^-1 over every g, conjugating with numpy."""
    mult, elems = table_array(G), np.array(H.elements())
    out = set()
    for g in range(G.order):
        ginv = int(np.flatnonzero(mult[g] == 0)[0])
        out.add(list_to_bits(mult[mult[g, elems], ginv].tolist()))
    return out


def _numpy_closure(G, gens):
    """Subgroup generated by ``gens``: grow a set under right
    multiplication by the generators with numpy indexing."""
    mult, members = table_array(G), np.array([0])
    gens = np.array(gens, dtype=np.int64)
    while True:
        grown = np.union1d(members, mult[np.ix_(members, gens)].ravel())
        if len(grown) == len(members):
            return list_to_bits(members.tolist())
        members = grown


def _bfs_generated_bits(G, gens):
    """Subgroup generated by ``gens``: the breadth-first orbit of the
    identity under right multiplication by the generators, the loop
    ``FiniteGroup.subgroup_generated_bits`` ran before it extended the
    trivial subgroup one generator at a time."""
    gl = [g for g in gens if g != 0]
    member, elems = 1, [0]
    for x in elems:  # the list grows while it is scanned
        row = G.table[x]
        for g in gl:
            y = row[g]
            if not (member >> y) & 1:
                member |= 1 << y
                elems.append(y)
    return member


def _greedy_generators(G):
    """``FiniteGroup.generators()`` as it was when it closed the
    generators from scratch after each one: elements by decreasing order,
    each one outside the closure so far joining the generators."""
    gens, bits = [], 1
    orders = G._element_orders()
    for a in sorted(range(1, G.order), key=lambda a: -orders[a]):
        if not (bits >> a) & 1:
            gens.append(a)
            bits = _bfs_generated_bits(G, gens)
            if bits == (1 << G.order) - 1:
                break
    return gens


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
            out.add(_bfs_generated_bits(G, S.elements() + [z]))
    return out


# The constructors form whole tables by array index arithmetic; these are
# the same tables filled one cell at a time from the docstrings' formulas.


def _dihedral_cells(n):
    """D_n: r^a is a, s r^a is n + a."""
    mult = np.empty((2 * n, 2 * n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            mult[a, b] = (a + b) % n                  # r^a r^b
            mult[a, n + b] = n + (b - a) % n          # r^a (s r^b) = s r^(b-a)
            mult[n + a, b] = n + (a + b) % n          # (s r^a) r^b
            mult[n + a, n + b] = (b - a) % n          # (s r^a)(s r^b) = r^(b-a)
    # (r^a)^-1 = r^-a, and every s r^a is an involution
    inv = tuple(-a % n for a in range(n)) + tuple(range(n, 2 * n))
    return mult, inv


def _quaternion_cells(order):
    """Q_{2^k}: x^a is a, x^a y is m + a, with m = order / 2."""
    m = order // 2
    half = m // 2
    mult = np.empty((order, order), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            mult[a, b] = (a + b) % m                      # x^a x^b
            mult[a, m + b] = m + (a + b) % m              # x^a (x^b y)
            mult[m + a, b] = m + (a - b) % m              # (x^a y) x^b = x^(a-b) y
            mult[m + a, m + b] = (a - b + half) % m       # (x^a y)(x^b y)
    # (x^a)^-1 = x^-a, and (x^a y)(x^(a+half) y) = 1
    inv = tuple(-a % m for a in range(m)) + tuple(
        m + (a + half) % m for a in range(m))
    return mult, inv


def _sl2_cells(p):
    """SL(2,p): the identity, then the other matrices (a, b, c, d) in
    lexicographic order."""
    mats = [(a, b, c, d) for a, b, c, d in itertools.product(range(p), repeat=4)
            if (a * d - b * c) % p == 1]
    ident = (1, 0, 0, 1)
    mats.remove(ident)
    mats = [ident] + sorted(mats)
    index = {mat: i for i, mat in enumerate(mats)}
    m = len(mats)
    mult = np.empty((m, m), dtype=np.int64)
    for i, (a, b, c, d) in enumerate(mats):
        for j, (e, f, g, h) in enumerate(mats):
            prod = ((a * e + b * g) % p, (a * f + b * h) % p,
                    (c * e + d * g) % p, (c * f + d * h) % p)
            mult[i, j] = index[prod]
    # [[a, b], [c, d]]^-1 = [[d, -b], [-c, a]]
    inv = tuple(index[(d, -b % p, -c % p, a)] for a, b, c, d in mats)
    return mult, inv


def _semidirect_cells(G, H, action):
    """G semidirect H: (g, h) is g |H| + h, and (g1, h1)(g2, h2) =
    (g1 phi_h1(g2), h1 h2) with phi_h = action[h]."""
    nG, nH = G.order, H.order
    mult = np.empty((nG * nH, nG * nH), dtype=np.int64)
    for g1, h1, g2, h2 in itertools.product(range(nG), range(nH),
                                            range(nG), range(nH)):
        mult[g1 * nH + h1, g2 * nH + h2] = (
            G.mul(g1, action[h1][g2]) * nH + H.mul(h1, h2))
    # (g, h)^-1 = (phi_(h^-1)(g^-1), h^-1)
    inv = tuple(action[H.inv[h]][G.inv[g]] * nH + H.inv[h]
                for g in range(nG) for h in range(nH))
    return mult, inv


def _power_action(m, n, r):
    """C_n acting on C_m, its generator by g -> r g; r^n must be 1 mod m."""
    return [[g * pow(r, h, m) % m for g in range(m)] for h in range(n)]


def _conjugation_action(G, t):
    """C2 acting on G, its generator by g -> t g t^-1; t must be an
    involution."""
    return [list(range(G.order)),
            [G.mul(G.mul(t, g), G.inv[t]) for g in range(G.order)]]


def _validate_table_reference(mult):
    """The table check as it was written on whole int64 arrays, kept as the
    reference the byte check is held to: the same checks in the same
    order, with the same messages."""
    mult = np.asarray(mult, dtype=np.int64)
    n = mult.shape[0]
    if mult.shape != (n, n):
        raise GroupFormatError("multiplication table is not square")
    if n == 0:
        raise GroupFormatError("empty table")
    if mult.min() < 0 or mult.max() >= n:
        bad = np.argwhere((mult < 0) | (mult >= n))[0]
        raise GroupFormatError(
            f"entry out of range at cell ({bad[0]}, {bad[1]})"
        )
    if not (np.array_equal(mult[0], np.arange(n))
            and np.array_equal(mult[:, 0], np.arange(n))):
        raise GroupFormatError("index 0 is not a two-sided identity")
    target = np.arange(n)
    for i in range(n):
        if not np.array_equal(np.sort(mult[i]), target):
            raise GroupFormatError(f"Latin square violated in row {i}")
        if not np.array_equal(np.sort(mult[:, i]), target):
            raise GroupFormatError(f"Latin square violated in column {i}")
    chunk = max(1, (1 << 22) // (n * n))
    for a0 in range(0, n, chunk):
        a1 = min(n, a0 + chunk)
        lhs = mult[mult[a0:a1], :]            # (a, b, c) -> (ab)c
        rhs = mult[a0:a1][:, mult]            # (a, b, c) -> a(bc)
        if not np.array_equal(lhs, rhs):
            bad = np.argwhere(lhs != rhs)[0]
            a, b, c = int(bad[0]) + a0, int(bad[1]), int(bad[2])
            raise GroupFormatError(
                f"associativity violated at triple ({a}, {b}, {c})"
            )


def _refusals(rows):
    """The messages the reference and ``FiniteGroup`` give a table as
    rows, None for a table accepted."""
    out = []
    for check in (_validate_table_reference, pd.FiniteGroup):
        try:
            check(rows)
            out.append(None)
        except GroupFormatError as e:
            out.append(str(e))
    return out


@pytest.fixture(scope="module")
def catalog32():
    return [group_for(e.name) for e in pd.catalog(32)]


# non-abelian groups beyond catalog(32), where conjugacy classes are larger
BEYOND32 = ("S5", "SL(2,5)")
# groups that are not nilpotent, with and without a perfect subgroup > 1
NOT_NILPOTENT = ("S4", "S4 x C2", "D6 x S3", "S5", "SL(2,5)", "C2 x SL(2,5)",
                 "S5 x C2")
# nilpotent groups that are not Hamiltonian, so some joins are closed
NILPOTENT = ("D4 x D4", "Q8 x Q8", "D4 x C3", "Q16 x C2")


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

    def test_cyclic_refuses_order_past_cap(self):
        # before its table is formed, also as a factor of an abelian group
        with pytest.raises(ResourceCapError):
            pd.make_cyclic(pd.ORDER_CAP + 1)
        with pytest.raises(ResourceCapError):
            pd.make_abelian([128, 10**6])
        # a table given directly is refused too: every index of a group
        # must fit a byte
        big = [[(a + b) % 257 for b in range(257)] for a in range(257)]
        with pytest.raises(ResourceCapError, match="order 257 exceeds"):
            pd.FiniteGroup(big, validate=False)

    def test_dihedral_and_quaternion_refuse_order_past_cap(self):
        # D200 has order 400 and Q512 order 512; D128 and Q256 are at the cap
        with pytest.raises(ResourceCapError, match="order 400 exceeds"):
            pd.make_dihedral(200)
        with pytest.raises(ResourceCapError, match="order 512 exceeds"):
            pd.make_generalized_quaternion(512)
        assert pd.make_dihedral(128).order == pd.ORDER_CAP
        assert pd.make_generalized_quaternion(256).order == pd.ORDER_CAP

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_symmetric_table_is_composition(self, n):
        # element i is the i-th permutation in lexicographic order, and the
        # product p*q maps k to p[q[k]]
        perms = np.array(list(itertools.permutations(range(n))))
        index = {tuple(p): i for i, p in enumerate(perms.tolist())}
        ref = np.array([[index[tuple(row)] for row in p[perms].tolist()]
                        for p in perms])
        G = pd.make_symmetric(n)
        assert np.array_equal(table_array(G), ref)
        assert G.inv == tuple(index[tuple(np.argsort(p).tolist())] for p in perms)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_sl2_table_matches_cells(self, p):
        mult, inv = _sl2_cells(p)
        G = pd.make_SL2(p)
        assert np.array_equal(table_array(G), mult)
        assert G.inv == inv

    def test_dihedral_table_matches_cells(self):
        for n in range(3, 129):
            mult, inv = _dihedral_cells(n)
            G = pd.make_dihedral(n)
            assert np.array_equal(table_array(G), mult), n
            assert G.inv == inv, n

    def test_quaternion_table_matches_cells(self):
        for order in (8, 16, 32, 64, 128, 256):
            mult, inv = _quaternion_cells(order)
            G = pd.make_generalized_quaternion(order)
            assert np.array_equal(table_array(G), mult), order
            assert G.inv == inv, order

    @pytest.mark.parametrize("G, H, action", [
        # C7 :2 C3, the Frobenius group of order 21
        ("C7", "C3", _power_action(7, 3, 2)),
        # C8 :3 C2, the semidihedral group SD16
        ("C8", "C2", _power_action(8, 2, 3)),
        # S3 by C2 acting as conjugation with the transposition (0 1),
        # index 2: a base that is not abelian
        ("S3", "C2", _conjugation_action(pd.make_symmetric(3), 2)),
        # one side, or both, gives the walk no generators
        ("C1", "C3", [[0]] * 3),
        ("C5", "C1", [list(range(5))]),
        ("C1", "C1", [[0]]),
    ], ids=["C7:2C3", "C8:3C2", "S3:C2", "C1:C3", "C5:C1", "C1:C1"])
    def test_semidirect_table_matches_cells(self, G, H, action):
        G, H = group_for(G), group_for(H)
        mult, inv = _semidirect_cells(G, H, action)
        P = pd.semidirect_product(G, H, action)
        assert np.array_equal(table_array(P), mult)
        assert P.inv == inv

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

    def test_subgroup_refuses_bits_past_its_group(self):
        # such a bit passes the identity and Lagrange checks, and C4 with
        # the bitset below would be faithful on 2 points, though mu(C4) = 4
        with pytest.raises(pd.DomainError, match="past the group"):
            Subgroup(pd.make_cyclic(4), 1 | 1 << 10)

    def test_direct_product_cap(self):
        with pytest.raises(ResourceCapError):
            pd.direct_product(pd.make_cyclic(20), pd.make_cyclic(20))

    def test_semidirect_inversion_is_dihedral(self):
        C5 = pd.make_cyclic(5)
        C2 = pd.make_cyclic(2)
        P = pd.semidirect_product(C5, C2, pd.inversion_action(C5, C2))
        assert are_isomorphic(P, pd.make_dihedral(5))

    @pytest.mark.parametrize("H", ["C4", "Ab(2,2)"])
    def test_inversion_action_refuses_order_above_2(self, H):
        # inverting by every non-identity element of H is a homomorphism
        # only for |H| <= 2: the square of C4's generator, and in Ab(2,2)
        # the product of two non-identity elements, must act as inversion
        # twice, the identity, yet would invert
        C5 = pd.make_cyclic(5)
        with pytest.raises(pd.DomainError, match="order at most 2"):
            pd.inversion_action(C5, group_for(H))

    def test_semidirect_trivial_action_is_direct_product(self):
        C3 = pd.make_cyclic(3)
        C4 = pd.make_cyclic(4)
        P = pd.semidirect_product(C3, C4, pd.trivial_action(C3, C4))
        assert np.array_equal(table_array(P),
                              table_array(pd.direct_product(C3, C4)))

    def test_semidirect_rejects_non_automorphism(self):
        C4 = pd.make_cyclic(4)
        C2 = pd.make_cyclic(2)
        bad = np.array([[0, 1, 2, 3], [0, 2, 1, 3]])  # not multiplicative
        with pytest.raises(InvalidActionError):
            pd.semidirect_product(C4, C2, bad)

    @pytest.mark.parametrize("image", [99, 4, -1])
    def test_semidirect_refuses_image_outside_g_naming_h(self, image):
        C4 = pd.make_cyclic(4)
        with pytest.raises(InvalidActionError, match="h=1 has an image outside G"):
            pd.semidirect_product(C4, pd.make_cyclic(2),
                                  [[0, 1, 2, 3], [0, 3, 2, image]])

    @pytest.mark.parametrize("G, H, action, message", [
        ("C4", "C2", [[0, 1, 2, 3]],
         "action must map each of 2 elements of H to a permutation of 4"),
        ("C4", "C2", [[0, 1, 2, 3], [0, 3, 2]],
         "action must map each of 2 elements of H to a permutation of 4"),
        ("C3", "C2", [[0, 2, 1], [0, 2, 1]],
         "action of the identity of H is not the identity map"),
        # every non-identity element of C4 inverting: 1 + 1 = 2 must then
        # act as the identity
        ("C5", "C4", [list(range(5))] + [[0, 4, 3, 2, 1]] * 3,
         "action is not a homomorphism at pair (1, 1)"),
    ], ids=["too-few-maps", "short-map", "identity-moves", "not-homomorphism"])
    def test_semidirect_refused_before_any_table(self, no_cayley_walk,
                                                 G, H, action, message):
        with pytest.raises(InvalidActionError, match=re.escape(message)):
            pd.semidirect_product(group_for(G), group_for(H), action)

    def test_tables_are_tuples_the_collector_drops(self):
        # the rows the hot paths read, and the conjugation tables, are
        # tuples of ints however the table was given, which the garbage
        # collector stops tracking, so stops walking: a collection drops
        # the rows, and the next one the tuples that hold them
        S4 = pd.make_symmetric(4)
        for G in (S4, pd.build(pd.parse_group_expr("D4 x C3")),
                  pd.FiniteGroup(table_array(S4)), pd.FiniteGroup(S4.mult),
                  pd.FiniteGroup(S4.table),
                  pd.from_multiplication_table([[0, 1], [1, 0]])):
            conj = G.conjugation_tables()
            for t in (G.table, conj):
                assert type(t) is tuple
                assert all(type(row) is tuple for row in t)
            gc.collect()
            gc.collect()
            assert not any(map(gc.is_tracked, (G.table, *G.table, conj, *conj)))
            assert G.table == tuple(map(tuple, G.mult.tolist()))


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

    def test_unvalidated_table_without_inverse_is_refused(self):
        # validate=False skips the Latin square check, but row 1 holds no
        # identity, so element 1 has no inverse
        with pytest.raises(GroupFormatError, match="element 1 has no unique inverse"):
            pd.FiniteGroup(np.array([[0, 1], [1, 1]]), validate=False)

    @pytest.mark.parametrize("table,axiom", [
        ([[0, 1], [1, 2]], "entry out of range"),
        ([[1, 0], [0, 1]], "index 0 is not a two-sided identity"),
        ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], "Latin square violated in row 1"),
        ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
          [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]], "associativity violated"),
    ])
    def test_constructor_validates_by_default(self, table, axiom):
        # every constructor in the package passes validate=False; a table
        # given to FiniteGroup with no flag is checked axiom by axiom
        with pytest.raises(GroupFormatError, match=axiom):
            pd.FiniteGroup(np.array(table))
        assert pd.FiniteGroup(pd.groups.cyclic_tables(5)[0]).order == 5

    @pytest.mark.parametrize("expr", ["S3", "Q8", "D6"])
    def test_single_cell_corruptions_refused_as_reference(self, expr):
        # every other value in every cell, including values outside
        # 0..n-1 that no byte holds
        rows = [list(row) for row in pd.build(pd.parse_group_expr(expr)).table]
        n = len(rows)
        assert _refusals(rows) == [None, None]
        for a, b in itertools.product(range(n), repeat=2):
            for v in range(-1, n + 1):
                if v != rows[a][b]:
                    bad = [list(row) for row in rows]
                    bad[a][b] = v
                    want, got = _refusals(bad)
                    assert want is not None and got == want, (a, b, v)
        assert (_refusals(rows + [[300] * n])
                == ["multiplication table is not square"] * 2)

    def test_order_256_swaps_refused_as_reference(self):
        G = pd.make_dihedral(128)
        rows = [list(row) for row in G.table]
        assert _refusals(rows) == [None, None]
        for (a, b), (c, d) in [((5, 7), (5, 200)), ((9, 3), (130, 3)),
                               ((17, 40), (250, 99))]:
            bad = [list(row) for row in rows]
            bad[a][b], bad[c][d] = bad[c][d], bad[a][b]
            want, got = _refusals(bad)
            assert want is not None and got == want
        # swapping the two values of an intercalate (cells (a, c), (a, d),
        # (b, c), (b, d) with ac = bd and ad = bc) keeps the Latin square
        # and the identity, so only associativity fails
        k = 128  # the involution s
        a = c = 1
        b, d = G.mul(a, k), G.mul(k, c)
        x, y = rows[a][c], rows[a][d]
        assert rows[b][d] == x and rows[b][c] == y
        for i, j in ((a, c), (b, d)):
            rows[i][j] = y
        for i, j in ((a, d), (b, c)):
            rows[i][j] = x
        want, got = _refusals(rows)
        assert want.startswith("associativity violated") and got == want

    @pytest.mark.parametrize("rows", [[[0, 1], [1]], [[0], [1, 0]], [[0, 1, 2]]])
    def test_ragged_rows_refused_as_not_square(self, rows):
        with pytest.raises(GroupFormatError, match="not square"):
            pd.FiniteGroup(rows)
        with pytest.raises(GroupFormatError, match="not square"):
            pd.FiniteGroup(rows, validate=False)
        with pytest.raises(GroupFormatError, match="not square"):
            pd.from_multiplication_table(rows)

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

    def test_subgroup_generated_bits_matches_numpy_closure(self, catalog32):
        for G in catalog32:
            n = G.order
            for g in range(n):
                for gens in ([g], [g, (5 * g + 3) % n], [g, g * g % n, n - 1]):
                    assert (G.subgroup_generated_bits(gens)
                            == _numpy_closure(G, gens)), (G.label, gens)

    def test_subgroup_generated_bits_matches_bfs(self, catalog64):
        # one closure extended a generator at a time, held to the
        # breadth-first orbit on random generator subsets, the identity
        # and repeats included
        rng = random.Random(25)
        for entry in catalog64:
            G = pd.build(entry.expr)
            for _ in range(6):
                gens = [rng.randrange(G.order) for _ in range(rng.randint(1, 4))]
                assert (G.subgroup_generated_bits(gens)
                        == _bfs_generated_bits(G, gens)), (entry.name, gens)

    def test_generators_match_greedy_reclosure(self, catalog64):
        # growing one closure picks the generators closing from scratch
        # after each one picked, and they generate G
        for entry in catalog64:
            G = pd.build(entry.expr)
            gens = G.generators()
            assert gens == _greedy_generators(G), entry.name
            assert _bfs_generated_bits(G, gens) == (1 << G.order) - 1, entry.name

    def test_generators_generate(self):
        for expr in ("C12", "D6", "Q8", "S4", "SL(2,3)"):
            G = group_for(expr)
            gens = G.generators()
            assert G.subgroup_generated_bits(gens) == (1 << G.order) - 1

    def test_nilpotent_iff_elements_of_coprime_order_commute(self, catalog64):
        # the Sylow count that is_nilpotent makes, held to the commuting test
        for entry in catalog64:
            G = pd.build(entry.expr)
            orders = np.array(G._element_orders())
            coprime = np.gcd.outer(orders, orders) == 1
            mult = table_array(G)
            commute = mult == mult.T
            assert is_nilpotent(G) == bool(np.all(commute | ~coprime)), \
                entry.name


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
        # join searches a conjugacy class or is closed through coset masks
        # of the subgroup joined, abelian or not.  A closure step multiplies
        # what the join last added, which never holds the identity; every
        # other product set the enumeration forms is S<z>, which does
        real = pd.groups._times

        def no_class_search(*args):
            raise AssertionError("conjugacy class searched")

        def no_closure(table, x, elems, masks):
            assert x & 1, "join closed"
            return real(table, x, elems, masks)

        monkeypatch.setattr(pd.groups, "_conjugacy_class", no_class_search)
        monkeypatch.setattr(pd.groups, "_times", no_closure)
        for expr in ("Q8", "Q8 x C2", "Ab(2,2,2) x Q8"):
            lat = pd.build(pd.parse_group_expr(expr)).lattice()
            assert all(lat.normal_flags), expr

    def test_nilpotent_joins_need_no_closure(self, monkeypatch):
        # every upper cover T of S in a nilpotent group is the product set
        # S<z>, of prime index over S, for a z in T that normalizes S, so
        # the joins the enumeration closes there never reach a cover: they
        # are closed only to settle flags, as in any group.  S4 is not
        # nilpotent: the two S3 above <t>, t a transposition, are joins of
        # <t> with transpositions that do not normalize it, closed through
        # coset masks of <t>.  A closure step is a product set of what the
        # join last added, which never holds the identity
        real = pd.groups._times
        calls = []

        def recording(table, x, elems, masks):
            if not x & 1:
                calls.append(elems)
            return real(table, x, elems, masks)

        monkeypatch.setattr(pd.groups, "_times", recording)
        for expr in ("D4 x D4", "Q8 x Q8", "D4 x C3", "S4"):
            calls.clear()
            G = pd.build(pd.parse_group_expr(expr))
            table, inv = G.table, G.inv
            lat = G.lattice()

            def normalizing_product(S, T):
                return any(
                    all((S.bits >> table[table[inv[z]][s]][z]) & 1
                        for s in S.elements())
                    and G.product_set_bits(
                        S.bits, G.subgroup_generated_bits([z])) == T.bits
                    for z in T.elements())

            every_cover = all(
                prime_factors(T.order // S.order) == [T.order // S.order]
                and normalizing_product(S, T)
                for i, S in enumerate(lat.subgroups)
                for T in map(lat.subgroups.__getitem__,
                             lat.minimal_strict_supergroups(i)))
            assert every_cover == (expr != "S4"), expr
            if expr == "S4":
                assert calls, expr

    def test_zuppo_masks_and_classes_match_reference(self, catalog32):
        # the coset masks of each zuppo <z>, formed as a product set reads
        # them, against the cosets {a z^i} listed element by element; and
        # the class search, which lists each member once and conjugates it
        # through G.conjugation_tables(), against conjugation by every
        # element
        for G in ([G for G in catalog32 if not G.is_abelian()]
                  + [group_for("D4 x D4"), group_for("S5")]):
            zuppo, zmask = _zuppos(G)
            full, mult = (1 << G.order) - 1, table_array(G)
            for z, k in enumerate(G._element_orders()):
                is_zuppo = len(prime_factors(k)) == 1
                assert (zuppo[z] is not None) == is_zuppo == bool((zmask >> z) & 1)
                if not is_zuppo:
                    continue
                gens, below, powers, masks, _ = zuppo[z]
                p = prime_factors(k)[0]
                # the powers of the generator of <z> listed first
                assert powers == [G.power(powers[1], i) for i in range(k)]
                assert list_to_bits(powers) == G.subgroup_generated_bits([z])
                assert (gens >> z) & 1 and below == list_to_bits(powers[::p]), G.label
                # a product set with all of G reads, so forms, every mask
                assert _times(G.table, full, powers, masks) == full
                assert masks == [list_to_bits(mult[a, powers].tolist())
                                 for a in range(G.order)], (G.label, z)
            for H in G.lattice().subgroups:
                cls = _conjugacy_class(G, H.bits)
                assert cls[0] == H.bits and len(set(cls)) == len(cls), G.label
                assert set(cls) == _conjugates_by_every_element(G, H), G.label

    def test_s4_subgroup_count(self):
        assert len(group_for("S4").lattice()) == 30

    def test_perfect_group_subgroup_counts(self):
        # S5 and SL(2,5) each have a perfect subgroup (A5 and SL(2,5)
        # itself) that no join with an element normalizing the subgroup
        # joined reaches
        for expr, count in (("S5", 156), ("SL(2,5)", 76)):
            assert len(group_for(expr).lattice()) == count, expr

    @pytest.mark.parametrize("expr", NOT_NILPOTENT + NILPOTENT)
    def test_flags_are_at_most_one_upper_cover(self, expr):
        # a join that does not normalize S is closed only while it can
        # still change S's flag, in every group; the flags must still say
        # "at most one upper cover", counted by the lattice's own scan
        lat = group_for(expr).lattice()
        assert lat.meet_irreducible_flags() == [
            len(lat.minimal_strict_supergroups(i)) <= 1
            for i in range(len(lat))]

    def test_perfect_residual(self):
        # the last term of the derived series, with elements generating it;
        # S4 x C2 (order 2^4 3) is solvable by Burnside's theorem with no
        # series formed, and D15 (order 2 3 5) by its series
        for expr, order in (("S5", 60), ("SL(2,5)", 120),
                            ("C2 x SL(2,5)", 120), ("S5 x C2", 60),
                            ("S4 x C2", 1), ("D15", 1)):
            G = group_for(expr)
            bits, gens = perfect_residual(G)
            assert bits.bit_count() == order, expr
            assert G.subgroup_generated_bits(gens) == bits, expr
            assert Subgroup(G, bits).is_normal(), expr

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

    def test_closure_by_generation_matches_product_set_to_order_8(self):
        # every subset, the empty one and those without the identity
        # included, plus a few with bits beyond the group
        for e in pd.catalog(8):
            G = group_for(e.name)
            n = G.order
            for b in range(1 << n):
                assert G.is_closed_bits(b) == (
                    G.product_set_bits(b, b) == b), (e.name, b)
            for b in (1 << n, (1 << n) | 1, (1 << (n + 1)) - 1):
                assert not G.is_closed_bits(b), (e.name, b)

    def test_closure_by_generation_matches_product_set(self, catalog32):
        # every lattice member, each with one element added and one taken
        # away, unions of two members, and random subsets holding 1
        rng = random.Random(20)
        for G in catalog32:
            n = G.order
            subs = G.lattice().bits
            cases = list(subs)
            for b in subs:
                x = rng.randrange(n)
                cases += [b | (1 << x), b & ~(1 << x) | 1]
            cases += [rng.choice(subs) | rng.choice(subs) for _ in range(20)]
            cases += [rng.getrandbits(n) | 1 for _ in range(20)]
            for b in cases:
                assert G.is_closed_bits(b) == (
                    G.product_set_bits(b, b) == b), (G.label, b)
            assert all(G.is_closed_bits(b) for b in subs), G.label

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
        # the lattice indexes the minimal normals that minimal_normals finds
        # without it, and the socle is generated by their union
        for G in catalog32 + [group_for(e)
                              for e in BEYOND32 + ("Ab(2,2,2,2) x Q8",)]:
            lat = G.lattice()
            naive = _naive_minimal_normals(lat)
            assert lat.minimal_normals == naive, G.label
            union = [x for i in naive for x in lat.subgroups[i].elements()]
            assert pd.socle(G).bits == _numpy_closure(G, union), G.label

    def test_minimal_normals_match_naive_to_order_128(self):
        # minimal_normals builds no lattice; it is held to the naive list
        # on every non-abelian group of catalog(128), including those
        # whose closures of large classes are not minimal (S5, SL(2,5))
        for e in pd.catalog(128):
            if "abelian" in e.tags:
                continue
            G = pd.build(e.expr)
            mins = pd.minimal_normals(G)
            assert G._lattice is None, e.name
            lat = G.lattice()
            assert mins == [lat.subgroups[i].bits
                            for i in _naive_minimal_normals(lat)], e.name

    def test_flags_and_covers_match_naive_joins(self, catalog32):
        # the enumeration skips zuppos whose join it already has, and it
        # gives a class representative's flag to the rest of its class; a
        # join lost, or a flag misplaced, shows here even where the catalog
        # answers agree.  The joins of S contain all its upper covers and
        # each contains one, so the covers are the minimal joins, found
        # here without the lattice's own scan.  The split metacyclic groups
        # outside the catalog (F20, F42, SD16, ...) have maximal subgroups
        # that are not normal
        for G in (catalog32
                  + [group_for(e) for e in BEYOND32 + ("S4 x C2", "D6 x S3")]
                  + [split_metacyclic(*p) for p in BEYOND_CATALOG.values()]):
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
        flags = lat.meet_irreducible_flags()
        assert not flags[lat.subgroup_index(pd.center(G))]
        assert flags[lat.subgroup_index(G.trivial_subgroup())]
        assert sum(flags) == 5

    def test_v4_trivial_is_meet_reducible(self):
        G = group_for("Ab(2,2)")
        lat = G.lattice()
        i = lat.subgroup_index(G.trivial_subgroup())
        assert not lat.meet_irreducible_flags()[i]

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

    @pytest.mark.parametrize("expr", ["Ab(2,2,2,2,2,2)", "C12"])
    def test_abelian_group_finds_no_generators(self, expr):
        # conjugation is trivial in an abelian group, so it has no
        # conjugation tables, and cores, normality, minimal normals, the
        # CS test and the solve need no generators
        G = pd.build(pd.parse_group_expr(expr))
        pd.mu_exact(G)
        assert pd.is_CS(G)
        orders = G._element_orders()
        assert set(pd.minimal_normals(G)) == {
            G.subgroup_generated_bits([x]) for x in range(1, G.order)
            if prime_factors(orders[x]) == [orders[x]]}
        for gens in ([], [1], [1, 2], [3, 5, 6]):
            H = G.subgroup(G.subgroup_generated_bits(gens))
            assert pd.core(G, H) == H and H.is_normal()
        assert G._gens is None
        assert G.conjugation_tables() == ()
        assert G._gens is None

    def test_center_is_elements_whose_row_equals_column(self):
        # each group is built fresh, so the first call computes the centre,
        # and the second returns the subgroup it stored
        for e in pd.catalog(32):
            G = pd.build(pd.parse_group_expr(e.name))
            mult = table_array(G)
            zs = [z for z in range(G.order)
                  if np.array_equal(mult[z], mult[:, z])]
            Z = pd.center(G)
            assert Z.bits == list_to_bits(zs), G.label
            assert pd.center(G) is Z, G.label

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
            monkeypatch.setattr(G, "conjugation_tables", no_conjugation)
            minimal = [lat.subgroups[i].bits for i in lat.minimal_normals]
            masks = [sum(1 << k for k, nb in enumerate(minimal)
                         if (cb | nb) != cb) for cb in cores]
            assert lattice_covers(lat) == masks, expr
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

    def test_is_cs_and_socle_build_no_lattice(self):
        # Ab(2^5) x D4 has more subgroups than the lattice budget, but its
        # minimal normals are the 63 subgroups of order 2 of its centre
        # Ab(2^5) x C2, so its socle is that centre, of order 64
        G = pd.build(pd.parse_group_expr("Ab(2,2,2,2,2) x D4"))
        assert pd.is_CS(G)
        assert len(pd.minimal_normals(G)) == 63
        assert pd.socle(G).order == 64
        assert G._lattice is None

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

    def test_abelian_basis_refuses_a_non_abelian_group(self):
        with pytest.raises(DomainError):
            pd.abelian_basis(group_for("S3"))

    @pytest.mark.parametrize("expr", ["C12", "Ab(4,2)", "Ab(2,2,2)", "Ab(9,3)",
                                      "Ab(8,4,2)", "Ab(2,2) x C9 x C5"])
    def test_positions_are_mixed_radix_digits(self, expr):
        # the element at position j is the sum of d_i b_i over the digits
        # d_i of j, the first basis element the least significant
        G = group_for(expr)
        basis, elems = abelian_positions(G)
        assert sorted(elems) == list(range(G.order))
        for j, x in enumerate(elems):
            y = 0
            for b, o in basis:
                j, d = divmod(j, o)
                y = G.mul(y, G.power(b, d))
            assert y == x, (expr, x)

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

    def test_subgroup_as_group_refuses_an_unclosed_subset(self):
        # {1, r} in D4: r * r = r^2 lies outside
        G = group_for("D4")
        with pytest.raises(pd.DomainError, match="not closed"):
            pd.subgroup_as_group(Subgroup(G, 0b11))


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
