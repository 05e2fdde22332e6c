"""Finite groups as explicit multiplication tables, plus the structural
machinery (subgroup lattice, the top of a nilpotent group's lattice, cores,
minimal normals, socle, abelian coordinates and character kernels) that the
degree solver consumes.

Conventions fixed across the package:
  * elements are indices 0..n-1, identity is always index 0;
  * a subgroup is stored as an n-bit Python int (bit i set <=> element i in H);
  * direct-product element index is g * |H| + h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    GroupFormatError,
    InternalInvariantError,
    InvalidActionError,
    ResourceCapError,
)

# every representation lives inside the multiplication table, and the
# regular one has degree |G|, so no group larger than this is built
ORDER_CAP = 256
# a lattice with more subgroups than this raises ResourceCapError instead of
# running for minutes (Ab(2^8), order 256, has 417,199)
LATTICE_SUBGROUP_CAP = 50_000
# BITS[i] == 1 << i as Python ints, so indexing it with an array of
# elements gives their bits and summing those gives a bitset
BITS = np.array([1 << i for i in range(ORDER_CAP)], dtype=object)
# the same as a list, for sums over map()
_BIT = BITS.tolist()


def bits_to_list(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def list_to_bits(indices: Iterable[int]) -> int:
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


def check_order(n: int) -> None:
    """Refuse an order above ``ORDER_CAP`` before its table is allocated."""
    if n > ORDER_CAP:
        raise ResourceCapError(f"order {n} exceeds cap {ORDER_CAP}")


class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``mult[a, b]`` is the index of the product a*b, ``inv[a]`` the inverse.
    The hot paths read ``table``, the same products as plain lists
    (``table[a][b]``), because indexing a list of ints is much faster than
    indexing a numpy array one element at a time.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, mult: np.ndarray, label: str = "G", validate: bool = True):
        mult = np.asarray(mult, dtype=np.int64)
        self.order = int(mult.shape[0])
        self.mult = mult
        self.mult.setflags(write=False)
        self.label = label
        if validate:
            _validate_table(mult)
        self.table: list[list[int]] = mult.tolist()
        # inverse table: table[a][inv[a]] == 0
        rows, cols = np.nonzero(mult == 0)
        if rows.tolist() != list(range(self.order)):
            a = np.flatnonzero(np.bincount(rows, minlength=self.order) != 1)[0]
            raise GroupFormatError(f"element {a} has no unique inverse")
        self.inv: tuple[int, ...] = tuple(cols.tolist())
        self._lattice: Optional[SubgroupLattice] = None
        self._mu = None  # the SolveResult solver.mu_exact stores here
        self._gens: Optional[list[int]] = None
        self._orders: Optional[list[int]] = None
        self._abelian: Optional[bool] = None
        self._minimal_normals: Optional[list[int]] = None
        self._conj: Optional[list[list[int]]] = None

    # -- basic arithmetic -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def power(self, a: int, k: int) -> int:
        k %= self.element_order(a)
        out = 0
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def element_order(self, a: int) -> int:
        orders = self._element_orders()
        return orders[a]

    def _element_orders(self) -> list[int]:
        if self._orders is None:
            # one walk around <a> gives the order of each of its elements:
            # a^j has order k / gcd(j, k)
            table = self.table
            orders = [0] * self.order
            orders[0] = 1
            for a in range(1, self.order):
                if orders[a]:
                    continue
                powers = [0]
                x = a
                while x:
                    powers.append(x)
                    x = table[x][a]
                k = len(powers)
                for j, y in enumerate(powers):
                    orders[y] = k // math.gcd(j, k)
            self._orders = orders
        return self._orders

    def order_profile(self) -> dict[int, int]:
        """Histogram {element order: count}; an isomorphism invariant."""
        prof: dict[int, int] = {}
        for o in self._element_orders():
            prof[o] = prof.get(o, 0) + 1
        return prof

    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = bool(np.array_equal(self.mult, self.mult.T))
        return self._abelian

    # -- generation -------------------------------------------------------

    def generators(self) -> list[int]:
        """A small generating set, found greedily (largest element order first)."""
        if self._gens is None:
            gens: list[int] = []
            bits = 1
            order_of = self._element_orders()
            by_order = sorted(range(1, self.order), key=lambda a: -order_of[a])
            for a in by_order:
                if not (bits >> a) & 1:
                    gens.append(a)
                    bits = self.subgroup_generated_bits(gens)
                    if bits == (1 << self.order) - 1:
                        break
            self._gens = gens
        return self._gens

    def subgroup_generated_bits(self, gens: Sequence[int]) -> int:
        """Bitset of the subgroup generated by ``gens`` (orbit closure)."""
        gl = [g for g in gens if g != 0]
        member = 1
        elems = [0]
        table = self.table
        for x in elems:  # the list grows while it is scanned
            row = table[x]
            for g in gl:
                y = row[g]
                if not (member >> y) & 1:
                    member |= 1 << y
                    elems.append(y)
        return member

    def product_set_bits(self, abits: int, bbits: int) -> int:
        """Bitset of the product set A*B (a subgroup when G is abelian)."""
        belems = bits_to_list(bbits)
        out = 0
        for a in bits_to_list(abits):
            row = self.table[a]
            for b in belems:
                out |= 1 << row[b]
        return out

    def is_closed_bits(self, bits: int) -> bool:
        """Whether the subset ``bits`` is closed under the product, as
        ``product_set_bits(bits, bits) == bits`` says, with no product set.

        A nonempty closed subset holds the identity.  One that holds it is
        generated greedily from its own elements: the lowest element not
        yet generated joins the generators, the closure is extended, and
        the test fails as soon as a product leaves the subset.  Each
        generated element meets each generator once, and each generator at
        least doubles the closure, so that is at most |H| log2 |H| table
        lookups, where the product set takes |H|^2.
        """
        if not bits & 1 or bits >> self.order:
            return bits == 0
        member, elems, gens = 1, [0], []
        rest = bits ^ 1
        while rest:
            member = _generate_inside(self.table, bits, member, elems, gens,
                                      (rest & -rest).bit_length() - 1)
            if not member:
                return False
            rest = bits & ~member
        return True

    def conjugation_tables(self) -> list[list[int]]:
        """For each of ``generators()``, the list of ``1 << (g x g^-1)``
        over all x, built on first use with one array index.  The
        conjugate of a subgroup by g is the sum of its elements' entries."""
        if self._conj is None:
            gens = np.array(self.generators(), dtype=np.int64)
            inv = np.array([self.inv[g] for g in gens], dtype=np.int64)
            self._conj = BITS[self.mult[self.mult[gens], inv[:, None]]].tolist()
        return self._conj

    # -- conversions ------------------------------------------------------

    def subgroup(self, bits: int) -> "Subgroup":
        return Subgroup(self, bits)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, 1)

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, (1 << self.order) - 1)

    def lattice(self) -> "SubgroupLattice":
        if self._lattice is None:
            self._lattice = SubgroupLattice(self)
        return self._lattice

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"


def _generate_inside(table: list[list[int]], allowed: int, member: int,
                     elems: list[int], gens: list[int], g: int) -> int:
    """Extend the subgroup ``member`` (listed in ``elems``, generated by
    ``gens``) by the generator g, appending to ``elems`` and ``gens``.
    Returns the bitset of the larger subgroup, or 0 as soon as an element
    outside ``allowed`` is generated."""
    gens.append(g)
    # the old elements are closed under the old generators, so they meet
    # only g; the new ones meet every generator
    old = len(elems)
    for x in elems[:old]:
        y = table[x][g]
        if not (member >> y) & 1:
            if not (allowed >> y) & 1:
                return 0
            member |= 1 << y
            elems.append(y)
    i = old
    while i < len(elems):  # the list grows while it is scanned
        row = table[elems[i]]
        i += 1
        for h in gens:
            y = row[h]
            if not (member >> y) & 1:
                if not (allowed >> y) & 1:
                    return 0
                member |= 1 << y
                elems.append(y)
    return member


def _extend(table: list[list[int]], member: int, elems: list[int],
            gens: list[int], bits: int) -> int:
    """Extend the subgroup ``member`` (listed in ``elems``, generated by
    ``gens``) to the subgroup it generates with the elements of ``bits``,
    taking the lowest one not yet generated as the next generator."""
    rest = bits & ~member
    while rest:
        member = _generate_inside(table, -1, member, elems, gens,
                                  (rest & -rest).bit_length() - 1)
        rest &= ~member
    return member


def _validate_table(mult: np.ndarray) -> None:
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
    # identity at 0
    if not (np.array_equal(mult[0], np.arange(n)) and np.array_equal(mult[:, 0], np.arange(n))):
        raise GroupFormatError("index 0 is not a two-sided identity")
    # Latin square
    target = np.arange(n)
    for i in range(n):
        if not np.array_equal(np.sort(mult[i]), target):
            raise GroupFormatError(f"Latin square violated in row {i}")
        if not np.array_equal(np.sort(mult[:, i]), target):
            raise GroupFormatError(f"Latin square violated in column {i}")
    # associativity, chunked to bound memory
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


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` stored as a membership bitset."""

    parent: FiniteGroup
    bits: int

    def __post_init__(self):
        if not self.bits & 1:
            raise DomainError("subgroup bitset must contain the identity (bit 0)")
        if self.parent.order % self.order != 0:
            raise InternalInvariantError(
                f"Lagrange violated: |H|={self.order} does not divide |G|={self.parent.order}"
            )

    @property
    def order(self) -> int:
        return self.bits.bit_count()

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def elements(self) -> list[int]:
        return bits_to_list(self.bits)

    def __contains__(self, x: int) -> bool:
        return bool((self.bits >> x) & 1)

    def is_trivial(self) -> bool:
        return self.bits == 1

    def is_full(self) -> bool:
        return self.order == self.parent.order

    def is_closed(self) -> bool:
        """Whether the bitset is closed under the product, by generation
        (``FiniteGroup.is_closed_bits``).  Construction checked bit 0 and
        Lagrange, but not closure: this is the test that makes it a
        subgroup."""
        return self.parent.is_closed_bits(self.bits)

    def is_normal(self) -> bool:
        G = self.parent
        if G.is_abelian():
            return True
        elems = self.elements()
        return all(sum(map(t.__getitem__, elems)) == self.bits
                   for t in G.conjugation_tables())

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.label})"


# -- constructors ---------------------------------------------------------


def make_cyclic(n: int) -> FiniteGroup:
    """The cyclic group Z_n with element i standing for the residue i."""
    return FiniteGroup(cyclic_table(n), label=f"C{n}", validate=False)


def cyclic_table(n: int) -> np.ndarray:
    """The table of ``make_cyclic(n)``, with no group built."""
    if n < 1:
        raise DomainError("cyclic group order must be >= 1")
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def make_abelian(factors: Sequence[int]) -> FiniteGroup:
    """Direct product of cyclic groups over ``factors`` (empty -> trivial).

    Only the result becomes a group; its table is ``abelian_table``'s.
    """
    if not factors:
        return make_cyclic(1)
    label = "Ab(" + ",".join(str(f) for f in factors) + ")"
    return FiniteGroup(abelian_table(factors), label=label, validate=False)


def abelian_table(factors: Sequence[int]) -> np.ndarray:
    """The table of ``make_abelian(factors)`` for nonempty ``factors``,
    with no group built: the cyclic tables are folded as arrays by
    ``product_table``, the index arithmetic of ``direct_product``."""
    for f in factors:
        if f < 2:
            raise DomainError("abelian factors must each be >= 2")
    mult = cyclic_table(factors[0])
    for f in factors[1:]:
        check_order(len(mult) * f)
        mult = product_table(mult, cyclic_table(f))
    return mult


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: indices 0..n-1 are r^i, n..2n-1 are s r^i.

    The table is formed by array index arithmetic, one quadrant per pair of
    cosets: r^a r^b = r^(a+b), r^a (s r^b) = s r^(b-a), (s r^a) r^b =
    s r^(a+b) and (s r^a)(s r^b) = r^(b-a).  The indexing is unchanged by
    that, as for every constructor here: cached witnesses and the golden
    subgroup digests are bitsets over these indices.
    """
    if n < 3:
        raise DomainError("dihedral parameter must be >= 3")
    r = np.arange(n)
    add = (r[:, None] + r[None, :]) % n     # [a, b] -> a + b
    sub = (r[None, :] - r[:, None]) % n     # [a, b] -> b - a
    mult = np.block([[add, n + sub], [n + add, sub]])
    return FiniteGroup(mult, label=f"D{n}", validate=False)


def make_generalized_quaternion(order: int) -> FiniteGroup:
    """Generalized quaternion group Q_{2^k}; indices 0..m-1 are x^a, m..2m-1 are x^a y.

    The table is formed by array index arithmetic, one quadrant per pair of
    cosets: x^a x^b = x^(a+b), x^a (x^b y) = x^(a+b) y, (x^a y) x^b =
    x^(a-b) y and (x^a y)(x^b y) = x^(a-b+m/2), exponents mod m.  The
    indexing is unchanged by that (see ``make_dihedral``).
    """
    if order < 8 or order & (order - 1):
        raise DomainError("generalized quaternion order must be a power of two >= 8")
    m = order // 2
    r = np.arange(m)
    add = (r[:, None] + r[None, :]) % m     # [a, b] -> a + b
    sub = (r[:, None] - r[None, :]) % m     # [a, b] -> a - b
    mult = np.block([[add, m + add], [m + sub, (sub + m // 2) % m]])
    return FiniteGroup(mult, label=f"Q{order}", validate=False)


def make_symmetric(n: int) -> FiniteGroup:
    """S_n on permutation tuples in lexicographic order (identity first).

    The product p q maps k to p[q[k]].  The table is formed by array index
    arithmetic: ``index`` is an n-dimensional array that holds, at the
    entries of each permutation, its position, and row p of the table is
    ``index`` read at p[q] for all q at once.  The indexing is unchanged by
    that (see ``make_dihedral``).
    """
    if not 1 <= n <= 5:
        raise DomainError("symmetric group parameter must be in 1..5")
    import itertools

    perms = np.array(list(itertools.permutations(range(n))))
    index = np.zeros((n,) * n, dtype=np.int64)
    index[tuple(perms.T)] = np.arange(len(perms))
    mult = np.empty((len(perms), len(perms)), dtype=np.int64)
    for i, p in enumerate(perms):
        mult[i] = index[tuple(p[perms].T)]
    return FiniteGroup(mult, label=f"S{n}", validate=False)


def make_SL2(p: int) -> FiniteGroup:
    """SL(2,p): determinant-1 matrices over GF(p), identity matrix first.

    The matrices (a, b, c, d) = [[a, b], [c, d]] follow the identity in
    lexicographic order.  The table is formed by array index arithmetic: a
    matrix is looked up by its base-p code ((a p + b) p + c) p + d, and
    each entry of the products of all pairs at once is a sum of two outer
    products of entry vectors.  The indexing is unchanged by that (see
    ``make_dihedral``).
    """
    if p not in (2, 3, 5):
        raise DomainError("SL(2,p) supported only for p in {2, 3, 5}")
    # every (a, b, c, d), in lexicographic order, so by ascending code
    a, b, c, d = np.indices((p, p, p, p)).reshape(4, -1)
    codes = np.flatnonzero((a * d - b * c) % p == 1)
    ident = p ** 3 + 1
    codes = np.concatenate(([ident], codes[codes != ident]))
    a, b, c, d = a[codes], b[codes], c[codes], d[codes]
    index = np.zeros(p ** 4, dtype=np.int64)
    index[codes] = np.arange(len(codes))
    # [[a, b], [c, d]] [[e, f], [g, h]] = [[ae + bg, af + bh], [ce + dg, cf + dh]],
    # and the code takes the four entries in row-major order
    product_code = 0
    for x, y in ((a, b), (c, d)):          # a row of the left factor
        for e, g in ((a, c), (b, d)):      # a column of the right factor
            entry = (np.multiply.outer(x, e) + np.multiply.outer(y, g)) % p
            product_code = product_code * p + entry
    return FiniteGroup(index[product_code], label=f"SL(2,{p})", validate=False)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """G x H with pair index g*|H| + h."""
    check_order(G.order * H.order)
    return FiniteGroup(product_table(G.mult, H.mult),
                       label=f"{G.label} x {H.label}", validate=False)


def product_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The table of G x H from the tables ``a`` of G and ``b`` of H."""
    na, nb = len(a), len(b)
    return (a[:, None, :, None] * nb + b[None, :, None, :]).reshape(na * nb, na * nb)


def semidirect_product(G: FiniteGroup, H: FiniteGroup,
                       action: Sequence[Sequence[int]]) -> FiniteGroup:
    """G semidirect H for ``action[h]`` = the automorphism of G applied by h.

    Multiplication: (g1,h1)(g2,h2) = (g1 * action[h1](g2), h1 h2).
    The action is verified to be a homomorphism H -> Aut(G) before building.
    """
    check_order(G.order * H.order)
    act = np.asarray(action, dtype=np.int64)
    if act.shape != (H.order, G.order):
        raise InvalidActionError(
            f"action must map each of {H.order} elements of H to a permutation of {G.order}"
        )
    if not np.array_equal(act[0], np.arange(G.order)):
        raise InvalidActionError("action of the identity of H is not the identity map")
    for h in range(H.order):
        phi = act[h]
        if len(set(phi.tolist())) != G.order:
            raise InvalidActionError(f"action of h={h} is not a bijection")
        if not np.array_equal(phi[G.mult], G.mult[np.ix_(phi, phi)]):
            raise InvalidActionError(f"action of h={h} does not preserve multiplication")
    for h1 in range(H.order):
        for h2 in range(H.order):
            if not np.array_equal(act[H.mul(h1, h2)], act[h1][act[h2]]):
                raise InvalidActionError(
                    f"action is not a homomorphism at pair ({h1}, {h2})"
                )
    nH = H.order
    n = G.order * nH
    mult = np.empty((n, n), dtype=np.int64)
    for g1 in range(G.order):
        for h1 in range(nH):
            row = G.mult[g1][act[h1]]                  # g1 * phi_h1(g2), indexed by g2
            mult[g1 * nH + h1] = (row[:, None] * nH + H.mult[h1][None, :]).reshape(-1)
    return FiniteGroup(mult, label=f"{G.label} : {H.label}", validate=False)


def trivial_action(G: FiniteGroup, H: FiniteGroup) -> np.ndarray:
    return np.tile(np.arange(G.order), (H.order, 1))


def inversion_action(G: FiniteGroup, H: FiniteGroup) -> np.ndarray:
    """Order-2 generators of H act by g -> g^-1 (G must be abelian)."""
    if not G.is_abelian():
        raise DomainError("inversion action requires an abelian base group")
    act = np.empty((H.order, G.order), dtype=np.int64)
    for h in range(H.order):
        act[h] = np.arange(G.order) if H.element_order(h) == 1 else G.inv
    return act


def from_multiplication_table(table: Sequence[Sequence[int]],
                              label: str = "table") -> FiniteGroup:
    """Validate an n x n grid as a group table, relabeling the identity to 0."""
    arr = np.asarray(table, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise GroupFormatError("table is not square")
    n = arr.shape[0]
    if arr.min() < 0 or arr.max() >= n:
        bad = np.argwhere((arr < 0) | (arr >= n))[0]
        raise GroupFormatError(f"entry out of range at cell ({bad[0]}, {bad[1]})")
    ident = None
    rng = np.arange(n)
    for e in range(n):
        if np.array_equal(arr[e], rng) and np.array_equal(arr[:, e], rng):
            ident = e
            break
    if ident is None:
        raise GroupFormatError("no two-sided identity element found")
    if ident != 0:
        # swap labels 0 <-> ident
        relabel = rng.copy()
        relabel[0], relabel[ident] = ident, 0
        arr = relabel[arr][np.ix_(relabel, relabel)]
    _validate_table(arr)
    return FiniteGroup(arr, label=label, validate=False)


def load_table_file(path: str) -> FiniteGroup:
    """Read the table file format: first line n, then n rows of n integers.

    '#' starts a comment; the file is UTF-8.  An order above ``ORDER_CAP``
    is refused before any row is parsed.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [line.split("#", 1)[0].strip() for line in fh]
    lines = [line for line in lines if line]
    if not lines:
        raise GroupFormatError("table file contains no data")
    try:
        n = int(lines[0])
        check_order(n)
        rows = [[int(tok) for tok in line.split()] for line in lines[1:]]
    except ValueError as e:
        raise GroupFormatError(f"table entry is not an integer ({e})") from None
    if len(rows) != n or any(len(r) != n for r in rows):
        raise GroupFormatError(f"expected {n} rows of {n} entries")
    return from_multiplication_table(rows, label=f"table:{path}")


# -- structural operations ------------------------------------------------


def center(G: FiniteGroup) -> Subgroup:
    """The subgroup of elements commuting with everything.  An element
    commutes with everything iff it commutes with each of
    ``G.generators()``, so each element is tested against those alone.
    An abelian group is its own centre, with no generators found."""
    if G.is_abelian():
        return G.full_subgroup()
    table = G.table
    gens = G.generators()
    zs = [z for z, row in enumerate(table)
          if all(row[g] == table[g][z] for g in gens)]
    return Subgroup(G, list_to_bits(zs))


def core(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """Largest normal subgroup of G inside H: the intersection of all conjugates.

    The conjugates are H's conjugacy class, found by the class search the
    lattice enumeration also uses (``_conjugacy_class``), so each distinct
    conjugate is formed once per generator instead of once per group
    element.  Nothing is memoized.  The set-cover search does not call
    this: its universe is the minimal normal subgroups, and a normal N lies
    in core(H) iff it lies in H (see ``solver.cover_sets``).  Faithfulness
    checks do, once per witness, on the intersection of its parts:
    ``solver.kernel_bits`` on the witness ``_branch_and_bound`` returns,
    and ``cli._witness_problem`` on the witness of a ``batch`` cache hit,
    which skips it when the intersection is already trivial.
    """
    if H.parent is not G:
        raise DomainError("subgroup does not belong to this group")
    if G.is_abelian():
        return H
    return Subgroup(G, reduce(int.__and__, _conjugacy_class(G, H.bits)))


def _conjugacy_class(G: FiniteGroup, bits: int) -> list[int]:
    """The conjugacy class of the subgroup ``bits``, ``bits`` first, found
    by breadth-first search under ``G.generators()``.  Each member is
    listed once, and each conjugate is the sum of its entries in one of
    ``G.conjugation_tables()``."""
    members = [bits]
    seen = {bits}
    tables = G.conjugation_tables()
    for P in members:  # the list grows while it is scanned
        elems = bits_to_list(P)
        for t in tables:
            K = sum(map(t.__getitem__, elems))
            if K not in seen:
                seen.add(K)
                members.append(K)
    return members


def minimal_normals(G: FiniteGroup) -> list[int]:
    """Bitsets of the minimal normal subgroups of G, sorted by (order,
    bitset), built once and stored on G, with no lattice: the minimal
    normal closures of elements of prime order.  Taking x marks <x> and
    its class as done.  The closure of x grows from <x> a conjugate at a
    time (``_generate_inside``) and is dropped at the first element done
    before x that it holds or generates, being then one found already or
    not minimal; a minimal N is never dropped, as nothing done before N's
    first element taken lies in N.  Larger
    orders go first, so more closures drop early: in S5, A5 comes first.
    """
    if G._minimal_normals is None:
        table = G.table
        tables = [] if G.is_abelian() else G.conjugation_tables()
        orders = G._element_orders()
        done = 1
        closures = []
        for x in sorted(range(1, G.order), key=orders.__getitem__, reverse=True):
            if (done >> x) & 1 or _smallest_prime_factor(orders[x]) != orders[x]:
                continue
            bits, elems, y = 1, [0], x
            while y:
                bits |= 1 << y
                elems.append(y)
                y = table[y][x]
            before = done
            cls, seen = [x], 1 << x  # the conjugacy class of x
            for c in cls:  # the list grows while it is scanned
                for t in tables:
                    d = t[c]
                    if not seen & d:
                        seen |= d
                        cls.append(d.bit_length() - 1)
            done |= bits | seen
            if bits & before != 1:
                continue
            gens = [x]
            for c in cls:
                if not (bits >> c) & 1:
                    bits = _generate_inside(table, ~before, bits, elems, gens, c)
                    if not bits:
                        break
            else:
                closures.append(bits)
        # N & M is normal, so it is 1 or M: N is minimal iff it holds no
        # minimal M found before it
        out, union = [], 1
        for b in sorted(closures, key=lambda b: (b.bit_count(), b)):
            if b & union == 1:
                out.append(b)
                union |= b
        G._minimal_normals = out
    return G._minimal_normals


@dataclass(frozen=True)
class PrimaryDecomposition:
    """Multiset of prime-power cyclic factors of an abelian group, sorted."""

    factors: tuple[int, ...]

    def __post_init__(self):
        for f in self.factors:
            if not is_prime_power(f):
                raise InternalInvariantError(f"factor {f} is not a prime power")

    @property
    def order(self) -> int:
        return math.prod(self.factors) if self.factors else 1


def _smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    out = []
    while n > 1:
        p = _smallest_prime_factor(n)
        out.append(p)
        while n % p == 0:
            n //= p
    return out


def is_prime_power(n: int) -> bool:
    return len(prime_factors(n)) == 1


def is_nilpotent(G: FiniteGroup) -> bool:
    """True iff G is the direct product of its Sylow subgroups, that is iff,
    for each prime p dividing |G| with p-part p^a, exactly p^a elements have
    p-power order: each p-element lies in a Sylow p-subgroup, so there are
    more than p^a of them iff there is more than one Sylow p-subgroup."""
    orders = G._element_orders()
    n = G.order
    for p in prime_factors(n):
        pa = p
        while n % (pa * p) == 0:
            pa *= p
        if sum(pa % k == 0 for k in orders) != pa:
            return False
    return True


def primary_decomposition(G: FiniteGroup) -> PrimaryDecomposition:
    """Recover the prime-power cyclic factors via torsion-layer index counts.

    The number of factors of order >= p^t equals log_p [G[p^t] : G[p^(t-1)]].
    |G[m]| is the number of elements whose order divides m, counted from
    the histogram of element orders, so no layer is built as a subgroup.
    """
    if not G.is_abelian():
        raise DomainError("primary decomposition is defined for abelian groups only")
    profile = G.order_profile()
    factors: list[int] = []
    for p in prime_factors(G.order):
        counts = []  # counts[t-1] = number of factors of order >= p^t
        t = 1
        prev = 1
        while True:
            cur = sum(c for k, c in profile.items() if p ** t % k == 0)
            if cur == prev:
                break
            ratio = cur // prev
            if prev * ratio != cur or p ** round(math.log(ratio, p)) != ratio:
                raise InternalInvariantError(
                    f"non-integral torsion index at p={p}, t={t}"
                )
            counts.append(round(math.log(ratio, p)))
            prev = cur
            t += 1
        for e in range(1, len(counts) + 1):
            above = counts[e] if e < len(counts) else 0
            factors.extend([p ** e] * (counts[e - 1] - above))
    factors.sort()
    pd = PrimaryDecomposition(tuple(factors))
    if pd.order != G.order:
        raise InternalInvariantError("primary decomposition does not multiply to |G|")
    return pd


# -- subgroup lattice -----------------------------------------------------


class SubgroupLattice:
    """The complete subgroup lattice of a group of order within the cap.

    Enumeration is Neubüser's cyclic extension on bitsets.  A zuppo is a
    cyclic subgroup <z> of prime-power order; <z^p> is its unique maximal
    subgroup.  Starting from the trivial subgroup, each subgroup S found is
    joined with every zuppo <z> not inside S whose <z^p> lies inside S.
    Every upper cover T of S is one of these joins: of the powers of a
    prime-power part of an element of T outside S, the last one outside S
    is such a z, and T = S v <z>.  So every subgroup is reached along a
    chain of covers from the trivial one, the joins of S contain all its
    upper covers, and every join contains one.  S is meet-irreducible iff
    it has exactly one upper cover, that is iff its joins do not intersect
    in S.

    The loop over zuppos is driven by elements: each element z of
    prime-power order maps to data shared by all generators of <z> (their
    bitset, the bitset of <z^p>, the coset masks of <z>), built once per
    group by ``_zuppos``.  For each S the
    elements still to try start as every such z outside S, and the lowest
    one is taken each time, so elements cleared from that set cost nothing.
    If <z^p> is not inside S, only the generators of <z> are cleared: the
    other elements of <z> belong to smaller zuppos, <z^p> among them.
    Otherwise all of the product set S<z> is cleared: an element z' of S<z>
    outside S is s z^k with p not dividing k, so <S, z'> = <S, z>.

    Joins work on coset masks: for each zuppo Z and element a, the bitset
    of the coset aZ.  The product set X*Z is the OR of the masks of one
    representative per coset, taking each time the lowest bit a of what is
    left of X and clearing mask[a] from it.  The masks of every zuppo come
    from whole-array passes over the table, one per element order, which
    sum entries of ``BITS`` (see ``_zuppos``).

    The lattice is enumerated one conjugacy class at a time, as GAP's
    LatticeByCyclicExtension does: only a class representative goes on to
    the zuppo loop, carrying elements that generate it (those of the
    representative it was joined from, then z).  One rule decides how a
    join is formed.  If z normalizes S, S v Z is the product set S*Z, with
    no closure.  z normalizes S if S is normal, that is if its class is a
    singleton, or else if z conjugates each carried generator of S into S.
    If Z = <z> is normal as well (every generator of G conjugates z into Z,
    tested once per zuppo), S*Z is normal and a class of its own.  If z
    does not normalize S and G is nilpotent (``is_nilpotent``), the join is
    dropped.  Every maximal subgroup of a nilpotent group is normal, so an
    upper cover T of S has S normal in T and is S*<z'> for the z' the first
    paragraph finds in T, which normalizes S; and a join with a z that
    normalizes S has index p over S, so it is a cover.  So the joins kept
    are the upper covers, every subgroup is still reached, and the
    meet-irreducible test reads the same.  In any other group (in S4, S3
    is maximal and not normal) the join is closed semi-naively: only the
    elements the last step added are multiplied on the right, by S
    (through coset masks of S, built once per S) and by Z in turn, until a
    step adds nothing.  Cosets added by *S are already S-closed and those
    added by *Z are Z-closed, so each element is multiplied once by each
    side.  A set holding 1 and closed under both is the subgroup they
    generate.  Unless S and Z are both normal, a new join brings in its
    whole class (``_conjugacy_class``), and every member is marked as seen.
    The class search lists each member once and forms each conjugate by a
    generator g as the sum of the member's entries in g's conjugation
    table (``FiniteGroup.conjugation_tables``, built once per group).
    Conjugation is an automorphism of the lattice, so it maps the upper
    covers of a subgroup onto those of its conjugate, and the
    representative's meet-irreducible flag is given to its whole class.
    No core or minimal normal is computed here (see ``core`` and the
    function ``minimal_normals``), and upper covers are found on demand
    (``minimal_strict_supergroups``).

    Enumeration raises ResourceCapError once more than
    ``LATTICE_SUBGROUP_CAP`` subgroups are found.

    Subgroups are sorted by (order, bitset) so indices are deterministic.
    The sorted bitsets are ``bits``; the ``Subgroup`` objects of
    ``subgroups`` are built on first access, and the solver reads only
    ``bits``.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        flags = self._enumerate()
        self.bits = sorted(flags, key=lambda b: (b.bit_count(), b))
        self.index_of = {b: i for i, b in enumerate(self.bits)}
        self._meet_irr = [flags[b][0] for b in self.bits]
        self.normal_flags = [flags[b][1] for b in self.bits]
        self.minimal_normals = [self.index_of[b] for b in minimal_normals(group)]

    @cached_property
    def subgroups(self) -> list[Subgroup]:
        """The subgroups as ``Subgroup`` objects, in the order of ``bits``,
        built on first access: the solver reads ``bits`` alone."""
        return [Subgroup(self.group, b) for b in self.bits]

    def _enumerate(self) -> dict[int, tuple[bool, bool]]:
        """Every subgroup's bitset -> (meet-irreducible, normal)."""
        G = self.group
        table = G.table
        zuppo, zmask = _zuppos(G)
        nilpotent = is_nilpotent(G)
        flags: dict[int, tuple[bool, bool]] = {}
        seen = {1}
        # conjugacy classes still to join, representative first, each with
        # elements that generate its representative
        work: list[tuple[list[int], list[int]]] = [([1], [])]
        while work:
            members, sgens = work.pop()
            s = members[0]
            normal = len(members) == 1
            smasks = None
            inter = -1
            todo = zmask & ~s
            while todo:
                z = (todo & -todo).bit_length() - 1
                gens, below, masks, znormal = zuppo[z]
                if (s | below) != s:
                    # no generator of <z> qualifies, but other elements of
                    # <z> (those of <z^p>, say) may
                    todo &= ~gens
                    continue
                j = _times(s, masks)
                # z' in S<z> outside S is s z^k with p not dividing k, so
                # <S, z'> = <S, z>: z' can only give this join again
                todo &= ~j
                # if z normalizes S, S<z> is a subgroup: the join itself
                zrow, zinv = table[z], G.inv[z]
                if not normal and not all(
                        (s >> table[zrow[x]][zinv]) & 1 for x in sgens):
                    # nor does any z' just cleared, or z in S<z'> would.  In
                    # a nilpotent group the upper covers of S are the joins
                    # with the elements that normalize S, so this one is
                    # not a cover and adds nothing
                    if nilpotent:
                        continue
                    # semi-naive closure: cosets added by *S are S-closed and
                    # cosets added by *<z> are <z>-closed, so only the newest
                    # elements are multiplied by the other side
                    if smasks is None:
                        smasks = _coset_masks(table, bits_to_list(s))
                    new = j & ~s
                    while new:
                        new = _times(new, smasks) & ~j
                        j |= new
                        new = _times(new, masks) & ~j
                        j |= new
                inter &= j
                if j not in seen:
                    # a member already seen would have brought the whole
                    # class, j included, into seen; the product of two
                    # normal subgroups is a normal subgroup
                    cls = [j] if normal and znormal else _conjugacy_class(G, j)
                    seen.update(cls)
                    if len(seen) > LATTICE_SUBGROUP_CAP:
                        raise ResourceCapError(
                            f"{G.label} has more than {LATTICE_SUBGROUP_CAP}"
                            " subgroups"
                        )
                    work.append((cls, sgens + [z]))
            flag = (inter != s, normal)
            for K in members:
                flags[K] = flag
        return flags

    def __len__(self) -> int:
        return len(self.bits)

    def subgroup_index(self, H: Subgroup) -> int:
        try:
            return self.index_of[H.bits]
        except KeyError:
            raise DomainError("subgroup is not a member of this lattice") from None

    def meet_irreducible_flags(self) -> list[bool]:
        """Per subgroup: True iff it has exactly one upper cover (or is G)."""
        return self._meet_irr

    def minimal_strict_supergroups(self, i: int) -> list[int]:
        """Lattice indices of the upper covers of subgroup i, ascending."""
        bits = self.bits
        bi = bits[i]
        covers = []
        for j in range(i + 1, len(bits)):
            bj = bits[j]
            # a supergroup that is not a cover contains a cover, of smaller
            # order and so already found
            if (bj | bi) == bj and not any(
                    (bj | bits[c]) == bj for c in covers):
                covers.append(j)
        return covers


_Zuppo = tuple[int, int, list[int], bool]


def _zuppos(G: FiniteGroup) -> tuple[list[Optional[_Zuppo]], int]:
    """Per element z of prime-power order, data shared by all generators
    of <z>: (bitset of those generators, bitset of <z^p>, coset masks of
    <z> indexed by element, whether <z> is normal); None for the other
    elements.  Also the bitset of every such z.

    The coset masks of all zuppos of one order k = p^e come from one
    gather, orders ascending.  a<z> is the union of the cosets a z^i <z^p>
    for i < p, and the masks of <z^p> are known by then (for e = 1 it is
    the trivial subgroup, whose masks are ``BITS``).  For the m zuppos z_r
    of order k, ``G.mult[:, P]`` with P the m x p array of their first p
    powers holds each a z_r^i; reading the masks of <z_r^p> there and
    summing over i gives the mask of a<z_r> for every a and r at once:
    p n object additions per zuppo, whatever its order."""
    table = G.table
    n = G.order
    conj = [] if G.is_abelian() else G.conjugation_tables()
    # order k -> [(generators, <z^p>, normal, powers of z)] of one z per <z>
    by_order: dict[int, list[tuple[int, int, bool, list[int]]]] = {}
    zmask = 0
    for z, k in enumerate(G._element_orders()):
        if (zmask >> z) & 1 or not is_prime_power(k):
            continue
        powers = [0]
        while len(powers) < k:
            powers.append(table[powers[-1]][z])
        p = _smallest_prime_factor(k)
        gens = list_to_bits(x for e, x in enumerate(powers) if e % p)
        zbits = list_to_bits(powers)
        znormal = all(t[z] & zbits for t in conj)
        by_order.setdefault(k, []).append(
            (gens, list_to_bits(powers[::p]), znormal, powers))
        zmask |= gens
    zuppo: list[Optional[_Zuppo]] = [None] * n
    # per element x, the coset masks of <x> as an object array, for each
    # generator x of a zuppo done
    rows: list[Optional[np.ndarray]] = [None] * n
    for k in sorted(by_order):
        zs = by_order[k]
        p = _smallest_prime_factor(k)
        az = G.mult[:, [powers[:p] for *_, powers in zs]]  # [a, r, i] -> a z_r^i
        if k == p:
            masks = BITS[az].sum(axis=2)
        else:
            below = np.stack([rows[powers[p]] for *_, powers in zs])
            masks = below[np.arange(len(zs))[None, :, None], az].sum(axis=2)
        for (gens, bbits, znormal, _), col in zip(zs, masks.T):
            info = (gens, bbits, col.tolist(), znormal)
            for x in bits_to_list(gens):
                zuppo[x] = info
                rows[x] = col
    return zuppo, zmask


def _coset_masks(table: list[list[int]], elems: list[int]) -> list[int]:
    """For each element a, the bitset of the coset aH, H given by ``elems``."""
    masks = [0] * len(table)
    for a, row in enumerate(table):
        if not masks[a]:
            coset = [row[x] for x in elems]
            m = list_to_bits(coset)
            for y in coset:
                masks[y] = m
    return masks


def _times(x: int, masks: list[int]) -> int:
    """The product set X*Z, from the coset masks of Z."""
    out = 0
    while x:
        m = masks[(x & -x).bit_length() - 1]
        out |= m
        x &= ~m
    return out


def nilpotent_lattice_top(G: FiniteGroup) -> dict[int, bool]:
    """The subgroups of a nilpotent G of index at most I, each mapped to
    whether it is meet-irreducible, with no lattice built.  I is the least
    index at which the meet-irreducible subgroups of index at most I cover
    every minimal normal subgroup, a subgroup covering N iff it does not
    contain N.  G itself is flagged meet-irreducible, as in
    ``SubgroupLattice``.

    The subgroups are formed one index at a time, in increasing order,
    starting from G.  Every maximal subgroup of a nilpotent group is
    normal of prime index, so the subgroups of index m are the maximal
    subgroups of index p of those of index m / p, over the primes p
    dividing m (``_maximal_subgroups``).  Each is counted once per subgroup
    it is maximal in, that is once per upper cover, and all of its upper
    covers have smaller index: the count of a subgroup is final when its
    index is formed, and it is meet-irreducible iff the count is 1.  The
    walk stops after the first index at which the meet-irreducible
    subgroups found so far cover every minimal normal; the subgroups of
    that index are not expanded.  ``solver.mu_exact`` says why no cheaper
    representation needs a subgroup of larger index.

    Raises ResourceCapError once more than ``LATTICE_SUBGROUP_CAP``
    subgroups are found, as the lattice does.
    """
    if not is_nilpotent(G):
        raise DomainError(f"{G.label} is not nilpotent")
    n = G.order
    minimal = minimal_normals(G)
    everything = (1 << len(minimal)) - 1
    top = (1 << n) - 1
    out = {top: True}
    levels = {1: [top]}   # index -> its subgroups
    covered = 0
    table = G.table
    pth: dict[int, list[int]] = {}   # p -> the p-th power of each element
    for p in prime_factors(n):
        pth[p] = list(range(n))
        for _ in range(p - 1):
            pth[p] = [table[y][x] for x, y in enumerate(pth[p])]
    for m in range(2, n + 1):
        if covered == everything:
            break
        if n % m:
            continue
        # subgroup -> number of upper covers
        parents: dict[int, int] = {}
        for p in prime_factors(m):
            for k in levels[m // p]:
                for s in _maximal_subgroups(G, k, p, pth[p]):
                    parents[s] = parents.get(s, 0) + 1
                if len(out) + len(parents) > LATTICE_SUBGROUP_CAP:
                    raise ResourceCapError(
                        f"{G.label} has more than {LATTICE_SUBGROUP_CAP}"
                        " subgroups")
        levels[m] = list(parents)
        for s, count in parents.items():
            out[s] = count == 1
            if count == 1:
                for i, nb in enumerate(minimal):
                    if nb & s != nb:
                        covered |= 1 << i
    return out


def _maximal_subgroups(G: FiniteGroup, k: int, p: int,
                       pth: list[int]) -> list[int]:
    """The maximal subgroups of index p of the nilpotent subgroup K (bitset
    ``k``), p dividing |K|, given ``pth``, the p-th power of each element
    of G.  They are the preimages of the hyperplanes of the F_p-space
    K / Phi_p(K), where Phi_p(K) = K^p [K, K] is the intersection of the
    normal subgroups of index p (Burnside's basis theorem).  Each is an OR
    of cosets of Phi_p(K), with no closure.

    The cosets are labelled by vectors of F_p^d.  A basis b_1..b_d is
    taken greedily, each the lowest element of K outside the cosets found,
    and the coset of b_1^e_1 ... b_d^e_d Phi_p(K) is labelled by the
    vector e, whose i-th coordinate is digit i of its index in base p.
    Each hyperplane's cosets are then summed (``_hyperplanes``).

    Phi_p(K) starts as N, the subgroup generated by the p-th powers, which
    is normal.  For p = 2 it is Phi_2(K), as [x, y] = x^-2 (x y^-1)^2 y^2.
    For an odd p it need not be (3^(1+2) of exponent 3 has trivial cubes),
    so each new b is checked to commute with the earlier ones modulo N.
    If all do, the b's generate K / N, which is then elementary abelian,
    and N = Phi_p(K).  If one does not, N grows by the normal closure of
    that commutator, which lies in [K, K], and the labelling starts over.
    """
    table = G.table
    inv = G.inv
    powers = sum(map(_BIT.__getitem__, set(map(pth.__getitem__, bits_to_list(k)))))
    phi_elems, phi_gens = [0], []
    phi = _extend(table, 1, phi_elems, phi_gens, powers)
    while True:
        masks, reps, basis, seen = [phi], [0], [], phi
        while seen != k:
            rest = k & ~seen
            b = (rest & -rest).bit_length() - 1
            # a^-1 b^-1 a b outside N, for the a taken before b
            comms = 0 if p == 2 else list_to_bits(
                table[table[inv[a]][inv[b]]][table[a][b]] for a in basis) & ~phi
            if comms:
                break
            basis.append(b)
            new, g = [], b
            for _ in range(p - 1):
                row = table[g]
                new += [row[r] for r in reps]
                g = row[b]
            for r in new:
                m = sum(map(_BIT.__getitem__, map(table[r].__getitem__, phi_elems)))
                masks.append(m)
                seen |= m
            reps += new
        else:
            # the cosets are disjoint, so a sum is their union
            return [sum(map(masks.__getitem__, vs))
                    for vs in _hyperplanes(p, len(basis))]
        # the normal closure in K: each generator of N, as the list grows,
        # is conjugated by each generator of K
        phi = _extend(table, phi, phi_elems, phi_gens, comms)
        kgens: list[int] = []
        _extend(table, 1, [0], kgens, k)
        for c in phi_gens:
            for g in kgens:
                d = table[table[inv[g]][c]][g]
                if not (phi >> d) & 1:
                    phi = _extend(table, phi, phi_elems, phi_gens, 1 << d)


@lru_cache(maxsize=None)
def _hyperplanes(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The hyperplanes ker f of F_p^d, f up to a scalar (its lowest nonzero
    coordinate 1), each as the indices of its vectors; coordinate i of a
    vector is digit i of its index in base p.  For p = 2 the dot product
    is the parity of f & v."""
    size = p ** d
    if p == 2:
        return tuple(tuple(v for v in range(size) if not (f & v).bit_count() & 1)
                     for f in range(1, size))
    digits = [[v // p ** i % p for i in range(d)] for v in range(size)]
    out = []
    for f in digits[1:]:
        if next(x for x in f if x) == 1:
            out.append(tuple(v for v, w in enumerate(digits)
                             if not sum(a * b for a, b in zip(f, w)) % p))
    return tuple(out)


def socle(G: FiniteGroup) -> Subgroup:
    """Join of all minimal normal subgroups (``minimal_normals``)."""
    union = reduce(int.__or__, minimal_normals(G), 0)
    return Subgroup(G, G.subgroup_generated_bits(bits_to_list(union)))


# -- derived groups: subgroups as groups ----------------------------------


def subgroup_as_group(H: Subgroup) -> tuple[FiniteGroup, list[int]]:
    """Reindex a subgroup as a standalone FiniteGroup.

    Returns (group, embedding) where embedding[i] is the parent index of the
    i-th element.  The identity stays at index 0 because parent indices are
    sorted and 0 is a member.
    """
    G = H.parent
    elems = H.elements()
    pos = {e: i for i, e in enumerate(elems)}
    k = len(elems)
    mult = np.empty((k, k), dtype=np.int64)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            mult[i, j] = pos[G.mul(a, b)]
    return FiniteGroup(mult, label=f"{G.label}|sub{k}", validate=False), elems


def abelian_basis(G: FiniteGroup) -> list[tuple[int, int]]:
    """Independent generators realizing the primary decomposition.

    Returns [(element, order)] such that G is the internal direct product of
    the cyclic subgroups generated by the elements (orders are prime powers,
    primes ascending, orders non-increasing within a prime).  It is the
    first half of ``abelian_coordinates``.
    """
    return abelian_coordinates(G)[0]


def abelian_coordinates(G: FiniteGroup) -> tuple[list[tuple[int, int]],
                                                  list[tuple[int, ...]]]:
    """(``abelian_basis``, coordinates): x is the sum of coords[x][i] b_i
    over the basis elements b_i, with 0 <= coords[x][i] < order(b_i).

    The basis grows one element at a time, with S = <basis so far> kept as
    a bitset and its elements' coordinates.  For each prime p in turn, x is
    a p-element of the largest order p^f modulo S.  Then p^f x = sum a_i b_i
    lies in S, and p^f divides each a_i, by induction on i: modulo
    <b_1..b_(i-1)>, where b_i has the largest order o_i, x less the earlier
    corrections has order at most o_i, so p^f times it, which is a_i b_i
    plus independent later terms, has order at most o_i / p^f.  So
    y = x - sum (a_i / p^f) b_i has order p^f and meets S in the identity
    alone, and S + t y takes the coordinates of S followed by t.  Both
    facts are checked as the basis grows.  No torsion layer is counted and
    no quotient or subgroup table is built, so ``primary_decomposition``,
    which counts torsion layers, stays a check that shares no code with
    this beyond the element orders.
    """
    if not G.is_abelian():
        raise DomainError("abelian basis requires an abelian group")
    n = G.order
    table = G.table
    orders = G._element_orders()
    basis: list[tuple[int, int]] = []
    coords: list[tuple[int, ...]] = [()] * n
    elems = [0]
    sbits = 1
    for p in prime_factors(n):
        pk = 1
        while n % (pk * p) == 0:
            pk *= p
        # the p-elements, largest order first: the order of x modulo S is at
        # most the order of x
        pel = sorted((x for x in range(1, n) if pk % orders[x] == 0),
                     key=lambda x: -orders[x])
        target = len(elems) * pk
        while len(elems) < target:
            x, m = 0, 1
            for cand in pel:
                if orders[cand] <= m:
                    break
                k, y = 1, cand
                while not (sbits >> y) & 1:
                    y = G.power(y, p)
                    k *= p
                if k > m:
                    x, m = cand, k
            # x m = sum a_i b_i; subtract sum (a_i / m) b_i from x
            w = 0
            for (b, _), a in zip(basis, coords[G.power(x, m)]):
                if a % m:
                    raise InternalInvariantError("order-preserving lift failed")
                w = table[w][G.power(b, a // m)]
            y = table[x][G.inv[w]]
            if orders[y] != m:
                raise InternalInvariantError("lifted basis element has wrong order")
            added = []
            z = y
            for t in range(1, m):
                for s in elems:
                    e = table[s][z]
                    coords[e] = coords[s] + (t,)
                    added.append(e)
                z = table[z][y]
            for s in elems:
                coords[s] += (0,)
            elems += added
            sbits |= list_to_bits(added)
            basis.append((y, m))
    # sanity: product of orders equals |G| and the joint generation is direct
    if math.prod(o for _, o in basis) != G.order:
        raise InternalInvariantError("abelian basis orders do not multiply to |G|")
    if G.subgroup_generated_bits([g for g, _ in basis]) != (1 << G.order) - 1:
        raise InternalInvariantError("abelian basis does not generate the group")
    return basis, coords


def character_kernels(G: FiniteGroup) -> list[int]:
    """Bitsets of the meet-irreducible proper subgroups of an abelian G.

    H is meet-irreducible iff G/H is cyclic of prime-power order, so these
    are the kernels of the nontrivial characters of prime-power order.  A
    character of p-power order is given by its values t_i = q chi(b_i) in
    Z/q on the p-part of ``abelian_coordinates``' basis, q the largest order
    there (it is 0 on the other primes' basis elements); its kernel is the
    set of x with sum t_i coords[x][i] = 0 mod q.

    The value vectors are walked one basis element at a time, carrying the
    level bitsets {v: elements whose partial sum is v}, so a prefix is
    shared by every vector that extends it and each step is a few bitset
    ANDs.  Characters that generate the same cyclic subgroup have the same
    kernel, so only one generator is kept: the one whose first value of
    least p-adic valuation is a power of p.  Each kernel appears once.
    """
    basis, coords = abelian_coordinates(G)
    n = G.order
    kernels = []
    for p in prime_factors(n):
        part = [i for i, (_, o) in enumerate(basis) if o % p == 0]
        q = basis[part[0]][1]
        # cells[j][r]: the elements whose part[j]-th coordinate is r
        cells = [[0] * basis[i][1] for i in part]
        for x, c in enumerate(coords):
            for row, i in zip(cells, part):
                row[c[i]] |= 1 << x
        stack: list[tuple[tuple[int, ...], dict[int, int]]] = [((), {0: (1 << n) - 1})]
        while stack:
            values, levels = stack.pop()
            row = cells[len(values)]
            step = q // len(row)
            last = len(values) + 1 == len(part)
            for c in range(len(row)):
                t = c * step
                tv = values + (t,)
                if last:
                    lead = min((v for v in tv if v), default=0,
                               key=lambda v: math.gcd(v, q))
                    if lead and lead == math.gcd(lead, q):
                        kernels.append(reduce(int.__or__, (
                            levels.get(-r * t % q, 0) & cell
                            for r, cell in enumerate(row))))
                elif not t:
                    stack.append((tv, levels))
                else:
                    new: dict[int, int] = {}
                    for v, b in levels.items():
                        for r, cell in enumerate(row):
                            w = (v + r * t) % q
                            new[w] = new.get(w, 0) | (b & cell)
                    stack.append((tv, new))
    return kernels
