"""Finite groups as explicit multiplication tables, plus the structural
machinery (subgroup lattice, the top of a nilpotent group's lattice, cores,
minimal normals, socle, abelian positions and character kernels) that the
degree solver consumes.

Conventions fixed across the package:
  * elements are indices 0..n-1, identity is always index 0;
  * a subgroup is stored as an n-bit Python int (bit i set <=> element i in H);
  * direct-product element index is g * |H| + h.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DomainError,
    GroupFormatError,
    InternalInvariantError,
    InvalidActionError,
    ResourceCapError,
)

# every representation lives inside the multiplication table, and the
# regular one has degree |G|, so no group larger than this is built; every
# element index of such a group fits a byte
ORDER_CAP = 256
# a lattice with more subgroups than this raises ResourceCapError instead of
# running for minutes (Ab(2^8), order 256, has 417,199)
LATTICE_SUBGROUP_CAP = 50_000
# _BIT[i] == 1 << i, for sums over map()
_BIT = [1 << i for i in range(ORDER_CAP)]
# _SHIFT[k:k + 256] is the bytes.translate table that adds k to each byte
# below 256 - k
_SHIFT = bytes(range(256)) * 2


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

    ``table[a][b]`` is the index of the product a*b, ``inv[a]`` the
    inverse.  The table is held as ``table_bytes``, its entries row after
    row, one byte each: every index of a group within ``ORDER_CAP`` fits
    a byte.  ``table`` is the same unpacked into tuple rows, which the hot
    loops index and the garbage collector does not walk.  The constructors
    here give the bytes; a table given as rows, or as an array read
    through its ``tolist()``, is joined into them (``_join_rows``).
    ``mult`` is a read-only n x n view of ``table_bytes``, with no copy.
    An order above ``ORDER_CAP`` is refused.
    Instances are immutable after construction and safe to share.

    A caller that already has the inverses, with ``table[a][inv[a]] == 0``,
    passes them as ``inv``, and they are taken as given, like a table
    passed with ``validate=False``; otherwise each row is searched for the
    identity.  Likewise a caller that has the element orders passes them
    as ``orders``; otherwise they are walked on first use
    (``_element_orders``).  The constructors here pass both when index
    arithmetic gives them: the cyclic and abelian tables and every direct
    product (``product_tables``).
    """

    def __init__(self, table, label: str = "G", validate: bool = True,
                 *, inv: Optional[Sequence[int]] = None,
                 orders: Optional[Sequence[int]] = None):
        self.label = label
        if not isinstance(table, bytes):
            table = _join_rows(table)
        n = math.isqrt(len(table))
        check_order(n)  # so every index fits a byte
        if validate:
            _validate_table(table)
        self.table_bytes: bytes = table
        self.table: tuple[tuple[int, ...], ...] = tuple(
            struct.iter_unpack(f"{n}B", table))
        self.order = n
        if inv is None:
            inv = _inverses(table, n)
        self.inv: tuple[int, ...] = tuple(inv)
        self._lattice: Optional[SubgroupLattice] = None
        self._mu = None  # the SolveResult solver.mu_exact stores here
        self._gens: Optional[list[int]] = None
        self._orders: Optional[list[int]] = (
            None if orders is None else list(orders))
        self._abelian: Optional[bool] = None
        self._minimal_normals: Optional[list[int]] = None
        self._center: Optional[Subgroup] = None
        self._conj: Optional[tuple[tuple[int, ...], ...]] = None

    @property
    def mult(self) -> memoryview:
        """``table_bytes`` viewed as n rows of n entries, ``mult[a, b] ==
        table[a][b]``: read-only, with no copy, and nothing stored."""
        return memoryview(self.table_bytes).cast("B", (self.order, self.order))

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
        """Whether each row of the table equals the column of its index,
        compared as slices of ``table_bytes``."""
        if self._abelian is None:
            t, n = self.table_bytes, self.order
            self._abelian = all(t[a * n:a * n + n] == t[a::n] for a in range(n))
        return self._abelian

    # -- generation -------------------------------------------------------

    def generators(self) -> list[int]:
        """A small generating set, found greedily (largest element order
        first), each one extending one closure (``_generate_inside``)."""
        if self._gens is None:
            gens: list[int] = []
            bits, elems = 1, [0]
            full = (1 << self.order) - 1
            order_of = self._element_orders()
            by_order = sorted(range(1, self.order), key=lambda a: -order_of[a])
            for a in by_order:
                if not (bits >> a) & 1:
                    bits = _generate_inside(self.table, -1, bits, elems, gens, a)
                    if bits == full:
                        break
            self._gens = gens
        return self._gens

    def subgroup_generated_bits(self, gens: Sequence[int]) -> int:
        """Bitset of the subgroup generated by ``gens``, extended from the
        trivial subgroup (``_extend``)."""
        return _extend(self.table, 1, [0], [], list_to_bits(gens))

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

    def conjugation_tables(self) -> tuple[tuple[int, ...], ...]:
        """For each of ``generators()``, the tuple of ``1 << (g x g^-1)``
        over all x, built on first use: x's entry in g's row, read in the
        column of g^-1.  The conjugate of a subgroup by g is the sum of its
        elements' entries.  An abelian group gets an empty tuple, with no
        generators found: each class is then a singleton, and each subgroup
        normal and its own core."""
        if self._conj is None:
            if self.is_abelian():
                self._conj = ()
            else:
                table, conj = self.table, []
                for g in self.generators():
                    ginv = self.inv[g]
                    conj.append(tuple([_BIT[table[y][ginv]] for y in table[g]]))
                self._conj = tuple(conj)
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


def _inverses(table: bytes, n: int) -> list[int]:
    """The column of the identity in each row of a table given as bytes,
    row after row: the inverse of each element.  Refuses a row that holds
    the identity other than once.  A row of bytes is searched in C by
    byte, several times as fast as a row of ints."""
    inv = []
    for a in range(n):
        row = table[a * n:a * n + n]
        if row.count(0) != 1:
            raise GroupFormatError(f"element {a} has no unique inverse")
        inv.append(row.index(0))
    return inv


def _generate_inside(table: Sequence[Sequence[int]], allowed: int, member: int,
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


def _extend(table: Sequence[Sequence[int]], member: int, elems: list[int],
            gens: list[int], bits: int) -> int:
    """Extend the subgroup ``member`` (listed in ``elems``, generated by
    ``gens``) to the subgroup it generates with the elements of ``bits``,
    taking the lowest one not yet generated as the next generator
    (``_generate_inside``).  From the trivial subgroup this is
    ``FiniteGroup.subgroup_generated_bits``."""
    rest = bits & ~member
    while rest:
        member = _generate_inside(table, -1, member, elems, gens,
                                  (rest & -rest).bit_length() - 1)
        rest &= ~member
    return member


def _normal_closure(table: Sequence[Sequence[int]], inv: Sequence[int],
                    member: int, elems: list[int], gens: list[int], bits: int,
                    kgens: Sequence[int]) -> int:
    """Extend the subgroup ``member`` (listed in ``elems``, generated by
    ``gens``) by the elements of ``bits`` (``_extend``), then by the
    conjugates g^-1 c g of its generators c under ``kgens`` until none
    falls outside: the normal closure of the extended subgroup in
    K = <kgens>, which must contain it.  A subgroup that holds the
    conjugates of its generators by K's generators is normal in K."""
    member = _extend(table, member, elems, gens, bits)
    for c in gens:  # the list of generators grows while it is scanned
        for g in kgens:
            x = table[table[inv[g]][c]][g]
            if not (member >> x) & 1:
                member = _extend(table, member, elems, gens, 1 << x)
    return member


def _join_rows(rows) -> bytes:
    """A table given as rows, or as an array read through its
    ``tolist()``, joined into bytes row after row.  The order is checked
    against ``ORDER_CAP`` first, then that each of the n rows holds n
    entries, each in 0..n-1 (``_check_range``)."""
    if hasattr(rows, "tolist"):
        rows = rows.tolist()
    n = len(rows)
    check_order(n)
    if any(len(row) != n for row in rows):
        raise GroupFormatError("multiplication table is not square")
    cells = list(itertools.chain.from_iterable(rows))
    _check_range(cells, n)
    return bytes(cells)


def _check_range(cells: Sequence[int], n: int) -> None:
    """Refuse a table, given by its entries row after row, that holds one
    outside 0..n-1, naming the first such cell."""
    if cells and not 0 <= min(cells) <= max(cells) < n:
        k = next(k for k, x in enumerate(cells) if not 0 <= x < n)
        raise GroupFormatError(
            f"entry out of range at cell ({k // n}, {k % n})")


def _validate_table(table: bytes) -> None:
    """Check a table, given as bytes row after row, is a group table with
    identity 0: square, entries in range, a Latin square, associative.

    Associativity is checked on all n^3 triples, n^2 at a time: for each
    a, the whole table translated through row a holds a(bc) for every b
    and c, and the rows named by row a, joined, hold (ab)c."""
    n = math.isqrt(len(table))
    if n * n != len(table):
        raise GroupFormatError("multiplication table is not square")
    if n == 0:
        raise GroupFormatError("empty table")
    _check_range(table, n)
    ident = bytes(range(n))
    if table[:n] != ident or table[::n] != ident:
        raise GroupFormatError("index 0 is not a two-sided identity")
    rows = [table[i:i + n] for i in range(0, n * n, n)]
    for i, row in enumerate(rows):
        if len(set(row)) != n:
            raise GroupFormatError(f"Latin square violated in row {i}")
        if len(set(table[i::n])) != n:
            raise GroupFormatError(f"Latin square violated in column {i}")
    for a, row in enumerate(rows):
        left = b"".join(map(rows.__getitem__, row))
        right = table.translate(row.ljust(256, b"\0"))
        if left != right:
            k = next(k for k, (x, y) in enumerate(zip(left, right)) if x != y)
            raise GroupFormatError(
                f"associativity violated at triple ({a}, {k // n}, {k % n})"
            )


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` stored as a membership bitset."""

    parent: FiniteGroup
    bits: int

    def __post_init__(self):
        if not self.bits & 1:
            raise DomainError("subgroup bitset must contain the identity (bit 0)")
        if self.bits >> self.parent.order:
            raise DomainError("subgroup bitset has a bit past the group's elements")
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
        elems = self.elements()
        return all(sum(map(t.__getitem__, elems)) == self.bits
                   for t in self.parent.conjugation_tables())

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.label})"


# -- constructors ---------------------------------------------------------


def make_cyclic(n: int) -> FiniteGroup:
    """The cyclic group Z_n with element i standing for the residue i."""
    table, inv, orders = cyclic_tables(n)
    return FiniteGroup(table, label=f"C{n}", validate=False, inv=inv,
                       orders=orders)


# a group's table, inverses and element orders, with no group built: the
# table as bytes, row after row, and the inverses as bytes, as every index
# of a group within ORDER_CAP fits a byte; the orders as ints, as C256 has
# an element of order 256
Tables = tuple[bytes, bytes, Sequence[int]]


def cyclic_tables(n: int) -> Tables:
    """The table, inverses and element orders of ``make_cyclic(n)``, with
    no group built: row i is 0..n-1 rotated by i, the inverse of the
    residue i is -i, and its order is n / gcd(i, n)."""
    if n < 1:
        raise DomainError("cyclic group order must be >= 1")
    check_order(n)
    base = bytes(range(n))
    return (b"".join(_rotations(n)), base[:1] + base[:0:-1],
            [n // math.gcd(i, n) for i in range(n)])


def _rotations(n: int) -> list[bytes]:
    """Row a of Z_n's table: a + b mod n for each b."""
    base = bytes(range(n))
    return [base[a:] + base[:a] for a in range(n)]


def make_abelian(factors: Sequence[int]) -> FiniteGroup:
    """Direct product of cyclic groups over ``factors`` (empty -> trivial).

    Only the result becomes a group; its table, inverses and element
    orders are ``abelian_tables``'.
    """
    label = "Ab(" + ",".join(str(f) for f in factors) + ")"
    table, inv, orders = abelian_tables(factors)
    return FiniteGroup(table, label=label, validate=False, inv=inv,
                       orders=orders)


def abelian_tables(factors: Sequence[int]) -> Tables:
    """The table, inverses and element orders of ``make_abelian(factors)``,
    with no group built: the cyclic tables folded by ``product_tables``,
    those of the trivial group for no factors."""
    for f in factors:
        if f < 2:
            raise DomainError("abelian factors must each be >= 2")
    return reduce(product_tables, map(cyclic_tables, factors or [1]))


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: indices 0..n-1 are r^i, n..2n-1 are s r^i.

    Each row is formed from rotations of 0..n-1, one quadrant per pair of
    cosets: r^a r^b = r^(a+b), r^a (s r^b) = s r^(b-a), (s r^a) r^b =
    s r^(a+b) and (s r^a)(s r^b) = r^(b-a).  The indexing is unchanged by
    that, as for every constructor here: cached witnesses and the golden
    subgroup digests are bitsets over these indices.
    """
    if n < 3:
        raise DomainError("dihedral parameter must be >= 3")
    check_order(2 * n)
    add = _rotations(n)                  # add[a][b] = a + b, add[-a][b] = b - a
    up = _SHIFT[n:n + 256]               # x -> n + x
    rows = ([add[a] + add[-a].translate(up) for a in range(n)]
            + [add[a].translate(up) + add[-a] for a in range(n)])
    return FiniteGroup(b"".join(rows), label=f"D{n}", validate=False)


def make_generalized_quaternion(order: int) -> FiniteGroup:
    """Generalized quaternion group Q_{2^k}; indices 0..m-1 are x^a, m..2m-1 are x^a y.

    Each row is formed from rotations of 0..m-1, one quadrant per pair of
    cosets: x^a x^b = x^(a+b), x^a (x^b y) = x^(a+b) y, (x^a y) x^b =
    x^(a-b) y and (x^a y)(x^b y) = x^(a-b+m/2), exponents mod m.  The
    indexing is unchanged by that (see ``make_dihedral``).
    """
    if order < 8 or order & (order - 1):
        raise DomainError("generalized quaternion order must be a power of two >= 8")
    check_order(order)
    m = order // 2
    add = _rotations(m)                                # add[a][b] = a + b
    sub = [add[(a + 1) % m][::-1] for a in range(m)]   # sub[a][b] = a - b
    up = _SHIFT[m:m + 256]                             # x -> m + x
    rows = ([add[a] + add[a].translate(up) for a in range(m)]
            + [sub[a].translate(up) + sub[(a + m // 2) % m] for a in range(m)])
    return FiniteGroup(b"".join(rows), label=f"Q{order}", validate=False)


def make_symmetric(n: int) -> FiniteGroup:
    """S_n on permutation tuples in lexicographic order (identity first).

    The product p q maps k to p[q[k]].  The rows are walked from the
    identity's by left multiplication with the n-cycle k -> k + 1 and the
    transposition (0 1) (``_cayley_table``).  The indexing is unchanged
    by that (see ``make_dihedral``).
    """
    if not 1 <= n <= 5:
        raise DomainError("symmetric group parameter must be in 1..5")
    perms = list(itertools.permutations(range(n)))
    index = {q: i for i, q in enumerate(perms)}
    gens = [(*range(1, n), 0)] + ([(1, 0, *range(2, n))] if n > 2 else [])
    return FiniteGroup(
        _cayley_table([bytes(index[tuple(map(s.__getitem__, q))] for q in perms)
                       for s in gens]),
        label=f"S{n}", validate=False)


def make_SL2(p: int) -> FiniteGroup:
    """SL(2,p): determinant-1 matrices over GF(p), identity matrix first.

    The matrices (a, b, c, d) = [[a, b], [c, d]] follow the identity in
    lexicographic order.  The rows are walked from the identity's by left
    multiplication with [[1, 1], [0, 1]] and [[0, -1], [1, 0]], which
    generate SL(2,p) (``_cayley_table``).  The indexing is unchanged by
    that (see ``make_dihedral``).
    """
    if p not in (2, 3, 5):
        raise DomainError("SL(2,p) supported only for p in {2, 3, 5}")
    ident = (1, 0, 0, 1)
    mats = [ident] + [m for m in itertools.product(range(p), repeat=4)
                      if (m[0] * m[3] - m[1] * m[2]) % p == 1 and m != ident]
    index = {m: i for i, m in enumerate(mats)}

    def left(s: tuple[int, ...]) -> bytes:
        # [[a, b], [c, d]] [[e, f], [g, h]] = [[ae + bg, af + bh], [ce + dg, cf + dh]]
        a, b, c, d = s
        return bytes(index[(a * e + b * g) % p, (a * f + b * h) % p,
                           (c * e + d * g) % p, (c * f + d * h) % p]
                     for e, f, g, h in mats)

    return FiniteGroup(_cayley_table([left((1, 1, 0, 1)), left((0, p - 1, 1, 0))]),
                       label=f"SL(2,{p})", validate=False)


def _cayley_table(lefts: Sequence[bytes]) -> bytes:
    """A group's table from left multiplication by its generators, each
    as bytes, ``left[y]`` = s y.  Row s a is row a with each entry y
    replaced by s y, one ``bytes.translate`` through ``left``, so a walk
    from the identity's row 0..n-1 along the generators forms every row
    once."""
    n = len(lefts[0])
    rows: list[Optional[bytes]] = [None] * n
    rows[0] = bytes(range(n))
    lefts = [left.ljust(256, b"\0") for left in lefts]
    walk = [0]
    for a in walk:  # the list grows while it is scanned
        for left in lefts:
            b = left[a]
            if rows[b] is None:
                rows[b] = rows[a].translate(left)
                walk.append(b)
    return b"".join(rows)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """G x H with pair index g*|H| + h, from ``product_tables``, so no row
    is searched for the identity and no product element's powers are
    walked."""
    check_order(G.order * H.order)
    table, inv, orders = product_tables(group_tables(G), group_tables(H))
    return FiniteGroup(table, label=f"{G.label} x {H.label}", validate=False,
                       inv=inv, orders=orders)


def group_tables(G: FiniteGroup) -> Tables:
    """G's table, inverses and element orders, the tables of
    ``product_tables``."""
    return G.table_bytes, bytes(G.inv), G._element_orders()


def product_tables(a: Tables, b: Tables) -> Tables:
    """The table, inverses and element orders of G x H from those of G
    (``a``) and of H (``b``), with pair index g*|H| + h: (g, h)(g', h') =
    (gg', hh'), (g, h)^-1 = (g^-1, h^-1), and (g, h) has order
    lcm(|g|, |h|).  |G||H| is checked against ``ORDER_CAP`` before
    anything is formed.

    Row (g, h) is row g of G with each entry x spread to |H| bytes
    x |H|, plus row h of H repeated |G| times, and the inverses follow
    the rows, formed the same way.  No byte of such a sum passes
    |G||H| - 1 <= 255, so no carry crosses a byte, and all of it is one
    addition of two integers read from bytes, big-endian."""
    (ta, ia, oa), (tb, ib, ob) = a, b
    na, nb = len(ia), len(ib)
    n = na * nb
    check_order(n)
    spread = bytearray(na * n + n)
    scaled = (ta + ia).translate(bytes(range(0, 256, nb)).ljust(256, b"\0"))
    for k in range(nb):
        spread[k::nb] = scaled
    left = [spread[i:i + n] * nb for i in range(0, na * n, n)]
    left.append(spread[na * n:])
    right = b"".join([tb[i:i + nb] * na for i in range(0, nb * nb, nb)]) * na
    both = (int.from_bytes(b"".join(left), "big")
            + int.from_bytes(right + ib * na, "big")).to_bytes(n * n + n, "big")
    lcm = {x: [math.lcm(x, y) for y in ob] for x in set(oa)}
    return (both[:n * n], both[n * n:],
            list(itertools.chain.from_iterable(map(lcm.__getitem__, oa))))


def semidirect_product(G: FiniteGroup, H: FiniteGroup,
                       action: Sequence[Sequence[int]]) -> FiniteGroup:
    """G semidirect H for ``action[h]`` = the automorphism of G applied by h.

    Multiplication: (g1,h1)(g2,h2) = (g1 * action[h1](g2), h1 h2).
    The action is verified to be a homomorphism H -> Aut(G) before building.
    Each automorphism phi is held as bytes, ``phi[g]``: a table translated
    through phi has phi applied to every entry, and phi translated through
    a row of a table is that row read at phi's images.
    """
    nG, nH = G.order, H.order
    check_order(nG * nH)
    # as lists of ints: bytes() of an array row would copy its buffer
    action = [list(phi) for phi in action]
    if len(action) != nH or any(len(phi) != nG for phi in action):
        raise InvalidActionError(
            f"action must map each of {nH} elements of H to a permutation of {nG}"
        )
    if action[0] != list(range(nG)):
        raise InvalidActionError("action of the identity of H is not the identity map")
    grows = [G.table_bytes[i:i + nG].ljust(256, b"\0")
             for i in range(0, nG * nG, nG)]
    acts = []
    for h, phi in enumerate(action):
        if not all(0 <= x < nG for x in phi):
            raise InvalidActionError(f"action of h={h} has an image outside G")
        phi = bytes(phi)
        if len(set(phi)) != nG:
            raise InvalidActionError(f"action of h={h} is not a bijection")
        # phi(ab) == phi(a) phi(b) for every a and b
        if (G.table_bytes.translate(phi.ljust(256, b"\0"))
                != b"".join(phi.translate(grows[x]) for x in phi)):
            raise InvalidActionError(f"action of h={h} does not preserve multiplication")
        acts.append(phi)
    for h1 in range(nH):
        after = acts[h1].ljust(256, b"\0")
        for h2 in range(nH):
            if acts[H.table[h1][h2]] != acts[h2].translate(after):
                raise InvalidActionError(
                    f"action is not a homomorphism at pair ({h1}, {h2})"
                )
    # blocks[h1][x][h2] = x nH + h1 h2, so row (g1, h1) is the block of
    # g1 phi_h1(g2) for each g2
    blocks = [[H.table_bytes[i:i + nH].translate(_SHIFT[x * nH:x * nH + 256])
               for x in range(nG)] for i in range(0, nH * nH, nH)]
    rows = [b"".join(map(blocks[h1].__getitem__, acts[h1].translate(grow)))
            for grow in grows for h1 in range(nH)]
    return FiniteGroup(b"".join(rows), label=f"{G.label} : {H.label}",
                       validate=False)


def trivial_action(G: FiniteGroup, H: FiniteGroup) -> list[list[int]]:
    return [list(range(G.order)) for _ in range(H.order)]


def inversion_action(G: FiniteGroup, H: FiniteGroup) -> list[list[int]]:
    """H of order at most 2 acting on an abelian G, its non-identity
    element by g -> g^-1.  A larger H is refused: making each of its
    non-identity elements invert is a homomorphism only when |H| <= 2."""
    if not G.is_abelian():
        raise DomainError("inversion action requires an abelian base group")
    if H.order > 2:
        raise DomainError("inversion action requires a group of order at most 2")
    return [list(G.inv) if h else list(range(G.order)) for h in range(H.order)]


def from_multiplication_table(table: Sequence[Sequence[int]],
                              label: str = "table") -> FiniteGroup:
    """Validate an n x n grid as a group table, relabeling the identity to 0."""
    t = _join_rows(table)
    n = math.isqrt(len(t))
    ident = bytes(range(n))
    e = next((e for e in range(n)
              if t[e * n:e * n + n] == ident and t[e::n] == ident), None)
    if e is None:
        raise GroupFormatError("no two-sided identity element found")
    if e:
        # swap labels 0 <-> e: row x is row swap[x] read at swap[y] for
        # each y, then each entry is relabelled
        swap = bytearray(range(256))
        swap[0], swap[e] = e, 0
        perm = bytes(swap[:n])
        t = b"".join(perm.translate(t[x * n:x * n + n].ljust(256, b"\0"))
                     for x in perm).translate(swap)
    return FiniteGroup(t, label=label)


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
    """The subgroup of elements commuting with everything, built once and
    stored on G, like ``minimal_normals``: the search's socle bounds
    (``solver._socle_bounds``) and ``solver.is_CS`` read the same one.  An
    element commutes with everything iff it commutes with each of
    ``G.generators()``, so each element is tested against those alone.
    An abelian group is its own centre, with no generators found."""
    if G._center is None:
        if G.is_abelian():
            G._center = G.full_subgroup()
        else:
            table = G.table
            gens = G.generators()
            zs = [z for z, row in enumerate(table)
                  if all(row[g] == table[g][z] for g in gens)]
            G._center = Subgroup(G, list_to_bits(zs))
    return G._center


def core(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """Largest normal subgroup of G inside H: the intersection of all conjugates.

    The conjugates are H's conjugacy class, found by the class search the
    lattice enumeration also uses (``_conjugacy_class``), so each distinct
    conjugate is formed once per generator instead of once per group
    element; in an abelian G, which has no conjugation tables, the class
    is H alone.  Nothing is memoized.  The brute-force oracle
    (``solver.mu_oracle``) calls this on every subgroup of the lattice,
    whose class search has already formed the conjugation tables.  The
    set-cover search does not: its universe is the minimal normal
    subgroups, and a normal N lies in core(H) iff it lies in H (see
    ``solver.cover_sets``).  Nor do the faithfulness checks: they take the
    core of the parts' intersection element by element, with no
    generators or conjugation tables (``solver.parts_kernel_bits``), which
    on a group just built costs less than forming them; the tests hold
    the two equal.
    """
    if H.parent is not G:
        raise DomainError("subgroup does not belong to this group")
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
    An abelian G has no conjugation tables, so each closure is <x>.
    """
    if G._minimal_normals is None:
        table = G.table
        tables = G.conjugation_tables()
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


def perfect_residual(G: FiniteGroup) -> tuple[int, list[int]]:
    """The last term G^(inf) of G's derived series, as a bitset, with
    elements that generate it.  Each term [K, K] is the normal closure in
    K of the commutators of K's generators.  A group whose order has at
    most two prime divisors is solvable (Burnside's p^a q^b theorem), so
    its residual is trivial with no series formed.

    Within ``ORDER_CAP`` the only perfect groups are 1, A5, SL(2,5) and
    PSL(2,7) (Holt and Plesken, *Perfect Groups*, 1989).  Every perfect
    subgroup lies in G^(inf), and the proper subgroups of those three are
    solvable, so G^(inf) and 1 are G's only perfect subgroups."""
    if len(prime_factors(G.order)) <= 2:
        return 1, []
    table, inv = G.table, G.inv
    bits, gens = (1 << G.order) - 1, G.generators()
    while True:
        dgens: list[int] = []
        d = _normal_closure(table, inv, 1, [0], dgens, list_to_bits(
            table[table[inv[a]][inv[b]]][table[a][b]]
            for i, a in enumerate(gens) for b in gens[:i]), gens)
        if d == bits:
            return bits, gens
        bits, gens = d, dgens


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

    Enumeration is Neubüser's cyclic extension on bitsets, one conjugacy
    class at a time (``_cyclic_extension``).  A zuppo is a cyclic subgroup
    <z> of prime-power order; <z^p> is its unique maximal subgroup.  Every
    upper cover T of a subgroup S is a join S v <z> with a zuppo <z> not
    inside S whose <z^p> lies inside S: of the powers of a prime-power part
    of an element of T outside S, the last one outside S is such a z.  So
    the joins of S contain all its upper covers, and every join contains
    one.  S is meet-irreducible iff it has exactly one upper cover, that is
    iff its joins do not intersect in S.

    A subgroup T that is not perfect has a normal subgroup M of prime
    index p, and T = M*<z> for the z above taken in T outside M, which
    normalizes M.  So T, or a conjugate of T, is a normalizing join of the
    representative of M's class, and by induction on the order every
    subgroup is reached from one that is perfect.  Within ``ORDER_CAP``
    those are 1 and the perfect residual G^(inf) (``perfect_residual``),
    the walk's starting classes.  Nothing is avoided: the walk is given a
    bit past G's elements, which no subgroup holds.

    A join with a z that does not normalize S still counts for S's flag
    (in S4, the two S3 above <t>, t a transposition, are joins of <t> with
    transpositions that do not normalize it).  The walk sets each aside as
    its product set S<z>, and it is closed here semi-naively, but only
    while it can still shrink the intersection of S's joins so far: once
    what it holds contains that intersection, so does the subgroup it
    grows into.  Each step multiplies only the elements the last one added
    on the right, by S (through coset masks of S, shared by S's joins and
    formed as they are read, like those of Z = <z>) and by Z in turn.
    Cosets added by *S are already S-closed and those added by *Z are
    Z-closed, so each element is multiplied once by each side, and a set
    holding 1 and closed under both is the subgroup they generate.
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
        start: list[tuple[list[int], list[int]]] = [([1], [])]
        residual, rgens = perfect_residual(G)
        if residual != 1:
            start.append(([residual], rgens))
        flags: dict[int, tuple[bool, bool]] = {}
        for members, inter, closures in _cyclic_extension(G, start, 1 << G.order):
            s = members[0]
            # each of these joins is reached from elsewhere, so it is closed
            # only while it can still shrink inter: semi-naively, cosets
            # added by *S being S-closed and cosets added by *<z> <z>-closed,
            # and no further once what it holds so far contains inter
            smasks = None
            for j, powers, masks in closures:
                new = j & ~s
                while new and inter & ~j:
                    if smasks is None:
                        selems = bits_to_list(s)
                        smasks = [0] * len(table)
                    new = _times(table, new, selems, smasks) & ~j
                    j |= new
                    new = _times(table, new, powers, masks) & ~j
                    j |= new
                inter &= j
            flag = (inter != s, len(members) == 1)
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


_Zuppo = tuple[int, int, list[int], list[int], bool]


def _zuppos(G: FiniteGroup) -> tuple[list[Optional[_Zuppo]], int]:
    """Per element z of prime-power order, data shared by all generators
    of <z>: (bitset of those generators, bitset of <z^p>, the powers of z,
    coset masks of <z> indexed by element, whether <z> is normal); None
    for the other elements.  Also the bitset of every such z.

    The masks start at 0, and each is formed by ``_times`` the first time
    a join reads it, and stored for every element of its coset, so a
    zuppo that no join reads forms no mask."""
    table = G.table
    n = G.order
    conj = G.conjugation_tables()
    zuppo: list[Optional[_Zuppo]] = [None] * n
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
        info = (gens, list_to_bits(powers[::p]), powers, [0] * n,
                all(t[z] & zbits for t in conj))
        for x in bits_to_list(gens):
            zuppo[x] = info
        zmask |= gens
    return zuppo, zmask


# a join with a z that does not normalize the subgroup joined: the product
# set S<z>, the powers of z and the coset masks of <z>
_Closure = tuple[int, list[int], list[int]]


def _cyclic_extension(G: FiniteGroup, work: list[tuple[list[int], list[int]]],
                      avoid: int) -> Iterator[tuple[list[int], int, list[_Closure]]]:
    """Cyclic extension of G's subgroups, one conjugacy class at a time,
    as GAP's LatticeByCyclicExtension does (see ``SubgroupLattice``), from
    the starting classes ``work``, a list it consumes: each a list of
    members, representative first, with elements that generate the
    representative.  Every zuppo and every join that holds the bitset
    ``avoid`` is dropped.  For each class it yields its members, the
    intersection of the representative S's joins with a z that normalizes
    S, and the joins with a z that does not (``_Closure``).  It raises
    ResourceCapError once more than ``LATTICE_SUBGROUP_CAP`` subgroups are
    found, the starting ones included.

    The loop over zuppos is driven by elements (``_zuppos``).  For each S
    the elements still to try start as every such z outside S, and the
    lowest one is taken each time, so elements cleared from that set cost
    nothing.  If <z^p> is not inside S, only the generators of <z> are
    cleared: the other elements of <z> belong to smaller zuppos, <z^p>
    among them.  Otherwise all of the product set S<z> (``_times``) is
    cleared: an element z' of S<z> outside S is s z^k with p not dividing
    k, so <S, z'> = <S, z>.

    Only a class representative goes on to the zuppo loop, carrying
    elements that generate it (those of the representative it was joined
    from, then z).  z normalizes S if S is normal, that is if its class is
    a singleton, or else if z conjugates each carried generator of S into
    S.  Then S v <z> is the product set S<z>, with no closure, and if <z>
    is normal as well (every generator of G conjugates z into <z>, tested
    once per zuppo), S<z> is normal and a class of its own.  Otherwise a
    new join brings in its whole class (``_conjugacy_class``), and every
    member is marked as seen.
    """
    table, inv = G.table, G.inv
    zuppo, todo = _zuppos(G)
    zmask = 0
    while todo:
        z = (todo & -todo).bit_length() - 1
        gens, below, *_ = zuppo[z]
        todo &= ~gens
        if avoid & ~(gens | below):
            zmask |= gens
    seen = {b for members, _ in work for b in members}
    while work:
        members, sgens = work.pop()
        s = members[0]
        normal = len(members) == 1
        inter = -1
        closures: list[_Closure] = []
        todo = zmask & ~s
        while todo:
            z = (todo & -todo).bit_length() - 1
            gens, below, powers, masks, znormal = zuppo[z]
            if (s | below) != s:
                # no generator of <z> qualifies, but other elements of
                # <z> (those of <z^p>, say) may
                todo &= ~gens
                continue
            j = _times(table, s, powers, masks)
            # z' in S<z> outside S can only give this join again
            todo &= ~j
            if j & avoid == avoid:
                continue
            zrow, zinv = table[z], inv[z]
            if not normal and not all(
                    (s >> table[zrow[x]][zinv]) & 1 for x in sgens):
                # nor does any z' just cleared, or z in S<z'> would
                closures.append((j, powers, masks))
                continue
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
        yield members, inter, closures


def _times(table: Sequence[Sequence[int]], x: int, elems: list[int],
           masks: list[int]) -> int:
    """The product set X*Z, from the coset masks of Z (listed in
    ``elems``): the OR of the masks of one representative per coset,
    taking each time the lowest bit a of what is left of X and clearing
    mask[a] from it.  A mask still 0 is formed from a's row and stored
    for every element of its coset."""
    out = 0
    while x:
        a = (x & -x).bit_length() - 1
        m = masks[a]
        if not m:
            coset = list(map(table[a].__getitem__, elems))
            m = sum(map(_BIT.__getitem__, coset))
            for y in coset:
                masks[y] = m
        out |= m
        x &= ~m
    return out


def nilpotent_lattice_top(G: FiniteGroup) -> dict[int, bool]:
    """The subgroups of a nilpotent G of prime-power index at most I, each
    mapped to whether it is meet-irreducible, with no lattice built.  I is
    the least index at which the meet-irreducible subgroups of index at
    most I cover every minimal normal subgroup, a subgroup covering N iff
    it does not contain N.  G itself is flagged meet-irreducible, as in
    ``SubgroupLattice``.

    A subgroup of G is the product of its Sylow parts, and its upper
    covers enlarge one part at a time, so a meet-irreducible subgroup, and
    every subgroup above it, is proper in one Sylow part only.  So only the
    levels of index p^e are formed, in increasing order, starting from G:
    every maximal subgroup of a nilpotent group is normal of prime index,
    and those of index p^e are the maximal subgroups of index p of those of
    index p^(e-1) (``_maximal_subgroups``).  Each is counted once per upper
    cover, all of index p^(e-1), so its count is final when its level is
    formed, and it is meet-irreducible iff the count is 1.  The walk stops
    after the first index at which the meet-irreducible subgroups found so
    far cover every minimal normal; the subgroups of that index are not
    expanded.  ``solver.mu_exact`` says why no cheaper representation needs
    a subgroup of larger index.

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
    # the indices p^e > 1 dividing n, ascending, each with its prime
    steps = sorted((p ** e, p) for p in pth
                   for e in range(1, n.bit_length()) if n % p ** e == 0)
    for m, p in steps:
        if covered == everything:
            break
        # subgroup -> number of upper covers
        parents: dict[int, int] = {}
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
        kgens: list[int] = []
        _extend(table, 1, [0], kgens, k)
        phi = _normal_closure(table, inv, phi, phi_elems, phi_gens, comms, kgens)


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


def least_core_free_subgroup(G: FiniteGroup) -> int:
    """The (index, bitset)-least core-free subgroup of a G with exactly one
    minimal normal subgroup N, as a bitset, with no lattice built.

    (a) Core_G(H) = 1 iff N is not inside H: every nontrivial normal
    subgroup of G contains N.  So the core-free subgroups are those that
    avoid N, a down-set closed under conjugation.

    (b) The least of them, H, is the one candidate the lattice would give
    the search (``solver._candidates``).  H is meet-irreducible: two upper
    covers of H would both contain N, by the least index of H, and they
    meet in H.  Every candidate covers N alone, so dominance keeps just
    the (index, bitset)-least one, which is H.

    (c) The lattice's walk (``_cyclic_extension``) with N to avoid, from
    the trivial subgroup alone, forms every subgroup that avoids N.  Such
    a subgroup is solvable: a non-solvable one contains G's perfect
    residual (see ``perfect_residual``), which is normal and so contains
    N.  A solvable T > 1 has a normal subgroup M of prime index, which
    avoids N too, and T = M<z> for a zuppo z that normalizes M (see
    ``SubgroupLattice``).  The joins with a z that does not normalize the
    subgroup joined are left unclosed.

    A p-group with exactly p - 1 elements of order p (cyclic or
    generalized quaternion) has one subgroup of order p, N, and every
    other nontrivial subgroup contains it, so the answer is the trivial
    subgroup with no walk.
    """
    minimal = minimal_normals(G)
    if len(minimal) != 1:
        raise DomainError(f"{G.label} has {len(minimal)} minimal normal subgroups")
    ps = prime_factors(G.order)
    if len(ps) == 1 and G._element_orders().count(ps[0]) == ps[0] - 1:
        return 1
    return min((b for members, _, _ in _cyclic_extension(G, [([1], [])], minimal[0])
                for b in members), key=lambda b: (-b.bit_count(), b))


def socle(G: FiniteGroup) -> Subgroup:
    """Join of all minimal normal subgroups (``minimal_normals``)."""
    union = reduce(int.__or__, minimal_normals(G), 0)
    return Subgroup(G, G.subgroup_generated_bits(bits_to_list(union)))


# -- derived groups: subgroups as groups ----------------------------------


def subgroup_as_group(H: Subgroup) -> tuple[FiniteGroup, list[int]]:
    """Reindex a subgroup as a standalone FiniteGroup.

    Returns (group, embedding) where embedding[i] is the parent index of the
    i-th element.  The identity stays at index 0 because parent indices are
    sorted and 0 is a member.  The products are read from the parent's
    rows and relabelled by one ``bytes.translate``, which sends an element
    outside H to 255, a position no subgroup below order 256 has.
    """
    G = H.parent
    elems = H.elements()
    k = len(elems)
    relabel = bytearray(b"\xff" * 256)
    for i, x in enumerate(elems):
        relabel[x] = i
    table = G.table
    flat = bytes([table[x][y] for x in elems for y in elems]).translate(relabel)
    if k < 256 and 255 in flat:
        raise DomainError("subset is not closed under the product")
    return FiniteGroup(flat, label=f"{G.label}|sub{k}", validate=False), elems


def abelian_basis(G: FiniteGroup) -> list[tuple[int, int]]:
    """Independent generators realizing the primary decomposition.

    Returns [(element, order)] such that G is the internal direct product of
    the cyclic subgroups generated by the elements (orders are prime powers,
    primes ascending, orders non-increasing within a prime).  It is the
    first half of ``abelian_positions``.
    """
    return abelian_positions(G)[0]


def abelian_positions(G: FiniteGroup) -> tuple[list[tuple[int, int]], list[int]]:
    """(``abelian_basis``, elems): the elements of G listed in mixed-radix
    order of the basis b_i of orders o_i, so elems[j] is the sum of d_i b_i
    over the digits d_i of j, b_1 the least significant:
    j = d_1 + o_1 (d_2 + o_2 (d_3 + ...)).  The coordinates of an element
    are the digits of its position, and no coordinate tuple is formed.

    The basis grows one element at a time, with S = <basis so far> kept as
    a bitset and as the prefix of elems it fills.  For each prime p in
    turn, x is a p-element of the largest order p^f modulo S, found by
    walking each p-element's p-th powers, through one p-th power map,
    until one lies in S; that power is p^f x.  Then p^f x = sum a_i b_i,
    its a_i the digits of its position, and p^f divides each a_i, by
    induction on i: modulo <b_1..b_(i-1)>, where b_i has the largest order
    o_i, x less the earlier corrections has order at most o_i, so p^f times
    it, which is a_i b_i plus independent later terms, has order at most
    o_i / p^f.  So y = x - sum (a_i / p^f) b_i has order p^f and meets S in
    the identity alone, and for t from 1 to p^f - 1 the block t y + S is
    appended, the row of t y read at the elements of S in their order, so
    y's digit is the most significant.  The order of y is checked
    as the basis grows, and the rest at the end, with no subgroup
    generated: elems lists as many products of basis powers as |G| and
    they fill the bitset S kept beside them, so they are distinct and are
    all of G.  No torsion layer is counted and no quotient or subgroup
    table is built, so ``primary_decomposition``, which counts torsion
    layers, stays a check that shares no code with this beyond the element
    orders.
    """
    if not G.is_abelian():
        raise DomainError("abelian basis requires an abelian group")
    n = G.order
    table = G.table
    orders = G._element_orders()
    basis: list[tuple[int, int]] = []
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
        # the p-th power map on the p-elements: 0 on those of order p
        pth = [0] * n
        for x in pel:
            if orders[x] > p:
                y = x
                for _ in range(p - 1):
                    y = table[y][x]
                pth[x] = y
        target = len(elems) * pk
        while len(elems) < target:
            x, m, xm = 0, 1, 0
            for cand in pel:
                if orders[cand] <= m:
                    break
                k, y = 1, cand
                while not (sbits >> y) & 1:
                    y = pth[y]
                    k *= p
                if k > m:
                    x, m, xm = cand, k, y
            # x m = sum a_i b_i, the a_i the digits of xm's position;
            # subtract sum (a_i / m) b_i from x
            w = 0
            j = elems.index(xm)
            for b, o in basis:
                j, a = divmod(j, o)
                if a % m:
                    raise InternalInvariantError("order-preserving lift failed")
                w = table[w][G.power(b, a // m)]
            y = table[x][G.inv[w]]
            if orders[y] != m:
                raise InternalInvariantError("lifted basis element has wrong order")
            rows, z = [], y
            for _ in range(m - 1):
                rows.append(table[z])
                z = table[z][y]
            size = len(elems)
            elems += [row[s] for row in rows for s in elems]
            sbits |= sum(map(_BIT.__getitem__, elems[size:]))
            basis.append((y, m))
    # sanity: product of orders equals |G| and the joint generation is
    # direct: ``elems`` lists that many products of basis powers, so when
    # their bitset is all of G they are distinct and generate it
    if math.prod(o for _, o in basis) != G.order:
        raise InternalInvariantError("abelian basis orders do not multiply to |G|")
    if sbits != (1 << n) - 1:
        raise InternalInvariantError("abelian basis does not generate the group")
    return basis, elems


def character_kernels(G: FiniteGroup) -> list[int]:
    """Bitsets of the meet-irreducible proper subgroups of an abelian G.

    H is meet-irreducible iff G/H is cyclic of prime-power order, so these
    are the kernels of the nontrivial characters of prime-power order.  A
    character of p-power order is given by its values t_i = q chi(b_i) in
    Z/q on the p-part of ``abelian_positions``' basis, q the largest order
    there (it is 0 on the other primes' basis elements); t_i is a multiple
    of q / order(b_i).  Its kernel is the set of x with
    sum t_i d_i(x) = 0 mod q, d_i(x) the i-th coordinate of x.  The cell
    {x: d_i(x) = r} is read off the mixed-radix list of elements: with s
    the product of the orders before b_i, it holds the positions
    r s + a + c s o_i for a < s.  The list is cut into s o_i strided
    slices, one per residue modulo s o_i, or into n / s runs of s
    positions, whichever are fewer, and each cell is the union of s
    adjacent slices or of every o_i-th run.

    The value vectors are walked one basis element at a time, carrying the
    level bitsets {v: elements whose partial sum is v}, so a prefix is
    shared by every vector that extends it and each step is a few bitset
    ANDs.  Characters that generate the same cyclic subgroup have the same
    kernel, and exactly one generator of each has its first value of least
    p-adic valuation equal to a power of p: that one is kept.  The walk
    carries the test down: g, the p-part of the first value of least
    valuation so far (q while every value is 0), and whether that value
    is g itself.  A value that g divides leaves both as they are.  The
    orders of the basis elements do not increase, so no later value has a
    p-part below the next level's q / order(b_i); a prefix whose test has
    failed and cannot be reopened that way is dropped with its subtree.
    Each kernel appears once.
    """
    basis, elems = abelian_positions(G)
    n = G.order
    ones = list(map(_BIT.__getitem__, elems))
    kernels = []
    for p in prime_factors(n):
        part = [i for i, (_, o) in enumerate(basis) if o % p == 0]
        q = basis[part[0]][1]
        steps = [q // basis[i][1] for i in part] + [q]
        # cells[j][r]: the elements whose part[j]-th coordinate is r
        cells = []
        s = math.prod(o for _, o in basis[:part[0]])
        for i in part:
            o = basis[i][1]
            block = s * o
            if s <= n // block:  # block strided slices, each a column
                cols = [sum(ones[a::block]) for a in range(block)]
                cells.append([sum(cols[r * s:r * s + s]) for r in range(o)])
            else:  # n / s runs, each s positions
                runs = [sum(ones[c:c + s]) for c in range(0, n, s)]
                cells.append([sum(runs[r::o]) for r in range(o)])
            s = block
        last = len(part) - 1
        # (level j, its level bitsets, g, whether the first value with
        # p-part g is g); steps[j + 1] is the least p-part of a later value
        stack = [(0, {0: (1 << n) - 1}, q, False)]
        while stack:
            j, levels, g, lead = stack.pop()
            row, step, floor = cells[j], steps[j], steps[j + 1]
            for t in range(0, q, step):
                if t % g:
                    h = math.gcd(t, q)
                    if t != h and h <= floor:
                        continue
                    child = (h, t == h)
                elif lead or g > floor:
                    child = (g, lead)
                else:
                    continue
                if j == last:  # floor is q here, so every child left is kept
                    kernel = 0
                    for r, cell in enumerate(row):
                        kernel |= levels.get(-r * t % q, 0) & cell
                    kernels.append(kernel)
                elif not t:
                    stack.append((j + 1, levels, *child))
                else:
                    new: dict[int, int] = {}
                    for v, b in levels.items():
                        for r, cell in enumerate(row):
                            w = (v + r * t) % q
                            new[w] = new.get(w, 0) | (b & cell)
                    stack.append((j + 1, new, *child))
    return kernels
