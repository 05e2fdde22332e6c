"""Finite groups as explicit multiplication tables, plus the structural
machinery (subgroup lattice, cores, socle, torsion layers) that the degree
solver consumes.

Conventions fixed across the package:
  * elements are indices 0..n-1, identity is always index 0;
  * a subgroup is stored as an n-bit Python int (bit i set <=> element i in H);
  * direct-product element index is g * |H| + h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
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
        for a, row in enumerate(self.table):
            if row.count(0) != 1:
                raise GroupFormatError(f"element {a} has no unique inverse")
        self.inv: tuple[int, ...] = tuple(row.index(0) for row in self.table)
        self._lattice: Optional[SubgroupLattice] = None
        self._mu = None  # the SolveResult solver.mu_exact stores here
        self._gens: Optional[list[int]] = None
        self._orders: Optional[list[int]] = None
        self._abelian: Optional[bool] = None

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
            orders = []
            for a in range(self.order):
                x, k = a, 1
                while x != 0:
                    x = self.mul(x, a)
                    k += 1
                orders.append(k)
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

    def exponent(self) -> int:
        return reduce(math.lcm, self._element_orders(), 1)

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
        frontier = [0]
        table = self.table
        while frontier:
            new = []
            for x in frontier:
                row = table[x]
                for g in gl:
                    y = row[g]
                    if not (member >> y) & 1:
                        member |= 1 << y
                        new.append(y)
            frontier = new
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

    def conjugate_bits(self, bits: int, g: int) -> int:
        """Bitset of g H g^-1."""
        out = 0
        table = self.table
        row = table[g]
        ginv = self.inv[g]
        for x in bits_to_list(bits):
            out |= 1 << table[row[x]][ginv]
        return out

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

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return (self.bits | other.bits) == self.bits

    def is_trivial(self) -> bool:
        return self.bits == 1

    def is_full(self) -> bool:
        return self.order == self.parent.order

    def is_closed(self) -> bool:
        return self.parent.product_set_bits(self.bits, self.bits) == self.bits

    def is_normal(self) -> bool:
        G = self.parent
        return G.is_abelian() or all(G.conjugate_bits(self.bits, g) == self.bits
                                     for g in G.generators())

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.label})"


# -- constructors ---------------------------------------------------------


def make_cyclic(n: int) -> FiniteGroup:
    """The cyclic group Z_n with element i standing for the residue i."""
    if n < 1:
        raise DomainError("cyclic group order must be >= 1")
    idx = np.arange(n)
    mult = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(mult, label=f"C{n}", validate=False)


def make_abelian(factors: Sequence[int]) -> FiniteGroup:
    """Direct product of cyclic groups over ``factors`` (empty -> trivial)."""
    if not factors:
        return make_cyclic(1)
    for f in factors:
        if f < 2:
            raise DomainError("abelian factors must each be >= 2")
    G = make_cyclic(factors[0])
    for f in factors[1:]:
        G = direct_product(G, make_cyclic(f))
    G.label = "Ab(" + ",".join(str(f) for f in factors) + ")"
    return G


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: indices 0..n-1 are r^i, n..2n-1 are s r^i."""
    if n < 3:
        raise DomainError("dihedral parameter must be >= 3")
    m = 2 * n
    mult = np.empty((m, m), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            mult[a, b] = (a + b) % n                  # r^a r^b
            mult[a, n + b] = n + (b - a) % n          # r^a (s r^b) = s r^(b-a)
            mult[n + a, b] = n + (a + b) % n          # (s r^a) r^b
            mult[n + a, n + b] = (b - a) % n          # (s r^a)(s r^b) = r^(b-a)
    return FiniteGroup(mult, label=f"D{n}", validate=False)


def make_generalized_quaternion(order: int) -> FiniteGroup:
    """Generalized quaternion group Q_{2^k}; indices 0..m-1 are x^a, m..2m-1 are x^a y."""
    if order < 8 or order & (order - 1):
        raise DomainError("generalized quaternion order must be a power of two >= 8")
    m = order // 2
    half = m // 2
    mult = np.empty((order, order), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            mult[a, b] = (a + b) % m                      # x^a x^b
            mult[a, m + b] = m + (a + b) % m              # x^a (x^b y)
            mult[m + a, b] = m + (a - b) % m              # (x^a y) x^b = x^(a-b) y
            mult[m + a, m + b] = (a - b + half) % m       # (x^a y)(x^b y)
    return FiniteGroup(mult, label=f"Q{order}", validate=False)


def make_symmetric(n: int) -> FiniteGroup:
    """S_n on permutation tuples in lexicographic order (identity first)."""
    if not 1 <= n <= 5:
        raise DomainError("symmetric group parameter must be in 1..5")
    import itertools

    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # (p q)[k] = p[q[k]]
    mult = np.array([[index[tuple(map(p.__getitem__, q))] for q in perms]
                     for p in perms], dtype=np.int64)
    return FiniteGroup(mult, label=f"S{n}", validate=False)


def make_SL2(p: int) -> FiniteGroup:
    """SL(2,p): determinant-1 matrices over GF(p), identity matrix first."""
    if p not in (2, 3, 5):
        raise DomainError("SL(2,p) supported only for p in {2, 3, 5}")
    mats = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p == 1:
                        mats.append((a, b, c, d))
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
    return FiniteGroup(mult, label=f"SL(2,{p})", validate=False)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """G x H with pair index g*|H| + h."""
    check_order(G.order * H.order)
    nH = H.order
    mult = (G.mult[:, None, :, None] * nH + H.mult[None, :, None, :]).reshape(
        G.order * nH, G.order * nH
    )
    return FiniteGroup(mult, label=f"{G.label} x {H.label}", validate=False)


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
    ``G.generators()``, so each element is tested against those alone."""
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
    checks do: ``solver.kernel_bits`` takes the core of the intersection of
    a representation's parts, and it runs on the witness
    ``_branch_and_bound`` returns and on the witness of every ``batch``
    cache hit.
    """
    if H.parent is not G:
        raise DomainError("subgroup does not belong to this group")
    if G.is_abelian():
        return H
    return Subgroup(G, reduce(int.__and__, _conjugacy_class(G, H.bits)))


def _conjugacy_class(G: FiniteGroup, bits: int) -> list[int]:
    """The conjugacy class of the subgroup ``bits``, ``bits`` first, found
    by breadth-first search under ``G.generators()``."""
    members = [bits]
    seen = {bits}
    gens = G.generators()
    for P in members:  # the list grows while it is scanned
        for g in gens:
            K = G.conjugate_bits(P, g)
            if K not in seen:
                seen.add(K)
                members.append(K)
    return members


def torsion_layer(G: FiniteGroup, m: int) -> Subgroup:
    """G[m] = elements x with x^m = identity; requires G abelian."""
    if not G.is_abelian():
        raise DomainError("torsion layer is defined for abelian groups only")
    if m < 1:
        raise DomainError("torsion parameter must be positive")
    bits = 0
    for x in range(G.order):
        if m % G.element_order(x) == 0:
            bits |= 1 << x
    return Subgroup(G, bits)


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


def primary_decomposition(G: FiniteGroup) -> PrimaryDecomposition:
    """Recover the prime-power cyclic factors via torsion-layer index counts.

    The number of factors of order >= p^t equals log_p [G[p^t] : G[p^(t-1)]].
    """
    if not G.is_abelian():
        raise DomainError("primary decomposition is defined for abelian groups only")
    factors: list[int] = []
    for p in prime_factors(G.order):
        counts = []  # counts[t-1] = number of factors of order >= p^t
        t = 1
        prev = 1
        while True:
            cur = torsion_layer(G, p ** t).order
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
    bitset, the bitset of <z^p>, the coset masks of <z>).  For each S the
    elements still to try start as every such z outside S, and the lowest
    one is taken each time, so elements cleared from that set cost nothing.
    If <z^p> is not inside S, only the generators of <z> are cleared: the
    other elements of <z> belong to smaller zuppos, <z^p> among them.
    Otherwise all of the product set S<z> is cleared: an element z' of S<z>
    outside S is s z^k with p not dividing k, so <S, z'> = <S, z>.

    Joins work on coset masks: for each zuppo Z and element a, the bitset
    of the coset aZ.  The product set X*Z is the OR of the masks of one
    representative per coset, taking each time the lowest bit a of what is
    left of X and clearing mask[a] from it.

    The lattice is enumerated one conjugacy class at a time, as GAP's
    LatticeByCyclicExtension does: only a class representative goes on to
    the zuppo loop.  One rule decides how a join is formed.  If S and Z are
    both normal, S v Z is S*Z, a normal subgroup and a class of its own.
    S is normal iff its class is a singleton; Z = <z> is normal iff every
    generator of G conjugates z into Z, tested once per zuppo.  Otherwise
    S*Z is closed semi-naively: only the elements the last step added are
    multiplied on the right, by S (through coset masks of S, built once per
    S) and by Z in turn, until a step adds nothing.  Cosets added by *S are
    already S-closed and those added by *Z are Z-closed, so each element is
    multiplied once by each side.  A set holding 1 and closed under both is
    the subgroup they generate.  A new join then brings in its whole class
    (``_conjugacy_class``), and every member is marked as seen.
    Conjugation is an automorphism of the lattice, so it maps the upper
    covers of a subgroup onto those of its conjugate, and the
    representative's meet-irreducible flag is given to its whole class.
    No core is computed here (see ``core``), and upper covers are found on
    demand (``minimal_strict_supergroups``).

    Enumeration raises ResourceCapError once more than
    ``LATTICE_SUBGROUP_CAP`` subgroups are found.

    Subgroups are sorted by (order, bitset) so indices are deterministic.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        flags = self._enumerate()
        all_bits = sorted(flags, key=lambda b: (b.bit_count(), b))
        self.subgroups = [Subgroup(group, b) for b in all_bits]
        self.index_of = {b: i for i, b in enumerate(all_bits)}
        self._meet_irr = [flags[b][0] for b in all_bits]
        self.normal_flags = [flags[b][1] for b in all_bits]
        self.minimal_normals = self._minimal_normals()

    def _enumerate(self) -> dict[int, tuple[bool, bool]]:
        """Every subgroup's bitset -> (meet-irreducible, normal)."""
        G = self.group
        n = G.order
        table = G.table
        conj = [(table[g], G.inv[g]) for g in G.generators()]
        # per element z of prime-power order, shared by all generators of
        # <z>: (bitset of those generators, bitset of <z^p>, coset masks of
        # <z> indexed by element, whether <z> is normal)
        zuppo: list[Optional[tuple[int, int, list[int], bool]]] = [None] * n
        zmask = 0
        for z, k in enumerate(G._element_orders()):
            if zuppo[z] is not None or not is_prime_power(k):
                continue
            powers = [0]
            while len(powers) < k:
                powers.append(table[powers[-1]][z])
            p = _smallest_prime_factor(k)
            gens = list_to_bits(x for e, x in enumerate(powers) if e % p)
            znormal = all(table[row[z]][ginv] in powers for row, ginv in conj)
            info = (gens, list_to_bits(powers[::p]), _coset_masks(table, powers), znormal)
            for x in bits_to_list(gens):
                zuppo[x] = info
            zmask |= gens

        flags: dict[int, tuple[bool, bool]] = {}
        seen = {1}
        # conjugacy classes still to join, representative first
        work = [[1]]
        while work:
            members = work.pop()
            s = members[0]
            normal = len(members) == 1
            smasks = None
            inter = -1
            todo = zmask & ~s
            while todo:
                gens, below, masks, znormal = zuppo[(todo & -todo).bit_length() - 1]
                if (s | below) != s:
                    # no generator of <z> qualifies, but other elements of
                    # <z> (those of <z^p>, say) may
                    todo &= ~gens
                    continue
                j = _times(s, masks)
                # z' in S<z> outside S is s z^k with p not dividing k, so
                # <S, z'> = <S, z>: z' can only give this join again
                todo &= ~j
                # the product of two normal subgroups is a normal subgroup
                both = normal and znormal
                if not both:
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
                    # class, j included, into seen
                    cls = [j] if both else _conjugacy_class(G, j)
                    seen.update(cls)
                    if len(seen) > LATTICE_SUBGROUP_CAP:
                        raise ResourceCapError(
                            f"{G.label} has more than {LATTICE_SUBGROUP_CAP}"
                            " subgroups"
                        )
                    work.append(cls)
            flag = (inter != s, normal)
            for K in members:
                flags[K] = flag
        return flags

    def __len__(self) -> int:
        return len(self.subgroups)

    def subgroup_index(self, H: Subgroup) -> int:
        try:
            return self.index_of[H.bits]
        except KeyError:
            raise DomainError("subgroup is not a member of this lattice") from None

    def _minimal_normals(self) -> list[int]:
        # a normal subgroup that is not minimal contains a minimal one, of
        # smaller order and so already found.  N & M is normal, so for each
        # minimal M it is 1 or M: N contains none iff it meets their union
        # in the identity alone
        out = []
        union = 1
        for i, normal in enumerate(self.normal_flags):
            b = self.subgroups[i].bits
            if normal and b != 1 and b & union == 1:
                out.append(i)
                union |= b
        return out

    def is_meet_irreducible(self, H: Subgroup) -> bool:
        i = self.subgroup_index(H)
        return self.meet_irreducible_flags()[i]

    def meet_irreducible_flags(self) -> list[bool]:
        """Per subgroup: True iff it has exactly one upper cover (or is G)."""
        return self._meet_irr

    def minimal_strict_supergroups(self, i: int) -> list[int]:
        """Lattice indices of the upper covers of subgroup i, ascending."""
        subs = self.subgroups
        bi = subs[i].bits
        covers = []
        for j in range(i + 1, len(subs)):
            bj = subs[j].bits
            # a supergroup that is not a cover contains a cover, of smaller
            # order and so already found
            if (bj | bi) == bj and not any(
                    (bj | subs[c].bits) == bj for c in covers):
                covers.append(j)
        return covers


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


def socle(G: FiniteGroup) -> Subgroup:
    """Join of all nontrivial minimal normal subgroups (trivial for |G| = 1)."""
    lat = G.lattice()
    union = reduce(int.__or__, (lat.subgroups[i].bits for i in lat.minimal_normals), 0)
    return Subgroup(G, G.subgroup_generated_bits(bits_to_list(union)))


# -- derived groups: subgroups and quotients as groups --------------------


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


def quotient_group(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, list[int]]:
    """G/N for normal N.  Returns (quotient, projection) with projection[g]
    the quotient index of the coset gN; the identity coset has index 0."""
    if not N.is_normal():
        raise DomainError("quotient requires a normal subgroup")
    proj = [-1] * G.order
    cosets = []
    for g in range(G.order):
        if proj[g] >= 0:
            continue
        idx = len(cosets)
        members = [G.mul(g, x) for x in N.elements()]
        for m in members:
            proj[m] = idx
        cosets.append(min(members))
    k = len(cosets)
    mult = np.empty((k, k), dtype=np.int64)
    for i, a in enumerate(cosets):
        for j, b in enumerate(cosets):
            mult[i, j] = proj[G.mul(a, b)]
    return FiniteGroup(mult, label=f"{G.label}/N{N.order}", validate=False), proj


def abelian_basis(G: FiniteGroup) -> list[tuple[int, int]]:
    """Independent generators realizing the primary decomposition.

    Returns [(element, order)] such that G is the internal direct product of
    the cyclic subgroups generated by the elements (orders are prime powers).
    """
    if not G.is_abelian():
        raise DomainError("abelian basis requires an abelian group")
    basis: list[tuple[int, int]] = []
    for p in prime_factors(G.order):
        pk = 1
        n = G.order
        while n % p == 0:
            pk *= p
            n //= p
        comp = torsion_layer(G, pk)
        Gp, embed = subgroup_as_group(comp)
        for idx, o in _abelian_p_basis(Gp, p):
            basis.append((embed[idx], o))
    # sanity: product of orders equals |G| and the joint generation is direct
    if math.prod(o for _, o in basis) != G.order:
        raise InternalInvariantError("abelian basis orders do not multiply to |G|")
    if G.subgroup_generated_bits([g for g, _ in basis]) != (1 << G.order) - 1:
        raise InternalInvariantError("abelian basis does not generate the group")
    return basis


def _abelian_p_basis(G: FiniteGroup, p: int) -> list[tuple[int, int]]:
    """Basis of an abelian p-group: peel off a maximal-order cyclic factor
    and recurse on the quotient, lifting basis elements order-preservingly."""
    if G.order == 1:
        return []
    b1 = max(range(G.order), key=G.element_order)
    o1 = G.element_order(b1)
    N = Subgroup(G, G.subgroup_generated_bits([b1]))
    Q, proj = quotient_group(G, N)
    # representative of each quotient element
    reps = [-1] * Q.order
    for g in range(G.order):
        if reps[proj[g]] < 0:
            reps[proj[g]] = g
    out = [(b1, o1)]
    for qidx, qord in _abelian_p_basis(Q, p):
        x = reps[qidx]
        # fix the representative so its order matches the quotient order:
        # x^qord lies in <b1>, say b1^u; maximality of o1 makes u divisible
        # by qord, so y = x * b1^(-u/qord) has order exactly qord.
        xq = G.power(x, qord)
        u = 0
        cur = 0
        while cur != xq:
            cur = G.mul(cur, b1)
            u += 1
        if u % qord != 0:
            raise InternalInvariantError("order-preserving lift failed")
        y = G.mul(x, G.power(G.inverse(b1), u // qord))
        if G.element_order(y) != qord:
            raise InternalInvariantError("lifted basis element has wrong order")
        out.append((y, qord))
    return out
