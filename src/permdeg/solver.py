"""Exact computation of the minimal faithful permutation degree mu(G),
a brute-force oracle, and executable forms of the additivity, socle,
semidirect and compression-ratio results.

Throughout, a representation is a multiset of subgroups {H_1..H_m} standing
for the action of G on the disjoint union of the coset spaces G/H_i; it is
faithful iff the intersection of the cores of the H_i is trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Optional, Sequence

from .errors import (
    DomainError,
    InternalInvariantError,
    PreconditionError,
    ResourceCapError,
)
from .groups import (
    FiniteGroup,
    PrimaryDecomposition,
    Subgroup,
    abelian_basis,
    bits_to_list,
    center,
    character_kernels,
    core,
    direct_product,
    is_nilpotent,
    is_prime_power,
    least_core_free_subgroup,
    list_to_bits,
    minimal_normals,
    nilpotent_lattice_top,
    prime_factors,
    primary_decomposition,
    semidirect_product,
    socle,
    subgroup_as_group,
)

ORACLE_CAP = 48


@dataclass(frozen=True)
class Representation:
    """A multiset of subgroups of ``parent``; degree is the sum of indices."""

    parent: FiniteGroup
    parts: tuple[Subgroup, ...]

    def __post_init__(self):
        for H in self.parts:
            if H.parent is not self.parent:
                raise DomainError("all parts must be subgroups of the parent group")


def representation(parent: FiniteGroup, parts: Sequence[Subgroup]) -> Representation:
    return Representation(parent, tuple(parts))


def degree(R: Representation) -> int:
    return sum(H.index for H in R.parts)


def parts_kernel_bits(G: FiniteGroup, parts: Iterable[int]) -> int:
    """Bitset of the kernel of G's action on the cosets of the subgroups
    ``parts`` (bitsets): the core of their intersection I, which equals
    the intersection of their cores.  It is 1 when I is, and otherwise
    the x in I whose every conjugate g x g^-1 lies in I, read from
    ``G.table`` and ``G.inv`` a conjugate at a time, each x dropped at its
    first conjugate outside I.  So no generators, conjugation tables or
    class search are formed: a ``batch`` cache hit, which checks a
    witness on a group it has just built, needs none of them.  Every
    faithfulness test reads this: ``kernel_bits`` and the check of a
    cached witness (``cli._witness_problem``)."""
    inter = reduce(int.__and__, parts, (1 << G.order) - 1)
    if inter == 1:
        return 1
    table = G.table
    kernel = 1
    for x in bits_to_list(inter ^ 1):
        for row, g_inv in zip(table, G.inv):
            if not (inter >> table[row[x]][g_inv]) & 1:
                break
        else:
            kernel |= 1 << x
    return kernel


def kernel_bits(R: Representation) -> int:
    """Bitset of the kernel of the coset-action homomorphism, from the
    parts' bitsets (``parts_kernel_bits``)."""
    return parts_kernel_bits(R.parent, (H.bits for H in R.parts))


def is_faithful(R: Representation) -> bool:
    return kernel_bits(R) == 1


def realize_action(R: Representation) -> list[tuple[int, ...]]:
    """The coset-action permutation of every group element, as tuples over
    the disjoint union of the coset spaces (blocks in part order)."""
    G = R.parent
    n = G.order
    blocks = []
    offset = 0
    for H in R.parts:
        coset_idx = [-1] * n
        reps = []
        for g in range(n):
            if coset_idx[g] == -1:
                ci = len(reps)
                for x in H.elements():
                    coset_idx[G.mul(g, x)] = ci
                reps.append(g)
        blocks.append((reps, coset_idx, offset))
        offset += len(reps)
    out = []
    for g in range(n):
        perm = [0] * offset
        for reps, coset_idx, off in blocks:
            for ci, rep in enumerate(reps):
                perm[off + ci] = off + coset_idx[G.mul(g, rep)]
        out.append(tuple(perm))
    return out


def cover_sets(minimal: Sequence[int], subgroups: Iterable[int]) -> list[int]:
    """For each subgroup bitset H in ``subgroups``, the bitmask over the
    minimal normal subgroups N (bitsets ``minimal``, bit k for N_k) with N
    not contained in the core of H.  No core is computed: a normal N lies
    in the core of H iff it lies in H, so the test is containment in H
    itself.

    A representation is faithful iff the union of its parts' masks is full.
    """
    out = []
    for hb in subgroups:
        mask = 0
        for k, nb in enumerate(minimal):
            if (hb | nb) != hb:
                mask |= 1 << k
        out.append(mask)
    return out


@dataclass(frozen=True)
class SolveResult:
    mu: int
    witness: Representation
    nodes_explored: int = 0
    candidates_considered: int = 0


def _trivial_result(G: FiniteGroup) -> SolveResult:
    # mu(trivial) = 1 by convention: it embeds in S_1
    return SolveResult(mu=1, witness=representation(G, [G.trivial_subgroup()]))


def mu_exact(G: FiniteGroup) -> SolveResult:
    """Exact mu(G) by branch-and-bound weighted set cover.

    Universe: minimal normal subgroups.  Candidates: meet-irreducible
    subgroups with nonempty cover set, dominance-pruned.  Both come as
    bitsets (``_minimal_and_meet_irreducible``): the universe from
    ``minimal_normals``, the candidates from one of four sources: the least
    core-free subgroup for a G with one minimal normal N, found by the
    lattice's own walk with N avoided, the kernels of the characters of
    prime-power order for any other abelian G, the top of the subgroup
    lattice for any other nilpotent G, and the whole lattice for the rest.  Everything after that is shared: cover masks,
    dominance pruning, the bounds, the search and the witness check.

    The top of the lattice of a nilpotent G (``nilpotent_lattice_top``)
    ends at the least index I whose meet-irreducible subgroups cover every
    minimal normal, and that loses nothing.  Every minimal normal of G is
    central of prime order, and a meet-irreducible candidate covers the
    points outside a hyperplane of one prime's layer of the central
    socle, so a cheapest cover is a cheapest basis of a matroid: taking
    candidates in cost order, each when it covers a point still left, gives
    one (Edmonds 1971; Elias, Silberman and Takloo-Bighash, Experiment.
    Math. 19, 2010).  Once that greedy has passed the candidates of index
    at most I, they have covered every point, so it never takes one of
    larger index.  The greedy seed
    and bound B both take, in each layer, its cheapest candidate covering
    something new, and bound B closes the search at the root, so mu, the
    node count and the witness are those of the whole lattice; only the
    candidate count is smaller.

    Branching picks the uncovered universe element with fewest candidates.
    A node is cut when its cost plus the largest of three admissible
    bounds on the rest reaches the incumbent.  They are tested cheapest
    first, each formed only when those before it leave the node open: the
    cheapest cover of the costliest uncovered element, then the two socle
    bounds (``_socle_bounds``), B, the cheapest basis of the hyperplane
    matroid on the uncovered central socle, and last A, the least faithful
    degree of the abelian part of the uncovered socle, which forms product
    sets.  A node is cut iff one of them reaches the incumbent, so the
    order changes no cut, node or witness.  A memo on the uncovered mask
    prunes re-derivations reached by another candidate order at no less
    cost.

    The result is stored on G, like its lattice: each group object is
    searched once, and every later call returns the same (frozen)
    SolveResult.  An independent recomputation needs a group that holds no
    mu yet, a freshly built one or the group of a ``batch`` cache hit,
    which never solves, or ``mu_oracle``, which never reads the stored
    result.
    """
    if G._mu is None:
        G._mu = (_trivial_result(G) if G.order == 1
                 else _search(G, *_minimal_and_meet_irreducible(G)))
    return G._mu


def _minimal_and_meet_irreducible(G: FiniteGroup) -> tuple[list[int], list[int]]:
    """(``minimal_normals``, meet-irreducible bitsets) of G, the latter
    from one of four sources, none but the last building a lattice.  A G
    with one minimal normal N gives only its (index, bitset)-least
    subgroup that avoids N (``least_core_free_subgroup``), which is
    meet-irreducible and the one candidate dominance would keep from the
    lattice: every candidate covers N alone.  For an abelian G, H is
    meet-irreducible iff G/H is cyclic of prime-power order, that is iff H
    is G or the kernel of a character of prime-power order
    (``character_kernels``); G itself covers nothing, so it is left out.
    Any other nilpotent G forms only the top of its lattice, down to the
    least index where its meet-irreducible subgroups cover every minimal
    normal (``nilpotent_lattice_top``; ``mu_exact`` says why that is
    enough).  The rest read them off the subgroup lattice.
    """
    minimal = minimal_normals(G)
    if len(minimal) == 1:
        return minimal, [least_core_free_subgroup(G)]
    if G.is_abelian():
        return minimal, character_kernels(G)
    if is_nilpotent(G):
        return minimal, [b for b, f in nilpotent_lattice_top(G).items() if f]
    lat = G.lattice()
    return minimal, [b for b, f in zip(lat.bits, lat.meet_irreducible_flags()) if f]


def _candidates(G: FiniteGroup, minimal: list[int],
                meet_irr: list[int]) -> list[tuple[int, int, int]]:
    """The search's candidates as (cost, bitset, cover mask), sorted by
    (cost, order, bitset), the lattice's index order within a cost:
    meet-irreducible subgroups that cover something, with those dominated
    by an earlier candidate removed.  The order is |G| / cost, so the
    tuples sort on (cost, bitset) alone."""
    n = G.order
    raw = sorted((n // hb.bit_count(), hb, cov)
                 for hb, cov in zip(meet_irr, cover_sets(minimal, meet_irr))
                 if cov)
    # dominance: drop a candidate if an earlier one, which costs no more,
    # covers a superset
    cands: list[tuple[int, int, int]] = []
    for cand in raw:
        cov = cand[2]
        for _, _, kcov in cands:
            if kcov | cov == kcov:
                break
        else:
            cands.append(cand)
    return cands


def _socle_bounds(G: FiniteGroup, minimal: list[int],
                  cands: list[tuple[int, int, int]]):
    """The two socle bounds of the search, as the pair of functions (A, B)
    of the uncovered mask.  Each is a lower bound on the cost of the parts
    that still have to cover it.  They read only the candidates, the
    minimal normal bitsets and Z(G), which ``center`` stores on G, so
    ``is_CS`` reads the same one.  B costs a pass over the candidates; A
    forms a product set per uncovered minimal normal of prime-power order,
    so the search asks for it last.

    A: the uncovered minimal normals of p-power order generate an
    elementary abelian A_p, and the rest of the cover must act faithfully
    on the product of the A_p, so its degree is at least the sum of
    p * rank(A_p) (Johnson 1971).  This holds at every node, not only at
    the root: the uncovered set is exactly the minimal normals inside K,
    the intersection of the chosen parts' cores, so A_p <= K, every minimal
    normal inside A_p is uncovered too, and every completion acts faithfully
    on A_p.

    B: on the central minimal normals (the points of the p-torsion of the
    central socle), a meet-irreducible candidate covers the complement of a
    hyperplane of one prime's layer: its only upper cover contains every
    central element of prime order outside it.  The uncovered central
    points form a subspace W, and finishing the cover means choosing
    functionals that span W*.  That is a matroid, so taking candidates in
    cost order, each when it covers a point still left, gives the cheapest
    basis exactly (Edmonds 1971).
    """
    zbits = center(G).bits
    central = list_to_bits(k for k, nb in enumerate(minimal) if nb & zbits == nb)
    # the prime of each minimal normal of prime-power order, else 0
    prime = []
    for nb in minimal:
        ps = prime_factors(nb.bit_count())
        prime.append(ps[0] if len(ps) == 1 else 0)

    def bound_a(uncovered: int) -> int:
        a = 0
        products: dict[int, int] = {}
        for k in bits_to_list(uncovered):
            p = prime[k]
            if p:
                prod = products.get(p, 1)
                # N_k meets the normal subgroup prod in a normal subgroup,
                # trivial unless N_k <= prod, so an N_k outside it adds its rank
                if minimal[k] & ~prod:
                    products[p] = G.product_set_bits(prod, minimal[k])
                    a += p * round(math.log(minimal[k].bit_count(), p))
        return a

    def bound_b(uncovered: int) -> int:
        b = 0
        rem = uncovered & central
        for cost, _, cov in cands:
            if not rem:
                break
            if cov & rem:
                b += cost
                rem &= ~cov
        return b

    return bound_a, bound_b


def _root_bounds(G: FiniteGroup) -> tuple[int, int]:
    """The socle bounds (A, B) with every minimal normal uncovered."""
    minimal, meet_irr = _minimal_and_meet_irreducible(G)
    cands = _candidates(G, minimal, meet_irr)
    full = (1 << len(minimal)) - 1
    bound_a, bound_b = _socle_bounds(G, minimal, cands)
    return bound_a(full), bound_b(full)


def _search(G: FiniteGroup, minimal: list[int],
            meet_irr: list[int]) -> SolveResult:
    """The set-cover search of ``mu_exact`` over the minimal normals
    ``minimal`` with candidates drawn from ``meet_irr``, whatever their
    source.

    One pass over the candidates in cost order gives each minimal normal
    its cheapest cover and checks that every one has some.  Each node
    tests the bounds cheapest first and stops at the first that cuts it:
    the cheapest cover of its costliest uncovered element, then bound B,
    then bound A, whose product sets are formed only at a node the other
    two leave open.  Where the socle is central, B is mu itself at the
    root, so such a search whose greedy seed is optimal ends there with
    no A formed.  The lists of candidates covering each minimal normal,
    which only branching reads, are built at the first node the bounds
    leave open: a search the root bounds close, as they close every
    abelian one, never builds them."""
    cands = _candidates(G, minimal, meet_irr)
    bound_a, bound_b = _socle_bounds(G, minimal, cands)
    u = len(minimal)
    full = (1 << u) - 1
    # candidates are in cost order, so the first to cover an element is its
    # cheapest
    mincost = [0] * u
    covered = 0
    for cost, _, cov in cands:
        for k in bits_to_list(cov & ~covered):
            mincost[k] = cost
        covered |= cov
        if covered == full:
            break
    if covered != full:
        raise InternalInvariantError(
            "a minimal normal subgroup is covered by no meet-irreducible subgroup"
        )

    # greedy seed: cheapest cost per newly covered element, the costs per
    # element compared by cross-multiplication.  Ties go to the larger
    # cost, then to the smaller (order, bitset), the lattice's index order:
    # candidates ascend by (cost, bitset), so at an equal cost the first
    # one met is kept
    uncovered = full
    best_cost, best_chosen = 0, []
    while uncovered:
        best, bcost, bnew = -1, 0, 0
        for p, (cost, _, cov) in enumerate(cands):
            new = (cov & uncovered).bit_count()
            if new and (best < 0 or cost * bnew < bcost * new
                        or (cost * bnew == bcost * new and cost > bcost)):
                best, bcost, bnew = p, cost, new
        best_chosen.append(best)
        best_cost += bcost
        uncovered &= ~cands[best][2]

    memo: dict[int, int] = {}
    nodes = 0
    cands_for: Optional[list[list[int]]] = None  # built at the first open node

    def dfs(uncovered: int, cost: int, chosen: list[int]) -> None:
        nonlocal best_cost, best_chosen, nodes, cands_for
        nodes += 1
        prev = memo.get(uncovered)
        if prev is not None and prev <= cost:
            return
        memo[uncovered] = cost
        left = bits_to_list(uncovered)
        # the cut on the largest bound, its bounds tested cheapest first:
        # each is formed only when those before it leave the node open
        if (cost + max(mincost[k] for k in left) >= best_cost
                or cost + bound_b(uncovered) >= best_cost
                or cost + bound_a(uncovered) >= best_cost):
            return
        if cands_for is None:
            cands_for = [[] for _ in range(u)]
            for pos, (_, _, cov) in enumerate(cands):
                for j in bits_to_list(cov):
                    cands_for[j].append(pos)
        k = min(left, key=lambda k: len(cands_for[k]))
        for p in cands_for[k]:
            ccost, _, ccov = cands[p]
            new_uncovered = uncovered & ~ccov
            new_cost = cost + ccost
            if new_uncovered == 0:
                if new_cost < best_cost:
                    best_cost = new_cost
                    best_chosen = chosen + [p]
            else:
                dfs(new_uncovered, new_cost, chosen + [p])

    dfs(full, 0, [])
    parts = sorted(cands[p] for p in best_chosen)
    witness = representation(G, [Subgroup(G, hb) for _, hb, _ in parts])
    if degree(witness) != best_cost or not is_faithful(witness):
        raise InternalInvariantError("solver produced an invalid witness")
    return SolveResult(mu=best_cost, witness=witness, nodes_explored=nodes,
                       candidates_considered=len(cands))


def check_oracle_order(G: FiniteGroup) -> None:
    """Refuse a group above ``ORACLE_CAP`` before any oracle work starts."""
    if G.order > ORACLE_CAP:
        raise ResourceCapError(f"oracle restricted to order <= {ORACLE_CAP}")


def mu_oracle(G: FiniteGroup) -> SolveResult:
    """Independent brute force: exhaustive cost-bounded DFS over subsets of
    ALL subgroups, with no meet-irreducible restriction and no dominance
    pruning.  Only valid up to order 48."""
    check_oracle_order(G)
    if G.order == 1:
        return _trivial_result(G)
    lat = G.lattice()
    n = G.order
    subs = sorted(range(len(lat)),
                  key=lambda i: (n // lat.subgroups[i].order, i))
    costs = [n // lat.subgroups[i].order for i in subs]
    cores = [core(G, lat.subgroups[i]).bits for i in subs]
    full = (1 << n) - 1
    best_cost = n + 1
    best_chosen: list[int] = []
    nodes = 0

    def dfs(start: int, inter: int, cost: int, chosen: list[int]) -> None:
        nonlocal best_cost, best_chosen, nodes
        for j in range(start, len(subs)):
            new_cost = cost + costs[j]
            if new_cost >= best_cost:
                return  # costs ascending: nothing later can be cheaper
            new_inter = inter & cores[j]
            if new_inter == inter:
                continue  # adding a subgroup that shrinks nothing never helps
            nodes += 1
            if new_inter == 1:
                best_cost = new_cost
                best_chosen = chosen + [j]
            elif new_cost + 2 < best_cost:
                # any further shrink needs a proper subgroup, index >= 2
                dfs(j + 1, new_inter, new_cost, chosen + [j])

    dfs(0, full, 0, [])
    if best_cost > n:
        raise InternalInvariantError("oracle failed to find the regular representation")
    witness = representation(G, [lat.subgroups[subs[j]] for j in best_chosen])
    if degree(witness) != best_cost or not is_faithful(witness):
        raise InternalInvariantError("oracle produced an invalid witness")
    return SolveResult(mu=best_cost, witness=witness, nodes_explored=nodes,
                       candidates_considered=len(subs))


# -- abelian formula ------------------------------------------------------


def m_value(d: PrimaryDecomposition) -> int:
    """Sum of the prime-power factors; 1 for the trivial decomposition,
    matching the mu(trivial) = 1 convention."""
    return sum(d.factors) if d.factors else 1


def mu_abelian(G: FiniteGroup) -> int:
    if not G.is_abelian():
        raise DomainError("mu_abelian requires an abelian group")
    mu = m_value(primary_decomposition(G))
    w = abelian_witness(G)
    if degree(w) != mu or not is_faithful(w):
        raise InternalInvariantError("abelian witness does not match m(G)")
    return mu


def abelian_witness(G: FiniteGroup) -> Representation:
    """The explicit minimal representation: with basis g_1..g_k realizing the
    primary decomposition, part H_j is generated by every g_i except g_j."""
    if not G.is_abelian():
        raise DomainError("abelian witness requires an abelian group")
    if G.order == 1:
        return representation(G, [G.trivial_subgroup()])
    basis = abelian_basis(G)
    parts = []
    for j in range(len(basis)):
        gens = [g for i, (g, _) in enumerate(basis) if i != j]
        parts.append(Subgroup(G, G.subgroup_generated_bits(gens)))
    return representation(G, parts)


# -- induced representations and decompositions ---------------------------


def induced_representation(R: Representation, H: Subgroup) -> Representation:
    """Parts G_i intersected with H, reindexed as subgroups of H-as-a-group."""
    G = R.parent
    if H.parent is not G:
        raise DomainError("H must be a subgroup of the representation's parent")
    Hgrp, embed = subgroup_as_group(H)
    pos = {e: i for i, e in enumerate(embed)}
    parts = []
    for P in R.parts:
        inter = P.bits & H.bits
        parts.append(Subgroup(Hgrp, list_to_bits(pos[e] for e in bits_to_list(inter))))
    return representation(Hgrp, parts)


@dataclass
class DecompositionReport:
    kind: str                      # 'faithful' | 'weak-faithful' | 'none'
    left_indices: tuple[int, ...]  # positions of the G-side parts within R
    right_indices: tuple[int, ...]
    degree_total: int
    induced_degree_left: int       # mu_G(R'_G)
    induced_degree_right: int      # mu_H(R''_H)


def _factor_slices(nH: int, K_bits: int):
    """For K <= G x H under pair indexing: (K cap Gx1 as G-bits,
    K cap 1xH as H-bits, proj-to-G bits, proj-to-H bits)."""
    capG = 0
    capH = 0
    projG = 0
    projH = 0
    for e in bits_to_list(K_bits):
        g, h = divmod(e, nH)
        projG |= 1 << g
        projH |= 1 << h
        if h == 0:
            capG |= 1 << g
        if g == 0:
            capH |= 1 << h
    return capG, capH, projG, projH


def check_decomposition(G: FiniteGroup, H: FiniteGroup, R: Representation,
                        left_indices: Sequence[int]) -> DecompositionReport:
    """Classify a bipartition of a representation of G x H as a faithful
    decomposition, a weak faithful decomposition, or neither."""
    P = R.parent
    nG, nH = G.order, H.order
    if P.order != nG * nH:
        raise DomainError("representation parent is not the product of the factors")
    m = len(R.parts)
    left = sorted(set(left_indices))
    if left and (left[0] < 0 or left[-1] >= m):
        raise DomainError("split indices out of range")
    right = [i for i in range(m) if i not in set(left)]
    slices = [_factor_slices(nH, K.bits) for K in R.parts]

    def faithful(F: FiniteGroup, parts: Iterable[int]) -> bool:
        return is_faithful(representation(F, [Subgroup(F, b) for b in parts]))

    # weak: induced representations on the embedded factors are faithful
    weak_ok = (faithful(G, (slices[i][0] for i in left))
               and faithful(H, (slices[i][1] for i in right)))

    # faithful: each side is the preimage of a faithful representation of its factor
    faithful_ok = (
        all(slices[i][3].bit_count() == nH
            and R.parts[i].bits.bit_count() == slices[i][2].bit_count() * nH
            for i in left)
        and all(slices[i][2].bit_count() == nG
                and R.parts[i].bits.bit_count() == slices[i][3].bit_count() * nG
                for i in right)
        and faithful(G, (slices[i][2] for i in left))
        and faithful(H, (slices[i][3] for i in right)))

    kind = "faithful" if faithful_ok else ("weak-faithful" if weak_ok else "none")
    degL = sum(nG // slices[i][0].bit_count() for i in left)
    degR = sum(nH // slices[i][1].bit_count() for i in right)
    return DecompositionReport(kind=kind, left_indices=tuple(left),
                               right_indices=tuple(right),
                               degree_total=degree(R),
                               induced_degree_left=degL,
                               induced_degree_right=degR)


def find_weak_decomposition(G: FiniteGroup, H: FiniteGroup,
                            R: Representation) -> Optional[DecompositionReport]:
    """First bipartition (masks in increasing order, bit i = part i on the
    G side) whose induced representations on both factors are faithful."""
    m = len(R.parts)
    if m > 20:
        raise ResourceCapError("bipartition search capped at 20 parts")
    for mask in range(1 << m):
        left = [i for i in range(m) if (mask >> i) & 1]
        report = check_decomposition(G, H, R, left)
        if report.kind in ("faithful", "weak-faithful"):
            return report
    return None


def weak_decomposition_inequality_check(report: DecompositionReport) -> bool:
    """deg(R) >= mu_G(R'_G) + mu_H(R''_H) for a weak faithful decomposition."""
    if report.kind not in ("faithful", "weak-faithful"):
        raise PreconditionError("report does not describe a weak faithful decomposition")
    return report.degree_total >= report.induced_degree_left + report.induced_degree_right


# -- meet-irreducible reduction -------------------------------------------


def reduce_to_meet_irreducible(R: Representation) -> Representation:
    """Replace meet-reducible parts K by a pair of strictly larger subgroups
    with meet K until every part is meet-irreducible; the degree and
    faithfulness of a minimal-degree input are preserved.

    The pair is the lexicographically-first pair of minimal strict
    supergroups of K (by lattice index) whose intersection is K.
    """
    G = R.parent
    mu = mu_exact(G).mu
    if not is_faithful(R):
        raise PreconditionError("input representation is not faithful")
    if degree(R) != mu:
        raise PreconditionError(
            f"input degree {degree(R)} is not minimal (mu = {mu})"
        )
    lat = G.lattice()
    flags = lat.meet_irreducible_flags()
    parts = sorted({H.bits for H in R.parts})
    for _ in range(len(lat) * len(lat) + len(lat)):
        target = next((b for b in parts if not flags[lat.index_of[b]]), None)
        if target is None:
            break
        ti = lat.index_of[target]
        mins = lat.minimal_strict_supergroups(ti)
        pair = next(((a, b) for ai, a in enumerate(mins) for b in mins[ai + 1:]
                     if lat.subgroups[a].bits & lat.subgroups[b].bits == target),
                    None)
        if pair is None:
            raise InternalInvariantError(
                "meet-reducible subgroup with no meeting pair of minimal supergroups"
            )
        parts = sorted((set(parts) - {target})
                       | {lat.subgroups[pair[0]].bits, lat.subgroups[pair[1]].bits})
    else:
        raise InternalInvariantError("meet-irreducible reduction did not terminate")
    out = representation(G, [lat.subgroups[lat.index_of[b]] for b in parts])
    if degree(out) != mu or not is_faithful(out):
        raise InternalInvariantError("reduction changed degree or faithfulness")
    return out


# -- CS / CSE and additivity ----------------------------------------------


def is_CS(G: FiniteGroup) -> bool:
    """Central-socle membership: G nontrivial and Soc(G) <= Z(G), that is
    every minimal normal in Z(G).  No lattice is built.  An abelian G is
    its own centre and has no conjugation tables, so the test holds with
    no generators found."""
    if G.order == 1:
        return False
    z = center(G).bits
    return all(m & z == m for m in minimal_normals(G))


def is_CSE(G: FiniteGroup) -> tuple[bool, Optional[Subgroup]]:
    """Membership in the extension of CS: some H <= G with H in CS and
    mu(H) = mu(G).  Returns (verdict, witness subgroup)."""
    if G.order > ORACLE_CAP:
        raise ResourceCapError(f"is_CSE needs mu of every subgroup; order <= {ORACLE_CAP}")
    mu = mu_exact(G).mu
    lat = G.lattice()
    # check G first, then subgroups by descending order (lattice index ties)
    order = sorted(range(len(lat)), key=lambda i: (-lat.subgroups[i].order, i))
    for i in order:
        H = lat.subgroups[i]
        Hgrp, _ = subgroup_as_group(H)
        if is_CS(Hgrp) and mu_exact(Hgrp).mu == mu:
            return True, H
    return False, None


@dataclass
class AdditivityRecord:
    lhs: int        # mu(G x H)
    rhs: int        # mu(G) + mu(H)
    equal: bool
    guaranteed: str  # 'coprime' | 'CS' | 'CSE' | 'none'


def verify_additivity(G: FiniteGroup, H: FiniteGroup) -> AdditivityRecord:
    """mu(G x H) against mu(G) + mu(H), with the result that guarantees
    equality, if any.  Both factors must be nontrivial: mu(1) = 1 by
    convention, so mu(G x 1) = mu(G) < mu(G) + mu(1)."""
    if G.order == 1 or H.order == 1:
        raise DomainError("additivity is defined for nontrivial factors")
    P = direct_product(G, H)
    lhs = mu_exact(P).mu
    rhs = mu_exact(G).mu + mu_exact(H).mu
    if lhs > rhs:
        raise InternalInvariantError(
            "subadditivity violated: mu(GxH) exceeded mu(G)+mu(H)"
        )
    if math.gcd(G.order, H.order) == 1:
        guaranteed = "coprime"
    elif is_CS(G) and is_CS(H):
        guaranteed = "CS"
    elif (G.order <= ORACLE_CAP and H.order <= ORACLE_CAP
          and is_CSE(G)[0] and is_CSE(H)[0]):
        guaranteed = "CSE"
    else:
        guaranteed = "none"
    return AdditivityRecord(lhs=lhs, rhs=rhs, equal=lhs == rhs, guaranteed=guaranteed)


# -- compression ratio -----------------------------------------------------


def compression_ratio(G: FiniteGroup) -> Fraction:
    """|G| / mu(G), exact."""
    return Fraction(G.order, mu_exact(G).mu)


@dataclass
class IncompressibleVerdict:
    structural_type: str  # 'cyclic-prime-power' | 'generalized-quaternion' | 'klein-four' | 'compressible'
    cr: Fraction


def classify_incompressible(G: FiniteGroup) -> IncompressibleVerdict:
    """Structural incompressibility test cross-checked against cr(G) = 1."""
    return classify_with_ratio(G, compression_ratio(G))


def classify_with_ratio(G: FiniteGroup, cr: Fraction) -> IncompressibleVerdict:
    """The structural incompressibility test of G, cross-checked against a
    given cr(G): G is incompressible iff cr = 1, so a structural type that
    disagrees raises.  No solve: the test reads element orders only."""
    if G.order == 1:
        raise DomainError("classification is defined for nontrivial groups")
    n = G.order
    orders = G._element_orders()
    structural = "compressible"
    if is_prime_power(n) and n in orders:
        structural = "cyclic-prime-power"
    elif n == 4 and all(o <= 2 for o in orders):
        structural = "klein-four"
    elif (n >= 8 and n & (n - 1) == 0 and orders.count(2) == 1
          and n not in orders):
        # 2-group with a unique involution is cyclic or generalized quaternion
        structural = "generalized-quaternion"
    if (structural != "compressible") != (cr == 1):
        raise InternalInvariantError(
            f"structural type {structural} disagrees with cr = {cr}"
        )
    return IncompressibleVerdict(structural_type=structural, cr=cr)


def cr_monotonicity_check(G: FiniteGroup, H: Subgroup) -> bool:
    """cr(H) <= cr(G), equivalently mu(G) <= [G:H] mu(H)."""
    if H.parent is not G:
        raise DomainError("H must be a subgroup of G")
    Hgrp, _ = subgroup_as_group(H)
    return mu_exact(G).mu <= H.index * mu_exact(Hgrp).mu


# -- semidirect bound ------------------------------------------------------


@dataclass
class SemidirectBoundReport:
    mu_product: int
    bound: int          # |G| + mu(H)
    holds: bool
    embedding_injective: bool


def semidirect_bound_check(G: FiniteGroup, H: FiniteGroup,
                           action: Sequence[Sequence[int]]) -> SemidirectBoundReport:
    """mu(G semidirect H) <= |G| + mu(H); also materializes the embedding
    rho(g0,h0) = ((g -> g0 * phi_h0(g)), h0) into Sym(G) x H and verifies it
    is an injective homomorphism."""
    P = semidirect_product(G, H, action)
    mu_product = mu_exact(P).mu
    bound = G.order + mu_exact(H).mu
    # materialize rho and check it is a monomorphism
    nH = H.order
    images = []
    for g0 in range(G.order):
        for h0 in range(nH):
            perm = tuple(G.mul(g0, action[h0][g]) for g in range(G.order))
            images.append((perm, h0))
    injective = len(set(images)) == P.order
    homomorphism = True
    for x in range(P.order):
        for y in range(P.order):
            px, hx = images[x]
            py, hy = images[y]
            lhs = (tuple(px[py[g]] for g in range(G.order)), H.mul(hx, hy))
            if lhs != images[P.mul(x, y)]:
                homomorphism = False
                break
        if not homomorphism:
            break
    if not homomorphism:
        raise InternalInvariantError("semidirect embedding is not a homomorphism")
    return SemidirectBoundReport(mu_product=mu_product, bound=bound,
                                 holds=mu_product <= bound,
                                 embedding_injective=injective)


# -- socle-induced representation properties -------------------------------


@dataclass
class SocleReport:
    faithful_on_socle: bool
    per_prime_faithful: bool
    no_redundant_constituents: bool
    codimension_one: bool

    @property
    def passed(self) -> bool:
        return (self.faithful_on_socle and self.per_prime_faithful
                and self.no_redundant_constituents and self.codimension_one)


def socle_induced_properties_check(G: FiniteGroup, R: Representation) -> SocleReport:
    """For G with central socle and R a minimal-degree representation by
    meet-irreducible subgroups, verify the socle-induced representation:
    faithfulness, per-prime faithful decomposition, no redundant transitive
    constituent, and the codimension-1 intersection with each Z(G)[p]."""
    if not is_CS(G):
        raise PreconditionError("G does not have a central socle")
    mu = mu_exact(G).mu
    if degree(R) != mu or not is_faithful(R):
        raise PreconditionError("R is not a minimal-degree faithful representation")
    lat = G.lattice()
    flags = lat.meet_irreducible_flags()
    for H in R.parts:
        if not flags[lat.subgroup_index(H)]:
            raise PreconditionError("R contains a meet-reducible part")
    Z = center(G)
    soc = socle(G)
    primes = prime_factors(Z.order)
    # Z(G)[p] bitsets and their dimensions
    zp_bits = {}
    zp_dim = {}
    for p in primes:
        bits = 1
        for z in Z.elements():
            if z and G.element_order(z) == p:
                bits |= 1 << z
        zp_bits[p] = bits
        zp_dim[p] = round(math.log(bits.bit_count(), p))

    inter = soc.bits
    for H in R.parts:
        inter &= H.bits
    faithful_on_socle = inter & soc.bits == 1

    # assign each part to the unique prime where it misses part of Z(G)[p]
    blocks: dict[int, list[int]] = {p: [] for p in primes}
    per_prime_faithful = True
    for i, H in enumerate(R.parts):
        proper = [p for p in primes if H.bits & zp_bits[p] != zp_bits[p]]
        if len(proper) > 1:
            per_prime_faithful = False
        elif len(proper) == 1:
            blocks[proper[0]].append(i)
    if per_prime_faithful:
        for p in primes:
            inter_p = zp_bits[p]
            for i in blocks[p]:
                inter_p &= R.parts[i].bits
            if inter_p != 1:
                per_prime_faithful = False
                break

    no_redundant = True
    for p in primes:
        for i0 in blocks[p]:
            inter_p = zp_bits[p]
            for i in blocks[p]:
                if i != i0:
                    inter_p &= R.parts[i].bits
            if inter_p == 1:
                no_redundant = False

    codim_one = True
    for p in primes:
        for i in blocks[p]:
            d = round(math.log((R.parts[i].bits & zp_bits[p]).bit_count(), p))
            if d != zp_dim[p] - 1:
                codim_one = False

    return SocleReport(faithful_on_socle=faithful_on_socle,
                       per_prime_faithful=per_prime_faithful,
                       no_redundant_constituents=no_redundant,
                       codimension_one=codim_one)
