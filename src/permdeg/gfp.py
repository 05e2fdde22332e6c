"""Dense linear algebra over prime fields GF(p).

Provides the generic Gaussian-elimination determinant, the generalized
Laplace expansion along a fixed column set, the invertible block
row-permutation search, and coordinate-basis recovery from a family of
hyperplanes.  All indices are 0-based, matching the sign convention
(-1)^(|r|+|c|) of the Laplace formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError, InternalInvariantError, PreconditionError


@dataclass(frozen=True)
class MatrixGFp:
    """Dense matrix over GF(p); entries stored row-major, reduced mod p."""

    p: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.p < 2:
            raise DomainError("modulus must be a prime >= 2")
        reduced = tuple(tuple(x % self.p for x in row) for row in self.entries)
        object.__setattr__(self, "entries", reduced)
        if self.entries and any(len(r) != len(self.entries[0]) for r in self.entries):
            raise DomainError("ragged matrix")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], p: int) -> "MatrixGFp":
        return cls(p, tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, n: int, p: int) -> "MatrixGFp":
        return cls(p, tuple(tuple(1 if i == j else 0 for j in range(n))
                            for i in range(n)))

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "MatrixGFp":
        return MatrixGFp(self.p, tuple(tuple(self.entries[i][j] for j in cols)
                                       for i in rows))

    def permuted_rows(self, perm: Sequence[int]) -> "MatrixGFp":
        return MatrixGFp(self.p, tuple(self.entries[i] for i in perm))


def det(M: MatrixGFp) -> int:
    """Determinant mod p from ``rref``'s elimination: the product of the
    pivots, negated once per row swap, and 0 below full rank."""
    if M.rows != M.cols:
        raise DomainError("determinant requires a square matrix")
    reduced, pivots = _eliminate(M.entries, M.p)
    return pivots if len(reduced) == M.rows else 0


def det_laplace(M: MatrixGFp, c: Sequence[int]) -> int:
    """Determinant via the generalized Laplace expansion along columns ``c``:

        det(A) = (-1)^|c| * sum_r (-1)^|r| det S(A;r,c) det S'(A;r,c)

    summing over all sorted row tuples r of size |c|, with |r|, |c| the sums
    of the (0-based) indices.  Recursion bottoms out at 1x1 minors.
    """
    if M.rows != M.cols:
        raise DomainError("determinant requires a square matrix")
    n = M.rows
    k = len(c)
    if not 1 <= k < n:
        raise DomainError("column list size must satisfy 1 <= k < n")
    if list(c) != sorted(set(c)) or c[0] < 0 or c[-1] >= n:
        raise DomainError("column indices must be sorted, distinct and in range")
    p = M.p
    comp_cols = [j for j in range(n) if j not in set(c)]
    total = 0
    for r in itertools.combinations(range(n), k):
        comp_rows = [i for i in range(n) if i not in set(r)]
        minor = det(M.submatrix(r, c))
        if minor == 0:
            continue
        cominor = det(M.submatrix(comp_rows, comp_cols))
        sign = -1 if sum(r) % 2 else 1
        total = (total + sign * minor * cominor) % p
    if sum(c) % 2:
        total = (-total) % p
    return total


def block_row_permutation(M: MatrixGFp, m: int) -> tuple[int, ...]:
    """A row permutation making the top-left m x m and bottom-right
    (n-m) x (n-m) blocks both invertible.

    Searches m-subsets of rows in lexicographic order and returns the first
    witness (chosen rows on top in order, the rest below in order).
    """
    if M.rows != M.cols:
        raise DomainError("block decomposition requires a square matrix")
    n = M.rows
    if not 1 <= m <= n - 1:
        raise DomainError("block size must satisfy 1 <= m <= n-1")
    if det(M) == 0:
        raise DomainError("matrix is singular")
    top_cols = list(range(m))
    bot_cols = list(range(m, n))
    for rows in itertools.combinations(range(n), m):
        if det(M.submatrix(rows, top_cols)) == 0:
            continue
        rest = [i for i in range(n) if i not in set(rows)]
        if det(M.submatrix(rest, bot_cols)) == 0:
            continue
        return tuple(rows) + tuple(rest)
    raise InternalInvariantError(
        "no block row permutation found for an invertible matrix"
    )


# -- subspaces ------------------------------------------------------------


def rref(rows: Iterable[Sequence[int]], p: int) -> list[list[int]]:
    """Reduced row-echelon form over GF(p), zero rows dropped."""
    return _eliminate(rows, p)[0]


def _eliminate(rows: Iterable[Sequence[int]], p: int
               ) -> tuple[list[list[int]], int]:
    """``rref(rows, p)`` and the product of its pivots before they are
    scaled to 1, negated once per row swap."""
    a = [list(r) for r in rows]
    ncols = len(a[0]) if a else 0
    rank, pivots = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(a)) if a[r][col] % p), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            pivots = -pivots
        pivots = (pivots * a[rank][col]) % p
        inv = pow(a[rank][col] % p, -1, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col] % p:
                f = a[r][col] % p
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return a[:rank], pivots


@dataclass(frozen=True)
class SubspaceGFp:
    """Subspace of GF(p)^n in canonical reduced-echelon basis form.

    Two bases of the same subspace produce equal instances.
    """

    p: int
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence[int]], p: int,
                     ambient_dim: int | None = None) -> "SubspaceGFp":
        if ambient_dim is None:
            if not vectors:
                raise DomainError("ambient dimension required for an empty span")
            ambient_dim = len(vectors[0])
        if any(len(v) != ambient_dim for v in vectors):
            raise DomainError("vector length mismatch")
        basis = rref(vectors, p)
        return cls(p, ambient_dim, tuple(tuple(r) for r in basis))

    @classmethod
    def zero(cls, ambient_dim: int, p: int) -> "SubspaceGFp":
        return cls(p, ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int, p: int) -> "SubspaceGFp":
        return cls.from_vectors(
            [[1 if i == j else 0 for j in range(ambient_dim)]
             for i in range(ambient_dim)], p)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence[int]) -> bool:
        v = [x % self.p for x in vec]
        for row in self.basis:
            lead = next(j for j, x in enumerate(row) if x)
            if v[lead]:
                f = v[lead]
                v = [(x - f * y) % self.p for x, y in zip(v, row)]
        return not any(v)

    def sum(self, other: "SubspaceGFp") -> "SubspaceGFp":
        self._check_compatible(other)
        return SubspaceGFp.from_vectors(
            list(self.basis) + list(other.basis), self.p, self.ambient_dim)

    def intersect(self, other: "SubspaceGFp") -> "SubspaceGFp":
        """Intersection via the nullspace of [A^T | -B^T]."""
        self._check_compatible(other)
        if not self.basis or not other.basis:
            return SubspaceGFp.zero(self.ambient_dim, self.p)
        k, l = self.dim, other.dim
        n = self.ambient_dim
        # columns: alpha coefficients then beta coefficients
        sys_rows = []
        for i in range(n):
            sys_rows.append([self.basis[a][i] for a in range(k)]
                            + [(-other.basis[b][i]) % self.p for b in range(l)])
        null = nullspace(sys_rows, self.p)
        vecs = []
        for sol in null:
            alpha = sol[:k]
            vec = [0] * n
            for a in range(k):
                if alpha[a]:
                    vec = [(x + alpha[a] * y) % self.p
                           for x, y in zip(vec, self.basis[a])]
            vecs.append(vec)
        if not vecs:
            return SubspaceGFp.zero(self.ambient_dim, self.p)
        return SubspaceGFp.from_vectors(vecs, self.p, n)

    def _check_compatible(self, other: "SubspaceGFp") -> None:
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise DomainError("subspaces live in different ambient spaces")


def nullspace(rows: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Basis of the right nullspace of the given matrix over GF(p)."""
    if not rows:
        return []
    ncols = len(rows[0])
    red = rref(rows, p)
    pivots = []
    for row in red:
        pivots.append(next(j for j, x in enumerate(row) if x))
    free = [j for j in range(ncols) if j not in pivots]
    out = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for i, row in enumerate(red):
            vec[pivots[i]] = (-row[f]) % p
        out.append(vec)
    return out


def recover_coordinate_basis(subspaces: Sequence[SubspaceGFp]) -> list[tuple[int, ...]]:
    """From hyperplanes V_1..V_n with trivial total intersection and nonzero
    co-intersections, recover a basis v_1..v_n with V_i = span{v_j : j != i}.

    Each v_i is the canonical echelon generator of the line formed by
    intersecting every subspace except V_i.  All three hypotheses are
    verified and a failure names the one that broke.
    """
    if not subspaces:
        raise PreconditionError("empty subspace family")
    p = subspaces[0].p
    n_amb = subspaces[0].ambient_dim
    for V in subspaces:
        if V.p != p or V.ambient_dim != n_amb:
            raise PreconditionError("subspaces live in different ambient spaces")
        if V.dim != n_amb - 1:
            raise PreconditionError(
                f"hypothesis dim(V_i) = dim(V)-1 fails: got {V.dim} of {n_amb}"
            )
    total = SubspaceGFp.full(n_amb, p)
    for V in subspaces:
        total = total.intersect(V)
    if total.dim != 0:
        raise PreconditionError("hypothesis (intersection of all V_i) = 0 fails")
    lines = []
    for i in range(len(subspaces)):
        co = SubspaceGFp.full(n_amb, p)
        for j, V in enumerate(subspaces):
            if j != i:
                co = co.intersect(V)
        if co.dim == 0:
            raise PreconditionError(
                f"hypothesis (intersection over j != {i}) != 0 fails"
            )
        lines.append(co)
    if len(subspaces) != n_amb:
        raise PreconditionError(
            "hypotheses force n = dim(V) but the family size differs"
        )
    basis = [line.basis[0] for line in lines]
    # verify the span condition for every i
    for i, V in enumerate(subspaces):
        span = SubspaceGFp.from_vectors(
            [basis[j] for j in range(n_amb) if j != i], p, n_amb)
        if span != V:
            raise InternalInvariantError(
                "recovered basis does not span the hyperplane family"
            )
    return basis
