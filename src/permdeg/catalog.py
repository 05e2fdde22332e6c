"""The group-expression language, its parser and evaluator, the built-in
test catalog, and semidirect-action file ingestion.

Grammar (whitespace-insensitive):

    expr := term { "x" term }
    term := "C" INT | "Z" INT | "Ab(" INT {"," INT} ")" | "D" INT | "Q" INT
          | "S" INT | "SL(2," INT ")" | "table:" PATH | "sd:" PATH
          | "(" expr ")"

Dn is the dihedral group of ORDER 2n (geometric convention); Qn is the
generalized quaternion group of order n.  "C" and "Z" are synonyms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DomainError, ExprSyntaxError, InvalidActionError
from .groups import (
    ORDER_CAP,
    FiniteGroup,
    abelian_arrays,
    check_order,
    cyclic_arrays,
    is_prime_power,
    load_table_file,
    make_abelian,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
    make_SL2,
    make_symmetric,
    product_inverses,
    product_table,
    semidirect_product,
)


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Cyclic:
    n: int

    def __str__(self) -> str:
        return f"C{self.n}"


@dataclass(frozen=True)
class Abelian:
    factors: tuple[int, ...]

    def __str__(self) -> str:
        return "Ab(" + ",".join(str(f) for f in self.factors) + ")"


@dataclass(frozen=True)
class Dihedral:
    n: int  # order is 2n

    def __str__(self) -> str:
        return f"D{self.n}"


@dataclass(frozen=True)
class Quaternion:
    order: int

    def __str__(self) -> str:
        return f"Q{self.order}"


@dataclass(frozen=True)
class Symmetric:
    n: int

    def __str__(self) -> str:
        return f"S{self.n}"


@dataclass(frozen=True)
class SL2:
    p: int

    def __str__(self) -> str:
        return f"SL(2,{self.p})"


@dataclass(frozen=True)
class Table:
    path: str

    def __str__(self) -> str:
        return f"table:{self.path}"


@dataclass(frozen=True)
class SemidirectFile:
    path: str

    def __str__(self) -> str:
        return f"sd:{self.path}"


@dataclass(frozen=True)
class DirectProduct:
    left: "GroupExpr"
    right: "GroupExpr"

    def __str__(self) -> str:
        right = f"({self.right})" if isinstance(self.right, DirectProduct) else str(self.right)
        return f"{self.left} x {right}"


GroupExpr = Union[Cyclic, Abelian, Dihedral, Quaternion, Symmetric, SL2,
                  Table, SemidirectFile, DirectProduct]


# -- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def literal(self, s: str) -> bool:
        self.skip_ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def expect(self, s: str) -> None:
        if not self.literal(s):
            raise ExprSyntaxError("unexpected input", self.pos, expected=repr(s))

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ExprSyntaxError("unexpected input", start, expected="an integer")
        return int(self.text[start:self.pos])

    def path(self) -> str:
        self.skip_ws()
        start = self.pos
        while (self.pos < len(self.text)
               and not self.text[self.pos].isspace()
               and self.text[self.pos] != ")"):
            self.pos += 1
        if self.pos == start:
            raise ExprSyntaxError("unexpected input", start, expected="a path")
        return self.text[start:self.pos]

    def expr(self) -> GroupExpr:
        node = self.term()
        while True:
            save = self.pos
            self.skip_ws()
            if self.text.startswith("x", self.pos):
                self.pos += 1
                node = DirectProduct(node, self.term())
            else:
                self.pos = save
                return node

    def term(self) -> GroupExpr:
        self.skip_ws()
        if self.literal("("):
            node = self.expr()
            self.expect(")")
            return node
        if self.literal("table:"):
            return Table(self.path())
        if self.literal("sd:"):
            return SemidirectFile(self.path())
        if self.literal("Ab("):
            factors = [self.integer()]
            while self.literal(","):
                factors.append(self.integer())
            self.expect(")")
            return Abelian(tuple(factors))
        if self.literal("SL(2,"):
            p = self.integer()
            self.expect(")")
            return SL2(p)
        for prefix, ctor in (("C", Cyclic), ("Z", Cyclic), ("D", Dihedral),
                             ("Q", Quaternion), ("S", Symmetric)):
            if self.literal(prefix):
                return ctor(self.integer())
        raise ExprSyntaxError(
            "unexpected input", self.pos,
            expected="C, Z, Ab(, D, Q, S, SL(2,, table:, sd: or (",
        )


def parse_group_expr(text: str) -> GroupExpr:
    p = _Parser(text)
    node = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        raise ExprSyntaxError("trailing input", p.pos, expected="end of expression")
    return node


def declared_order(expr: GroupExpr) -> Optional[int]:
    """Order computable from the expression alone (None for file atoms)."""
    if isinstance(expr, Cyclic):
        return expr.n
    if isinstance(expr, Abelian):
        return math.prod(expr.factors)
    if isinstance(expr, Dihedral):
        return 2 * expr.n
    if isinstance(expr, Quaternion):
        return expr.order
    if isinstance(expr, Symmetric):
        return math.factorial(expr.n)
    if isinstance(expr, SL2):
        return expr.p ** 3 - expr.p
    if isinstance(expr, DirectProduct):
        lo, ro = declared_order(expr.left), declared_order(expr.right)
        return None if lo is None or ro is None else lo * ro
    return None


def build(expr: GroupExpr) -> FiniteGroup:
    """Build the finite group an expression denotes.

    A declared order is checked against the order cap up front; a file atom,
    and a product with one, is checked by the constructor that reads or
    forms its table, before the table is allocated.

    Every call returns a new group, which holds no lattice or mu yet, even
    when a product's factors come from the arrays ``_factor_table`` keeps.
    """
    order = declared_order(expr)
    if order is not None:
        check_order(order)
    return _build(expr)


def _build(expr: GroupExpr) -> FiniteGroup:
    if isinstance(expr, Cyclic):
        return make_cyclic(expr.n)
    if isinstance(expr, Abelian):
        return make_abelian(list(expr.factors))
    if isinstance(expr, Dihedral):
        return make_dihedral(expr.n)
    if isinstance(expr, Quaternion):
        return make_generalized_quaternion(expr.order)
    if isinstance(expr, Symmetric):
        return make_symmetric(expr.n)
    if isinstance(expr, SL2):
        return make_SL2(expr.p)
    if isinstance(expr, Table):
        return load_table_file(expr.path)
    if isinstance(expr, SemidirectFile):
        return semidirect_product(*load_semidirect(expr.path))
    if isinstance(expr, DirectProduct):
        mult, inv, label = _factor_table(expr)
        return FiniteGroup(mult, label=label, validate=False, inv=inv)
    raise DomainError(f"unknown expression node {expr!r}")


# (table, inverses, label) of each atom other than a file atom met as a
# product factor, built once per process; see ``_factor_table``
_ATOM_TABLES: dict[GroupExpr, tuple[np.ndarray, np.ndarray, str]] = {}
# every element index of a group within the order cap fits this
_ATOM_DTYPE = np.min_scalar_type(ORDER_CAP - 1)


def _factor_table(expr: GroupExpr) -> tuple[np.ndarray, np.ndarray, str]:
    """The table, inverses and label of a direct product or of one of its
    factors.

    A product is folded as arrays by ``product_table`` and
    ``product_inverses``, the index arithmetic of ``direct_product``, with
    the same order check and label, so only the whole product becomes a
    group, and it searches no row for its inverses.  An atom's arrays are
    formed once per process and kept in ``_ATOM_TABLES`` as read-only
    arrays of the smallest dtype that holds an element index, so a second
    build of a product, as a ``batch`` cache hit makes after the
    ``catalog`` sweep, folds kept arrays.  The memo holds at most one
    entry per atom within the order cap.  A cyclic or abelian atom's
    arrays are formed with no group built; any other atom is built once
    by its own constructor.  A ``table:`` or ``sd:`` atom is read and
    built on every call instead, because its file can change between
    builds.
    """
    if isinstance(expr, DirectProduct):
        a, ainv, left = _factor_table(expr.left)
        b, binv, right = _factor_table(expr.right)
        check_order(len(a) * len(b))
        return (product_table(a, b), product_inverses(ainv, binv),
                f"{left} x {right}")
    if isinstance(expr, (Table, SemidirectFile)):
        G = _build(expr)
        return G.mult, np.array(G.inv), G.label
    kept = _ATOM_TABLES.get(expr)
    if kept is None:
        # beside a file atom the product's order is known only once the
        # file is read, so an atom's own order is checked before its table
        # is formed
        order = declared_order(expr)
        if order is None:
            raise DomainError(f"unknown expression node {expr!r}")
        check_order(order)
        if isinstance(expr, Cyclic):
            mult, inv = cyclic_arrays(expr.n)
            label = str(expr)
        elif isinstance(expr, Abelian) and expr.factors:
            mult, inv = abelian_arrays(expr.factors)
            label = str(expr)
        else:
            G = _build(expr)
            mult, inv, label = G.mult, np.array(G.inv), G.label
        mult, inv = mult.astype(_ATOM_DTYPE), inv.astype(_ATOM_DTYPE)
        mult.setflags(write=False)
        inv.setflags(write=False)
        kept = _ATOM_TABLES[expr] = (mult, inv, label)
    return kept


def _atom_nodes(expr: GroupExpr) -> list[GroupExpr]:
    if isinstance(expr, DirectProduct):
        return _atom_nodes(expr.left) + _atom_nodes(expr.right)
    return [expr]


def normalize_expr_string(text: str) -> str:
    """Canonical cache key: atoms of a (commutative) product in sorted order."""
    expr = parse_group_expr(text)
    return " x ".join(sorted(str(a) for a in _atom_nodes(expr)))


# -- catalog ---------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    expr: GroupExpr
    order: int
    tags: frozenset[str]


def _prime_powers_upto(limit: int) -> list[int]:
    return [q for q in range(2, limit + 1) if is_prime_power(q)]


def _abelian_multisets(max_order: int) -> list[tuple[int, ...]]:
    """Non-increasing prime-power multisets of size >= 2 with product <= max_order."""
    pps = _prime_powers_upto(max_order // 2)
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], product: int, max_next: int) -> None:
        if len(prefix) >= 2:
            out.append(tuple(prefix))
        for q in pps:
            if q > max_next or product * q > max_order:
                continue
            rec(prefix + [q], product * q, q)

    rec([], 1, max_order)
    return sorted(out, key=lambda t: (math.prod(t), t))


def _tags_for(expr: GroupExpr, order: int) -> frozenset[str]:
    nodes = _atom_nodes(expr)
    tags = set()
    if all(isinstance(a, (Cyclic, Abelian)) for a in nodes):
        tags.add("abelian")
    if is_prime_power(order):
        tags.add("p-group")
    if all(isinstance(a, (Cyclic, Abelian, Quaternion, SL2)) for a in nodes):
        tags.add("CS-expected")
    if len(nodes) == 1:
        a = nodes[0]
        if isinstance(a, Quaternion):
            tags.add("incompressible-expected")
        elif isinstance(a, Cyclic) and is_prime_power(a.n):
            tags.add("incompressible-expected")
        elif isinstance(a, Abelian) and a.factors == (2, 2):
            tags.add("incompressible-expected")
    elif all(isinstance(a, Cyclic) and a.n == 2 for a in nodes) and len(nodes) == 2:
        # C2 x C2 is the Klein four-group
        tags.add("incompressible-expected")
    return frozenset(tags)


def catalog(max_order: int) -> list[CatalogEntry]:
    """Deterministic catalog: cyclic groups, abelian prime-power multisets,
    dihedral and generalized quaternion families, S3/S4, SL(2,3), SL(2,5),
    and all pairwise direct products within the bound.

    The atoms come first, then the products, each sorted by (order, name).
    Each name occurs once: no two atoms print alike, and each unordered
    pair of atoms is formed once, its factors in name order.  So every name
    is also in the normal form of ``normalize_expr_string``."""
    check_order(max_order)
    base: list[GroupExpr] = []
    for n in range(2, max_order + 1):
        base.append(Cyclic(n))
    for factors in _abelian_multisets(max_order):
        base.append(Abelian(factors))
    n = 3
    while 2 * n <= max_order:
        base.append(Dihedral(n))
        n += 1
    q = 8
    while q <= max_order:
        base.append(Quaternion(q))
        q *= 2
    if 6 <= max_order:
        base.append(Symmetric(3))
    if 24 <= max_order:
        base.append(Symmetric(4))
    if 24 <= max_order:
        base.append(SL2(3))
    if 120 <= max_order:
        base.append(SL2(5))

    atoms = sorted(((declared_order(a), str(a), a) for a in base),
                   key=lambda t: t[:2])
    products = []
    for i, (oa, na, a) in enumerate(atoms):
        for ob, nb, b in atoms[i:]:
            if oa * ob > max_order:
                break  # the rest of the atoms are no smaller
            pair = DirectProduct(a, b) if na <= nb else DirectProduct(b, a)
            products.append((oa * ob, str(pair), pair))
    products.sort(key=lambda t: t[:2])
    return [CatalogEntry(name=name, expr=expr, order=order,
                         tags=_tags_for(expr, order))
            for order, name, expr in atoms + products]


# -- semidirect action files ----------------------------------------------


def load_semidirect(path: str):
    """Parse an sd-file: line "G <expr>", line "H <expr>", then per listed
    generator h of H a line "h <index> : <|G| images>" giving the
    automorphism of G it applies.  The action is extended to all of H by
    composition.

    Returns (G, H, action) with action an |H| x |G| array.  The images are
    not checked to be automorphisms here: ``semidirect_product``, which every
    caller runs on the result before it uses the action, validates them.
    """
    g_expr = h_expr = None
    gen_lines: list[tuple[int, list[int]]] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("G "):
                g_expr = parse_group_expr(line[2:].strip())
            elif line.startswith("H "):
                h_expr = parse_group_expr(line[2:].strip())
            elif line.startswith("h "):
                body = line[2:]
                if ":" not in body:
                    raise InvalidActionError(f"malformed generator line: {line!r}")
                idx_part, img_part = body.split(":", 1)
                try:
                    gen_lines.append((int(idx_part),
                                      [int(t) for t in img_part.split()]))
                except ValueError:
                    raise InvalidActionError(
                        f"malformed generator line: {line!r}") from None
            else:
                raise InvalidActionError(f"unrecognized sd-file line: {line!r}")
    if g_expr is None or h_expr is None:
        raise InvalidActionError("sd-file must declare both G and H")
    G = build(g_expr)
    H = build(h_expr)
    known: dict[int, tuple[int, ...]] = {0: tuple(range(G.order))}
    gens = []
    for h, images in gen_lines:
        if not 0 <= h < H.order:
            raise InvalidActionError(f"generator index {h} out of range for H")
        if len(images) != G.order:
            raise InvalidActionError(
                f"automorphism for h={h} must list {G.order} images"
            )
        known[h] = tuple(images)
        gens.append(h)
    frontier = list(known)
    while frontier:
        nxt = []
        for h1 in frontier:
            for g in gens:
                h2 = H.mul(h1, g)
                if h2 not in known:
                    # phi_(h1 g) = phi_h1 after phi_g
                    known[h2] = tuple(known[h1][x] for x in known[g])
                    nxt.append(h2)
        frontier = nxt
    if len(known) != H.order:
        raise InvalidActionError("listed generators do not generate H")
    return G, H, np.array([known[h] for h in range(H.order)], dtype=np.int64)
