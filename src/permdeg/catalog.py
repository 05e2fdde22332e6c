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

from .errors import (
    DomainError,
    ExprSyntaxError,
    InvalidActionError,
    ResourceCapError,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    direct_product,
    is_prime_power,
    load_table_file,
    make_abelian,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
    make_SL2,
    make_symmetric,
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


def expr_to_string(expr: GroupExpr) -> str:
    return str(expr)


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


def build(expr: GroupExpr, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build the finite group an expression denotes, cap-checked up front."""
    order = declared_order(expr)
    if order is not None and order > cap:
        raise ResourceCapError(f"declared order {order} exceeds cap {cap}")
    G = _build(expr, cap)
    if G.order > cap:
        raise ResourceCapError(f"built order {G.order} exceeds cap {cap}")
    return G


def _build(expr: GroupExpr, cap: int) -> FiniteGroup:
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
        G, H, action = load_semidirect(expr.path, cap=cap)
        return semidirect_product(G, H, action, cap=cap)
    if isinstance(expr, DirectProduct):
        return direct_product(_build(expr.left, cap), _build(expr.right, cap), cap=cap)
    raise DomainError(f"unknown expression node {expr!r}")


def atom_strings(expr: GroupExpr) -> list[str]:
    if isinstance(expr, DirectProduct):
        return atom_strings(expr.left) + atom_strings(expr.right)
    return [str(expr)]


def normalize_expr_string(text: str) -> str:
    """Canonical cache key: atoms of a (commutative) product in sorted order."""
    expr = parse_group_expr(text)
    return " x ".join(sorted(atom_strings(expr)))


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
    atoms_abelian = all(
        isinstance(a, (Cyclic, Abelian)) for a in _atom_nodes(expr))
    cs_expected = all(
        isinstance(a, (Cyclic, Abelian, Quaternion, SL2)) for a in _atom_nodes(expr))
    tags = set()
    if atoms_abelian:
        tags.add("abelian")
    if is_prime_power(order):
        tags.add("p-group")
    if cs_expected:
        tags.add("CS-expected")
    nodes = _atom_nodes(expr)
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


def _atom_nodes(expr: GroupExpr) -> list[GroupExpr]:
    if isinstance(expr, DirectProduct):
        return _atom_nodes(expr.left) + _atom_nodes(expr.right)
    return [expr]


def catalog(max_order: int, cap: int = DEFAULT_ORDER_CAP) -> list[CatalogEntry]:
    """Deterministic catalog: cyclic groups, abelian prime-power multisets,
    dihedral and generalized quaternion families, S3/S4, SL(2,3), SL(2,5),
    and all pairwise direct products within the bound."""
    if max_order > cap:
        raise ResourceCapError(f"catalog bound {max_order} exceeds cap {cap}")
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

    entries: dict[str, CatalogEntry] = {}

    def add(expr: GroupExpr) -> None:
        name = str(expr)
        if name not in entries:
            order = declared_order(expr)
            entries[name] = CatalogEntry(name=name, expr=expr, order=order,
                                         tags=_tags_for(expr, order))

    for e in sorted(base, key=lambda e: (declared_order(e), str(e))):
        add(e)
    products = []
    for i, a in enumerate(base):
        for b in base[i:]:
            oa, ob = declared_order(a), declared_order(b)
            if oa * ob <= max_order:
                left, right = sorted((a, b), key=str)
                products.append(DirectProduct(left, right))
    for e in sorted(products, key=lambda e: (declared_order(e), str(e))):
        add(e)
    return list(entries.values())


# -- semidirect action files ----------------------------------------------


def load_semidirect(path: str, cap: int = DEFAULT_ORDER_CAP):
    """Parse an sd-file: line "G <expr>", line "H <expr>", then per listed
    generator h of H a line "h <index> : <|G| images>" giving the
    automorphism of G it applies.  The action is extended to all of H by
    composition and fully validated.

    Returns (G, H, action) with action an |H| x |G| array.
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
                gen_lines.append((int(idx_part.strip()),
                                  [int(t) for t in img_part.split()]))
            else:
                raise InvalidActionError(f"unrecognized sd-file line: {line!r}")
    if g_expr is None or h_expr is None:
        raise InvalidActionError("sd-file must declare both G and H")
    G = build(g_expr, cap=cap)
    H = build(h_expr, cap=cap)
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
    action = np.array([known[h] for h in range(H.order)], dtype=np.int64)
    # full validation happens inside semidirect_product
    semidirect_product(G, H, action, cap=cap)
    return G, H, action
