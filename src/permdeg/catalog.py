"""The group-expression language, its parser and evaluator, the built-in
test catalog, and semidirect-action file ingestion.

Grammar (whitespace-insensitive):

    expr := {"("} atom {")"} { "x" {"("} atom {")"} }
    atom := "C" INT | "Z" INT | "Ab(" INT {"," INT} ")" | "D" INT | "Q" INT
          | "S" INT | "SL(2," INT ")" | "table:" PATH | "sd:" PATH

with the parentheses balanced.  The product is associative, so a product
is one flat node of its atoms however they are grouped.

Dn is the dihedral group of ORDER 2n (geometric convention); Qn is the
generalized quaternion group of order n.  "C" and "Z" are synonyms.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

from .errors import DomainError, ExprSyntaxError, InvalidActionError
from .groups import (
    ORDER_CAP,
    FiniteGroup,
    abelian_tables,
    check_order,
    cyclic_tables,
    group_tables,
    is_prime_power,
    load_table_file,
    make_dihedral,
    make_generalized_quaternion,
    make_SL2,
    make_symmetric,
    product_tables,
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
    factors: tuple["GroupExpr", ...]  # two or more atoms, as written

    def __str__(self) -> str:
        return " x ".join(map(str, self.factors))


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
        # the product is associative, so parentheses only have to balance
        factors, depth = [], 0
        while not factors or self.literal("x"):
            while self.literal("("):
                depth += 1
            factors.append(self.atom())
            while depth and self.literal(")"):
                depth -= 1
        if depth:
            self.expect(")")
        return factors[0] if len(factors) == 1 else DirectProduct(tuple(factors))

    def atom(self) -> GroupExpr:
        self.skip_ws()
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
    """Order computable from the expression alone: a product's is that of
    its factors' (None if it holds a file atom)."""
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
        orders = [declared_order(f) for f in expr.factors]
        return None if None in orders else math.prod(orders)
    return None


def build(expr: GroupExpr) -> FiniteGroup:
    """Build the finite group an expression denotes.

    A declared order is checked against the order cap up front; a file atom,
    and a product with one, is checked by the constructor that reads or
    forms its table, before the table is allocated.

    A ``table:`` or ``sd:`` atom is read and built by its constructor.
    Every other expression becomes one group made from the table, inverses
    and element orders ``_factor_table`` folds from a product's factors in
    one loop, most of them from the tables it keeps.  The first build of a
    non-abelian atom returns the group its constructor made instead, whose
    tables are then kept, so no second group is formed.  Every call
    returns a new group, which holds no lattice or mu yet.
    """
    order = declared_order(expr)
    if order is not None:
        check_order(order)
    if isinstance(expr, Table):
        return load_table_file(expr.path)
    if isinstance(expr, SemidirectFile):
        return semidirect_product(*load_semidirect(expr.path))
    if isinstance(expr, _CONSTRUCTED) and expr not in _ATOM_TABLES:
        G = _construct(expr)
        if G.order <= _KEPT_ORDER:
            _keep(expr, (*group_tables(G), G.label))
        return G
    table, inv, orders, label = _factor_table(expr)
    return FiniteGroup(table, label=label, validate=False, inv=inv,
                       orders=orders)


_Labelled = tuple[bytes, bytes, Sequence[int], str]

# (table, inverses, element orders, label) of each atom other than a file
# atom that a product can hold, built once per process; see ``_factor_table``
_ATOM_TABLES: dict[GroupExpr, _Labelled] = {}
# an atom is kept iff a product with a nontrivial other factor can hold
# it: every factor of a catalog product is kept, and no larger atom
_KEPT_ORDER = ORDER_CAP // 2
# atoms whose tables only their constructor forms
_CONSTRUCTED = (Dihedral, Quaternion, Symmetric, SL2)


def _factor_table(expr: GroupExpr) -> _Labelled:
    """The table, inverses, element orders and label of a direct product
    or of one of its factors.

    A product's factors are folded left to right by ``product_tables``,
    the index arithmetic and order check of ``direct_product``, with
    their labels, so only the whole product becomes a group, and it
    neither searches a row for its inverses nor walks an element's
    powers.  Each factor's tables are formed just before its fold, so a
    prefix over the cap is refused before a later file atom is read.  An
    atom's tables are formed once per process and kept by ``_keep``, so a
    second build of an atom or a product, as a ``batch`` cache hit makes
    after the ``catalog`` sweep, folds kept tables.  A cyclic or abelian
    atom's tables are formed with no group built; any other atom is built
    by its own constructor.  A ``table:`` or ``sd:`` atom is read by
    ``build`` on every call instead, because its file can change between
    builds.
    """
    if isinstance(expr, DirectProduct):
        *tables, label = _factor_table(expr.factors[0])
        for factor in expr.factors[1:]:
            *b, name = _factor_table(factor)
            tables, label = product_tables(tables, b), f"{label} x {name}"
        return (*tables, label)
    if isinstance(expr, (Table, SemidirectFile)):
        G = build(expr)
        return (*group_tables(G), G.label)
    kept = _ATOM_TABLES.get(expr)
    if kept is not None:
        return kept
    # beside a file atom the product's order is known only once the file
    # is read, so an atom's own order is checked before its table is formed
    order = declared_order(expr)
    if order is None:
        raise DomainError(f"unknown expression node {expr!r}")
    check_order(order)
    if isinstance(expr, Cyclic):
        tables = (*cyclic_tables(expr.n), str(expr))
    elif isinstance(expr, Abelian):
        tables = (*abelian_tables(expr.factors), str(expr))
    else:
        G = _construct(expr)
        tables = (*group_tables(G), G.label)
    if order <= _KEPT_ORDER:
        _keep(expr, tables)
    return tables


def _keep(expr: GroupExpr, tables: _Labelled) -> None:
    """Keep an atom's tables in ``_ATOM_TABLES`` as immutable bytes: the
    table, the inverses and the element orders, which for a kept atom
    are at most ``_KEPT_ORDER`` and fit a byte too."""
    table, inv, orders, label = tables
    _ATOM_TABLES[expr] = (table, inv, bytes(orders), label)


def _construct(expr: GroupExpr) -> FiniteGroup:
    if isinstance(expr, Dihedral):
        return make_dihedral(expr.n)
    if isinstance(expr, Quaternion):
        return make_generalized_quaternion(expr.order)
    if isinstance(expr, Symmetric):
        return make_symmetric(expr.n)
    if isinstance(expr, SL2):
        return make_SL2(expr.p)
    raise DomainError(f"unknown expression node {expr!r}")


def normalize_expr_string(text: str) -> str:
    """Canonical cache key: atoms of a (commutative) product in sorted order."""
    expr = parse_group_expr(text)
    atoms = expr.factors if isinstance(expr, DirectProduct) else (expr,)
    return " x ".join(sorted(map(str, atoms)))


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


def _atom_facts(atom: GroupExpr, prime_powers: set[int]
                ) -> tuple[bool, bool, bool, bool]:
    """Whether an atom is abelian, expected to be CS, expected to be
    incompressible alone, and C2: a product's tags follow from its
    atoms'."""
    abelian = isinstance(atom, (Cyclic, Abelian))
    incompressible = (isinstance(atom, Quaternion)
                      or (isinstance(atom, Cyclic) and atom.n in prime_powers)
                      or (isinstance(atom, Abelian) and atom.factors == (2, 2)))
    return (abelian, abelian or isinstance(atom, (Quaternion, SL2)),
            incompressible, atom == Cyclic(2))


@lru_cache(maxsize=None)
def _tags(abelian: bool, p_group: bool, cs: bool,
          incompressible: bool) -> frozenset[str]:
    return frozenset(tag for tag, on in (
        ("abelian", abelian), ("p-group", p_group), ("CS-expected", cs),
        ("incompressible-expected", incompressible)) if on)


def catalog(max_order: int) -> list[CatalogEntry]:
    """Deterministic catalog: cyclic groups, abelian prime-power multisets,
    dihedral and generalized quaternion families, S3/S4, SL(2,3), SL(2,5),
    and all pairwise direct products within the bound.

    The atoms come first, then the products, each sorted by (order, name).
    Each name occurs once: no two atoms print alike, and each unordered
    pair of atoms is formed once, its factors in name order.  So every name
    is also in the normal form of ``normalize_expr_string``.

    Tags: "abelian" when every atom is cyclic or abelian; "p-group" when
    the order is a prime power; "CS-expected" when every atom is cyclic,
    abelian, generalized quaternion or SL(2,p); "incompressible-expected"
    for a generalized quaternion group, a cyclic group of prime-power
    order, Ab(2,2) and C2 x C2."""
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
    prime_powers = set(_prime_powers_upto(max_order))
    facts = [_atom_facts(a, prime_powers) for _, _, a in atoms]
    entries = [(order, name, a, _tags(abelian, order in prime_powers, cs, inc))
               for (order, name, a), (abelian, cs, inc, _) in zip(atoms, facts)]
    products = []
    for i, (oa, na, a) in enumerate(atoms):
        ab_a, cs_a, _, c2_a = facts[i]
        for (ob, nb, b), (ab_b, cs_b, _, c2_b) in zip(atoms[i:], facts[i:]):
            order = oa * ob
            if order > max_order:
                break  # the rest of the atoms are no smaller
            if na <= nb:
                pair, name = DirectProduct((a, b)), f"{na} x {nb}"
            else:
                pair, name = DirectProduct((b, a)), f"{nb} x {na}"
            products.append((order, name, pair,
                             _tags(ab_a and ab_b, order in prime_powers,
                                   cs_a and cs_b, c2_a and c2_b)))
    products.sort(key=lambda t: t[:2])
    return [CatalogEntry(name=name, expr=expr, order=order, tags=tags)
            for order, name, expr, tags in entries + products]


# -- semidirect action files ----------------------------------------------

_SD_LOADING: set[str] = set()  # real paths of the sd-files being loaded


def _rebased(expr: GroupExpr, base: str) -> GroupExpr:
    """``expr`` with each relative ``table:`` or ``sd:`` path taken
    relative to the directory ``base`` instead of the working directory."""
    if isinstance(expr, DirectProduct):
        return DirectProduct(tuple(_rebased(f, base) for f in expr.factors))
    if isinstance(expr, (Table, SemidirectFile)) and not os.path.isabs(expr.path):
        return type(expr)(os.path.join(base, expr.path))
    return expr


def load_semidirect(path: str):
    """Parse an sd-file: line "G <expr>", line "H <expr>", then per listed
    generator h of H a line "h <index> : <|G| images>" giving the
    automorphism of G it applies.  The action is extended to all of H by
    composition.

    Returns (G, H, action) with ``action[h]`` the list of the |G| images
    of h's automorphism.  Each image is checked to lie in G before the
    automorphisms are composed, but they are not checked to be
    automorphisms here: ``semidirect_product``, which every caller runs on
    the result before it uses the action, validates them.
    A relative ``table:`` or ``sd:`` path on the G or H line names a file
    in the sd-file's own directory.  A file that G or H names again,
    directly or through other sd-files, is refused by name before it is
    read again.
    """
    real = os.path.realpath(path)
    if real in _SD_LOADING:
        raise InvalidActionError(
            f"sd-file {path} names itself, directly or through other sd-files")
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
    base = os.path.dirname(path)
    _SD_LOADING.add(real)
    try:
        G = build(_rebased(g_expr, base))
        H = build(_rebased(h_expr, base))
    finally:
        _SD_LOADING.discard(real)
    known: dict[int, tuple[int, ...]] = {0: tuple(range(G.order))}
    gens = []
    for h, images in gen_lines:
        if not 0 <= h < H.order:
            raise InvalidActionError(f"generator index {h} out of range for H")
        if len(images) != G.order:
            raise InvalidActionError(
                f"automorphism for h={h} must list {G.order} images"
            )
        if not all(0 <= x < G.order for x in images):
            raise InvalidActionError(
                f"automorphism for h={h} has an image outside G")
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
    return G, H, [list(known[h]) for h in range(H.order)]
