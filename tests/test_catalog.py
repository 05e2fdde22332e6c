"""Expression parsing, printing, building, the catalog, and sd-files."""

import builtins
import hashlib
import importlib
import json
import math
import re
from functools import reduce

import numpy as np
import pytest

import permdeg as pd
from permdeg.catalog import (
    Abelian,
    Cyclic,
    Dihedral,
    DirectProduct,
    Quaternion,
    SL2,
    SemidirectFile,
    Symmetric,
    Table,
    declared_order,
)
from permdeg.errors import ResourceCapError
from permdeg.groups import group_tables, is_prime_power, product_tables
from iso import are_isomorphic

from conftest import group_for

# the module, which ``pd.catalog``, the function, hides
catalog_module = importlib.import_module("permdeg.catalog")


class TestParser:
    def test_cyclic(self):
        assert pd.parse_group_expr("C12") == Cyclic(12)

    def test_z_synonym(self):
        assert pd.parse_group_expr("Z12") == Cyclic(12)

    def test_product(self):
        assert (pd.parse_group_expr("Z4 x Z3")
                == DirectProduct((Cyclic(4), Cyclic(3))))

    def test_left_associative(self):
        # the product is associative, so every grouping is one flat node
        flat = DirectProduct((Cyclic(2), Cyclic(3), Cyclic(5)))
        assert pd.parse_group_expr("C2 x C3 x C5") == flat
        assert pd.parse_group_expr("(C2 x C3) x C5") == flat

    def test_parenthesized_right(self):
        flat = DirectProduct((Cyclic(2), Cyclic(3), Cyclic(5)))
        assert pd.parse_group_expr("C2 x (C3 x C5)") == flat
        assert pd.parse_group_expr("((C2) x ((C3) x C5))") == flat

    def test_abelian(self):
        assert pd.parse_group_expr("Ab(4,2,2)") == Abelian((4, 2, 2))

    def test_named_families(self):
        assert pd.parse_group_expr("D6") == Dihedral(6)
        assert pd.parse_group_expr("Q16") == Quaternion(16)
        assert pd.parse_group_expr("S4") == Symmetric(4)
        assert pd.parse_group_expr("SL(2,5)") == SL2(5)

    def test_whitespace_insensitive(self):
        assert pd.parse_group_expr(" C4  x  C3 ") == pd.parse_group_expr("C4 x C3")

    def test_parse_error_position(self):
        with pytest.raises(pd.ExprSyntaxError,
                           match="expected an integer") as exc:
            pd.parse_group_expr("Qx")
        assert exc.value.position == 1

    def test_trailing_garbage(self):
        # a parenthesis closes only one opened before an atom
        for text, position in (("C4 )", 3), ("(C2 x C3) x C4)", 14)):
            with pytest.raises(pd.ExprSyntaxError,
                               match="^trailing input") as exc:
                pd.parse_group_expr(text)
            assert exc.value.position == position

    def test_unclosed_paren(self):
        with pytest.raises(pd.ExprSyntaxError, match="expected '\\)'") as exc:
            pd.parse_group_expr("(C4 x C3")
        assert exc.value.position == 8

    @pytest.mark.parametrize("text,position", [("()", 1), ("(C2 x)", 5)])
    def test_empty_group_expects_an_atom(self, text, position):
        with pytest.raises(pd.ExprSyntaxError,
                           match="expected C, Z, Ab\\(") as exc:
            pd.parse_group_expr(text)
        assert exc.value.position == position

    def test_deep_nesting_and_long_products_need_no_recursion(self):
        # 500 parentheses and 1,000 factors are past Python's recursion
        # limit for a parser or fold that recurses once per level
        nested = pd.parse_group_expr("(" * 500 + "C2" + ")" * 500)
        assert nested == Cyclic(2)
        G = pd.build(nested)
        assert pd.mu_exact(G).mu == 2
        text = " x ".join(["C1"] * 1000)
        long = pd.parse_group_expr(text)
        assert long == DirectProduct((Cyclic(1),) * 1000)
        assert str(long) == text
        assert declared_order(long) == 1
        assert pd.normalize_expr_string(text) == text
        G = pd.build(long)
        assert G.order == 1 and G.label == text
        assert pd.mu_exact(G).mu == 1

    @pytest.mark.parametrize("text", [
        "C12", "Ab(4,2)", "D6", "Q32", "S4", "SL(2,3)",
        "C2 x C3 x C5", "C2 x (C3 x C5)", "(C2 x C3) x Q8",
        "table:/tmp/foo.tbl", "sd:cases/d5.sd",
    ])
    def test_print_parse_roundtrip(self, text):
        expr = pd.parse_group_expr(text)
        assert pd.parse_group_expr(str(expr)) == expr


class TestDeclaredOrderAndBuild:
    @pytest.mark.parametrize("text,order", [
        ("C6", 6), ("Ab(4,3)", 12), ("D6", 12), ("Q16", 16),
        ("S4", 24), ("SL(2,5)", 120), ("C4 x C3", 12),
    ])
    def test_declared_order(self, text, order):
        assert declared_order(pd.parse_group_expr(text)) == order

    def test_build_matches_declared(self):
        for text in ("C6", "Ab(4,3)", "D6", "Q16", "S4", "SL(2,3)", "C4 x C3"):
            expr = pd.parse_group_expr(text)
            assert pd.build(expr).order == declared_order(expr)

    def test_build_enforces_cap(self):
        with pytest.raises(pd.ResourceCapError):
            pd.build(pd.parse_group_expr("C300"))

    @pytest.mark.parametrize("text,groups", [
        ("C4 x C3", 1), ("Ab(2,2) x C3 x C5", 1), ("C2 x (C3 x Ab(4,2))", 1),
        ("D4 x C3", 2), ("(C2 x S3) x Q8", 3), ("SL(2,3) x Ab(2,2)", 2),
    ])
    def test_product_is_one_group_past_its_other_atoms(self, monkeypatch,
                                                        text, groups):
        # cyclic and abelian atoms and the inner products are folded as
        # tables; only the product and its other atoms become groups, and
        # the table and label are those of direct_product.  The atoms'
        # tables are kept, so a second build makes the product alone
        def fold(expr):
            if isinstance(expr, DirectProduct):
                return reduce(pd.direct_product, map(pd.build, expr.factors))
            return pd.build(expr)

        expr = pd.parse_group_expr(text)
        want = fold(expr)
        made = []
        init = pd.FiniteGroup.__init__

        def counting(self, *args, **kw):
            made.append(1)
            init(self, *args, **kw)

        monkeypatch.setattr(catalog_module, "_ATOM_TABLES", {})
        monkeypatch.setattr(pd.FiniteGroup, "__init__", counting)
        G = pd.build(expr)
        assert len(made) == groups
        assert G.label == want.label
        assert G.mult.tobytes() == want.mult.tobytes()
        assert G.inv == want.inv
        made.clear()
        again = pd.build(expr)
        assert len(made) == 1
        assert again is not G
        assert again.mult.tobytes() == want.mult.tobytes()
        assert again.inv == want.inv

    @pytest.mark.parametrize("text", ["C1 x C256", "C256 x C1", "SL(2,5) x C2"])
    def test_product_arrays_match_direct_product(self, monkeypatch, text):
        # C256 holds every index a byte can, and its product with C1 has
        # n_b = 256 and an element of order 256; each is built from a fresh
        # memo and then from a kept one.  The inverses and element orders
        # of both products are those searched and walked on a group given
        # none
        expr = pd.parse_group_expr(text)
        want = pd.direct_product(*map(pd.build, expr.factors))
        searched = pd.FiniteGroup(want.table_bytes, validate=False)
        assert searched._orders is None
        monkeypatch.setattr(catalog_module, "_ATOM_TABLES", {})
        for _ in range(2):
            G = pd.build(expr)
            assert G.mult.dtype == np.int64
            assert G.mult.tobytes() == want.mult.tobytes()
            assert G.inv == want.inv == searched.inv
            assert (G._element_orders() == want._element_orders()
                    == searched._element_orders())

    @pytest.mark.parametrize("left,right", [
        ("C128", "C2"), ("C1", "C256"), ("S3", "Q8"), ("SL(2,3)", "C2"),
        ("D4", "Ab(2,2)")])
    def test_product_arrays_follow_the_definition(self, left, right):
        # the fold against the definition of G x H on the pair index
        # g*|H| + h, from the kept bytes tables of each factor of order
        # <= 128 and the tables of C256, which is not kept; the orders
        # are those walked on the product's table given none
        G, H = group_for(left), group_for(right)
        a, b = (catalog_module._ATOM_TABLES[pd.parse_group_expr(text)][:3]
                if X.order <= pd.ORDER_CAP // 2 else group_tables(X)
                for text, X in ((left, G), (right, H)))
        assert type(a[0]) is type(a[1]) is bytes
        table, inv, orders = product_tables(a, b)
        assert type(table) is type(inv) is bytes
        n = H.order
        pairs = [(g, h) for g in range(G.order) for h in range(n)]
        assert list(table) == [G.mul(g, x) * n + H.mul(h, y)
                               for g, h in pairs for x, y in pairs]
        assert list(inv) == [G.inverse(g) * n + H.inverse(h) for g, h in pairs]
        walked = pd.FiniteGroup(table, validate=False)
        assert walked._orders is None
        assert list(orders) == walked._element_orders()

    def test_product_orders_leave_the_kept_dtype(self):
        # the kept tables are bytes, element orders too, and the fold's
        # orders are ints, as C256's 256 would not fit a byte; a product
        # past the order cap, where lcm(128, 3) = 384, is refused by the
        # fold itself
        pd.build(pd.parse_group_expr("C128 x C2"))
        pd.build(pd.parse_group_expr("C3"))
        kept = catalog_module._ATOM_TABLES
        c128, c2, c3 = (kept[Cyclic(n)][:3] for n in (128, 2, 3))
        for tables in (c128, c2, c3):
            assert all(type(t) is bytes for t in tables)
        orders = product_tables(c128, c2)[2]
        assert orders == [math.lcm(k, x) for k in c128[2] for x in c2[2]]
        c1, c256 = (pd.groups.cyclic_tables(n) for n in (1, 256))
        assert product_tables(c1, c256)[2][1] == 256
        with pytest.raises(ResourceCapError, match="order 384 exceeds"):
            product_tables(c128, c3)

    def test_no_abelian_factors_is_the_trivial_group(self):
        # the parser cannot write Ab(), but the fold of no cyclic factors
        # is C1's tables
        for G in (pd.make_abelian([]), pd.build(Abelian(()))):
            assert G.order == 1 and G.label == "Ab()"
            assert G.inv == (0,) and G._element_orders() == [1]
            assert pd.mu_exact(G).mu == 1

    def test_passed_orders_and_inverses_are_the_walked_ones(self, monkeypatch):
        # every catalog(256) group is built with the inverses and element
        # orders its build passes (but for a non-abelian atom's first
        # build, which its constructor makes): they must equal those
        # searched and walked on a group rebuilt from its table with none
        # passed, from a fresh memo and then from a kept one
        monkeypatch.setattr(catalog_module, "_ATOM_TABLES", {})
        entries = pd.catalog(256)
        walked = []
        for e in entries:
            G = pd.build(e.expr)
            ref = pd.FiniteGroup(G.table_bytes, validate=False)
            walked.append((ref.inv, ref._element_orders()))
            assert (G.inv, G._element_orders()) == walked[-1], e.name
        for e, want in zip(entries, walked):
            G = pd.build(e.expr)
            assert G._orders is not None or e.order > pd.ORDER_CAP // 2
            assert (G.inv, G._element_orders()) == want, e.name

    def test_two_builds_are_two_groups(self):
        # a batch spot check solves a rebuilt group: it must hold no mu
        expr = pd.parse_group_expr("D4 x C3")
        G, H = pd.build(expr), pd.build(expr)
        assert G is not H and G.table is not H.table
        pd.mu_exact(G)
        assert G._mu is not None
        assert H._mu is None

    def test_kept_atom_arrays_are_read_only(self):
        pd.build(pd.parse_group_expr("D4 x C3 x Ab(2,2)"))
        kept = catalog_module._ATOM_TABLES
        for atom in (Dihedral(4), Cyclic(3), Abelian((2, 2))):
            for t in kept[atom][:3]:  # table, inverses, element orders
                assert type(t) is bytes
                with pytest.raises(TypeError):
                    t[0] = 1

    def test_standalone_atom_is_built_from_its_kept_arrays(self, monkeypatch):
        # a non-abelian atom's first build is the one group its constructor
        # makes; a second build of any atom makes one group from the kept
        # tables and forms none of them again
        made = []
        init = pd.FiniteGroup.__init__

        def counting(self, *args, **kw):
            made.append(1)
            init(self, *args, **kw)

        def refuse(*args):
            raise AssertionError("an atom's tables were formed again")

        monkeypatch.setattr(catalog_module, "_ATOM_TABLES", {})
        monkeypatch.setattr(pd.FiniteGroup, "__init__", counting)
        exprs = [Dihedral(6), Cyclic(8), Abelian((4, 2))]
        first = [pd.build(expr) for expr in exprs]
        assert len(made) == len(exprs)
        for name in ("make_dihedral", "cyclic_tables", "abelian_tables"):
            monkeypatch.setattr(catalog_module, name, refuse)
        for expr, G in zip(exprs, first):
            made.clear()
            again = pd.build(expr)
            assert len(made) == 1
            assert again is not G and again.label == G.label == str(expr)
            assert again.mult.dtype == np.int64
            assert again.mult.tobytes() == G.mult.tobytes()
            assert again.inv == G.inv
            assert again._element_orders() == G._element_orders()

    def test_atoms_no_product_can_hold_are_not_kept(self, monkeypatch):
        # above ORDER_CAP // 2 an atom is built by its constructor alone,
        # even beside C1, with no orders walked for the memo
        monkeypatch.setattr(catalog_module, "_ATOM_TABLES", {})
        for text in ("C256", "D128", "C1 x C256", "D128 x C1", "C128", "D64"):
            pd.build(pd.parse_group_expr(text))
        assert set(catalog_module._ATOM_TABLES) == {
            Cyclic(1), Cyclic(128), Dihedral(64)}
        assert pd.build(Dihedral(128))._orders is None

    def test_table_atom_in_a_product_is_read_again(self, tmp_path):
        path = tmp_path / "g.tbl"
        path.write_text("2\n0 1\n1 0\n")
        expr = pd.parse_group_expr(f"table:{path} x C3")
        assert pd.build(expr).order == 6
        path.write_text("4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n")
        G = pd.build(expr)
        assert G.order == 12
        assert are_isomorphic(G, pd.make_cyclic(12))
        assert not any(isinstance(a, (Table, SemidirectFile))
                       for a in catalog_module._ATOM_TABLES)

    @pytest.mark.parametrize("nested,flat", [
        ("C2 x (C3 x Ab(4,2))", "C2 x C3 x Ab(4,2)"),
        ("(C2 x S3) x Q8", "C2 x S3 x Q8"),
    ])
    def test_every_grouping_is_one_table(self, nested, flat):
        # the pair index g*|H| + h is associative: direct_product folded
        # left and right gives the same table, inverses and element
        # orders, and so does the flat node every grouping parses to
        factors = [pd.build(pd.parse_group_expr(t))
                   for t in flat.split(" x ")]
        left = reduce(pd.direct_product, factors)
        right = reduce(lambda h, g: pd.direct_product(g, h), factors[::-1])
        for text in (nested, flat):
            G = pd.build(pd.parse_group_expr(text))
            for want in (left, right):
                assert G.label == want.label == flat
                assert G.mult.tobytes() == want.mult.tobytes()
                assert G.inv == want.inv
                assert G._element_orders() == want._element_orders()

    def test_factor_beside_a_file_atom_is_capped_first(self, monkeypatch,
                                                       tmp_path):
        # the product's order is unknown until the file is read, so the
        # factor's own order is checked before its table is formed
        monkeypatch.setattr(catalog_module, "_ATOM_TABLES", {})
        path = tmp_path / "g.tbl"
        path.write_text("2\n0 1\n1 0\n")
        with pytest.raises(pd.ResourceCapError):
            pd.build(pd.parse_group_expr(f"C300 x table:{path}"))
        assert Cyclic(300) not in catalog_module._ATOM_TABLES

    def test_dn_has_order_2n(self):
        assert pd.build(pd.parse_group_expr("D7")).order == 14

    def test_table_atom(self, tmp_path):
        path = tmp_path / "z4.tbl"
        path.write_text("4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n")
        G = pd.build(pd.parse_group_expr(f"table:{path}"))
        assert are_isomorphic(G, pd.make_cyclic(4))


class TestNormalization:
    def test_product_atoms_sorted(self):
        assert (pd.normalize_expr_string("Z4 x Z3")
                == pd.normalize_expr_string("C3 x C4"))

    def test_single_atom(self):
        assert pd.normalize_expr_string("Z6") == "C6"


class TestCatalog:
    def test_deterministic(self):
        a = [e.name for e in pd.catalog(30)]
        b = [e.name for e in pd.catalog(30)]
        assert a == b

    # sha256 of the JSON of [name, order, sorted tags] per entry, taken from
    # the two-pass catalog that the single pass replaced.  They guard
    # against a change in the catalog, not against an error in it: a wrong
    # entry that was there when they were taken is pinned too
    @pytest.mark.parametrize("max_order,count,digest", [
        (1, 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
        (6, 11, "7523873b38acce7ba53770b16b8865060559b98681d85b2f30241e2d11b5fc89"),
        (24, 113, "42cec22c789159b151a2fac86d03d7204a83c0c0655e898cb49f68781bf40620"),
        (120, 1182, "40236d382478c0b807f199a63f5ce7ef66cd8161739a3b61755816b410f23b8e"),
        (128, 1318, "25bd2223d113e8b8747a79587cc0b70f8ac43f436887e73cfc73af74ab944557"),
        (256, 3406, "11eaa83cb632056331df59f54c7baf54c59b0ba12b7b5b2c1469fd44b12f1a52"),
    ])
    def test_pinned(self, max_order, count, digest):
        rows = [[e.name, e.order, sorted(e.tags)] for e in pd.catalog(max_order)]
        assert len(rows) == count
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest

    def test_names_are_normal_forms(self):
        # the batch cache is keyed by catalog name, so each name must be
        # the key normalize_expr_string gives for it
        for e in pd.catalog(256):
            assert pd.normalize_expr_string(e.name) == e.name

    def test_no_duplicates(self):
        names = [e.name for e in pd.catalog(48)]
        assert len(names) == len(set(names))

    def test_orders_within_bound(self, catalog48):
        assert all(2 <= e.order <= 48 for e in catalog48)

    def test_contains_expected_families(self, catalog48):
        names = {e.name for e in catalog48}
        assert {"C2", "C48", "Ab(2,2)", "D3", "Q8", "Q32", "S3", "S4",
                "SL(2,3)", "C3 x Q8"} <= names
        assert "SL(2,5)" not in names  # order 120 > 48
        assert "SL(2,5)" in {e.name for e in pd.catalog(120)}

    def test_abelian_multisets_complete_to_16(self):
        names = {e.name for e in pd.catalog(16)}
        assert {"Ab(2,2)", "Ab(2,2,2)", "Ab(4,2)", "Ab(2,2,2,2)",
                "Ab(4,2,2)", "Ab(4,4)", "Ab(8,2)", "Ab(3,3)"} <= names
        assert "Ab(9,3)" not in names  # order 27 > 16

    def test_tags(self, catalog48):
        by_name = {e.name: e for e in catalog48}
        assert "abelian" in by_name["Ab(4,2)"].tags
        assert "abelian" not in by_name["S3"].tags
        assert "p-group" in by_name["Q16"].tags
        assert "p-group" not in by_name["C6"].tags
        assert "incompressible-expected" in by_name["C8"].tags
        assert "incompressible-expected" in by_name["Q8"].tags
        assert "incompressible-expected" in by_name["Ab(2,2)"].tags
        assert "incompressible-expected" not in by_name["C6"].tags
        assert "CS-expected" in by_name["Q8"].tags
        assert "CS-expected" not in by_name["S3"].tags

    def test_tags_match_the_per_entry_rule(self):
        # the tags were once derived entry by entry from the expression's
        # atoms; that derivation, kept here, is the reference for the tags
        # derived once per atom
        def tags_for(expr, order):
            nodes = (list(expr.factors) if isinstance(expr, DirectProduct)
                     else [expr])
            tags = set()
            if all(isinstance(a, (Cyclic, Abelian)) for a in nodes):
                tags.add("abelian")
            if is_prime_power(order):
                tags.add("p-group")
            if all(isinstance(a, (Cyclic, Abelian, Quaternion, SL2))
                   for a in nodes):
                tags.add("CS-expected")
            if len(nodes) == 1:
                a = nodes[0]
                if isinstance(a, Quaternion):
                    tags.add("incompressible-expected")
                elif isinstance(a, Cyclic) and is_prime_power(a.n):
                    tags.add("incompressible-expected")
                elif isinstance(a, Abelian) and a.factors == (2, 2):
                    tags.add("incompressible-expected")
            elif (all(isinstance(a, Cyclic) and a.n == 2 for a in nodes)
                  and len(nodes) == 2):
                tags.add("incompressible-expected")
            return frozenset(tags)

        for e in pd.catalog(256):
            assert e.tags == tags_for(e.expr, e.order), e.name

    def test_tag_predictions_hold(self, catalog48):
        for e in catalog48:
            if e.order > 24:
                continue
            G = group_for(e.name)
            if "abelian" in e.tags:
                assert G.is_abelian()
            if "CS-expected" in e.tags:
                assert pd.is_CS(G)
            verdict = pd.classify_incompressible(G)
            assert (("incompressible-expected" in e.tags)
                    == (verdict.structural_type != "compressible"))


D5_SD = """\
# C5 inverted by C2
G C5
H C2
h 1 : 0 4 3 2 1
"""


class TestSemidirectFiles:
    def test_load_d5(self, tmp_path):
        path = tmp_path / "d5.sd"
        path.write_text(D5_SD)
        G, H, action = pd.load_semidirect(str(path))
        assert G.order == 5 and H.order == 2
        P = pd.semidirect_product(G, H, action)
        assert are_isomorphic(P, pd.make_dihedral(5))

    def test_build_sd_atom(self, tmp_path):
        path = tmp_path / "d5.sd"
        path.write_text(D5_SD)
        P = pd.build(pd.parse_group_expr(f"sd:{path}"))
        assert P.order == 10

    def test_generator_extension(self, tmp_path):
        # list only a generator of C4; its powers' automorphisms are derived
        path = tmp_path / "c5c4.sd"
        path.write_text("G C5\nH C4\nh 1 : 0 2 4 1 3\n")  # g -> g^2, order 4
        G, H, action = pd.load_semidirect(str(path))
        assert list(action[2]) == [0, 4, 3, 2, 1]   # squaring twice = inversion

    def test_rejects_non_generating_set(self, tmp_path):
        path = tmp_path / "bad.sd"
        path.write_text("G C5\nH C4\nh 2 : 0 4 3 2 1\n")  # <2> is not all of C4
        with pytest.raises(pd.InvalidActionError):
            pd.load_semidirect(str(path))

    def test_rejects_non_automorphism(self, tmp_path):
        # load_semidirect leaves this to semidirect_product, which both of
        # its callers run before using the action
        path = tmp_path / "bad2.sd"
        path.write_text("G C4\nH C2\nh 1 : 0 2 1 3\n")
        with pytest.raises(pd.InvalidActionError):
            pd.build(pd.parse_group_expr(f"sd:{path}"))
        with pytest.raises(pd.InvalidActionError):
            pd.semidirect_bound_check(*pd.load_semidirect(str(path)))

    @pytest.mark.parametrize("images", ["0 3 2 99", "0 -1 2 1", "0 3 2 4"])
    def test_image_outside_g_refused_naming_h(self, tmp_path, images):
        # an image past |G| would index past a listed automorphism when
        # the images are composed, and a negative one would wrap around
        path = tmp_path / "out.sd"
        path.write_text(f"G C4\nH C4\nh 1 : {images}\n")
        with pytest.raises(pd.InvalidActionError,
                           match="h=1 has an image outside G"):
            pd.load_semidirect(str(path))

    def test_relative_paths_name_files_beside_the_sd_file(self, monkeypatch,
                                                          tmp_path):
        # a relative table: or sd: path on a G or H line is read from the
        # directory of the sd-file that names it, at every level; an
        # absolute path is read as given
        inner = tmp_path / "d" / "inner"
        inner.mkdir(parents=True)
        (inner / "c5.tbl").write_text(
            "5\n" + "".join(" ".join(str((a + b) % 5) for b in range(5)) + "\n"
                           for a in range(5)))
        (inner / "d5.sd").write_text("G table:c5.tbl\nH C2\nh 1 : 0 4 3 2 1\n")
        c3 = tmp_path / "c3.tbl"
        c3.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
        (tmp_path / "d" / "a.sd").write_text(f"G sd:inner/d5.sd x table:{c3}\nH C1\n")
        monkeypatch.chdir(tmp_path)
        P = pd.build(pd.parse_group_expr("sd:d/a.sd"))
        assert are_isomorphic(P, pd.build(pd.parse_group_expr("D5 x C3")))
        # a path outside any sd-file is read from the working directory
        monkeypatch.chdir(inner)
        assert pd.build(pd.parse_group_expr("sd:d5.sd")).order == 10

    @pytest.mark.parametrize("files", [
        {"self.sd": "G sd:{self.sd}\nH C2\n"},
        {"a.sd": "G C3\nH sd:{b.sd}\n", "b.sd": "G sd:{a.sd}\nH C2\n"},
    ], ids=["names-itself", "name-each-other"])
    def test_cycle_refused_by_name(self, monkeypatch, tmp_path, files):
        # the file named again is refused before it is read again
        paths = {name: str(tmp_path / name) for name in files}
        for name, text in files.items():
            for other, path in paths.items():
                text = text.replace("{" + other + "}", path)
            (tmp_path / name).write_text(text)
        opened = []
        real_open = builtins.open

        def counting(file, *args, **kw):
            opened.append(file)
            return real_open(file, *args, **kw)

        monkeypatch.setattr(builtins, "open", counting)
        first = paths[next(iter(files))]
        with pytest.raises(pd.InvalidActionError,
                           match=re.escape(f"sd-file {first} names itself")):
            pd.build(pd.parse_group_expr(f"sd:{first}"))
        assert sorted(opened) == sorted(paths.values())
        # nothing is left marked as loading: the file loads on its own
        # once the cycle is broken
        (tmp_path / next(iter(files))).write_text("G C3\nH C2\nh 1 : 0 2 1\n")
        monkeypatch.setattr(builtins, "open", real_open)
        assert pd.build(pd.parse_group_expr(f"sd:{first}")).order == 6

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad3.sd"
        path.write_text("G C4\nh 1 : 0 3 2 1\n")
        with pytest.raises(pd.InvalidActionError):
            pd.load_semidirect(str(path))
