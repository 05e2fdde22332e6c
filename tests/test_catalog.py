"""Expression parsing, printing, building, the catalog, and sd-files."""

import hashlib
import json

import pytest

import permdeg as pd
from permdeg.catalog import (
    Abelian,
    Cyclic,
    Dihedral,
    DirectProduct,
    Quaternion,
    SL2,
    Symmetric,
    declared_order,
)
from permdeg.iso import are_isomorphic

from conftest import group_for


class TestParser:
    def test_cyclic(self):
        assert pd.parse_group_expr("C12") == Cyclic(12)

    def test_z_synonym(self):
        assert pd.parse_group_expr("Z12") == Cyclic(12)

    def test_product(self):
        assert pd.parse_group_expr("Z4 x Z3") == DirectProduct(Cyclic(4), Cyclic(3))

    def test_left_associative(self):
        e = pd.parse_group_expr("C2 x C3 x C5")
        assert e == DirectProduct(DirectProduct(Cyclic(2), Cyclic(3)), Cyclic(5))

    def test_parenthesized_right(self):
        e = pd.parse_group_expr("C2 x (C3 x C5)")
        assert e == DirectProduct(Cyclic(2), DirectProduct(Cyclic(3), Cyclic(5)))

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
        with pytest.raises(pd.ExprSyntaxError) as exc:
            pd.parse_group_expr("Qx")
        assert exc.value.position == 1

    def test_trailing_garbage(self):
        with pytest.raises(pd.ExprSyntaxError):
            pd.parse_group_expr("C4 )")

    def test_unclosed_paren(self):
        with pytest.raises(pd.ExprSyntaxError):
            pd.parse_group_expr("(C4 x C3")

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

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad3.sd"
        path.write_text("G C4\nh 1 : 0 3 2 1\n")
        with pytest.raises(pd.InvalidActionError):
            pd.load_semidirect(str(path))
