"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every tolerance here is exact; timings are wall-clock budgets from the
acceptance contract.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import permdeg as pd
from permdeg.gfp import MatrixGFp, SubspaceGFp

from conftest import group_for, mu_of


def report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


@pytest.fixture(scope="module")
def catalog48_entries():
    return pd.catalog(48)


def test_criterion_01_known_constants(capsys):
    t0 = time.perf_counter()
    assert pd.mu_exact(group_for("SL(2,5)")).mu == 24
    sl_time = time.perf_counter() - t0
    assert sl_time < 60.0
    assert mu_of("Q8") == 8
    assert mu_of("Ab(2,2)") == 4
    assert mu_of("C6") == 5
    for k in range(1, 6):
        assert mu_of(f"C{2 ** k}") == 2 ** k
    report(capsys, f"Criterion 1: PASS - mu(SL(2,5))=24 ({sl_time:.1f}s), "
                   "mu(Q8)=8, mu(V4)=4, mu(C6)=5, mu(C2^k)=2^k for k<=5")


def test_criterion_02_abelian_formula(capsys):
    entries = [e for e in pd.catalog(100) if "abelian" in e.tags]
    assert entries, "catalog produced no abelian groups"
    for e in entries:
        G = group_for(e.name)
        assert G.is_abelian()
        assert mu_of(e.name) == pd.m_value(pd.primary_decomposition(G)), e.name
    report(capsys, f"Criterion 2: PASS - mu = m(primary decomposition) for all "
                   f"{len(entries)} abelian catalog groups of order <= 100")


def test_criterion_03_oracle_equivalence(capsys, catalog48_entries):
    t0 = time.perf_counter()
    for e in catalog48_entries:
        G = group_for(e.name)
        assert mu_of(e.name) == pd.mu_oracle(G).mu, e.name
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(capsys, f"Criterion 3: PASS - mu_exact = mu_oracle on all "
                   f"{len(catalog48_entries)} catalog groups of order <= 48 "
                   f"({elapsed:.1f}s)")


def test_criterion_04_coprime_additivity(capsys):
    entries = [e for e in pd.catalog(60)]
    pairs = [(a, b) for a, b in itertools.combinations(entries, 2)
             if math.gcd(a.order, b.order) == 1 and a.order * b.order <= 120]
    assert pairs
    for a, b in pairs:
        G, H = group_for(a.name), group_for(b.name)
        P = pd.direct_product(G, H)
        assert pd.mu_exact(P).mu == mu_of(a.name) + mu_of(b.name), (a.name, b.name)
    report(capsys, f"Criterion 4: PASS - coprime additivity on all "
                   f"{len(pairs)} catalog pairs with |G||H| <= 120")


def test_criterion_05_cs_additivity(capsys):
    entries = [e for e in pd.catalog(32)]
    cs = {e.name: pd.is_CS(group_for(e.name)) for e in entries}
    pairs = [(a, b) for a, b in
             itertools.combinations_with_replacement(entries, 2)
             if cs[a.name] and cs[b.name] and a.order * b.order <= 64]
    assert any({a.name, b.name} == {"Q8", "C4"} for a, b in pairs)
    for a, b in pairs:
        G, H = group_for(a.name), group_for(b.name)
        P = pd.direct_product(G, H)
        assert pd.mu_exact(P).mu == mu_of(a.name) + mu_of(b.name), (a.name, b.name)
    # the named spot values
    assert pd.mu_exact(pd.direct_product(group_for("Q8"), group_for("C4"))).mu == 12
    assert pd.mu_exact(pd.direct_product(group_for("Q8"), group_for("Q8"))).mu == 16
    report(capsys, f"Criterion 5: PASS - central-socle additivity on all "
                   f"{len(pairs)} CS pairs with product order <= 64 "
                   "(incl. Q8xC4 -> 12, Q8xQ8 -> 16)")


def test_criterion_06_incompressibility(capsys, catalog48_entries):
    structural_types = {}
    ratios = {}
    for e in catalog48_entries:
        verdict = pd.classify_incompressible(group_for(e.name))
        structural_types[e.name] = verdict.structural_type
        ratios[e.name] = verdict.cr
        # the classifier itself asserts structural <=> cr == 1
    above_1 = {n: r for n, r in ratios.items() if r > 1}
    assert min(above_1.values()) == Fraction(6, 5)
    assert ratios["C6"] == Fraction(6, 5)
    gap = [n for n, r in above_1.items() if r < Fraction(6, 5)]
    assert gap == []
    odd_gap = [n for n, r in above_1.items()
               if group_for(n).order % 2 == 1 and r < Fraction(3, 2)]
    assert odd_gap == []
    report(capsys, "Criterion 6: PASS - cr=1 iff structural type; "
                   "min cr>1 = 6/5 at C6; no group in (1,6/5); "
                   "no odd-order group in (1,3/2)")


def test_criterion_07_meet_irreducible_reduction(capsys, catalog48_entries):
    for e in catalog48_entries:
        G = group_for(e.name)
        res = pd.mu_exact(G)
        out = pd.reduce_to_meet_irreducible(res.witness)
        assert pd.degree(out) == res.mu, e.name
        assert pd.is_faithful(out), e.name
        lat = G.lattice()
        flags = lat.meet_irreducible_flags()
        assert all(flags[lat.subgroup_index(H)] for H in out.parts), e.name
    report(capsys, f"Criterion 7: PASS - meet-irreducible reduction preserves "
                   f"degree and faithfulness on all {len(catalog48_entries)} "
                   "catalog groups of order <= 48")


def test_criterion_08_semidirect_dihedral_bound(capsys, tmp_path):
    for n in range(3, 13):
        inv_images = " ".join(str((-g) % n) for g in range(n))
        path = tmp_path / f"d{n}.sd"
        path.write_text(f"G C{n}\nH C2\nh 1 : {inv_images}\n")
        G, H, action = pd.load_semidirect(str(path))
        rep = pd.semidirect_bound_check(G, H, action)
        assert rep.holds, n
        assert rep.mu_product <= n + 2, n
        assert rep.embedding_injective, n
    report(capsys, "Criterion 8: PASS - mu(D_n) <= n+2 for 3 <= n <= 12 via "
                   "sd-files with injective embeddings")


def test_criterion_09_linear_algebra(capsys):
    t0 = time.perf_counter()
    # exhaustive 3x3 over GF(2)
    for bits in range(2 ** 9):
        rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        M = MatrixGFp.from_rows(rows, 2)
        assert pd.det_laplace(M, [0, 1]) == pd.det(M)
    rng = random.Random(20260823)
    for _ in range(1000):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 6)
        M = MatrixGFp.from_rows(
            [[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
        cols = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        assert pd.det_laplace(M, cols) == pd.det(M)
    done = 0
    while done < 500:
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 5)
        M = MatrixGFp.from_rows(
            [[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
        if pd.det(M) == 0:
            continue
        m = rng.randint(1, n - 1)
        perm = pd.block_row_permutation(M, m)
        P = M.permuted_rows(perm)
        assert pd.det(P.submatrix(range(m), range(m))) != 0
        assert pd.det(P.submatrix(range(m, n), range(m, n))) != 0
        done += 1
    done = 0
    while done < 200:
        p = rng.choice([2, 3, 5])
        n = rng.randint(2, 5)
        vecs = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if pd.det(MatrixGFp.from_rows(vecs, p)) == 0:
            continue
        hyperplanes = [
            SubspaceGFp.from_vectors([vecs[j] for j in range(n) if j != i], p, n)
            for i in range(n)
        ]
        basis = pd.recover_coordinate_basis(hyperplanes)
        for i, V in enumerate(hyperplanes):
            span = SubspaceGFp.from_vectors(
                [basis[j] for j in range(n) if j != i], p, n)
            assert span == V
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(capsys, f"Criterion 9: PASS - Laplace = Gaussian (512 exhaustive + "
                   f"1000 random), 500 block permutations, 200 coordinate-basis "
                   f"round-trips ({elapsed:.1f}s)")


def test_criterion_10_structural_lemmas(capsys, catalog48_entries):
    from permdeg.catalog import DirectProduct, declared_order

    split_checked = 0
    socle_checked = 0
    domination_checked = 0
    for e in catalog48_entries:
        if isinstance(e.expr, DirectProduct):
            lo, ro = map(declared_order, e.expr.factors)
            G, H = map(pd.build, e.expr.factors)
            P = group_for(e.name)
            # socle product equality under pair indexing
            expected = 0
            for g in pd.socle(G).elements():
                for h in pd.socle(H).elements():
                    expected |= 1 << (g * H.order + h)
            assert pd.socle(P).bits == expected, e.name
            socle_checked += 1
            if math.gcd(lo, ro) == 1:
                # coprime orders: every subgroup is a product of projections
                for K in P.lattice().subgroups:
                    elems = K.elements()
                    gs = sorted({x // H.order for x in elems})
                    hs = sorted({x % H.order for x in elems})
                    assert sorted(elems) == sorted(
                        g * H.order + h for g in gs for h in hs), e.name
                split_checked += 1
        if "abelian" in e.tags and "p-group" in e.tags:
            G = group_for(e.name)
            dG = sorted(pd.primary_decomposition(G).factors, reverse=True)
            for Hs in G.lattice().subgroups:
                Hg, _ = pd.subgroup_as_group(Hs)
                dH = sorted(pd.primary_decomposition(Hg).factors, reverse=True)
                assert len(dH) <= len(dG), e.name
                assert all(c <= d for c, d in zip(dH, dG)), e.name
            domination_checked += 1
    assert split_checked and socle_checked and domination_checked
    report(capsys, f"Criterion 10: PASS - subgroup splitting on "
                   f"{split_checked} coprime products, socle equality on "
                   f"{socle_checked} products, componentwise domination on "
                   f"{domination_checked} abelian p-groups")
