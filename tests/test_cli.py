"""CLI surface: commands, output modes, exit codes, and the cache."""

import json
import os
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import permdeg as pd
from permdeg.cli import _cached_witness, _entry_crc, cli

from conftest import SD_FILE_REFUSAL_IDS, SD_FILE_REFUSALS, table_array


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, **kw):
    return runner.invoke(cli, list(args), catch_exceptions=False, **kw)


def v3_entry(expr, mu, witness, is_cs, table_of=None):
    """A version-3 cache entry for ``expr``: its CRC-32 runs over the sorted
    JSON of every other field, then over the byte table of ``table_of``
    (``expr`` itself by default, so that the checksum holds)."""
    G = pd.build(pd.parse_group_expr(expr))
    T = G if table_of is None else pd.build(pd.parse_group_expr(table_of))
    entry = {"version": 3, "order": G.order, "mu": mu, "witness": witness,
             "is_CS": is_cs}
    entry["crc"] = zlib.crc32(
        T.table_bytes, zlib.crc32(json.dumps(entry, sort_keys=True).encode()))
    return entry


def batch_record(output, expr):
    return next(rec for rec in map(json.loads, output.strip().splitlines())
                if rec.get("expr") == expr)


class TestMu:
    def test_basic(self, runner):
        r = invoke(runner, "mu", "C6")
        assert r.exit_code == 0
        assert "mu=5" in r.output

    def test_lattice_budget_exits_2(self, runner, monkeypatch):
        # mu of an abelian group builds no lattice, so the budget is met
        # through the lattice command
        monkeypatch.setattr(pd.groups, "LATTICE_SUBGROUP_CAP", 100)
        r = invoke(runner, "lattice", "Ab(2,2,2,2,2)")  # 374 subgroups
        assert r.exit_code == 2
        assert "resource cap" in r.stderr

    def test_lattice_budget_exits_2_non_abelian(self, runner, monkeypatch):
        # non-abelian lattices register a whole conjugacy class at a time
        monkeypatch.setattr(pd.groups, "LATTICE_SUBGROUP_CAP", 100)
        r = invoke(runner, "mu", "S5")  # walks the 154 subgroups avoiding A5
        assert r.exit_code == 2
        assert "resource cap" in r.stderr

    def test_json(self, runner):
        r = invoke(runner, "--json", "mu", "Z4 x Z3")
        assert r.exit_code == 0
        data = json.loads(r.output)
        assert data["mu"] == 7 and data["order"] == 12

    def test_oracle_agreement(self, runner):
        r = invoke(runner, "mu", "Z4 x Z3", "--oracle")
        assert r.exit_code == 0
        assert "oracle=7" in r.output and "agree=True" in r.output

    def test_witness(self, runner):
        r = invoke(runner, "--json", "mu", "Ab(2,2)", "--witness")
        data = json.loads(r.output)
        assert sorted(len(w) for w in data["witness"]) == [2, 2]
        assert all(w == sorted(w) for w in data["witness"])

    def test_parse_error_exit_1_no_output(self, runner):
        r = invoke(runner, "mu", "Qx")
        assert r.exit_code == 1
        assert r.stdout == ""

    def test_cap_exit_2(self, runner, tmp_path):
        # one test looping over the cases, not a parametrized one, so that
        # its name stays as it was; the table declares 300 and has no rows,
        # so it is refused before its rows are read
        table = tmp_path / "big.tbl"
        table.write_text("300\n")
        for args, order in [
            (["mu", "C257"], 257),
            (["mu", "SL(2,5) x C3"], 360),
            (["verify", "additivity", "C2", "C129"], 258),
            (["batch", "--max-order", "257"], 257),
            (["mu", f"table:{table}"], 300),
        ]:
            r = invoke(runner, *args)
            assert r.exit_code == 2, args
            assert r.stdout == "", args
            assert r.stderr == f"resource cap: order {order} exceeds cap 256\n", args

    def test_oracle_cap_exit_2(self, runner):
        r = invoke(runner, "mu", "SL(2,5)", "--oracle")
        assert r.exit_code == 2

    def test_oracle_refused_before_solving(self, runner, monkeypatch):
        import permdeg.cli as climod

        def forbidden(*args, **kw):
            raise AssertionError("the oracle's order check must come first")

        monkeypatch.setattr(climod, "mu_exact", forbidden)
        r = invoke(runner, "mu", "C50", "--oracle")
        assert r.exit_code == 2
        assert r.stdout == ""
        assert r.stderr == "resource cap: oracle restricted to order <= 48\n"


class TestInvalidInput:
    @pytest.mark.parametrize("args,text", [
        (["mu", "D2"], None),
        (["mu", "Q12"], None),
        (["mu", "C0"], None),
        (["mu", "Ab(1,2)"], None),
        (["classify", "C1"], None),
        (["mu", "table:{file}"], "3\n0 1 2\n1 1 0\n2 0 1\n"),
        (["mu", "table:{file}"], "2\n0 1\n1 x\n"),
        (["mu", "table:{file}"], None),
        (["verify", "semidirect", "{file}"], "G C3\nH C2\nh 1 : 0 1 1\n"),
        (["verify", "semidirect", "{file}"], "G C3\nH C2\nh 1 : 0 2 x\n"),
        # an image outside G is refused before the images are composed
        (["verify", "semidirect", "{file}"], "G C4\nH C2\nh 1 : 0 3 2 99\n"),
        (["mu", "sd:{file}"], "G C4\nH C2\nh 1 : 0 3 2 99\n"),
        (["verify", "semidirect", "{file}"], "G C4\nH C2\nh 1 : 0 -1 2 1\n"),
        (["verify", "additivity", "Ab(2,2)", "C1"], None),
        (["verify", "additivity", "C1", "S3"], None),
        # an sd-file cycle is refused by name before a file is read again
        (["verify", "semidirect", "{file}"], "G sd:{file}\nH C2\n"),
        (["verify", "semidirect", "{file}"], "G sd:{file}.b\nH C2\n"),
    ], ids=["D2", "Q12", "C0", "Ab(1,2)", "classify-C1", "table-not-latin",
            "table-token", "table-missing", "sd-not-bijection", "sd-token",
            "sd-image-above-G", "sd-atom-image-above-G", "sd-image-negative",
            "additivity-C1", "additivity-C1-left", "sd-names-itself",
            "sd-two-file-cycle"])
    def test_exit_1_one_line_no_output(self, runner, tmp_path, args, text):
        path = tmp_path / "input.txt"
        if text is not None:
            path.write_text(text.format(file=path))
            # the second file of a cycle names the first
            (tmp_path / "input.txt.b").write_text(f"G sd:{path}\nH C2\n")
        r = invoke(runner, *(a.format(file=path) for a in args))
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr.startswith("invalid input: ")
        assert r.stderr.count("\n") == 1

    @pytest.mark.parametrize("text, message", SD_FILE_REFUSALS,
                             ids=SD_FILE_REFUSAL_IDS)
    def test_sd_file_refused_with_its_message(self, runner, tmp_path,
                                              no_cayley_walk, text, message):
        path = tmp_path / "bad.sd"
        path.write_text(text)
        r = invoke(runner, "verify", "semidirect", str(path))
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr == f"invalid input: {message}\n"

    @pytest.mark.parametrize("expr,mu", [
        ("(" * 500 + "C2" + ")" * 500, 2),
        (" x ".join(["C1"] * 1000), 1),
    ], ids=["500-parentheses", "1000-factors"])
    def test_deep_expression_is_valid(self, runner, expr, mu):
        # an expression is parsed and folded with no recursion
        r = invoke(runner, "mu", expr)
        assert r.exit_code == 0
        assert r.stdout.startswith(f"mu={mu} order={mu} ")

    def test_long_sd_file_chain_refused(self, runner, tmp_path):
        # each of 600 distinct sd-files names the next; loading them
        # recurses past Python's limit, which is refused as input
        paths = [tmp_path / f"f{i}.sd" for i in range(600)]
        for path, nxt in zip(paths, paths[1:]):
            path.write_text(f"G sd:{nxt}\nH C1\n")
        paths[-1].write_text("G C2\nH C1\n")
        r = invoke(runner, "verify", "semidirect", str(paths[0]))
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr == "invalid input: sd-files nested too deeply\n"


class TestClassify:
    def test_q16(self, runner):
        r = invoke(runner, "--json", "classify", "Q16")
        data = json.loads(r.output)
        assert data["incompressible_type"] == "generalized-quaternion"
        assert data["cr"] == "1/1"
        assert data["is_CS"] is True

    def test_c6(self, runner):
        r = invoke(runner, "--json", "classify", "C6")
        data = json.loads(r.output)
        assert data["cr"] == "6/5"
        assert data["cr_decimal"] == pytest.approx(1.2)
        assert data["incompressible_type"] == "compressible"

    def test_s3_cse_witness(self, runner):
        r = invoke(runner, "--json", "classify", "S3")
        data = json.loads(r.output)
        assert data["is_CS"] is False
        assert data["is_CSE"] is True
        assert len(data["cse_witness"]) == 3

    def test_text_and_json_agree(self, runner):
        rj = json.loads(invoke(runner, "--json", "classify", "C6").output)
        rt = invoke(runner, "classify", "C6").output
        assert f"cr={rj['cr']}" in rt
        assert f"mu={rj['mu']}" in rt


class TestLattice:
    def test_q8(self, runner):
        r = invoke(runner, "--json", "lattice", "Q8")
        data = json.loads(r.output)
        assert data["subgroups"] == 6
        assert data["normal"] == 6
        assert data["minimal_normal"] == 1
        assert data["meet_irreducible"] == 5


class TestVerify:
    def test_additivity_pass(self, runner):
        r = invoke(runner, "verify", "additivity", "Q8", "Z4")
        assert r.exit_code == 0
        assert "PASS" in r.output and "lhs=12" in r.output and "CS" in r.output

    def test_laplace(self, runner):
        r = invoke(runner, "verify", "laplace")
        assert r.exit_code == 0
        assert "PASS" in r.output and "FAIL" not in r.output

    def test_socle(self, runner):
        r = invoke(runner, "verify", "socle")
        assert r.exit_code == 0
        assert r.output.count("PASS") >= 3

    def test_semidirect_file(self, runner, tmp_path):
        path = tmp_path / "d5.sd"
        path.write_text("G C5\nH C2\nh 1 : 0 4 3 2 1\n")
        r = invoke(runner, "verify", "semidirect", f"sd:{path}")
        assert r.exit_code == 0
        assert "mu=5" in r.output and "bound=7" in r.output

    def test_semidirect_file_names_a_file_beside_it(self, runner, tmp_path,
                                                   monkeypatch):
        # d/a.sd names sd:b.sd, which is d/b.sd, from any working directory
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "a.sd").write_text("G sd:b.sd\nH C1\n")
        (tmp_path / "d" / "b.sd").write_text("G C5\nH C2\nh 1 : 0 4 3 2 1\n")
        monkeypatch.chdir(tmp_path)
        r = invoke(runner, "verify", "semidirect", "d/a.sd")
        assert r.exit_code == 0
        assert r.output.startswith("PASS semidirect [d/a.sd] mu=5 ")

    def test_all(self, runner):
        r = invoke(runner, "verify", "all")
        assert r.exit_code == 0
        assert "FAIL" not in r.output

    def test_failed_check_exits_3(self, runner, monkeypatch):
        # a Laplace expansion that is off by one fails every trial
        import permdeg.cli as climod
        monkeypatch.setattr(climod, "det_laplace",
                            lambda M, cols: climod.det(M) + 1)
        r = invoke(runner, "verify", "laplace")
        assert r.exit_code == 3
        assert r.stdout.startswith("FAIL laplace [300 random matrices] failures=300")
        assert r.stderr == ("invariant violation: one or more verification "
                            "cases failed\n")


class TestBatch:
    def test_json_lines_schema(self, runner):
        r = invoke(runner, "--json", "batch", "--max-order", "8")
        assert r.exit_code == 0
        lines = r.output.strip().splitlines()
        records = [json.loads(line) for line in lines]
        summary = records[-1]["summary"]
        for rec in records[:-1]:
            assert {"expr", "order", "mu", "cr", "cr_decimal", "witness",
                    "classification", "flags", "timing_s", "solver"} <= set(rec)
            num, den = rec["cr"].split("/")
            assert int(num) * rec["mu"] == rec["order"] * int(den)
        assert summary["groups"] == len(records) - 1
        assert [rec["expr"] for rec in records[:-1]] == [
            e.name for e in pd.catalog(8)]

    def test_one_search_per_record(self, runner, monkeypatch):
        monkeypatch.delenv("MU_PERM_CACHE", raising=False)
        calls = []
        search = pd.solver._search

        def counting(G, *args):
            calls.append(G.label)
            return search(G, *args)

        monkeypatch.setattr(pd.solver, "_search", counting)
        r = invoke(runner, "--json", "batch", "--max-order", "12")
        assert r.exit_code == 0
        assert len(calls) == len(pd.catalog(12))

    def test_summary_min_cr(self, runner):
        r = invoke(runner, "batch", "--max-order", "24")
        assert r.exit_code == 0
        assert "min_cr_above_1=6/5" in r.output

    def test_min_cr_is_the_least_printed_ratio_above_1(self, runner,
                                                      tmp_path):
        # the summary's ratio is the least order/mu above 1 over the
        # printed records, and its incompressible count those at 1, on a
        # cold run and on the warm run that hits every entry
        cache = tmp_path / "mu.json"
        for warm in (False, True):
            r = invoke(runner, "--json", "--cache", str(cache),
                       "batch", "--max-order", "32")
            assert r.exit_code == 0
            *records, last = map(json.loads, r.output.strip().splitlines())
            assert all(rec["solver"]["cached"] is warm for rec in records)
            ratios = [Fraction(rec["order"], rec["mu"]) for rec in records]
            least = min(cr for cr in ratios if cr > 1)
            assert last["summary"] == {
                "groups": len(records), "incompressible": ratios.count(1),
                "min_cr_above_1": f"{least.numerator}/{least.denominator}"}

    def test_min_cr_none_when_every_group_is_incompressible(self, runner,
                                                           monkeypatch):
        monkeypatch.delenv("MU_PERM_CACHE", raising=False)
        r = invoke(runner, "--json", "batch", "--max-order", "3")
        assert r.exit_code == 0
        *records, last = map(json.loads, r.output.strip().splitlines())
        assert [rec["expr"] for rec in records] == ["C2", "C3"]
        assert last["summary"] == {"groups": 2, "incompressible": 2,
                                   "min_cr_above_1": "none"}
        r = invoke(runner, "batch", "--max-order", "3")
        assert r.output.endswith(
            "summary: groups=2 incompressible=2 min_cr_above_1=none\n")

    def test_cache_roundtrip(self, runner, tmp_path):
        cache = tmp_path / "mu.json"
        r1 = invoke(runner, "--json", "--cache", str(cache),
                    "batch", "--max-order", "12")
        assert r1.exit_code == 0 and cache.exists()
        data = json.loads(cache.read_text())
        assert data["C6"] == v3_entry("C6", 5, ["15", "9"], True)
        r2 = invoke(runner, "--json", "--cache", str(cache),
                    "batch", "--max-order", "12")
        assert r2.exit_code == 0
        rec1 = [json.loads(l) for l in r1.output.strip().splitlines()]
        rec2 = [json.loads(l) for l in r2.output.strip().splitlines()]
        assert len(rec1) == len(rec2)
        for a, b in zip(rec1[:-1], rec2[:-1]):
            assert b["solver"]["cached"] is True
            for key in ("expr", "order", "mu", "cr", "classification", "flags"):
                assert a[key] == b[key]

    def test_capped_group_keeps_earlier_records(self, runner, tmp_path,
                                                monkeypatch):
        # the run stops with exit 2 at the first group whose solve goes
        # over the subgroup budget: an abelian group is solved without a
        # lattice, and a nilpotent one from the top of its lattice, which
        # under a budget of 100 no catalog(32) group exceeds.  The records
        # and cache entries of the groups before it must survive
        cache = tmp_path / "mu.json"
        entries = pd.catalog(32)
        names = [e.name for e in entries]
        cap = pd.groups.LATTICE_SUBGROUP_CAP
        monkeypatch.setattr(pd.groups, "LATTICE_SUBGROUP_CAP", 50)
        first_capped = None
        for k, e in enumerate(entries):
            try:
                pd.mu_exact(pd.build(e.expr))
            except pd.ResourceCapError:
                first_capped = k
                break
        assert first_capped is not None and first_capped > 0
        done = names[:first_capped]
        r1 = invoke(runner, "--json", "--cache", str(cache),
                    "batch", "--max-order", "32")
        assert r1.exit_code == 2
        assert "resource cap" in r1.stderr
        rec1 = [json.loads(l) for l in r1.stdout.splitlines()]
        assert [rec["expr"] for rec in rec1] == done
        assert set(json.loads(cache.read_text())) == {
            pd.normalize_expr_string(name) for name in done}
        monkeypatch.setattr(pd.groups, "LATTICE_SUBGROUP_CAP", cap)
        r2 = invoke(runner, "--json", "--cache", str(cache),
                    "batch", "--max-order", "32")
        assert r2.exit_code == 0
        rec2 = [json.loads(l) for l in r2.stdout.splitlines()][:-1]
        assert [rec["expr"] for rec in rec2] == names
        assert [rec["solver"]["cached"] for rec in rec2] == (
            [True] * len(done) + [False] * (len(names) - len(done)))
        assert [rec["mu"] for rec in rec2[:len(done)]] == [
            rec["mu"] for rec in rec1]

    def test_hit_skips_the_solve(self, runner, tmp_path, monkeypatch):
        import permdeg.cli as climod
        cache = tmp_path / "mu.json"
        r1 = invoke(runner, "--json", "--cache", str(cache),
                    "batch", "--max-order", "16")
        assert r1.exit_code == 0

        def forbidden(*args, **kw):
            raise AssertionError("a cache hit must not solve")

        monkeypatch.setattr(climod, "SPOT_CHECK_RATE", 0.0)
        monkeypatch.setattr(pd.groups.FiniteGroup, "lattice", forbidden)
        monkeypatch.setattr(pd.solver, "mu_exact", forbidden)
        monkeypatch.setattr(climod, "mu_exact", forbidden)
        monkeypatch.setattr(climod, "is_CS", forbidden)
        r2 = invoke(runner, "--json", "--cache", str(cache),
                    "batch", "--max-order", "16")
        assert r2.exit_code == 0
        rec1 = [json.loads(l) for l in r1.output.strip().splitlines()]
        rec2 = [json.loads(l) for l in r2.output.strip().splitlines()]
        assert rec2[-1] == rec1[-1]
        for a, b in zip(rec1[:-1], rec2[:-1]):
            assert b["solver"] == {"cached": True} and b["witness"] is None
            for key in ("witness", "solver", "timing_s"):
                del a[key], b[key]
            assert a == b

    def test_v1_entry_checked_and_rewritten_as_v3(self, runner, tmp_path):
        # a version-1 entry holds no witness, so it is solved as a miss
        cache = tmp_path / "mu.json"
        cache.write_text(json.dumps(
            {"C6": {"order": 6, "mu": 5, "version": 1}}))
        r = invoke(runner, "--json", "--cache", str(cache),
                   "batch", "--max-order", "6")
        assert r.exit_code == 0
        rec = batch_record(r.output, "C6")
        assert rec["mu"] == 5 and rec["solver"]["cached"] is False
        assert rec["witness"] == [[0, 2, 4], [0, 3]]
        assert json.loads(cache.read_text())["C6"] == v3_entry(
            "C6", 5, ["15", "9"], True)

    @pytest.mark.parametrize("tamper", ["field", "table"])
    def test_checksum_mismatch_recomputed(self, runner, tmp_path, tamper):
        cache = tmp_path / "mu.json"
        if tamper == "field":
            # mu edited by hand; the checksum no longer holds
            entry = dict(v3_entry("C6", 5, ["15", "9"], True), mu=4)
        else:
            # every field right, but the checksum taken over the table of
            # S3, a group of the same order: the table under the name changed
            entry = v3_entry("C6", 5, ["15", "9"], True, table_of="S3")
        cache.write_text(json.dumps({"C6": entry}))
        r = invoke(runner, "--json", "--cache", str(cache),
                   "batch", "--max-order", "6")
        assert r.exit_code == 0
        rec = batch_record(r.output, "C6")
        assert rec["mu"] == 5 and rec["solver"]["cached"] is False
        assert json.loads(cache.read_text())["C6"] == v3_entry(
            "C6", 5, ["15", "9"], True)

    @pytest.mark.parametrize("expr,mu,witness,message", [
        ("C6", 5, ["15", "b"], "witness part b is not a subgroup"),
        ("C6", 5, ["15", "49"], "witness part 49 is not a subgroup"),
        # {0, 2, 4} united with {0, 3}: 2 + 3 = 5 lies outside
        ("C6", 5, ["1d"], "witness part 1d is not a subgroup"),
        ("C6", 4, ["15", "15"], "witness is not faithful"),
        # the centre {1, r^2} of D4 is normal, so it is its own core
        ("D4", 4, ["5"], "witness is not faithful"),
        ("C6", 5, ["15"], "witness degree 2 is not mu=5"),
        ("C8", 16, ["1", "1"], "disagrees with cr = 1/2"),
    ], ids=["not-closed", "outside-G", "union-of-subgroups", "not-faithful",
            "normal-part", "wrong-degree", "structural"])
    def test_bad_witness_exits_3(self, runner, tmp_path, monkeypatch,
                                 expr, mu, witness, message):
        import permdeg.cli as climod
        cache = tmp_path / "mu.json"
        cache.write_text(json.dumps(
            {expr: v3_entry(expr, mu, witness, True)}))
        monkeypatch.setattr(climod, "SPOT_CHECK_RATE", 0.0)
        r = invoke(runner, "--cache", str(cache), "batch", "--max-order", "8")
        assert r.exit_code == 3
        assert message in r.stderr

    @pytest.mark.parametrize("rate,code", [(0.0, 0), (1.0, 3)],
                             ids=["no-spot-check", "spot-check"])
    def test_too_high_mu_with_valid_witness(self, runner, tmp_path,
                                            monkeypatch, rate, code):
        # the trivial subgroup (index 6) and C6 itself (index 1): a
        # faithful witness of degree 7, which only proves mu(C6) <= 7
        import permdeg.cli as climod
        cache = tmp_path / "mu.json"
        cache.write_text(json.dumps(
            {"C6": v3_entry("C6", 7, ["1", "3f"], True)}))
        monkeypatch.setattr(climod, "SPOT_CHECK_RATE", rate)
        r = invoke(runner, "--cache", str(cache), "batch", "--max-order", "6")
        assert r.exit_code == code
        if code == 0:
            assert "C6: order=6 mu=7 cr=6/7 type=compressible [cached]" in (
                r.output)

    def test_unchanged_cache_is_not_rewritten(self, runner, tmp_path,
                                              monkeypatch):
        import permdeg.cli as climod
        cache = tmp_path / "mu.json"
        r1 = invoke(runner, "--cache", str(cache), "batch", "--max-order", "8")
        assert r1.exit_code == 0
        cold = cache.read_bytes()
        saves = []
        save = climod._save_cache

        def counting(path, data):
            saves.append(path)
            save(path, data)

        monkeypatch.setattr(climod, "_save_cache", counting)
        # every entry hits: nothing is written
        r2 = invoke(runner, "--cache", str(cache), "batch", "--max-order", "8")
        assert r2.exit_code == 0 and saves == []
        assert cache.read_bytes() == cold
        # one stale entry is solved again and saved once, as before
        data = json.loads(cold)
        data["C6"]["version"] = 1
        cache.write_text(json.dumps(data, sort_keys=True))
        r3 = invoke(runner, "--cache", str(cache), "batch", "--max-order", "8")
        assert r3.exit_code == 0 and saves == [str(cache)]
        assert cache.read_bytes() == cold

    def test_spot_check_solves_the_hit_group(self, runner, tmp_path,
                                             monkeypatch):
        # a hit never solves, so the spot-check solves the group the hit
        # built, which holds no mu, and builds no second copy
        import permdeg.cli as climod
        cache = tmp_path / "mu.json"
        r1 = invoke(runner, "--cache", str(cache), "batch", "--max-order", "8")
        assert r1.exit_code == 0
        built, solved = [], []
        build, mu_exact = climod.build, climod.mu_exact

        def counting_build(expr):
            G = build(expr)
            built.append(G)
            return G

        def counting_mu(G):
            assert G._mu is None
            solved.append(G)
            return mu_exact(G)

        monkeypatch.setattr(climod, "SPOT_CHECK_RATE", 1.0)
        monkeypatch.setattr(climod, "build", counting_build)
        monkeypatch.setattr(climod, "mu_exact", counting_mu)
        r2 = invoke(runner, "--cache", str(cache), "batch", "--max-order", "8")
        assert r2.exit_code == 0
        assert r2.output.count(" [cached]") == len(pd.catalog(8))
        assert len(built) == len(pd.catalog(8))
        assert [id(G) for G in solved] == [id(G) for G in built]

    def test_cache_env_var(self, runner, tmp_path, monkeypatch):
        cache = tmp_path / "envcache.json"
        monkeypatch.setenv("MU_PERM_CACHE", str(cache))
        r = invoke(runner, "batch", "--max-order", "6")
        assert r.exit_code == 0
        assert cache.exists()

    def test_corrupt_cache_detected(self, runner, tmp_path, monkeypatch):
        # mu(C6) = 5 cached as 7, with a valid witness of degree 7
        import permdeg.cli as climod
        cache = tmp_path / "mu.json"
        cache.write_text(json.dumps(
            {"C6": v3_entry("C6", 7, ["1", "3f"], True)}))
        # force the random spot check to cover every cached entry
        monkeypatch.setattr(climod, "SPOT_CHECK_RATE", 1.0)
        r = invoke(runner, "--cache", str(cache), "batch", "--max-order", "6")
        assert r.exit_code == 3

    def test_wrong_cached_mu_detected_without_spot_check(
            self, runner, tmp_path, monkeypatch):
        import permdeg.cli as climod
        # mu(C6) = 5 cached as 4: no witness of degree 4 is faithful
        cache = tmp_path / "mu.json"
        cache.write_text(json.dumps(
            {"C6": v3_entry("C6", 4, ["15", "15"], True)}))
        # no spot check: the hit's witness check must still fail
        monkeypatch.setattr(climod, "SPOT_CHECK_RATE", 0.0)
        r = invoke(runner, "--cache", str(cache), "batch", "--max-order", "6")
        assert r.exit_code == 3

    @pytest.mark.parametrize("bad_mu", ["5", 0, -5, True])
    def test_malformed_cached_mu_recomputed(self, runner, tmp_path, bad_mu):
        cache = tmp_path / "mu.json"
        # the checksum holds, so only the mu field makes the entry stale
        cache.write_text(json.dumps(
            {"C6": v3_entry("C6", bad_mu, ["15", "9"], True)}))
        r = invoke(runner, "--json", "--cache", str(cache),
                   "batch", "--max-order", "6")
        assert r.exit_code == 0
        rec = next(json.loads(l) for l in r.output.strip().splitlines()
                   if json.loads(l).get("expr") == "C6")
        assert rec["mu"] == 5 and rec["solver"]["cached"] is False
        assert json.loads(cache.read_text())["C6"]["mu"] == 5

    @pytest.mark.parametrize("witness", [
        ["15", "zz"], ["0x15", "9"], ["+15", "9"], ["15", "09"], ["15", " 9"],
        ["1_5", "9"],
    ], ids=["not-hex", "prefix", "sign", "leading-zero", "space", "underscore"])
    def test_misspelt_cached_witness_recomputed(self, runner, tmp_path,
                                                witness):
        # int(part, 16) reads all but the first, yet only the canonical
        # spelling is served; the entry is solved and rewritten
        cache = tmp_path / "mu.json"
        cache.write_text(json.dumps({"C6": v3_entry("C6", 5, witness, True)}))
        r = invoke(runner, "--json", "--cache", str(cache),
                   "batch", "--max-order", "6")
        assert r.exit_code == 0
        rec = batch_record(r.output, "C6")
        assert rec["mu"] == 5 and rec["solver"]["cached"] is False
        assert json.loads(cache.read_text())["C6"] == v3_entry(
            "C6", 5, ["15", "9"], True)

    def test_cached_witness_takes_only_canonical_hex(self):
        # the spelling alone decides: "1f" is no witness of C6, but it is
        # read, and the checks that follow refuse it
        C6 = pd.build(pd.parse_group_expr("C6"))

        def read(part):
            return _cached_witness(v3_entry("C6", 5, ["15", part], True), C6)

        assert read("1f") == [0x15, 0x1f]
        for part in ["zz", "", "0x1f", "1F", "+1f", "01f"]:
            assert read(part) is None, part

    def test_stale_cache_version_ignored(self, runner, tmp_path):
        # an older entry, even one whose mu is wrong, is solved and
        # rewritten, never served; so is a genuine version-2 entry, whose
        # mu and witness are right and whose two checksums hold: a field
        # CRC and the CRC of the table as little-endian int64
        C6 = pd.build(pd.parse_group_expr("C6"))
        v2 = {"version": 2, "order": 6, "mu": 5, "witness": ["15", "9"],
              "is_CS": True, "table_crc": zlib.crc32(
                  table_array(C6).astype("<i8").tobytes())}
        v2["crc"] = zlib.crc32(json.dumps(v2, sort_keys=True).encode())
        stale = [{"order": 6, "mu": 4, "version": version}
                 for version in (0, 1)] + [v2]
        cache = tmp_path / "mu.json"
        for entry in stale:
            cache.write_text(json.dumps({"C6": entry}))
            r = invoke(runner, "--json", "--cache", str(cache),
                       "batch", "--max-order", "6")
            assert r.exit_code == 0
            rec = batch_record(r.output, "C6")
            assert rec["mu"] == 5 and rec["solver"]["cached"] is False
            assert json.loads(cache.read_text())["C6"] == v3_entry(
                "C6", 5, ["15", "9"], True)

    def test_failed_save_leaves_no_temp_file(self, runner, tmp_path,
                                             monkeypatch):
        # the path passes the up-front checks, but the final rename fails
        import permdeg.cli as climod
        cache = tmp_path / "mu.json"
        cache.write_text("{}")

        def failing_replace(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr(climod.os, "replace", failing_replace)
        r = invoke(runner, "--cache", str(cache), "batch", "--max-order", "4")
        assert r.exit_code == 1
        assert r.stderr.splitlines()[-1].startswith("invalid input: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mu.json"]
        assert cache.read_text() == "{}"

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_cache_refused_before_solving(self, runner, tmp_path,
                                                     where):
        # a path the cache cannot be saved to fails before any record
        if where == "directory":
            cache = tmp_path / "mu.json"
            cache.mkdir()
        else:
            cache = tmp_path / "missing" / "mu.json"
        r = invoke(runner, "--cache", str(cache), "batch", "--max-order", "4")
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr.startswith("invalid input: ")
        assert r.stderr.count("\n") == 1
        assert not list(tmp_path.rglob("*.tmp"))

    def test_unreadable_cache_warns(self, runner, tmp_path):
        cache = tmp_path / "mu.json"
        cache.write_text("{not json")
        r = invoke(runner, "--json", "--cache", str(cache),
                   "batch", "--max-order", "6")
        assert r.exit_code == 0
        assert f"warning: ignoring unreadable cache {cache}" in r.stderr
        records = [json.loads(l) for l in r.stdout.strip().splitlines()]
        assert records[-1]["summary"]["groups"] == len(records) - 1

    @pytest.mark.parametrize("text, kind", [
        ("[]", "list"), ("[1, 2]", "list"), ("3", "int"), ("null", "NoneType"),
        ('"C6"', "str"),
    ])
    def test_cache_that_is_not_an_object_warns_and_is_rewritten(
            self, runner, tmp_path, text, kind):
        cache = tmp_path / "mu.json"
        cache.write_text(text)
        r = invoke(runner, "--cache", str(cache), "batch", "--max-order", "6")
        assert r.exit_code == 0
        assert r.stderr == (f"warning: ignoring unreadable cache {cache}: "
                            f"expected a JSON object, found {kind}\n")
        entries = json.loads(cache.read_text())
        assert entries["C6"] == v3_entry("C6", 5, ["15", "9"], True)
        assert len(entries) == len(pd.catalog(6))


class TestCacheChecksums:
    def test_entry_crc_is_crc_of_sorted_json(self, runner, tmp_path):
        cache = tmp_path / "mu.json"
        r = invoke(runner, "--cache", str(cache), "batch", "--max-order", "12")
        assert r.exit_code == 0
        entries = json.loads(cache.read_text())
        assert "S3" in entries
        for name, entry in entries.items():
            G = pd.build(pd.parse_group_expr(name))
            body = {k: v for k, v in entry.items() if k != "crc"}
            crc = zlib.crc32(G.table_bytes, zlib.crc32(
                json.dumps(body, sort_keys=True).encode()))
            assert _entry_crc(entry, G) == crc == entry["crc"]

    def test_entry_crc_reads_the_table_row_major(self, tmp_path):
        path = tmp_path / "z4.tbl"
        path.write_text("4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n")
        A = pd.build(pd.parse_group_expr("Ab(4,2)"))
        # the transpose of an abelian table is the same table, given as a
        # view that is not row-major
        view = pd.FiniteGroup(table_array(A).T)
        groups = [pd.build(pd.parse_group_expr(expr))
                  for expr in ("S3 x C4", f"table:{path}")] + [view]
        entry = {"version": 3, "order": 4, "mu": 6}
        fields = zlib.crc32(json.dumps(entry, sort_keys=True).encode())
        for G in groups:
            want = table_array(G).astype("u1").tobytes()  # row-major
            assert _entry_crc(entry, G) == zlib.crc32(want, fields)
        assert _entry_crc(entry, view) == _entry_crc(entry, A)


class TestClosedOutputPipe:
    def test_batch_stops_quietly_and_saves_its_cache(self, tmp_path):
        # the records of --max-order 64 (about 220 kB) overflow a pipe's
        # buffer, so the batch is still writing when the reader closes it
        # after one line, as ``| head -1`` does
        cache = tmp_path / "mu.json"
        env = {k: v for k, v in os.environ.items() if k != "MU_PERM_CACHE"}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "permdeg.cli", "--json", "--cache",
             str(cache), "batch", "--max-order", "64"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = json.loads(proc.stdout.readline())
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 1
        assert err == b""
        assert first["expr"] == "C2"
        saved = json.loads(cache.read_text())
        names = [e.name for e in pd.catalog(64)]
        assert "C2" in saved and set(saved) < set(names)
