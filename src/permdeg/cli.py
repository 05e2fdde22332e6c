"""Command-line interface: mu / classify / lattice / verify / batch.

Exit codes: 0 success, 1 expression parse error, 2 resource cap exceeded,
3 internal invariant violation (including oracle disagreement and any
verification FAIL).

Each command builds its group once, and mu is solved once per group object
(``mu_exact`` stores its result on the group), so ``classify`` and a
``batch`` miss each run one search.  A ``batch`` cache hit runs none: it
checks the cached witness, which proves mu(G) <= the cached mu, and the
structural incompressibility test against the cached mu.  The two
cross-checks recompute independently: ``mu --oracle`` runs the brute-force
oracle, and the ``batch`` cache spot-check solves a freshly built copy of
the group.
"""

from __future__ import annotations

import functools
import json
import os
import random
import sys
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import click

from .catalog import build, catalog, load_semidirect, normalize_expr_string, parse_group_expr
from .errors import (
    ExprSyntaxError,
    InternalInvariantError,
    PermdegError,
    ResourceCapError,
)
from .gfp import MatrixGFp, det, det_laplace
from .groups import FiniteGroup, Subgroup, center, inversion_action, make_cyclic, socle
from .solver import (
    ORACLE_CAP,
    Representation,
    classify_incompressible,
    classify_with_ratio,
    degree,
    is_CS,
    is_CSE,
    kernel_bits,
    mu_exact,
    mu_oracle,
    representation,
    semidirect_bound_check,
    socle_induced_properties_check,
    verify_additivity,
)

CACHE_VERSION = 2
SPOT_CHECK_RATE = 0.10


@dataclass
class CliConfig:
    order_cap: int = 256
    oracle_cap: int = ORACLE_CAP
    cache_path: Optional[str] = None
    output_json: bool = False


class VerificationFailure(PermdegError):
    """A verify sub-check reported FAIL."""


def _handle_errors(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except ExprSyntaxError as e:
            click.echo(f"parse error: {e}", err=True)
            sys.exit(1)
        except ResourceCapError as e:
            click.echo(f"resource cap: {e}", err=True)
            sys.exit(2)
        except (InternalInvariantError, VerificationFailure) as e:
            click.echo(f"invariant violation: {e}", err=True)
            sys.exit(3)
    return wrapper


@click.group()
@click.option("--order-cap", type=int, default=256, show_default=True,
              help="Refuse to build groups larger than this order.")
@click.option("--oracle-cap", type=int, default=ORACLE_CAP, show_default=True,
              help="Order limit for the brute-force oracle and CSE checks.")
@click.option("--cache", "cache_path", type=click.Path(), default=None,
              help="Result cache file (default: $MU_PERM_CACHE).")
@click.option("--json", "output_json", is_flag=True, help="Emit JSON output.")
@click.pass_context
def cli(ctx, order_cap, oracle_cap, cache_path, output_json):
    """Exact minimal faithful permutation degrees of finite groups."""
    if oracle_cap > order_cap:
        oracle_cap = order_cap
    if cache_path is None:
        cache_path = os.environ.get("MU_PERM_CACHE") or None
    ctx.obj = CliConfig(order_cap=order_cap, oracle_cap=oracle_cap,
                        cache_path=cache_path, output_json=output_json)


def _witness_lists(R: Representation) -> list[list[int]]:
    return [sorted(H.elements()) for H in R.parts]


def _emit(cfg: CliConfig, record: dict, text_lines: list[str]) -> None:
    if cfg.output_json:
        click.echo(json.dumps(record, sort_keys=True))
    else:
        for line in text_lines:
            click.echo(line)


@cli.command("mu")
@click.argument("expr")
@click.option("--oracle", is_flag=True, help="Cross-check with the brute-force oracle.")
@click.option("--witness", "show_witness", is_flag=True, help="Print a minimal witness.")
@click.pass_obj
@_handle_errors
def cmd_mu(cfg: CliConfig, expr: str, oracle: bool, show_witness: bool):
    """Compute mu(EXPR) exactly."""
    t0 = time.perf_counter()
    G = build(parse_group_expr(expr), cap=cfg.order_cap)
    res = mu_exact(G)
    elapsed = time.perf_counter() - t0
    record = {
        "expr": expr,
        "order": G.order,
        "mu": res.mu,
        "timing_s": round(elapsed, 6),
        "solver": {"nodes": res.nodes_explored,
                   "candidates": res.candidates_considered,
                   "cached": False},
    }
    lines = [f"mu={res.mu} order={G.order} ({elapsed:.3f}s)"]
    if oracle:
        if G.order > cfg.oracle_cap:
            raise ResourceCapError(
                f"oracle needs order <= {cfg.oracle_cap}, got {G.order}")
        ores = mu_oracle(G)
        record["oracle"] = ores.mu
        record["agree"] = ores.mu == res.mu
        lines.append(f"oracle={ores.mu} agree={ores.mu == res.mu}")
        if ores.mu != res.mu:
            raise InternalInvariantError(
                f"oracle disagreement: mu_exact={res.mu} mu_oracle={ores.mu}")
    if show_witness:
        record["witness"] = _witness_lists(res.witness)
        lines.append("witness=" + json.dumps(record["witness"]))
    _emit(cfg, record, lines)


@cli.command("classify")
@click.argument("expr")
@click.pass_obj
@_handle_errors
def cmd_classify(cfg: CliConfig, expr: str):
    """Compression ratio, incompressibility type, CS / CSE membership."""
    G = build(parse_group_expr(expr), cap=cfg.order_cap)
    verdict = classify_incompressible(G)
    cs = is_CS(G)
    record = {
        "expr": expr,
        "order": G.order,
        "mu": mu_exact(G).mu,
        "cr": f"{verdict.cr.numerator}/{verdict.cr.denominator}",
        "cr_decimal": float(verdict.cr),
        "incompressible_type": verdict.structural_type,
        "is_CS": cs,
    }
    lines = [
        f"order={G.order} mu={record['mu']} cr={record['cr']} "
        f"({record['cr_decimal']:.4f})",
        f"incompressible_type={verdict.structural_type}",
        f"CS={cs}",
    ]
    if G.order <= cfg.oracle_cap:
        cse, wit = is_CSE(G)
        record["is_CSE"] = cse
        record["cse_witness"] = sorted(wit.elements()) if wit is not None else None
        lines.append(f"CSE={cse}"
                     + (f" (witness order {wit.order})" if wit is not None else ""))
    _emit(cfg, record, lines)


@cli.command("lattice")
@click.argument("expr")
@click.pass_obj
@_handle_errors
def cmd_lattice(cfg: CliConfig, expr: str):
    """Subgroup counts and the meet-irreducible census of EXPR."""
    G = build(parse_group_expr(expr), cap=cfg.order_cap)
    lat = G.lattice(cap=cfg.order_cap)
    flags = lat.meet_irreducible_flags()
    record = {
        "expr": expr,
        "order": G.order,
        "subgroups": len(lat),
        "normal": sum(lat.normal_flags),
        "minimal_normal": len(lat.minimal_normals),
        "meet_irreducible": sum(flags),
        "socle_order": socle(G).order,
        "center_order": center(G).order,
    }
    lines = [
        f"order={G.order} subgroups={record['subgroups']} "
        f"normal={record['normal']} minimal_normal={record['minimal_normal']}",
        f"meet_irreducible={record['meet_irreducible']} "
        f"socle_order={record['socle_order']} center_order={record['center_order']}",
    ]
    _emit(cfg, record, lines)


# -- verify ----------------------------------------------------------------


def _verify_additivity(cfg: CliConfig, a: str, b: str) -> list[dict]:
    G = build(parse_group_expr(a), cap=cfg.order_cap)
    H = build(parse_group_expr(b), cap=cfg.order_cap)
    rec = verify_additivity(G, H, cap=cfg.order_cap)
    ok = rec.equal or rec.guaranteed == "none"
    return [{
        "check": "additivity", "case": f"{a} , {b}",
        "lhs": rec.lhs, "rhs": rec.rhs, "guarantee": rec.guaranteed,
        "pass": ok,
    }]


def _semidirect_record(cfg: CliConfig, case: str, G: FiniteGroup,
                       H: FiniteGroup, action) -> dict:
    rep = semidirect_bound_check(G, H, action, cap=cfg.order_cap)
    return {
        "check": "semidirect", "case": case,
        "mu": rep.mu_product, "bound": rep.bound,
        "injective": rep.embedding_injective,
        "pass": rep.holds and rep.embedding_injective,
    }


def _verify_semidirect(cfg: CliConfig, arg: str) -> list[dict]:
    path = arg[3:] if arg.startswith("sd:") else arg
    G, H, action = load_semidirect(path, cap=cfg.order_cap)
    return [_semidirect_record(cfg, path, G, H, action)]


def _verify_laplace(trials: int = 300) -> list[dict]:
    rng = random.Random(20260823)
    failures = 0
    for _ in range(trials):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 5)
        M = MatrixGFp.from_rows(
            [[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
        k = rng.randint(1, n - 1)
        cols = sorted(rng.sample(range(n), k))
        if det_laplace(M, cols) != det(M):
            failures += 1
    return [{"check": "laplace", "case": f"{trials} random matrices",
             "failures": failures, "pass": failures == 0}]


_SOCLE_FIXTURES = ["Ab(2,2)", "Q8", "Ab(9,3)", "C12"]


def _verify_socle(cfg: CliConfig) -> list[dict]:
    out = []
    for expr in _SOCLE_FIXTURES:
        G = build(parse_group_expr(expr), cap=cfg.order_cap)
        res = mu_exact(G)
        report = socle_induced_properties_check(G, res.witness)
        out.append({"check": "socle", "case": expr,
                    "faithful_on_socle": report.faithful_on_socle,
                    "per_prime_faithful": report.per_prime_faithful,
                    "no_redundant_constituents": report.no_redundant_constituents,
                    "codimension_one": report.codimension_one,
                    "pass": report.passed})
    return out


def _verify_all(cfg: CliConfig) -> list[dict]:
    out = []
    out += _verify_laplace()
    out += _verify_socle(cfg)
    out += _verify_additivity(cfg, "Q8", "C4")
    out += _verify_additivity(cfg, "C4", "C3")
    # dihedral bound fixture built inline: C5 inverted by C2
    C5, C2 = make_cyclic(5), make_cyclic(2)
    out.append(_semidirect_record(cfg, "C5 inverted by C2", C5, C2,
                                  inversion_action(C5, C2)))
    return out


@cli.command("verify")
@click.argument("kind",
                type=click.Choice(["additivity", "semidirect", "laplace",
                                   "socle", "all"]))
@click.argument("args", nargs=-1)
@click.pass_obj
@_handle_errors
def cmd_verify(cfg: CliConfig, kind: str, args: tuple[str, ...]):
    """Run a verification suite; any FAIL exits with code 3."""
    if kind == "additivity":
        if len(args) != 2:
            raise click.UsageError("verify additivity needs two group expressions")
        results = _verify_additivity(cfg, args[0], args[1])
    elif kind == "semidirect":
        if len(args) != 1:
            raise click.UsageError("verify semidirect needs one sd-file path")
        results = _verify_semidirect(cfg, args[0])
    elif kind == "laplace":
        results = _verify_laplace()
    elif kind == "socle":
        results = _verify_socle(cfg)
    else:
        results = _verify_all(cfg)
    any_fail = False
    for r in results:
        status = "PASS" if r["pass"] else "FAIL"
        any_fail |= not r["pass"]
        if cfg.output_json:
            click.echo(json.dumps(r, sort_keys=True))
        else:
            detail = " ".join(f"{k}={v}" for k, v in r.items()
                              if k not in ("check", "case", "pass"))
            click.echo(f"{status} {r['check']} [{r['case']}] {detail}")
    if any_fail:
        raise VerificationFailure("one or more verification cases failed")


# -- batch ----------------------------------------------------------------


def _load_cache(path: Optional[str]) -> dict:
    """The cache file's entries; an unreadable file is reported on stderr
    and treated as empty, so the batch still runs and rewrites it."""
    if not path or not os.path.exists(path):
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as e:  # ValueError: bad JSON or bad UTF-8
        reason = str(e)
    else:
        if isinstance(data, dict):
            return data
        reason = f"expected a JSON object, found {type(data).__name__}"
    click.echo(f"warning: ignoring unreadable cache {path}: {reason}", err=True)
    return {}


def _save_cache(path: Optional[str], cache: dict) -> None:
    if not path:
        return
    tmp = path + ".tmp"
    # json.dumps runs the C encoder; json.dump to a file would not
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(cache, sort_keys=True))
    os.replace(tmp, path)


def _table_crc(G: FiniteGroup) -> int:
    return zlib.crc32(G.mult.astype("<i8", copy=False).tobytes())


def _entry_crc(entry: dict) -> int:
    """CRC-32 over every field of a cache entry except ``crc`` itself."""
    body = {k: v for k, v in entry.items() if k != "crc"}
    return zlib.crc32(json.dumps(body, sort_keys=True).encode())


def _cache_entry(G: FiniteGroup, mu: int, witness: Representation,
                 cs: bool) -> dict:
    entry = {"version": CACHE_VERSION, "order": G.order, "mu": mu,
             "witness": [format(H.bits, "x") for H in witness.parts],
             "is_CS": cs, "table_crc": _table_crc(G)}
    entry["crc"] = _entry_crc(entry)
    return entry


def _cached_mu(hit: object, version: int, order: int) -> Optional[int]:
    """The mu of a cache entry of ``version`` whose order and mu fields are
    well formed; None marks the entry stale, to be recomputed and
    overwritten."""
    if (isinstance(hit, dict) and hit.get("version") == version
            and hit.get("order") == order
            and type(hit.get("mu")) is int and hit["mu"] > 0):
        return hit["mu"]
    return None


def _v2_witness(hit: dict, G: FiniteGroup) -> Optional[list[int]]:
    """The witness part bitsets of a version-2 entry for G whose checksums
    hold and whose fields are well formed; None marks the entry stale."""
    parts = hit.get("witness")
    if (hit.get("crc") != _entry_crc(hit) or type(hit.get("is_CS")) is not bool
            or hit.get("table_crc") != _table_crc(G)
            or not isinstance(parts, list)
            or not all(isinstance(h, str) for h in parts)):
        return None
    try:
        bits = [int(h, 16) for h in parts]
    except ValueError:
        return None
    # only the canonical spelling, which rejects signs, prefixes and case
    if [format(b, "x") for b in bits] != parts:
        return None
    return bits


def _witness_problem(G: FiniteGroup, mu: int, parts: list[int]) -> Optional[str]:
    """Why ``parts`` fails to prove mu(G) <= mu, or None if it proves it:
    subgroups (bit 0 set, inside G, closed under the product) whose
    indices sum to mu and whose cores meet in the identity."""
    for b in parts:
        # the closure test is Subgroup.is_closed's, run before a Subgroup
        # is built so that its Lagrange check cannot pre-empt this message
        if not b & 1 or b >> G.order or G.product_set_bits(b, b) != b:
            return f"witness part {b:x} is not a subgroup"
    R = representation(G, [Subgroup(G, b) for b in parts])
    if degree(R) != mu:
        return f"witness degree {degree(R)} is not mu={mu}"
    if kernel_bits(R) != 1:
        return "witness is not faithful"
    return None


def _batch_record(cfg: CliConfig, entry, key: str,
                  hit: object) -> tuple[dict, dict]:
    """The record of one catalog entry and the cache entry to store for it.

    A version-2 hit is checked, not solved: its table checksum must match
    the rebuilt group, and its witness must prove mu(G) <= the cached mu.
    A version-1 hit is solved and must agree with the cached mu.  Anything
    else is a miss and is solved.
    """
    t0 = time.perf_counter()
    G = build(entry.expr, cap=cfg.order_cap)
    mu = _cached_mu(hit, CACHE_VERSION, entry.order)
    parts = _v2_witness(hit, G) if mu is not None else None
    if parts is not None:
        problem = _witness_problem(G, mu, parts)
        if problem is not None:
            raise InternalInvariantError(f"cache corruption: {key} {problem}")
        # a hit still meets the structural test, through the cr it implies
        structural = classify_with_ratio(G, Fraction(G.order, mu)).structural_type
        cs = hit["is_CS"]
        stored = hit
        witness = None
        solver = {"cached": True}
    else:
        # classification cross-checks cr against mu(G), solving G; the
        # record then reads that stored solve
        verdict = classify_incompressible(G)
        structural = verdict.structural_type
        cs = is_CS(G)
        res = mu_exact(G)
        mu = res.mu
        stored = _cache_entry(G, mu, res.witness, cs)
        witness = _witness_lists(res.witness)
        solver = {"cached": False, "nodes": res.nodes_explored,
                  "candidates": res.candidates_considered}
        old_mu = _cached_mu(hit, 1, entry.order)
        if old_mu is not None:
            # a version-1 entry holds only mu, which must agree with the solve
            if Fraction(G.order, old_mu) != verdict.cr:
                raise InternalInvariantError(
                    f"cache corruption: {key} cached mu={old_mu}, "
                    f"solved {mu}")
            witness = None
            solver = {"cached": True}
    cr = Fraction(G.order, mu)
    record = {
        "expr": entry.name,
        "order": G.order,
        "mu": mu,
        "cr": f"{cr.numerator}/{cr.denominator}",
        "cr_decimal": float(cr),
        "witness": witness,
        "classification": structural,
        "flags": {"is_CS": cs, "incompressible_type": structural},
        "tags": sorted(entry.tags),
        "timing_s": round(time.perf_counter() - t0, 6),
        "solver": solver,
    }
    return record, stored


@cli.command("batch")
@click.option("--max-order", type=int, required=True,
              help="Catalog bound: include every catalog group up to this order.")
@click.pass_obj
@_handle_errors
def cmd_batch(cfg: CliConfig, max_order: int):
    """Solve and classify the whole catalog up to --max-order."""
    if max_order > cfg.order_cap:
        raise ResourceCapError(
            f"--max-order {max_order} exceeds --order-cap {cfg.order_cap}")
    entries = catalog(max_order, cap=cfg.order_cap)
    cache = _load_cache(cfg.cache_path)
    rng = random.Random()
    records = []
    # each record is printed as soon as it is finished, and the cache is
    # saved on every exit, so a group that fails (a resource cap, say)
    # keeps the work done before it
    try:
        for entry in entries:
            key = normalize_expr_string(entry.name)
            r, stored = _batch_record(cfg, entry, key, cache.get(key))
            if r["solver"]["cached"] and rng.random() < SPOT_CHECK_RATE:
                # spot-check: a freshly built group has no stored mu, so
                # this really recomputes it
                fresh = mu_exact(build(entry.expr, cap=cfg.order_cap)).mu
                if fresh != r["mu"]:
                    raise InternalInvariantError(
                        f"cache corruption: {key} cached mu={r['mu']}, "
                        f"recomputed {fresh}")
            cache[key] = stored
            records.append(r)
            if cfg.output_json:
                click.echo(json.dumps(r, sort_keys=True))
            else:
                cached = " [cached]" if r["solver"].get("cached") else ""
                click.echo(f"{r['expr']}: order={r['order']} mu={r['mu']} "
                           f"cr={r['cr']} type={r['classification']}{cached}")
    finally:
        _save_cache(cfg.cache_path, cache)

    min_cr_above_1: Optional[Fraction] = None
    incompressible = 0
    for r in records:
        cr = Fraction(r["cr"])
        if cr == 1:
            incompressible += 1
        elif min_cr_above_1 is None or cr < min_cr_above_1:
            min_cr_above_1 = cr
    min_str = (f"{min_cr_above_1.numerator}/{min_cr_above_1.denominator}"
               if min_cr_above_1 is not None else "none")
    summary = (f"summary: groups={len(records)} incompressible={incompressible} "
               f"min_cr_above_1={min_str}")
    if cfg.output_json:
        click.echo(json.dumps({"summary": {
            "groups": len(records), "incompressible": incompressible,
            "min_cr_above_1": min_str}}, sort_keys=True))
    else:
        click.echo(summary)


def main():
    cli(prog_name="permdeg")


if __name__ == "__main__":
    main()
