"""Command-line interface: mu / classify / lattice / verify / batch.

Exit codes: 0 success, 1 expression parse error or invalid input (an
expression that names no group, a malformed or unreadable table or sd-file),
2 resource cap exceeded, 3 internal invariant violation (including oracle
disagreement, any verification FAIL and cache corruption).  An output pipe
closed by its reader ends a command with exit 1 and no message, as click's
entry point handles it; ``batch`` saves a changed cache first.

The resource caps are constants, not options: no group above order
``groups.ORDER_CAP`` (256) is built, a table file above it is refused
before its rows are read, the brute-force oracle and the CSE check stop at
``solver.ORACLE_CAP`` (48), and a lattice stops at
``groups.LATTICE_SUBGROUP_CAP`` subgroups.

Each command builds its group once, and mu is solved once per group object
(``mu_exact`` stores its result on the group), so ``classify`` and a
``batch`` miss each run one search.  A ``batch`` cache hit runs none: it
checks the cached witness, which proves mu(G) <= the cached mu, and the
structural incompressibility test against the cached mu.  A cache entry of
an older version is a miss, solved and rewritten.  A cache where every
entry hit is unchanged, and is not rewritten.  The two cross-checks
recompute independently: ``mu --oracle`` runs the brute-force oracle, and
the ``batch`` cache spot-check solves the hit's own group, which holds no
mu, as a hit never solves.
"""

from __future__ import annotations

import contextlib
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

from .catalog import build, catalog, load_semidirect, parse_group_expr
from .errors import (
    ExprSyntaxError,
    InternalInvariantError,
    PermdegError,
    PreconditionError,
    ResourceCapError,
)
from .gfp import MatrixGFp, det, det_laplace
from .groups import (
    FiniteGroup,
    Subgroup,
    center,
    core,
    inversion_action,
    make_cyclic,
    socle,
)
from .solver import (
    ORACLE_CAP,
    Representation,
    check_oracle_order,
    classify_incompressible,
    classify_with_ratio,
    is_CS,
    is_CSE,
    mu_exact,
    mu_oracle,
    semidirect_bound_check,
    socle_induced_properties_check,
    verify_additivity,
)

CACHE_VERSION = 2
SPOT_CHECK_RATE = 0.10


@dataclass
class CliConfig:
    cache_path: Optional[str]
    output_json: bool


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
        except BrokenPipeError:
            # the reader of the output closed it (``| head``, say): click's
            # entry point stops quietly, with exit 1 and no traceback
            raise
        except (PermdegError, OSError) as e:
            # a group the expression cannot name, a malformed table or
            # sd-file, or an input file that cannot be read
            click.echo(f"invalid input: {e}", err=True)
            sys.exit(1)
    return wrapper


@click.group()
@click.option("--cache", "cache_path", type=click.Path(), default=None,
              help="Result cache file (default: $MU_PERM_CACHE).")
@click.option("--json", "output_json", is_flag=True, help="Emit JSON output.")
@click.pass_context
def cli(ctx, cache_path, output_json):
    """Exact minimal faithful permutation degrees of finite groups."""
    if cache_path is None:
        cache_path = os.environ.get("MU_PERM_CACHE") or None
    ctx.obj = CliConfig(cache_path=cache_path, output_json=output_json)


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
    G = build(parse_group_expr(expr))
    if oracle:
        check_oracle_order(G)
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
    G = build(parse_group_expr(expr))
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
    if G.order <= ORACLE_CAP:
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
    G = build(parse_group_expr(expr))
    lat = G.lattice()
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


def _verify_additivity(a: str, b: str) -> list[dict]:
    G = build(parse_group_expr(a))
    H = build(parse_group_expr(b))
    rec = verify_additivity(G, H)
    ok = rec.equal or rec.guaranteed == "none"
    return [{
        "check": "additivity", "case": f"{a} , {b}",
        "lhs": rec.lhs, "rhs": rec.rhs, "guarantee": rec.guaranteed,
        "pass": ok,
    }]


def _semidirect_record(case: str, G: FiniteGroup, H: FiniteGroup, action) -> dict:
    rep = semidirect_bound_check(G, H, action)
    return {
        "check": "semidirect", "case": case,
        "mu": rep.mu_product, "bound": rep.bound,
        "injective": rep.embedding_injective,
        "pass": rep.holds and rep.embedding_injective,
    }


def _verify_semidirect(arg: str) -> list[dict]:
    path = arg[3:] if arg.startswith("sd:") else arg
    G, H, action = load_semidirect(path)
    return [_semidirect_record(path, G, H, action)]


_LAPLACE_TRIALS = 300


def _verify_laplace() -> list[dict]:
    rng = random.Random(20260823)
    failures = 0
    for _ in range(_LAPLACE_TRIALS):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 5)
        M = MatrixGFp.from_rows(
            [[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
        k = rng.randint(1, n - 1)
        cols = sorted(rng.sample(range(n), k))
        if det_laplace(M, cols) != det(M):
            failures += 1
    return [{"check": "laplace", "case": f"{_LAPLACE_TRIALS} random matrices",
             "failures": failures, "pass": failures == 0}]


_SOCLE_FIXTURES = ["Ab(2,2)", "Q8", "Ab(9,3)", "C12"]


def _verify_socle() -> list[dict]:
    out = []
    for expr in _SOCLE_FIXTURES:
        G = build(parse_group_expr(expr))
        res = mu_exact(G)
        report = socle_induced_properties_check(G, res.witness)
        out.append({"check": "socle", "case": expr,
                    "faithful_on_socle": report.faithful_on_socle,
                    "per_prime_faithful": report.per_prime_faithful,
                    "no_redundant_constituents": report.no_redundant_constituents,
                    "codimension_one": report.codimension_one,
                    "pass": report.passed})
    return out


def _verify_all() -> list[dict]:
    out = []
    out += _verify_laplace()
    out += _verify_socle()
    out += _verify_additivity("Q8", "C4")
    out += _verify_additivity("C4", "C3")
    # dihedral bound fixture built inline: C5 inverted by C2
    C5, C2 = make_cyclic(5), make_cyclic(2)
    out.append(_semidirect_record("C5 inverted by C2", C5, C2,
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
        results = _verify_additivity(args[0], args[1])
    elif kind == "semidirect":
        if len(args) != 1:
            raise click.UsageError("verify semidirect needs one sd-file path")
        results = _verify_semidirect(args[0])
    elif kind == "laplace":
        results = _verify_laplace()
    elif kind == "socle":
        results = _verify_socle()
    else:
        results = _verify_all()
    for r in results:
        status = "PASS" if r["pass"] else "FAIL"
        detail = " ".join(f"{k}={v}" for k, v in r.items()
                          if k not in ("check", "case", "pass"))
        _emit(cfg, r, [f"{status} {r['check']} [{r['case']}] {detail}"])
    if not all(r["pass"] for r in results):
        raise VerificationFailure("one or more verification cases failed")


# -- batch ----------------------------------------------------------------


def _load_cache(path: Optional[str]) -> tuple[dict, bool]:
    """The cache file's entries, and whether the file must be written even
    if no entry changes: it is missing or unreadable.  An unreadable file
    is reported on stderr and treated as empty, so the batch still runs and
    rewrites it.  A path the batch could not save to (a directory, or one
    in a missing directory) is refused here, before anything is solved."""
    if not path:
        return {}, False
    if os.path.isdir(path):
        raise PreconditionError(f"cache path {path} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise PreconditionError(f"cache path {path} is in a missing directory")
    if not os.path.exists(path):
        return {}, True
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as e:  # ValueError: bad JSON or bad UTF-8
        reason = str(e)
    else:
        if isinstance(data, dict):
            return data, False
        reason = f"expected a JSON object, found {type(data).__name__}"
    click.echo(f"warning: ignoring unreadable cache {path}: {reason}", err=True)
    return {}, True


def _save_cache(path: Optional[str], cache: dict) -> None:
    if not path:
        return
    tmp = path + ".tmp"
    try:
        # json.dumps runs the C encoder; json.dump to a file would not
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(cache, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        # a failed write or rename leaves no stray temp file behind
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


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


def _cached_witness(hit: object, G: FiniteGroup) -> Optional[list[int]]:
    """The witness part bitsets of a current cache entry for G: version
    ``CACHE_VERSION``, every field well formed and both checksums holding.
    None marks the entry stale, to be solved and overwritten."""
    if not (isinstance(hit, dict) and hit.get("version") == CACHE_VERSION
            and hit.get("order") == G.order
            and type(hit.get("mu")) is int and hit["mu"] > 0
            and type(hit.get("is_CS")) is bool
            and hit.get("crc") == _entry_crc(hit)
            and hit.get("table_crc") == _table_crc(G)
            and isinstance(hit.get("witness"), list)
            and all(isinstance(h, str) for h in hit["witness"])):
        return None
    parts = hit["witness"]
    try:
        bits = [int(h, 16) for h in parts]
    except ValueError:
        return None
    # only the canonical spelling, which rejects signs, prefixes and case
    if [format(b, "x") for b in bits] != parts:
        return None
    return bits


def _witness_problem(G: FiniteGroup, mu: int, parts: list[int]) -> Optional[str]:
    """Why ``parts`` fails to prove mu(G) <= mu, or None if it proves it.

    G acts on the disjoint union of the cosets of the parts with degree
    the sum of their indices, and the action is faithful iff the cores of
    the parts meet in the identity, that is iff the core of the parts'
    intersection is trivial.  So the check reads bitsets only: each part
    is a subgroup (bit 0 set, inside G and closed under the product, by
    ``FiniteGroup.is_closed_bits``, which implies Lagrange), the indices
    |G| / |H| sum to mu, and the intersection is 1 or has core 1.  One
    core is taken, and none when the intersection is already 1.
    """
    for b in parts:
        if not b & 1 or not G.is_closed_bits(b):
            return f"witness part {b:x} is not a subgroup"
    deg = sum(G.order // b.bit_count() for b in parts)
    if deg != mu:
        return f"witness degree {deg} is not mu={mu}"
    inter = functools.reduce(int.__and__, parts, (1 << G.order) - 1)
    if inter != 1 and core(G, Subgroup(G, inter)).bits != 1:
        return "witness is not faithful"
    return None


def _batch_record(entry, hit: object,
                  rng: random.Random) -> tuple[dict, object]:
    """The record of one catalog entry and the cache entry to store for it,
    which for a hit is ``hit`` itself.

    A hit, a current entry for the rebuilt group, is checked, not solved:
    its witness must prove mu(G) <= the cached mu, and with probability
    ``SPOT_CHECK_RATE`` (one draw from ``rng`` per hit) mu is recomputed.
    Anything else, an entry of an older version included, is a miss: it is
    solved and its entry rewritten.
    """
    t0 = time.perf_counter()
    G = build(entry.expr)
    parts = _cached_witness(hit, G)
    if parts is not None:
        mu = hit["mu"]
        problem = _witness_problem(G, mu, parts)
        if problem is not None:
            raise InternalInvariantError(f"cache corruption: {entry.name} {problem}")
        # a hit still meets the structural test, through the cr it implies
        verdict = classify_with_ratio(G, Fraction(G.order, mu))
        if rng.random() < SPOT_CHECK_RATE:
            # spot-check: a hit never solves, so G holds no mu yet and
            # this really recomputes it
            fresh = mu_exact(G).mu
            if fresh != mu:
                raise InternalInvariantError(
                    f"cache corruption: {entry.name} cached mu={mu}, "
                    f"recomputed {fresh}")
        cs = hit["is_CS"]
        stored = hit
        witness = None
        solver = {"cached": True}
    else:
        # classification cross-checks cr against mu(G), solving G; the
        # record then reads that stored solve
        verdict = classify_incompressible(G)
        cs = is_CS(G)
        res = mu_exact(G)
        mu = res.mu
        stored = _cache_entry(G, mu, res.witness, cs)
        witness = _witness_lists(res.witness)
        solver = {"cached": False, "nodes": res.nodes_explored,
                  "candidates": res.candidates_considered}
    cr = verdict.cr
    structural = verdict.structural_type
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
    entries = catalog(max_order)
    cache, changed = _load_cache(cfg.cache_path)
    rng = random.Random()
    groups = incompressible = 0
    min_cr_above_1: Optional[Fraction] = None
    # each record is printed as soon as it is finished, and a changed cache
    # is saved on every exit, so a group that fails (a resource cap, say)
    # keeps the work done before it; a cache that every entry hit is left
    # as it is.  The cache is keyed by catalog name: every name is already
    # canonical (see ``catalog``), so it is the key
    # ``normalize_expr_string`` would give.
    try:
        for entry in entries:
            hit = cache.get(entry.name)
            r, stored = _batch_record(entry, hit, rng)
            if stored is not hit:
                cache[entry.name] = stored
                changed = True
            cached = " [cached]" if r["solver"]["cached"] else ""
            _emit(cfg, r, [f"{r['expr']}: order={r['order']} mu={r['mu']} "
                           f"cr={r['cr']} type={r['classification']}{cached}"])
            groups += 1
            cr = Fraction(r["order"], r["mu"])
            if cr == 1:
                incompressible += 1
            elif min_cr_above_1 is None or cr < min_cr_above_1:
                min_cr_above_1 = cr
    finally:
        if changed:
            _save_cache(cfg.cache_path, cache)

    min_str = (f"{min_cr_above_1.numerator}/{min_cr_above_1.denominator}"
               if min_cr_above_1 is not None else "none")
    _emit(cfg, {"summary": {"groups": groups, "incompressible": incompressible,
                            "min_cr_above_1": min_str}},
          [f"summary: groups={groups} incompressible={incompressible} "
           f"min_cr_above_1={min_str}"])


def main():
    cli(prog_name="permdeg")


if __name__ == "__main__":
    main()
