"""The benchmark's workloads.

Each workload is a fixed set of requests.  A pass issues every request once,
in an order shuffled from the workload seed, from a single-threaded closed
loop: a request starts when the previous one has returned.  ``run`` does the
timed work; ``check`` compares its outputs with ``expected.json`` and runs
outside the timed region.

Sizes are chosen so that a run of 20 seconds holds at least two passes, or,
on batch_warm, one pass of ten commands, on a 2-vCPU Xeon at 2.0 GHz.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# Seven groups whose costs spread out so that the median one, SL(2,5), and
# the slowest, Ab(2^6), sit well apart from their neighbours: the nearest-rank
# p50 and p90 then cannot flip between two groups of similar cost.
LARGE_SUITE = ("Ab(2,2,2,2,2,2)", "Ab(3,3,3,3)", "Q8 x Q8", "SL(2,5)",
               "S4 x C2", "S5", "D4 x D4")
BATCH_MAX_ORDER = 32


def lattice_problems(expected: dict, name: str, G) -> list[str]:
    """Differences between G's lattice counts and the expected entry."""
    exp = expected["groups"].get(name)
    if exp is None:
        return [f"{name}: no expected entry"]
    lat = G.lattice()
    got = {"order": G.order,
           "subgroups": len(lat),
           "meet_irreducible": sum(lat.meet_irreducible_flags()),
           "minimal_normals": len(lat.minimal_normals)}
    return [f"{name}: {k}={v}, expected {exp[k]}"
            for k, v in got.items() if v != exp[k]]


def value_problems(name: str, got: dict, exp: dict) -> list[str]:
    return [f"{name}: {k}={v!r}, expected {exp[k]!r}"
            for k, v in got.items() if v != exp[k]]


class Workload:
    name = ""
    unit = ""          # what one unit of ops_per_s is
    span_name = None   # traced runs record each request as a span of this name
    needs_warm_up = False

    def __init__(self, pd, expected: dict, seed: int, workdir: Path):
        self.pd = pd
        self.expected = expected
        self.workdir = workdir
        self.requests: list = []

    def warm_up(self) -> None:
        """Untimed preparation shared by every pass of a run, done once in
        its own process; it may leave files in ``workdir``."""

    def run(self, request):
        raise NotImplementedError

    def check(self, request, result) -> tuple[int, list[str], dict[str, int]]:
        """(units completed, problems found, per-layer counts seen in output)."""
        raise NotImplementedError


class LargeGroups(Workload):
    name = "large_groups"
    unit = "groups"

    def __init__(self, pd, expected, seed, workdir):
        super().__init__(pd, expected, seed, workdir)
        self.requests = list(LARGE_SUITE)

    def run(self, name):
        pd = self.pd
        G = pd.build(pd.parse_group_expr(name))
        return G, pd.mu_exact(G).mu

    def check(self, name, result):
        G, mu = result
        problems = lattice_problems(self.expected, name, G)
        exp = self.expected["groups"].get(name)
        if exp is not None:
            problems += value_problems(name, {"mu": mu}, exp)
        return 1, problems, {}


class ScheduledRandom(random.Random):
    """A seeded generator whose n-th ``random()`` falls below ``rate``
    exactly when ``below[n]`` is true, and is otherwise uniform."""

    def __init__(self, seed, below: list[bool], rate: float):
        super().__init__(seed)
        self._below = below
        self._rate = rate
        self._n = 0

    def random(self) -> float:
        u = super().random()
        below = self._below[self._n % len(self._below)]
        self._n += 1
        return u * self._rate if below else self._rate + u * (1 - self._rate)


class SpotCheckSchedule:
    """Stands in for the ``random`` module inside ``permdeg.cli`` during one
    warm command.

    ``permdeg batch`` makes one unseeded ``random.Random()`` per command and
    draws once per cache hit, spot-checking the hit when the draw is below
    ``SPOT_CHECK_RATE``.  Left alone, which of the 174 hits get checked moves
    a warm command's time by up to 20%.  Here the seed assigns every catalog
    group to one of ``1 / SPOT_CHECK_RATE`` commands, and command ``i``
    spot-checks the groups assigned to it.  Each command still checks about
    one hit in ten, and the seed fixes which; a pass that runs every command
    checks each group once, so its total work does not depend on the seed.
    A seeded ``Random(x)`` is left as it is.
    """

    def __init__(self, seed, owner: list[int], command: int, rate: float):
        self._seed = f"{seed}/{command}"
        self._below = [o == command for o in owner]
        self._rate = rate

    def Random(self, x=None):
        if x is not None:
            return random.Random(x)
        return ScheduledRandom(self._seed, self._below, self._rate)

    def __getattr__(self, name):
        return getattr(random, name)


class Batch(Workload):
    """One request is one ``permdeg batch`` command, run in-process through
    the click entry point."""

    unit = "batch records"
    span_name = "cli.batch"
    want_cached = False

    def __init__(self, pd, expected, seed, workdir):
        super().__init__(pd, expected, seed, workdir)
        self.requests = ["batch"]
        self.names = [e.name for e in pd.catalog(BATCH_MAX_ORDER)]
        self.reference = None     # records of the cold run, for batch_warm

    def invoke(self, cache: Path):
        from click.testing import CliRunner
        res = CliRunner().invoke(
            self.pd.cli.cli,
            ["--json", "--cache", str(cache), "batch",
             "--max-order", str(BATCH_MAX_ORDER)],
            prog_name="permdeg")
        return res.exit_code, res.stdout, res.exception

    def records(self, out) -> tuple[list[dict], dict, list[str]]:
        code, stdout, exc = out
        if code != 0:
            return [], {}, [f"batch exited {code}: {exc!r}"]
        try:
            lines = [json.loads(line) for line in stdout.splitlines() if line]
        except json.JSONDecodeError as e:
            return [], {}, [f"batch printed invalid JSON: {e}"]
        if not lines or "summary" not in lines[-1]:
            return [], {}, ["batch printed no summary"]
        return lines[:-1], lines[-1]["summary"], []

    def check(self, request, out):
        records, summary, problems = self.records(out)
        if problems:
            return 0, problems, {}
        groups = self.expected["groups"]
        got_names = [r["expr"] for r in records]
        if got_names != self.names:
            problems.append(
                f"batch records do not list catalog({BATCH_MAX_ORDER}) in order")
        ratios = []
        hits = 0
        for r in records:
            name = r["expr"]
            exp = groups.get(name)
            if exp is None:
                problems.append(f"{name}: no expected entry")
                continue
            problems += value_problems(
                name, {"order": r["order"], "mu": r["mu"],
                       "incompressible_type": r["flags"]["incompressible_type"],
                       "is_CS": r["flags"]["is_CS"]}, exp)
            cached = bool(r["solver"].get("cached"))
            hits += cached
            if cached != self.want_cached:
                problems.append(f"{name}: cached={cached}")
            ratios.append(Fraction(exp["order"], exp["mu"]))
        above = [q for q in ratios if q > 1]
        want_summary = {
            "groups": len(self.names),
            "incompressible": sum(q == 1 for q in ratios),
            "min_cr_above_1": (f"{min(above).numerator}/{min(above).denominator}"
                               if above else "none")}
        if summary != want_summary:
            problems.append(f"summary {summary}, expected {want_summary}")
        if self.reference is not None and (
                [_comparable(r) for r in records] != self.reference):
            problems.append("warm records differ from the cold run's")
        counts = {"cli.cache_hits": hits, "cli.cache_misses": len(records) - hits}
        return len(records), problems, counts


def _comparable(record: dict) -> dict:
    """A batch record without the fields a warm cache may change."""
    return {k: v for k, v in record.items()
            if k not in ("witness", "solver", "timing_s")}


class BatchCold(Batch):
    name = "batch_cold"

    def run(self, request):
        cache = self.workdir / "cold-cache.json"
        try:
            return self.invoke(cache)
        finally:
            cache.unlink(missing_ok=True)


class BatchWarm(Batch):
    """One request is one warm command; a pass runs ``1 / SPOT_CHECK_RATE``
    of them, each with its share of the spot-checks (see
    ``SpotCheckSchedule``)."""

    name = "batch_warm"
    want_cached = True
    needs_warm_up = True

    def __init__(self, pd, expected, seed, workdir):
        super().__init__(pd, expected, seed, workdir)
        self.seed = seed
        self.rate = pd.cli.SPOT_CHECK_RATE
        commands = round(1 / self.rate)
        rng = random.Random(seed)
        self.owner = [rng.randrange(commands) for _ in self.names]
        self.requests = list(range(commands))
        self.cache = workdir / "warm-cache.json"
        self.reference_path = workdir / "cold-records.json"
        if self.reference_path.exists():
            self.reference = json.loads(
                self.reference_path.read_text(encoding="utf-8"))

    def warm_up(self) -> None:
        """Fill the cache with one cold run and keep its records as the
        reference the warm runs must reproduce.  A failed cold run leaves an
        empty reference, which fails every warm check."""
        records = self.records(self.invoke(self.cache))[0]
        self.reference_path.write_text(
            json.dumps([_comparable(r) for r in records]), encoding="utf-8")

    def run(self, command):
        self.pd.cli.random = SpotCheckSchedule(self.seed, self.owner, command,
                                               self.rate)
        return self.invoke(self.cache)


WORKLOADS = {w.name: w for w in (LargeGroups, BatchCold, BatchWarm)}
