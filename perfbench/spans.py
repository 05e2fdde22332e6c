"""Span tracing installed from outside the package.

The tracer wraps the public functions of each permdeg layer in every
namespace that holds them (the defining module, the package re-export and
``permdeg.cli``, which imports several of them by name), and wraps
``FiniteGroup.lattice`` and ``SubgroupLattice.meet_irreducible_flags`` on the
class.  Each call records a span ``[name, start, end, parent, op]``; spans
stay in memory until the pass ends.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import statistics
import sys
import weakref
from time import perf_counter

# span name -> the per-layer time metric its self time accrues to
LAYER_TIME = {
    "catalog.parse_group_expr": "catalog.build_s",
    "catalog.build": "catalog.build_s",
    "catalog.catalog": "catalog.build_s",
    "catalog.normalize_expr_string": "catalog.build_s",
    "groups.FiniteGroup.lattice": "groups.lattice_s",
    "groups.SubgroupLattice.meet_irreducible_flags": "groups.meet_irr_s",
    "solver.cover_sets": "solver.cover_s",
    "solver.mu_exact": "solver.search_s",
    "solver.classify_incompressible": "solver.classify_s",
    "solver.is_CS": "solver.is_cs_s",
    "solver.verify_additivity": "solver.verify_s",
    "cli.batch": "cli.batch_s",
}

COUNTS = (
    "catalog.groups_built",
    "groups.lattices_built",
    "groups.subgroups",
    "groups.minimal_normals",
    "groups.meet_irreducible",
    "solver.nodes",
    "solver.candidates",
    "solver.mu_exact_calls",
    "solver.mu_exact_useful_ratio",
    "cli.cache_hits",
    "cli.cache_misses",
    "cli.spot_checks",
    "cli.mu_exact_per_hit",
    "trace.spans",
)

TIMES = tuple(dict.fromkeys(LAYER_TIME.values()))


class Tracer:
    """Collects the spans and counts of one pass."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.paused = False
        self.counts: dict[str, int] = {}
        self._tables: set[bytes] = set()
        self._lattices: weakref.WeakSet = weakref.WeakSet()
        self._flagged: weakref.WeakSet = weakref.WeakSet()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped so that each call records a span named ``name``;
        ``after(args, result)`` updates counts once the span has closed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                   tracer.op]
            tracer.spans.append(rec)
            tracer.stack.append(idx)
            rec[1] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = tracer.clock()
                tracer.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    # -- count hooks ------------------------------------------------------

    def _on_build(self, args, G) -> None:
        self.bump("catalog.groups_built")

    def _on_lattice(self, args, lat) -> None:
        if lat not in self._lattices:
            self._lattices.add(lat)
            self.bump("groups.lattices_built")
            self.bump("groups.subgroups", len(lat))
            self.bump("groups.minimal_normals", len(lat.minimal_normals))

    def _on_flags(self, args, flags) -> None:
        lat = args[0]
        if lat not in self._flagged:
            self._flagged.add(lat)
            self.bump("groups.meet_irreducible", sum(flags))

    def _on_mu(self, args, res) -> None:
        self.bump("solver.mu_exact_calls")
        self.bump("solver.nodes", res.nodes_explored)
        self.bump("solver.candidates", res.candidates_considered)
        table = args[0].mult.tobytes()
        if table not in self._tables:
            self._tables.add(table)
            self.bump("solver.useful_solves")

    # -- installation -----------------------------------------------------

    def install(self, pd) -> None:
        """Wrap every traced function in every permdeg namespace holding it."""
        # the package re-exports the function ``catalog`` over the submodule
        catalog, solver = sys.modules["permdeg.catalog"], pd.solver
        functions = [
            (catalog, "parse_group_expr", None),
            (catalog, "build", self._on_build),
            (catalog, "catalog", None),
            (catalog, "normalize_expr_string", None),
            (solver, "cover_sets", None),
            (solver, "mu_exact", self._on_mu),
            (solver, "classify_incompressible", None),
            (solver, "is_CS", None),
            (solver, "verify_additivity", None),
        ]
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "permdeg" or n.startswith("permdeg.")]
        for module, attr, after in functions:
            original = getattr(module, attr)
            layer = module.__name__.rsplit(".", 1)[1]
            wrapper = self.span(f"{layer}.{attr}", original, after)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, original))
                        setattr(ns, key, wrapper)
        for cls, attr, after in [
                (pd.groups.FiniteGroup, "lattice", self._on_lattice),
                (pd.groups.SubgroupLattice, "meet_irreducible_flags",
                 self._on_flags)]:
            original = vars(cls)[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.span(f"groups.{cls.__name__}.{attr}",
                                         original, after))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._restore):
            setattr(ns, key, original)
        self._restore.clear()

    # -- summary ----------------------------------------------------------

    def summary(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self time per layer metric, counts) of the spans recorded."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        times = dict.fromkeys(TIMES, 0.0)
        for i, (name, start, end, _, _) in enumerate(spans):
            times[LAYER_TIME[name]] += (end - start) - child_time[i]

        c = self.counts
        batch = {i for i, s in enumerate(spans) if s[0] == "cli.batch"}
        direct_mu = sum(1 for s in spans
                        if s[0] == "solver.mu_exact" and s[3] in batch)
        hits, misses = c.get("cli.cache_hits", 0), c.get("cli.cache_misses", 0)
        calls = c.get("solver.mu_exact_calls", 0)
        counts = {k: c.get(k, 0) for k in COUNTS}
        counts["solver.mu_exact_useful_ratio"] = (
            c.get("solver.useful_solves", 0) / calls if calls else 0.0)
        # a miss solves once directly under the batch command; any further
        # direct solve is a cache spot-check
        counts["cli.spot_checks"] = direct_mu - misses if batch else 0
        counts["cli.mu_exact_per_hit"] = calls / hits if hits else 0.0
        counts["trace.spans"] = len(spans)
        return times, counts


def median_times(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
