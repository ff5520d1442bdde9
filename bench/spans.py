"""Per-layer spans around csdepth functions, installed from outside the package.

`install` replaces each function in `TRACED` by a wrapper that records a
span: call count, total time, and self time (total minus the time of the
spans opened inside it).  Modules bind each other's functions with
`from .x import y`, so the wrapper goes into every `csdepth.*` namespace that
holds the original, and installation fails if any namespace still holds one
afterwards.  Spans are aggregated in memory by name; `edges` counts calls by
(parent span, child span), which is how the counts below tell, say, a search
proposal's hull test from a hull test inside `validate`.

The generator `enumerate_cells` gets one span per `next()` call, named by
dimension, so the cells' own cost is not charged to its consumer.

Cheap, very hot helpers (`vec_dot`, `scale_to_integers`) are not wrapped:
a span costs about as much as their whole body.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, qualified name) of every traced function, grouped by layer.
TRACED = [
    ("exactgeom", "int_det"),
    ("exactgeom", "cone_facet_rows"),
    ("exactgeom", "max_slack_point"),
    ("exactgeom", "normal_to_span"),
    ("exactgeom", "kernel_vector"),
    ("configuration", "validate"),
    ("configuration", "parse_configuration"),
    ("configuration", "parse_pairs"),
    ("depth", "colourful_depth"),
    ("depth", "simplex_contains_origin"),
    ("depth", "origin_in_convex_hull"),
    ("depth", "cone_contains"),
    ("depth", "d_depth"),
    ("depth", "antipodal_check"),
    ("depth", "_ConeFamily.__init__"),
    ("depth", "_ConeFamily.count_containing"),
    ("depth", "_ConeFamily.containing"),
    ("arrangement", "facet_hyperplanes"),
    ("arrangement", "enumerate_cells"),
    ("arrangement", "covers_space"),
    ("arrangement", "monte_carlo_refuter"),
    ("crosspos", "find_cross_position"),
    ("crosspos", "is_deformed_cross_position"),
    ("witness", "generate_witnesses"),
    ("witness", "verify_witness_set"),
    ("search", "random_configuration"),
    ("search", "minimize_depth"),
    ("search", "_checked_depth"),
    ("search", "_ProposalScreen.lower_bound"),
    ("search", "_ProposalScreen.invalidate_except"),
    ("cli", "main"),
]


class Tracer:
    """Aggregated spans of one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()    # (parent, child) -> calls
        self.events: Counter = Counter()   # outcomes seen by the wrappers
        self._stack: list[list] = []       # [name, time of child spans]

    def enter(self, name: str) -> float:
        parent = self._stack[-1][0] if self._stack else None
        self.calls[name] += 1
        self.edges[(parent, name)] += 1
        self._stack.append([name, 0.0])
        return perf_counter()

    def leave(self, start: float) -> None:
        elapsed = perf_counter() - start
        name, children = self._stack.pop()
        self.total_s[name] += elapsed
        self.self_s[name] += elapsed - children
        if self._stack:
            self._stack[-1][1] += elapsed

    def counts(self) -> dict:
        """Everything that must repeat exactly between two passes."""
        return {"calls": dict(self.calls),
                "edges": {f"{p} > {c}": n for (p, c), n in self.edges.items()},
                "events": dict(self.events)}


def _outcome_find_cross_position(tracer: Tracer, result) -> None:
    if type(result).__name__ == "CrossPosition":
        tracer.events["crosspos.found"] += 1


def _outcome_generate_witnesses(tracer: Tracer, result) -> None:
    if any(stage.fallback for stage in result.stage_log):
        tracer.events["witness.fallback"] += 1


_OUTCOMES = {
    "crosspos.find_cross_position": _outcome_find_cross_position,
    "witness.generate_witnesses": _outcome_generate_witnesses,
}


def _wrap(tracer: Tracer, name: str, fn):
    outcome = _OUTCOMES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        start = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(start)
        if outcome is not None:
            outcome(tracer, result)
        return result

    return traced


def _wrap_cells(tracer: Tracer, fn):
    """Span per next() of `enumerate_cells`, named by dimension."""

    @functools.wraps(fn)
    def traced(hyperplanes):
        name = f"arrangement.enumerate_cells.d{len(hyperplanes[0].normal) if hyperplanes else 0}"
        cells = fn(hyperplanes)
        try:
            while True:
                start = tracer.enter(name)
                try:
                    item = next(cells)
                except StopIteration:
                    return
                finally:
                    tracer.leave(start)
                tracer.events[name + ".cells"] += 1
                yield item
        finally:
            cells.close()

    return traced


def _csdepth_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if n == "csdepth" or n.startswith("csdepth.")]


def install(tracer: Tracer):
    """Wrap every function in `TRACED`; returns a function that restores
    the originals."""
    modules = _csdepth_modules()
    by_name = {m.__name__: m for m in modules}
    undo = []
    originals = set()

    def restore():
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    try:
        for module_name, qualname in TRACED:
            owner = by_name["csdepth." + module_name]
            span = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, _wrap(tracer, span, original))
                undo.append((cls, attr, original))
            else:
                original = getattr(owner, qualname)
                wrapper = (_wrap_cells(tracer, original) if qualname == "enumerate_cells"
                           else _wrap(tracer, span, original))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            undo.append((module, key, original))
            originals.add(id(original))
    except BaseException:
        restore()
        raise

    holders = [f"{m.__name__}.{k}" for m in modules for k, v in vars(m).items()
               if id(v) in originals]
    holders += [f"{c.__qualname__}.{k}" for m in modules for c in vars(m).values()
                if isinstance(c, type) and c.__module__ == m.__name__
                for k, v in vars(c).items() if id(v) in originals]
    if holders:
        restore()
        raise RuntimeError("untraced references remain: " + ", ".join(holders))
    return restore


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (search.s_per_proposal,
    search.best_depth and trace.* are added by the caller)."""
    out: dict[str, float] = {}
    for span in ("exactgeom.int_det", "exactgeom.cone_facet_rows",
                 "exactgeom.max_slack_point", "configuration.validate",
                 "depth.colourful_depth", "depth.origin_in_convex_hull",
                 "depth._ConeFamily.count_containing", "depth._ConeFamily.containing",
                 "arrangement.covers_space", "crosspos.find_cross_position"):
        out[f"{span}.calls"] = tr.calls[span]
        out[f"{span}.self_s"] = tr.self_s[span]
    for span in ("witness.generate_witnesses", "witness.verify_witness_set",
                 "search.random_configuration", "cli.main"):
        out[f"{span}.self_s"] = tr.self_s[span]

    cells = {d: tr.events[f"arrangement.enumerate_cells.d{d}.cells"] for d in range(1, 6)}
    out["arrangement.enumerate_cells.cells"] = sum(cells.values())
    out["arrangement.enumerate_cells.self_s"] = sum(
        tr.self_s[f"arrangement.enumerate_cells.d{d}"] for d in cells)
    for d in (3, 4):
        out[f"arrangement.d{d}.s_per_cell"] = _ratio(
            tr.total_s[f"arrangement.enumerate_cells.d{d}"], cells[d])
    out["arrangement.d4.lp_per_cell"] = _ratio(
        tr.edges[("arrangement.enumerate_cells.d4", "exactgeom.max_slack_point")], cells[4])

    finds = tr.calls["crosspos.find_cross_position"]
    out["crosspos.candidates"] = tr.edges[
        ("crosspos.find_cross_position", "depth._ConeFamily.containing")]
    out["crosspos.found_ratio"] = _ratio(tr.events["crosspos.found"], finds)
    out["witness.fallback_ratio"] = _ratio(
        tr.events["witness.fallback"], tr.calls["witness.generate_witnesses"])

    # One proposal = one hull test made by the descent loop itself; each
    # restart evaluates its starting configuration once.
    search = "search.minimize_depth"
    proposals = tr.edges[(search, "depth.origin_in_convex_hull")]
    screened = tr.edges[(search, "search._ProposalScreen.lower_bound")]
    evaluated = (tr.edges[(search, "search._checked_depth")]
                 - tr.edges[(search, "search.random_configuration")])
    out["search.proposals"] = proposals
    out["search.evaluated"] = evaluated
    out["search.accepted"] = tr.calls["search._ProposalScreen.invalidate_except"]
    out["search.screen_reject_ratio"] = _ratio(screened - evaluated, screened)
    return out
