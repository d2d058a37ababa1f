"""In-memory span tracing at the vibroimpact module boundaries.

The tracer replaces module attributes (the names one module imported from
another, or a public name of the package) with timing wrappers, so the
program itself carries no tracing code.  Each call records a span: name,
start, end and the id of the enclosing span.  Inclusive time, self time
(inclusive minus the time of direct child spans) and call counts are kept
for every span name; counters are taken from the values crossing the same
boundaries (event counts from each MapResult, cap hits from each
SimulationError, bytes of each output).

Spans stay in memory; the first SPAN_LIMIT are kept whole and written by
:meth:`Tracer.dump` when the run ends, later ones only feed the aggregates
(a 400x400 region map makes millions of calls).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

from vibroimpact import SimulationError

# (module, attribute, span name).  A name listed under several modules is
# one layer reached through several import sites.
BOUNDARIES = (
    ("vibroimpact.simulator", "next_event", "flight.next_event"),
    ("vibroimpact.flight", "brentq", "flight.brentq"),
    ("vibroimpact.flight", "solve_ivp", "flight.solve_ivp"),
    ("vibroimpact.flight", "WallVanishingArc.v", "flight.arc_v"),
    ("vibroimpact.strobemap", "_advance", "simulator.advance"),
    ("vibroimpact.simulator", "_advance", "simulator.advance"),
    ("vibroimpact", "simulate", "simulator.simulate"),
    ("vibroimpact.portrait", "period_map", "strobemap.period_map"),
    ("vibroimpact.portrait", "period_map_jacobian",
     "strobemap.period_map_jacobian"),
    ("vibroimpact.orbits", "period_map", "strobemap.period_map"),
    ("vibroimpact.orbits", "period_map_jacobian",
     "strobemap.period_map_jacobian"),
    ("vibroimpact.orbits", "_pmj", "strobemap.period_map_jacobian"),
    ("vibroimpact", "continue_in_friction", "orbits.continue_in_friction"),
    ("vibroimpact", "find_periodic", "orbits.find_periodic"),
    ("vibroimpact", "classify_regions", "portrait.classify_regions"),
    ("vibroimpact", "invariance_check", "portrait.invariance_check"),
    ("vibroimpact", "island_area", "portrait.island_area"),
    ("vibroimpact.portrait", "RegionGrid.csv", "portrait.output"),
    ("vibroimpact.portrait", "RegionGrid.to_tile_bytes", "portrait.output"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in BOUNDARIES))

_MAP_SPANS = ("strobemap.period_map", "strobemap.period_map_jacobian")

SPAN_LIMIT = 50_000

COUNTERS = ("simulator.events", "simulator.events.impact",
            "simulator.events.turning", "simulator.events.stick",
            "simulator.events.grazing", "strobemap.undefined",
            "strobemap.cap_hits", "orbits.branch_points", "orbits.fd_maps",
            "orbits.fd_maps.s", "orbits.newton_maps", "portrait.island_maps",
            "portrait.output_bytes")


def _unit(name: str) -> str:
    named = {"portrait.output_bytes": "B",
             "flight.brentq_per_event": "calls/event",
             "simulator.events_per_map": "events/map",
             "strobemap.maps_per_s": "1/s",
             "orbits.jac_maps_per_point": "maps/point",
             "portrait.cells_per_s": "1/s",
             "trace.overhead_share": "fraction"}
    if name in named:
        return named[name]
    return "s" if name.endswith(("_s", ".s")) else "count"


# Every per-layer metric of a traced run, with its unit, in report order.
# Counts and seconds are per round of the workload's job.
PER_LAYER_UNITS = {name: _unit(name) for name in (
    *(f"{span}.{part}" for span in SPAN_NAMES
      for part in ("calls", "s", "self_s")),
    *COUNTERS,
    "flight.brentq_per_event", "simulator.events_per_map",
    "strobemap.maps_per_s", "orbits.jac_maps_per_point",
    "portrait.cells_per_s", "setup.import_s", "trace.spans", "trace.job_s",
    "trace.overhead_s", "trace.overhead_share")}

HIGHER_IS_BETTER = ("strobemap.maps_per_s", "portrait.cells_per_s")


class Tracer:
    """Records spans and counters while installed; see the module notes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.n_spans = 0
        self.calls: Counter = Counter()
        self.incl: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[list] = []     # [span id, name, child seconds]
        self._open: Counter = Counter()  # open spans by name
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for mod_name, attr, span in BOUNDARIES:
            owner = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, span, mod_name, attr))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, fn, span: str, mod_name: str, attr: str):
        stack, opened, clock = self._stack, self._open, self.clock
        from_orbits = mod_name == "vibroimpact.orbits"
        is_map = span in _MAP_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.n_spans
            self.n_spans += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, span, 0.0]
            stack.append(frame)
            opened[span] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except SimulationError:
                if is_map:
                    self.counters["strobemap.cap_hits"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                opened[span] -= 1
                dur = t1 - t0
                self.calls[span] += 1
                self.incl[span] += dur
                self.self_s[span] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if sid < SPAN_LIMIT:
                    self.spans.append((sid, span, t0, t1, parent))
                if from_orbits:
                    self._orbits_call(attr, dur)
            self._observe(span, result)
            return result

        return wrapper

    def _orbits_call(self, attr: str, dur: float) -> None:
        c = self.counters
        if attr == "period_map":
            c["orbits.fd_maps"] += 1
            c["orbits.fd_maps.s"] += dur
        elif attr == "_pmj":
            c["orbits.newton_maps"] += 1
        elif self._open["orbits.continue_in_friction"]:
            c["orbits.continuation_jac_maps"] += 1

    def _observe(self, span: str, result) -> None:
        c = self.counters
        if span in _MAP_SPANS:
            ev = result.event_summary
            impacts = ev["impacts_left"] + ev["impacts_right"]
            c["simulator.events.impact"] += impacts
            c["simulator.events.turning"] += ev["turnings"]
            c["simulator.events.stick"] += ev["sticks"]
            c["simulator.events.grazing"] += ev["grazings"]
            c["simulator.events"] += (impacts + ev["turnings"] + ev["sticks"]
                                      + ev["grazings"])
            c["strobemap.undefined"] += bool(result.undefined)
            if self._open["portrait.island_area"]:
                c["portrait.island_maps"] += 1
        elif span == "orbits.continue_in_friction":
            c["orbits.branch_points"] += len(result.points)
        elif span == "portrait.classify_regions":
            c["portrait.cells"] += result.classes.size
        elif span == "portrait.invariance_check":
            c["portrait.cells"] += result.checked
        elif span == "portrait.output":
            c["portrait.output_bytes"] += len(result)

    # -- results --------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics of one round: calls, inclusive and self
        seconds of every span name, the counters, and the ratios built
        from them (ratios of totals, so not divided by ``rounds``)."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name] / rounds
            out[f"{name}.s"] = self.incl[name] / rounds
            out[f"{name}.self_s"] = self.self_s[name] / rounds
        c = self.counters
        for key in COUNTERS:
            out[key] = c[key] / rounds
        maps = sum(self.calls[s] for s in _MAP_SPANS)
        map_s = sum(self.incl[s] for s in _MAP_SPANS)
        grid_s = (self.incl["portrait.classify_regions"]
                  + self.incl["portrait.invariance_check"])
        out["flight.brentq_per_event"] = _ratio(self.calls["flight.brentq"],
                                                self.calls["flight.next_event"])
        out["simulator.events_per_map"] = _ratio(c["simulator.events"], maps)
        out["strobemap.maps_per_s"] = _ratio(maps, map_s)
        out["orbits.jac_maps_per_point"] = _ratio(
            c["orbits.continuation_jac_maps"], c["orbits.branch_points"])
        out["portrait.cells_per_s"] = _ratio(c["portrait.cells"], grid_s)
        out["trace.spans"] = self.n_spans / rounds
        return out

    def dump(self, path, extra: dict) -> None:
        """Write the kept spans and the aggregates as one JSON document."""
        doc = dict(extra)
        doc["spans_total"] = self.n_spans
        doc["spans_kept"] = len(self.spans)
        doc["span_fields"] = ["id", "name", "start_s", "end_s", "parent"]
        doc["spans"] = self.spans
        doc["aggregates"] = {name: {"calls": self.calls[name],
                                    "s": self.incl[name],
                                    "self_s": self.self_s[name]}
                             for name in SPAN_NAMES}
        doc["counters"] = dict(self.counters)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
