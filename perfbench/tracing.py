"""Outside-in span tracer for the per-layer metrics.

The tracer wraps public fracwos functions, and the `_distance`/`_contains`
methods of the domains, by replacing every reference to them in the loaded
fracwos modules; no source file is edited.  Each span records its calls,
inclusive time and self time (inclusive time minus the time of the traced
spans it called), and a counter hook records the work it did, such as
draws, points or walk steps.  Spans stay in memory and are returned as plain
sums, so the calls of one run can be added up before the metrics are formed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _size(a) -> int:
    return int(np.size(a))


def _count_uniform_pair(c, parent, args, out):
    c["uniform_pair.draws"] += _size(out[0])
    if parent == "streams.johnk_beta":
        c["johnk_beta.draws"] += _size(out[0])


def _count_johnk(c, parent, args, out):
    c["johnk_beta.values"] += _size(out)


def _count_step_tuples(c, parent, args, out):
    c["tuples"] += _size(out[0])
    if parent == "field.walk_starts":
        c["field.iterations"] += 1
        c["field.tuples"] += _size(out[0])


def _count_reg_inc_beta(c, parent, args, out):
    c["reg_inc_beta.points"] += _size(args[0])


def _count_geometry(c, parent, args, out):
    c["geometry.points"] += _size(out)


def _count_locate(c, parent, args, out):
    c["locate.points"] += _size(out[0])


def _count_point(c, parent, args, out):
    c["point.steps"] += out.total_steps


def _count_walk_starts(c, parent, args, out):
    c["field.steps"] += out[1]


def _count_pilot(c, parent, args, out):
    c["pilot.steps"] += out.total_cost


def _count_run(c, parent, args, out):
    c["run.steps"] += out.total_cost
    c["run.planned_steps"] += out.plan.planned_cost


def _count_eig(c, parent, args, out):
    c["eig.late_steps"] += sum(out.state.cost_history[2:])


def _count_check_I2(c, parent, args, out):
    cfg = args[0]
    c["check_I2.samples"] += cfg.samples_M * len(out.per_start)


# (span name, module, attribute or Class.method, counter hook)
SPANS = [
    ("streams.uniform_pair", "streams", "uniform_pair", _count_uniform_pair),
    ("streams.johnk_beta", "streams", "johnk_beta", _count_johnk),
    ("streams.step_tuples", "streams", "step_tuples", _count_step_tuples),
    ("sampling.reg_inc_beta", "sampling", "reg_inc_beta", _count_reg_inc_beta),
    ("sampling.johnk_beta_rng", "streams", "johnk_beta_rng", None),
    ("sampling.point_estimate", "sampling", "point_estimate", _count_point),
    ("sampling.make_params", "sampling", "make_params", None),
    ("geometry.distance", "geometry", "Ball._distance", _count_geometry),
    ("geometry.distance", "geometry", "ConvexPolygon._distance", _count_geometry),
    ("geometry.contains", "geometry", "Ball._contains", _count_geometry),
    ("geometry.contains", "geometry", "ConvexPolygon._contains", _count_geometry),
    ("mesh.locate", "mesh", "locate", _count_locate),
    ("mesh.interpolate", "mesh", "interpolate", None),
    ("mesh.build_hierarchy", "mesh", "build_hierarchy", None),
    ("field.walk_starts", "field", "walk_starts", _count_walk_starts),
    ("field.moments_add", "field", "FieldMoments.add", None),
    ("field.mass_matrix", "field", "mass_matrix", None),
    ("field.batch_defects", "field", "batch_defects", None),
    ("mlmc.pilot", "mlmc", "pilot", _count_pilot),
    ("mlmc.run", "mlmc", "run", _count_run),
    ("eigen.apply_inverse", "eigen", "apply_inverse", None),
    ("eigen.smallest_eigenvalue", "eigen", "smallest_eigenvalue", _count_eig),
    ("assumptions.check_I2", "assumptions", "check_I2", _count_check_I2),
]

# Per-layer metrics, in BENCHMARK.json order, with their units.
LAYER_METRICS = [
    ("streams.uniform_pair.s", "s"),
    ("streams.uniform_pair.draws", "count"),
    ("streams.johnk_beta.s", "s"),
    ("streams.johnk_beta.accept_ratio", "ratio"),
    ("streams.step_tuples.s", "s"),
    ("streams.tuples", "count"),
    ("sampling.reg_inc_beta.s", "s"),
    ("sampling.reg_inc_beta.points", "count"),
    ("sampling.johnk_beta_rng.s", "s"),
    ("sampling.point_walk.self_s", "s"),
    ("sampling.steps_per_s", "1/s"),
    ("sampling.make_params.s", "s"),
    ("geometry.distance.s", "s"),
    ("geometry.contains.s", "s"),
    ("geometry.points", "count"),
    ("geometry.ns_per_point", "ns"),
    ("mesh.locate.s", "s"),
    ("mesh.locate.points", "count"),
    ("mesh.interpolate.s", "s"),
    ("mesh.build_hierarchy.s", "s"),
    ("field.walk_starts.self_s", "s"),
    ("field.walk_steps", "count"),
    ("field.steps_per_s", "1/s"),
    ("field.iterations", "count"),
    ("field.steps_per_tuple", "ratio"),
    ("field.moments_add.s", "s"),
    ("field.mass_matrix.s", "s"),
    ("field.mass_matrix.calls", "count"),
    ("field.batch_defects.s", "s"),
    ("mlmc.pilot.s", "s"),
    ("mlmc.pilot.steps", "count"),
    ("mlmc.production.s", "s"),
    ("mlmc.production.steps", "count"),
    ("mlmc.pilot_share", "ratio"),
    ("mlmc.used_over_planned", "ratio"),
    ("eigen.apply_inverse.s", "s"),
    ("eigen.arnoldi.self_s", "s"),
    ("eigen.late_steps.walk_steps", "count"),
    ("assumptions.check_I2.self_s", "s"),
    ("assumptions.samples_per_s", "1/s"),
    ("trace.wall_s", "s"),
]


class Tracer:
    """In-memory spans: calls, inclusive and self seconds, and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[list] = []   # [span name, seconds in child spans]

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                self.calls[name] += 1
                self.incl[name] += dt
                self.self_s[name] += dt - frame[1]
            if count is not None:
                count(self.counts, parent, args, out)
            return out
        return traced

    def install(self) -> None:
        """Wrap every span target in all loaded fracwos modules."""
        modules = [m for n, m in sys.modules.items()
                   if n == "fracwos" or n.startswith("fracwos.")]
        for name, mod, attr, count in SPANS:
            owner = importlib.import_module(f"fracwos.{mod}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth], count))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, count)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def totals(self) -> dict:
        return {"calls": dict(self.calls), "incl": dict(self.incl),
                "self": dict(self.self_s), "counts": dict(self.counts)}

    def reset(self) -> None:
        for part in (self.calls, self.incl, self.self_s, self.counts):
            part.clear()


def merge(totals_list) -> dict:
    """Sum the span totals of several calls."""
    out = {"calls": defaultdict(float), "incl": defaultdict(float),
           "self": defaultdict(float), "counts": defaultdict(float)}
    for t in totals_list:
        for part, vals in t.items():
            for key, val in vals.items():
                out[part][key] += val
    return out


def layer_metrics(t: dict, setup: dict, n_calls: int, wall_s: float) -> dict:
    """Per-layer metrics per timed call, from span totals summed over calls.

    `t` holds the spans of the timed calls and `setup` those of the set-up
    before them, which only the set-up layers (`build_hierarchy`,
    `make_params`) read.  `wall_s` is the summed traced wall time of the
    timed calls.  Times and counts are divided by the number of calls;
    ratios are taken on the sums.
    """
    incl = defaultdict(float, t["incl"])
    setup_incl = defaultdict(float, setup["incl"])
    self_s = defaultdict(float, t["self"])
    c = defaultdict(float, t["counts"])
    t_calls = defaultdict(float, t["calls"])

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    geo_s = incl["geometry.distance"] + incl["geometry.contains"]
    prod_s = incl["mlmc.run"] - incl["mlmc.pilot"]
    prod_steps = c["run.steps"] - c["pilot.steps"]
    per_call = {
        "streams.uniform_pair.s": incl["streams.uniform_pair"],
        "streams.uniform_pair.draws": c["uniform_pair.draws"],
        "streams.johnk_beta.s": incl["streams.johnk_beta"],
        "streams.step_tuples.s": incl["streams.step_tuples"],
        "streams.tuples": c["tuples"],
        "sampling.reg_inc_beta.s": incl["sampling.reg_inc_beta"],
        "sampling.reg_inc_beta.points": c["reg_inc_beta.points"],
        "sampling.johnk_beta_rng.s": incl["sampling.johnk_beta_rng"],
        "sampling.point_walk.self_s": self_s["sampling.point_estimate"],
        "sampling.make_params.s": (incl["sampling.make_params"]
                                   + setup_incl["sampling.make_params"]),
        "geometry.distance.s": incl["geometry.distance"],
        "geometry.contains.s": incl["geometry.contains"],
        "geometry.points": c["geometry.points"],
        "mesh.locate.s": incl["mesh.locate"],
        "mesh.locate.points": c["locate.points"],
        "mesh.interpolate.s": incl["mesh.interpolate"],
        "mesh.build_hierarchy.s": (incl["mesh.build_hierarchy"]
                                   + setup_incl["mesh.build_hierarchy"]),
        "field.walk_starts.self_s": self_s["field.walk_starts"],
        "field.walk_steps": c["field.steps"],
        "field.iterations": c["field.iterations"],
        "field.moments_add.s": incl["field.moments_add"],
        "field.mass_matrix.s": incl["field.mass_matrix"],
        "field.mass_matrix.calls": t_calls["field.mass_matrix"],
        "field.batch_defects.s": incl["field.batch_defects"],
        "mlmc.pilot.s": incl["mlmc.pilot"],
        "mlmc.pilot.steps": c["pilot.steps"],
        "mlmc.production.s": prod_s,
        "mlmc.production.steps": prod_steps,
        "eigen.apply_inverse.s": incl["eigen.apply_inverse"],
        "eigen.arnoldi.self_s": self_s["eigen.smallest_eigenvalue"],
        "eigen.late_steps.walk_steps": c["eig.late_steps"],
        "assumptions.check_I2.self_s": self_s["assumptions.check_I2"],
        "trace.wall_s": wall_s,
    }
    out = {k: v / n_calls for k, v in per_call.items()}
    out.update({
        "streams.johnk_beta.accept_ratio":
            ratio(c["johnk_beta.values"], c["johnk_beta.draws"]),
        "sampling.steps_per_s":
            ratio(c["point.steps"], incl["sampling.point_estimate"]),
        "geometry.ns_per_point": 1e9 * ratio(geo_s, c["geometry.points"]),
        "field.steps_per_s":
            ratio(c["field.steps"], incl["field.walk_starts"]),
        "field.steps_per_tuple": ratio(c["field.steps"], c["field.tuples"]),
        "mlmc.pilot_share": ratio(c["pilot.steps"], c["run.steps"]),
        "mlmc.used_over_planned":
            ratio(c["run.steps"], c["run.planned_steps"]),
        "assumptions.samples_per_s":
            ratio(c["check_I2.samples"], incl["assumptions.check_I2"]),
    })
    return {name: {"value": float(out[name]), "unit": unit}
            for name, unit in LAYER_METRICS}
