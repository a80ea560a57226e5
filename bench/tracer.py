"""In-memory span tracer for one `bonnet` command, and its per-layer summary.

Run as a child process in place of `python -m bonnet`:

    python3 bench/tracer.py TRACE.npz <bonnet arguments...>

Before the command runs, every public function of the six bonnet modules
(plus the few class methods listed in METHODS) is wrapped, and the wrapper
is patched under every name that any bonnet module bound to the original,
so `eval_q` imported into `bonnet_solver` is traced as well.  Each call
records a span (name, start, end, parent) in memory; the spans are written
to TRACE.npz when the command ends.  Nothing under `src/` is changed.

`summarize` turns the trace files of one workload pass into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

MODULES = ("q_family", "lax_psi", "bonnet_solver", "surface_embed", "forms2d", "cli")

# layer boundaries that are methods rather than module-level functions
METHODS = {
    "q_family": (("SingularityGuard", "check"),),
    "forms2d": (("ScalarField", "__post_init__"),),
    "cli": (("PipelineData", "__init__"),),
}


def _shape_of(obj):
    """Grid shape of a profile, psi field, coframe set or frame argument."""
    if hasattr(obj, "grid"):
        return list(obj.grid.shape)
    if hasattr(obj, "psi"):
        return list(obj.psi.grid.shape)
    return [int(obj.s.size)]


def _frame_key(a):
    grid = a.get("grid") or a["psi"].psi.grid
    return ["base", list(grid.shape), a.get("order", "t_first")]


def _deformed_key(a):
    grid = a.get("grid") or a["psi"].psi.grid
    return ["deformed", list(grid.shape), a.get("order", "t_first"), a["dp"].t0]


# attributes recorded on a span, from the call's bound arguments
# (before the call) or its result (after it)
ATTRS_BEFORE = {
    "surface_embed.integrate_frame": _frame_key,
    "surface_embed.build_deformed_surface": _deformed_key,
    "surface_embed.structure_residuals": lambda a: _shape_of(a["cf"]),
    "surface_embed.codazzi_summary_residuals": lambda a: _shape_of(a["cf"]),
    "surface_embed.theta12_report": lambda a: _shape_of(a["cf"]),
    "bonnet_solver.ideal_residuals": lambda a: _shape_of(a["profile"]),
}
ATTRS_AFTER = {
    "surface_embed.export_obj": lambda a: os.path.getsize(a["path"]),
}


def _bind(sig, args, kwargs):
    try:
        return sig.bind(*args, **kwargs).arguments
    except TypeError:   # the call itself will raise it
        return None


def _attr(fn, bound):
    """An attribute of a span; None where the signature no longer fits."""
    try:
        return fn(bound)
    except (KeyError, AttributeError, OSError):
        return None


class Recorder:
    """Spans of one process, in call order (a parent precedes its children)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.attrs: dict[int, object] = {}
        self.stack = [-1]

    def wrap(self, fn, name: str):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        before, after = ATTRS_BEFORE.get(name), ATTRS_AFTER.get(name)
        sig = inspect.signature(fn) if (before or after) else None
        clock, stack = time.perf_counter, self.stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            bound = _bind(sig, args, kwargs) if sig is not None else None
            if before and bound is not None:
                self.attrs[idx] = _attr(before, bound)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if after and bound is not None:
                    self.attrs[idx] = _attr(after, bound)

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"bonnet.{m}") for m in MODULES}
        every = [importlib.import_module("bonnet")] + list(mods.values())
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                traced = self.wrap(obj, f"{short}.{attr}")
                for other in every:
                    for key, val in list(vars(other).items()):
                        if val is obj:
                            setattr(other, key, traced)
            for cls_name, meth in METHODS.get(short, ()):
                cls = getattr(mod, cls_name, None)
                if cls is not None and hasattr(cls, meth):
                    setattr(cls, meth, self.wrap(getattr(cls, meth), f"{short}.{cls_name}.{meth}"))

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            attrs=np.array(json.dumps({str(k): v for k, v in self.attrs.items()})),
        )


def child_main(argv) -> int:
    trace_path, bonnet_args = argv[0], argv[1:]
    rec = Recorder()
    rec.install()
    from bonnet import cli

    try:
        return cli.main(bonnet_args)
    finally:
        rec.save(trace_path)


# ---------------------------------------------------------------------------
# summary (runs in the benchmark process)

Q_EVALUATORS = {
    "q_family.eval_q", "q_family.eval_q_derivatives", "q_family.eval_dlog_q",
    "q_family.eval_c", "q_family.eval_c_prime",
}
FRAME_MARCHES = {"surface_embed.integrate_frame", "surface_embed.build_deformed_surface"}
SE_BATTERIES = {
    "surface_embed.structure_residuals",
    "surface_embed.codazzi_summary_residuals",
    "surface_embed.theta12_report",
}
BATTERIES = SE_BATTERIES | {"bonnet_solver.ideal_residuals"}
CLOSED_FORM = {"lax_psi.psi_closed_form", "lax_psi.psi_closed_form_derivatives"}


def _residual_fns(names, module):
    return {n for n in names if n.startswith(module + ".") and "residual" in n}


class Trace:
    """One command's spans with durations, self times and ancestry."""

    def __init__(self, path):
        with np.load(path, allow_pickle=False) as z:
            self.names = [str(n) for n in z["names"]]
            self.name = z["name"]
            self.parent = z["parent"]
            dur = z["end"] - z["start"]
            self.attrs = {int(k): v for k, v in json.loads(str(z["attrs"])).items()}
        self.dur = dur
        child = np.zeros_like(dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], dur[has_parent])
        self.self_time = dur - child

    def ids(self, names) -> np.ndarray:
        wanted = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.name, wanted)

    def count(self, names) -> int:
        return int(np.count_nonzero(self.ids(names)))

    def inclusive(self, names) -> float:
        """Time inside any of `names`, counting nested calls once."""
        hit = self.ids(names)
        covered = np.zeros(len(hit), dtype=bool)  # an ancestor is in `names`
        anc = self.parent.copy()
        while np.any(anc >= 0):
            up = anc >= 0
            covered[up] |= hit[anc[up]]
            anc[up] = self.parent[anc[up]]
        return float(np.sum(self.dur[hit & ~covered]))

    def module_self(self, module: str) -> float:
        prefix = module + "."
        mask = self.ids({n for n in self.names if n.startswith(prefix)})
        return float(np.sum(self.self_time[mask]))

    def attr_values(self, names) -> list:
        return [self.attrs[int(i)] for i in np.flatnonzero(self.ids(names))
                if self.attrs.get(int(i)) is not None]

    def edges(self) -> set:
        """(callee, caller) name pairs; the root's caller is ""."""
        caller = np.where(self.parent >= 0, self.name[self.parent], -1)
        pairs = set(zip(self.name.tolist(), caller.tolist()))
        return {(self.names[c], self.names[p] if p >= 0 else "") for c, p in pairs}


def summarize(paths) -> tuple[dict, set]:
    """Per-layer metrics summed over one pass, and the pass's span edges."""
    traces = [Trace(p) for p in paths]
    names = set().union(*(t.names for t in traces))

    def total(fn):
        return sum(fn(t) for t in traces)

    marches = total(lambda t: t.count(FRAME_MARCHES))
    distinct_marches = total(lambda t: len({json.dumps(k) for k in t.attr_values(FRAME_MARCHES)}))
    frame_s = total(lambda t: t.inclusive(FRAME_MARCHES))
    nodes = total(lambda t: sum(k[1][0] * k[1][1] for k in t.attr_values(FRAME_MARCHES)))
    battery_evals = total(lambda t: t.count(BATTERIES))
    distinct_batteries = total(lambda t: len({
        (int(t.name[i]), json.dumps(t.attrs.get(int(i)))) for i in np.flatnonzero(t.ids(BATTERIES))
    }))

    metrics = {
        "q_family.eval_calls": total(lambda t: t.count(Q_EVALUATORS)),
        "q_family.guard_checks": total(lambda t: t.count({"q_family.SingularityGuard.check"})),
        "q_family.self_s": total(lambda t: t.module_self("q_family")),
        "bonnet_solver.h_march_calls": total(lambda t: t.count({"bonnet_solver.integrate_h"})),
        "bonnet_solver.rhs_evals": total(lambda t: t.count({"bonnet_solver.h_third_derivative"})),
        "bonnet_solver.h_march_s": total(lambda t: t.inclusive({"bonnet_solver.integrate_h"})),
        "bonnet_solver.residual_s": total(
            lambda t: t.inclusive(_residual_fns(names, "bonnet_solver"))),
        "lax_psi.march_s": total(lambda t: t.inclusive({"lax_psi.integrate_lax"})),
        "lax_psi.closed_form_s": total(lambda t: t.inclusive(CLOSED_FORM)),
        "lax_psi.residual_s": total(lambda t: t.inclusive(_residual_fns(names, "lax_psi"))),
        "surface_embed.coframe_builds": total(
            lambda t: t.count({"surface_embed.build_coframes"})),
        "surface_embed.frame_marches": marches,
        "surface_embed.frame_s": frame_s,
        "surface_embed.frame_us_per_node": 1e6 * frame_s / nodes if nodes else 0.0,
        "surface_embed.frame_useful_ratio": distinct_marches / marches if marches else 1.0,
        "surface_embed.tau_marches": total(
            lambda t: t.count({"surface_embed.integrate_deformation"})),
        "surface_embed.tau_s": total(
            lambda t: t.inclusive({"surface_embed.integrate_deformation"})),
        "surface_embed.deformed_frames": total(
            lambda t: t.count({"surface_embed.build_deformed_surface"})),
        "surface_embed.deformed_frame_s": total(
            lambda t: t.inclusive({"surface_embed.build_deformed_surface"})),
        "surface_embed.battery_evals": total(lambda t: t.count(SE_BATTERIES)),
        "surface_embed.battery_s": total(lambda t: t.inclusive(SE_BATTERIES)),
        "cli.battery_useful_ratio": (
            distinct_batteries / battery_evals if battery_evals else 1.0),
        "cli.pipeline_builds": total(lambda t: t.count({"cli.PipelineData.__init__"})),
        "forms2d.calculus_s": total(lambda t: t.module_self("forms2d")),
        "forms2d.field_allocs": total(
            lambda t: t.count({"forms2d.ScalarField.__post_init__"})),
        "forms2d.order_fits": total(lambda t: t.count({"forms2d.observed_order"})),
        "surface_embed.export_s": total(lambda t: t.inclusive({"surface_embed.export_obj"})),
        "surface_embed.export_bytes": total(
            lambda t: sum(t.attr_values({"surface_embed.export_obj"}))),
        "cli.self_s": total(lambda t: t.module_self("cli")),
    }
    edges = set().union(*(t.edges() for t in traces))
    return metrics, edges


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
