"""Outside-in tracer: times calls into the public functions of each mvt layer.

Nothing inside ``src/mvt`` is modified.  ``Tracer.install`` replaces every
module-level binding of a traced function in the loaded ``mvt`` modules,
because callers look functions up under their own names: ``solver`` and
``transport`` bind ``fm_norm``, ``advect``, ``interpolate`` and friends with
``from ... import``, so wrapping only the defining module records nothing.
``Tracer.uninstall`` puts every original back.

A span is recorded at each traced call: name, start, end, parent span and
round.  Spans stay in memory until ``write_spans``.  Self time of a span is
its duration minus the durations of its direct children, accumulated per
span name as the run goes.  Counters are read from call arguments and
results; a handful of hot inner functions are counted without a span, which
keeps the overhead of the traced run down.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

_MARK = "__perfbench_wrapper__"
_EUCLIDEAN = "euclidean"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rk4_steps(t_from: float, t_to: float, step_h: float) -> int:
    """Number of RK4 steps ``mvt.flow`` takes from t_from to t_to."""
    span = t_to - t_from
    if span == 0.0 or step_h <= 0.0:
        return 0
    n_full = int(abs(span) // step_h)
    remainder = span - (1.0 if span > 0 else -1.0) * step_h * n_full
    return n_full + (1 if abs(remainder) > 1e-14 * max(1.0, abs(span)) else 0)


def _mvt_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mvt" or name.startswith("mvt."))]


def installed_wrappers() -> list[str]:
    """Names of tracer wrappers currently bound anywhere in mvt."""
    found = []
    for mod in _mvt_modules():
        for key, val in vars(mod).items():
            if getattr(val, _MARK, False):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(val, type) and val.__module__.startswith("mvt"):
                for attr, member in vars(val).items():
                    if getattr(member, _MARK, False):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return sorted(set(found))


class Tracer:
    """Span recorder and counter set for one traced run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.round = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span id, name, start ns, child ns]
        self._next_id = 0
        self._distance_depth = 0
        # Span table as parallel arrays: a list of tuples costs ~10x more.
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_round = array("i")

    # -- span bookkeeping -------------------------------------------------

    def reset(self) -> None:
        """Clear times and counters (the span table is kept)."""
        self.self_ns.clear()
        self.total_ns.clear()
        self.counts.clear()

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        self.self_ns[name] += dur - child
        self.total_ns[name] += dur
        parent = 0
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        self.span_id.append(span_id)
        self.span_parent.append(parent)
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_round.append(self.round)

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; used by the benchmark for its own ops."""
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def write_spans(self, path) -> int:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,name,start_ns,end_ns,workload,round\n")
            names = self._names
            for k in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[k]},{self.span_parent[k]},{names[self.span_name[k]]},"
                    f"{self.span_start[k]},{self.span_end[k]},{self.workload},{self.span_round[k]}\n"
                )
        return len(self.span_id)

    # -- patching ---------------------------------------------------------

    def _bind_everywhere(self, original, wrapper) -> int:
        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = original
        hits = 0
        for mod in _mvt_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    hits += 1
        return hits

    def _bind_method(self, cls, attr: str, wrapper) -> None:
        original = cls.__dict__[attr]
        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = original
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def _spanned(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if before is not None:
                before(args, kwargs)
            tracer.enter(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        # mvt.cli imports every layer module, so all bindings exist below.
        from mvt import cli, flat_metric, flow, geometry, grids, measures
        from mvt import reactions, scenarios, solver, transport, velocity

        c = self.counts
        tracer = self

        def wrap(fn, name, before=None, after=None):
            if self._bind_everywhere(fn, self._spanned(name, fn, before, after)) == 0:
                raise RuntimeError(f"no binding found for {fn.__module__}.{fn.__name__}")

        def counting(fn, hook):
            def wrapper(*args, **kwargs):
                hook(args, kwargs)
                return fn(*args, **kwargs)
            return wrapper

        # flow: RK4 work as points x steps, read from the arguments.
        def advect_steps(key):
            def before(args, kwargs):
                pts = _arg(args, kwargs, 3, "points")
                n = len(pts)
                c[f"{key}.calls"] += 1
                c[f"{key}.point_steps"] += n * _rk4_steps(
                    float(_arg(args, kwargs, 1, "t_from")),
                    float(_arg(args, kwargs, 2, "t_to")),
                    float(_arg(args, kwargs, 4, "step_h")),
                )
            return before

        wrap(flow.advect, "flow.advect", advect_steps("flow.advect"))
        wrap(flow.advect_with_logjac, "flow.advect_with_logjac",
             advect_steps("flow.advect_with_logjac"))

        def lip_before(args, kwargs):
            c["flow.lipschitz_bound.calls"] += 1
        wrap(flow.lipschitz_bound, "flow.lipschitz_bound", lip_before)

        # velocity: field evaluations and certificate-rate evaluations.
        def field_hook(args, kwargs):
            c["velocity.field_calls"] += 1
        self._bind_method(velocity.VelocityField, "__call__",
                          counting(velocity.VelocityField.__call__, field_hook))

        def simpson_hook(args, kwargs):
            s, t = _arg(args, kwargs, 1, "s"), _arg(args, kwargs, 2, "t")
            panels = int(_arg(args, kwargs, 3, "panels", 128))
            if t != s:
                c["velocity.rate_calls"] += panels + (panels % 2) + 1
        self._bind_everywhere(flow.simpson_integral,
                              counting(flow.simpson_integral, simpson_hook))

        def sup_hook(args, kwargs):
            c["velocity.rate_calls"] += int(_arg(args, kwargs, 3, "samples", 1025))
        self._bind_method(velocity.VelocityField, "sup_bound",
                          counting(velocity.VelocityField.sup_bound, sup_hook))

        # transport and reactions.
        def push_before(args, kwargs):
            c["transport.pushforward_measure.calls"] += 1
            c["transport.pushforward_measure.atoms"] += _arg(args, kwargs, 3, "mu").num_atoms
        wrap(transport.pushforward_measure, "transport.pushforward_measure", push_before)

        def react_before(args, kwargs):
            c["reactions.eval_reaction.calls"] += 1
        wrap(reactions.eval_reaction, "reactions.eval_reaction", react_before)

        # measures: combination and coalescing (merge detection per call).
        def combine_before(args, kwargs):
            c["measures.linear_combine.calls"] += 1
        wrap(measures.linear_combine, "measures.linear_combine", combine_before)

        merged_flags: list[bool] = []

        def coalesce_fn(*args, **kwargs):
            mu = _arg(args, kwargs, 0, "mu")
            merged_flags.append(False)
            tracer.enter("measures.coalesce")
            try:
                out = coalesce_orig(*args, **kwargs)
            finally:
                tracer.exit()
                merged = merged_flags.pop()
            c["measures.coalesce.calls"] += 1
            c["measures.coalesce.atoms_in"] += mu.num_atoms
            c["measures.coalesce.atoms_out"] += out.num_atoms
            c["measures.coalesce.merging_calls"] += int(merged)
            return out

        coalesce_orig = measures.coalesce
        self._bind_everywhere(coalesce_orig, coalesce_fn)

        merge_orig = getattr(measures, "_merge_pass", None)
        if merge_orig is not None:
            def merge_fn(*args, **kwargs):
                out = merge_orig(*args, **kwargs)
                if merged_flags and out[2]:
                    merged_flags[-1] = True
                return out
            self._bind_everywhere(merge_orig, merge_fn)

        # flat metric: route by input, as fm_norm itself does.
        def fm_route(args, kwargs):
            mu = _arg(args, kwargs, 0, "mu")
            chain = mu.dim == 1 and mu.domain == _EUCLIDEAN
            return "flat_metric.chain1d" if chain else "flat_metric.lp"

        def fm_before(args, kwargs):
            route = fm_route(args, kwargs)
            n = _arg(args, kwargs, 0, "mu").num_atoms
            c[f"{route}.calls"] += 1
            c[f"{route}.atoms"] += n
            c[f"{route}.max_atoms"] = max(c[f"{route}.max_atoms"], n)
            if tracer._distance_depth:
                c["solver.picard_fm_calls"] += 1
        wrap(flat_metric.fm_norm, fm_route, fm_before)
        wrap(geometry.pairwise_distances, "geometry.pairwise_distances")

        # grids.
        def interp_before(args, kwargs):
            pts = _arg(args, kwargs, 1, "points")
            c["grids.interpolate.calls"] += 1
            c["grids.interpolate.points"] += len(pts)
        wrap(grids.interpolate, "grids.interpolate", interp_before)

        # solver: the maximal solve, step choice, and counted inner loops.
        def solve_after(args, kwargs, traj):
            c["solver.nodes"] += len(traj.times)
            c["solver.final_atoms"] += traj.final_measure.num_atoms
            c["solver.max_atoms"] = max(c["solver.max_atoms"],
                                        max(m.num_atoms for m in traj.measures))
        wrap(solver.solve_maximal, "solver", after=solve_after)
        wrap(solver.choose_step, "solver.choose_step")

        def interval_hook(args, kwargs):
            c["solver.intervals"] += 1
        self._bind_everywhere(solver.solve_interval,
                              counting(solver.solve_interval, interval_hook))

        sweep_orig = getattr(solver, "_sweep_measures", None)
        if sweep_orig is not None:
            def sweep_hook(args, kwargs):
                c["solver.picard_sweeps"] += 1
            self._bind_everywhere(sweep_orig, counting(sweep_orig, sweep_hook))

        distance_orig = getattr(solver, "_curve_distance", None)
        if distance_orig is not None:
            def distance_fn(*args, **kwargs):
                c["solver.node_sweeps"] += len(_arg(args, kwargs, 0, "new"))
                tracer._distance_depth += 1
                try:
                    return distance_orig(*args, **kwargs)
                finally:
                    tracer._distance_depth -= 1
            self._bind_everywhere(distance_orig, distance_fn)

        # scenarios and cli.
        wrap(scenarios.bundled_scenario, "scenarios")
        wrap(scenarios.parse_scenario, "scenarios")
        wrap(cli.run_simulate, "cli.simulate")
        wrap(cli.run_metric, "cli.metric")

        for fn in (merge_orig, sweep_orig, distance_orig):
            if fn is None:
                print("perfbench: a private solver/measures hook is gone; "
                      "some counters will read 0", file=sys.stderr)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- reporting --------------------------------------------------------

    def span_names(self) -> list[str]:
        return sorted(self.self_ns)
