"""search: schedule exploration and cold inference, serial, one caller.

A round is every exploration in :func:`inputs.search_ops` plus a cold
``infer_app`` of every registry app, in a seeded order.  The kernel runs
here under the DFS replay scheduler (explorations) and the seeded random
scheduler (inference sweeps).  Explorations run in the default stateless
mode; the fork snapshot pool is not exercised.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

import common
import inputs
from spans import Patches, Span, Tracer, self_times

WORKLOAD = "search"

SETUP_CODE = (
    "from repro.harness import explore_app\n"
    "from repro.infer import infer_app\n"
    "from repro.apps.large import EXPLORE_PARAMS\n"
    "from repro.sim import Bound\n"
    "explore_app('figure4', 'error1')\n"
    "print('ready', flush=True)\n"
)

MODES = ("dpor_sleep", "bounded", "dpor", "exhaustive")


def explore_label(label: str):
    """Run one exploration of :func:`inputs.search_ops` by its label."""
    from repro.apps.large import EXPLORE_PARAMS
    from repro.harness import explore_app
    from repro.sim import Bound

    target, mode = label.split("/")
    if mode == "dpor_sleep":
        return explore_app(target, "lost_update", dpor=True, sleep_sets=True)
    if mode == "bounded":
        return explore_app(target, dpor=True, bound=Bound(preemptions=inputs.LARGE_BOUNDS[target]),
                           max_schedules=inputs.CLI_DEFAULT_CAP, params=EXPLORE_PARAMS[target])
    if mode == "dpor":
        return explore_app(target, dpor=True, max_schedules=inputs.LARGE_UNBOUNDED_CAP,
                           params=EXPLORE_PARAMS[target])
    app, bug = target.split(":")
    return explore_app(app, bug, max_schedules=inputs.CLI_DEFAULT_CAP)


def explore_doc(res) -> Dict[str, Any]:
    """The checked reduction of an exploration."""
    ex = res.exploration
    return {
        "schedules": ex.count,
        "complete": ex.complete,
        "hits": res.hits,
        "cuts": ex.preemption_cuts + ex.variable_cuts,
        "dpor": None if res.dpor_stats is None else dataclasses.asdict(res.dpor_stats),
    }


def infer_key(app: str, trace_seed: int, base_seed: int) -> str:
    return f"{app}|{trace_seed}|{base_seed}"


def infer_doc(report) -> Dict[str, Any]:
    """The checked reduction of an inference: its confirmed bug set."""
    return {"confirmed": sorted(report.confirmed_bugs)}


def infer_trials(report) -> int:
    """Seeded trials an inference ran: one baseline sweep plus every
    resolution order tried per distinct matched bug."""
    orders = {r.match.bug: r.orders_tried for r in report.results if r.match is not None}
    return report.trials * (1 + sum(orders.values()))


def run_op(op: Tuple[Any, ...]):
    """Execute one search operation; returns ``(label, result)``."""
    if op[0] == "explore":
        return op[1], explore_label(op[1])
    from repro.infer import infer_app

    _, app, trace_seed, base_seed = op
    return infer_key(app, trace_seed, base_seed), infer_app(
        app, seed=trace_seed, base_seed=base_seed)


def _kernel_attrs(span: Span, result, args, kwargs) -> None:
    span.attrs["steps"] = result.steps
    for key in ("postpones", "hits", "timeouts"):
        span.attrs[key] = sum(getattr(st, key) for st in result.breakpoint_stats.values())


def _app_attrs(span: Span, result, args, kwargs) -> None:
    span.attrs["record_trace"] = bool(kwargs.get("record_trace"))


def _analysis_attrs(span: Span, analysis, args, kwargs) -> None:
    span.attrs["findings"] = analysis.total_findings
    span.attrs["unique"] = len(analysis.unique_findings())


class Search:
    #: Seconds per round on the 2-CPU reference box (every exploration plus 25 inferences).
    ROUND_S = 5.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.expected = common.load_expected()[WORKLOAD]

    def setup_probe(self) -> List[float]:
        return common.probe_ready(SETUP_CODE)

    def prepare(self) -> None:
        explore_label("figure4:error1/exhaustive")

    def instrument(self, tracer: Tracer) -> Patches:
        from repro.apps.base import BaseApp
        from repro.infer import pipeline
        from repro.sim.kernel import Kernel

        patches = Patches()
        patches.wrap(tracer, Kernel, "run", "sim.kernel.run", on_result=_kernel_attrs)
        patches.wrap(tracer, BaseApp, "run", "apps.run", on_result=_app_attrs)
        patches.wrap(tracer, pipeline, "analyze", "detect.analyze", on_result=_analysis_attrs)
        patches.wrap(tracer, pipeline, "confirm_bug", "infer.confirm")
        return patches

    def run_round(self, index: int, tracer: Tracer) -> List[common.Op]:
        ops: List[common.Op] = []
        for op in inputs.search_round(self.seed, index):
            kind = op[0]
            span_name = (f"sim.explore.walk.{op[1].split('/')[1]}" if kind == "explore"
                         else "infer.app")
            with tracer.span(span_name) as sp:
                label, res = run_op(op)
            if kind == "explore":
                doc = explore_doc(res)
                want = self.expected["explore"][label]
                trials = 0
            else:
                doc = infer_doc(res)
                want = self.expected["infer"][label]
                trials = infer_trials(res)
                sp.attrs["candidates"] = len(res.results)
                sp.attrs["confirmed"] = len(res.confirmed)
            sp.attrs["doc"] = doc
            ops.append(common.Op(label=label, kind=op[1], latency=sp.duration,
                                 ok=doc == want, output=doc, trials=trials))
        return ops

    def layer_metrics(self, tracer: Tracer, rounds: int) -> Dict[str, float]:
        spans = tracer.spans
        by_id = {s.id: s for s in spans}
        selfs = self_times(spans)

        def ancestor(span: Span, prefix: str) -> Optional[Span]:
            while span.parent is not None:
                span = by_id[span.parent]
                if span.name.startswith(prefix):
                    return span
            return None

        kernel = tracer.named("sim.kernel.run")
        apps = tracer.named("apps.run")
        walks = [s for s in spans if s.name.startswith("sim.explore.walk.")]
        infers = tracer.named("infer.app")
        analyses = tracer.named("detect.analyze")
        run_s = sum(s.duration for s in kernel)
        steps = sum(s.attrs["steps"] for s in kernel)
        out: Dict[str, float] = {
            "sim.kernel.run_s": run_s / rounds,
            "sim.kernel.steps": steps / rounds,
            "sim.kernel.steps_per_s": steps / run_s,
            "apps.setup_s": sum(selfs[s.id] for s in apps) / len(apps),
        }
        for key in ("postpones", "hits", "timeouts"):
            out[f"core.engine.{key}"] = sum(s.attrs[key] for s in kernel) / rounds
        for mode in MODES:
            mine = [s.duration for s in walks if s.name.endswith("." + mode)]
            out[f"sim.explore.walk_s.{mode}"] = sum(mine) / len(mine)

        docs = [s.attrs["doc"] for s in walks]
        schedules = sum(d["schedules"] for d in docs)
        walk_steps = sum(s.attrs["steps"] for s in kernel if ancestor(s, "sim.explore.walk."))
        dpor = [d["dpor"] for d in docs if d["dpor"] is not None]
        sleep = [d for d in dpor if d["sleep_set_prunes"]]
        out.update({
            "sim.explore.schedules": schedules / rounds,
            "sim.explore.executed_steps": walk_steps / rounds,
            "sim.explore.steps_per_schedule": walk_steps / schedules,
            "sim.explore.prune_ratio": (
                sum(d["schedules"] for d in sleep)
                / sum(d["schedules"] + d["sleep_set_prunes"] for d in sleep)),
            "sim.explore.conservative_fallbacks":
                sum(d["conservative_fallbacks"] for d in dpor) / rounds,
            "sim.explore.cuts": sum(d["cuts"] for d in docs) / rounds,
            "sim.explore.hits": sum(d["hits"] for d in docs) / rounds,
            "sim.explore.schedules_per_s": schedules / sum(s.duration for s in walks),
        })

        trace_runs = [s for s in apps if s.attrs["record_trace"] and ancestor(s, "infer.app")]
        candidates = sum(s.attrs["candidates"] for s in infers)
        confirmed = sum(s.attrs["confirmed"] for s in infers)
        out.update({
            "detect.analyze_s": sum(s.duration for s in analyses) / rounds,
            "detect.findings": sum(s.attrs["findings"] for s in analyses) / rounds,
            "detect.unique_findings": sum(s.attrs["unique"] for s in analyses) / rounds,
            "infer.trace_run_s": sum(s.duration for s in trace_runs) / rounds,
            "infer.confirm_s": sum(s.duration for s in tracer.named("infer.confirm")) / rounds,
            "infer.candidates": candidates / rounds,
            "infer.confirmed": confirmed / rounds,
            "infer.confirm_ratio": confirmed / candidates,
        })
        return out
