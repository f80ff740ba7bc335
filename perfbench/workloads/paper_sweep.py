"""paper-sweep: the paper's tables on the trial pool, one closed-loop caller.

A round is one sweep of every table ``repro report`` builds, at the
trial counts it uses, on the supervised pool at ``workers = nproc`` with
the cache off.  An operation is one table row.  Rows come from
the table module's calls to ``measure``/``run_trials``; wrapping those
two attributes times each row without touching the program.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, List

import common
import inputs
import quantile
from spans import Patches, Tracer

WORKLOAD = "paper-sweep"

SETUP_CODE = (
    "import os\n"
    "from repro.apps import get_app\n"
    "from repro.harness import tables, run_trials\n"
    "run_trials(get_app('figure4'), n=4, bug='error1', workers=os.cpu_count())\n"
    "print('ready', flush=True)\n"
)


def _tables():
    from repro.harness import tables

    return {
        "table1": tables.build_table1,
        "table2": tables.build_table2,
        "section5": tables.build_section5,
        "section62": tables.build_section62,
        "section63": tables.build_section63,
    }


def _row_doc(row: Any) -> Dict[str, Any]:
    return json.loads(json.dumps(dataclasses.asdict(row)))


def sweep(base_seed: int, workers: int) -> Dict[str, List[Dict[str, Any]]]:
    """One reference sweep (used by ``make_expected.py`` with workers=0)."""
    return {
        name: [_row_doc(r) for r in _tables()[name](n=n, base_seed=base_seed, workers=workers)]
        for name, n in inputs.PAPER_TABLES
    }


def _probe(tracer: Tracer) -> Patches:
    """Row and sweep spans on the harness layer's public functions."""
    from repro.harness import runner, tables

    patches = Patches()
    patches.wrap(tracer, tables, "measure", "harness.row")
    patches.wrap(tracer, tables, "run_trials", "harness.row", on_result=_stats_attrs)
    patches.wrap(tracer, runner, "run_trials", "harness.sweep", on_result=_stats_attrs)
    return patches


def _stats_attrs(span, stats, args, kwargs) -> None:
    span.attrs["trials"] = stats.trials
    span.attrs["failures"] = len(stats.failures)


class PaperSweep:
    #: Seconds per round on the 2-CPU reference box (one sweep of the five tables).
    ROUND_S = 6.5

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.workers = os.cpu_count() or 1
        self.expected = common.load_expected()[WORKLOAD]
        self.base_seeds = inputs.paper_sweeps(seed, len(inputs.PAPER_BASE_SEEDS))

    def setup_probe(self) -> List[float]:
        return common.probe_ready(SETUP_CODE)

    def prepare(self) -> None:
        _tables()

    def run_round(self, index: int, tracer: Tracer) -> List[common.Op]:
        base_seed = self.base_seeds[index % len(self.base_seeds)]
        tables = _tables()
        ops: List[common.Op] = []
        with _probe(tracer):
            for name, n in inputs.PAPER_TABLES:
                with tracer.span(f"harness.table.{name}") as table_span:
                    rows = tables[name](n=n, base_seed=base_seed, workers=self.workers)
                row_spans = [s for s in tracer.spans
                             if s.name == "harness.row" and s.parent == table_span.id]
                row_spans.sort(key=lambda s: s.start)
                sweeps = [s for s in tracer.spans if s.name == "harness.sweep"]
                want = self.expected[str(base_seed)][name]
                if len(rows) != len(want) or len(row_spans) != len(rows):
                    raise common.BenchError(
                        f"{name}: {len(rows)} rows, {len(row_spans)} row calls, "
                        f"{len(want)} expected")
                for i, (row, span) in enumerate(zip(rows, row_spans)):
                    trials = span.attrs.get("trials", 0) + sum(
                        s.attrs["trials"] for s in sweeps if s.parent == span.id)
                    doc = _row_doc(row)
                    ops.append(common.Op(
                        label=f"{name}[{i}]@{base_seed}", kind=f"{name}[{i}]",
                        latency=span.duration, ok=doc == want[i], output=doc, trials=trials))
        return ops

    def layer_metrics(self, tracer: Tracer, rounds: int) -> Dict[str, float]:
        rows = tracer.named("harness.row")
        sweeps = tracer.named("harness.sweep")
        out = {"harness.row_s": quantile.median([s.duration for s in rows])}
        for name, _ in inputs.PAPER_TABLES:
            out[f"harness.table_s.{name}"] = quantile.median(
                [s.duration for s in tracer.named(f"harness.table.{name}")])
        counted = rows + sweeps
        out["harness.trials"] = sum(s.attrs.get("trials", 0) for s in counted) / rounds
        out["harness.trials_failed"] = sum(s.attrs.get("failures", 0) for s in counted)
        return out
