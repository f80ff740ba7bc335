"""The repository's end-to-end benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no tracing beyond the operation boundaries.  ``--trace 1`` reports the
per-layer metrics instead.  On search, the one workload whose layers
are wrapped, it runs the same inputs twice, untraced then wrapped,
asserts both passes produce the same outputs and reports the wrappers'
cost as ``obs.trace_overhead``; elsewhere the traced pass is the
untraced pass, so ``obs.trace_overhead`` reads 1 by construction.
Every operation's output is checked; a wrong output counts as a failed
operation.  The last line of standard output is the JSON result; ``#``
lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("paper-sweep", "search", "cli-cold", "fleet")


def _spec() -> Dict[str, Any]:
    path = common.ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise common.BenchError(f"{path} not found")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _workload(name: str, seed: int):
    if name == "paper-sweep":
        from workloads.paper_sweep import PaperSweep
        return PaperSweep(seed)
    if name == "search":
        from workloads.search import Search
        return Search(seed)
    if name == "cli-cold":
        from workloads.cli_cold import CliCold
        return CliCold(seed)
    from workloads.fleet import FleetWorkload
    return FleetWorkload(seed)


def _write_spans(tracer: Tracer, name: str, seed: int) -> None:
    out = common.WORK / "spans"
    out.mkdir(parents=True, exist_ok=True)
    tracer.write(out / f"{name}-seed{seed}.jsonl")


def run_closed(name: str, seed: int, seconds: float, trace: bool):
    """paper-sweep, search and cli-cold: whole rounds, one caller.

    A closed-loop workload times its cold starts (``setup_probe``),
    warms up in process (``prepare``), runs round ``i`` of its seeded
    inputs (``run_round``; ``ROUND_S`` is a round's length on the
    reference box) and reduces the spans of a traced pass
    (``layer_metrics``).  Only a workload with layer wrappers to install
    (``instrument``) runs a second, wrapped pass in a traced run.
    """
    wl = _workload(name, seed)
    setup = wl.setup_probe()
    wl.prepare()
    if trace and hasattr(wl, "instrument"):
        return run_wrapped(wl, name, seed, seconds)
    tracer = Tracer()
    # An untraced run keeps no spans beyond the round it is in.
    rounds = common.closed_loop(lambda i: wl.run_round(i, tracer if trace else Tracer()),
                                common.round_count(seconds, wl.ROUND_S))
    ops = common.flatten(rounds)
    print(f"# {len(rounds)} rounds, {len(ops)} operations in "
          f"{sum(r.wall for r in rounds):.2f}s")
    if not trace:
        return ops, [], common.summarize_closed(name, rounds, setup, common.peak_rss_mb())
    _write_spans(tracer, name, seed)
    metrics = wl.layer_metrics(tracer, len(rounds))
    # Nothing is wrapped beyond the spans every pass records.
    metrics["obs.trace_overhead"] = 1.0
    return ops, [], metrics


def run_wrapped(wl, name: str, seed: int, seconds: float):
    """The traced run of a workload with layer wrappers: the same rounds
    untraced for half of ``seconds``, then wrapped; the outputs of the
    two passes must be equal."""
    plain = common.closed_loop(lambda i: wl.run_round(i, Tracer()),
                               common.round_count(seconds / 2, wl.ROUND_S))
    tracer = Tracer()
    with wl.instrument(tracer):
        traced = common.closed_loop(lambda i: wl.run_round(i, tracer), len(plain))
    plain_ops, traced_ops = common.flatten(plain), common.flatten(traced)
    _write_spans(tracer, name, seed)
    metrics = wl.layer_metrics(tracer, len(plain))
    metrics["obs.trace_overhead"] = common.trace_overhead(plain_ops, traced_ops)
    return plain_ops + traced_ops, common.same_outputs(plain_ops, traced_ops), metrics


def run_fleet(seed: int, seconds: float, trace: bool):
    """fleet: open loop over a freshly started router and two shards.

    The fleet has no wrappers to install: the per-layer metrics come
    from the same pass, its job records and the shards' ``/metrics``.
    """
    from workloads.fleet import RATE

    wl = _workload("fleet", seed)
    tracer = Tracer()
    try:
        setup = wl.setup_probe()
        wl.warm_up()
        requests = wl.run_pass(wl.schedule(seconds), tracer)
        metrics = wl.layer_metrics(requests, wl.fleet.shard_metrics()) if trace else {}
    finally:
        wl.fleet.stop()
    ops = wl.check(requests)
    lag = [r.lag for r in requests]
    print(f"# {len(requests)} jobs offered at {RATE:g}/s; "
          f"generator lag max {max(lag) * 1000:.1f} ms")
    if trace:
        _write_spans(tracer, "fleet", seed)
        metrics["obs.trace_overhead"] = 1.0
        return ops, [], metrics
    wall = max(r.done for r in requests) - min(r.due for r in requests)
    rss = common.peak_rss_mb(children_only=True)
    return ops, [], common.summarize_open("fleet", ops, wall, setup, rss)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop the fleet.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = _spec()
        common.check_program()
        common.WORK.mkdir(exist_ok=True)
        print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()}")
        if args.workload == "fleet":
            ops, mismatched, values = run_fleet(args.seed, args.seconds, bool(args.trace))
        else:
            ops, mismatched, values = run_closed(args.workload, args.seed, args.seconds,
                                                 bool(args.trace))
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        print(f"perfbench: undeclared metrics {sorted(unknown)}", file=sys.stderr)
        return 2
    # A layer this workload never reaches reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}

    failed = [op for op in ops if not op.ok]
    for op in failed[:10]:
        print(f"# FAILED {op.label}: {op.detail or 'output differs from expected'}",
              file=sys.stderr)
    for label in mismatched[:10]:
        print(f"# traced output differs from untraced: {label}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed and not mismatched,
        "attempted": len(ops),
        "failed": len(failed) + len(mismatched),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
