"""Shared plumbing: paths, subprocess probes, op records and summaries."""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import quantile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
#: Scratch space inside the checkout (caches, port files, span dumps).
WORK = ROOT / ".perfbench"
EXPECTED = BENCH / "expected.json"

#: Cold starts measured per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Fewest operations a pass measures, however short ``--seconds`` is:
#: the tail percentile needs ten samples beyond it and ten below.
MIN_OPS = 20

#: Fixed per-operation latency limit of each workload (``slo_met_ratio``).
#: Each is about three times the slowest operation kind measured on an
#: idle 2-CPU box, so the ratio reads 1 unless something regresses badly.
LATENCY_LIMIT_S = {
    "paper-sweep": 2.0,
    "search": 5.0,
    "cli-cold": 3.0,
    "fleet": 1.0,
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed setup)."""


def check_program() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_CACHE_DIR", None)
    return env


def run_child(argv: Sequence[str], timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run one program subprocess to completion from the checkout root."""
    return subprocess.run(
        list(argv), cwd=ROOT, env=child_env(), text=True,
        capture_output=True, timeout=timeout,
    )


def probe_ready(code: str, times: int = SETUP_PROBES) -> List[float]:
    """Wall seconds from spawning ``python -c code`` until it prints
    ``ready``, for ``times`` fresh interpreters one after another."""
    out = []
    for _ in range(times):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"setup probe failed (rc={proc.returncode}): {err[-2000:]}")
        out.append(elapsed)
    return out


def peak_rss_mb(children_only: bool = False) -> float:
    """Largest peak RSS (MB) of this process or any waited-for descendant."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children_only:
        return kids / 1024.0
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, kids) / 1024.0


@dataclasses.dataclass
class Op:
    """One timed operation and its verdict."""

    label: str
    latency: float
    ok: bool
    #: The operation regardless of its seeded inputs (a table row, an
    #: app's inference, a command); closed-loop rounds hold each kind
    #: equally often.  Empty means the label.
    kind: str = ""
    #: Comparable output (traced pass must equal untraced pass).
    output: Any = None
    trials: int = 0
    detail: str = ""


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


@dataclasses.dataclass
class Round:
    """The operations of one round and its wall time."""

    ops: List[Op]
    wall: float


def flatten(rounds: List[Round]) -> List[Op]:
    return [op for r in rounds for op in r.ops]


def _summary(workload: str, ops: List[Op], latencies: List[float], setup: List[float],
             rss_mb: float, seconds: float) -> Dict[str, float]:
    """The end-to-end metrics; the median and the tail are taken over
    ``latencies``, the rest over ``ops``."""
    limit = LATENCY_LIMIT_S[workload]
    tail = quantile.tail(latencies)
    if tail is None:
        raise BenchError(f"{len(latencies)} operations: too few for a tail percentile")
    pct, tail_value, beyond = tail
    print(f"# op_tail_s is p{pct:g} of {len(latencies)} operation latencies "
          f"({beyond} beyond it)")
    return {
        "setup_s": quantile.median(setup),
        "ops_per_s": sum(op.ok for op in ops) / seconds,
        "op_p50_s": quantile.median(latencies),
        "op_tail_s": tail_value,
        "peak_rss_mb": rss_mb,
        "trials_per_s": sum(op.trials for op in ops) / seconds,
        "slo_met_ratio": sum(1 for op in ops if op.ok and op.latency <= limit) / len(ops),
    }


def typical_latencies(ops: List[Op]) -> List[float]:
    """Every operation's latency replaced by the median latency of its
    kind in ``ops``.

    One operation slowed by a neighbour on the machine then moves
    neither the median nor the tail taken over these, which hold each
    kind as often as ``ops`` do.
    """
    kinds: Dict[str, List[float]] = {}
    for op in ops:
        kinds.setdefault(op.kind or op.label, []).append(op.latency)
    return [quantile.median(lat) for lat in kinds.values() for _ in lat]


def median_round(rounds: List[Round]) -> Tuple[float, List[float]]:
    """``(seconds, latencies)`` of a closed-loop pass's *median round*:
    every operation kind at the median of its latencies in the pass,
    once for each time the pass ran it.

    Every round holds each kind equally often, so one operation slowed
    by a neighbour moves neither the round's time nor its latencies,
    where a rate over whole rounds, or a percentile over every
    operation, would carry that operation's delay in full.
    """
    typical = typical_latencies(flatten(rounds))
    return sum(typical) / len(rounds), typical


def summarize_closed(workload: str, rounds: List[Round], setup: List[float],
                     rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced closed-loop pass: rates,
    the median and the tail of the median round."""
    seconds, typical = median_round(rounds)
    return _summary(workload, flatten(rounds), typical, setup, rss_mb, seconds * len(rounds))


def summarize_open(workload: str, ops: List[Op], wall: float, setup: List[float],
                   rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of one open-loop pass of ``wall`` seconds:
    rates over the whole pass, the median and the tail over the
    :func:`typical_latencies` of its operations."""
    return _summary(workload, ops, typical_latencies(ops), setup, rss_mb, wall)


def round_count(seconds: float, round_s: float) -> int:
    """Rounds that fill ``seconds`` at ``round_s`` seconds each on the
    2-CPU reference box.  A fixed count (rather than "until the clock
    runs out") gives every run of a workload the same work and the same
    number of samples, so the tail percentile the rule picks does not
    change with the machine's speed."""
    return max(1, round(seconds / round_s))


def closed_loop(run_round: Callable[[int], List[Op]], rounds: int) -> List[Round]:
    """Run ``rounds`` whole rounds back to back, and more while fewer
    than :data:`MIN_OPS` operations are done."""
    out: List[Round] = []
    while len(out) < rounds or sum(len(r.ops) for r in out) < MIN_OPS:
        start = time.perf_counter()
        ops = run_round(len(out))
        out.append(Round(ops, time.perf_counter() - start))
    return out


def trace_overhead(untraced: List[Op], traced: List[Op]) -> float:
    """Traced wall time over untraced wall time, summed over the same ops."""
    return sum(op.latency for op in traced) / sum(op.latency for op in untraced)


def same_outputs(untraced: List[Op], traced: List[Op]) -> List[str]:
    """Labels of operations whose traced output differs from the untraced one."""
    if len(untraced) != len(traced):
        return [f"op count {len(untraced)} != {len(traced)}"]
    return [a.label for a, b in zip(untraced, traced)
            if a.label != b.label or a.output != b.output]
