"""fleet: open-loop jobs through a router over two cache-backed shards.

Setup starts ``repro route`` over two ``repro serve --slots 1`` shards,
each a subprocess with an empty cache; each shard then runs the warm-up
jobs of :func:`inputs.fleet_warmup` untimed.  One benchmark process sends the
seeded schedule of :func:`inputs.fleet_schedule` at a fixed offered rate
below saturation, using two threads and two keep-alive connections (one
sends, one polls for completions).  Every job result is checked against
the direct library call for the same spec
(:func:`repro.svc.jobs.execute_job` without a cache), which is the
service's differential contract.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import common
import inputs
import quantile
from loadgen import OpenLoop, Request
from spans import Tracer

#: Offered load, jobs per second.
RATE = 5.0

#: Longest a job may stay in flight before it counts as failed.
JOB_DEADLINE_S = 60.0

#: Seconds to wait for the fleet to come up or drain.
START_TIMEOUT_S = 60.0


def job_spec(doc: Dict[str, Any]):
    """The :class:`repro.svc.jobs.JobSpec` for one scheduled job."""
    from repro.apps.large import EXPLORE_PARAMS
    from repro.svc.jobs import JobSpec

    doc = dict(doc)
    if doc.pop("large", False):
        doc["params"] = dict(EXPLORE_PARAMS[doc["app"]])
    return JobSpec(**doc)


def job_trials(doc: Dict[str, Any], result: Dict[str, Any]) -> int:
    """Seeded trials a finished job ran."""
    if doc["kind"] == "trials":
        return doc["trials"]
    if doc["kind"] == "infer":
        from repro.infer.report import InferenceReport
        from workloads.search import infer_trials

        return infer_trials(InferenceReport.from_wire(result))
    return 0


class Fleet:
    """Two shard daemons and a router, as subprocesses of this one."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.procs: List[subprocess.Popen] = []
        self.logs: List[Any] = []
        self.shards: List[str] = []
        self.base = ""

    def _spawn(self, name: str, argv: List[str]) -> Tuple[subprocess.Popen, Path]:
        port_file = self.root / f"{name}.port"
        log = open(self.root / f"{name}.log", "w", encoding="utf-8")
        self.logs.append(log)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv, "--port", "0",
             "--port-file", str(port_file)],
            cwd=common.ROOT, env=common.child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        self.procs.append(proc)
        return proc, port_file

    def _await(self, proc: subprocess.Popen, port_file: Path, deadline: float) -> str:
        while not (port_file.exists() and port_file.read_text().strip()):
            if proc.poll() is not None or time.monotonic() > deadline:
                raise common.BenchError(f"fleet process did not come up; see {self.root}")
            time.sleep(0.01)
        return f"http://127.0.0.1:{int(port_file.read_text())}"

    def start(self) -> None:
        from repro.svc import ReproClient

        if self.root.exists():
            shutil.rmtree(self.root)
        self.root.mkdir(parents=True)
        deadline = time.monotonic() + START_TIMEOUT_S
        pending = [self._spawn(f"shard{i}", ["serve", "--slots", "1", "--cache-dir",
                                             str(self.cache_dir(i))]) for i in range(2)]
        self.shards = [self._await(p, pf, deadline) for p, pf in pending]
        router, pf = self._spawn("router", ["route", "--peers", *self.shards])
        self.base = self._await(router, pf, deadline)
        with ReproClient(self.base, timeout=10.0) as client:
            while True:
                health = client.health()
                if health.get("status") == "ok" and all(
                        s.get("ok") for s in health.get("shards", [])):
                    return
                if time.monotonic() > deadline:
                    raise common.BenchError(f"fleet not healthy: {health}")
                time.sleep(0.01)

    def cache_dir(self, index: int) -> Path:
        return self.root / f"cache{index}"

    def shard_metrics(self) -> List[Dict[str, Any]]:
        from repro.svc import ReproClient

        out = []
        for url in self.shards:
            with ReproClient(url, timeout=10.0) as client:
                out.append(client.metrics())
        return out

    def stop(self) -> None:
        """SIGTERM the router, then the shards; wait for every one."""
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=START_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self.logs:
            log.close()
        self.procs, self.logs = [], []


def _counter(snap: Dict[str, Any], name: str) -> float:
    return snap.get(name, {}).get("value", 0)


class FleetWorkload:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fleet = Fleet(common.WORK / "fleet")
        #: Shard ``/metrics`` and cache store stats after the warm-up.
        self.baseline: Tuple[List[Dict[str, Any]], List[Any]] = ([], [])

    def setup_probe(self) -> List[float]:
        times = []
        for i in range(common.SETUP_PROBES):
            if i:
                self.fleet.stop()
            t0 = time.perf_counter()
            self.fleet.start()
            times.append(time.perf_counter() - t0)
        return times

    def _stores(self) -> List[Any]:
        from repro.cache.store import CacheStore

        return [CacheStore(self.fleet.cache_dir(i)).stats() for i in range(2)]

    def warm_up(self) -> None:
        """Run the warm-up jobs on each shard directly, one at a time, so
        that no timed job pays a shard worker's one-off imports; then
        take the counters the per-layer metrics start from."""
        from repro.svc import ReproClient

        for url in self.fleet.shards:
            with ReproClient(url, timeout=30.0) as client:
                for doc in inputs.fleet_warmup():
                    client.wait(client.submit(job_spec(doc)), timeout=JOB_DEADLINE_S)
        self.baseline = (self.fleet.shard_metrics(), self._stores())

    def schedule(self, seconds: float) -> List[Tuple[float, Dict[str, Any]]]:
        """The seeded arrivals of one pass, stretched to at least
        :data:`common.MIN_OPS` jobs."""
        return inputs.fleet_schedule(self.seed, RATE, max(seconds, common.MIN_OPS / RATE))

    def run_pass(self, schedule, tracer: Tracer) -> List[Request]:
        """Drive the running fleet through ``schedule``; every request
        comes back finished (done, failed or refused)."""
        from repro.svc import ReproClient

        sender = ReproClient(self.fleet.base, timeout=30.0)
        poller = ReproClient(self.fleet.base, timeout=30.0)

        def submit(doc):
            with tracer.span("loadgen.submit"):
                return sender.submit(job_spec(doc), max_wait=5.0)

        def poll(pending: List[Request]):
            # Non-blocking polls of every job in flight: a long poll on
            # one job would hide the completion of a faster job behind
            # it (say, a cache hit on the other shard).  Each finished
            # job is yielded as soon as its own poll returns.
            for req in pending:
                with tracer.span("loadgen.poll"):
                    status, doc = poller.result_raw(req.handle, wait=0)
                if status == 200 and doc.get("state") == "done":
                    yield req, doc, None
                elif status != 200 or doc.get("state") == "failed":
                    yield req, doc, f"job ended {status} {doc.get('state')}"
                elif time.perf_counter() - req.due > JOB_DEADLINE_S:
                    yield req, doc, "job deadline passed"

        try:
            return OpenLoop(schedule, submit, poll).run()
        finally:
            sender.close()
            poller.close()

    def check(self, requests: List[Request]) -> List[common.Op]:
        """Compare every job result with the direct library call."""
        from repro.svc.jobs import execute_job

        direct: Dict[str, Any] = {}
        ops = []
        for req in requests:
            key = json.dumps(req.item, sort_keys=True)
            first = key not in direct
            ok = req.error is None
            result = req.result.get("result") if ok else None
            if first:
                direct[key] = execute_job(job_spec(req.item))
            ok = ok and result == direct[key]
            ops.append(common.Op(
                label=f"{req.item['kind']}:{req.item['app']}", latency=req.latency,
                # The class of job: heavy explores, and fresh or cached
                # light jobs of each kind, each a latency cluster.
                kind=f"{req.item['kind']}:{'fresh' if first else 'repeat'}",
                ok=ok, output=result,
                # A repeat is served from the cache: it completes no new trials.
                trials=job_trials(req.item, result) if ok and first else 0,
                detail=req.error or ("" if ok else "result differs from the direct call")))
        return ops

    def layer_metrics(self, requests: List[Request], shard_snaps: List[Dict[str, Any]]
                      ) -> Dict[str, float]:
        """Per-layer metrics of the timed pass: job records, and shard
        counters and cache stores less their values after the warm-up."""
        records = [r.result for r in requests if r.error is None]
        waits = [rec["queue_wait_seconds"] for rec in records
                 if rec["queue_wait_seconds"] is not None]
        shard_lat = [rec["latency_seconds"] for rec in records]
        overhead = [(r.done - r.sent) - r.result["latency_seconds"]
                    for r in requests if r.error is None]
        before, stores_before = self.baseline
        pairs = list(zip(shard_snaps, before))

        def total(*names: str) -> float:
            return sum(_counter(after, name) - _counter(before, name)
                       for after, before in pairs for name in names)

        hits = total("cache.hit")
        lookups = hits + total("cache.miss", "cache.partial_hit")
        stores = self._stores()
        wait_tail = quantile.tail(waits)
        return {
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "cache.entries": sum(s.entries for s in stores)
            - sum(s.entries for s in stores_before),
            "cache.bytes": sum(s.total_bytes for s in stores)
            - sum(s.total_bytes for s in stores_before),
            "svc.queue_wait_s.p50": quantile.median(waits),
            "svc.queue_wait_s.tail": wait_tail[1] if wait_tail else max(waits),
            "svc.shard_latency_s": quantile.median(shard_lat),
            "svc.router_overhead_s": quantile.median(overhead),
            "svc.executed_ratio": total("svc.pool.jobs") / len(requests),
            "svc.rejected": total("svc.queue.rejected", "svc.tenant.shed"),
            "svc.retries": total("svc.jobs.retries"),
            "loadgen.lag_s": max(r.lag for r in requests),
        }
