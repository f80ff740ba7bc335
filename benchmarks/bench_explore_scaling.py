"""Supplementary — sharded DPOR scaling across worker processes.

``explore_dpor_sharded`` splits the schedule tree into disjoint-prefix
shards and fans them out over forked workers, with a duplicate-rejecting
merge that is bit-identical for any worker count.  This bench measures
the schedules/sec gain on the registered ``bank`` subject and asserts
the worker-count-independence contract on the exact merged result.

Honors the shared ``REPRO_WORKERS`` / ``--repro-workers`` option: 0
benches the serial walk only, N > 0 (or -1 for auto) adds a parallel
run with that pool size next to the serial baseline.
"""

import os
import time

import pytest

from repro.harness import default_workers, explore_app

from conftest import emit


def _explore(workers):
    t0 = time.perf_counter()
    res = explore_app(
        "bank",
        "lost_update",
        dpor=True,
        sleep_sets=True,
        workers=workers,
        max_schedules=20_000,
    )
    return res, time.perf_counter() - t0


def _fingerprint(res):
    return [
        (tuple(o.choices), repr(o.observed), o.weight)
        for o in res.exploration.outcomes
    ]


def test_sharded_dpor_scaling(benchmark, worker_count):
    if not hasattr(os, "fork"):
        pytest.skip("sharded exploration needs fork")
    pool = default_workers() if worker_count < 0 else worker_count

    def experiment():
        rows = [("serial shards (workers=1)",) + _explore(1)]
        if pool > 1:
            rows.append((f"{pool} workers",) + _explore(pool))
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    benchmark.extra_info["workers"] = pool

    body = []
    for label, res, elapsed in rows:
        st = res.dpor_stats
        body.append(
            f"{label:>24}: {st.schedules} schedules merged, "
            f"{st.sleep_set_prunes} prunes, {st.executed_steps} steps, "
            f"{elapsed:.2f}s ({st.schedules / elapsed:.1f} schedules/sec)"
        )
    emit("Exploration — sharded DPOR scaling (bank/lost_update)", "\n".join(body))

    base = rows[0][1]
    assert base.exploration.complete
    assert base.hits > 0
    for _, res, _ in rows[1:]:
        # The whole point of the sharding contract: any worker count,
        # same merged exploration, same summed stats.
        assert _fingerprint(res) == _fingerprint(base)
        assert res.dpor_stats == base.dpor_stats
