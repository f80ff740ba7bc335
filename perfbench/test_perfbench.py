"""Tests of the benchmark's own logic.  Run: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import inputs  # noqa: E402
import quantile  # noqa: E402
from loadgen import OpenLoop, Request, send_all  # noqa: E402
from spans import Patches, Span, Tracer, covered, self_times  # noqa: E402


class FakeClock:
    """A clock that only moves when something sleeps or advances it."""

    def __init__(self) -> None:
        self.now = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self.now

    def advance(self, dt: float) -> None:
        with self._lock:
            self.now += dt

    sleep = advance


# --- the tail rule -------------------------------------------------------

def test_tail_needs_ten_samples_beyond():
    assert quantile.tail(list(range(19))) is None
    pct, value, beyond = quantile.tail(list(range(20)))
    assert (pct, value, beyond) == (50.0, 9, 10)


@pytest.mark.parametrize("n, pct", [(20, 50.0), (34, 70.0), (50, 80.0), (100, 90.0),
                                    (200, 95.0), (1000, 99.0), (20000, 99.9)])
def test_tail_picks_highest_ladder_percentile(n, pct):
    samples = [float(i) for i in range(n)]
    got_pct, value, beyond = quantile.tail(samples)
    assert got_pct == pct
    assert beyond >= quantile.MIN_BEYOND
    assert sum(1 for s in samples if s > value) == beyond
    higher = [p for p in quantile.LADDER if p > pct]
    assert all(quantile.beyond(n, p) < quantile.MIN_BEYOND for p in higher)


def test_tail_ignores_sample_order():
    samples = [5.0, 1.0, 9.0, 3.0] * 10
    assert quantile.tail(samples) == quantile.tail(sorted(samples))


def test_percentile_and_median():
    assert quantile.percentile([3, 1, 2], 50) == 2
    assert quantile.percentile([1, 2, 3, 4], 100) == 4
    assert quantile.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        quantile.median([])


# --- closed loop: a fixed amount of work per run -------------------------

def test_round_count_fills_the_seconds_on_the_reference_box():
    assert common.round_count(20, 6.5) == 3
    assert common.round_count(20, 2.5) == 8
    assert common.round_count(1, 6.5) == 1


def test_closed_loop_runs_fixed_rounds_then_tops_up_to_min_ops():
    calls = []

    def run_round(i):
        calls.append(i)
        return [common.Op(label=f"{i}", latency=0.0, ok=True)] * 3

    rounds = common.closed_loop(run_round, 2)
    assert calls == list(range(7))  # 2 rounds give 6 ops; 7 give >= 20
    assert sum(len(r.ops) for r in rounds) >= common.MIN_OPS
    calls.clear()
    common.closed_loop(lambda i: run_round(i) * 10, 2)
    assert calls == [0, 1]


def test_median_round_takes_each_kind_at_its_median():
    def round_(a, b, c):
        return common.Round([common.Op("a@1", a, True, kind="a"),
                             common.Op("b@1", b, True, kind="b"),
                             common.Op("c", c, True)], a + b + c)

    rounds = [round_(1.0, 0.1, 0.5), round_(1.2, 0.1, 0.5), round_(1.1, 0.9, 0.5)]
    seconds, typical = common.median_round(rounds)
    # One slow "b" (0.9) moves neither the round's time nor its latencies.
    assert seconds == pytest.approx(1.1 + 0.1 + 0.5)
    assert sorted(typical) == pytest.approx([0.1] * 3 + [0.5] * 3 + [1.1] * 3)
    rounds[2].ops[1].latency = 0.1
    again = common.median_round(rounds)
    assert again[0] == pytest.approx(seconds)
    assert sorted(again[1]) == pytest.approx(sorted(typical))


def test_closed_summary_takes_median_and_tail_from_the_median_round():
    # Twenty kinds at 0.1 s; one run of one kind hit by a 6 s stall.
    rounds = [common.Round([common.Op(f"k{k}", 0.1, True, kind=f"k{k}", trials=2)
                            for k in range(20)], 2.0) for _ in range(3)]
    rounds[1].ops[7].latency = 6.0
    got = common.summarize_closed("search", rounds, [1.0, 2.0, 3.0], 10.0)
    assert got["op_p50_s"] == got["op_tail_s"] == pytest.approx(0.1)
    assert got["ops_per_s"] == pytest.approx(60 / 6.0)
    assert got["trials_per_s"] == pytest.approx(120 / 6.0)
    assert got["slo_met_ratio"] == pytest.approx(59 / 60)
    assert got["setup_s"] == 2.0


def test_open_summary_takes_median_and_tail_over_kind_medians():
    # 30 cache hits, 50 fresh light jobs, 20 heavy ones; a few of each
    # slowed by a busy moment.
    ops = [common.Op(f"h{i}", 0.01, True, kind="hit") for i in range(30)]
    ops += [common.Op(f"l{i}", 0.05, True, kind="light") for i in range(50)]
    ops += [common.Op(f"x{i}", 0.2, True, kind="heavy") for i in range(20)]
    for i in (0, 31, 32, 33, 80, 81):
        ops[i].latency *= 3
    got = common.summarize_open("fleet", ops, 20.0, [1.0], 5.0)
    assert got["op_p50_s"] == pytest.approx(0.05)
    assert got["op_tail_s"] == pytest.approx(0.2)
    assert got["ops_per_s"] == pytest.approx(5.0)


# --- open loop: due-time latency and generator lag -----------------------

def test_send_all_times_from_due_and_reports_lag():
    clock = FakeClock()
    reqs = [Request(i, due, f"job{i}") for i, due in enumerate([1.0, 1.1, 1.2, 3.0])]

    def submit(item):
        if item == "job0":
            clock.advance(0.5)  # a stalled submission delays every later send
        return item

    sent = []
    send_all(reqs, submit, sent.append, clock=clock, sleep=clock.sleep)
    assert [r.sent for r in reqs] == pytest.approx([1.0, 1.5, 1.5, 3.0])
    assert [r.lag for r in reqs] == pytest.approx([0.0, 0.4, 0.3, 0.0])
    for r in reqs:
        r.done = r.sent + 0.25
    # Latency counts from the due time, so the stall shows on job1 and job2.
    assert [r.latency for r in reqs] == pytest.approx([0.25, 0.65, 0.55, 0.25])
    assert [r.handle for r in sent] == ["job0", "job1", "job2", "job3"]


def test_send_all_marks_refused_submission_failed():
    clock = FakeClock()
    reqs = [Request(0, 0.0, "x")]

    def refuse(item):
        raise RuntimeError("503")

    sent = []
    send_all(reqs, refuse, sent.append, clock=clock, sleep=clock.sleep)
    assert sent == [] and reqs[0].done == 0.0 and "503" in reqs[0].error


def test_open_loop_finishes_every_request_in_two_threads():
    before = threading.active_count()
    seen_threads = set()
    clock = FakeClock()

    def submit(item):
        seen_threads.add(threading.get_ident())
        return item

    def poll(pending):
        seen_threads.add(threading.get_ident())
        clock.advance(0.01)
        return [(r, r.handle * 2, None) for r in pending]

    loop = OpenLoop([(0.1 * i, i) for i in range(20)], submit, poll,
                    clock=clock, sleep=clock.sleep)
    reqs = loop.run(start_delay=0.0)
    assert len(seen_threads) <= 2
    assert threading.active_count() == before
    assert [r.result for r in reqs] == [2 * i for i in range(20)]
    assert all(r.done >= r.sent >= r.due for r in reqs)
    assert all(r.latency >= r.lag for r in reqs)


def test_open_loop_stamps_each_request_when_its_own_poll_returns():
    clock = FakeClock()

    def poll(pending):
        for r in pending:
            clock.advance(0.004)  # one round trip per job in flight
            yield r, r.handle, None

    loop = OpenLoop([(0.0, 0), (0.0, 1), (0.0, 2)], lambda item: item, poll,
                    clock=clock, sleep=clock.sleep)
    reqs = loop.run(start_delay=0.0)
    # Not all stamped at the end of the sweep: each at its own poll.
    assert [r.done for r in reqs] == pytest.approx([0.004, 0.008, 0.012])


@pytest.mark.parametrize("offset", [0.0137, 0.0151, 0.0199, 0.0203])
def test_open_loop_sweeps_on_a_fixed_grid_not_on_sends(offset):
    clock = FakeClock()
    service = 0.025

    def poll(pending):
        for r in pending:
            if clock() >= r.sent + service:
                yield r, None, None

    loop = OpenLoop([(offset, 0)], lambda item: item, poll, clock=clock, sleep=clock.sleep)
    (req,) = loop.run(start_delay=0.0)
    # Seen at the first tick after it finished, wherever the send fell
    # between ticks: the wait is spread over a tick, not the same for
    # every job of one length.
    tick = OpenLoop.POLL_INTERVAL
    assert req.done == pytest.approx(math.ceil((offset + service) / tick) * tick)


# --- spans and self time -------------------------------------------------

def _span(sid, parent, start, end):
    sp = Span(sid, parent, f"s{sid}", start)
    sp.end = end
    return sp


def test_covered_merges_overlaps_and_clips():
    assert covered((0, 10), [(1, 3), (2, 5), (7, 8)]) == 5
    assert covered((0, 10), [(-5, 1), (9, 20)]) == 2
    assert covered((0, 10), []) == 0


def test_self_time_is_duration_minus_child_coverage():
    spans = [_span(1, None, 0, 10), _span(2, 1, 1, 3), _span(3, 1, 2, 5),
             _span(4, 1, 7, 8), _span(5, 2, 1.5, 2.5)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(5.0)  # only direct children count
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(1.0)


def test_tracer_nests_by_thread_and_patches_restore():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    class Base:
        @staticmethod
        def work(x):
            clock.advance(1.0)
            return x + 1

    class Layer(Base):
        pass

    original = Base.__dict__["work"]
    with Patches() as patches:
        patches.wrap(tracer, Layer, "work", "layer.work",
                     on_result=lambda sp, res, a, k: sp.attrs.update(res=res))
        with tracer.span("outer"):
            clock.advance(0.5)
            assert Layer.work(1) == 2
    assert Base.__dict__["work"] is original and "work" not in Layer.__dict__
    outer, = tracer.named("outer")
    inner, = tracer.named("layer.work")
    assert inner.parent == outer.id and inner.attrs == {"res": 2}
    assert outer.duration == 1.5 and self_times(tracer.spans)[outer.id] == 0.5


def test_tracer_write_round_trips(tmp_path):
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    tracer.write(tmp_path / "spans.jsonl")
    lines = [json.loads(x) for x in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [x["name"] for x in lines] == ["a", "b"]
    assert lines[1]["parent"] == lines[0]["id"]


# --- seed -> inputs determinism ------------------------------------------

def test_same_seed_same_inputs():
    for seed in (0, 7, 123456):
        assert inputs.paper_sweeps(seed, 10) == inputs.paper_sweeps(seed, 10)
        assert inputs.search_round(seed, 3) == inputs.search_round(seed, 3)
        assert inputs.cli_round(seed, 2) == inputs.cli_round(seed, 2)
        assert inputs.fleet_schedule(seed, 8.0, 20) == inputs.fleet_schedule(seed, 8.0, 20)


def _fresh_mix(schedule):
    seen, mix = set(), []
    for _, spec in schedule:
        key = json.dumps(spec, sort_keys=True)
        if key not in seen:
            seen.add(key)
            mix.append((spec["kind"], spec["app"], spec.get("bug")))
    return sorted(mix, key=repr)


def test_different_seeds_differ_but_keep_the_mix():
    a, b = inputs.fleet_schedule(1, 8.0, 20), inputs.fleet_schedule(2, 8.0, 20)
    assert a != b
    assert len(a) == len(b) == 160
    assert _fresh_mix(a) == _fresh_mix(b)
    assert inputs.search_round(1, 0) != inputs.search_round(2, 0)
    explores = [sorted(op for op in inputs.search_round(seed, 0) if op[0] == "explore")
                for seed in (1, 2)]
    assert explores[0] == explores[1] == sorted(inputs.search_ops())
    assert {c[0] for c in inputs.cli_round(1, 0)} == {c[0] for c in inputs.cli_round(2, 0)}


def test_fleet_repeats_copy_configs_sent_long_enough_before():
    sched = inputs.fleet_schedule(5, 8.0, 20)
    firsts = {}
    repeats = 0
    for due, spec in sched:
        key = json.dumps(spec, sort_keys=True)
        if key in firsts:
            repeats += 1
            assert due - firsts[key] >= inputs.FLEET_REPEAT_GAP_S
        else:
            firsts[key] = due
    assert repeats == round(inputs.FLEET_REPEAT_SHARE * len(sched))
    dues = [d for d, _ in sched]
    assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] <= 20


def test_fleet_arrivals_keep_the_least_gap():
    for seed in range(5):
        sched = inputs.fleet_schedule(seed, 5.0, 20.0)
        assert len(sched) == 100
        dues = [d for d, _ in sched]
        gaps = [b - a for a, b in zip(dues, dues[1:])]
        # Light slots are 0.6 s / 4 wide, arrivals in their middle half.
        assert min(gaps) >= (1 - inputs.FLEET_ARRIVAL_JITTER) * 0.15 - 1e-9
        # A heavy job has the fleet to itself for at least 0.2 s.
        for i, (due, spec) in enumerate(sched):
            if inputs.is_heavy(spec):
                assert i == 0 or due - dues[i - 1] >= 0.1
                assert i + 1 == len(dues) or dues[i + 1] - due >= 0.2


def test_fleet_heavy_jobs_are_fresh_and_fixed_in_number():
    for seed in range(5):
        sched = inputs.fleet_schedule(seed, 5.0, 20.0)
        heavy = [spec for _, spec in sched if inputs.is_heavy(spec)]
        # Repeats copy light configs only, so every heavy job is a miss.
        assert len(heavy) == round(inputs.FLEET_HEAVY_SHARE * len(sched)) == 20
        assert len({json.dumps(spec, sort_keys=True) for spec in heavy}) == len(heavy)
        # The first arrival of every block of five, and only that one.
        slots = [i for i, (_, spec) in enumerate(sched) if inputs.is_heavy(spec)]
        assert slots == list(range(0, 100, 5))


def test_fleet_warmup_never_shares_seeds_with_a_schedule():
    warm = inputs.fleet_warmup()
    assert {spec["kind"] for spec in warm} == {"trials", "explore", "infer"}
    for spec in warm:
        assert spec.get("seed", inputs.FLEET_WARMUP_SEED) >= inputs.FLEET_WARMUP_SEED
        assert spec.get("base_seed", inputs.FLEET_WARMUP_SEED) >= inputs.FLEET_WARMUP_SEED
    for _, spec in inputs.fleet_schedule(3, 5.0, 20.0):
        top = spec.get("base_seed", 0) + spec.get("trials", 0)
        assert max(spec.get("seed", 0), top) < inputs.FLEET_WARMUP_SEED


def test_inputs_use_only_golden_seeds():
    for seed in range(20):
        assert set(inputs.paper_sweeps(seed, 16)) <= set(inputs.PAPER_BASE_SEEDS)
        all_cmds = {" ".join(c) for c in inputs.cli_all_commands()}
        assert {" ".join(c) for c in inputs.cli_round(seed, seed)} <= all_cmds
        pairs = [{op[2:] for op in inputs.search_round(seed, i) if op[0] == "infer"}
                 for i in range(len(inputs.INFER_SEEDS))]
        # One pair per round, and consecutive rounds cover every pair.
        assert all(len(p) == 1 for p in pairs)
        assert set().union(*pairs) == set(inputs.INFER_SEEDS)


def test_inputs_independent_of_hash_seed():
    code = ("import json, sys; sys.path.insert(0, %r); import inputs; "
            "print(json.dumps([inputs.fleet_schedule(3, 8.0, 5), inputs.search_round(3, 1)]))"
            % str(Path(__file__).resolve().parent))
    outs = set()
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        outs.add(subprocess.run([sys.executable, "-c", code], env=env, text=True,
                                capture_output=True, check=True, timeout=60).stdout)
    assert len(outs) == 1
