"""Seeded inputs for every workload.

Everything a workload feeds the program comes from here, and only from
the workload name and ``--seed``: the same seed gives the same inputs
in any process (``random.Random`` seeded with a string is independent of
``PYTHONHASHSEED``).  Compositions are stratified — the seed permutes a
fixed mix and picks seeds inside it — so that two seeds exercise the
same amount of work of each kind and the run-to-run spread stays small.

Seed choices that select a golden in ``expected.json`` come from the
small fixed tuples below; ``make_expected.py`` records a golden for
every member.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

#: Tables ``repro report`` computes, with the trial counts it uses.
PAPER_TABLES: Tuple[Tuple[str, int], ...] = (
    ("table1", 100),
    ("table2", 100),
    ("section5", 100),
    ("section62", 100),
    ("section63", 50),
)

#: Trial base seeds a paper sweep may use.
PAPER_BASE_SEEDS: Tuple[int, ...] = (0, 100, 200, 300, 400, 500, 600, 700)

#: ``(trace seed, confirmation base seed)`` pairs an inference may use.
INFER_SEEDS: Tuple[Tuple[int, int], ...] = ((0, 0), (1, 100), (2, 200), (3, 300))

#: Seeds ``repro run --seed`` may use on cli-cold.
CLI_RUN_SEEDS: Tuple[int, ...] = (0, 20, 40, 60, 80, 100, 120, 140)

#: Large-family preemption bounds (as in benchmarks/bench_explore_bounding.py).
LARGE_BOUNDS: Dict[str, int] = {"threadpool": 1, "mesh": 2, "connpool": 1}

#: Schedule cap for the unbounded DPOR walks on the large family.
LARGE_UNBOUNDED_CAP = 200

#: The CLI's default ``--max-schedules``: the cap of the exhaustive walks.
CLI_DEFAULT_CAP = 2000

#: Paper subjects ``search`` explores exhaustively (stateless DFS).
EXHAUSTIVE_SUBJECTS: Tuple[Tuple[str, str], ...] = (
    ("figure4", "error1"),
    ("stringbuffer", "atomicity1"),
    ("cache4j", "atomicity1"),
    ("hedc", "race1"),
)

#: Every registry app, the set ``search`` infers over.
REGISTRY_APPS: Tuple[str, ...] = (
    "bank", "cache4j", "connpool", "figure4", "hedc", "httpd", "jigsaw",
    "log4j", "logging", "lucene", "mesh", "moldyn", "montecarlo",
    "mysql-3.23.56", "mysql-4.0.12", "mysql-4.0.19", "pbzip2", "pool",
    "raytracer", "stringbuffer", "swing", "synchronizedList",
    "synchronizedMap", "synchronizedSet", "threadpool",
)

#: Paper subjects (Table 1 and Table 2 rows) the fleet runs trials on,
#: with the wall milliseconds one serial trial of each takes on the
#: 2-CPU reference box.  A fleet ``trials`` job sizes its trial count
#: from this so that every fresh job is about :data:`FLEET_JOB_MS` of
#: work: misses then form one tight latency cluster, which keeps the
#: median and the tail steady from run to run.
PAPER_SUBJECT_TRIAL_MS: Dict[Tuple[str, str], float] = {
    ("cache4j", "atomicity1"): 2, ("cache4j", "race1"): 1.4, ("cache4j", "race2"): 0.93,
    ("cache4j", "race3"): 0.97, ("hedc", "race1"): 0.22, ("hedc", "race2"): 0.23,
    ("jigsaw", "deadlock1"): 0.32, ("jigsaw", "deadlock2"): 0.39,
    ("jigsaw", "missed-notify1"): 0.49, ("jigsaw", "race1"): 0.32,
    ("jigsaw", "race2"): 0.42, ("log4j", "deadlock1"): 0.17,
    ("log4j", "missed-notify1"): 0.84, ("logging", "deadlock1"): 0.12,
    ("lucene", "deadlock1"): 0.12, ("moldyn", "race1"): 0.87, ("moldyn", "race2"): 0.91,
    ("montecarlo", "race1"): 0.82, ("pool", "missed-notify1"): 0.13,
    ("raytracer", "race1"): 2.5, ("raytracer", "race2"): 2.1, ("raytracer", "race3"): 2.3,
    ("raytracer", "race4"): 3.4, ("stringbuffer", "atomicity1"): 0.41,
    ("swing", "deadlock1"): 1.1, ("synchronizedList", "atomicity1"): 0.62,
    ("synchronizedList", "deadlock1"): 0.2, ("synchronizedMap", "atomicity1"): 0.24,
    ("synchronizedMap", "deadlock1"): 0.19, ("synchronizedSet", "atomicity1"): 0.59,
    ("synchronizedSet", "deadlock1"): 0.18, ("httpd", "crash1"): 0.82,
    ("httpd", "logcorrupt1"): 1.1, ("mysql-3.23.56", "logdisorder1"): 0.28,
    ("mysql-4.0.12", "logomit1"): 0.36, ("mysql-4.0.19", "crash1"): 0.81,
    ("pbzip2", "crash1"): 1.3,
}
PAPER_SUBJECTS: Tuple[Tuple[str, str], ...] = tuple(PAPER_SUBJECT_TRIAL_MS)

#: Fleet inference subjects, 50-trial sweeps: light jobs, about as long
#: as a fresh ``trials`` job.
FLEET_INFERS: Tuple[str, ...] = ("figure4", "stringbuffer", "synchronizedList")

#: The fleet's heavy job: mesh's unbounded DPOR walk at ``EXPLORE_PARAMS``
#: capped at :data:`LARGE_UNBOUNDED_CAP` schedules (search's ``mesh/dpor``
#: walk), about 0.2 s on the reference box.  The walk is the same for
#: every seed, so every fresh copy (a distinct ``seed``, hence a cache
#: miss) does the same work.
FLEET_HEAVY: Dict[str, Any] = {
    "kind": "explore", "app": "mesh", "bug": "lost_item", "dpor": True,
    "large": True, "max_schedules": LARGE_UNBOUNDED_CAP,
}

#: Share of fleet submissions that are fresh heavy jobs.  A 20 s pass
#: sends 100 jobs and the tail rule reports their p90, the tenth
#: slowest: with twenty heavy jobs, clearly slower than every light one,
#: that lands in the middle of the heavy jobs' one tight cluster, not on
#: whichever light jobs a busy moment happened to slow.
FLEET_HEAVY_SHARE = 0.2

#: A fleet schedule is a run of blocks of ``1 / FLEET_HEAVY_SHARE``
#: arrivals.  A block's heavy job arrives in the first of these windows
#: and its light jobs in equal slots of the second (shares of the
#: block's length, 1 s at 5 jobs/s): each heavy job runs with the fleet
#: otherwise idle, so its latency is its own work, not that of whichever
#: jobs the seed sent beside it on two CPUs.
FLEET_HEAVY_WINDOW = (0.0, 0.1)
FLEET_LIGHT_WINDOW = (0.3, 0.9)

#: Work per fresh fleet ``trials`` job, in reference-box milliseconds:
#: a fresh light job takes 30-70 ms at the shard, short of the least
#: gap between light arrivals (75 ms at 5 jobs/s).
FLEET_JOB_MS = 20.0

#: Trials per inference sweep in fleet ``infer`` jobs.
FLEET_INFER_TRIALS = 50

#: How many times each fleet infer subject appears per pass over the
#: paper subjects.
FLEET_SIDE_JOBS = 2

#: Share of its slot over which a fleet arrival time is spread: arrivals
#: in a window are at least ``1 - FLEET_ARRIVAL_JITTER`` slots apart.
FLEET_ARRIVAL_JITTER = 0.5

#: Share of fleet submissions that repeat an earlier light config.
FLEET_REPEAT_SHARE = 1 / 3

#: A repeat copies a config first sent at least this long before it, so
#: the first copy has finished and the repeat is a cache read.
FLEET_REPEAT_GAP_S = 3.0

#: Seeds of the fleet's warm-up jobs start here, far above any seed a
#: schedule draws, so no warm-up result is a cache hit for a timed job.
FLEET_WARMUP_SEED = 10_000_000


def rng_for(workload: str, seed: int, salt: str = "") -> random.Random:
    """The one source of randomness for a workload's inputs."""
    return random.Random(f"perfbench:{workload}:{seed}:{salt}")


def paper_sweeps(seed: int, count: int) -> List[int]:
    """Base seed of each of ``count`` consecutive paper sweeps."""
    rng = rng_for("paper-sweep", seed)
    order = list(PAPER_BASE_SEEDS)
    rng.shuffle(order)
    return [order[i % len(order)] for i in range(count)]


def search_ops() -> List[Tuple[str, ...]]:
    """The explorations of one search round, as ``(kind, label)``."""
    ops: List[Tuple[str, ...]] = [("explore", "bank/dpor_sleep")]
    for app in LARGE_BOUNDS:
        ops.append(("explore", f"{app}/bounded"))
        ops.append(("explore", f"{app}/dpor"))
    for app, bug in EXHAUSTIVE_SUBJECTS:
        ops.append(("explore", f"{app}:{bug}/exhaustive"))
    return ops


def search_round(seed: int, index: int) -> List[Tuple[Any, ...]]:
    """Operations of search round ``index``: every exploration plus a
    cold inference of every registry app, in a seeded order.  Successive
    rounds walk the inference seed pairs from a seeded start, so every
    run spreads its rounds evenly over them."""
    start = rng_for("search", seed).randrange(len(INFER_SEEDS))
    trace_seed, base_seed = INFER_SEEDS[(start + index) % len(INFER_SEEDS)]
    rng = rng_for("search", seed, f"round{index}")
    ops: List[Tuple[Any, ...]] = list(search_ops())
    ops += [("infer", app, trace_seed, base_seed) for app in REGISTRY_APPS]
    rng.shuffle(ops)
    return ops


def cli_round(seed: int, index: int) -> List[List[str]]:
    """The short commands of cli-cold round ``index``, in a seeded order."""
    rng = rng_for("cli-cold", seed, f"round{index}")
    trace_seed, base_seed = INFER_SEEDS[rng.randrange(len(INFER_SEEDS))]
    run_seed = CLI_RUN_SEEDS[rng.randrange(len(CLI_RUN_SEEDS))]
    cmds = [
        ["run", "figure4", "error1", "--trials", "20", "--seed", str(run_seed)],
        ["list"],
        ["suite", "figure4", "error1"],
        ["infer", "figure4", "--seed", str(trace_seed), "--base-seed", str(base_seed)],
        ["explore", "stringbuffer", "atomicity1"],
    ]
    rng.shuffle(cmds)
    return cmds


def cli_all_commands() -> List[List[str]]:
    """Every command any cli-cold round can run (for the goldens)."""
    cmds = [["list"], ["suite", "figure4", "error1"],
            ["explore", "stringbuffer", "atomicity1"]]
    cmds += [["run", "figure4", "error1", "--trials", "20", "--seed", str(s)]
             for s in CLI_RUN_SEEDS]
    cmds += [["infer", "figure4", "--seed", str(t), "--base-seed", str(b)]
             for t, b in INFER_SEEDS]
    return cmds


def fleet_catalogue() -> List[Dict[str, Any]]:
    """One pass over the fresh light fleet mix, in a fixed order: every
    paper subject as a ``trials`` job of about :data:`FLEET_JOB_MS`,
    plus each infer subject :data:`FLEET_SIDE_JOBS` times.  Seeds are
    filled in per job."""
    side: List[Dict[str, Any]] = []
    for _ in range(FLEET_SIDE_JOBS):
        side += [{"kind": "infer", "app": app, "trials": FLEET_INFER_TRIALS}
                 for app in FLEET_INFERS]
    trials = [{"kind": "trials", "app": app, "bug": bug,
               "trials": max(10, round(FLEET_JOB_MS / ms))}
              for (app, bug), ms in PAPER_SUBJECT_TRIAL_MS.items()]
    # Interleave so that any prefix of the catalogue keeps the mix.
    step = len(trials) / len(side)
    out, j = [], 0
    for i, job in enumerate(trials):
        out.append(job)
        while j < len(side) and (j + 1) * step <= i + 1:
            out.append(side[j])
            j += 1
    return out + side[j:]


def is_heavy(spec: Dict[str, Any]) -> bool:
    """Whether a fleet job spec is a copy of :data:`FLEET_HEAVY`."""
    return all(spec.get(k) == v for k, v in FLEET_HEAVY.items())


def _seed_job(spec: Dict[str, Any], rng: random.Random) -> Dict[str, Any]:
    if spec["kind"] in ("trials", "infer"):
        spec["base_seed"] = rng.randrange(1_000_000)
    if spec["kind"] in ("explore", "infer"):
        spec["seed"] = rng.randrange(1_000_000)
    return spec


def _in_slot(rng: random.Random, start: float, width: float) -> float:
    """A time uniformly in the middle :data:`FLEET_ARRIVAL_JITTER` of a slot."""
    return start + width * ((1 - FLEET_ARRIVAL_JITTER) / 2 + FLEET_ARRIVAL_JITTER * rng.random())


def fleet_schedule(seed: int, rate: float, seconds: float) -> List[Tuple[float, Dict[str, Any]]]:
    """Open-loop arrivals ``(due offset s, job spec kwargs)``.

    ``round(rate * seconds)`` arrivals in blocks of
    ``1 / FLEET_HEAVY_SHARE`` (the last block may be short): a fresh
    heavy job in the block's :data:`FLEET_HEAVY_WINDOW`, then light jobs
    in equal slots of its :data:`FLEET_LIGHT_WINDOW`.  Each arrival is
    placed uniformly at random in the middle
    :data:`FLEET_ARRIVAL_JITTER` of its slot: random arrival times
    without the clumps of a Poisson process, which make how many jobs
    run side by side, and so the latencies of a 20-second run, depend
    on the seed.

    A fixed share of the light arrivals repeats an earlier light config
    first sent at least :data:`FLEET_REPEAT_GAP_S` before.  The other
    light arrivals are the first jobs of the cycled
    :func:`fleet_catalogue` (the same multiset for every seed) in a
    seeded order.  Every fresh job gets seeded trial seeds.
    """
    rng = rng_for("fleet", seed)
    n = max(2, round(rate * seconds))
    per_block = max(2, round(1 / FLEET_HEAVY_SHARE))
    block = per_block / rate
    (h0, h1), (l0, l1) = FLEET_HEAVY_WINDOW, FLEET_LIGHT_WINDOW
    light_slot = (l1 - l0) * block / (per_block - 1)
    dues, heavy = [], set()
    for i in range(n):
        b, k = divmod(i, per_block)
        if k == 0:
            heavy.add(i)
            dues.append(_in_slot(rng, (b + h0) * block, (h1 - h0) * block))
        else:
            dues.append(_in_slot(rng, (b + l0) * block + (k - 1) * light_slot, light_slot))
    lights = [i for i in range(n) if i not in heavy]
    eligible = [i for i in lights if dues[i] >= dues[lights[0]] + FLEET_REPEAT_GAP_S]
    repeats = set(rng.sample(eligible, min(len(eligible), round(FLEET_REPEAT_SHARE * n))))

    catalogue = fleet_catalogue()
    fresh = [dict(catalogue[i % len(catalogue)]) for i in range(len(lights) - len(repeats))]
    rng.shuffle(fresh)

    out: List[Tuple[float, Dict[str, Any]]] = []
    for i, due in enumerate(dues):
        if i in repeats:
            earlier = [spec for d, spec in out
                       if d <= due - FLEET_REPEAT_GAP_S and not is_heavy(spec)]
            out.append((due, dict(rng.choice(earlier))))
        else:
            out.append((due, _seed_job(dict(FLEET_HEAVY) if i in heavy else fresh.pop(), rng)))
    return out


def fleet_warmup() -> List[Dict[str, Any]]:
    """Jobs each shard runs before the timed pass: one of every kind and
    subject class the schedule sends whose first run in a shard worker
    pays one-off imports, with seeds no schedule draws."""
    specs = [dict(fleet_catalogue()[0]), dict(FLEET_HEAVY)]
    specs += [{"kind": "infer", "app": app, "trials": FLEET_INFER_TRIALS}
              for app in FLEET_INFERS]
    for i, spec in enumerate(specs):
        if spec["kind"] in ("trials", "infer"):
            spec["base_seed"] = FLEET_WARMUP_SEED + 1000 * i
        if spec["kind"] in ("explore", "infer"):
            spec["seed"] = FLEET_WARMUP_SEED + i
    return specs
