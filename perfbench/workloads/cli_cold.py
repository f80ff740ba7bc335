"""cli-cold: short commands, each in a fresh ``python -m repro``.

One closed-loop caller runs the commands of :func:`inputs.cli_round`
one at a time.  Bytecode caches are warmed in setup, as an installed
user would have them, so each command pays interpreter start, ``import
repro`` and the command itself — nothing else.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List

import common
import inputs
import quantile
from spans import Tracer

WORKLOAD = "cli-cold"

SETUP_CODE = "import repro.__main__\nprint('ready', flush=True)\n"

IMPORT_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import repro\n"
    "print(time.perf_counter() - t0)\n"
)

#: Fresh interpreters timed per layer probe in the traced run.
LAYER_PROBES = 5


def command_key(argv: List[str]) -> str:
    return " ".join(argv)


def run_command(argv: List[str]):
    """``python -m repro <argv>`` from the checkout root."""
    return common.run_child([sys.executable, "-m", "repro", *argv])


class CliCold:
    #: Seconds per round on the 2-CPU reference box (five cold commands).
    ROUND_S = 2.5

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.expected = common.load_expected()[WORKLOAD]

    def setup_probe(self) -> List[float]:
        # Warm the bytecode caches of every module the commands import.
        for argv in (["list"], ["suite", "figure4", "error1"]):
            run_command(argv)
        return common.probe_ready(SETUP_CODE)

    def prepare(self) -> None:
        pass

    def run_round(self, index: int, tracer: Tracer) -> List[common.Op]:
        ops: List[common.Op] = []
        for argv in inputs.cli_round(self.seed, index):
            key = command_key(argv)
            with tracer.span("cli.command") as sp:
                proc = run_command(argv)
            want = self.expected[key]
            ok = proc.returncode == 0 and proc.stdout == want["stdout"]
            ops.append(common.Op(label=key, kind=argv[0], latency=sp.duration, ok=ok,
                                 output=(proc.returncode, proc.stdout),
                                 trials=want["trials"] if ok else 0,
                                 detail="" if ok else proc.stderr[-500:]))
        return ops

    def layer_metrics(self, tracer: Tracer, rounds: int) -> Dict[str, float]:
        interp = []
        for _ in range(LAYER_PROBES):
            t0 = time.perf_counter()
            common.run_child([sys.executable, "-c", "pass"])
            interp.append(time.perf_counter() - t0)
        imports = []
        for _ in range(LAYER_PROBES):
            proc = common.run_child([sys.executable, "-c", IMPORT_CODE])
            imports.append(float(proc.stdout.strip()))
        import_s = quantile.median(imports)
        commands = [s.duration for s in tracer.named("cli.command")]
        return {
            "cli.interpreter_s": quantile.median(interp),
            "cli.import_s": import_s,
            "cli.command_s": quantile.median(commands) - import_s,
        }
