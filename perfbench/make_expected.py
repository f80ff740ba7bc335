"""Regenerate ``expected.json``, the goldens the benchmark checks against.

Usage (from the repository root)::

    python3 perfbench/make_expected.py

Each golden comes from the program's reference path for the same input:
paper-sweep rows from the serial trial loop (the pool must match it
bit for bit), search results from direct library calls, cli-cold stdout
from the CLI itself.  Run it only when a change is meant to alter
results; the benchmark then checks the new ones.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import inputs  # noqa: E402


def main() -> int:
    common.check_program()
    from repro.infer import infer_app
    from workloads import cli_cold, paper_sweep, search

    paper = {str(bs): paper_sweep.sweep(bs, workers=0) for bs in inputs.PAPER_BASE_SEEDS}
    explore = {op[1]: search.explore_doc(search.explore_label(op[1]))
               for op in inputs.search_ops()}
    infer = {}
    for app in inputs.REGISTRY_APPS:
        for trace_seed, base_seed in inputs.INFER_SEEDS:
            report = infer_app(app, seed=trace_seed, base_seed=base_seed)
            infer[search.infer_key(app, trace_seed, base_seed)] = search.infer_doc(report)
    cli = {}
    for argv in inputs.cli_all_commands():
        proc = cli_cold.run_command(argv)
        if proc.returncode != 0:
            raise common.BenchError(f"{argv}: rc={proc.returncode}\n{proc.stderr}")
        trials = 0
        if argv[0] == "run":
            trials = int(argv[argv.index("--trials") + 1])
        elif argv[0] == "infer":
            report = infer_app(argv[1], seed=int(argv[argv.index("--seed") + 1]),
                               base_seed=int(argv[argv.index("--base-seed") + 1]))
            trials = search.infer_trials(report)
        cli[cli_cold.command_key(argv)] = {"stdout": proc.stdout, "trials": trials}

    doc = {
        "paper-sweep": paper,
        "search": {"explore": explore, "infer": infer},
        "cli-cold": cli,
    }
    with open(common.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {common.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
