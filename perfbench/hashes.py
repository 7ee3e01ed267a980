"""Print the SHA-256 of report.json and D12.csv for each workload.

    python3 perfbench/hashes.py [--root DIR] [--seed N] [--workload NAME ...]

Runs each workload's `link` and `evaluate` once, untimed, on the inputs the
benchmark makes from --seed, with the package under DIR/src (default: the
current directory). To compare two commits, export each one's source tree and
run this against both; a refactor that keeps the outputs shows equal hashes:

    mkdir -p /tmp/at-commit && git archive <commit> src | tar -x -C /tmp/at-commit
    python3 perfbench/hashes.py --root /tmp/at-commit
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path

import run
import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=Path.cwd())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "disjoint_link" / "cli.py").is_file():
        print(f"error: no disjoint_link package under {root / 'src'}", file=sys.stderr)
        return 2
    env = run.child_env(root)
    for name in args.workload or sorted(workloads.WORKLOADS):
        work = Path.cwd() / ".bench_work" / "hashes" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        inputs = workloads.prepare(name, args.seed, work, sys.executable, env)
        for cmd in run.COMMANDS:
            argv_cmd = run.cli_argv(sys.executable, cmd, inputs["config"], work / f"out-{cmd}", None)
            _, _, rc = run.run_command(argv_cmd, env, work / "stderr.log", time.monotonic() + 600)
            if rc != 0:
                print(f"error: {name} {cmd} exited with {rc}; see {work / 'stderr.log'}", file=sys.stderr)
                return 1
        print(f"{name} seed {args.seed} report.json {run.sha256(work / 'out-evaluate' / 'report.json')}")
        print(f"{name} seed {args.seed} D12.csv {run.sha256(work / 'out-link' / 'D12.csv')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
