"""End-to-end benchmark of the disjoint-link CLI.

Run from the repository root:

    python3 perfbench/run.py --workload evaluate-acceptance --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one process runs one CLI command at a time.
A round is one `link` and one `evaluate` command on the workload's inputs,
and rounds repeat until --seconds have passed. Before each round the cost of
starting a command (interpreter, package import, config resolution) is timed
on its own. After the loop the outputs are checked against independent
recomputations (checks.py). The last line of standard output is a JSON object
with the operation counts and the metrics: end-to-end medians with --trace 0,
per-layer figures with --trace 1 (one untraced round, then traced rounds
through tracer.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
COMMANDS = ("link", "evaluate")
SETUP_PROBES_PER_ROUND = 5
SETUP_PROBE = "import sys\nfrom disjoint_link.cli import load_config\nload_config(sys.argv[1])\n"
HARD_LIMIT_S = 165.0  # a run ends well inside 180 s even on a slow machine
BLAS_THREADS = "1"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHECK_SAMPLE_ROWS = 64

ENV_PROBE = """
import ctypes, json, os, platform
import numpy
import disjoint_link
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None  # as OpenBLAS reports it, when numpy links OpenBLAS
for path in sorted({line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()}):
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        get = getattr(ctypes.CDLL(path), name, None)
        threads = get() if get is not None else threads
print(json.dumps({
    "nproc": os.cpu_count(),
    "affinity": sorted(os.sched_getaffinity(0)),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": threads,
    "blas_thread_env": {k: os.environ.get(k) for k in %r},
    "backend": disjoint_link.DEFAULT_BACKEND,
}))
""" % (BLAS_ENV,)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update({name: BLAS_THREADS for name in BLAS_ENV})
    return env


def run_command(argv: list[str], env: dict, log: Path, deadline: float) -> tuple[float, float, int]:
    """Run one process to its end; return wall seconds, peak RSS in MB
    (2**20 bytes) and the exit code. The process is killed at `deadline`."""
    start = time.perf_counter()
    with open(log, "ab") as err:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen.wait
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"


def cli_argv(python: str, command: str, config: Path, out: Path, trace_json: Path | None) -> list[str]:
    tail = [command, "--config", str(config), "--out", str(out)]
    if trace_json is None:
        return [python, "-m", "disjoint_link.cli", *tail]
    return [python, str(HERE / "tracer.py"), str(trace_json), *tail]


def layer_metrics(traces: dict[str, dict]) -> dict[str, float]:
    """Per-layer figures of one round from the tracer totals of its commands:
    `<span>.<counter>` and `<span>.self_s` for every span, plus the ratios."""
    total: dict[str, dict] = {}
    for trace in traces.values():
        for name, counters in trace.items():
            acc = total.setdefault(name, dict.fromkeys(counters, 0))
            for key, value in counters.items():
                acc[key] += value
    out = {f"{name}.{key}": value for name, c in total.items() for key, value in c.items()}
    out.update({f"{name}.self_s": c["s"] - c["child_s"] for name, c in total.items()})
    fits = traces["evaluate"]["autoencoder.fit_autoencoder"]
    # within `evaluate`: fits feeding a reported AUROC over all fits
    out["autoencoder.fit_autoencoder.useful_ratio"] = fits["useful"] / fits["calls"] if fits["calls"] else 1.0
    pe, ks = total["kernels.pairwise_euclidean"], total["kernels.k_smallest"]
    out["kernels.pairwise_euclidean.ns_per_pair"] = 1e9 * pe["s"] / pe["pairs"] if pe["pairs"] else 0.0
    out["kernels.k_smallest.ns_per_cell"] = 1e9 * ks["s"] / ks["cells"] if ks["cells"] else 0.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "disjoint_link" / "cli.py").is_file():
        print(f"error: no disjoint_link package under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    python = sys.executable
    env = child_env(root)
    log = work / "stderr.log"

    inputs = workloads.prepare(args.workload, args.seed, work, python, env)
    environment = json.loads(subprocess.run(
        [python, "-c", ENV_PROBE], env=env, check=True, capture_output=True, text=True, timeout=60,
    ).stdout)
    print("env " + json.dumps(environment, sort_keys=True))
    (work / "env.json").write_text(json.dumps(environment, indent=2, sort_keys=True) + "\n")

    outs = {cmd: work / f"out-{cmd}" for cmd in COMMANDS}
    setup, walls, rss, round_walls, layers = [], {c: [] for c in COMMANDS}, [], {0: [], 1: []}, []
    hashes: set[tuple[str, str]] = set()
    attempted = failed = 0
    t0 = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(round_walls[0]) > 0
        if args.trace == 0:
            for _ in range(SETUP_PROBES_PER_ROUND):
                wall, _, rc = run_command([python, "-c", SETUP_PROBE, str(inputs["config"])], env, log, deadline)
                if rc != 0:
                    print(f"error: setup probe exited with {rc}; see {log}", file=sys.stderr)
                    return 1
                setup.append(wall)
        round_start = time.perf_counter()
        round_rss, round_traces = [], {}
        for cmd in COMMANDS:
            trace_json = work / f"trace-{cmd}.json" if traced else None
            wall, peak, rc = run_command(cli_argv(python, cmd, inputs["config"], outs[cmd], trace_json),
                                         env, log, deadline)
            attempted += 1
            failed += rc != 0
            walls[cmd].append(wall)
            round_rss.append(peak)
            print(f"round {len(rss)} {'traced ' if traced else ''}{cmd}: {wall:.3f} s, {peak:.1f} MB, exit {rc}")
            if traced and rc == 0:
                round_traces[cmd] = json.loads(trace_json.read_text(encoding="utf-8"))
        round_walls[int(traced)].append(time.perf_counter() - round_start)
        rss.append(max(round_rss))
        if len(round_traces) == len(COMMANDS):
            layers.append(layer_metrics(round_traces))
        hashes.add((sha256(outs["evaluate"] / "report.json"), sha256(outs["link"] / "D12.csv")))
        last_round = time.perf_counter() - round_start
        elapsed = time.perf_counter() - t0
        done = elapsed >= args.seconds and (args.trace == 0 or round_walls[1])
        if done or time.monotonic() + last_round > deadline:
            break

    correct = failed == 0 and len(hashes) == 1
    report_hash, d12_hash = sorted(hashes)[0]
    print(f"sha256 report.json {report_hash}")
    print(f"sha256 D12.csv {d12_hash}")
    if len(hashes) != 1:
        print("check FAILED: report.json or D12.csv differs between rounds")
    try:
        print(checks.check_link(outs["link"], inputs["d1"], inputs["d2"], inputs["k"],
                                CHECK_SAMPLE_ROWS, args.seed))
        print(checks.check_evaluate(outs["evaluate"], inputs["d1"], inputs["seeds"], inputs["folds"],
                                    inputs["reducers"]))
    except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
        print(f"check FAILED: {type(exc).__name__}: {exc}")
        correct = False

    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace == 0:
        values = {
            "setup_s": statistics.median(setup),
            "evaluate_s": statistics.median(walls["evaluate"]),
            "link_s": statistics.median(walls["link"]),
            "peak_rss_mb": statistics.median(rss),
        }
        kind = "end_to_end"
    else:
        if not layers:
            print(f"error: no traced round completed; see {log}", file=sys.stderr)
            return 1
        values = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
        values["trace.overhead_s"] = statistics.median(round_walls[1]) - statistics.median(round_walls[0])
        kind = "per_layer"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared[kind]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
