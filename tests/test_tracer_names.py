"""The per-layer benchmark wraps package functions by name from outside
`src/` (perfbench/tracer.py); a renamed or deleted function would break its
traced runs without failing anything in the package. The benchmark also
recomputes the commands' outputs (perfbench/checks.py), so an output it
would reject fails here first."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import disjoint_link
from disjoint_link.cli import main

from test_golden import write_numeric_pair

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
CHECKS = ROOT / "perfbench" / "checks.py"


def load(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load(TRACER)


def test_every_traced_name_exists():
    tracer = load_tracer()
    missing = [
        f"{module.__name__}.{name}"
        for targets, _, _ in tracer.SPANS.values()
        for module, name in targets
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def test_environment_probe_names_exist():
    assert isinstance(disjoint_link.DEFAULT_BACKEND, str)


def test_traced_commands_run_and_count(tmp_path):
    # the tracer reads some arguments by position (a CSV writer's `path` is
    # argument 1), so a changed signature fails only a traced run
    synth = {"inputs": {"synthetic": {"latent_dim": 2, "n1": 40, "n2": 60, "k1": 3, "k2": 4,
                                      "noise_sigma": 0.5, "positive_rate": 0.3, "seed": 3}}}
    (tmp_path / "synth.json").write_text(json.dumps(synth), encoding="utf-8")
    assert main(["synth", "--config", str(tmp_path / "synth.json"), "--out", str(tmp_path / "in")]) == 0
    config = {"inputs": {"files": {side: {"path": str(tmp_path / "in" / f"{side.upper()}.csv"),
                                          "label_column": "label"} for side in ("d1", "d2")}},
              "reducer": "pca", "reducers": ["pca"], "R": 2, "k": 2, "folds": 2}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                     os.environ.get("PYTHONPATH")]))}
    totals = {}
    for command in ("link", "evaluate"):
        trace = tmp_path / f"trace-{command}.json"
        run = subprocess.run(
            [sys.executable, str(TRACER), str(trace), command, "--config", str(tmp_path / "config.json"),
             "--out", str(tmp_path / command)],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        totals[command] = json.loads(trace.read_text(encoding="utf-8"))
    assert totals["link"]["data.load_csv"]["bytes"] > 0
    assert totals["link"]["linkage.csv_write"]["bytes"] > 0
    assert totals["evaluate"]["data.load_csv"]["bytes"] > 0
    assert totals["evaluate"]["figures.export_projection_2d"]["calls"] > 0
    assert totals["evaluate"]["figures.write"]["calls"] > 0


def test_outputs_pass_the_benchmark_checks(tmp_path):
    checks = load(CHECKS)
    inputs = write_numeric_pair(tmp_path)
    d1, d2 = (Path(inputs["files"][side]["path"]) for side in ("d1", "d2"))
    reducers = ["feature_importance", "pca", "autoencoder"]
    configs = {
        "link": {"reducer": "pca", "k": 3, "R": 2},
        "evaluate": {"reducers": reducers, "folds": 2, "seeds": [0, 1], "k": 3, "R": 2,
                     "autoencoder": {"hidden_dims": [4], "epochs": 5, "batch_size": 16}},
    }
    for command, doc in configs.items():
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps({**doc, "inputs": inputs}), encoding="utf-8")
        assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
    assert checks.check_link(tmp_path / "link", d1, d2, 3, 16, 0).startswith("link ok")
    assert checks.check_evaluate(tmp_path / "evaluate", d1, [0, 1], 2, reducers).startswith("evaluate ok")
