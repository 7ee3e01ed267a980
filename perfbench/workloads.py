"""Workload inputs: the configs and CSV files each workload feeds to the CLI.

Inputs are made from the benchmark seed with numpy alone, so the same seed
gives the same files on every commit of the program.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import numpy as np

# The acceptance config of tests/test_acceptance.py. Its generator seed stays
# 11 and its CV seed list is the single seed 1: which reducer wins decides
# whether `evaluate` fits the autoencoder again for after.svg (about a third of
# the command), and the winner flips with the CV seed (the autoencoder won on
# 7 of CV seeds 0-11), so a seed-dependent list would make evaluate_s bimodal.
# On seed 1 the autoencoder wins, as it does over the full list 0-9. The
# benchmark seed sets the link seed, which draws the autoencoder inits of
# `link` and of the after.svg re-link.
ACCEPTANCE_SYNTH = {
    "latent_dim": 3, "n1": 300, "k1": 6, "n2": 3000, "k2": 10,
    "noise_sigma": 1.0, "positive_rate": 0.05, "seed": 11,
}
ACCEPTANCE_CV_SEEDS = [1]

# latent-factor CSV pairs: (n1, k1, n2, k2)
CSV_SHAPES = {
    "evaluate-wide": (200, 6, 20000, 10),
    "link-large": (4000, 6, 4000, 10),
}
LATENT_DIM = 3
NOISE_SIGMA = 1.0
POSITIVE_SHARE = 0.2

WORKLOADS = {
    "evaluate-acceptance": {
        "reducer": "autoencoder",
        "reducers": ["feature_importance", "pca", "autoencoder"],
        "folds": 5,
    },
    "evaluate-wide": {"reducer": "pca", "reducers": ["feature_importance", "pca"], "folds": 5},
    "link-large": {"reducer": "pca", "reducers": ["pca"], "folds": 2},
}
R = 8
K = 5


def latent_pair(seed: int, n1: int, k1: int, n2: int, k2: int):
    """Two datasets whose features are noisy linear maps of a shared latent z,
    with labels given to the POSITIVE_SHARE highest logistic scores of z."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=LATENT_DIM)

    def draw(n, k):
        a = rng.normal(scale=1.0 / np.sqrt(LATENT_DIM), size=(k, LATENT_DIM))
        z = rng.normal(size=(n, LATENT_DIM))
        x = z @ a.T + NOISE_SIGMA * rng.normal(size=(n, k))
        score = z @ w + rng.logistic(size=n)
        y = np.zeros(n, dtype=np.int64)
        y[np.argsort(-score, kind="stable")[: round(POSITIVE_SHARE * n)]] = 1
        return x, y

    return draw(n1, k1), draw(n2, k2)


def write_csv(path: Path, prefix: str, x: np.ndarray, y: np.ndarray) -> None:
    header = ",".join([f"{prefix}{j}" for j in range(x.shape[1])] + ["label"])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(
            fh, np.column_stack([x, y]), delimiter=",", header=header, comments="",
            fmt=["%.17g"] * x.shape[1] + ["%d"],
        )


def prepare(workload: str, seed: int, work: Path, python: str, env: dict) -> dict:
    """Write the inputs and the config into `work`; return the paths the
    checks need: config, d1/d2 CSVs, and the CV seed list."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    spec = WORKLOADS[workload]
    cfg = {
        "reducer": spec["reducer"], "reducers": spec["reducers"], "R": R, "k": K,
        "folds": spec["folds"], "seed": seed,
    }
    d1_csv, d2_csv = inputs / "D1.csv", inputs / "D2.csv"
    if workload == "evaluate-acceptance":
        cfg["inputs"] = {"synthetic": ACCEPTANCE_SYNTH}
        cfg["seeds"] = ACCEPTANCE_CV_SEEDS
    else:
        n1, k1, n2, k2 = CSV_SHAPES[workload]
        (x1, y1), (x2, y2) = latent_pair(seed, n1, k1, n2, k2)
        write_csv(d1_csv, "a", x1, y1)
        write_csv(d2_csv, "b", x2, y2)
        cfg["inputs"] = {"files": {
            "d1": {"path": str(d1_csv), "label_column": "label"},
            "d2": {"path": str(d2_csv), "label_column": "label"},
        }}
        cfg["seeds"] = [seed]
    config = work / "config.json"
    config.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    if workload == "evaluate-acceptance":
        # the checks read the synthetic pair that the commands draw in memory,
        # written to D1.csv and D2.csv by the `synth` command
        subprocess.run(
            [python, "-m", "disjoint_link.cli", "synth", "--config", str(config), "--out", str(inputs)],
            env=env, check=True, stdout=subprocess.DEVNULL, timeout=60,
        )
    return {"config": config, "d1": d1_csv, "d2": d2_csv, "seeds": cfg["seeds"],
            "folds": cfg["folds"], "reducers": cfg["reducers"], "k": K}
