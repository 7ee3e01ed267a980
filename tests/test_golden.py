"""Byte-identical outputs as a gate: the SHA-256 of every file `link` and
`evaluate` write on small inputs, pinned in `golden_digests.json`.

`link` runs once per kind, `evaluate` once per reducer alone and once with
all three, on a small synthetic pair; a CSV pair with gaps and a coded
categorical column goes through `evaluate` too, so the loader's cell-by-cell
path is covered, and a gap-free numeric CSV pair through `link` and
`evaluate`, which numpy's reader loads. `manifest.json` names the temporary directory, which is
replaced by a placeholder before hashing.

Bits depend on the numpy and BLAS build, so the digests are stored with the
fingerprint of the build that made them, read as `perfbench/run.py` reads
it. On another build the test fails naming both fingerprints. They also
depend on the CPU kernel that an OpenBLAS built for several CPUs picks at
load time; the pinned kernel is stored as `blas_core`, outside the
fingerprint, and a digest mismatch names it next to this machine's.

A change that alters outputs on purpose re-pins in the same commit, with
`PYTHONPATH=src python tests/test_golden.py`, and says so in CHANGES.md. The
re-pin prints each `run/file` whose digest changed, appeared or vanished.
"""

import ctypes
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from disjoint_link.cli import main

GOLDEN = Path(__file__).with_name("golden_digests.json")

AUTOENCODER = {"hidden_dims": [4, 3], "epochs": 5, "batch_size": 16, "learning_rate": 0.01}
SYNTHETIC = {"latent_dim": 2, "n1": 40, "n2": 60, "k1": 3, "k2": 5,
             "noise_sigma": 0.5, "positive_rate": 0.3, "seed": 3}
EVALUATE = {"folds": 2, "seeds": [0], "k": 3, "R": 2, "autoencoder": AUTOENCODER}
ALL_REDUCERS = ["feature_importance", "pca", "autoencoder"]

# name: (command, config without inputs and output_dir, synthetic or CSV inputs)
RUNS = {
    **{f"link-{kind}": ("link", {"reducer": kind, "k": 2, "R": 2, "seed": 5, "autoencoder": AUTOENCODER}, "synthetic")
       for kind in ("feature_importance", "pca", "autoencoder", "random")},
    **{f"evaluate-{name}": ("evaluate", {**EVALUATE, "reducers": [name]}, "synthetic") for name in ALL_REDUCERS},
    "evaluate-all": ("evaluate", {**EVALUATE, "reducers": ALL_REDUCERS}, "synthetic"),
    "evaluate-csv": ("evaluate", {**EVALUATE, "reducers": ALL_REDUCERS}, "csv"),
    "link-numeric-csv": ("link", {"reducer": "pca", "k": 2, "R": 2, "seed": 5}, "numeric"),
    "evaluate-numeric-csv": ("evaluate", {**EVALUATE, "reducers": ALL_REDUCERS}, "numeric"),
}


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def blas_core() -> str | None:
    """The CPU kernel OpenBLAS runs, such as "SkylakeX", from the OpenBLAS
    library mapped into this process as `perfbench/run.py`'s ENV_PROBE finds
    it; None without OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(ctypes.CDLL(path), name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return None


def write_csv_pair(tmp: Path) -> dict:
    """D1 with a gap in a numeric column and a coded site column with gaps;
    D2 with numeric gaps and a two-code clinic column."""
    rng = np.random.default_rng(17)
    files = {}
    for side, n, codes in (("d1", 40, "ABC"), ("d2", 60, "uv")):
        z = rng.normal(size=n)
        y = (z + rng.normal(scale=0.8, size=n) > 0.5).astype(int)
        x = z[:, None] * [1.0, -0.5, 0.3] + rng.normal(scale=0.7, size=(n, 3))
        lines = ["a,b,c,site,label" if side == "d1" else "a,b,c,clinic,label"]
        for i in range(n):
            cells = [f"{v:.4f}" for v in x[i]]
            if i % 7 == 3:
                cells[i % 3] = ""
            code = "" if i % 9 == 4 else codes[int(z[i] > 0) + i % (len(codes) - 1)]
            lines.append(",".join([*cells, code, str(y[i])]))
        path = tmp / f"{side.upper()}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        files[side] = {"path": str(path), "label_column": "label"}
    return {"files": files}


def write_numeric_pair(tmp: Path) -> dict:
    """Two gap-free files of numbers, as `np.savetxt` writes them."""
    rng = np.random.default_rng(23)
    files = {}
    for side, n, k in (("d1", 40, 3), ("d2", 60, 5)):
        z = rng.normal(size=n)
        x = z[:, None] * rng.normal(size=k) + rng.normal(scale=0.7, size=(n, k))
        y = (z + rng.normal(scale=0.8, size=n) > 0.3).astype(int)
        path = tmp / f"{side.upper()}.csv"
        np.savetxt(path, np.column_stack([x, y]), delimiter=",", comments="",
                   header=",".join([f"{side}x{j}" for j in range(k)] + ["label"]), fmt=["%.17g"] * k + ["%d"])
        files[side] = {"path": str(path), "label_column": "label"}
    return {"files": files}


def run_digests(name: str, tmp: Path) -> dict:
    """Run one command into `tmp / "out"`; each output file's SHA-256."""
    command, doc, source = RUNS[name]
    tmp.mkdir(parents=True, exist_ok=True)
    inputs = {"synthetic": lambda _: {"synthetic": SYNTHETIC}, "csv": write_csv_pair,
              "numeric": write_numeric_pair}[source](tmp)
    config = tmp / "config.json"
    config.write_text(json.dumps({**doc, "inputs": inputs, "output_dir": str(tmp / "out")}), encoding="utf-8")
    assert main([command, "--config", str(config)]) == 0
    digests = {}
    for path in sorted((tmp / "out").iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = data.replace(str(tmp).encode(), b"<tmp>")
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def moved(old: dict, new: dict) -> list[str]:
    """Each `run/file` whose digest differs between two pinned `runs`
    tables, with how: changed, appeared or vanished."""
    old, new = ({f"{run}/{name}": digest for run, files in runs.items() for name, digest in files.items()}
                for runs in (old, new))
    return [f"{'vanished' if key not in new else 'appeared' if key not in old else 'changed'} {key}"
            for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]


@pytest.mark.parametrize("name", RUNS)
def test_outputs_match_pinned_digests(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if fingerprint() != golden["fingerprint"]:
        pytest.fail(f"digests were pinned on {golden['fingerprint']}; this build is {fingerprint()}")
    assert run_digests(name, tmp_path) == golden["runs"][name], (
        f"pinned on BLAS core {golden.get('blas_core')}; this machine's is {blas_core()}")


if __name__ == "__main__":
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))["runs"] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run_digests(name, Path(tmp) / name) for name in RUNS}
    print("\n".join(moved(pinned, runs)) or "no digest moved")
    GOLDEN.write_text(json.dumps({"blas_core": blas_core(), "fingerprint": fingerprint(), "runs": runs},
                                 indent=2, sort_keys=True) + "\n", encoding="utf-8")
