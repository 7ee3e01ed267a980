"""Command-line orchestration: synthesize, link, evaluate from a JSON config.

Every command writes a manifest with the fully resolved configuration;
feeding that manifest back through --config reproduces the run's outputs
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .autoencoder import AutoencoderHyper
from .data import Dataset, DataError, csv_blocks, dataset_to_csv, load_csv, write_schema
from .evaluation import CONDITION_ORDER, evaluate_conditions, link_all_rows
from .figures import export_projection_2d, projection_to_csv, write_projection_svg
from .linkage import (
    DEFAULT_K,
    DEFAULT_R,
    LINK_KINDS,
    link_detailed,
    link_is_large,
    linked_columns,
    linked_to_csv,
    neighbors_columns,
    neighbors_to_csv,
    pooled,
)
from .synth import SyntheticPairConfig, synthesize_disjoint_pair


class ConfigError(ValueError):
    pass


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _as_int(value, path: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "must be an integer")
    return value


def _as_seed(value, path: str) -> int:
    seed = _as_int(value, path)
    _expect(seed >= 0, path, "must be >= 0")  # numpy's generators take no negative seed
    return seed


def _as_num(value, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "must be a number")
    # json reads NaN, Infinity and integers past a float's range as numbers
    _expect(abs(value) <= sys.float_info.max, path, "must be a finite number")
    return float(value)


def resolve_config(raw: dict, base_dir: Path) -> dict:
    """Validate a config document and fill defaults; error messages carry the
    offending field path."""
    _expect(isinstance(raw, dict), "config", "must be a JSON object")
    if set(raw) == {"command", "config"}:  # a manifest round-trips as a config
        raw = raw["config"]
    cfg: dict = {}

    inputs = raw.get("inputs")
    _expect(isinstance(inputs, dict), "inputs", "must be an object")
    has_files = "files" in inputs
    has_synth = "synthetic" in inputs
    _expect(has_files != has_synth, "inputs", "needs exactly one of 'files' or 'synthetic'")

    if has_synth:
        s = inputs["synthetic"]
        _expect(isinstance(s, dict), "inputs.synthetic", "must be an object")
        out = {}
        for name in ("latent_dim", "n1", "n2", "k1", "k2", "seed"):
            _expect(name in s, f"inputs.synthetic.{name}", "is required")
            out[name] = _as_int(s[name], f"inputs.synthetic.{name}")
        for name in ("noise_sigma", "positive_rate"):
            _expect(name in s, f"inputs.synthetic.{name}", "is required")
            out[name] = _as_num(s[name], f"inputs.synthetic.{name}")
        _expect(out["latent_dim"] >= 1, "inputs.synthetic.latent_dim", "must be >= 1")
        _expect(
            out["latent_dim"] <= min(out["k1"], out["k2"]),
            "inputs.synthetic.latent_dim",
            "must be <= min(k1, k2)",
        )
        _expect(out["noise_sigma"] >= 0, "inputs.synthetic.noise_sigma", "must be >= 0")
        _expect(0 < out["positive_rate"] < 1, "inputs.synthetic.positive_rate", "must be in (0, 1)")
        _expect(out["n1"] >= 2 and out["n2"] >= 2, "inputs.synthetic.n1", "sample counts must be >= 2")
        seed = _as_seed(out["seed"], "inputs.synthetic.seed")
        _expect(seed < 2**64, "inputs.synthetic.seed", "must be < 2**64")  # the generator's bound
        cfg["inputs"] = {"synthetic": out}
    else:
        f = inputs["files"]
        _expect(isinstance(f, dict), "inputs.files", "must be an object")
        out = {}
        for side in ("d1", "d2"):
            _expect(side in f and isinstance(f[side], dict), f"inputs.files.{side}", "is required")
            entry = f[side]
            _expect(isinstance(entry.get("path"), str), f"inputs.files.{side}.path", "must be a string")
            _expect(
                isinstance(entry.get("label_column"), str),
                f"inputs.files.{side}.label_column",
                "must be a string",
            )
            path = Path(entry["path"])
            if not path.is_absolute():
                path = base_dir / path
            _expect(path.is_file(), f"inputs.files.{side}.path", f"not a readable file: {path}")
            out[side] = {"path": str(path), "label_column": entry["label_column"]}
        cfg["inputs"] = {"files": out}

    reducer = raw.get("reducer", "autoencoder")
    _expect(reducer in LINK_KINDS, "reducer", f"must be one of {list(LINK_KINDS)}")
    cfg["reducer"] = reducer

    reducers = raw.get("reducers", ["feature_importance", "pca", "autoencoder"])
    _expect(isinstance(reducers, list) and reducers, "reducers", "must be a non-empty list")
    for i, name in enumerate(reducers):
        _expect(
            name in ("feature_importance", "pca", "autoencoder"),
            f"reducers[{i}]",
            "must be feature_importance, pca or autoencoder",
        )
    cfg["reducers"] = list(dict.fromkeys(reducers))

    cfg["R"] = _as_int(raw.get("R", DEFAULT_R), "R")
    _expect(cfg["R"] >= 1, "R", "must be >= 1")
    cfg["k"] = _as_int(raw.get("k", DEFAULT_K), "k")
    _expect(cfg["k"] >= 1, "k", "must be >= 1")
    cfg["folds"] = _as_int(raw.get("folds", 5), "folds")
    _expect(cfg["folds"] >= 2, "folds", "must be >= 2")
    cfg["seed"] = _as_seed(raw.get("seed", 0), "seed")

    seeds = raw.get("seeds", [0])
    _expect(isinstance(seeds, list) and seeds, "seeds", "must be a non-empty list")
    cfg["seeds"] = [_as_seed(s, f"seeds[{i}]") for i, s in enumerate(seeds)]

    ae = raw.get("autoencoder", {})
    _expect(isinstance(ae, dict), "autoencoder", "must be an object")
    hidden = ae.get("hidden_dims", [32])
    _expect(isinstance(hidden, list), "autoencoder.hidden_dims", "must be a list")
    cfg["autoencoder"] = {
        "hidden_dims": [_as_int(h, f"autoencoder.hidden_dims[{i}]") for i, h in enumerate(hidden)],
        "epochs": _as_int(ae.get("epochs", 200), "autoencoder.epochs"),
        "batch_size": _as_int(ae.get("batch_size", 32), "autoencoder.batch_size"),
        "learning_rate": _as_num(ae.get("learning_rate", 0.01), "autoencoder.learning_rate"),
    }
    for i, h in enumerate(cfg["autoencoder"]["hidden_dims"]):
        _expect(h >= 1, f"autoencoder.hidden_dims[{i}]", "must be >= 1")
    _expect(cfg["autoencoder"]["epochs"] >= 1, "autoencoder.epochs", "must be >= 1")
    _expect(cfg["autoencoder"]["batch_size"] >= 1, "autoencoder.batch_size", "must be >= 1")
    _expect(cfg["autoencoder"]["learning_rate"] > 0, "autoencoder.learning_rate", "must be positive")

    out_dir = raw.get("output_dir", "out")
    _expect(isinstance(out_dir, str) and out_dir, "output_dir", "must be a non-empty string")
    cfg["output_dir"] = out_dir
    return cfg


def load_config(path: str | Path) -> dict:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    return resolve_config(raw, path.parent.resolve())


def _ae_hyper(cfg: dict) -> AutoencoderHyper:
    """The configured autoencoder; each fit sets its own seed."""
    ae = cfg["autoencoder"]
    return AutoencoderHyper(
        hidden_dims=tuple(ae["hidden_dims"]),
        epochs=ae["epochs"],
        batch_size=ae["batch_size"],
        learning_rate=ae["learning_rate"],
    )


def _load_pair(cfg: dict) -> tuple[Dataset, Dataset]:
    inputs = cfg["inputs"]
    if "synthetic" in inputs:
        return synthesize_disjoint_pair(SyntheticPairConfig(**inputs["synthetic"]))
    files = inputs["files"]
    d1 = load_csv(files["d1"]["path"], files["d1"]["label_column"])
    d2 = load_csv(files["d2"]["path"], files["d2"]["label_column"])
    return d1, d2


def _write_manifest(out_dir: Path, command: str, cfg: dict) -> None:
    doc = {"command": command, "config": cfg}
    (out_dir / "manifest.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _out_dir(cfg: dict, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    cfg["output_dir"] = str(out)
    return out


def cmd_synth(cfg: dict, out_override: str | None = None) -> Path:
    if "synthetic" not in cfg["inputs"]:
        raise ConfigError("inputs.synthetic: required by the synth command")
    out = _out_dir(cfg, out_override)
    d1, d2 = _load_pair(cfg)
    dataset_to_csv(d1, out / "D1.csv")
    dataset_to_csv(d2, out / "D2.csv")
    write_schema(d1.schema, out / "D1.schema.json")
    write_schema(d2.schema, out / "D2.schema.json")
    _write_manifest(out, "synth", cfg)
    return out

def cmd_link(cfg: dict, out_override: str | None = None) -> Path:
    d1, d2 = _load_pair(cfg)  # before the output directory: a data error leaves none
    out = _out_dir(cfg, out_override)
    res = link_detailed(
        d1, d2, cfg["reducer"],
        k=cfg["k"], r=cfg["R"], ae_hyper=_ae_hyper(cfg), seed=cfg["seed"],
    )
    files = [(linked_to_csv, res.d12, linked_columns(res.d12), "D12.csv"),
             (linked_to_csv, res.d21, linked_columns(res.d21), "D21.csv"),
             (neighbors_to_csv, res.neighbors_12, neighbors_columns(res.neighbors_12), "neighbors.csv")]
    blocks = [csv_blocks(columns) for _, _, (_, columns), _ in files]
    # a large link formats every block of its three files on one pool; the
    # files are written here, in order, so the first error is the serial one
    in_pool = link_is_large(d1.n, d2.n, cfg["k"])
    with pooled([(task, in_pool) for file_blocks in blocks for task in file_blocks]) as texts:
        texts = iter(texts)
        for (write, obj, _, name), file_blocks in zip(files, blocks):
            write(obj, out / name, [next(texts) for _ in file_blocks])
    (out / "reducer.json").write_text(
        json.dumps(res.reducer_payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_manifest(out, "link", cfg)
    return out


def cmd_evaluate(cfg: dict, out_override: str | None = None) -> Path:
    d1, d2 = _load_pair(cfg)
    if d1.k < 2:  # before.svg projects D1 onto its top two principal axes
        raise DataError(f"D1 ({d1.id}) has {d1.k} feature; evaluate's 2-D projection needs at least 2")
    out = _out_dir(cfg, out_override)
    conditions = ["unlinked", "random", *cfg["reducers"]]
    report = evaluate_conditions(
        d1, d2, conditions,
        folds=cfg["folds"], seeds=cfg["seeds"],
        k=cfg["k"], r=cfg["R"], ae_hyper=_ae_hyper(cfg),
    )
    (out / "report.json").write_text(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out / "table.txt").write_text(report.to_table_text(), encoding="utf-8")

    before = export_projection_2d(d1)
    projection_to_csv(before, out / "before.csv")
    write_projection_svg(before, out / "before.svg", title=f"{d1.id} before linkage")

    linked_conditions = [c for c in cfg["reducers"] if c in report.conditions]
    best = max(
        linked_conditions,
        key=lambda c: (report.conditions[c].mean, -CONDITION_ORDER.index(c)),
    )
    after = export_projection_2d(link_all_rows(report, best))
    projection_to_csv(after, out / "after.csv")
    write_projection_svg(after, out / "after.svg", title=f"{d1.id} after {best} linkage")
    _write_manifest(out, "evaluate", cfg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="disjoint-link",
        description="Link disjoint tabular datasets and measure the prediction lift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate a synthetic disjoint dataset pair"),
        ("link", "link two datasets and write D12/D21"),
        ("evaluate", "cross-validated AUROC comparison of linkage conditions"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config or manifest")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
    args = parser.parse_args(argv)

    handlers = {"synth": cmd_synth, "link": cmd_link, "evaluate": cmd_evaluate}
    try:
        cfg = load_config(args.config)
        out = handlers[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"error: [config] {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: [{args.command}] {exc}", file=sys.stderr)
        return 1
    print(f"{args.command}: outputs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
