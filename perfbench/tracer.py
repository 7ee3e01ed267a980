"""Run one disjoint-link CLI command with timers around the package's layers.

Usage: python3 perfbench/tracer.py TRACE_JSON <disjoint-link arguments...>

Every public function named in SPANS is replaced, in every module of the
package that holds a reference to it, by a wrapper that records wall time,
call count, the time spent in wrapped callees (for self time) and work counts
computed from the arguments. `evaluation` and `linkage` import `fit_pca`,
`fit_autoencoder` and friends by name and `cli` imports the commands' entry
points by name, so patching only the defining module would miss those calls;
`_kernels` is called through its module, where the attribute is patched.
The totals go to TRACE_JSON; the exit code is the CLI's.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

from disjoint_link import (
    _kernels,
    autoencoder,
    cli,
    data,
    evaluation,
    figures,
    linkage,
    reducers,
    synth,
)
import disjoint_link

MODULES = (disjoint_link, _kernels, autoencoder, cli, data, evaluation, figures, linkage, reducers, synth)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _ae_steps(args, kwargs, _result):
    X = _arg(args, kwargs, 0, "X")
    hyper = _arg(args, kwargs, 2, "hyper") or autoencoder.AutoencoderHyper()
    return {"steps": hyper.epochs * math.ceil(len(X) / hyper.batch_size)}


def _pairs(args, kwargs, _result):
    n = len(_arg(args, kwargs, 0, "a")) * len(_arg(args, kwargs, 1, "b"))
    return {"pairs": n, "bytes_out": 8 * n}


def _cells(args, kwargs, _result):
    return {"cells": _arg(args, kwargs, 0, "dist").size}


def _rows(args, kwargs, _result):
    return {"rows": len(_arg(args, kwargs, 1, "idx"))}


def _file_bytes(pos):
    def count(args, kwargs, _result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, pos, "path"))}

    return count


# metric prefix -> the (module, function name) pairs it covers, the work
# counter computed from each call's arguments, and the counts it returns
SPANS = {
    "synth.synthesize_disjoint_pair": ([(synth, "synthesize_disjoint_pair")], None, ()),
    "data.load_csv": ([(data, "load_csv")], _file_bytes(0), ("bytes",)),
    "data.standardization": (
        [(data, "fit_standardization"), (data, "apply_standardization")], None, ()),
    "data.stratified_kfold": ([(data, "stratified_kfold")], None, ()),
    "reducers.fit_pca": ([(reducers, "fit_pca")], None, ()),
    "reducers.project_pca": ([(reducers, "project_pca")], None, ()),
    "reducers.compute_t_scores": ([(reducers, "compute_t_scores")], None, ()),
    "reducers.normalize_latent": ([(reducers, "normalize_latent")], None, ()),
    "autoencoder.fit_autoencoder": ([(autoencoder, "fit_autoencoder")], _ae_steps, ("steps",)),
    "autoencoder.encode": ([(autoencoder, "encode")], None, ()),
    "kernels.pairwise_euclidean": ([(_kernels, "pairwise_euclidean")], _pairs, ("pairs", "bytes_out")),
    "kernels.k_smallest": ([(_kernels, "k_smallest")], _cells, ("cells",)),
    "kernels.median_over_rows": ([(_kernels, "median_over_rows")], _rows, ("rows",)),
    "linkage.link_detailed": ([(linkage, "link_detailed")], None, ()),
    "linkage.random_neighbor_map": ([(linkage, "random_neighbor_map")], None, ()),
    "linkage.csv_write": (
        [(linkage, "linked_to_csv"), (linkage, "neighbors_to_csv")], _file_bytes(1), ("bytes",)),
    "evaluation.evaluate_conditions": ([(evaluation, "evaluate_conditions")], None, ()),
    "evaluation.prepare_d2_context": ([(evaluation, "prepare_d2_context")], None, ()),
    "evaluation.run_fold_condition": ([(evaluation, "run_fold_condition")], None, ()),
    "evaluation.fit_logistic": ([(evaluation, "fit_logistic")], None, ()),
    "evaluation.predict_proba": ([(evaluation, "predict_proba")], None, ()),
    "evaluation.auroc": ([(evaluation, "auroc")], None, ()),
    "figures.export_projection_2d": ([(figures, "export_projection_2d")], None, ()),
    "figures.write": (
        [(figures, "projection_to_csv"), (figures, "write_projection_svg")], None, ()),
    "cli.load_config": ([(cli, "load_config")], None, ()),
}

# autoencoder fits whose latents feed a reported AUROC; any other fit during
# `evaluate` (the after.svg re-link) is repeated work
USEFUL_FIT_PARENT = "evaluation.evaluate_conditions"


class Tracer:
    """Per-metric totals: s, calls, child_s and work counters."""

    def __init__(self):
        self.totals = {
            name: {"s": 0.0, "calls": 0, "child_s": 0.0, **dict.fromkeys(counts, 0)}
            for name, (_, _, counts) in SPANS.items()
        }
        self.totals["autoencoder.fit_autoencoder"]["useful"] = 0
        self._stack: list[list] = []  # [metric, child seconds]

    def wrap(self, metric, fn, work):
        def traced(*args, **kwargs):
            active = [frame[0] for frame in self._stack]
            if metric == "autoencoder.fit_autoencoder" and USEFUL_FIT_PARENT in active:
                self.totals[metric]["useful"] += 1
            reentrant = metric in active
            frame = [metric, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
            tot = self.totals[metric]
            tot["calls"] += 1
            if not reentrant:
                tot["s"] += elapsed
                tot["child_s"] += frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    tot[key] += int(value)
            return result

        return traced

    def install(self) -> None:
        for metric, (targets, work, _) in SPANS.items():
            for module, name in targets:
                original = getattr(module, name)
                wrapper = self.wrap(metric, original, work)
                for mod in MODULES:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    rc = cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.totals, fh, indent=1, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
