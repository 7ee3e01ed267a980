import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from disjoint_link import _kernels, cli, data, evaluation, linkage
from disjoint_link.autoencoder import AutoencoderHyper
from disjoint_link.cli import main
from disjoint_link.data import DataError
from disjoint_link.evaluation import CONDITION_ORDER, run_fold_conditions
from disjoint_link.figures import export_projection_2d, projection_to_csv
from disjoint_link.synth import SyntheticPairConfig, synthesize_disjoint_pair


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


def synth_config(out_dir, n1=40, n2=60, k1=3, k2=5, seed=3, **extra):
    doc = {
        "inputs": {
            "synthetic": {
                "latent_dim": 2, "n1": n1, "n2": n2, "k1": k1, "k2": k2,
                "noise_sigma": 0.5, "positive_rate": 0.3, "seed": seed,
            }
        },
        "output_dir": str(out_dir),
    }
    doc.update(extra)
    return doc


def read_all_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


class TestSynthCommand:
    def test_writes_expected_files(self, tmp_path):
        cfg = write_config(tmp_path, synth_config(tmp_path / "out"))
        assert main(["synth", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        d1_lines = (out / "D1.csv").read_text().splitlines()
        assert len(d1_lines) == 41  # header + 40 rows
        assert len(d1_lines[0].split(",")) == 4  # 3 features + label
        assert (out / "D2.csv").exists() and (out / "manifest.json").exists()
        schema = json.loads((out / "D1.schema.json").read_text())
        assert [e["kind"] for e in schema] == ["numeric"] * 3
        assert {"name", "kind", "categories"} <= set(schema[0])

    def test_byte_identical_reruns(self, tmp_path):
        cfg1 = write_config(tmp_path, synth_config(tmp_path / "a"), "c1.json")
        cfg2 = write_config(tmp_path, synth_config(tmp_path / "b"), "c2.json")
        assert main(["synth", "--config", str(cfg1)]) == 0
        assert main(["synth", "--config", str(cfg2)]) == 0
        a = read_all_bytes(tmp_path / "a")
        b = read_all_bytes(tmp_path / "b")
        assert a.keys() == b.keys()
        for name in a:
            if name != "manifest.json":  # manifest embeds the output dir
                assert a[name] == b[name], name

    def test_rerun_from_manifest_reproduces(self, tmp_path):
        cfg = write_config(tmp_path, synth_config(tmp_path / "out"))
        assert main(["synth", "--config", str(cfg)]) == 0
        first = read_all_bytes(tmp_path / "out")
        manifest = tmp_path / "out" / "manifest.json"
        assert main(["synth", "--config", str(manifest)]) == 0
        assert read_all_bytes(tmp_path / "out") == first

    def test_invalid_positive_rate_names_field(self, tmp_path, capsys):
        doc = synth_config(tmp_path / "out")
        doc["inputs"]["synthetic"]["positive_rate"] = 1.5
        cfg = write_config(tmp_path, doc)
        assert main(["synth", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "inputs.synthetic.positive_rate" in err and "[config]" in err

    def test_files_input_rejected_for_synth(self, tmp_path, capsys):
        d9 = tmp_path / "d.csv"
        d9.write_text("x,label\n1,0\n2,1\n", encoding="utf-8")
        doc = {
            "inputs": {"files": {
                "d1": {"path": str(d9), "label_column": "label"},
                "d2": {"path": str(d9), "label_column": "label"},
            }},
            "output_dir": str(tmp_path / "out"),
        }
        cfg = write_config(tmp_path, doc)
        assert main(["synth", "--config", str(cfg)]) == 2


class TestLinkCommand:
    def test_dimension_contract_in_csv(self, tmp_path):
        doc = synth_config(tmp_path / "out", reducer="pca", k=3, R=2)
        cfg = write_config(tmp_path, doc)
        assert main(["link", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        header = (out / "D12.csv").read_text().splitlines()[0].split(",")
        assert len(header) == 3 + 5 + 1
        header21 = (out / "D21.csv").read_text().splitlines()[0].split(",")
        assert len(header21) == 5 + 3 + 1
        assert (out / "neighbors.csv").exists()
        reducer = json.loads((out / "reducer.json").read_text())
        assert reducer["kind"] == "pca" and reducer["R"] == 2

    def test_random_reducer_reproducible(self, tmp_path):
        doc = synth_config(tmp_path / "a", reducer="random", k=2, seed=5)
        cfg1 = write_config(tmp_path, doc, "c1.json")
        doc2 = synth_config(tmp_path / "b", reducer="random", k=2, seed=5)
        cfg2 = write_config(tmp_path, doc2, "c2.json")
        assert main(["link", "--config", str(cfg1)]) == 0
        assert main(["link", "--config", str(cfg2)]) == 0
        assert (tmp_path / "a" / "D12.csv").read_bytes() == (tmp_path / "b" / "D12.csv").read_bytes()

    def test_missing_label_column_named(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("x,y,label\n1,2,0\n3,4,1\n5,6,0\n", encoding="utf-8")
        doc = {
            "inputs": {"files": {
                "d1": {"path": str(good), "label_column": "label"},
                "d2": {"path": str(good), "label_column": "died"},
            }},
            "reducer": "pca",
            "R": 1,
            "k": 1,
            "output_dir": str(tmp_path / "out"),
        }
        cfg = write_config(tmp_path, doc)
        assert main(["link", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "died" in err and "[link]" in err
        assert not (tmp_path / "out").exists()  # the inputs are read before any output

    def test_id_column_fails_by_name(self, tmp_path, capsys):
        # one text id per row would one-hot encode into one column per row
        d1 = tmp_path / "d1.csv"
        d1.write_text("caseid,x,label\n" + "".join(f"id{i},{i % 7},{i % 2}\n" for i in range(60)),
                      encoding="utf-8")
        doc = {
            "inputs": {"files": {side: {"path": str(d1), "label_column": "label"} for side in ("d1", "d2")}},
            "reducer": "pca",
            "output_dir": str(tmp_path / "out"),
        }
        assert main(["link", "--config", str(write_config(tmp_path, doc))]) == 1
        err = capsys.readouterr().err
        assert "error: [link] column 'caseid' has 60 distinct values" in err
        assert "schema hint or drop the column" in err

    @pytest.mark.parametrize("reducer", ["pca", "autoencoder"])
    def test_k_above_d1_rows_fails_before_any_fit(self, tmp_path, capsys, monkeypatch, reducer):
        # D21 links D2's rows into D1's 30, so k = 35 cannot be met; the
        # error comes before either side is fitted and leaves no directory
        fits, fit_reducer = [], linkage.fit_reducer
        monkeypatch.setattr(linkage, "fit_reducer", lambda *job: fits.append(job[0]) or fit_reducer(*job))
        doc = synth_config(tmp_path / "out", n1=30, n2=40, reducer=reducer, k=35, R=2,
                           autoencoder={"hidden_dims": [4], "epochs": 3,
                                        "batch_size": 16, "learning_rate": 0.01})
        assert main(["link", "--config", str(write_config(tmp_path, doc))]) == 1
        assert "error: [link] k=35 must lie in [1, 30]" in capsys.readouterr().err
        assert fits == []
        assert not (tmp_path / "out").exists()

    def test_autoencoder_link_writes_reducer_payload(self, tmp_path):
        doc = synth_config(tmp_path / "out", reducer="autoencoder", k=2, R=2,
                           autoencoder={"hidden_dims": [4], "epochs": 3,
                                        "batch_size": 16, "learning_rate": 0.01})
        cfg = write_config(tmp_path, doc)
        assert main(["link", "--config", str(cfg)]) == 0
        reducer = json.loads((tmp_path / "out" / "reducer.json").read_text())
        assert reducer["kind"] == "autoencoder"
        assert "encoder" in reducer["d1"] and "decoder" in reducer["d2"]


def inline_pool(tasks):
    """`linkage.pooled` run in this process."""
    return linkage.pooled(tasks, in_pool=False)


class TestEvaluateCommand:
    def evaluate_config(self, out_dir):
        return synth_config(
            out_dir, n1=40, n2=60,
            reducers=["feature_importance", "pca", "autoencoder"],
            folds=2, seeds=[0], k=3, R=2,
            autoencoder={"hidden_dims": [4], "epochs": 5, "batch_size": 16,
                         "learning_rate": 0.01},
        )

    def test_full_run_outputs(self, tmp_path):
        cfg = write_config(tmp_path, self.evaluate_config(tmp_path / "out"))
        assert main(["evaluate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        for name in ("report.json", "table.txt", "before.svg", "after.svg",
                     "before.csv", "after.csv", "manifest.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert set(report["conditions"]) == {
            "unlinked", "random", "feature_importance", "pca", "autoencoder"
        }

    def test_table_row_order_mirrors_reference(self, tmp_path):
        cfg = write_config(tmp_path, self.evaluate_config(tmp_path / "out"))
        assert main(["evaluate", "--config", str(cfg)]) == 0
        table = (tmp_path / "out" / "table.txt").read_text()
        rows = [l.split("|")[0].strip() for l in table.splitlines() if "|" in l and "±" in l]
        assert rows == ["Unlinked", "Random", "Feature importance",
                        "Principal component analysis", "Autoencoder"]

    def test_rerun_from_manifest_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.evaluate_config(tmp_path / "out"))
        assert main(["evaluate", "--config", str(cfg)]) == 0
        first = read_all_bytes(tmp_path / "out")
        assert main(["evaluate", "--config", str(tmp_path / "out" / "manifest.json")]) == 0
        assert read_all_bytes(tmp_path / "out") == first

    @pytest.mark.parametrize("reducers", [["autoencoder"], ["feature_importance", "pca"]])
    def test_after_projection_is_the_first_cv_seeds_link(self, tmp_path, reducers):
        doc = self.evaluate_config(tmp_path / "out")
        doc.update(reducers=reducers, seeds=[3, 0], seed=9)
        assert main(["evaluate", "--config", str(write_config(tmp_path, doc))]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        best = max(reducers, key=lambda c: (report["conditions"][c]["mean"], -CONDITION_ORDER.index(c)))
        d1, d2 = synthesize_disjoint_pair(SyntheticPairConfig(**doc["inputs"]["synthetic"]))
        hyper = AutoencoderHyper(hidden_dims=(4,), epochs=5, batch_size=16, learning_rate=0.01)
        res = linkage.link_detailed(d1, d2, best, k=3, r=2, ae_hyper=hyper, seed=3)
        projection_to_csv(export_projection_2d(res.d12), tmp_path / "want.csv")
        assert (tmp_path / "out" / "after.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_d2_is_fitted_once_per_cv_seed_and_condition(self, tmp_path, monkeypatch):
        # with the pooled tasks run here, once each, every fit calls
        # `evaluation.fit_reducer` in this process, after.svg's D1 sides
        # included: evaluate fits one on all rows per linked condition
        listed = []

        def recording_fit(*job):
            listed.append(job)
            return linkage.fit_reducer(*job)

        monkeypatch.setattr(evaluation, "pooled", inline_pool)
        monkeypatch.setattr(evaluation, "fit_reducer", recording_fit)
        doc = self.evaluate_config(tmp_path / "out")
        doc["seeds"] = [0, 1]
        assert main(["evaluate", "--config", str(write_config(tmp_path, doc))]) == 0
        d2_fits = [(kind, hyper.seed) for kind, d, _, hyper in listed if d.n == 60]
        assert len(d2_fits) == len(set(d2_fits)) == 2 * 3
        all_rows = [kind for kind, d, _, _ in listed if d.n == 40]
        assert sorted(all_rows) == ["autoencoder", "feature_importance", "pca"]

    def test_d2_rows_are_never_the_query(self, tmp_path, monkeypatch):
        # after.svg plots D12 only, so no search of evaluate, the cells' or
        # after.svg's, links D2's 60 rows into D1
        query_rows, nearest = [], _kernels.nearest

        def recording_nearest(z_query, *args):
            query_rows.append(len(z_query))
            return nearest(z_query, *args)

        monkeypatch.setattr(evaluation, "pooled", inline_pool)
        monkeypatch.setattr(_kernels, "nearest", recording_nearest)
        doc = self.evaluate_config(tmp_path / "out")
        assert main(["evaluate", "--config", str(write_config(tmp_path, doc))]) == 0
        assert 60 not in query_rows
        # one search per link: a cell's 20 training and 20 test rows, and after.svg's D1
        assert sorted(set(query_rows)) == [40]

    def test_a_failed_all_rows_fit_raises_only_for_the_best_condition(self, tmp_path, monkeypatch, capsys):
        # after.svg projects the best condition's all-rows D12 alone: another
        # condition's failed all-rows fit is stored and never read
        doc = self.evaluate_config(tmp_path / "ok")
        assert main(["evaluate", "--config", str(write_config(tmp_path, doc))]) == 0
        want = read_all_bytes(tmp_path / "ok")
        del want["manifest.json"]  # it names the output directory
        report = json.loads(want["report.json"])
        reducers = doc["reducers"]
        best = max(reducers, key=lambda c: (report["conditions"][c]["mean"], -CONDITION_ORDER.index(c)))
        fit_reducer, failing = linkage.fit_reducer, []

        def failing_fit(kind, d, *args):
            if d.n == 40 and kind in failing:  # D1's all rows; its training folds have 20
                raise DataError(f"{kind} all-rows fit failed")
            return fit_reducer(kind, d, *args)

        monkeypatch.setattr(evaluation, "fit_reducer", failing_fit)
        use_cores(monkeypatch, {0, 1})
        for cond in reducers:
            failing[:] = [cond]
            doc = self.evaluate_config(tmp_path / cond)
            code = main(["evaluate", "--config", str(write_config(tmp_path, doc))])
            if cond == best:
                assert code == 1
                assert f"error: [evaluate] {cond} all-rows fit failed" in capsys.readouterr().err
                assert not (tmp_path / cond).exists()
            else:
                assert code == 0, cond
                got = read_all_bytes(tmp_path / cond)
                del got["manifest.json"]
                assert got == want, cond
            assert multiprocessing.active_children() == []

    def test_training_folds_cap_r_below_the_all_rows_fold(self, tmp_path):
        # 10 rows in 2 folds: the smallest training fold caps the evaluated R
        # below the all-rows fold's 6, so after.svg's D1 fit must take the
        # evaluated D2 fit's R
        doc = synth_config(tmp_path / "out", n1=10, k1=6, k2=8, seed=6, reducers=["pca"], folds=2, R=6)
        assert main(["evaluate", "--config", str(write_config(tmp_path, doc))]) == 0
        assert (tmp_path / "out" / "after.csv").read_text().count("\n") == 1 + 10

    def test_one_feature_d1_rejected_before_any_output(self, tmp_path, capsys):
        doc = synth_config(tmp_path / "out", k1=1, reducers=["pca"], folds=2, R=1)
        doc["inputs"]["synthetic"]["latent_dim"] = 1
        assert main(["evaluate", "--config", str(write_config(tmp_path, doc))]) == 1
        assert "error: [evaluate] D1 (synth1-seed3) has 1 feature" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, message", [
        ({"k": 41}, "k=41 exceeds the source dataset size 40"),
        ({"folds": 20}, "members, fewer than 20 folds"),
    ])
    def test_failed_evaluation_leaves_no_directory(self, tmp_path, capsys, change, message):
        doc = synth_config(tmp_path / "out", n1=30, n2=40, **{"reducers": ["pca"], "folds": 2, "R": 2, **change})
        assert main(["evaluate", "--config", str(write_config(tmp_path, doc))]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, self.evaluate_config(tmp_path / "ignored"))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "chosen")]) == 0
        assert (tmp_path / "chosen" / "report.json").exists()
        assert not (tmp_path / "ignored").exists()


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every process pool opened, in order."""
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def use_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)


class TestPooledFits:
    def test_outputs_do_not_depend_on_worker_count(self, tmp_path, monkeypatch, pool_sizes):
        outputs = []
        for cores in ({0}, {0, 1}):
            use_cores(monkeypatch, cores)
            out = tmp_path / str(len(cores))
            evaluate = TestEvaluateCommand().evaluate_config(out / "evaluate")
            link = synth_config(out / "link", reducer="autoencoder", k=2, R=2,
                                autoencoder={"hidden_dims": [4], "epochs": 3,
                                             "batch_size": 16, "learning_rate": 0.01})
            assert main(["evaluate", "--config", str(write_config(tmp_path, evaluate))]) == 0
            assert main(["link", "--config", str(write_config(tmp_path, link))]) == 0
            outputs.append(((out / "evaluate" / "report.json").read_bytes(),
                            (out / "link" / "reducer.json").read_bytes()))
        assert sorted(set(pool_sizes)) == [1, 2]
        assert outputs[0] == outputs[1]
        assert b"training_log" in outputs[0][1]

    def test_evaluate_with_autoencoder_does_not_depend_on_worker_count(self, tmp_path, monkeypatch, pool_sizes):
        # the autoencoder is the only reducer, so after.svg links its all-rows
        # D1 side, which trains on the pool after the fold fits; the
        # autoencoder cells run on a second pool once their fits are back
        outputs = []
        for cores in ({0}, {0, 1}):
            use_cores(monkeypatch, cores)
            out = tmp_path / str(len(cores))
            doc = TestEvaluateCommand().evaluate_config(out)
            doc["reducers"] = ["autoencoder"]
            assert main(["evaluate", "--config", str(write_config(tmp_path, doc))]) == 0
            outputs.append([(out / name).read_bytes() for name in ("report.json", "after.csv", "after.svg")])
        assert pool_sizes == [1, 1, 2, 2]
        assert outputs[0] == outputs[1]

    def test_cells_do_not_depend_on_worker_count(self, tmp_path, monkeypatch, pool_sizes):
        # no autoencoder: the pool runs only the fold-by-condition cells
        reports = []
        for cores in ({0}, {0, 1}):
            use_cores(monkeypatch, cores)
            out = tmp_path / str(len(cores))
            doc = synth_config(out, reducers=["feature_importance", "pca"], folds=3, seeds=[0, 1], k=3, R=2)
            assert main(["evaluate", "--config", str(write_config(tmp_path, doc))]) == 0
            reports.append((out / "report.json").read_bytes())
        assert pool_sizes == [1, 2]
        assert reports[0] == reports[1]

    def test_failing_cells_report_the_serial_runs_first_error(self, tmp_path, monkeypatch, capsys):
        # the serial run's first failing cell is the last to fail here: its
        # chunk's worker sleeps first, while the other worker reaches a later
        # one
        def failing_run(cells, **kwargs):
            failed = {("feature_importance", 0): "feature_importance fold 0 failed",
                      ("pca", 1): "pca fold 1 failed"}
            keys = [(cell[0], cell[6]) for cell in cells]
            if ("feature_importance", 0) in keys:
                time.sleep(0.5)
            return [DataError(failed[key]) if key in failed else out
                    for key, out in zip(keys, run_fold_conditions(cells, **kwargs))]

        monkeypatch.setattr(evaluation, "run_fold_conditions", failing_run)
        use_cores(monkeypatch, {0, 1})
        doc = synth_config(tmp_path / "out", reducers=["feature_importance", "pca"], folds=3, k=3, R=2)
        assert main(["evaluate", "--config", str(write_config(tmp_path, doc))]) == 1
        assert "error: [evaluate] feature_importance fold 0 failed" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_divergence_reports_the_first_failing_fit(self, tmp_path, capsys):
        # the acceptance pair with a learning rate that overflows every fit:
        # the error is the serial run's first one, D2's fit for evaluate and
        # D1's for link
        doc = {
            "inputs": {"synthetic": {
                "latent_dim": 3, "n1": 300, "k1": 6, "n2": 3000, "k2": 10,
                "noise_sigma": 1.0, "positive_rate": 0.05, "seed": 11,
            }},
            "reducer": "autoencoder",
            "seeds": [0],
            "autoencoder": {"learning_rate": 1e6},
            "output_dir": str(tmp_path / "out"),
        }
        cfg = write_config(tmp_path, doc)
        for command, epoch in (("evaluate", 0), ("link", 2)):
            assert main([command, "--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert f"error: [{command}] non-finite reconstruction loss at epoch {epoch};" in err
            assert multiprocessing.active_children() == []

    def test_no_search_runs_in_the_main_process(self, tmp_path, monkeypatch):
        # every search of evaluate, the cells' and after.svg's all-rows D12s,
        # runs in a pool worker; the main process only reads results
        log, nearest = tmp_path / "pids.log", _kernels.nearest

        def recording_nearest(*args):
            with open(log, "a", encoding="utf-8") as fh:  # one line per search, from any process
                fh.write(f"{os.getpid()}\n")
            return nearest(*args)

        monkeypatch.setattr(_kernels, "nearest", recording_nearest)
        use_cores(monkeypatch, {0, 1})
        doc = TestEvaluateCommand().evaluate_config(tmp_path / "out")
        assert main(["evaluate", "--config", str(write_config(tmp_path, doc))]) == 0
        pids = log.read_text(encoding="utf-8").split()
        # three linked conditions: 2 fold cells and 1 all-rows D12 each
        assert len(pids) == 3 * (2 + 1)
        assert str(os.getpid()) not in pids

    def test_cli_import_loads_no_pool_module(self):
        # every command pays its imports (`setup_s`); the pool's modules
        # load only when a pool opens
        code = "import sys, disjoint_link.cli; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=60)
        assert run.stdout == "[]\n"

    def test_blas_runs_one_thread_per_process_unless_set(self):
        # each pool worker already has a core; a threaded BLAS in every
        # worker would compete for them. A thread count the user set wins
        names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        code = """if True:
            import ctypes, json, os
            import disjoint_link, numpy
            threads = None  # as OpenBLAS reports it, when numpy links OpenBLAS
            for path in sorted({line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()}):
                for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                    get = getattr(ctypes.CDLL(path), name, None)
                    threads = get() if get is not None else threads
            print(json.dumps([[os.environ.get(name) for name in %r], threads]))
        """ % (names,)
        env = {name: value for name, value in os.environ.items() if name not in names}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])

        def child(**extra):
            run = subprocess.run([sys.executable, "-c", code], env={**env, **extra}, capture_output=True,
                                 text=True, check=True, timeout=60)
            return json.loads(run.stdout)

        values, threads = child()
        assert values == ["1", "1", "1"]
        assert threads in (None, 1)
        values, threads = child(OPENBLAS_NUM_THREADS="3")
        assert values == ["1", "3", "1"]
        assert threads is None or threads > 1 or len(os.sched_getaffinity(0)) == 1


def no_fork():
    raise AssertionError("a process was started")


class TestPooledLink:
    """A link with a file of more than one CSV block searches both ways and
    formats its CSV blocks on the pool; blocks of 16 rows make the small
    synthetic pair (D12.csv 40 rows, D21.csv 60, neighbors.csv 80) large."""

    FILES = ("D12.csv", "D21.csv", "neighbors.csv", "reducer.json")

    @pytest.mark.parametrize("reducer", ["pca", "feature_importance", "random"])
    def test_outputs_do_not_depend_on_worker_count(self, tmp_path, monkeypatch, pool_sizes, reducer):
        outputs = []
        for cores, block_rows in (({0}, 16), ({0, 1}, 16), ({0, 1}, data.CSV_BLOCK_ROWS)):
            use_cores(monkeypatch, cores)
            monkeypatch.setattr(data, "CSV_BLOCK_ROWS", block_rows)
            out = tmp_path / f"{len(cores)}-{block_rows}"
            doc = synth_config(out, reducer=reducer, k=2, R=2)
            assert main(["link", "--config", str(write_config(tmp_path, doc))]) == 0
            assert multiprocessing.active_children() == []
            outputs.append([(out / name).read_bytes() for name in self.FILES])
        # the random baseline's searches stay here; the last run, with the
        # default blocks, is serial and opens no pool
        want = [1, 2] if reducer == "random" else [1, 1, 2, 2]
        assert pool_sizes == want
        assert outputs[0] == outputs[1] == outputs[2]

    def test_failing_directions_report_d12s_error(self, tmp_path, monkeypatch, capsys):
        # D12's worker sleeps first, so D21's error comes back before it
        def failing_link_into(kind, fit1, fit2, x2, k, rng, x1):
            if len(x1) == 40:
                time.sleep(0.5)
                raise DataError("D12 failed")
            raise DataError("D21 failed")

        monkeypatch.setattr(linkage, "link_into", failing_link_into)
        monkeypatch.setattr(data, "CSV_BLOCK_ROWS", 16)
        use_cores(monkeypatch, {0, 1})
        doc = synth_config(tmp_path / "out", reducer="pca", k=2, R=2)
        assert main(["link", "--config", str(write_config(tmp_path, doc))]) == 1
        assert "error: [link] D12 failed" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_failing_block_reports_the_first_files_error(self, tmp_path, monkeypatch, capsys):
        # D12.csv's last block sleeps, then fails; a later block of
        # neighbors.csv fails at once
        csv_lines = data._csv_lines

        def failing_lines(columns, lo):
            if (len(columns[0]), lo) == (40, 32):
                time.sleep(0.5)
                raise DataError("D12.csv block failed")
            if len(columns[0]) == 80:
                raise DataError("neighbors.csv block failed")
            return csv_lines(columns, lo)

        monkeypatch.setattr(data, "_csv_lines", failing_lines)
        monkeypatch.setattr(data, "CSV_BLOCK_ROWS", 16)
        use_cores(monkeypatch, {0, 1})
        doc = synth_config(tmp_path / "out", reducer="pca", k=2, R=2)
        assert main(["link", "--config", str(write_config(tmp_path, doc))]) == 1
        assert "error: [link] D12.csv block failed" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_small_link_and_evaluate_writes_start_no_process(self, tmp_path, monkeypatch):
        # every file fits one block: link searches and formats here, and
        # evaluate's cells, run inline, leave only its CSV writes
        monkeypatch.setattr(os, "fork", no_fork)
        doc = synth_config(tmp_path / "link", reducer="pca", k=2, R=2)
        assert main(["link", "--config", str(write_config(tmp_path, doc))]) == 0
        monkeypatch.setattr(evaluation, "pooled", inline_pool)
        doc = synth_config(tmp_path / "evaluate", reducers=["pca"], folds=2, k=2, R=2)
        assert main(["evaluate", "--config", str(write_config(tmp_path, doc))]) == 0
        assert (tmp_path / "evaluate" / "after.csv").exists()


class TestValidation:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["synth", "--config", str(tmp_path / "nope.json")]) == 2
        assert "[config]" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["synth", "--config", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_both_inputs_rejected(self, tmp_path, capsys):
        doc = synth_config(tmp_path / "out")
        doc["inputs"]["files"] = {"d1": {"path": "x", "label_column": "y"},
                                  "d2": {"path": "x", "label_column": "y"}}
        cfg = write_config(tmp_path, doc)
        assert main(["synth", "--config", str(cfg)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_unresolvable_path_rejected(self, tmp_path, capsys):
        doc = {
            "inputs": {"files": {
                "d1": {"path": str(tmp_path / "missing.csv"), "label_column": "label"},
                "d2": {"path": str(tmp_path / "missing.csv"), "label_column": "label"},
            }},
            "output_dir": str(tmp_path / "out"),
        }
        cfg = write_config(tmp_path, doc)
        assert main(["link", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "inputs.files.d1.path" in err

    @pytest.mark.parametrize("field", ["fold", "inputs.source", "inputs.synthetic.n3", "inputs.files.d3",
                                       "inputs.files.d1.label", "autoencoder.epoch"])
    def test_unknown_field_named(self, tmp_path, capsys, field):
        # a misspelled field would otherwise take its default silently
        doc = synth_config(tmp_path / "out", reducers=["pca"], autoencoder={"epochs": 5})
        if ".files" in field:
            doc["inputs"] = {"files": {side: {"path": "x.csv", "label_column": "label"} for side in ("d1", "d2")}}
        *parents, key = field.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[key] = 3
        cfg = write_config(tmp_path, doc)
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert f"[config] {field}: unknown field" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_reducer_name(self, tmp_path, capsys):
        doc = synth_config(tmp_path / "out", reducer="umap")
        cfg = write_config(tmp_path, doc)
        assert main(["link", "--config", str(cfg)]) == 2
        assert "reducer" in capsys.readouterr().err

    def test_negative_link_seed_named(self, tmp_path, capsys):
        doc = synth_config(tmp_path / "out", reducer="pca")
        doc["seed"] = -1
        cfg = write_config(tmp_path, doc)
        assert main(["link", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "[config] seed:" in err
        assert not (tmp_path / "out").exists()

    def test_negative_evaluate_seed_named(self, tmp_path, capsys):
        doc = synth_config(tmp_path / "out", reducers=["autoencoder"], seeds=[0, -2])
        cfg = write_config(tmp_path, doc)
        assert main(["evaluate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "[config] seeds[1]:" in err
        assert not (tmp_path / "out").exists()

    def test_repeated_evaluate_seed_named(self, tmp_path, capsys):
        # a repeated CV seed would list its folds twice in report.json and
        # count them twice in the mean and sd
        doc = synth_config(tmp_path / "out", reducers=["pca"], seeds=[0, 3, 0])
        cfg = write_config(tmp_path, doc)
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert "error: [config] seeds[2]: repeats seed 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_synthetic_seed_beyond_64_bits_named(self, tmp_path, capsys):
        doc = synth_config(tmp_path / "out", seed=2**64, reducer="pca")
        cfg = write_config(tmp_path, doc)
        assert main(["link", "--config", str(cfg)]) == 2
        assert "[config] inputs.synthetic.seed:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_hidden_dim_named(self, tmp_path, capsys):
        doc = synth_config(tmp_path / "out", reducer="pca", autoencoder={"hidden_dims": [4, 0]})
        cfg = write_config(tmp_path, doc)
        assert main(["link", "--config", str(cfg)]) == 2
        assert "[config] autoencoder.hidden_dims[1]:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["link", "evaluate"])
    @pytest.mark.parametrize("field,value", [
        ("inputs.synthetic.noise_sigma", float("inf")),
        ("inputs.synthetic.positive_rate", float("nan")),
        ("autoencoder.learning_rate", float("inf")),
        ("autoencoder.learning_rate", 10**400),
    ])
    def test_non_finite_number_named(self, tmp_path, capsys, command, field, value):
        # json reads Infinity, NaN and any integer as numbers; without this
        # check an infinite noise failed after ingestion and an infinite
        # learning rate after training, both with exit 1, and an integer past
        # a float's range with a traceback
        doc = synth_config(tmp_path / "out", reducer="autoencoder", reducers=["autoencoder"])
        *parents, name = field.split(".")
        node = doc
        for key in parents:
            node = node.setdefault(key, {})
        node[name] = value
        assert main([command, "--config", str(write_config(tmp_path, doc))]) == 2
        assert f"error: [config] {field}: must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_validation_happens_before_any_output(self, tmp_path):
        doc = synth_config(tmp_path / "out")
        doc["folds"] = 1
        cfg = write_config(tmp_path, doc)
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()
