import json
import os
import platform
import shutil

import numpy as np
import pytest
import scipy

from kgalign import autodiff as ad
from kgalign import cli, kg, training
from kgalign import oracles as naive
from kgalign.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE


def run_cli(*argv):
    return cli.main(list(argv))


def read_bytes_dir(path):
    return {name: (path / name).read_bytes() for name in os.listdir(path)}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    code = run_cli("gen-synth", "--entities", "80", "--relations", "8",
                   "--avg-degree", "4", "--emb-dim", "12", "--seed", "3",
                   "--out", str(out))
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def run_dir(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "run"
    code = run_cli("train", "--data", str(dataset), "--epochs", "4",
                   "--d-r", "6", "--d-t", "6", "--seed", "1",
                   "--eval-every", "2", "--out", str(out))
    assert code == EXIT_OK
    return out


# ---------------------------------------------------------------- gen-synth


def test_gen_synth_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("gen-synth", "--entities", "40", "--relations", "4",
                       "--avg-degree", "3", "--emb-dim", "8", "--seed", "7",
                       "--out", str(out)) == EXIT_OK
    assert read_bytes_dir(a) == read_bytes_dir(b)


def test_gen_synth_full_drop_is_data_error(tmp_path, capsys):
    code = run_cli("gen-synth", "--entities", "40", "--relations", "4",
                   "--avg-degree", "3", "--drop-prob", "1.0",
                   "--out", str(tmp_path / "x"))
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_gen_synth_output_round_trips(dataset):
    task = kg.load_dbp15k(dataset)
    assert task.g1.num_entities == 80


# -------------------------------------------------------------------- train


def test_train_writes_artifacts(run_dir):
    assert (run_dir / "checkpoint.npz").exists()
    assert (run_dir / "manifest.json").exists()
    rows = (run_dir / "loss_log.tsv").read_text().splitlines()
    assert len(rows) == 4
    # epochs 1 and 3 carry the eval column with --eval-every 2
    assert rows[0].count("\t") == 1 and rows[1].count("\t") == 2
    assert rows[2].count("\t") == 1 and rows[3].count("\t") == 2


def test_train_manifest_contents(run_dir, dataset):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["epochs"] == 4
    assert manifest["config"]["rng_seed"] == 1
    task = kg.load_dbp15k(dataset, seed=1)
    assert manifest["task_fingerprint"] == cli.task_fingerprint(task)


def test_train_manifest_records_environment(dataset, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "run_env"
    assert run_cli("train", "--data", str(dataset), "--epochs", "1",
                   "--d-r", "4", "--d-t", "4", "--out", str(out)) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["environment"] == {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
        "OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": None,
    }


def test_train_zero_epochs_checkpoints_init(dataset, tmp_path):
    out = tmp_path / "run0"
    assert run_cli("train", "--data", str(dataset), "--epochs", "0",
                   "--d-r", "6", "--d-t", "6", "--out", str(out)) == EXIT_OK
    assert (out / "checkpoint.npz").exists()
    assert (out / "loss_log.tsv").read_text() == ""


def test_train_variant_without_type_space(dataset, tmp_path):
    out = tmp_path / "runwt"
    assert run_cli("train", "--data", str(dataset), "--epochs", "2",
                   "--variant", "wo-T", "--d-r", "6", "--d-t", "6",
                   "--out", str(out)) == EXIT_OK


def test_train_semi_flag_reaches_config(dataset, tmp_path):
    out = tmp_path / "runsemi"
    assert run_cli("train", "--data", str(dataset), "--epochs", "6",
                   "--semi", "--d-r", "6", "--d-t", "6",
                   "--out", str(out)) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["semi"] is True


def test_train_determinism_bitwise_logs(dataset, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_cli("train", "--data", str(dataset), "--epochs", "3",
                       "--d-r", "6", "--d-t", "6", "--seed", "9",
                       "--out", str(out)) == EXIT_OK
        outs.append((out / "loss_log.tsv").read_bytes())
    assert outs[0] == outs[1]


def test_train_missing_data_dir(tmp_path, capsys):
    code = run_cli("train", "--data", str(tmp_path / "absent"),
                   "--epochs", "1", "--out", str(tmp_path / "r"))
    assert code == EXIT_DATA


def _write_config(path, config):
    path.write_text(json.dumps({"config": config}))
    return path


def test_config_file_layering(dataset, tmp_path):
    config = _write_config(tmp_path / "train.json",
                           {"epochs": 5, "margin": 2.0, "d_r": 6, "d_t": 6})
    out = tmp_path / "runcfg"
    assert run_cli("train", "--data", str(dataset), "--config", str(config),
                   "--epochs", "2", "--out", str(out)) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 2  # flag overrides file
    assert manifest["config"]["margin"] == 2.0  # file overrides default
    assert manifest["config"]["d_r"] == 6


def test_config_file_unknown_key(dataset, tmp_path, capsys):
    config = _write_config(tmp_path / "bad.json", {"learning_rate": 1})
    out = tmp_path / "r"
    code = run_cli("train", "--data", str(dataset), "--config", str(config), "--out", str(out))
    assert code == EXIT_DATA
    assert f"data error: {config}: unknown config key 'learning_rate'" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_repeated_key_is_data_error(dataset, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"config": {"epochs": 5, "margin": 2.0, "epochs": 7}}')
    out = tmp_path / "r"
    code = run_cli("train", "--data", str(dataset), "--config", str(config), "--out", str(out))
    assert code == EXIT_DATA
    assert f"data error: {config}: repeated key 'epochs'" in capsys.readouterr().err
    assert not out.exists()


def _setting_id(value):
    # `key = value` for a config, pytest's own id for a message
    if isinstance(value, dict):
        return ", ".join(f"{key} = {field}" for key, field in value.items())


@pytest.mark.parametrize("setting, message", [
    ({"margin": -1}, "margin must be positive and finite"),
    ({"cycle_mode": 4}, "cycle_mode must be 1, 2, or 3"),
    ({"variant": "nope"}, "variant must be one of"),
    ({"semi": "yes"}, "semi must be true or false, got 'yes'"),
], ids=_setting_id)
def test_config_file_rejected_value_is_data_error(dataset, tmp_path, capsys, setting, message):
    config = _write_config(tmp_path / "bad.json", {"epochs": 3, **setting})
    out = tmp_path / "r"
    code = run_cli("train", "--data", str(dataset), "--config", str(config), "--out", str(out))
    assert code == EXIT_DATA
    assert f"data error: {config}: bad config value: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_train_from_a_runs_manifest_reproduces_it(run_dir, dataset, tmp_path):
    out = tmp_path / "rerun"
    assert run_cli("train", "--data", str(dataset), "--config", str(run_dir / "manifest.json"),
                   "--out", str(out)) == EXIT_OK
    assert (out / "loss_log.tsv").read_bytes() == (run_dir / "loss_log.tsv").read_bytes()
    # arrays, not bytes: np.savez stamps the zip entries' times
    with np.load(run_dir / "checkpoint.npz") as want, np.load(out / "checkpoint.npz") as got:
        assert sorted(got.files) == sorted(want.files)
        for key in want.files:
            assert np.array_equal(got[key], want[key]), key


def test_train_flags_are_config_fields():
    train = cli.build_parser()._subparsers._group_actions[0].choices["train"]
    flags = {action.dest: action.option_strings for action in train._actions
             if action.dest not in {"help", "data", "config", "out"}}
    assert flags == {
        "margin": ["--margin"], "neg_k": ["--neg-k"], "neg_refresh_epochs": ["--neg-refresh"],
        "epochs": ["--epochs"], "lr": ["--lr"], "cycle_mode": ["--cycle-mode"],
        "variant": ["--variant"], "semi": ["--semi"], "rng_seed": ["--seed"], "d_r": ["--d-r"],
        "d_t": ["--d-t"], "gcn_depth": ["--gcn-depth"], "train_ratio": ["--train-ratio"],
        "eval_every": ["--eval-every"],
    }


# --------------------------------------------------------------------- eval


def test_eval_reproduces_training_eval(run_dir, dataset, capsys):
    rows = (run_dir / "loss_log.tsv").read_text().splitlines()
    final_hits = rows[-1].split("\t")[2]
    assert run_cli("eval", "--model", str(run_dir), "--data", str(dataset)) == EXIT_OK
    printed = capsys.readouterr().out
    hits1 = [l for l in printed.splitlines() if l.startswith("hits@1")][0].split("\t")[1]
    assert f"{float(hits1):.6f}" == final_hits


def test_eval_rank_dump_row_count(run_dir, dataset, tmp_path):
    ranks = tmp_path / "ranks.tsv"
    assert run_cli("eval", "--model", str(run_dir), "--data", str(dataset),
                   "--ranks-out", str(ranks)) == EXIT_OK
    task = kg.load_dbp15k(dataset)
    assert len(ranks.read_text().splitlines()) == len(task.seeds_test)


def test_eval_rank_dump_writes_dataset_entity_ids(run_dir, dataset, tmp_path):
    # graph 2's file ids start at 1000, so its dense indices are not its ids
    shifted = tmp_path / "shifted"
    shutil.copytree(dataset, shifted)
    for name, columns in (("ent_ids_2", [0]), ("ent_emb_2", [0]),
                          ("triples_2", [0, 2]), ("ref_ent_ids", [1])):
        rows = [line.split("\t") for line in (shifted / name).read_text().splitlines()]
        for row in rows:
            for col in columns:
                row[col] = str(int(row[col]) + 1000)
        (shifted / name).write_text("".join("\t".join(row) + "\n" for row in rows))
    ranks = tmp_path / "ranks.tsv"
    assert run_cli("eval", "--model", str(run_dir), "--data", str(shifted),
                   "--ranks-out", str(ranks)) == EXIT_OK
    refs = {tuple(line.split("\t"))
            for line in (shifted / "ref_ent_ids").read_text().splitlines()}
    dumped = [tuple(line.split("\t")[:2]) for line in ranks.read_text().splitlines()]
    assert len(dumped) == len(kg.load_dbp15k(shifted).seeds_test)
    assert set(dumped) <= refs


def test_eval_on_other_data_of_the_same_shape_exits_data(run_dir, tmp_path, capsys):
    # gen-synth's seed 4 with the run's dataset settings: every shape fits
    other = tmp_path / "seed4"
    assert run_cli("gen-synth", "--entities", "80", "--relations", "8",
                   "--avg-degree", "4", "--emb-dim", "12", "--seed", "4",
                   "--out", str(other)) == EXIT_OK
    code = run_cli("eval", "--model", str(run_dir), "--data", str(other))
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "manifest.json: task_fingerprint differs" in err
    assert "Traceback" not in err


def test_eval_missing_checkpoint(dataset, tmp_path, capsys):
    code = run_cli("eval", "--model", str(tmp_path), "--data", str(dataset))
    assert code == EXIT_DATA


def test_eval_entity_count_mismatch(run_dir, tmp_path, capsys):
    other = tmp_path / "other"
    assert run_cli("gen-synth", "--entities", "50", "--relations", "5",
                   "--avg-degree", "3", "--emb-dim", "12", "--seed", "4",
                   "--out", str(other)) == EXIT_OK
    code = run_cli("eval", "--model", str(run_dir), "--data", str(other))
    assert code == EXIT_DATA
    assert "entities" in capsys.readouterr().err


@pytest.mark.parametrize("edits, message", [
    ({"gcn_depth": 3}, "checkpoint lacks parameter 'gcn.gate_b2'"),
    ({"gcn_depth": 1}, "checkpoint has unexpected parameter 'gcn.gate_b1'"),
    ({"d_r": 8}, "parameter 'enhance.head_w' has shape (18, 12), but the run's config "
                 "on this dataset (80 and 80 entities) needs (20, 12)"),
])
def test_eval_checkpoint_config_mismatch_exits_data(run_dir, dataset, tmp_path, capsys,
                                                    edits, message):
    edited = tmp_path / "edited_run"
    shutil.copytree(run_dir, edited)
    manifest = json.loads((edited / "manifest.json").read_text())
    manifest["config"].update(edits)
    (edited / "manifest.json").write_text(json.dumps(manifest))
    code = run_cli("eval", "--model", str(edited), "--data", str(dataset))
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"checkpoint.npz: {message}" in err
    assert "Traceback" not in err


def _edit_config(**edits):
    def edit(text):
        manifest = json.loads(text)
        manifest["config"].update(edits)
        return json.dumps(manifest)
    return edit


@pytest.mark.parametrize("edit, message", [
    (_edit_config(dropout=0.1), "unknown config key 'dropout'"),
    (_edit_config(margin=-1), "bad config value: margin must be positive"),
    (lambda text: text[: len(text) // 2], "not valid JSON"),  # cut off mid-write
    (lambda text: "[]", "no config object"),
    (_edit_config(d_r=8.0), "bad config value: d_r must be an integer, got 8.0"),
    (_edit_config(epochs=True), "bad config value: epochs must be an integer, got True"),
    (_edit_config(margin="3.0"), "bad config value: margin must be a real number, got '3.0'"),
    (_edit_config(semi="yes"), "bad config value: semi must be true or false, got 'yes'"),
    (lambda text: text.replace('"config": {', '"config": {"epochs": 9, ', 1),
     "repeated key 'epochs'"),
    (lambda text: json.dumps({key: value for key, value in json.loads(text).items()
                              if key != "task_fingerprint"}), "no task_fingerprint"),
], ids=["unknown-key", "bad-value", "truncated", "no-config",
        "float-for-int", "bool-for-int", "str-for-float", "str-for-bool", "repeated-key",
        "no-fingerprint"])
def test_eval_bad_manifest_config_exits_data(run_dir, dataset, tmp_path, capsys,
                                             edit, message):
    edited = tmp_path / "edited_run"
    shutil.copytree(run_dir, edited)
    manifest = edited / "manifest.json"
    manifest.write_text(edit(manifest.read_text()))
    code = run_cli("eval", "--model", str(edited), "--data", str(dataset))
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"manifest.json: {message}" in err
    assert "Traceback" not in err


def test_eval_manifest_not_utf8_exits_data(run_dir, dataset, tmp_path, capsys):
    edited = tmp_path / "edited_run"
    shutil.copytree(run_dir, edited)
    manifest = edited / "manifest.json"
    manifest.write_bytes(manifest.read_bytes().replace(b'"train"', b'"tr\xffin"', 1))
    code = run_cli("eval", "--model", str(edited), "--data", str(dataset))
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "manifest.json: not valid UTF-8" in err
    assert "Traceback" not in err


def _set_first(value):
    def poison(array):
        array[0, 0] = value
        return array
    return poison


@pytest.mark.parametrize("poison, message", [
    (_set_first(np.nan), "holds a non-finite value"),
    (_set_first(np.inf), "holds a non-finite value"),
    (lambda array: array.astype(str), "is <U32, not float64"),
], ids=["nan", "inf", "text"])
def test_eval_non_finite_checkpoint_exits_data(run_dir, dataset, tmp_path, capsys,
                                               poison, message):
    # a non-finite or non-float parameter is a damaged checkpoint, rejected
    # before any forward pass
    edited = tmp_path / "edited_run"
    shutil.copytree(run_dir, edited)
    checkpoint = edited / "checkpoint.npz"
    with np.load(checkpoint) as bundle:
        arrays = dict(bundle)
    arrays["triple.head_a"] = poison(arrays["triple.head_a"])
    np.savez(checkpoint, **arrays)
    code = run_cli("eval", "--model", str(edited), "--data", str(dataset))
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{checkpoint}: parameter 'triple.head_a' {message}" in err
    assert "Traceback" not in err


def test_eval_non_finite_embeddings_exit_numeric(run_dir, dataset, tmp_path, capsys):
    # finite values the loader accepts, but the type projection's sums
    # overflow to inf
    edited = tmp_path / "edited_run"
    shutil.copytree(run_dir, edited)
    checkpoint = edited / "checkpoint.npz"
    with np.load(checkpoint) as bundle:
        arrays = dict(bundle)
    arrays["triple.type_key_w"][...] = 1e308
    np.savez(checkpoint, **arrays)
    task, params, cfg = cli._load_run(edited, dataset)
    with np.errstate(invalid="ignore", over="ignore"):
        f1, _ = training.forward(task, params, cfg)
        assert not np.isfinite(f1.data).all()
        code = run_cli("eval", "--model", str(edited), "--data", str(dataset))
    assert code == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert "non-finite embeddings" in captured.err and "Traceback" not in captured.err
    assert "hits@1" not in captured.out


def test_eval_overflowing_neighbor_attention_exits_numeric(run_dir, dataset, tmp_path,
                                                          capsys):
    # the logits overflow and the softmax gives NaN weights, which the outer
    # ReLU passes on instead of turning them into zeros
    edited = tmp_path / "edited_run"
    shutil.copytree(run_dir, edited)
    checkpoint = edited / "checkpoint.npz"
    with np.load(checkpoint) as bundle:
        arrays = dict(bundle)
    arrays["enhance.neighbor_a"][...] = 1e308
    np.savez(checkpoint, **arrays)
    with np.errstate(invalid="ignore", over="ignore"):
        code = run_cli("eval", "--model", str(edited), "--data", str(dataset))
    assert code == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert "non-finite embeddings" in captured.err and "Traceback" not in captured.err
    assert "hits@1" not in captured.out


def test_eval_embedding_width_mismatch_exits_data(run_dir, tmp_path, capsys):
    other = tmp_path / "wider"
    assert run_cli("gen-synth", "--entities", "80", "--relations", "8",
                   "--avg-degree", "4", "--emb-dim", "16", "--seed", "3",
                   "--out", str(other)) == EXIT_OK
    code = run_cli("eval", "--model", str(run_dir), "--data", str(other))
    assert code == EXIT_DATA
    assert "parameter 'emb1' has shape (80, 12)" in capsys.readouterr().err


# ------------------------------------------------------------------- ablate


def test_ablate_variant_grid_shape(dataset, tmp_path, capsys):
    table = tmp_path / "table.tsv"
    code = run_cli("ablate", "--data", str(dataset), "--variants", "full",
                   "--cycle-modes", "1,2,3", "--epochs", "1", "--out", str(table))
    assert code == EXIT_OK
    rows = table.read_text().splitlines()
    assert rows[0] == "setting\tH@1\tH@10\tMRR"
    assert len(rows) == 4  # header + three modes


def test_ablate_depth_grid(dataset, capsys):
    code = run_cli("ablate", "--data", str(dataset), "--variants", "full",
                   "--cycle-modes", "2", "--depths", "1,2,3", "--epochs", "1")
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4


def test_ablate_empty_grid_is_usage_error(dataset, capsys):
    code = run_cli("ablate", "--data", str(dataset), "--variants", "")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("flag, value, message", [
    ("--cycle-modes", "2,4", "cycle_mode must be 1, 2, or 3"),
    ("--variants", "full,nope", "variant must be one of"),
    ("--depths", "2,0", "gcn_depth must be at least 1"),
])
def test_ablate_bad_cell_is_usage_error_before_training(dataset, monkeypatch, capsys,
                                                         flag, value, message):
    fits = []
    monkeypatch.setattr(training, "fit", lambda *args, **kwargs: fits.append(args))
    code = run_cli("ablate", "--data", str(dataset), flag, value, "--epochs", "1")
    assert code == EXIT_USAGE
    assert f"usage error: {message}" in capsys.readouterr().err
    assert fits == []


def test_ablate_diverging_cells_exit_numeric_after_table(dataset, tmp_path, capsys):
    bad = _poison_first_embedding(dataset, tmp_path, "1e308")
    with np.errstate(invalid="ignore", over="ignore"):
        code = run_cli("ablate", "--data", str(bad), "--variants", "full,wo-T",
                       "--epochs", "1")
    assert code == EXIT_NUMERIC
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "setting\tH@1\tH@10\tMRR"
    assert len(rows) == 3
    assert all(row.split("\t")[1] == "ERROR" for row in rows[1:])


# -------------------------------------------------------------------- check


def test_check_passes_clean_build(capsys):
    assert run_cli("check", "--trials", "2") == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "step/recompute\tPASS\tmax_abs_diff=0.000e+00" in out
    # one grad/ case per op a training step records: test_reachability
    assert out.endswith("32/32 checks passed\n")


def test_check_detects_injected_backward_sign_flip(monkeypatch, capsys):
    # deliberately wrong tanh gradients: sign flipped, then NaN
    for broken_grad in (lambda g, out: -g * (1.0 - out * out),
                        lambda g, out: np.full_like(g, np.nan)):
        def broken_tanh(a, broken_grad=broken_grad):
            a = ad.as_tensor(a)
            out = np.tanh(a.data)
            return ad._record(out, (a,), lambda g: (broken_grad(g, out),))

        monkeypatch.setattr(ad, "tanh", broken_tanh)
        assert run_cli("check", "--trials", "1") == EXIT_NUMERIC
        assert "grad/tanh\tFAIL" in capsys.readouterr().out


def test_check_detects_non_deterministic_forward_pass(monkeypatch, capsys):
    # every body pass scales its output a little more, so the re-run of
    # graph 1's body differs from the pass the loss read
    passes = []
    real = training.encode_body

    def drifting(*args, **kwargs):
        passes.append(1)
        return real(*args, **kwargs) * (1.0 + 1e-12 * len(passes))

    monkeypatch.setattr(training, "encode_body", drifting)
    assert run_cli("check", "--trials", "1") == EXIT_NUMERIC
    assert "step/recompute\tFAIL" in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_check_rejects_fewer_than_one_trial(capsys, trials):
    assert run_cli("check", "--trials", trials) == EXIT_USAGE
    assert "usage error: --trials must be at least 1" in capsys.readouterr().err


def test_check_random_graph_mentions_every_entity():
    # seed 177 draws no triple for entity 3; linking it in must not isolate
    # another entity, or `check` stops with a data error
    trips = naive.random_connected_triples(np.random.default_rng(177), 5, 8, 2)
    kg.KnowledgeGraph(5, 2, trips)


def test_usage_error_exit_code(capsys):
    assert run_cli("train", "--epochs", "1") == EXIT_USAGE  # --data missing
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["train", "--gcn-depth", "0"], "gcn_depth must be at least 1"),
    (["train", "--lr", "-1"], "lr must be positive and finite"),
    (["train", "--eval-every", "-1"], "eval_every must be non-negative"),
    (["train", "--neg-k", "80"], "neg_k=80 must be below the entity count of each graph"),
    (["train", "--variant", "nope"], "variant must be one of"),
    (["train", "--cycle-mode", "4"], "cycle_mode must be 1, 2, or 3"),
    (["ablate", "--cycle-modes", "x"], "--cycle-modes and --depths take integers"),
], ids=["gcn-depth", "lr", "eval-every", "neg-k", "variant", "cycle-mode", "cycle-modes"])
def test_bad_setting_is_usage_error(dataset, tmp_path, capsys, argv, message):
    out = ["--out", str(tmp_path / "r")] if argv[0] == "train" else []
    assert run_cli(*argv, "--data", str(dataset), *out) == EXIT_USAGE
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["train", "gen-synth"])
def test_out_path_that_is_a_file_exits_data(dataset, tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    data = ["--data", str(dataset), "--epochs", "0"] if command == "train" else []
    assert run_cli(command, *data, "--out", str(taken)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"'{taken}'" in err
    assert "Traceback" not in err


def _poison_first_embedding(dataset, tmp_path, value):
    bad = tmp_path / "bad_data"
    shutil.copytree(dataset, bad)
    emb = bad / "ent_emb_1"
    first, rest = emb.read_text().split("\n", 1)
    eid, values = first.split("\t")
    poisoned = f"{value} " + values.split(" ", 1)[1]
    emb.write_text(f"{eid}\t{poisoned}\n" + rest)
    return bad


def test_train_non_finite_embedding_exits_data(dataset, tmp_path, capsys):
    bad = _poison_first_embedding(dataset, tmp_path, "nan")
    code = run_cli("train", "--data", str(bad), "--epochs", "1",
                   "--out", str(tmp_path / "r"))
    assert code == EXIT_DATA
    assert "ent_emb_1:1: non-finite" in capsys.readouterr().err


def test_train_empty_embedding_rows_exit_data(dataset, tmp_path, capsys):
    # a 0-wide task would otherwise die in glorot init with a traceback
    bad = tmp_path / "bad_data"
    shutil.copytree(dataset, bad)
    for side in (1, 2):
        emb = bad / f"ent_emb_{side}"
        emb.write_text("".join(row.split("\t")[0] + "\t\n"
                               for row in emb.read_text().splitlines()))
    code = run_cli("train", "--data", str(bad), "--epochs", "1",
                   "--out", str(tmp_path / "r"))
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "ent_emb_1:1: empty embedding row" in err and "Traceback" not in err


def test_train_duplicate_embedding_exits_data(dataset, tmp_path, capsys):
    bad = tmp_path / "bad_data"
    shutil.copytree(dataset, bad)
    emb = bad / "ent_emb_2"
    rows = emb.read_text().splitlines()
    emb.write_text("\n".join(rows + [rows[5]]) + "\n")
    code = run_cli("train", "--data", str(bad), "--epochs", "1",
                   "--out", str(tmp_path / "r"))
    assert code == EXIT_DATA
    eid = rows[5].split("\t")[0]
    err = capsys.readouterr().err
    assert f"ent_emb_2:{len(rows) + 1}: duplicate embedding for entity id {eid}" in err


def test_train_divergence_exits_numeric(dataset, tmp_path, capsys):
    # poison one initial embedding value with a finite number so large that
    # the first loss overflows (the loader rejects nan and inf outright)
    bad = _poison_first_embedding(dataset, tmp_path, "1e308")

    with np.errstate(invalid="ignore", over="ignore"):
        code = run_cli("train", "--data", str(bad), "--epochs", "2",
                       "--d-r", "6", "--d-t", "6", "--out", str(tmp_path / "r"))
    assert code == EXIT_NUMERIC
    assert "epoch 0" in capsys.readouterr().err
