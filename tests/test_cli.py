import json
import os
import shutil

import numpy as np
import pytest

from kgalign import autodiff as ad
from kgalign import cli, selfcheck
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
    from kgalign import kg
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
    assert manifest["dataset_fingerprint"] == cli.dataset_fingerprint(dataset)


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


def test_config_file_layering(dataset, tmp_path):
    config = tmp_path / "train.cfg"
    config.write_text("epochs = 5\nmargin = 2.0\n# comment\nd_r = 6\nd_t = 6\n")
    out = tmp_path / "runcfg"
    assert run_cli("train", "--data", str(dataset), "--config", str(config),
                   "--epochs", "2", "--out", str(out)) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 2  # flag overrides file
    assert manifest["config"]["margin"] == 2.0  # file overrides default


def test_config_file_unknown_key(dataset, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("learning_rate = 1\n")
    code = run_cli("train", "--data", str(dataset), "--config", str(config),
                   "--out", str(tmp_path / "r"))
    assert code == EXIT_DATA


@pytest.mark.parametrize("line", ["semi = ture", "neg_sample_all = flase", "semi = 2"])
def test_config_file_bad_boolean_is_data_error(tmp_path, line):
    config = tmp_path / "bad.cfg"
    config.write_text(f"epochs = 3\n{line}\n")
    key = line.split(" = ")[0]
    with pytest.raises(cli.DataError, match=rf"bad\.cfg:2: bad value for {key}$"):
        cli.load_config_file(config)


def test_config_file_boolean_spellings(tmp_path):
    config = tmp_path / "ok.cfg"
    config.write_text("semi = YES\nneg_sample_all = Off\n")
    assert cli.load_config_file(config) == {"semi": True, "neg_sample_all": False}
    config.write_text("semi = 0\nneg_sample_all = True\n")
    assert cli.load_config_file(config) == {"semi": False, "neg_sample_all": True}


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
    from kgalign import kg
    task = kg.load_dbp15k(dataset)
    assert len(ranks.read_text().splitlines()) == len(task.seeds_test)


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
], ids=["unknown-key", "bad-value", "truncated", "no-config"])
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


# -------------------------------------------------------------------- check


def test_check_passes_clean_build(capsys):
    assert run_cli("check", "--trials", "2") == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    # at least one check per differentiable operation
    for op in ("matmul", "add", "mul", "concat", "relu", "leaky_relu", "tanh",
               "sigmoid", "absval", "take_rows", "reduce_sum", "segment_softmax",
               "segment_sum"):
        assert f"grad/{op}\t" in out


def test_check_detects_injected_backward_sign_flip(monkeypatch, capsys):
    real_tanh = ad.tanh

    def broken_tanh(a):
        a = ad.as_tensor(a)
        out = np.tanh(a.data)
        # deliberately wrong: gradient sign flipped
        return ad._record(out, (a,), lambda g: (-g * (1.0 - out * out),))

    monkeypatch.setattr(ad, "tanh", broken_tanh)
    results = selfcheck.run_fd_checks(trials=2)
    monkeypatch.setattr(ad, "tanh", real_tanh)
    by_name = {r.name: r for r in results}
    assert not by_name["grad/tanh"].passed


def test_check_random_graph_mentions_every_entity():
    # seed 177 draws no triple for entity 3; linking it in must not isolate
    # another entity, or `check` stops with a data error
    from kgalign import kg
    _, trips = selfcheck._random_graph_tensors(np.random.default_rng(177), n=5, m=8, n_rel=2)
    kg.KnowledgeGraph(5, 2, trips)


def test_usage_error_exit_code(capsys):
    assert run_cli("train", "--epochs", "1") == EXIT_USAGE  # --data missing
    assert "usage error" in capsys.readouterr().err


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
