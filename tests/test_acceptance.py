"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criterion 8 checks a real dataset directory only when
KGALIGN_DBP15K_DIR is set; otherwise it validates the round-trip and skips
the table check with a notice.
"""

import os
import time

import numpy as np
import pytest

from kgalign import cli, evaluation, kg, selfcheck, training
from kgalign import oracles as naive

import testlib
from kgalign.training import TrainConfig


def announce(number, name):
    print(f"\nACCEPTANCE {number} {name}: PASS")


# ---------------------------------------------------------------------- 1


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    results = selfcheck.run_fd_checks(trials=20)
    elapsed = time.perf_counter() - started
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    covered = {r.name for r in results}
    for module in ("structure_encoder", "triple_encoder", "entity_enhancer", "margin_loss"):
        assert f"grad/{module}" in covered
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    announce(1, f"gradient suite ({len(results)} checks, {elapsed:.1f}s)")


# ---------------------------------------------------------------------- 2


def test_criterion_2_oracle_equivalence():
    results = selfcheck.run_oracle_checks(trials=6, seed=2024)
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    assert len(results) == 11
    announce(2, f"oracle equivalence ({len(results)} oracles, 6 randomized instances)")


# ---------------------------------------------------------------------- 3


def test_criterion_3_metric_oracle():
    # 250 entities at ratio 0.2 -> exactly 200 test pairs and 200 candidates
    task = kg.generate_synthetic_pair(250, 5, 4, drop_triple_prob=0.0,
                                      emb_noise_sigma=0.1, emb_dim=4,
                                      train_ratio=0.2, rng_seed=13)
    assert len(task.seeds_test) == 200
    rng = np.random.default_rng(7)
    pool = np.unique(task.seeds_test[:, 1])
    true_cols = np.searchsorted(pool, task.seeds_test[:, 1])
    for _ in range(100):
        emb1 = rng.normal(size=(250, 4))
        emb2 = rng.normal(size=(250, 4))
        report = evaluation.evaluate(task, emb1, emb2)
        want = naive.ranks_by_sorting(emb1[task.seeds_test[:, 0]], emb2[pool], true_cols)
        np.testing.assert_array_equal(report.per_query_ranks, want)
        assert report.hits_at[1] == float(np.mean(want <= 1))
        assert report.mrr == float(np.mean(1.0 / want))

    perfect1 = rng.normal(size=(250, 4))
    perfect2 = np.empty_like(perfect1)
    pairs = np.concatenate([task.seeds_train, task.seeds_test])
    perfect2[pairs[:, 1]] = perfect1[pairs[:, 0]]
    report = evaluation.evaluate(task, perfect1, perfect2)
    assert report.hits_at[1] == 1.0 and report.hits_at[10] == 1.0 and report.mrr == 1.0
    announce(3, "metric oracle (100 instances of 200x200, exact)")


# ---------------------------------------------------------------------- 4


def test_criterion_4_end_to_end_desk_scale():
    task = kg.generate_synthetic_pair(200, 20, 5, drop_triple_prob=0.15,
                                      emb_noise_sigma=0.3, emb_dim=32, rng_seed=7)
    cfg = TrainConfig(epochs=50, d_r=16, d_t=16, rng_seed=0)
    started = time.perf_counter()
    result = training.fit(task, cfg)
    elapsed = time.perf_counter() - started
    report = evaluation.evaluate(task, result.final_emb1, result.final_emb2)
    assert report.hits_at[1] >= 0.95, f"H@1={report.hits_at[1]:.4f}"
    assert elapsed < 300.0, f"training took {elapsed:.1f}s"
    announce(4, f"end-to-end H@1={report.hits_at[1]:.3f} in {elapsed:.1f}s")


# ---------------------------------------------------------------------- 5


def test_criterion_5_ablation_grid(tmp_path):
    data = tmp_path / "synth"
    assert cli.main(["gen-synth", "--entities", "80", "--relations", "8",
                     "--avg-degree", "4", "--emb-dim", "12", "--seed", "3",
                     "--out", str(data)]) == 0
    table = tmp_path / "variants.tsv"
    code = cli.main(["ablate", "--data", str(data),
                     "--variants", "full,wo-E,wo-T,wo-C",
                     "--cycle-modes", "1,2,3", "--epochs", "2",
                     "--d-r", "6", "--d-t", "6", "--out", str(table)])
    assert code == 0
    rows = table.read_text().splitlines()
    assert rows[0] == "setting\tH@1\tH@10\tMRR"
    assert len(rows) == 1 + 4 * 3
    assert not any("ERROR" in r for r in rows)

    depth_table = tmp_path / "depths.tsv"
    code = cli.main(["ablate", "--data", str(data), "--variants", "full",
                     "--cycle-modes", "2", "--depths", "1,2,3", "--epochs", "2",
                     "--d-r", "6", "--d-t", "6", "--out", str(depth_table)])
    assert code == 0
    assert len(depth_table.read_text().splitlines()) == 4
    announce(5, "ablation grid (12 variant cells + 3 depth cells)")


# ---------------------------------------------------------------------- 6


def test_criterion_6_semi_supervised_expansion():
    task = kg.generate_synthetic_pair(200, 20, 5, drop_triple_prob=0.15,
                                      emb_noise_sigma=0.3, emb_dim=32,
                                      train_ratio=0.10, rng_seed=7)
    base_cfg = TrainConfig(epochs=50, d_r=16, d_t=16, rng_seed=0, train_ratio=0.10)
    semi_cfg = TrainConfig(epochs=50, d_r=16, d_t=16, rng_seed=0, train_ratio=0.10,
                           semi=True)
    base = training.fit(task, base_cfg)
    semi = training.fit(task, semi_cfg)

    assert len(semi.train_pairs) > len(task.seeds_train)
    # no entity is proposed twice and originals are all retained
    assert len(set(semi.train_pairs[:, 0].tolist())) == len(semi.train_pairs)
    assert len(set(semi.train_pairs[:, 1].tolist())) == len(semi.train_pairs)
    originals = {tuple(p) for p in task.seeds_train.tolist()}
    assert originals <= {tuple(p) for p in semi.train_pairs.tolist()}

    h_base = evaluation.evaluate(task, base.final_emb1, base.final_emb2).hits_at[1]
    h_semi = evaluation.evaluate(task, semi.final_emb1, semi.final_emb2).hits_at[1]
    assert h_semi >= h_base - 0.02, f"semi {h_semi:.4f} vs base {h_base:.4f}"
    announce(6, f"semi mode ({len(task.seeds_train)} -> {len(semi.train_pairs)} pairs, "
                f"H@1 {h_base:.3f} -> {h_semi:.3f}")


# ---------------------------------------------------------------------- 7


def test_criterion_7_determinism(tmp_path):
    data = tmp_path / "synth"
    assert cli.main(["gen-synth", "--entities", "60", "--relations", "6",
                     "--avg-degree", "4", "--emb-dim", "10", "--seed", "5",
                     "--out", str(data)]) == 0
    logs, metrics = [], []
    for name in ("runA", "runB"):
        run = tmp_path / name
        assert cli.main(["train", "--data", str(data), "--epochs", "5",
                         "--d-r", "6", "--d-t", "6", "--seed", "11",
                         "--out", str(run)]) == 0
        report = tmp_path / f"{name}.metrics"
        assert cli.main(["eval", "--model", str(run), "--data", str(data),
                         "--out", str(report)]) == 0
        logs.append((run / "loss_log.tsv").read_bytes())
        metrics.append(report.read_bytes())
    assert logs[0] == logs[1]
    assert metrics[0] == metrics[1]
    announce(7, "determinism (bitwise identical logs and reports)")


# ---------------------------------------------------------------------- 8


TABLE_ROWS = {
    "ZH-EN": ((19388, 1700, 70414), (19572, 1322, 95142), 15000),
    "JA-EN": ((19814, 1298, 77214), (19780, 1152, 93484), 15000),
    "FR-EN": ((19661, 902, 105998), (19993, 1207, 115722), 15000),
}


def test_criterion_8_round_trip_lossless(tmp_path):
    task = kg.generate_synthetic_pair(50, 5, 4, emb_noise_sigma=0.2, emb_dim=8,
                                      rng_seed=9)
    first = tmp_path / "first"
    second = tmp_path / "second"
    kg.save_dbp15k(task, first)
    loaded = kg.load_dbp15k(first, train_ratio=0.30, seed=0)
    kg.save_dbp15k(loaded, second)
    reloaded = kg.load_dbp15k(second, train_ratio=0.30, seed=0)
    np.testing.assert_array_equal(loaded.g1.base.triples, reloaded.g1.base.triples)
    np.testing.assert_array_equal(loaded.g2.base.triples, reloaded.g2.base.triples)
    np.testing.assert_array_equal(loaded.seeds_train, reloaded.seeds_train)
    np.testing.assert_array_equal(loaded.seeds_test, reloaded.seeds_test)
    np.testing.assert_array_equal(loaded.init_emb1, reloaded.init_emb1)
    assert loaded.g1.base.entity_names == reloaded.g1.base.entity_names
    for side in ("g1", "g2"):
        ids = getattr(task, side).base.entity_ids
        np.testing.assert_array_equal(getattr(loaded, side).base.entity_ids, ids)
        np.testing.assert_array_equal(getattr(reloaded, side).base.entity_ids, ids)
    announce(8, "data layer round-trip lossless")


def test_criterion_8_real_dataset_counts():
    real_dir = os.environ.get("KGALIGN_DBP15K_DIR", "")
    if not real_dir:
        pytest.skip("KGALIGN_DBP15K_DIR not set; real-dataset count check skipped")
    stats1, stats2, links = testlib.read_graph_stats(real_dir)
    assert (stats1, stats2, links) in TABLE_ROWS.values(), (
        f"counts {(stats1, stats2, links)} match no known dataset row"
    )
    announce(8, f"real dataset counts verified: {stats1} / {stats2}")
