import csv
import json

import numpy as np
import pytest

from carrierstream import load_checkpoint, load_frames
from carrierstream.cli import _apply_overrides, load_run_config, main

TINY = {
    "model": {
        "layers": 1, "heads": 2, "d_model": 32, "ff_dim": 64, "vocab_size": 32,
        "max_positions": 512, "tokens_per_frame": 4, "memory_capacity": 8,
        "adapter_rank": 2,
    },
    "task": {"frames_per_stream": 4, "alphabet": 16, "questions_per_stream": 2},
    "train": {
        "stage1": {"steps": 3, "batch_size": 2, "log_every": 1},
        "stage2": {"steps": 3, "batch_size": 2, "log_every": 1},
    },
}


@pytest.fixture()
def tiny_cfg_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--bogus"])
    assert exc.value.code == 2


def test_bad_mode_value_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--eviction", "bogus"])
    assert exc.value.code == 2


def test_missing_frame_file_is_runtime_error(capsys):
    assert main(["ask", "--frames", "/nonexistent/f.bin"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_bad_config_json_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--count", "2"]) == 1
    bad.write_text(json.dumps({"model": {"no_such_field": 1}}))
    assert main(["simulate", "--config", str(bad), "--count", "2"]) == 1
    capsys.readouterr()
    for model in ({"layers": "2"}, {"heads": 2.0}, {"memory_capacity": True},
                  {"memory_enabled": "false"}):
        bad.write_text(json.dumps({"model": model}))
        assert main(["simulate", "--config", str(bad), "--count", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_make_frames_then_simulate(tmp_path, tiny_cfg_path, capsys):
    frames_path = str(tmp_path / "f.bin")
    assert main([
        "make-frames", "--config", tiny_cfg_path, "--count", "6",
        "--seed", "3", "--out", frames_path,
    ]) == 0
    capsys.readouterr()
    assert len(load_frames(frames_path)) == 6

    trace_path = str(tmp_path / "t.jsonl")
    assert main([
        "simulate", "--config", tiny_cfg_path, "--frames", frames_path,
        "--memory-size", "4", "--out", trace_path,
    ]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["frames"] == 6 and summary["bank_size"] == 4
    events = [json.loads(line) for line in open(trace_path)]
    assert [e["event"] for e in events if e["event"] == "ingest"] == ["ingest"] * 6


def test_simulate_synthetic_count(capsys, tiny_cfg_path):
    assert main(["simulate", "--config", tiny_cfg_path, "--count", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["frames"] == 5


def test_ask_reports_expected_answer(capsys, tiny_cfg_path):
    assert main(["ask", "--config", tiny_cfg_path, "--seed", "4", "--max-new", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"question", "generated", "expected", "prefill_us", "decode_us_per_token"}
    assert 0 <= out["expected"] < TINY["task"]["alphabet"]
    assert len(out["generated"]) == 2


def test_ask_no_memory_and_ablation_flags(capsys, tiny_cfg_path):
    args = ["ask", "--config", tiny_cfg_path, "--seed", "4", "--no-memory",
            "--carrier-mode", "last", "--kv-mode", "embedding-only",
            "--eviction", "vs-incoming"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["generated"]


def test_train_checkpoint_roundtrip(tmp_path, tiny_cfg_path, capsys):
    ckpt = str(tmp_path / "w.bin")
    metrics = str(tmp_path / "m.csv")
    assert main([
        "train", "--config", tiny_cfg_path, "--stage", "both",
        "--seed", "1", "--out", ckpt, "--metrics", metrics,
    ]) == 0
    capsys.readouterr()

    loaded = load_checkpoint(ckpt)
    assert loaded.stub is not None
    assert loaded.weights.config.adapter_rank == 2

    rows = list(csv.DictReader(open(metrics)))
    assert {r["stage"] for r in rows} == {"1", "2"}
    assert {"stage", "step", "loss", "grad_norm", "accuracy"} <= set(rows[0])

    assert main(["ask", "--weights", ckpt, "--seed", "9"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["generated"]) == 1


def test_train_stage2_requires_checkpoint(tiny_cfg_path, capsys):
    assert main(["train", "--config", tiny_cfg_path, "--stage", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_train_stage2_from_checkpoint(tmp_path, tiny_cfg_path, capsys):
    first = str(tmp_path / "s1.bin")
    assert main([
        "train", "--config", tiny_cfg_path, "--stage", "1", "--seed", "2", "--out", first,
    ]) == 0
    second = str(tmp_path / "s2.bin")
    assert main([
        "train", "--config", tiny_cfg_path, "--stage", "2", "--seed", "2",
        "--weights", first, "--out", second,
    ]) == 0
    capsys.readouterr()
    a, b = load_checkpoint(first), load_checkpoint(second)
    np.testing.assert_array_equal(a.stub, b.stub)  # stage 2 never touches the stub


def test_bench_writes_summary(tmp_path, tiny_cfg_path, capsys):
    out = str(tmp_path / "b.json")
    assert main([
        "bench", "--config", tiny_cfg_path, "--count", "20", "--ask-at", "15",
        "--seed", "0", "--out", out,
    ]) == 0
    capsys.readouterr()
    s = json.load(open(out))
    assert s["frames"] == 20
    assert s["ingest_us"]["p50"] > 0


def test_inspect_attn_writes_csv(tmp_path, tiny_cfg_path, capsys):
    out = str(tmp_path / "a.csv")
    assert main([
        "inspect-attn", "--config", tiny_cfg_path, "--seed", "1",
        "--max-new", "2", "--out", out,
    ]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(open(out)))
    assert rows and {"layer", "head", "key_pos", "segment", "score"} == set(rows[0])


def test_override_flag_mapping(tiny_cfg_path):
    run = load_run_config(tiny_cfg_path)

    class Args:
        memory_size = 5
        carrier_mode = "last"
        kv_mode = "embedding-only"
        eviction = "vs-incoming"
        no_memory = True

    model = _apply_overrides(run.model, Args())
    assert model.memory_capacity == 5
    assert model.carrier_mode == "last_token"
    assert model.carrier_kv_mode == "embedding_only"
    assert model.eviction_rule == "vs_incoming"
    assert model.memory_enabled is False
