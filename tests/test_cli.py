import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import urllib.request
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hlsdbg.cli as cli
from broken_records import BROKEN
from hlsdbg.corpus import read_jsonl, read_samples_jsonl, record_to_dict, write_jsonl
from hlsdbg.errors import DataError, NumericError
from hlsdbg.lexer import lex
from hlsdbg.llmgen import MAX_ATTEMPTS
from hlsdbg.model import DebuggerModel, ModelConfig, Vocab
from hlsdbg.mutate import generate_corpus
from hlsdbg.synth import make_corpus
from hlsdbg.training import LossWeights, TrainConfig, read_curve_csv

TINY_CONFIG = """\
epochs = 2
batch_size = 4
lr = 1e-3
seed = 3
model.n_layers_enc = 1
model.n_layers_dec = 1
model.d_model = 32
model.n_heads = 2
model.d_ff = 64
model.max_src_len = 256
model.max_tgt_len = 16
model.dtype = f64
"""


def _run(argv):
    return cli.main(argv)


@pytest.fixture()
def records_path(tmp_path):
    out = tmp_path / "records.jsonl"
    assert _run(["inject", "--synth", "2", "--per-sample", "2", "--seed", "5", "--out", str(out)]) == 0
    return out


@pytest.fixture()
def trained_dir(tmp_path, records_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    out_dir = tmp_path / "run"
    code = _run(
        ["train", "--records", str(records_path), "--out-dir", str(out_dir), "--config", str(cfg)]
    )
    assert code == 0
    return out_dir


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as exc:
            _run(["inject"])  # missing --out and a source
        assert exc.value.code == 1

    def test_unknown_command_is_one(self):
        with pytest.raises(SystemExit) as exc:
            _run(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_input_is_two(self, tmp_path):
        code = _run(["eval", "--model", str(tmp_path / "no.bin"), "--records", str(tmp_path / "no.jsonl")])
        assert code == 2

    def test_data_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        code = _run(["train", "--records", str(bad), "--out-dir", str(tmp_path / "d")])
        assert code == 2

    def test_numeric_error_is_three(self, tmp_path, monkeypatch):
        def boom(path):
            raise NumericError("synthetic blow-up")

        monkeypatch.setattr(cli, "read_jsonl", boom)
        code = _run(["train", "--records", "x", "--out-dir", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("command", [
        ["inject", "--synth", "2"],
        ["dedup", "--samples", "s.jsonl", "--benchmark", "b.jsonl"],
    ])
    def test_threads_flag_of_corpus_stages_is_usage_error(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            _run(command + ["--threads", "4", "--out", str(tmp_path / "o.jsonl")])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["inject", "--synth", "2", "--per-sample", "0"],
        ["inject", "--synth", "-1"],
        ["inject", "--synth", "x"],
        ["gen-llm", "--synth", "2", "--threads", "-3"],
        ["gen-llm", "--synth", "0"],
        ["gen-llm", "--synth", "1", "--temperature", "-0.5"],
        ["gen-llm", "--synth", "1", "--temperature", "nan"],
        ["dedup", "--samples", "s.jsonl", "--benchmark", "b.jsonl", "--threshold", "nan"],
        ["dedup", "--samples", "s.jsonl", "--benchmark", "b.jsonl", "--threshold", "inf"],
        ["eval", "--model", "m.bin", "--records", "r.jsonl", "--threshold", "-inf"],
        ["debug", "kernel.c", "--model", "m.bin", "--top", "-1"],
        ["debug", "kernel.c", "--model", "m.bin", "--top", "0"],
    ], ids=lambda argv: " ".join([argv[0], *argv[-2:]]))
    def test_bad_count_or_number_is_usage_error(self, tmp_path, argv, capsys):
        out = tmp_path / "o.jsonl"
        with pytest.raises(SystemExit) as exc:
            _run(argv + ([] if argv[0] in ("eval", "debug") else ["--out", str(out)]))
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"hlsdbg {argv[0]}: error: argument ") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["--version"])
        assert exc.value.code == 0
        assert "hlsdbg" in capsys.readouterr().out


class TestInject:
    def test_writes_records_and_manifest(self, tmp_path):
        out = tmp_path / "r.jsonl"
        assert _run(["inject", "--synth", "3", "--per-sample", "2", "--out", str(out)]) == 0
        records = read_jsonl(out)
        assert len(records) == 6
        manifest = json.loads((tmp_path / "r.jsonl.manifest.json").read_text())
        assert manifest["counts"]["records"] == 6
        assert manifest["seed"] == 0
        assert manifest["command"].startswith("hlsdbg inject")
        assert "timestamp" not in manifest
        assert sum(manifest["histogram"].values()) == 6

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "r.jsonl"
        argv = ["inject", "--synth", "2", "--per-sample", "3", "--seed", "9", "--out", str(out)]
        assert _run(argv) == 0
        first = out.read_bytes()
        first_manifest = (tmp_path / "r.jsonl.manifest.json").read_bytes()
        assert _run(argv) == 0
        assert out.read_bytes() == first
        assert (tmp_path / "r.jsonl.manifest.json").read_bytes() == first_manifest

    def test_from_samples_file(self, tmp_path):
        src_dir = tmp_path / "src"
        src_dir.mkdir()
        for sid, code in make_corpus(2, seed=3):
            (src_dir / f"{sid.replace('/', '_')}.c").write_text(code)
        samples = tmp_path / "samples.jsonl"
        assert _run(["ingest", str(src_dir), "--out", str(samples)]) == 0
        out = tmp_path / "r.jsonl"
        assert _run(["inject", "--samples", str(samples), "--out", str(out)]) == 0
        assert len(read_jsonl(out)) == 2


class TestIngestDedup:
    def test_ingest_filters_extensions(self, tmp_path):
        root = tmp_path / "tree"
        (root / "sub").mkdir(parents=True)
        (root / "a.c").write_text("int x = 1;\n")
        (root / "sub" / "b.cpp").write_text("int y = 2;\n")
        (root / "notes.txt").write_text("not code\n")
        out = tmp_path / "samples.jsonl"
        assert _run(["ingest", str(root), "--origin", "crawled", "--out", str(out)]) == 0
        samples = read_samples_jsonl(out)
        assert len(samples) == 2
        manifest = json.loads((tmp_path / "samples.jsonl.manifest.json").read_text())
        assert manifest["counts"]["excluded"] == {".txt": 1}

    def test_ingest_missing_root_is_two(self, tmp_path):
        assert _run(["ingest", str(tmp_path / "nope"), "--out", str(tmp_path / "s.jsonl")]) == 2

    def test_dedup_removes_benchmark_overlap(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "a.c").write_text("int alpha = 1;\nint beta = alpha + 2;\n")
        (root / "b.c").write_text("long gamma = 7;\nlong delta = gamma * 3;\n")
        samples = tmp_path / "s.jsonl"
        assert _run(["ingest", str(root), "--out", str(samples)]) == 0

        bench_root = tmp_path / "bench"
        bench_root.mkdir()
        (bench_root / "a.c").write_text("int alpha = 1;\nint beta = alpha + 2;\n")
        bench = tmp_path / "bench.jsonl"
        assert _run(["ingest", str(bench_root), "--out", str(bench)]) == 0

        out = tmp_path / "kept.jsonl"
        code = _run(["dedup", "--samples", str(samples), "--benchmark", str(bench), "--out", str(out)])
        assert code == 0
        kept = read_samples_jsonl(out)
        assert [s.id for s in kept] == ["b.c"]
        manifest = json.loads((tmp_path / "kept.jsonl.manifest.json").read_text())
        assert manifest["counts"] == {"checked": 2, "removed": 1, "kept": 1}


class TestTrainEvalDebug:
    def test_train_writes_artifacts(self, trained_dir):
        assert (trained_dir / "model.bin").exists()
        assert (trained_dir / "curve.csv").exists()
        manifest = json.loads((trained_dir / "model.bin.manifest.json").read_text())
        assert manifest["counts"]["records"] == 4
        assert manifest["counts"]["epochs"] == 2
        model = DebuggerModel.load(trained_dir / "model.bin")
        assert model.config.d_model == 32
        curve = read_curve_csv(trained_dir / "curve.csv")
        assert curve[-1].step == len(curve)

    def test_train_resume_extends_curve(self, tmp_path, records_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG.replace("epochs = 2", "epochs = 1"))
        first = tmp_path / "first"
        assert _run([
            "train", "--records", str(records_path), "--out-dir", str(first),
            "--config", str(cfg), "--checkpoint-every", "1",
        ]) == 0
        ckpt = first / "checkpoint_00001.bin"
        assert ckpt.exists()

        second = tmp_path / "second"
        assert _run([
            "train", "--records", str(records_path), "--out-dir", str(second),
            "--resume", str(ckpt), "--epochs", "3",
        ]) == 0
        resumed = read_curve_csv(second / "curve.csv")
        assert [row.step for row in resumed] == [1, 2, 3]  # the checkpoint carries step 1's row
        assert resumed[0] == read_curve_csv(first / "curve.csv")[0]
        manifest = json.loads((second / "model.bin.manifest.json").read_text())
        assert any("resumed" in note for note in manifest["notes"])

    def test_eval_prints_summary_and_csv(self, tmp_path, trained_dir, records_path, capsys):
        out_csv = tmp_path / "metrics.csv"
        code = _run([
            "eval", "--model", str(trained_dir / "model.bin"),
            "--records", str(records_path), "--out-csv", str(out_csv),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "token" in text and "top-1:" in text and "correction accuracy:" in text
        assert out_csv.exists()
        assert (tmp_path / "metrics.csv.manifest.json").exists()

    def test_eval_given_location_flag(self, trained_dir, records_path, capsys):
        code = _run([
            "eval", "--model", str(trained_dir / "model.bin"),
            "--records", str(records_path), "--given-location",
        ])
        assert code == 0
        assert "given-location" in capsys.readouterr().out

    def test_debug_reports_and_splices(self, tmp_path, trained_dir, capsys):
        source = tmp_path / "kernel.c"
        source.write_text(make_corpus(1, seed=21)[0][1])
        fixed = tmp_path / "kernel_fixed.c"
        code = _run([
            "debug", str(source), "--model", str(trained_dir / "model.bin"),
            "--top", "3", "--out", str(fixed),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert text.count("line ") >= 3
        assert "predicted bug type:" in text
        assert "proposed snippet:" in text
        assert fixed.exists() and fixed.read_text() != source.read_text()
        assert (tmp_path / "kernel_fixed.c.manifest.json").exists()


def _rewrite_header(path, edit):
    """Rewrite a tensor container with `edit` applied to its parsed header."""
    import struct

    data = path.read_bytes()
    (n,) = struct.unpack("<Q", data[7:15])
    header = json.loads(data[15:15 + n])
    edit(header)
    raw = json.dumps(header).encode()
    path.write_bytes(data[:7] + struct.pack("<Q", len(raw)) + raw + data[15 + n:])


def _first_tensor(key, value):
    def edit(header):
        header["tensors"][0][key] = value

    return edit


def _truncate_header(path):
    path.write_bytes(path.read_bytes()[:11])


def _huge_header_length(path):
    data = path.read_bytes()
    path.write_bytes(data[:7] + (1 << 62).to_bytes(8, "little") + data[15:])


def _unknown_dtype(path):
    _rewrite_header(path, _first_tensor("dtype", "f16"))


def _wrong_nbytes(path):
    _rewrite_header(path, _first_tensor("shape", [3, 5]))


def _offset_past_payload(path):
    _rewrite_header(path, _first_tensor("offset", 1 << 40))


def _unknown_config_key(path):
    _rewrite_header(path, lambda header: header["meta"]["config"].update(n_experts=4))


def _non_string_vocab(path):
    _rewrite_header(path, lambda header: header["meta"].update(vocab=[*Vocab.SPECIALS, 1, 2]))


@pytest.fixture()
def model_path(tmp_path):
    """A tiny untrained model file."""
    vocab = Vocab(list(Vocab.SPECIALS) + ["int", "x"])
    config = ModelConfig(vocab_size=len(vocab), n_layers_enc=1, n_layers_dec=1, d_model=8,
                         n_heads=2, d_ff=8, max_src_len=16, max_tgt_len=4, dtype="f64")
    path = tmp_path / "model.bin"
    DebuggerModel(config, vocab, seed=0).save(path)
    return path


class TestDebugNoTokens:
    """A source with no tokens has nothing to score: exit 2, one stderr line, no output."""

    @pytest.mark.parametrize("text", ["", " \n\t\r\n  \n"], ids=["empty", "whitespace"])
    @pytest.mark.parametrize("with_out", [False, True], ids=["report", "out"])
    def test_exits_two_with_one_line(self, tmp_path, model_path, text, with_out, capsys):
        source = tmp_path / "kernel.c"
        source.write_text(text)
        fixed = tmp_path / "fixed.c"
        argv = ["debug", str(source), "--model", str(model_path)]
        if with_out:
            argv += ["--out", str(fixed)]
        assert _run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hlsdbg: data error:") and captured.err.count("\n") == 1
        assert "no tokens to score" in captured.err
        assert not fixed.exists()


class TestCorruptModelFile:
    """A malformed model file is a data error: exit 2 and one line on stderr."""

    @pytest.mark.parametrize("corrupt", [
        _truncate_header, _unknown_dtype, _wrong_nbytes, _offset_past_payload, _unknown_config_key,
        _non_string_vocab, _huge_header_length,
    ])
    @pytest.mark.parametrize("command", ["debug", "eval"])
    def test_exits_two_with_one_line(self, tmp_path, model_path, corrupt, command, capsys):
        corrupt(model_path)
        source = tmp_path / "kernel.c"
        source.write_text("int x = 1;\n")
        if command == "debug":
            argv = ["debug", str(source), "--model", str(model_path)]
        else:
            argv = ["eval", "--model", str(model_path), "--records", str(tmp_path / "records.jsonl")]
        assert _run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("hlsdbg: data error:") and err.count("\n") == 1


class TestNonFiniteWeights:
    """Weights that are NaN, inf or overflow give no scores: exit 2 and one stderr line, no warnings."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e300], ids=["nan", "inf", "1e300"])
    @pytest.mark.parametrize("command", ["debug", "eval"])
    def test_exits_two_with_one_line(self, tmp_path, model_path, records_path, value, command, capsys):
        model = DebuggerModel.load(model_path)
        for param in model.params.values():
            param.data[...] = value
        model.save(model_path)
        source = tmp_path / "kernel.c"
        source.write_text("int x = 1;\n")
        if command == "debug":
            argv = ["debug", str(source), "--model", str(model_path)]
        else:
            argv = ["eval", "--model", str(model_path), "--records", str(records_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hlsdbg: data error:") and captured.err.count("\n") == 1
        assert "non-finite" in captured.err


def _assert_data_exit(argv, capsys):
    assert _run([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hlsdbg: data error:") and err.count("\n") == 1, err


def _rewrite_first(path, edit):
    lines = path.read_text().splitlines()
    lines[0] = json.dumps(edit(json.loads(lines[0])))
    path.write_text("\n".join(lines) + "\n")


class TestMalformedRecords:
    """Records the model cannot be scored or trained on: exit 2, one stderr line."""

    @pytest.mark.parametrize("edit", [
        lambda r: {**r, "token_labels": r["token_labels"][:-1]},
        lambda r: {**r, "buggy_code": 5},
        lambda r: {**r, "snippet_correct": None},
        lambda r: {**r, "bug_analysis": ["not", "text"]},
    ], ids=["too-few-labels", "code-not-text", "snippet-null", "note-not-text"])
    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_exits_two_with_one_line(self, tmp_path, records_path, model_path, edit, command, capsys):
        _rewrite_first(records_path, edit)
        if command == "eval":
            argv = ["eval", "--model", model_path, "--records", records_path]
        else:
            cfg = tmp_path / "tiny.cfg"
            cfg.write_text(TINY_CONFIG)
            argv = ["train", "--records", records_path, "--out-dir", tmp_path / "run", "--config", cfg]
        _assert_data_exit(argv, capsys)

    @pytest.mark.parametrize("name", BROKEN)
    @pytest.mark.parametrize("command", ["eval", "train", "resume"])
    def test_broken_invariant_names_its_line(self, tmp_path, request, records_path, model_path, name, command,
                                             capsys):
        run = tmp_path / "run"
        if command == "eval":
            argv = ["eval", "--model", model_path, "--records", records_path]
        elif command == "train":
            cfg = tmp_path / "tiny.cfg"
            cfg.write_text(TINY_CONFIG)
            argv = ["train", "--records", records_path, "--out-dir", run, "--config", cfg]
        else:  # the checkpoint is trained on the records before one of them is broken
            argv = ["train", "--records", records_path, "--out-dir", run,
                    "--resume", request.getfixturevalue("checkpoint_path"), "--epochs", "2"]
        lines = records_path.read_text().splitlines()
        lines[1] = json.dumps(BROKEN[name][0](json.loads(lines[1])))
        records_path.write_text("\n".join(lines) + "\n")
        assert _run([str(a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("hlsdbg: data error: line 2: ") and captured.err.count("\n") == 1
        assert not run.exists()

    def test_empty_records_file(self, tmp_path, model_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        _assert_data_exit(["eval", "--model", model_path, "--records", empty], capsys)

    def test_invalid_utf8(self, tmp_path, records_path, model_path, capsys):
        records_path.write_bytes(records_path.read_bytes() + b'{"id": "\xff"}\n')
        _assert_data_exit(["eval", "--model", model_path, "--records", records_path], capsys)


class TestMalformedSamples:
    @pytest.mark.parametrize("line", [
        {"id": "a", "code": 5, "origin": "crawled"},
        {"id": 7, "code": "int x;", "origin": "crawled"},
        ["a", "int x;", "crawled"],
    ], ids=["code-not-text", "id-not-text", "not-an-object"])
    @pytest.mark.parametrize("command", ["inject", "dedup"])
    def test_exits_two_with_one_line(self, tmp_path, line, command, capsys):
        samples = tmp_path / "samples.jsonl"
        samples.write_text(json.dumps(line) + "\n")
        if command == "inject":
            argv = ["inject", "--samples", samples, "--out", tmp_path / "out.jsonl"]
        else:
            argv = ["dedup", "--samples", samples, "--benchmark", samples, "--out", tmp_path / "out.jsonl"]
        _assert_data_exit(argv, capsys)


class TestTrainSettings:
    """A setting no config type accepts is a data error, from a config file or a flag."""

    @pytest.mark.parametrize("line", [
        "lr = -1", "batch_size = 0", "epochs = 1.5", "seed = abc", "clip_norm = x", "lr = nan",
        "model.d_model = 255", "model.dtype = f16", "model.n_heads = 0", "model.max_src_len = 1",
        "model.d_ff = 2.0", "model.vocab_size = 9", "model.n_bug_types = 3", "loss.alpha_true = x",
        "epochs = 3\x1cseed = 4",  # one line, so `epochs` is not an int
        "model.dropout = 0", "lr = inf", "given_location_fraction = 2", "checkpoint_every = -1", "clip_norm = -3",
    ])
    def test_config_line(self, tmp_path, records_path, line, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG + line + "\n")
        argv = ["train", "--records", records_path, "--out-dir", tmp_path / "run", "--config", cfg]
        _assert_data_exit(argv, capsys)

    @pytest.mark.parametrize("flag", [
        ["--epochs", "0"], ["--epochs", "-3"], ["--checkpoint-every", "-1"],
        # one bad flag beside a good one is still refused
        ["--epochs", "1", "--checkpoint-every", "-1"], ["--epochs", "-3", "--checkpoint-every", "1"],
    ])
    def test_flag(self, tmp_path, records_path, flag, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG)
        argv = ["train", "--records", records_path, "--out-dir", tmp_path / "run", "--config", cfg, *flag]
        _assert_data_exit(argv, capsys)

    def test_config_not_utf8(self, tmp_path, records_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_bytes(TINY_CONFIG.encode() + b"seed = \xff\n")
        argv = ["train", "--records", records_path, "--out-dir", tmp_path / "run", "--config", cfg]
        _assert_data_exit(argv, capsys)


@pytest.fixture()
def checkpoint_path(tmp_path, records_path):
    """The checkpoint a 1-epoch tiny training run ends with."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG.replace("epochs = 2", "epochs = 1"))
    run = tmp_path / "first"
    argv = ["train", "--records", records_path, "--out-dir", run, "--config", cfg, "--checkpoint-every", "1"]
    assert _run([str(a) for a in argv]) == 0
    return run / "checkpoint_00001.bin"


class TestResumeChecks:
    """A resume that adds no epoch, or a checkpoint with a malformed counter, RNG state or curve, is a data error."""

    @pytest.mark.parametrize("epochs", [None, "1", "0", "-3"])
    def test_epochs_must_exceed_checkpoint(self, tmp_path, records_path, checkpoint_path, epochs, capsys):
        argv = ["train", "--records", records_path, "--out-dir", tmp_path / "run", "--resume", checkpoint_path]
        _assert_data_exit(argv + (["--epochs", epochs] if epochs else []), capsys)

    @pytest.mark.parametrize("key, value", [
        ("rng_state", 5), ("rng_state", [3, [1, 2], None]), ("rng_state", "abc"),
        ("step", "x"), ("step", -1), ("next_epoch", 1.5), ("adam_t", None), ("adam_t", True),
        # the checkpoint holds one step, so its curve must be one row `[1, four finite floats]`
        ("curve", None), ("curve", "abc"), ("curve", []), ("curve", [[1, 0.5, 0.5, 0.5]]),
        ("curve", [[2, 0.5, 0.5, 0.5, 0.5]]), ("curve", [[True, 0.5, 0.5, 0.5, 0.5]]),
        ("curve", [[1, 1, 0.5, 0.5, 0.5]]), ("curve", [[1, float("nan"), 0.5, 0.5, 0.5]]),
        ("curve", [[1, 0.5, 0.5, 0.5, 0.5], [2, 0.5, 0.5, 0.5, 0.5]]),
    ])
    def test_malformed_meta(self, tmp_path, records_path, checkpoint_path, key, value, capsys):
        _rewrite_header(checkpoint_path, lambda header: header["meta"].update({key: value}))
        argv = ["train", "--records", records_path, "--out-dir", tmp_path / "run",
                "--resume", checkpoint_path, "--epochs", "3"]
        _assert_data_exit(argv, capsys)


    @pytest.mark.parametrize("which, value", [
        ("v", -1.0), ("v", float("nan")), ("v", float("inf")), ("m", float("nan")),
    ])
    def test_unusable_adam_moments(self, tmp_path, records_path, checkpoint_path, which, value, capsys):
        from hlsdbg.tensorstore import load_tensors, save_tensors

        tensors, meta = load_tensors(checkpoint_path)
        for name, arr in tensors.items():
            if name.startswith(f"adam.{which}."):
                arr[...] = value
        save_tensors(checkpoint_path, tensors, meta=meta)
        run = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_data_exit(["train", "--records", records_path, "--out-dir", run,
                               "--resume", checkpoint_path, "--epochs", "2"], capsys)
        assert not (run / "model.bin").exists()


def _load_model_file(command, path, tmp_path, records_path, capsys) -> str:
    """Run `debug`, `eval` or `train --resume` (`command` "resume") on `path`; expect exit 2 and return stderr."""
    source = tmp_path / "kernel.c"
    source.write_text("int x = 1;\n")
    argv = {
        "debug": ["debug", source, "--model", path],
        "eval": ["eval", "--model", path, "--records", records_path],
        "resume": ["train", "--records", records_path, "--out-dir", tmp_path / "run", "--resume", path, "--epochs", "2"],
    }[command]
    assert _run([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hlsdbg: data error:") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("command", ["debug", "eval", "resume"])
def test_model_file_with_dropout_is_rejected(tmp_path, request, model_path, records_path, command, capsys):
    # files written while `ModelConfig` had a `dropout` field carry it in their config
    path = request.getfixturevalue("checkpoint_path") if command == "resume" else model_path
    _rewrite_header(path, lambda header: header["meta"]["config"].update(dropout=0.0))
    assert "dropout" in _load_model_file(command, path, tmp_path, records_path, capsys)


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("command", ["debug", "eval", "resume"])
def test_model_file_with_other_bug_type_count_is_rejected(tmp_path, request, model_path, records_path, command, n,
                                                          capsys):
    from hlsdbg.tensorstore import load_tensors, save_tensors

    # a file saved as if `n_bug_types` were `n`, the type head's output shapes included
    path = request.getfixturevalue("checkpoint_path") if command == "resume" else model_path
    tensors, meta = load_tensors(path)
    last = meta["config"]["head_mlp_layers"] - 1
    for name in tensors:
        if name.endswith((f"head_type.w{last}", f"head_type.b{last}")):
            tensors[name] = tensors[name][..., :n]
    meta["config"]["n_bug_types"] = n
    save_tensors(path, tensors, meta=meta)
    assert "n_bug_types must be 8" in _load_model_file(command, path, tmp_path, records_path, capsys)


class TestResumeFlags:
    """A run setting beside --resume would be ignored, so it is a usage error: exit 1, one stderr line."""

    @pytest.mark.parametrize("flag", [
        ["--config", "/nonexistent.cfg"], ["--checkpoint-every", "1"], ["--model-seed", "0"],
    ], ids=lambda flag: flag[0])
    def test_setting_with_resume_is_usage_error(self, tmp_path, records_path, checkpoint_path, flag, capsys):
        run = tmp_path / "run"
        argv = ["train", "--records", records_path, "--out-dir", run, "--resume", checkpoint_path,
                "--epochs", "2", *flag]
        assert _run([str(a) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hlsdbg train: error:") and captured.err.count("\n") == 1
        assert flag[0] in captured.err
        assert not run.exists()

    def test_model_seed_defaults_to_zero(self, tmp_path, records_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG.replace("epochs = 2", "epochs = 1"))
        runs = {}
        for name, extra in (("default", []), ("zero", ["--model-seed", "0"])):
            runs[name] = tmp_path / name
            assert _run([str(a) for a in ["train", "--records", records_path, "--out-dir", runs[name],
                                          "--config", cfg, *extra]]) == 0
        assert (runs["default"] / "model.bin").read_bytes() == (runs["zero"] / "model.bin").read_bytes()


class TestGenLlm:
    def test_stub_generation(self, tmp_path):
        out = tmp_path / "llm.jsonl"
        assert _run(["gen-llm", "--synth", "2", "--seed", "7", "--out", str(out)]) == 0
        records = read_jsonl(out)
        assert len(records) == 2
        assert all(r.strategy for r in records)
        write_jsonl(records, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == out.read_bytes()
        manifest = json.loads((tmp_path / "llm.jsonl.manifest.json").read_text())
        assert manifest["counts"]["completion_calls"] >= 6

    def test_threads_flag_keeps_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert _run(["gen-llm", "--synth", "3", "--seed", "7", "--out", str(a)]) == 0
        assert _run(["gen-llm", "--synth", "3", "--seed", "7", "--threads", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stub_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert _run(["gen-llm", "--synth", "2", "--seed", "7", "--out", str(a)]) == 0
        assert _run(["gen-llm", "--synth", "2", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("body", [{"txt": "x"}, ["a"], {"text": 5}],
                             ids=["no-text", "not-an-object", "text-not-a-string"])
    def test_malformed_endpoint_reply_is_data_error(self, tmp_path, monkeypatch, body, capsys):
        class Reply:
            status = 200

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                return json.dumps(body).encode()

        posts = []
        monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: posts.append(request) or Reply())
        monkeypatch.setattr("hlsdbg.llmgen.time.sleep", lambda s: None)
        argv = ["gen-llm", "--synth", "1", "--endpoint", "http://127.0.0.1:9/v1", "--out", tmp_path / "llm.jsonl"]
        _assert_data_exit(argv, capsys)
        assert len(posts) == MAX_ATTEMPTS  # each malformed reply is one failed attempt

    @pytest.mark.parametrize("endpoint", ["file:///etc/hosts", "ftp://127.0.0.1/v1", "127.0.0.1:8000/v1", ""])
    def test_endpoint_that_is_not_http_is_data_error(self, tmp_path, monkeypatch, endpoint, capsys):
        posts = []
        monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **k: posts.append(a))
        out = tmp_path / "llm.jsonl"
        assert _run(["gen-llm", "--synth", "1", "--endpoint", endpoint, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"hlsdbg: data error: completion endpoint {endpoint!r} is not an http or https URL\n"
        assert posts == [] and not out.exists()


def test_import_loads_no_http_stack():
    # only `gen-llm --endpoint` speaks HTTP, so importing the CLI loads no HTTP or TLS module
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import hlsdbg.cli, sys; print(sorted({'requests', 'urllib3', 'http.client', 'ssl'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


# Arbitrary sample text: C-ish fragments, unterminated literals and comments,
# pragmas and any Unicode character, including lone surrogates.
_SAMPLE_PIECES = [
    "int", "x", "acc", "0", "8", "1e", "-", "+", "<<", "<", "=", "==", ";", ",", "(", ")",
    "{", "}", "[", "]", "for", "while", "if", "unsigned", "long long", "return",
    "#pragma HLS unroll", "//", "/*", "*/", '"', "'", "\\", " ", "\n", "\t",
]
fuzz_text = st.lists(
    st.one_of(st.sampled_from(_SAMPLE_PIECES), st.characters()), max_size=80
).map("".join)
# a synthetic kernel with fuzz text spliced in at some offset keeps injection
# sites around the damage
_KERNEL = make_corpus(1, seed=41)[0][1]
spliced_kernel = st.tuples(st.integers(0, len(_KERNEL)), st.integers(0, 40), fuzz_text).map(
    lambda t: _KERNEL[:t[0]] + t[2] + _KERNEL[t[0] + t[1]:]
)


@given(st.lists(st.one_of(fuzz_text, spliced_kernel), min_size=1, max_size=3))
@example(["\ud800"])  # a lone surrogate survives json.loads but not encoding
@settings(max_examples=60, deadline=None)
def test_corpus_commands_exit_zero_or_two_on_any_sample_text(codes):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        samples = d / "samples.jsonl"
        samples.write_text("".join(
            json.dumps({"id": f"s{i}", "code": code, "origin": "crawled"}) + "\n" for i, code in enumerate(codes)
        ))
        runs = [
            ["inject", "--samples", samples, "--per-sample", "4", "--out", d / "inject.jsonl"],
            ["gen-llm", "--samples", samples, "--out", d / "llm.jsonl"],
            ["dedup", "--samples", samples, "--benchmark", samples, "--out", d / "kept.jsonl"],
        ]
        for argv in runs:
            assert _run([str(a) for a in argv]) in (0, 2), argv[0]


def test_debug_source_not_utf8(tmp_path, model_path, capsys):
    source = tmp_path / "kernel.c"
    source.write_bytes(b"int x = 1; // \xff\n")
    _assert_data_exit(["debug", source, "--model", model_path], capsys)


def test_debug_prints_lines_as_the_lexer_counts_them(tmp_path, model_path, capsys):
    # `\f` (like `\v`, `\x1c`-`\x1e`, `\x85`, U+2028, U+2029) ends a line for
    # `str.splitlines` but not for the lexer, whose lines end at `\n` only
    source = tmp_path / "kernel.c"
    source.write_text("int a;\f\nint b = 1;\n")
    assert _run(["debug", str(source), "--model", str(model_path), "--top", "2"]) == 0
    shown = dict(re.findall(r"line +(\d+) .*\| (.*)$", capsys.readouterr().out, re.M))
    assert shown == {"1": "int a;", "2": "int b = 1;"}


def test_debug_out_changes_only_the_splice(tmp_path, model_path, capsys):
    # CRLF line ends and a lone `\r` outside the splice survive byte for byte
    raw = b"int a;\r\nint b = 1;\r\nint c = 2;\r\nint d;\r"
    source, fixed = tmp_path / "kernel.c", tmp_path / "fixed.c"
    source.write_bytes(raw)
    assert _run(["debug", str(source), "--model", str(model_path), "--out", str(fixed)]) == 0
    lo, hi = json.loads((tmp_path / "fixed.c.manifest.json").read_text())["counts"]["span"]
    tokens = lex(raw.decode()).tokens
    a, b = tokens[lo].byte_start, tokens[hi - 1].byte_end
    out = fixed.read_bytes()
    assert out[:a] == raw[:a]
    assert out[len(out) - (len(raw) - b):] == raw[b:]
    assert out.count(b"\r") == raw[:a].count(b"\r") + raw[b:].count(b"\r")


def _run_quiet(argv):
    """(exit code, stderr) of one CLI run, stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = _run([str(a) for a in argv])
    return code, err.getvalue()


_FUZZ_RECORDS = generate_corpus(make_corpus(1, seed=41), per_sample=2, seed=5).records
_FUZZ_VOCAB = Vocab.for_records(_FUZZ_RECORDS)
FUZZ_CONFIG = """\
epochs = 1
batch_size = 2
model.n_layers_enc = 1
model.n_layers_dec = 1
model.d_model = 8
model.n_heads = 2
model.d_ff = 8
model.max_src_len = 32
model.max_tgt_len = 6
model.dtype = f64
"""

# `key = value` lines over every config field and a few unknown ones; values
# are small ints (so a fuzzed model stays tiny), any float, keywords and text.
_CONFIG_KEYS = sorted(
    [*TrainConfig.__dataclass_fields__, "bogus"]
    + [f"model.{k}" for k in [*ModelConfig.__dataclass_fields__, "bogus"]]
    + [f"loss.{k}" for k in [*LossWeights.__dataclass_fields__, "bogus"]]
)
_plain_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
config_value = st.one_of(
    st.integers(-2, 6).map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "false", "nan", "inf", "-inf", "1e400", "f16", "f32", "f64", ""]),
    _plain_text,
)
config_line = st.one_of(
    st.tuples(st.sampled_from(_CONFIG_KEYS), config_value).map(" = ".join),
    _plain_text,
)


@given(st.lists(config_line, max_size=5))
@example(["loss.alpha_false = 0"])  # max_src_len 32 cuts off every flagged token
@example(["epochs = 3\x1cseed = 4"])  # one line: `\x1c` ends a line for `str.splitlines` only
@settings(max_examples=60, deadline=None)
def test_train_exits_cleanly_on_any_config_text(lines):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_jsonl(_FUZZ_RECORDS, d / "records.jsonl")
        (d / "run.cfg").write_text(FUZZ_CONFIG + "\n".join(lines) + "\n", encoding="utf-8")
        code, err = _run_quiet(
            ["train", "--records", d / "records.jsonl", "--out-dir", d / "run", "--config", d / "run.cfg"]
        )
    # 3 is the contract's numeric failure: a huge but finite lr or loss weight
    # may overflow the loss, which is reported, not a crash
    assert code in (0, 2, 3), err
    assert code == 0 or err.count("\n") == 1, err


# Records: valid ones from the injector with fields replaced by arbitrary JSON
# or removed, buggy code replaced by fuzz text with labels sized to its tokens,
# and lines that are not records at all.
json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats() | _plain_text,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_plain_text, kids, max_size=3),
    max_leaves=6,
)
_RECORD_KEYS = sorted(record_to_dict(_FUZZ_RECORDS[0])) + ["function_note", "bug_analysis", "strategy", "extra"]
_REMOVE = object()


def _fuzzed_record(base, code_and_flags, edits):
    rec = record_to_dict(base)
    if code_and_flags is not None:
        code, flagged = code_and_flags
        try:
            n = lex(code).n_tokens
        except DataError:
            n = len(flagged)
        rec.update(buggy_code=code, token_labels=[int(i in flagged) for i in range(n)])
    for key, value in edits:
        if value is _REMOVE:
            rec.pop(key, None)
        else:
            rec[key] = value
    return json.dumps(rec)


record_line = st.one_of(
    st.builds(
        _fuzzed_record,
        st.sampled_from(_FUZZ_RECORDS),
        st.none() | st.tuples(st.one_of(fuzz_text, spliced_kernel), st.sets(st.integers(0, 200), max_size=4)),
        st.lists(st.tuples(st.sampled_from(_RECORD_KEYS), json_value | st.just(_REMOVE)), max_size=2),
    ),
    st.sampled_from(["[]", "5", "null", '"x"', "{not json", "{}"]),
)


@given(st.lists(record_line, max_size=3))
@settings(max_examples=60, deadline=None)
def test_eval_and_train_exit_zero_or_two_on_any_records(lines):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        records = d / "records.jsonl"
        records.write_text("".join(line + "\n" for line in lines))
        model = DebuggerModel(
            ModelConfig(vocab_size=len(_FUZZ_VOCAB), n_layers_enc=1, n_layers_dec=1, d_model=8,
                        n_heads=2, d_ff=8, max_src_len=32, max_tgt_len=6, dtype="f64"),
            _FUZZ_VOCAB,
        )
        model.save(d / "model.bin")
        (d / "run.cfg").write_text(FUZZ_CONFIG + "given_location_fraction = 0.5\n")
        runs = [
            ["eval", "--model", d / "model.bin", "--records", records],
            ["eval", "--model", d / "model.bin", "--records", records, "--given-location"],
            ["train", "--records", records, "--out-dir", d / "run", "--config", d / "run.cfg"],
        ]
        for argv in runs:
            code, err = _run_quiet(argv)
            assert code in (0, 2), (argv[0], err)
            assert code == 0 or err.count("\n") == 1, err


@functools.lru_cache(maxsize=None)
def _fuzz_artifacts() -> dict[str, bytes]:
    """Bytes of a tiny model file and of the 1-epoch checkpoint it was trained from."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_jsonl(_FUZZ_RECORDS, d / "records.jsonl")
        (d / "run.cfg").write_text(FUZZ_CONFIG)
        argv = ["train", "--records", d / "records.jsonl", "--out-dir", d / "run", "--config", d / "run.cfg",
                "--checkpoint-every", "1"]
        assert _run_quiet(argv) == (0, "")
        return {name: (d / "run" / name).read_bytes() for name in ("model.bin", "checkpoint_00001.bin")}


def _mutate(path: Path, mutation) -> None:
    kind, at, value = mutation
    if kind == "meta":
        def edit(header):
            keys = sorted(header["meta"])
            header["meta"][keys[int(at * (len(keys) - 1))]] = value

        _rewrite_header(path, edit)
        return
    data = path.read_bytes()
    if kind == "truncate":
        data = data[:int(at * len(data))]
    else:
        header_end = 15 + int.from_bytes(data[7:15], "little")
        lo, hi = (0, header_end) if kind == "header" else (header_end, len(data))
        i = lo + int(at * (hi - lo - 1))
        data = data[:i] + value + data[i + len(value):]
    path.write_bytes(data)


# truncation at any offset, a few bytes overwritten in the header or the
# payload, or one meta value replaced by arbitrary JSON; `at` is a fraction
# of the file, region or sorted meta keys
_unit = st.floats(0, 1)
file_mutation = st.one_of(
    st.tuples(st.just("truncate"), _unit, st.none()),
    st.tuples(st.sampled_from(["header", "payload"]), _unit, st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("meta"), _unit, json_value),
)


@given(st.sampled_from(["model.bin", "checkpoint_00001.bin"]), file_mutation)
@settings(max_examples=60, deadline=None)
def test_eval_debug_resume_exit_cleanly_on_any_model_bytes(name, mutation):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        path = d / "file.bin"
        path.write_bytes(_fuzz_artifacts()[name])
        _mutate(path, mutation)
        write_jsonl(_FUZZ_RECORDS, d / "records.jsonl")
        (d / "kernel.c").write_text(_FUZZ_RECORDS[0].buggy_code)
        runs = [
            (["eval", "--model", path, "--records", d / "records.jsonl"], (0, 2)),
            (["debug", d / "kernel.c", "--model", path], (0, 2)),
            # 3 is the contract's numeric failure: overwritten payload bytes
            # may hold non-finite or huge weights
            (["train", "--records", d / "records.jsonl", "--out-dir", d / "run", "--resume", path,
              "--epochs", "2"], (0, 2, 3)),
        ]
        for argv, allowed in runs:
            code, err = _run_quiet(argv)
            assert code in allowed, (argv[0], err)
            assert code == 0 or err.count("\n") == 1, err


# arbitrary `debug` sources as bytes: C-ish text with backslash-newlines, NUL
# and non-ASCII characters, kernels with text spliced in, and raw bytes that
# are mostly not UTF-8
_debug_text = st.lists(
    st.one_of(st.sampled_from(_SAMPLE_PIECES + ["\\\n", "\x00", "é²½"]), st.characters()), max_size=80
).map("".join)
debug_source = st.one_of(
    st.one_of(_debug_text, spliced_kernel).map(lambda s: s.encode("utf-8", "surrogatepass")),
    st.binary(max_size=80),
    st.tuples(spliced_kernel, st.binary(min_size=1, max_size=4)).map(lambda t: t[0].encode("utf-8", "surrogatepass") + t[1]),
)


@given(debug_source)
@settings(max_examples=60, deadline=None)
def test_debug_exits_zero_or_two_on_any_source(source):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "model.bin").write_bytes(_fuzz_artifacts()["model.bin"])
        (d / "kernel.c").write_bytes(source)
        for out in ([], ["--out", d / "fixed.c"]):
            code, err = _run_quiet(["debug", d / "kernel.c", "--model", d / "model.bin", *out])
            assert code in (0, 2), err
            if code == 2:
                assert err.count("\n") == 1, err
                assert sorted(p.name for p in d.iterdir()) == ["kernel.c", "model.bin"]
