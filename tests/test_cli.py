import json

import pytest

import hlsdbg.cli as cli
from hlsdbg.corpus import read_jsonl, read_samples_jsonl
from hlsdbg.errors import NumericError
from hlsdbg.model import DebuggerModel
from hlsdbg.synth import make_corpus
from hlsdbg.training import read_curve_csv

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

    def test_threads_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert _run(["inject", "--synth", "2", "--seed", "4", "--out", str(a)]) == 0
        assert _run(["inject", "--synth", "2", "--seed", "4", "--threads", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

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
        assert resumed[0].step == 2  # continues the global step counter
        assert resumed[-1].step == 3
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


def _unknown_dtype(path):
    _rewrite_header(path, _first_tensor("dtype", "f16"))


def _wrong_nbytes(path):
    _rewrite_header(path, _first_tensor("shape", [3, 5]))


def _offset_past_payload(path):
    _rewrite_header(path, _first_tensor("offset", 1 << 40))


def _unknown_config_key(path):
    _rewrite_header(path, lambda header: header["meta"]["config"].update(n_experts=4))


class TestCorruptModelFile:
    """A malformed model file is a data error: exit 2 and one line on stderr."""

    @pytest.fixture()
    def model_path(self, tmp_path):
        from hlsdbg.model import ModelConfig, Vocab

        vocab = Vocab(list(Vocab.SPECIALS) + ["int", "x"])
        config = ModelConfig(vocab_size=len(vocab), n_layers_enc=1, n_layers_dec=1, d_model=8,
                             n_heads=2, d_ff=8, max_src_len=16, max_tgt_len=4, dtype="f64")
        path = tmp_path / "model.bin"
        DebuggerModel(config, vocab, seed=0).save(path)
        return path

    @pytest.mark.parametrize("corrupt", [
        _truncate_header, _unknown_dtype, _wrong_nbytes, _offset_past_payload, _unknown_config_key,
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


class TestGenLlm:
    def test_stub_generation(self, tmp_path):
        out = tmp_path / "llm.jsonl"
        assert _run(["gen-llm", "--synth", "2", "--seed", "7", "--out", str(out)]) == 0
        records = read_jsonl(out)
        assert len(records) == 2
        assert all(r.strategy for r in records)
        manifest = json.loads((tmp_path / "llm.jsonl.manifest.json").read_text())
        assert manifest["counts"]["completion_calls"] >= 6

    def test_stub_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert _run(["gen-llm", "--synth", "2", "--seed", "7", "--out", str(a)]) == 0
        assert _run(["gen-llm", "--synth", "2", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
