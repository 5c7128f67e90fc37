"""The benchmark's own tests: tiny runs of every workload, and planted faults.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

E2E_UNITS = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
NAMED = {
    "train-desk": {"train_records_per_s": "1/s", "train_loss_final": "loss"},
    "debug-eval": {"debug_latency_ms.p50": "ms", "debug_latency_ms.p90": "ms", "eval_records_per_s": "1/s"},
    "corpus-build": {"inject_kernels_per_s": "1/s", "dedup_pairs_per_s": "1/s", "genllm_kernels_per_s": "1/s"},
}
COMMON = {**E2E_UNITS, "items_per_s.raw": "1/s", "failed_frac": "frac"}


def _run(tmp_path: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main([
            "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
            "--size", "tiny", "--work-dir", str(tmp_path),
        ])
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_tiny_run_prints_every_metric_with_its_unit(tmp_path, workload):
    for trace, expected in ((0, E2E_UNITS), (1, LAYER_UNITS)):
        code, lines = _run(tmp_path, workload, trace)
        assert code == 0, lines
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        printed = {line.split()[1]: line.split()[-1] for line in lines if line.startswith("metric ")}
        for name, unit in {**NAMED[workload], **COMMON}.items():
            assert printed.get(name) == unit, (name, printed)
    assert any(line.startswith("tracing overhead items_per_s") for line in lines)
    trace = json.loads((tmp_path / f"{workload}-s3-t1" / "trace.json").read_text())
    assert trace["spans"] and all(len(s) == 4 for s in trace["spans"])


def test_per_layer_units_match_the_benchmark_file():
    assert tracing.PER_LAYER_UNITS == LAYER_UNITS


def test_refuses_a_tree_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = run.main(["--workload", "corpus-build", "--seed", "1", "--seconds", "1"])
    assert code != 0 and out.getvalue() == ""


# --- planted faults -----------------------------------------------------------------


def _curve():
    from hlsdbg.training import CurveRow

    return [CurveRow(i, 0.5 + i, 0.25 * i, 1.0 / (i + 1), 2.0 + i) for i in range(1, 9)]


def test_curve_checks_reject_a_perturbed_row():
    full = _curve()
    resumed = [r.__class__(**vars(r)) for r in full[4:]]
    assert checks.curve_rows_finite(full) and checks.resume_tail_matches(full, resumed)
    resumed[1].l_all = resumed[1].l_all + 2.0 ** -40
    assert not checks.resume_tail_matches(full, resumed)
    full[2].l_bug = float("nan")
    assert not checks.curve_rows_finite(full)


def test_greedy_check_rejects_a_tampered_id():
    from hlsdbg.lexer import lex
    from hlsdbg.model import DebuggerModel, ModelConfig, Vocab

    code = (ROOT / "data" / "toy_corpus" / "fir.c").read_text()
    vocab = Vocab.build([lex(code).texts()])
    config = ModelConfig(vocab_size=len(vocab), n_layers_enc=1, n_layers_dec=1, d_model=16,
                         n_heads=2, d_ff=16, max_tgt_len=12, dtype="f64")
    model = DebuggerModel(config, vocab, seed=8)
    ids = model.generate(model.encode_ids([vocab.encode(lex(code).texts())]), max_len=12)
    assert len(ids) == 11  # this seed decodes to the cap, so every position is checked
    assert checks.greedy_ids_reproduced(model, code, ids)
    tampered = list(ids)
    tampered[5] = (tampered[5] + 1) % len(vocab)
    assert not checks.greedy_ids_reproduced(model, code, tampered)


def test_token_prob_check_rejects_bad_shapes_and_ranges():
    import numpy as np

    assert checks.token_probs_valid(np.array([0.0, 0.5, 1.0]), 3)
    assert not checks.token_probs_valid(np.array([0.0, 0.5]), 3)
    assert not checks.token_probs_valid(np.array([0.0, 1.5, 0.2]), 3)


def test_dedup_check_rejects_a_flipped_decision():
    from hlsdbg.corpus import rouge_l

    toy = sorted((ROOT / "data" / "toy_corpus").glob("*.c"))
    samples = [(p.stem, p.read_text()) for p in toy[:4]]
    bench = [samples[0][1] + "\nint extra;\n", toy[6].read_text()]
    kept = {sid for sid, code in samples if max(rouge_l(code, b) for b in bench) <= 0.5}
    assert 0 < len(kept) < len(samples)
    assert checks.dedup_decisions_match(samples, bench, kept, 0.5)
    flipped = kept ^ {samples[1][0]}
    assert not checks.dedup_decisions_match(samples, bench, flipped, 0.5)


def test_independent_lcs_matches_known_values():
    assert checks.lcs_length("abcbdab", "bdcaba") == 4
    assert checks.lcs_length([], ["a"]) == 0
    assert checks.rouge_l_f("a b c", "a b c") == 1.0
