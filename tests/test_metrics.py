import hashlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hlsdbg.lexer import lex
from hlsdbg.metrics import (
    METRICS_CSV_HEADER,
    BinaryEval,
    binary_metrics,
    code_topk,
    evaluate,
    normalize_for_match,
    rank_auc,
    strict_substring_match,
    write_metrics_csv,
)
from hlsdbg.model import DebuggerModel, ModelConfig, Vocab
from hlsdbg.mutate import generate_corpus
from hlsdbg.synth import make_corpus

TOY_CORPUS = Path(__file__).resolve().parents[1] / "data" / "toy_corpus"
EVAL_OUTPUT_SHA256 = "3a1daa0ee07b0d1d0b2fc03df637f78afa4e89a0e1a5db1d19dd41a08c68abee"


def _pairwise_auc(scores, labels):
    """Brute-force Mann-Whitney oracle: P(pos > neg) + 0.5 P(pos == neg)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return None
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


class TestRankAuc:
    def test_perfect_separation(self):
        assert rank_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_perfectly_wrong(self):
        assert rank_auc([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0]) == 0.0

    def test_all_ties_is_half(self):
        assert rank_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_undefined(self):
        assert rank_auc([0.1, 0.9], [1, 1]) is None
        assert rank_auc([0.1, 0.9], [0, 0]) is None

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            rank_auc([0.1], [1, 0])

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1, allow_nan=False).map(lambda x: round(x, 2)),
                st.integers(0, 1),
            ),
            min_size=2,
            max_size=40,
        )
    )
    def test_matches_pairwise_oracle(self, pairs):
        scores = [p[0] for p in pairs]
        labels = [p[1] for p in pairs]
        want = _pairwise_auc(scores, labels)
        got = rank_auc(scores, labels)
        if want is None:
            assert got is None
        else:
            assert got is not None and abs(got - want) < 1e-9


class TestBinaryMetrics:
    def test_confusion_counts(self):
        # pred: 1, 0, 1, 0  truth: 1, 1, 0, 0
        ev = binary_metrics([0.9, 0.2, 0.7, 0.1], [1, 1, 0, 0])
        assert (ev.tp, ev.fn, ev.fp, ev.tn) == (1, 1, 1, 1)
        assert ev.precision == 0.5 and ev.recall == 0.5 and ev.f1 == 0.5
        assert ev.n == 4

    def test_threshold_is_inclusive(self):
        ev = binary_metrics([0.5], [1], threshold=0.5)
        assert ev.tp == 1

    def test_custom_threshold(self):
        ev = binary_metrics([0.6, 0.4], [1, 0], threshold=0.7)
        assert (ev.tp, ev.fn, ev.tn) == (0, 1, 1)

    def test_zero_denominators_give_zero(self):
        ev = BinaryEval(tp=0, fp=0, tn=3, fn=0)
        assert ev.precision == 0.0 and ev.recall == 0.0 and ev.f1 == 0.0

    def test_auc_attached(self):
        ev = binary_metrics([0.9, 0.1], [1, 0])
        assert ev.auc == 1.0


class TestCodeTopk:
    SCORES = {1: 0.2, 2: 0.9, 3: 0.5, 4: 0.7}

    def test_top1_hit_and_miss(self):
        assert code_topk(self.SCORES, {2}, 1)
        assert not code_topk(self.SCORES, {4}, 1)

    def test_top2_order(self):
        assert code_topk(self.SCORES, {4}, 2)
        assert not code_topk(self.SCORES, {3}, 2)

    def test_k_larger_than_map(self):
        assert code_topk(self.SCORES, {1}, 10)

    def test_tie_prefers_lower_line(self):
        scores = {5: 0.5, 3: 0.5, 9: 0.5}
        assert code_topk(scores, {3}, 1)
        assert not code_topk(scores, {5}, 1)

    def test_empty_scores_is_miss(self):
        assert not code_topk({}, {1}, 5)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            code_topk(self.SCORES, set(), 1)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            code_topk(self.SCORES, {1}, 0)


class TestNormalize:
    def test_strips_punctuation_and_space(self):
        assert normalize_for_match("for (i = 0; i < n; i++)") == "fori0ini"
        assert normalize_for_match("a[i] = b + 1;") == "aib1"

    def test_keeps_word_chars(self):
        assert normalize_for_match("wide_acc42") == "wide_acc42"

    def test_empty(self):
        assert normalize_for_match("   \n\t") == ""

    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        once = normalize_for_match(text)
        assert normalize_for_match(once) == once


class TestStrictSubstringMatch:
    def test_exact_match(self):
        assert strict_substring_match("i < 8", "i < 8")

    def test_whitespace_insensitive(self):
        assert strict_substring_match("i<8", "i < 8")

    def test_embedded_match(self):
        assert strict_substring_match("x = 1; i < 8; y", "i < 8")

    def test_wrong_text(self):
        assert not strict_substring_match("i <= 8", "i < 7")

    def test_window_truncates_raw_text(self):
        ref = "abc"
        late = "." * (3 * len(ref)) + "abc"
        assert not strict_substring_match(late, ref)
        early = "abc" + "." * 50
        assert strict_substring_match(early, ref)

    def test_empty_reference_matches(self):
        assert strict_substring_match("anything", "")
        assert strict_substring_match("", "")

    def test_empty_generated_fails_nonempty_reference(self):
        assert not strict_substring_match("", "x = 1")


class _StubModel:
    """Duck-typed stand-in: emits scripted probabilities and text."""

    def __init__(self, mode):
        self.mode = mode

    def predict_record(self, record, given_location=False, threshold=0.5):
        stream = lex(record.buggy_code)
        labels = np.asarray(record.token_labels, dtype=np.float64)
        if self.mode == "oracle":
            probs = labels * 0.98 + 0.01
            text = record.snippet_correct
        else:
            probs = np.full(labels.shape, 0.5)
            text = ""
        return SimpleNamespace(
            token_probs=probs,
            type_logits=np.zeros(8),
            generated_text=text,
            generated_ids=[],
            truncated=False,
            stream=stream,
        )


@pytest.fixture(scope="module")
def records():
    return generate_corpus(make_corpus(2, seed=61), per_sample=8, seed=67).records


class TestEvaluate:
    def test_perfect_oracle_scores_everything(self, records):
        report = evaluate(_StubModel("oracle"), records)
        assert report.token.f1 == 1.0
        assert report.token.auc == 1.0
        assert report.line.f1 == 1.0
        assert report.top1 == 1.0
        assert report.top5 == 1.0
        assert report.correction_accuracy == 1.0
        assert report.truncated_samples == 0
        assert report.n_records == len(records)

    def test_constant_model_is_chance(self, records):
        report = evaluate(_StubModel("flat"), records)
        assert report.token.recall == 1.0  # 0.5 >= threshold flags everything
        assert report.token.auc == 0.5
        base_rate = report.token.tp / report.token.n
        assert abs(report.token.precision - base_rate) < 1e-12
        assert report.correction_accuracy == 0.0

    def test_per_type_breakdown_covers_all_types(self, records):
        report = evaluate(_StubModel("oracle"), records)
        seen = {r.bug_type.name for r in records}
        assert set(report.token_by_type) == seen
        assert set(report.line_by_type) == seen
        for ev in report.token_by_type.values():
            assert ev.f1 == 1.0

    def test_micro_pooling_consistency(self, records):
        report = evaluate(_StubModel("oracle"), records)
        total = sum(ev.n for ev in report.token_by_type.values())
        assert total == report.token.n
        assert report.token.n == sum(len(r.token_labels) for r in records)

    def test_threshold_passthrough(self, records):
        strict = evaluate(_StubModel("flat"), records, threshold=0.75)
        assert strict.token.recall == 0.0  # 0.5 < 0.75 flags nothing

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            evaluate(_StubModel("oracle"), [])

    def test_text_summary_mentions_key_numbers(self, records):
        report = evaluate(_StubModel("oracle"), records)
        text = report.text_summary()
        assert "top-1: 1.0000" in text
        assert "correction accuracy: 1.0000" in text
        assert "token" in text and "line" in text

    def test_csv_layout(self, records, tmp_path):
        report = evaluate(_StubModel("oracle"), records)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, report)
        rows = path.read_text().splitlines()
        assert rows[0] == ",".join(METRICS_CSV_HEADER)
        assert rows[1].startswith("overall,token,")
        assert rows[2].startswith("overall,line,")
        n_types = len(report.token_by_type)
        assert len(rows) == 1 + 2 + 2 * n_types


def test_eval_output_is_pinned(tmp_path):
    # text_summary and metrics CSV bytes of a seeded f64 model on toy and
    # synthetic records that fit its input, plain and given-location, at
    # two thresholds, must not move when the scoring is reorganised
    toy = [(p.stem, p.read_text()) for p in sorted(TOY_CORPUS.glob("*.c"))]
    records = (
        generate_corpus(toy, per_sample=3, seed=5).records
        + generate_corpus(make_corpus(6, seed=13), per_sample=3, seed=17).records
    )
    vocab = Vocab.for_records(records)
    config = ModelConfig(
        vocab_size=len(vocab), n_layers_enc=1, n_layers_dec=1, d_model=32, n_heads=2,
        d_ff=64, max_src_len=512, max_tgt_len=16, dtype="f64",
    )
    model = DebuggerModel(config, vocab, seed=11)
    h = hashlib.sha256()
    for given_location in (False, True):
        for threshold in (0.5, 0.9):
            report = evaluate(model, records, given_location=given_location, threshold=threshold)
            assert report.truncated_samples == 0
            path = tmp_path / "metrics.csv"
            write_metrics_csv(path, report)
            h.update(report.text_summary().encode())
            h.update(path.read_bytes())
    assert len(records) == 51
    assert h.hexdigest() == EVAL_OUTPUT_SHA256


def _tiny_model(records, **overrides):
    vocab = Vocab.for_records(records)
    config = dict(
        vocab_size=len(vocab), n_layers_enc=1, n_layers_dec=1, d_model=32, n_heads=2,
        d_ff=64, max_src_len=512, max_tgt_len=16, dtype="f64",
    )
    return DebuggerModel(ModelConfig(**{**config, **overrides}), vocab, seed=11)


class TestEvaluateModel:
    def test_fix_budget_counts_tokens_at_the_evaluation_threshold(self, records, monkeypatch):
        model = _tiny_model(records, max_tgt_len=64)
        last = model.config.head_mlp_layers - 1
        model.params[f"head_bug.w{last}"].data[:] = 0.0
        model.params[f"head_bug.b{last}"].data[:] = 0.3  # every token scores sigmoid(0.3) = 0.574
        budgets = []
        monkeypatch.setattr(model, "generate", lambda enc, max_len=None: budgets.append(max_len) or [])
        report = evaluate(model, records, threshold=0.75)
        assert report.token.tp + report.token.fp == 0  # no token is flagged at 0.75 ...
        assert budgets == [3 * 1 + 2] * len(records)  # ... so each fix gets the one-token budget

    def test_tokens_cut_from_a_truncated_input_count_as_misses(self):
        records = generate_corpus(make_corpus(6, seed=5), 4, seed=11).records
        report = evaluate(_tiny_model(records, max_src_len=60), records)
        assert report.truncated_samples > 0
        flagged = sum(sum(r.token_labels) for r in records)
        cut = sum(sum(r.token_labels[59:]) for r in records)  # one input slot is the pooled state
        assert (flagged, cut) == (42, 38)
        assert report.token.tp + report.token.fn == flagged
        assert report.token.n == sum(min(len(r.token_labels), 59) for r in records) + cut
        assert report.line.tp + report.line.fn == sum(len(r.line_labels) for r in records) == 24

    def test_given_location_scores_the_tokens_plain_mode_scores_on_a_truncated_input(self):
        # the span sentinels sit outside the `max_src_len` budget, so both modes see the same real tokens
        toy = [(p.stem, p.read_text()) for p in sorted(TOY_CORPUS.glob("*.c"))]
        records = generate_corpus(toy + make_corpus(6, seed=5), per_sample=3, seed=11).records
        model = _tiny_model(records, max_src_len=100)
        plain = evaluate(model, records)
        given = evaluate(model, records, given_location=True)
        assert len(records) == 51 and plain.truncated_samples == given.truncated_samples == 33
        assert plain.token.n == given.token.n == 4708
        assert plain.line.n == given.line.n
