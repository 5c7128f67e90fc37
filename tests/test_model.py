import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from hlsdbg import autodiff as ad
from hlsdbg.autodiff import Tensor
from hlsdbg.errors import DataError
from hlsdbg.lexer import lex
from hlsdbg.model import (
    BUG_TYPE_ORDER,
    FLAG_THRESHOLD,
    DebuggerModel,
    EncoderOutput,
    ModelConfig,
    Vocab,
    label_span,
    line_scores,
    suspect_span,
)
from hlsdbg.mutate import BugType, generate_corpus, splice_record
from hlsdbg.synth import make_corpus


TOY_CORPUS = Path(__file__).resolve().parents[1] / "data" / "toy_corpus"
TOY_PREDICTIONS_SHA256 = "f26cad8c8f5db43481b7067af094ff4004d01cc1bb6450b8b19da256f802a768"


@pytest.fixture(scope="module")
def records():
    return generate_corpus(make_corpus(3, seed=41), per_sample=4, seed=43).records


@pytest.fixture(scope="module")
def vocab(records):
    return Vocab.for_records(records)


def expected_param_count(cfg: ModelConfig) -> int:
    """Closed-form parameter count of a model of `cfg`."""
    d, f, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    embed = v * d + cfg.max_src_len * d + v * d + cfg.max_tgt_len * d
    enc = cfg.n_layers_enc * (4 * d * d + 2 * d * f + f + d)
    dec = cfg.n_layers_dec * (8 * d * d + 2 * d * f + f + d)
    hidden = (cfg.head_mlp_layers - 1) * (d * d + d)
    heads = 2 * hidden + (d * 1 + 1) + (d * len(BugType) + len(BugType))
    out = d * v + v
    return embed + enc + dec + heads + out


def _param_count(model: DebuggerModel) -> int:
    return sum(p.data.size for p in model.params.values())


def _tiny_config(vocab, **overrides):
    base = dict(
        vocab_size=len(vocab),
        n_layers_enc=1,
        n_layers_dec=1,
        d_model=32,
        n_heads=2,
        d_ff=64,
        max_src_len=256,
        max_tgt_len=16,
        dtype="f64",
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def model(vocab):
    return DebuggerModel(_tiny_config(vocab), vocab, seed=11)


def _ids(m: DebuggerModel, code: str) -> list[int]:
    return m.vocab.encode(lex(code).texts())


def _transparent(m: DebuggerModel) -> DebuggerModel:
    """`m` with the encoder's residual branches zeroed: each state is layer_norm(embedding + position)."""
    for i in range(m.config.n_layers_enc):
        for w in ("wo", "w2", "b2"):
            m.params[f"enc{i}.{w}"].data[...] = 0.0
    return m


O, C, PAD = Vocab.BUG_OPEN, Vocab.BUG_CLOSE, Vocab.PAD
BUDGET = 7  # tokens kept by a model of max_src_len 8; one slot is the pooled state's


def _tok(*ks: int) -> list[tuple[int, int]]:
    """(id, position) of tokens `ks` of a test row, whose token k is id 10 + k."""
    return [(10 + k, k + 1) for k in ks]


# name, rows as (token count, span), and per row (truncated, (id, position) of each slot after the pooled one)
SENTINEL_CASES = [
    ("cut-hi-at-budget-1", [(9, (5, 6))],
     [(True, _tok(0, 1, 2, 3, 4) + [(O, 6)] + _tok(5) + [(C, 7)] + _tok(6))]),
    ("cut-lo-at-budget-1-hi-at-budget", [(9, (6, 7))],
     [(True, _tok(0, 1, 2, 3, 4, 5) + [(O, 7)] + _tok(6))]),
    ("cut-lo-at-budget", [(9, (7, 8))], [(True, _tok(0, 1, 2, 3, 4, 5, 6))]),
    ("exact-hi-at-budget-1", [(7, (5, 6))],
     [(False, _tok(0, 1, 2, 3, 4) + [(O, 6)] + _tok(5) + [(C, 7)] + _tok(6))]),
    ("exact-lo-at-budget-1-hi-at-budget", [(7, (6, 7))],
     [(False, _tok(0, 1, 2, 3, 4, 5) + [(O, 7)] + _tok(6))]),
    ("short-span-ends-at-last-token", [(4, (2, 4))],
     [(False, _tok(0, 1) + [(O, 3)] + _tok(2, 3) + [(C, 5)])]),
    ("empty-span", [(3, (0, 0))], [(False, [(O, 1), (C, 1)] + _tok(0, 1, 2))]),
    ("cut-plain-beside-both-sentinels", [(12, (1, 2)), (12, None)],
     [(True, _tok(0) + [(O, 2)] + _tok(1) + [(C, 3)] + _tok(2, 3, 4, 5, 6)),
      (True, _tok(0, 1, 2, 3, 4, 5, 6) + [(PAD, 0), (PAD, 0)])]),
]


# --- vocabulary -------------------------------------------------------------


class TestVocab:
    def test_specials_occupy_reserved_slots(self):
        v = Vocab.build([["int", "a"]])
        assert v.id_to_token[:7] == list(Vocab.SPECIALS)
        assert v.PAD == 0 and v.UNK == 1 and v.CLS == 2

    def test_build_orders_by_frequency_then_text(self):
        v = Vocab.build([["b", "a", "a", "c", "b", "a"]])
        assert v.id_to_token[7:] == ["a", "b", "c"]

    def test_encode_decode_round_trip(self, vocab, records):
        texts = lex(records[0].buggy_code).texts()
        assert [vocab.id_to_token[i] for i in vocab.encode(texts)] == list(texts)

    def test_unknown_token_maps_to_unk(self, vocab):
        assert vocab.encode(["zzz_never_seen"]) == [Vocab.UNK]

    def test_rejects_missing_specials(self):
        with pytest.raises(ValueError):
            Vocab(["int", "a"])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Vocab(list(Vocab.SPECIALS) + ["a", "a"])


# --- config -----------------------------------------------------------------


class TestModelConfig:
    def test_head_divisibility_enforced(self, vocab):
        with pytest.raises(ValueError):
            _tiny_config(vocab, d_model=30, n_heads=4)

    def test_dtype_validated(self, vocab):
        with pytest.raises(ValueError):
            _tiny_config(vocab, dtype="f16")

    def test_np_dtype_mapping(self, vocab):
        assert _tiny_config(vocab).np_dtype == np.float64
        assert _tiny_config(vocab, dtype="f32").np_dtype == np.float32


# --- parameters --------------------------------------------------------------


class TestParameters:
    def test_count_matches_closed_form(self, vocab, model):
        assert _param_count(model) == expected_param_count(model.config)

    def test_count_matches_for_other_shape(self, vocab):
        cfg = _tiny_config(vocab, n_layers_enc=2, n_layers_dec=3, head_mlp_layers=2)
        m = DebuggerModel(cfg, vocab, seed=0)
        assert _param_count(m) == expected_param_count(cfg)

    def test_same_seed_same_weights(self, vocab):
        a = DebuggerModel(_tiny_config(vocab), vocab, seed=7)
        b = DebuggerModel(_tiny_config(vocab), vocab, seed=7)
        assert all(np.array_equal(a.params[k].data, b.params[k].data) for k in a.params)

    def test_different_seed_different_weights(self, vocab):
        a = DebuggerModel(_tiny_config(vocab), vocab, seed=7)
        b = DebuggerModel(_tiny_config(vocab), vocab, seed=8)
        assert any(not np.array_equal(a.params[k].data, b.params[k].data) for k in a.params)

    def test_seeded_init_keeps_reference_draw_order(self, vocab):
        # The draw loop as first written, parameter by parameter: the
        # name/shape spec must not move a single bit of seeded init.
        cfg = _tiny_config(vocab, n_layers_enc=2, n_layers_dec=2, dtype="f32")
        rng = np.random.default_rng(7)
        d, f, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
        ref = {}

        def draw(name, shape, std=0.02):
            ref[name] = np.zeros(shape, np.float32) if std == 0.0 else (rng.normal(size=shape) * std).astype(np.float32)

        for name, shape in (("src_embed", (v, d)), ("pos_enc", (cfg.max_src_len, d)),
                            ("tgt_embed", (v, d)), ("pos_dec", (cfg.max_tgt_len, d))):
            draw(name, shape)
        for i in range(cfg.n_layers_enc):
            for w in ("wq", "wk", "wv", "wo"):
                draw(f"enc{i}.{w}", (d, d))
            draw(f"enc{i}.w1", (d, f))
            draw(f"enc{i}.b1", (f,), 0.0)
            draw(f"enc{i}.w2", (f, d))
            draw(f"enc{i}.b2", (d,), 0.0)
        for i in range(cfg.n_layers_dec):
            for w in ("self_wq", "self_wk", "self_wv", "self_wo", "cross_wq", "cross_wk", "cross_wv", "cross_wo"):
                draw(f"dec{i}.{w}", (d, d))
            draw(f"dec{i}.w1", (d, f))
            draw(f"dec{i}.b1", (f,), 0.0)
            draw(f"dec{i}.w2", (f, d))
            draw(f"dec{i}.b2", (d,), 0.0)
        for head, width in (("head_bug", 1), ("head_type", len(BugType))):
            for j in range(cfg.head_mlp_layers - 1):
                draw(f"{head}.w{j}", (d, d))
                draw(f"{head}.b{j}", (d,), 0.0)
            last = cfg.head_mlp_layers - 1
            draw(f"{head}.w{last}", (d, width))
            draw(f"{head}.b{last}", (width,), 0.0)
        draw("out_w", (d, v))
        draw("out_b", (v,), 0.0)

        m = DebuggerModel(cfg, vocab, seed=7)
        assert list(m.params) == list(ref)
        for k, arr in ref.items():
            assert m.params[k].data.dtype == arr.dtype and m.params[k].data.tobytes() == arr.tobytes(), k

    def test_dtype_applied(self, vocab):
        m = DebuggerModel(_tiny_config(vocab, dtype="f32"), vocab, seed=0)
        assert all(p.dtype == np.float32 for p in m.params.values())


# --- encoder ------------------------------------------------------------------


class TestEncoder:
    def test_shapes_and_counts(self, model):
        enc = model.encode_ids([[10, 11, 12], [10, 11, 12, 13, 14]])
        d = model.config.d_model
        assert enc.memory.shape == (2, 6, d)
        assert enc.e_cls.shape == (2, d)
        assert enc.e_tokens.shape == (2, 5, d)
        assert enc.is_token.tolist() == [[True] * 3 + [False] * 2, [True] * 5]
        assert enc.pad_mask[0].tolist() == [1, 1, 1, 1, 0, 0]
        assert enc.truncated == [False, False]

    def test_truncation_flagged_not_silent(self, model):
        too_long = [10] * (model.config.max_src_len + 5)
        enc = model.encode_ids([too_long])
        assert enc.truncated == [True]
        assert enc.is_token.shape == (1, model.config.max_src_len - 1) and enc.is_token.all()

    @pytest.mark.parametrize("rows, want", [c[1:] for c in SENTINEL_CASES], ids=[c[0] for c in SENTINEL_CASES])
    def test_sentinel_rule(self, vocab, rows, want):
        # a row keeps BUDGET tokens; a sentinel goes before token j only if j < BUDGET and takes
        # position j + 1; padding takes position 0
        ids = [[10 + k for k in range(n)] for n, _ in rows]
        spans = [span for _, span in rows]
        cfg = _tiny_config(vocab, max_src_len=BUDGET + 1)
        m = _transparent(DebuggerModel(cfg, vocab, seed=11))
        enc = m.encode_ids(ids, spans)
        assert enc.truncated == [cut for cut, _ in want]
        for i, (_, slots) in enumerate(want):
            slot_ids, positions = (np.array(col) for col in zip((Vocab.CLS, 0), *slots))
            states = ad.layer_norm(Tensor(m.params["src_embed"].data[slot_ids] + m.params["pos_enc"].data[positions]))
            np.testing.assert_allclose(enc.memory.data[i], states.data, rtol=0, atol=1e-12)
            assert enc.is_token[i].tolist() == [t not in (O, C, PAD) for t, _ in slots]
            assert enc.pad_mask[i].tolist() == [1.0] + [float(t != PAD) for t, _ in slots]
        # with attention mixing the slots, each row's states are those it has alone
        full = DebuggerModel(cfg, vocab, seed=11)
        batch = full.encode_ids(ids, spans)
        for i, (row, span) in enumerate(zip(ids, spans)):
            alone = full.encode_ids([row], [span]).memory.data[0]
            np.testing.assert_allclose(batch.memory.data[i, : len(alone)], alone, rtol=0, atol=1e-12)

    def test_position_sensitivity(self, model):
        a = model.encode_ids([[10, 11, 12, 13]])
        b = model.encode_ids([[10, 12, 11, 13]])
        assert not np.allclose(a.e_cls.data, b.e_cls.data)

    def test_bitwise_deterministic(self, model):
        a = model.encode_ids([[10, 11, 12]])
        b = model.encode_ids([[10, 11, 12]])
        assert a.memory.data.tobytes() == b.memory.data.tobytes()

    def test_padding_does_not_change_real_rows(self, model):
        alone = model.encode_ids([[10, 11, 12]])
        padded = model.encode_ids([[10, 11, 12], [10] * 7])
        assert np.allclose(alone.memory.data[0], padded.memory.data[0, :4], atol=1e-12)


# --- heads ---------------------------------------------------------------------


class TestHeads:
    def test_bug_logits_shape(self, model):
        enc = model.encode_ids([[10, 11, 12, 13]])
        assert model.bug_logits(enc).shape == (1, 4)

    def test_type_logits_shape(self, model):
        enc = model.encode_ids([[10, 11]])
        assert model.type_logits(enc).shape == (1, len(BUG_TYPE_ORDER))

    def test_zero_pooled_state_gives_uniform_type_logits(self, model):
        d = model.config.d_model
        enc = EncoderOutput(
            memory=Tensor(np.zeros((1, 3, d))),
            e_cls=Tensor(np.zeros((1, d))),
            e_tokens=Tensor(np.zeros((1, 2, d))),
            pad_mask=np.ones((1, 3)),
            is_token=np.ones((1, 2), dtype=bool),
            truncated=[False],
        )
        logits = model.type_logits(enc).data
        assert np.allclose(logits, logits[0, 0])  # bias-only output is constant


# --- decoder --------------------------------------------------------------------


class TestDecoder:
    def test_logits_shape(self, model):
        enc = model.encode_ids([[10, 11, 12]])
        tgt = np.array([[Vocab.START, 10, 11]], dtype=np.int64)
        keep = np.ones_like(tgt, dtype=np.float64)
        assert model.decoder_logits(enc, tgt, keep).shape == (1, 3, len(model.vocab))

    def test_causal_mask_blocks_future(self, model):
        enc = model.encode_ids([[10, 11, 12]])
        keep = np.ones((1, 3), dtype=np.float64)
        a = model.decoder_logits(enc, np.array([[Vocab.START, 10, 11]]), keep)
        b = model.decoder_logits(enc, np.array([[Vocab.START, 10, 12]]), keep)
        assert np.array_equal(a.data[0, :2], b.data[0, :2])
        assert not np.allclose(a.data[0, 2], b.data[0, 2])

    def test_cross_attention_sees_source(self, model):
        keep = np.ones((1, 2), dtype=np.float64)
        tgt = np.array([[Vocab.START, 10]])
        a = model.decoder_logits(model.encode_ids([[10, 11]]), tgt, keep)
        b = model.decoder_logits(model.encode_ids([[12, 13]]), tgt, keep)
        assert not np.allclose(a.data, b.data)

    def test_target_longer_than_budget_rejected(self, model):
        enc = model.encode_ids([[10]])
        t = model.config.max_tgt_len + 1
        with pytest.raises(ValueError):
            model.decoder_logits(enc, np.full((1, t), 10), np.ones((1, t)))

    def test_generate_is_deterministic(self, model):
        enc = model.encode_ids([[10, 11, 12]])
        assert model.generate(enc) == model.generate(enc)

    def test_generate_respects_budget(self, model):
        enc = model.encode_ids([[10, 11, 12]])
        assert len(model.generate(enc, max_len=5)) <= 4

    def test_end_bias_stops_generation_immediately(self, vocab):
        m = DebuggerModel(_tiny_config(vocab), vocab, seed=3)
        m.params["out_b"].data[Vocab.END] = 1e9
        enc = m.encode_ids([[10, 11]])
        assert m.generate(enc) == []


class TestCachedDecoding:
    """Incremental greedy decoding against one teacher-forced decoder pass."""

    @pytest.fixture(scope="class")
    def deep(self, vocab):
        return DebuggerModel(_tiny_config(vocab, n_layers_dec=2), vocab, seed=13)

    @staticmethod
    def _teacher_forced(m, enc, ids):
        prefix = np.array([[Vocab.START] + list(ids)], dtype=np.int64)
        return m.decoder_logits(enc, prefix, np.ones(prefix.shape)).data[0]

    @pytest.mark.parametrize("max_len", [1, 2, 5, None])
    def test_ids_are_teacher_forced_argmaxes(self, deep, records, max_len):
        enc = deep.encode_ids([_ids(deep, records[0].buggy_code)])
        ids = deep.generate(enc, max_len=max_len)
        assert len(ids) == (max_len or deep.config.max_tgt_len) - 1  # this fixture never emits END
        tf = self._teacher_forced(deep, enc, ids)
        assert np.argmax(tf[: len(ids)], axis=-1).tolist() == ids

    def test_step_logits_match_teacher_forcing(self, deep, records):
        enc = deep.encode_ids([_ids(deep, records[1].buggy_code)], [label_span(records[1])])
        ids = deep.generate(enc)
        cross = deep._cross(enc)
        cache = [None] * deep.config.n_layers_dec
        steps = [
            deep._decode(np.array([[tok]]), pos, cross, None, cache).data[0, -1]
            for pos, tok in enumerate([Vocab.START] + ids)
        ]
        np.testing.assert_allclose(np.array(steps), self._teacher_forced(deep, enc, ids), rtol=0, atol=1e-12)

    def test_early_end(self, vocab, records):
        m = DebuggerModel(_tiny_config(vocab, n_layers_dec=2), vocab, seed=13)
        enc = m.encode_ids([_ids(m, records[0].buggy_code)])
        full = m.generate(enc)
        tf = self._teacher_forced(m, enc, full)
        margin = tf.max(axis=-1) - tf[:, Vocab.END]  # how far END is from winning each step
        k = next(k for k in range(1, len(full)) if margin[k] < margin[:k].min())
        # an END bias between the two margins makes END win first at step k
        m.params["out_b"].data[Vocab.END] += (margin[:k].min() + margin[k]) / 2
        ids = m.generate(enc)
        assert ids == full[:k]
        tf = self._teacher_forced(m, enc, ids)
        assert np.argmax(tf, axis=-1).tolist() == ids + [Vocab.END]


# --- record-level API -----------------------------------------------------------


class TestRecordApi:
    def test_plain_input_matches_token_count(self, model, records):
        rec = records[0]
        stream = lex(rec.buggy_code)
        enc = model.encode_ids([_ids(model, rec.buggy_code)])
        assert stream.n_tokens == len(rec.token_labels)
        assert enc.is_token.shape == (1, stream.n_tokens) and enc.is_token.all()  # no sentinel slot

    def test_given_location_adds_sentinels(self, model, records):
        rec = records[0]
        flagged = [i for i, y in enumerate(rec.token_labels) if y]
        span = label_span(rec)
        assert span == (flagged[0], flagged[-1] + 1)
        enc = model.encode_ids([_ids(model, rec.buggy_code)], [span])
        assert enc.is_token.shape == (1, len(rec.token_labels) + 2)
        assert np.flatnonzero(~enc.is_token[0]).tolist() == [flagged[0], flagged[-1] + 2]

    def test_label_span_without_flagged_tokens(self, model, records):
        rec = dataclasses.replace(records[0], token_labels=[0] * len(records[0].token_labels))
        assert label_span(rec) == (0, 0)
        enc = model.encode_ids([[10, 11]], [label_span(rec)])
        assert enc.is_token[0].tolist() == [False, False, True, True]  # both sentinels before token 0

    def test_sentinels_keep_token_positions(self, vocab, records):
        # With the encoder's residual branches zeroed, each state depends on
        # its own token and position only; sentinels must not shift them.
        m = _transparent(DebuggerModel(_tiny_config(vocab), vocab, seed=11))
        rec = records[0]
        ids = _ids(m, rec.buggy_code)
        plain = m.encode_ids([ids]).e_tokens.data[0]
        enc = m.encode_ids([ids], [label_span(rec)])
        real = enc.is_token[0]
        assert real.sum() == len(ids)
        assert np.array_equal(enc.e_tokens.data[0][real], plain)

    def test_plain_prediction_reads_no_labels(self, vocab, records):
        model = DebuggerModel(_tiny_config(vocab), vocab, seed=11)
        model.params["out_b"].data[Vocab.END] = -1e9  # the budget alone sets the fix length
        rec = records[1]
        want = model.predict_source(rec.buggy_code)
        relabeled = [
            dataclasses.replace(rec, token_labels=[y] * len(rec.token_labels)) for y in (0, 1)
        ]
        for r in [rec, *relabeled]:
            got = model.predict_record(r)
            for f in dataclasses.fields(got):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert (a.tobytes() == b.tobytes()) if isinstance(a, np.ndarray) else a == b, f.name

    def test_given_location_predicts_on_label_span(self, model, records):
        rec = records[1]
        got = model.predict_record(rec, given_location=True)
        want = model.predict_source(rec.buggy_code, label_span(rec))
        assert got.generated_ids == want.generated_ids
        assert got.token_probs.tobytes() == want.token_probs.tobytes()
        lo, hi = label_span(rec)
        assert len(got.generated_ids) <= 3 * max(1, hi - lo) + 1

    def test_predict_record_alignment(self, model, records):
        rec = records[1]
        for given in (False, True):
            pred = model.predict_record(rec, given_location=given)
            assert pred.token_probs.shape == (len(rec.token_labels),)
            assert np.all((pred.token_probs >= 0) & (pred.token_probs <= 1))
            assert pred.type_logits.shape == (len(BUG_TYPE_ORDER),)
            assert not pred.truncated

    def test_predict_record_flags_truncation(self, vocab, records):
        rec = records[1]
        short = DebuggerModel(_tiny_config(vocab, max_src_len=32), vocab, seed=5)
        pred = short.predict_record(rec, given_location=False)
        assert pred.truncated
        assert pred.token_probs.shape == (31,)  # budget minus the pooled slot

    def test_predict_record_deterministic(self, model, records):
        a = model.predict_record(records[2])
        b = model.predict_record(records[2])
        assert a.token_probs.tobytes() == b.token_probs.tobytes()
        assert a.generated_text == b.generated_text

    def test_generated_text_renders_unk_as_question_mark(self, vocab):
        m = DebuggerModel(_tiny_config(vocab), vocab, seed=3)
        m.params["out_b"].data[Vocab.UNK] = 1e9
        enc = m.encode_ids([[10, 11]])
        ids = m.generate(enc, max_len=3)
        assert ids and all(i == Vocab.UNK for i in ids)
        words = ["?" if i == Vocab.UNK else m.vocab.id_to_token[i] for i in ids]
        assert set(words) == {"?"}

    def test_toy_predictions_are_pinned(self):
        # token probabilities, type logits and generated ids of a seeded f64
        # model on every toy kernel, plain and with a known span, must not
        # move a bit when the model's arithmetic is reorganised
        kernels = [p.read_text() for p in sorted(TOY_CORPUS.glob("*.c"))]
        vocab = Vocab.build(lex(code).texts() for code in kernels)
        m = DebuggerModel(_tiny_config(vocab, n_layers_enc=2, n_layers_dec=2, n_heads=4), vocab, seed=7)
        h = hashlib.sha256()
        for code in kernels:
            n = lex(code).n_tokens
            for span in (None, (n // 3, n // 3 + 4)):
                pred = m.predict_source(code, span)
                h.update(pred.token_probs.tobytes())
                h.update(pred.type_logits.tobytes())
                h.update(np.array(pred.generated_ids, dtype=np.int64).tobytes())
        assert len(kernels) == 11
        assert h.hexdigest() == TOY_PREDICTIONS_SHA256

    def test_target_ids_end_terminated(self, model, records):
        tgt = model.target_ids(records[0])
        assert tgt[-1] == Vocab.END
        assert len(tgt) <= model.config.max_tgt_len

    def test_target_of_an_inserted_bug_is_end_alone(self, model):
        # the fix of a bug inserted into the correct code deletes the insertion
        code = "int f(int a) { return a; }\n"
        at = code.index("a;")
        record = splice_record("insert", lex(code), at, at, "- ", BugType.ZERO)
        assert record.snippet_correct == ""
        assert model.target_ids(record) == [Vocab.END]


# --- persistence -------------------------------------------------------------------


class TestPersistence:
    def test_save_load_round_trip(self, model, records, tmp_path):
        path = tmp_path / "model.bin"
        model.save(path)
        loaded = DebuggerModel.load(path)
        assert loaded.config == model.config
        assert loaded.vocab.id_to_token == model.vocab.id_to_token
        for k in model.params:
            assert np.array_equal(loaded.params[k].data, model.params[k].data)
        a = model.predict_record(records[0])
        b = loaded.predict_record(records[0])
        assert a.token_probs.tobytes() == b.token_probs.tobytes()
        assert a.generated_text == b.generated_text

    def test_loaded_params_are_bit_equal_and_writable(self, model, tmp_path):
        from hlsdbg.optim import AdamState, adam_step

        path = tmp_path / "model.bin"
        model.save(path)
        loaded = DebuggerModel.load(path)
        assert list(loaded.params) == list(model.params)
        for k, p in model.params.items():
            q = loaded.params[k]
            assert q.dtype == p.dtype and q.data.tobytes() == p.data.tobytes()
            assert q.data.flags.writeable and q.requires_grad
        arrays = {k: p.data for k, p in loaded.params.items()}
        for p in loaded.params.values():
            p.grad = np.ones_like(p.data)
        adam_step(loaded.params, AdamState(), lr=1e-3)
        assert all(loaded.params[k].data is arr for k, arr in arrays.items())  # updated in place
        assert not np.array_equal(loaded.params["out_w"].data, model.params["out_w"].data)

    def test_load_draws_no_random_numbers(self, model, tmp_path, monkeypatch):
        path = tmp_path / "model.bin"
        model.save(path)

        def no_draws(*args, **kwargs):
            raise AssertionError("loading a model drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        assert _param_count(DebuggerModel.load(path)) == _param_count(model)

    def test_load_rejects_unknown_config_key(self, model, tmp_path):
        from dataclasses import asdict

        from hlsdbg.tensorstore import save_tensors

        path = tmp_path / "extra.bin"
        meta = {"config": {**asdict(model.config), "n_experts": 4}, "vocab": model.vocab.id_to_token}
        save_tensors(path, {k: p.data for k, p in model.params.items()}, meta=meta)
        with pytest.raises(DataError, match="n_experts"):
            DebuggerModel.load(path)

    def test_load_rejects_missing_metadata(self, tmp_path):
        from hlsdbg.tensorstore import save_tensors

        path = tmp_path / "bare.bin"
        save_tensors(path, {"w": np.zeros(2, dtype=np.float32)})
        with pytest.raises(DataError):
            DebuggerModel.load(path)


# --- line pooling -------------------------------------------------------------------


class TestLineScores:
    def test_max_pooling_per_line(self):
        stream = lex("int a = 1;\nint b = 2;\n")
        probs = np.array([0.1, 0.9, 0.2, 0.3, 0.4, 0.8, 0.1, 0.5, 0.2, 0.6])
        scores = line_scores(probs, stream)
        assert scores == {1: 0.9, 2: 0.8}

    def test_truncated_probs_cover_prefix_lines_only(self):
        stream = lex("int a = 1;\nint b = 2;\n")
        scores = line_scores(np.array([0.3, 0.7]), stream)
        assert scores == {1: 0.7}


class TestSuspectSpan:
    def test_flagged_run_around_the_top_token(self):
        assert suspect_span(np.array([0.2, 0.5, 0.7, 0.49, 0.5])) == (1, 3)

    def test_top_token_alone_when_nothing_is_flagged(self):
        assert suspect_span(np.array([0.1, 0.3, 0.2])) == (1, 2)

    def test_token_at_threshold_counts_in_budget_and_span(self, vocab, monkeypatch):
        m = DebuggerModel(_tiny_config(vocab, max_tgt_len=64), vocab, seed=3)
        last = m.config.head_mlp_layers - 1
        m.params[f"head_bug.w{last}"].data[:] = 0.0  # every token scores sigmoid(0) = 0.5 exactly
        budgets = []
        monkeypatch.setattr(m, "generate", lambda enc, max_len=None: budgets.append(max_len) or [])
        code = "x = y + 1;"
        pred = m.predict_source(code)
        n = lex(code).n_tokens
        assert n == 6 and np.all(pred.token_probs == FLAG_THRESHOLD)
        assert budgets == [3 * n + 2]
        assert suspect_span(pred.token_probs) == (0, n)
