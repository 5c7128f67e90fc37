import collections
import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest

from hlsdbg.autodiff import Tape, Tensor, backward
from hlsdbg.errors import DataError, NumericError
from hlsdbg.lexer import lex
from hlsdbg.model import DebuggerModel, ModelConfig, Vocab, label_span
from hlsdbg.mutate import generate_corpus
from hlsdbg.synth import make_corpus
from hlsdbg.training import (
    CURVE_HEADER,
    LossWeights,
    TrainConfig,
    _build_batch,
    _epoch_batches,
    _example,
    batch_losses,
    load_checkpoint,
    loss_all,
    loss_bug,
    loss_decoder,
    loss_type,
    lr_at,
    parse_config_text,
    read_curve_csv,
    resume,
    train,
    write_curve_csv,
)
from test_acceptance import OVERFIT_SEEDS, TOY_CORPUS

# platform-specific, like the model's TOY_PREDICTIONS_SHA256
TRAINING_RUN_SHA256 = "723330f920d35f9f6654a2d76d0e6a4ec2cb99b342da8d60d1e16d448d27e880"


def _t(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


@pytest.fixture(scope="module")
def records():
    return generate_corpus(make_corpus(2, seed=51), per_sample=4, seed=53).records


@pytest.fixture(scope="module")
def vocab(records):
    return Vocab.for_records(records)


def _tiny_model(vocab, seed=1, **overrides):
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
    return DebuggerModel(ModelConfig(**base), vocab, seed=seed)


# --- loss oracles --------------------------------------------------------------


class TestLossType:
    def test_uniform_eight_way_is_ln8(self):
        logits = _t(np.zeros((4, 8)))
        loss = loss_type(logits, np.array([0, 3, 5, 7]))
        assert abs(float(loss.data) - math.log(8)) < 1e-12

    def test_handcrafted_value(self):
        z = np.array([[0.3, -1.2, 2.0], [1.0, 1.0, -0.5]])
        labels = np.array([2, 0])
        want = float(
            np.mean(
                [-(z[i, labels[i]] - np.log(np.exp(z[i]).sum())) for i in range(2)]
            )
        )
        assert abs(float(loss_type(_t(z), labels).data) - want) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            loss_type(_t(np.zeros((1, 8))), np.array([8]))
        with pytest.raises(ValueError):
            loss_type(_t(np.zeros((1, 8))), np.array([-1]))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            loss_type(_t(np.zeros((0, 8))), np.array([], dtype=np.int64))


class TestLossBug:
    W = LossWeights()

    def test_zero_logits_give_ln2_on_negatives(self):
        logits = _t(np.zeros((2, 5)))
        labels = np.zeros((2, 5))
        mask = np.ones((2, 5))
        assert abs(float(loss_bug(logits, labels, mask, self.W).data) - math.log(2)) < 1e-12

    def test_zero_logits_give_ln2_on_positives(self):
        logits = _t(np.zeros((2, 5)))
        labels = np.ones((2, 5))
        mask = np.ones((2, 5))
        assert abs(float(loss_bug(logits, labels, mask, self.W).data) - math.log(2)) < 1e-12

    def test_asymmetric_weighting_oracle(self):
        z = np.array([[1.5, -0.7, 0.2]])
        y = np.array([[1.0, 0.0, 1.0]])
        m = np.ones((1, 3))
        w = y * self.W.alpha_true + (1 - y) * self.W.alpha_false
        bce = np.logaddexp(0, z) - z * y
        want = float((w * bce).sum() / w.sum())
        assert abs(float(loss_bug(_t(z), y, m, self.W).data) - want) < 1e-12

    def test_padding_excluded(self):
        z = np.array([[0.0, 100.0]])
        y = np.array([[0.0, 0.0]])
        m = np.array([[1.0, 0.0]])  # the wild logit sits on padding
        assert abs(float(loss_bug(_t(z), y, m, self.W).data) - math.log(2)) < 1e-12

    def test_all_padding_rejected(self):
        with pytest.raises(ValueError):
            loss_bug(_t(np.zeros((1, 3))), np.zeros((1, 3)), np.zeros((1, 3)), self.W)

    def test_positive_only_batch_with_zero_alpha_true_is_zero(self):
        logits = _t(np.array([[0.3, -2.0]]))
        with Tape() as tape:
            loss = loss_bug(logits, np.ones((1, 2)), np.ones((1, 2)), LossWeights(alpha_true=0.0))
        backward(tape, loss)
        assert float(loss.data) == 0.0
        assert np.array_equal(logits.grad, np.zeros((1, 2)))


class TestLossDecoder:
    def test_uniform_four_way_is_ln4(self):
        logits = _t(np.zeros((1, 3, 4)))
        targets = np.array([[1, 2, 3]])
        keep = np.ones((1, 3))
        assert abs(float(loss_decoder(logits, targets, keep).data) - math.log(4)) < 1e-12

    def test_handcrafted_value(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(2, 3, 5))
        targets = np.array([[1, 2, 0], [4, 0, 0]])
        keep = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        lp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        rows = []
        for i in range(2):
            picked = [lp[i, t, targets[i, t]] for t in range(3) if keep[i, t]]
            rows.append(-np.mean(picked))
        want = float(np.mean(rows))
        assert abs(float(loss_decoder(_t(z), targets, keep).data) - want) < 1e-10

    def test_per_sample_mean_not_pooled(self):
        # one long + one short target must weigh samples equally
        z = np.zeros((2, 4, 3))
        z[1, 0, :] = [10.0, 0.0, 0.0]
        targets = np.array([[1, 1, 1, 1], [0, 0, 0, 0]])
        keep = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
        lp_long = math.log(3)
        lp_short = -float(10.0 - np.log(np.exp([10.0, 0.0, 0.0]).sum()))
        want = (lp_long + lp_short) / 2
        assert abs(float(loss_decoder(_t(z), targets, keep).data) - want) < 1e-12

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            loss_decoder(_t(np.zeros((1, 2, 3))), np.zeros((1, 2), dtype=int), np.zeros((1, 2)))


class TestLossAll:
    def test_default_composition_of_unit_parts(self):
        combined = loss_all(_t(1.0), _t(1.0), _t(1.0), LossWeights())
        assert abs(float(combined.data) - 12.2) < 1e-12

    def test_custom_composition(self):
        w = LossWeights(alpha_type=1.0, alpha_bug=2.0, alpha_decoder=3.0)
        combined = loss_all(_t(1.0), _t(1.0), _t(1.0), w)
        assert abs(float(combined.data) - 6.0) < 1e-12

    def test_zero_decoder_weight_drops_decoder_term(self):
        w = LossWeights(alpha_decoder=0.0)
        combined = loss_all(_t(1.0), _t(1.0), _t(5.0), w)
        assert abs(float(combined.data) - 2.2) < 1e-12

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(alpha_bug=-1.0)

    def test_both_bce_weights_zero_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(alpha_true=0.0, alpha_false=0.0)


# --- gradient routing ------------------------------------------------------------


def _one_step_grads(model, records, weights):
    batch = _build_batch(model, [_example(model, r) for r in records[:2]], [False, False])
    with Tape() as tape:
        combined = batch_losses(model, batch, weights)[-1]
    backward(tape, combined)
    grads = {k: (None if p.grad is None else p.grad.copy()) for k, p in model.params.items()}
    for p in model.params.values():
        p.zero_grad()
    return grads


def _zeroish(g):
    return g is None or not np.any(g)


class TestGradientRouting:
    def test_zero_bug_weight_stops_bug_head(self, vocab, records):
        model = _tiny_model(vocab)
        grads = _one_step_grads(model, records, LossWeights(alpha_bug=0.0))
        assert all(_zeroish(g) for k, g in grads.items() if k.startswith("head_bug."))
        assert any(not _zeroish(g) for k, g in grads.items() if k.startswith("head_type."))

    def test_zero_decoder_weight_stops_decoder(self, vocab, records):
        model = _tiny_model(vocab)
        grads = _one_step_grads(model, records, LossWeights(alpha_decoder=0.0))
        assert all(_zeroish(g) for k, g in grads.items() if k.startswith(("dec0.", "out_", "tgt_embed", "pos_dec")))
        assert any(not _zeroish(g) for k, g in grads.items() if k.startswith("enc0."))

    def test_default_weights_reach_everything(self, vocab, records):
        model = _tiny_model(vocab)
        grads = _one_step_grads(model, records, LossWeights())
        for prefix in ("head_bug.", "head_type.", "dec0.", "enc0.", "out_w", "src_embed", "tgt_embed"):
            assert any(not _zeroish(g) for k, g in grads.items() if k.startswith(prefix)), prefix


# --- trainer ----------------------------------------------------------------------


class TestTrain:
    def test_loss_decreases_on_tiny_overfit(self, vocab, records):
        model = _tiny_model(vocab, seed=2)
        cfg = TrainConfig(epochs=12, batch_size=4, lr=1e-3, seed=7)
        result = train(model, records[:4], cfg)
        assert result.curve[-1].l_all < result.curve[0].l_all
        assert result.epochs == 12

    def test_deterministic_curves(self, vocab, records):
        cfg = TrainConfig(epochs=3, batch_size=4, lr=1e-3, seed=9)
        a = train(_tiny_model(vocab, seed=3), records[:4], cfg)
        b = train(_tiny_model(vocab, seed=3), records[:4], cfg)
        assert a.curve == b.curve

    def test_seed_changes_curve(self, vocab, records):
        a = train(_tiny_model(vocab, seed=3), records[:4], TrainConfig(epochs=2, batch_size=2, lr=1e-3, seed=1))
        b = train(_tiny_model(vocab, seed=3), records[:4], TrainConfig(epochs=2, batch_size=2, lr=1e-3, seed=2))
        assert a.curve != b.curve

    def test_given_location_fraction_trains(self, vocab, records):
        model = _tiny_model(vocab, seed=4)
        cfg = TrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=5, given_location_fraction=1.0)
        result = train(model, records[:4], cfg)
        assert all(np.isfinite(row.l_all) for row in result.curve)

    def test_given_location_trains_on_truncated_records(self, vocab, records):
        # these records run past max_src_len 70 with spans inside it, so a given-location row
        # keeps both sentinels and is two ids longer than the plain rows it is batched with
        model = _tiny_model(vocab, seed=4, max_src_len=70)
        cfg = TrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=5, given_location_fraction=0.5)
        result = train(model, [records[i] for i in (1, 2, 4, 5)], cfg)
        assert result.n_truncated == 4
        assert all(np.isfinite(row.l_all) for row in result.curve)

    def test_stop_fn_halts_after_epoch(self, vocab, records):
        model = _tiny_model(vocab, seed=5)
        cfg = TrainConfig(epochs=50, batch_size=4, lr=1e-3, seed=5)
        result = train(model, records[:4], cfg, stop_fn=lambda epoch, m: epoch >= 1)
        assert result.epochs == 2

    def test_first_curve_row_is_batch_losses_of_first_batch(self, vocab, records):
        cfg = TrainConfig(epochs=1, batch_size=3, lr=1e-3, seed=4, given_location_fraction=0.5)
        row = train(_tiny_model(vocab, seed=7), records, cfg).curve[0]
        model = _tiny_model(vocab, seed=7)
        examples = [_example(model, r) for r in records]
        lengths = [len(ex.ids) for ex in examples]
        first = _epoch_batches(lengths, cfg.batch_size, cfg.given_location_fraction, random.Random(cfg.seed))[0]
        batch = _build_batch(model, [examples[i] for i, _ in first], [given for _, given in first])
        _, *losses = batch_losses(model, batch, LossWeights())
        assert [float(loss.data) for loss in losses] == [row.l_type, row.l_bug, row.l_decoder, row.l_all]

    def test_given_location_labels_skip_the_sentinels(self, vocab, records, monkeypatch):
        # a given-location row's labels keep their order; its sentinel slots count with label 0
        from hlsdbg import training

        seen = {}

        def spy(logits, labels, mask, weights):
            seen.update(labels=labels[0], mask=mask[0])
            return loss_bug(logits, labels, mask, weights)

        monkeypatch.setattr(training, "loss_bug", spy)
        model = _tiny_model(vocab)
        rec = records[0]
        batch_losses(model, _build_batch(model, [_example(model, rec)], [True]), LossWeights())
        lo, hi = label_span(rec)
        assert seen["mask"].tolist() == [1.0] * (len(rec.token_labels) + 2)
        assert seen["labels"][lo] == seen["labels"][hi + 1] == 0
        assert np.delete(seen["labels"], [lo, hi + 1]).tolist() == rec.token_labels

    def test_training_run_is_pinned(self, vocab, records):
        # every curve row and every final parameter of a seeded f64 run, so a
        # reorganised loss, backward or optimizer must not move a bit
        model = _tiny_model(vocab, seed=12)
        cfg = TrainConfig(epochs=3, batch_size=3, lr=1e-3, seed=14, clip_norm=1.0, given_location_fraction=0.5)
        result = train(model, records[:6], cfg)
        h = hashlib.sha256()
        for row in result.curve:
            h.update(np.array(dataclasses.astuple(row), dtype=np.float64).tobytes())
        for name in sorted(model.params):
            h.update(name.encode())
            h.update(model.params[name].data.tobytes())
        assert len(result.curve) == 6
        assert h.hexdigest() == TRAINING_RUN_SHA256

    def test_nan_raises_numeric_error(self, vocab, records):
        model = _tiny_model(vocab, seed=6)
        model.params["src_embed"].data[:] = np.inf
        cfg = TrainConfig(epochs=1, batch_size=2, lr=1e-3, seed=0)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            train(model, records[:2], cfg)

    def test_empty_records_rejected(self, vocab):
        with pytest.raises(ValueError):
            train(_tiny_model(vocab), [], TrainConfig(epochs=1))

    @pytest.mark.parametrize(
        "weights, label",
        [(LossWeights(alpha_false=0.0), 0), (LossWeights(alpha_true=0.0), 1)],
        ids=["no_flag_zero_alpha_false", "all_flagged_zero_alpha_true"],
    )
    def test_unweighted_batch_has_zero_bug_term(self, vocab, records, weights, label):
        batch = [dataclasses.replace(r, token_labels=[label] * len(r.token_labels)) for r in records[:2]]
        model = _tiny_model(vocab, seed=8)
        head = {k: p.data.copy() for k, p in model.params.items() if k.startswith("head_bug.")}
        result = train(model, batch, TrainConfig(epochs=2, batch_size=2, lr=1e-3, seed=0), weights)
        assert [row.l_bug for row in result.curve] == [0.0, 0.0]
        assert all(np.isfinite(row.l_all) for row in result.curve)
        assert all(np.array_equal(model.params[k].data, v) for k, v in head.items())

    def test_checkpoint_and_resume_reproduce_curve(self, vocab, records, tmp_path):
        cfg_full = TrainConfig(epochs=4, batch_size=4, lr=1e-3, seed=11, checkpoint_every=2)
        full = train(_tiny_model(vocab, seed=7), records[:4], cfg_full, out_dir=tmp_path / "full")

        part_dir = tmp_path / "part"
        cfg_half = TrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=11, checkpoint_every=2)
        first = train(_tiny_model(vocab, seed=7), records[:4], cfg_half, out_dir=part_dir)
        assert (part_dir / "checkpoint_00002.bin").is_file(), "expected a checkpoint after epoch 2"
        resumed_model, second = resume(part_dir / "checkpoint_00002.bin", records[:4], out_dir=part_dir, epochs=4)

        stitched = first.curve + second.curve
        assert [r.step for r in stitched] == [r.step for r in full.curve]
        for a, b in zip(stitched, full.curve):
            assert a == b  # bit-for-bit float equality

    def test_resume_into_same_dir_rewrites_curve(self, vocab, records, tmp_path):
        cfg = TrainConfig(epochs=4, batch_size=2, lr=1e-3, seed=11, checkpoint_every=1)
        full = train(_tiny_model(vocab, seed=7), records[:4], cfg, out_dir=tmp_path / "full")
        run = tmp_path / "run"
        first = train(_tiny_model(vocab, seed=7), records[:4], dataclasses.replace(cfg, epochs=3), out_dir=run)
        assert sorted(p.name for p in run.glob("checkpoint_*")) == [f"checkpoint_0000{e}.bin" for e in (1, 2, 3)]
        resume(run / "checkpoint_00002.bin", records[:4], out_dir=run, epochs=4)  # from epoch 2 of 3
        assert [r.step for r in read_curve_csv(run / "curve.csv")] == list(range(1, len(full.curve) + 1))
        assert (run / "curve.csv").read_bytes() == (tmp_path / "full" / "curve.csv").read_bytes()

    def test_resume_ignores_unrelated_curve_in_out_dir(self, vocab, records, tmp_path):
        cfg = TrainConfig(epochs=4, batch_size=2, lr=1e-3, seed=11, checkpoint_every=2)
        full = tmp_path / "full"
        train(_tiny_model(vocab, seed=7), records[:4], cfg, out_dir=full)
        other = tmp_path / "other"
        train(_tiny_model(vocab, seed=5), records[:4], dataclasses.replace(cfg, epochs=2, seed=9), out_dir=other)
        resume(full / "checkpoint_00002.bin", records[:4], out_dir=other, epochs=4)  # from epoch 2, into the other run's dir
        assert (other / "curve.csv").read_bytes() == (full / "curve.csv").read_bytes()

    def test_resumed_model_matches_full_run_weights(self, vocab, records, tmp_path):
        cfg_full = TrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=13, checkpoint_every=1)
        model_full = _tiny_model(vocab, seed=8)
        train(model_full, records[:4], cfg_full, out_dir=tmp_path / "a")

        cfg_half = TrainConfig(epochs=1, batch_size=4, lr=1e-3, seed=13, checkpoint_every=1)
        train(_tiny_model(vocab, seed=8), records[:4], cfg_half, out_dir=tmp_path / "b")
        resumed_model, _ = resume(tmp_path / "b" / "checkpoint_00001.bin", records[:4], epochs=2)
        for k in model_full.params:
            assert np.array_equal(model_full.params[k].data, resumed_model.params[k].data)

    def test_adam_t_in_checkpoint_is_ignored(self, vocab, records, tmp_path):
        # checkpoints once carried Adam's step count as `adam_t`; a resume takes it from `step`
        from hlsdbg.tensorstore import load_tensors, save_tensors

        cfg = TrainConfig(epochs=2, batch_size=2, lr=1e-3, seed=13, checkpoint_every=1)
        model = _tiny_model(vocab, seed=8)
        full = train(model, records[:4], cfg, out_dir=tmp_path)
        ckpt = tmp_path / "checkpoint_00001.bin"
        tensors, meta = load_tensors(ckpt)
        save_tensors(ckpt, tensors, meta={**meta, "adam_t": 0})
        resumed, tail = resume(ckpt, records[:4])
        assert len(tail.curve) == 2 and tail.curve == full.curve[2:]
        for k in model.params:
            assert np.array_equal(resumed.params[k].data, model.params[k].data)

    def test_checkpoint_round_trip_contents(self, vocab, records, tmp_path):
        model = _tiny_model(vocab, seed=9)
        cfg = TrainConfig(epochs=1, batch_size=4, lr=1e-3, seed=3, checkpoint_every=1)
        result = train(model, records[:4], cfg, out_dir=tmp_path)
        state = load_checkpoint(tmp_path / "checkpoint_00001.bin")
        assert state.epoch == 1
        assert state.curve == result.curve
        assert state.adam.t == len(result.curve)  # one Adam update per step
        assert state.cfg == cfg
        assert state.weights == LossWeights()
        for k in model.params:
            assert np.array_equal(state.model.params[k].data, model.params[k].data)
            assert state.model.params[k].data.flags.writeable  # Adam updates in place on resume
        adam = state.adam
        assert adam.m.keys() == model.params.keys()
        assert all(m.flags.writeable and v.flags.writeable for m, v in zip(adam.m.values(), adam.v.values()))

    @pytest.mark.parametrize("edit", [
        *(lambda meta, key=key: meta.pop(key) for key in ("rng_state", "loss_weights", "step", "curve")),
        lambda meta: meta["config"].update(n_experts=4),
        lambda meta: meta["train_config"].update(warmup=3),
    ], ids=["no-rng_state", "no-loss_weights", "no-step", "no-curve", "config-key", "train-config-key"])
    def test_malformed_checkpoint_metadata_rejected(self, vocab, records, tmp_path, edit):
        from hlsdbg.tensorstore import load_tensors, save_tensors

        cfg = TrainConfig(epochs=1, batch_size=4, lr=1e-3, seed=3, checkpoint_every=1)
        train(_tiny_model(vocab, seed=9), records[:4], cfg, out_dir=tmp_path)
        ckpt = tmp_path / "checkpoint_00001.bin"
        tensors, meta = load_tensors(ckpt)
        edit(meta)
        save_tensors(ckpt, tensors, meta=meta)
        with pytest.raises(DataError):
            load_checkpoint(ckpt)


# --- length-bucketed batches -------------------------------------------------------


def _padded_slots(batches, lengths):
    """Encoder slots that hold padding when each batch pads its rows to its longest."""
    rows = [[lengths[i] + 2 * given for i, given in batch] for batch in batches]
    return sum(len(r) * max(r) - sum(r) for r in rows)


class TestBucketing:
    @pytest.mark.parametrize("n, batch_size", [(32, 4), (75, 4), (5, 8)])
    def test_each_record_once_with_its_coin_flip(self, n, batch_size):
        lengths = [random.Random(n + i).randrange(20, 200) for i in range(n)]
        draws = random.Random(3)  # the draws as `_epoch_batches` makes them: shuffle, then one flip per position
        order = list(range(n))
        draws.shuffle(order)
        flips = {i: draws.random() < 0.5 for i in order}
        batches = _epoch_batches(lengths, batch_size, 0.5, random.Random(3))
        pairs = [pair for batch in batches for pair in batch]
        assert sorted(i for i, _ in pairs) == list(range(n))
        assert dict(pairs) == flips
        assert sum(len(batch) < batch_size for batch in batches) == (n % batch_size > 0)

    @pytest.mark.parametrize("seed", [OVERFIT_SEEDS["train"], 0, 1, 2])
    def test_no_more_padding_than_random_batches(self, seed):
        kernels = [(p.stem, p.read_text()) for p in sorted(TOY_CORPUS.glob("*.c"))]
        records = generate_corpus(kernels, per_sample=3, seed=OVERFIT_SEEDS["inject"]).records[:32]
        lengths = [lex(r.buggy_code).n_tokens for r in records]
        draws = random.Random(seed)
        order = list(range(len(records)))
        draws.shuffle(order)
        drawn = [(i, draws.random() < 0.25) for i in order]
        unsorted = [drawn[at : at + 4] for at in range(0, len(drawn), 4)]
        bucketed = _epoch_batches(lengths, 4, 0.25, random.Random(seed))
        assert _padded_slots(bucketed, lengths) <= _padded_slots(unsorted, lengths)

    def test_train_lexes_each_record_once(self, vocab, records, monkeypatch):
        from hlsdbg import training

        seen = collections.Counter()

        def counting_lex(source):
            seen[source] += 1
            return lex(source)

        monkeypatch.setattr(training, "lex", counting_lex)
        cfg = TrainConfig(epochs=3, batch_size=2, lr=1e-3, seed=0, given_location_fraction=0.5)
        train(_tiny_model(vocab), records[:4], cfg)
        assert seen == collections.Counter(r.buggy_code for r in records[:4])


# --- learning-rate schedule --------------------------------------------------------


class TestLrSchedule:
    def test_constant_without_horizon(self):
        cfg = TrainConfig(epochs=5, lr=3e-4)
        assert [lr_at(cfg, e) for e in (0, 3, 100)] == [3e-4, 3e-4, 3e-4]

    def test_cosine_endpoints_and_midpoint(self):
        cfg = TrainConfig(epochs=20, lr=1e-3, lr_final=1e-4, lr_decay_epochs=10)
        assert lr_at(cfg, 0) == pytest.approx(1e-3)
        assert lr_at(cfg, 5) == pytest.approx((1e-3 + 1e-4) / 2)
        assert lr_at(cfg, 10) == pytest.approx(1e-4)
        assert lr_at(cfg, 17) == pytest.approx(1e-4)  # flat past the horizon

    def test_monotone_decay(self):
        cfg = TrainConfig(epochs=30, lr=5e-4, lr_final=0.0, lr_decay_epochs=25)
        rates = [lr_at(cfg, e) for e in range(26)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=1e-4, lr_final=1e-3, lr_decay_epochs=5)
        with pytest.raises(ValueError):
            TrainConfig(lr_decay_epochs=-1)

    def test_decay_changes_curve_but_stays_deterministic(self, vocab, records):
        base = dict(epochs=3, batch_size=4, seed=21)
        flat = train(_tiny_model(vocab, seed=4), records[:4],
                     TrainConfig(lr=1e-3, **base))
        decayed = train(_tiny_model(vocab, seed=4), records[:4],
                        TrainConfig(lr=1e-3, lr_final=1e-5, lr_decay_epochs=3, **base))
        again = train(_tiny_model(vocab, seed=4), records[:4],
                      TrainConfig(lr=1e-3, lr_final=1e-5, lr_decay_epochs=3, **base))
        assert decayed.curve == again.curve
        assert decayed.curve != flat.curve
        assert decayed.curve[0] == flat.curve[0]  # decay starts after the first epoch

    def test_resume_preserves_schedule(self, vocab, records, tmp_path):
        kw = dict(batch_size=4, lr=1e-3, lr_final=1e-5, lr_decay_epochs=4,
                  seed=23, checkpoint_every=2)
        full = train(_tiny_model(vocab, seed=6), records[:4],
                     TrainConfig(epochs=4, **kw), out_dir=tmp_path / "full")
        first = train(_tiny_model(vocab, seed=6), records[:4],
                      TrainConfig(epochs=2, **kw), out_dir=tmp_path / "part")
        _, second = resume(tmp_path / "part" / "checkpoint_00002.bin", records[:4], epochs=4)
        assert first.curve + second.curve == full.curve


# --- curve files -----------------------------------------------------------------


class TestCurveCsv:
    def test_round_trip(self, tmp_path):
        from hlsdbg.training import CurveRow

        rows = [CurveRow(1, 0.5, 0.25, 2.0, 21.1), CurveRow(2, 0.4, 0.2, 1.5, 16.0)]
        path = tmp_path / "curve.csv"
        write_curve_csv(path, rows)
        assert read_curve_csv(path) == rows
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CURVE_HEADER)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            read_curve_csv(path)


# --- config parsing -----------------------------------------------------------------


class TestConfigParsing:
    def test_routing_and_coercion(self):
        text = (
            "# optimizer\n"
            "epochs = 20\n"
            "lr = 3e-4\n"
            "seed = 7\n"
            "model.d_model = 128  # width\n"
            "model.dtype = f64\n"
            "loss.alpha_bug = 2.5\n"
        )
        train_kw, model_kw, loss_kw = parse_config_text(text)
        assert train_kw == {"epochs": 20, "lr": 3e-4, "seed": 7}
        assert model_kw == {"d_model": 128, "dtype": "f64"}
        assert loss_kw == {"alpha_bug": 2.5}

    def test_unknown_keys_rejected(self):
        with pytest.raises(DataError):
            parse_config_text("warp_speed = 9\n")
        with pytest.raises(DataError):
            parse_config_text("model.wings = 2\n")
        with pytest.raises(DataError):
            parse_config_text("loss.alpha_zap = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(DataError):
            parse_config_text("epochs\n")

    def test_boolean_coercion(self):
        train_kw, _, _ = parse_config_text("")  # empty is fine
        assert train_kw == {}
        assert parse_config_text("lr = 0.1")[0] == {"lr": 0.1}
