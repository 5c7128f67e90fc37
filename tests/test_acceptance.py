"""Functional acceptance gate.

Each test covers one numbered criterion and appends a PASS/FAIL line to
the terminal summary (see conftest). Tolerances are pinned here, not in
helper code, so a change to any of them is visible in review.
"""

import math
import time
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import conftest
from gradcheck import check_gradients, weighted_sum
import hlsdbg.autodiff as ad
from hlsdbg.autodiff import Tensor
from hlsdbg.corpus import dedup, rouge_l, SampleRecord, Origin
from hlsdbg.lexer import lex, tokens_in_byte_range
from hlsdbg.metrics import code_topk, evaluate, rank_auc
from hlsdbg.model import DebuggerModel, ModelConfig, Vocab
from hlsdbg.mutate import BugType, generate_corpus, verify_record
from hlsdbg.synth import make_corpus
from hlsdbg.training import (
    LossWeights,
    TrainConfig,
    loss_all,
    loss_bug,
    loss_decoder,
    loss_type,
    train,
)

GRAD_TOL = 1e-4
ORACLE_TOL = 1e-12
LN8_TOL = 1e-9

# overfit (criterion 4/8) hyperparameters; class weights and clipping are
# tuned for 32-record memorization, architecture is the reference shape.
# The token decision threshold is alpha_true/(alpha_true+alpha_false): the
# cutoff a weighted-BCE-optimal predictor implies for unweighted decisions.
TOY_CORPUS = Path(__file__).resolve().parent.parent / "data" / "toy_corpus"
OVERFIT_SEEDS = {"inject": 103, "model": 17, "train": 5}
OVERFIT_WEIGHTS = LossWeights(alpha_true=25.0, alpha_false=1.0, alpha_bug=4.0, alpha_decoder=3.0)
OVERFIT_TAU = OVERFIT_WEIGHTS.alpha_true / (OVERFIT_WEIGHTS.alpha_true + OVERFIT_WEIGHTS.alpha_false)
OVERFIT_CFG = TrainConfig(
    epochs=150, batch_size=4, lr=5e-4, lr_final=1e-4, lr_decay_epochs=140,
    seed=5, given_location_fraction=0.25, clip_norm=0.0,
)

# generalization (criterion 7)
GEN_SEEDS = {"kernels": 211, "train_inject": 213, "held_inject": 215, "model": 19, "train": 7}
GEN_EPOCHS = 16


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"criterion {num} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


# --- 1: injector round trip -----------------------------------------------------------


def test_criterion_1_injector_round_trip():
    t0 = time.time()
    report = generate_corpus(make_corpus(72, seed=301), per_sample=16, seed=307)
    records = report.records
    n_bad = 0
    for record in records:
        if not verify_record(record):
            n_bad += 1
        stream = lex(record.buggy_code)
        lo, hi = tokens_in_byte_range(stream, record.buggy_byte_span)
        labels = [1 if lo <= i < hi else 0 for i in range(stream.n_tokens)]
        if labels != record.token_labels:
            n_bad += 1
        buggy_lo, buggy_hi = record.buggy_byte_span
        rebuilt = (
            record.buggy_code[:buggy_lo]
            + record.snippet_correct
            + record.buggy_code[buggy_hi:]
        )
        if rebuilt != record.correct_code:
            n_bad += 1
    elapsed = time.time() - t0
    types_seen = {r.bug_type for r in records}
    ok = len(records) >= 1000 and n_bad == 0 and types_seen == set(BugType) and elapsed < 30
    _report(1, "injector-round-trip", ok,
            f"{len(records)} records, {len(types_seen)} types, {n_bad} mismatches, {elapsed:.1f}s")
    assert len(records) >= 1000
    assert types_seen == set(BugType)
    assert n_bad == 0
    assert elapsed < 30


# --- 2: gradient correctness ----------------------------------------------------------


def _primitive_checks(rng) -> float:
    def t(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    worst = 0.0

    def run(f, *tensors):
        nonlocal worst
        worst = max(worst, check_gradients(f, tensors))

    a, b = t(3, 4), t(3, 4)
    run(lambda: weighted_sum(ad.add(a, b), 1.0), a, b)
    run(lambda: weighted_sum(ad.scale(a, 1.7), 1.0), a)
    m1, m2 = t(3, 4), t(4, 2)
    run(lambda: weighted_sum(ad.matmul(m1, m2), 1.0), m1, m2)
    bm = t(2, 3, 4)
    run(lambda: weighted_sum(ad.matmul(bm, m2), 1.0), bm, m2)
    run(lambda: weighted_sum(ad.reshape(a, (4, 3)), 1.0), a)
    c1, c2 = t(2, 3), t(2, 3)
    run(lambda: weighted_sum(ad.concat([c1, c2], axis=1), 1.0), c1, c2)
    run(lambda: weighted_sum(ad.slice_(a, (slice(1, 3), slice(0, 2))), 1.0), a)
    table = t(5, 3)
    ids = np.array([[0, 2], [4, 2]])
    run(lambda: weighted_sum(ad.embedding_lookup(table, ids), 1.0), table)
    rng.normal(size=(2, 4))  # keeps the inputs the checks below draw
    sm = t(3, 5)
    w = rng.normal(size=(3, 5))
    run(lambda: weighted_sum(ad.softmax(sm, axis=-1), w), sm)
    run(lambda: weighted_sum(ad.layer_norm(sm, axis=-1), w), sm)
    run(lambda: weighted_sum(ad.gelu(a), 1.0), a)
    rng.normal(size=(3, 3))  # keeps the inputs the checks below draw
    bias, lw = t(2), rng.normal(size=(2, 3, 2))
    run(lambda: weighted_sum(ad.linear(bm, m2, bias), lw), bm, m2, bias)
    sliced = (slice(None), slice(1, None))  # not contiguous
    run(lambda: weighted_sum(ad.linear(ad.slice_(bm, sliced), m2), lw[sliced]), bm, m2)
    q, k, v = t(2, 3, 4), t(2, 5, 4), t(2, 5, 4)
    keep = np.ones((2, 1, 1, 5))
    keep[1, 0, 0, 3:] = 0.0
    aw = rng.normal(size=(2, 3, 4))
    for mask in (None, keep):
        run(lambda: weighted_sum(ad.attention(q, k, v, 2, mask), aw), q, k, v)
    logits, targets = t(2, 3, 5), rng.integers(0, 5, size=(2, 3))
    kept = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    run(lambda: ad.cross_entropy(logits, targets, kept), logits)
    z, y = t(3, 4), (rng.random((3, 4)) < 0.3).astype(np.float64)
    for bw in (rng.random((3, 4)), np.zeros((3, 4))):
        run(lambda: ad.binary_cross_entropy(z, y, bw), z)
    return worst


def test_criterion_2_gradient_checks():
    t0 = time.time()
    rng = np.random.default_rng(401)
    worst_prim = _primitive_checks(rng)

    # a complete 2+2-layer model, every parameter perturbed centrally;
    # width is reduced so ~7k parameters finish inside the budget
    records = generate_corpus(make_corpus(2, seed=401), per_sample=2, seed=403).records[:2]
    vocab = Vocab.for_records(records)
    config = ModelConfig(
        vocab_size=len(vocab), n_layers_enc=2, n_layers_dec=2, d_model=8,
        n_heads=2, d_ff=16, max_src_len=200, max_tgt_len=12,
        head_mlp_layers=2, dtype="f64",
    )
    model = DebuggerModel(config, vocab, seed=23)
    from hlsdbg.training import _build_batch, _example, batch_losses

    batch = _build_batch(model, [_example(model, r) for r in records], [False, True])

    def full_loss():  # the trainer's objective, as it steps on it
        return batch_losses(model, batch, LossWeights())[-1]

    params = list(model.params.values())
    n_elems = sum(p.data.size for p in params)
    worst_model = check_gradients(full_loss, params)
    elapsed = time.time() - t0
    ok = worst_prim < GRAD_TOL and worst_model < GRAD_TOL and elapsed < 120
    _report(2, "gradient-checks", ok,
            f"primitives {worst_prim:.2e}, model {worst_model:.2e} over {n_elems} params, {elapsed:.1f}s")
    assert worst_prim < GRAD_TOL
    assert worst_model < GRAD_TOL
    assert elapsed < 120


# --- 3: loss fidelity -----------------------------------------------------------------


def test_criterion_3_loss_fidelity():
    # uniform eight-way type loss
    lt = loss_type(Tensor(np.zeros((5, 8)), requires_grad=True), np.arange(5) % 8)
    ln8_err = abs(float(lt.data) - math.log(8))

    # element-wise weighted BCE oracle, default class weights (0.05, 1)
    rng = np.random.default_rng(411)
    z = rng.normal(size=(3, 7))
    y = (rng.random((3, 7)) < 0.3).astype(np.float64)
    m = np.ones((3, 7))
    m[2, 5:] = 0.0
    w = (y * 0.05 + (1 - y) * 1.0) * m
    bce = np.logaddexp(0, z) - z * y
    bug_want = float((bce * w).sum() / w.sum())
    bug_err = abs(float(loss_bug(Tensor(z, requires_grad=True), y, m, LossWeights()).data) - bug_want)

    # per-sample averaged decoder cross entropy oracle
    zd = rng.normal(size=(2, 4, 6))
    targets = rng.integers(0, 6, size=(2, 4))
    keep = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    lp = zd - np.log(np.exp(zd).sum(axis=-1, keepdims=True))
    rows = []
    for i in range(2):
        picked = [lp[i, t, targets[i, t]] for t in range(4) if keep[i, t]]
        rows.append(-np.mean(picked))
    dec_want = float(np.mean(rows))
    dec_err = abs(float(loss_decoder(Tensor(zd, requires_grad=True), targets, keep).data) - dec_want)

    # composition identity with the default scale factors
    parts = (0.37, 1.21, 0.55)
    combined = loss_all(
        Tensor(np.float64(parts[0]), requires_grad=True),
        Tensor(np.float64(parts[1]), requires_grad=True),
        Tensor(np.float64(parts[2]), requires_grad=True),
        LossWeights(),
    )
    want_all = 0.2 * parts[0] + 2.0 * parts[1] + 10.0 * parts[2]
    comp_err = abs(float(combined.data) - want_all)
    unit_all = loss_all(
        Tensor(np.float64(1.0), requires_grad=True),
        Tensor(np.float64(1.0), requires_grad=True),
        Tensor(np.float64(1.0), requires_grad=True),
        LossWeights(),
    )
    comp_err = max(comp_err, abs(float(unit_all.data) - 12.2))

    ok = ln8_err < LN8_TOL and bug_err < ORACLE_TOL and dec_err < ORACLE_TOL and comp_err < ORACLE_TOL
    _report(3, "loss-fidelity", ok,
            f"ln8 {ln8_err:.1e}, bug {bug_err:.1e}, dec {dec_err:.1e}, composition {comp_err:.1e}")
    assert ln8_err < LN8_TOL
    assert bug_err < ORACLE_TOL
    assert dec_err < ORACLE_TOL
    assert comp_err < ORACLE_TOL


# --- 4 + 8: overfit smoke and given-location mode --------------------------------------


@pytest.fixture(scope="session")
def overfit_run():
    t0 = time.time()
    kernels = [(p.stem, p.read_text()) for p in sorted(TOY_CORPUS.glob("*.c"))]
    records = generate_corpus(kernels, per_sample=3, seed=OVERFIT_SEEDS["inject"]).records[:32]
    assert len(records) == 32
    vocab = Vocab.for_records(records)
    config = ModelConfig(
        vocab_size=len(vocab), n_layers_enc=4, n_layers_dec=4, d_model=256,
        n_heads=4, d_ff=256, max_src_len=200, max_tgt_len=24, dtype="f64",
    )
    model = DebuggerModel(config, vocab, seed=OVERFIT_SEEDS["model"])

    def stop_fn(epoch, m):
        if epoch + 1 < 60 or (epoch + 1) % 10:
            return False
        rep = evaluate(m, records, given_location=False, threshold=OVERFIT_TAU)
        print(f"epoch {epoch + 1:3d}  {time.time() - t0:6.1f}s  "
              f"token F1 {rep.token.f1:.3f}  correction {rep.correction_accuracy:.3f}", flush=True)
        return rep.token.f1 >= 0.95 and rep.correction_accuracy >= 0.90

    result = train(model, records, OVERFIT_CFG, weights=OVERFIT_WEIGHTS, stop_fn=stop_fn)
    plain = evaluate(model, records, given_location=False, threshold=OVERFIT_TAU)
    given = evaluate(model, records, given_location=True, threshold=OVERFIT_TAU)
    print(plain.text_summary() + given.text_summary(), end="")

    # bit-for-bit curve reproducibility over a 3-epoch prefix
    model2 = DebuggerModel(config, Vocab.for_records(records), seed=OVERFIT_SEEDS["model"])
    prefix = train(model2, records, replace(OVERFIT_CFG, epochs=3), weights=OVERFIT_WEIGHTS)
    reproducible = prefix.curve == result.curve[: len(prefix.curve)]

    return {
        "records": records,
        "model": model,
        "result": result,
        "plain": plain,
        "given": given,
        "reproducible": reproducible,
        "elapsed": time.time() - t0,
    }


def test_criterion_4_overfit_smoke(overfit_run):
    plain = overfit_run["plain"]
    result = overfit_run["result"]
    epochs_used = result.epochs
    elapsed = overfit_run["elapsed"]
    ok = (
        plain.token.f1 >= 0.95
        and plain.correction_accuracy >= 0.90
        and epochs_used <= 200
        and elapsed < 600
        and overfit_run["reproducible"]
    )
    _report(4, "overfit-smoke", ok,
            f"F1 {plain.token.f1:.3f}, correction {plain.correction_accuracy:.3f}, "
            f"{epochs_used} epochs, {elapsed:.0f}s, curve reproducible={overfit_run['reproducible']}")
    assert plain.token.f1 >= 0.95
    assert plain.correction_accuracy >= 0.90
    assert epochs_used <= 200
    assert elapsed < 600
    assert overfit_run["reproducible"]


def test_criterion_8_given_location(overfit_run):
    plain = overfit_run["plain"]
    given = overfit_run["given"]
    ok = given.correction_accuracy >= plain.correction_accuracy
    _report(8, "given-location", ok,
            f"given {given.correction_accuracy:.3f} >= plain {plain.correction_accuracy:.3f}")
    assert given.correction_accuracy >= plain.correction_accuracy


# --- 5: metric oracles ----------------------------------------------------------------


def _pairwise_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return None
    total = sum(1.0 if p > n else (0.5 if p == n else 0.0) for p in pos for n in neg)
    return total / (len(pos) * len(neg))


class _ScriptedModel:
    def __init__(self, mode):
        self.mode = mode

    def predict_record(self, record, given_location=False, threshold=0.5):
        from types import SimpleNamespace

        stream = lex(record.buggy_code)
        labels = np.asarray(record.token_labels, dtype=np.float64)
        if self.mode == "oracle":
            probs = labels * 0.98 + 0.01
            text = record.snippet_correct
        else:
            probs = np.full(labels.shape, 0.5)
            text = ""
        return SimpleNamespace(token_probs=probs, type_logits=np.zeros(8),
                               generated_text=text, generated_ids=[],
                               truncated=False, stream=stream)


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(421)
    worst_auc = 0.0
    n_defined = 0
    for _ in range(100):
        n = int(rng.integers(2, 30))
        scores = np.round(rng.random(n), 1)
        labels = rng.integers(0, 2, size=n)
        want = _pairwise_auc(scores, labels)
        got = rank_auc(scores, labels)
        if want is None:
            assert got is None
            continue
        n_defined += 1
        worst_auc = max(worst_auc, abs(got - want))

    topk_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 12))
        line_scores = {int(l): float(np.round(rng.random(), 1)) for l in rng.choice(60, n, replace=False)}
        truth = {int(l) for l in rng.choice(60, 3, replace=False)}
        k = int(rng.integers(1, 6))
        ranked = sorted(line_scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        want_hit = any(line in truth for line, _ in ranked)
        if code_topk(line_scores, truth, k) != want_hit:
            topk_ok = False

    records = generate_corpus(make_corpus(2, seed=421), per_sample=4, seed=423).records
    oracle = evaluate(_ScriptedModel("oracle"), records)
    flat = evaluate(_ScriptedModel("flat"), records)
    oracle_ok = (
        oracle.token.f1 == 1.0 and oracle.token.auc == 1.0 and oracle.line.f1 == 1.0
        and oracle.top1 == 1.0 and oracle.top5 == 1.0 and oracle.correction_accuracy == 1.0
    )
    flat_ok = flat.token.auc == 0.5

    ok = worst_auc < ORACLE_TOL and topk_ok and oracle_ok and flat_ok
    _report(5, "metric-oracles", ok,
            f"AUC err {worst_auc:.1e} over {n_defined} defined cases, topk ok={topk_ok}, "
            f"oracle-model ok={oracle_ok}, flat AUC {flat.token.auc}")
    assert worst_auc < ORACLE_TOL
    assert topk_ok
    assert oracle_ok
    assert flat_ok


# --- 6: rouge + dedup -----------------------------------------------------------------


def _lcs_rouge_oracle(a: str, b: str) -> float:
    xs, ys = tuple(a.split()), tuple(b.split())

    @lru_cache(maxsize=None)
    def lcs(i: int, j: int) -> int:
        if i == len(xs) or j == len(ys):
            return 0
        if xs[i] == ys[j]:
            return 1 + lcs(i + 1, j + 1)
        return max(lcs(i + 1, j), lcs(i, j + 1))

    if not xs or not ys:
        return 0.0
    l = lcs(0, 0)
    if l == 0:
        return 0.0
    p, r = l / len(xs), l / len(ys)
    return 2 * p * r / (p + r)


def test_criterion_6_rouge_dedup():
    rng = np.random.default_rng(431)
    vocab_words = [f"w{i}" for i in range(12)]
    worst = 0.0
    for _ in range(100):
        a = " ".join(rng.choice(vocab_words, size=rng.integers(1, 15)))
        b = " ".join(rng.choice(vocab_words, size=rng.integers(1, 15)))
        worst = max(worst, abs(rouge_l(a, b) - _lcs_rouge_oracle(a, b)))

    benchmark = [" ".join(rng.choice(vocab_words, size=rng.integers(3, 12))) for _ in range(6)]
    samples = []
    for i in range(24):
        if i % 3 == 0:
            # near-duplicate of a benchmark entry: copy, then corrupt a few words
            words = benchmark[int(rng.integers(len(benchmark)))].split()
            for _ in range(int(rng.integers(0, 3))):
                words[int(rng.integers(len(words)))] = str(rng.choice(vocab_words))
        else:
            words = list(rng.choice(vocab_words, size=rng.integers(3, 12)))
        samples.append(SampleRecord(id=f"s{i:02d}", code=" ".join(words), origin=Origin.SYNTHETIC))
    expect_removed = {
        s.id for s in samples
        if max(_lcs_rouge_oracle(s.code, ref) for ref in benchmark) > 0.5
    }
    kept, report = dedup(samples, benchmark, threshold=0.5)
    got_removed = {hit.sample_id for hit in report.removed}
    dedup_ok = got_removed == expect_removed and len(kept) == len(samples) - len(expect_removed)

    ok = worst < ORACLE_TOL and dedup_ok
    _report(6, "rouge-dedup", ok,
            f"rouge err {worst:.1e}, dedup removed {len(got_removed)}/{len(samples)} "
            f"matching oracle={dedup_ok}")
    assert worst < ORACLE_TOL
    assert dedup_ok


# --- 7: held-out generalization --------------------------------------------------------


def test_criterion_7_generalization():
    t0 = time.time()
    kernels = make_corpus(88, seed=GEN_SEEDS["kernels"])
    train_recs = generate_corpus(kernels[:68], per_sample=4, seed=GEN_SEEDS["train_inject"]).records[:256]
    held_recs = generate_corpus(kernels[68:], per_sample=4, seed=GEN_SEEDS["held_inject"]).records[:64]
    assert len(train_recs) == 256 and len(held_recs) == 64
    train_sources = {r.correct_code for r in train_recs}
    assert all(r.correct_code not in train_sources for r in held_recs), "held-out kernels leaked"

    vocab = Vocab.for_records(train_recs)
    config = ModelConfig(
        vocab_size=len(vocab), n_layers_enc=2, n_layers_dec=2, d_model=128,
        n_heads=4, d_ff=256, max_src_len=200, max_tgt_len=24, dtype="f64",
    )
    model = DebuggerModel(config, vocab, seed=GEN_SEEDS["model"])
    cfg = TrainConfig(epochs=GEN_EPOCHS, batch_size=16, lr=1e-3, seed=GEN_SEEDS["train"], clip_norm=0.0)
    train(model, train_recs, cfg, weights=LossWeights(alpha_true=10.0, alpha_false=1.0))

    report = evaluate(model, held_recs, given_location=False)
    chance = float(np.mean([
        min(1.0, 5.0 / len({t.line for t in lex(r.buggy_code).tokens})) for r in held_recs
    ]))
    print("held-out " + report.text_summary() + f"chance top-5 baseline: {chance:.4f}")
    auc = report.token.auc
    elapsed = time.time() - t0
    ok = auc is not None and auc > 0.7 and report.top5 > chance
    _report(7, "generalization", ok,
            f"held-out token AUC {auc:.3f} (>0.7), top-5 {report.top5:.3f} vs chance {chance:.3f}, "
            f"{elapsed:.0f}s")
    assert auc is not None and auc > 0.7
    assert report.top5 > chance
