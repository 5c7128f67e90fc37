"""Train on one set of kernels, evaluate on records from unseen kernels.

Checks that detection generalizes across correct sources rather than only
memorizing: reports held-out token AUC, top-5 line accuracy, and the
chance baseline (average 5 / line count).
"""

import argparse
import time
from pathlib import Path

from hlsdbg.lexer import lex
from hlsdbg.metrics import evaluate
from hlsdbg.model import DebuggerModel, ModelConfig, Vocab
from hlsdbg.mutate import generate_corpus
from hlsdbg.synth import make_corpus
from hlsdbg.training import LossWeights, TrainConfig, train


def build_split(n_train: int, n_held: int, seed: int):
    per_sample = 4
    n_kernels = (n_train + n_held) // per_sample + 2
    kernels = make_corpus(n_kernels, seed=seed)
    boundary = n_train // per_sample
    train_recs = generate_corpus(kernels[:boundary], per_sample=per_sample, seed=seed + 1).records
    held_recs = generate_corpus(kernels[boundary:], per_sample=per_sample, seed=seed + 2).records
    return train_recs[:n_train], held_recs[:n_held]


def chance_top5(records) -> float:
    rates = []
    for r in records:
        n_lines = len({t.line for t in lex(r.buggy_code).tokens})
        rates.append(min(1.0, 5.0 / n_lines))
    return sum(rates) / len(rates)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--train-records", type=int, default=256)
    ap.add_argument("--held-out", type=int, default=64)
    ap.add_argument("--seed", type=int, default=211)
    ap.add_argument("--epochs", type=int, default=16)
    ap.add_argument("--lr", type=float, default=1e-3)
    ap.add_argument("--out-dir", type=Path, default=None)
    args = ap.parse_args()

    train_recs, held_recs = build_split(args.train_records, args.held_out, args.seed)
    print(f"{len(train_recs)} train records, {len(held_recs)} held-out records")

    vocab = Vocab.for_records(train_recs)
    config = ModelConfig(
        vocab_size=len(vocab), n_layers_enc=2, n_layers_dec=2, d_model=128,
        n_heads=4, d_ff=256, max_src_len=200, max_tgt_len=24, dtype="f64",
    )
    model = DebuggerModel(config, vocab, seed=19)
    weights = LossWeights(alpha_true=10.0, alpha_false=1.0)
    cfg = TrainConfig(epochs=args.epochs, batch_size=16, lr=args.lr, seed=7,
                      clip_norm=0.0)

    t0 = time.time()
    result = train(model, train_recs, cfg, weights=weights, out_dir=args.out_dir)
    print(f"trained {result.final_epoch + 1} epochs in {time.time() - t0:.1f}s, "
          f"final loss {result.curve[-1].l_all:.4f}")

    report = evaluate(model, held_recs, given_location=False)
    baseline = chance_top5(held_recs)
    print("held-out:\n" + report.text_summary())
    print(f"chance top-5 baseline: {baseline:.4f}")
    auc = report.token.auc if report.token.auc is not None else float("nan")
    print(f"token AUC {auc:.4f} (want > 0.7), top-5 {report.top5:.4f} (want > {baseline:.4f})")
    if args.out_dir:
        model.save(args.out_dir / "model.bin")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
