"""Overfit a desk-scale model on a small record set and report both modes.

This is the end-to-end smoke experiment: memorize N records, then score
token-level detection and strict-substring correction on the same records,
with and without ground-truth bug locations.
"""

import argparse
import math
import time
from pathlib import Path

from hlsdbg.metrics import evaluate
from hlsdbg.model import DebuggerModel, ModelConfig, Vocab
from hlsdbg.mutate import generate_corpus
from hlsdbg.synth import make_corpus
from hlsdbg.training import LossWeights, TrainConfig, train

TOY_CORPUS = Path(__file__).resolve().parent.parent / "data" / "toy_corpus"


def build_records(n_records: int, seed: int, corpus: str):
    if corpus == "toy":
        pairs = [(p.stem, p.read_text()) for p in sorted(TOY_CORPUS.glob("*.c"))]
        per = max(1, math.ceil(n_records / len(pairs)))
    else:
        pairs = make_corpus(max(2, n_records // 4), seed=seed)
        per = 4
    return generate_corpus(pairs, per_sample=per, seed=seed + 2).records[:n_records]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--records", type=int, default=32)
    ap.add_argument("--corpus", choices=("toy", "synth"), default="toy",
                    help="bundled toy kernels or generated synthetic ones")
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--lr", type=float, default=5e-4)
    ap.add_argument("--batch-size", type=int, default=4)
    ap.add_argument("--alpha-true", type=float, default=25.0)
    ap.add_argument("--clip-norm", type=float, default=0.0)
    ap.add_argument("--threshold", type=float, default=None,
                    help="token decision threshold; default alpha_true/(alpha_true+1), "
                         "the cutoff consistent with the class weighting")
    ap.add_argument("--eval-every", type=int, default=10)
    ap.add_argument("--out-dir", type=Path, default=None)
    args = ap.parse_args()

    records = build_records(args.records, args.seed, args.corpus)
    vocab = Vocab.for_records(records)
    config = ModelConfig(
        vocab_size=len(vocab), n_layers_enc=4, n_layers_dec=4, d_model=256,
        n_heads=4, d_ff=256, max_src_len=200, max_tgt_len=24, dtype="f64",
    )
    model = DebuggerModel(config, vocab, seed=17)
    weights = LossWeights(alpha_true=args.alpha_true, alpha_false=1.0,
                          alpha_bug=4.0, alpha_decoder=3.0)
    tau = args.threshold
    if tau is None:
        tau = args.alpha_true / (args.alpha_true + 1.0)
    t0 = time.time()

    def stop_fn(epoch: int, m: DebuggerModel) -> bool:
        if (epoch + 1) % args.eval_every:
            return False
        rep = evaluate(m, records, given_location=False, threshold=tau)
        print(f"epoch {epoch + 1:3d}  {time.time() - t0:6.1f}s  "
              f"token F1 {rep.token.f1:.3f}  correction {rep.correction_accuracy:.3f}", flush=True)
        return rep.token.f1 >= 0.95 and rep.correction_accuracy >= 0.90

    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                      lr_final=args.lr / 5.0, lr_decay_epochs=140,
                      seed=5, given_location_fraction=0.25, clip_norm=args.clip_norm)
    result = train(model, records, cfg, weights=weights,
                   out_dir=args.out_dir, stop_fn=stop_fn)

    plain = evaluate(model, records, given_location=False, threshold=tau)
    given = evaluate(model, records, given_location=True, threshold=tau)
    print(f"\nfinished epoch {result.final_epoch + 1} in {time.time() - t0:.1f}s")
    print("plain mode:\n" + plain.text_summary())
    print("given-location mode:\n" + given.text_summary())
    if args.out_dir:
        model.save(args.out_dir / "model.bin")
        print(f"model -> {args.out_dir / 'model.bin'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
