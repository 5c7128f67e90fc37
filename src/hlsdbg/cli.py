"""Command-line front end.

Subcommands cover the full workbench loop: harvest sources (`ingest`),
manufacture labeled bug records (`inject`, `gen-llm`), clean against a
benchmark (`dedup`), fit a model (`train`), measure it (`eval`), and run
it on a raw file (`debug`).  Every command that writes an artifact also
writes a manifest recording the exact invocation, the seed, and the
package version — never a timestamp — so artifacts can be regenerated
byte for byte.

Exit codes: 0 success, 1 usage error, 2 malformed data, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    Origin,
    dedup,
    ingest,
    read_jsonl,
    read_samples_jsonl,
    read_text,
    write_jsonl,
    write_samples_jsonl,
)
from .errors import DataError, NumericError
from .llmgen import HttpCompletionClient, StubCompletionClient, generate_via_llm
from .metrics import evaluate, rank_lines, write_metrics_csv
from .model import (BUG_TYPE_ORDER, FLAG_THRESHOLD, DebuggerModel, ModelConfig, Vocab, dataclass_from_meta,
                    line_scores, suspect_span)
from .mutate import GenerationReport, generate_corpus, span_bytes
from .synth import make_corpus
from .training import LossWeights, TrainConfig, parse_config_text, resume, train

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERIC_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures print one stderr line and exit with code 1, not 2."""

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _number(convert, ok, what: str):
    """An argparse type: `convert(text)` when that succeeds and `ok` holds for it, else a usage error."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return parse


_non_negative_int = _number(int, lambda v: v >= 0, "a non-negative integer")
_positive_int = _number(int, lambda v: v > 0, "a positive integer")
_probability = _number(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
_non_negative_float = _number(float, lambda v: math.isfinite(v) and v >= 0, "a finite non-negative number")


def _manifest_path(out: str | Path) -> Path:
    out = Path(out)
    return out.with_name(out.name + ".manifest.json")


def _write_manifest(
    out: str | Path,
    argv: list[str],
    seed: int | None,
    counts: dict,
    histogram: dict | None = None,
    notes: list[str] | None = None,
) -> None:
    """Write `<out>.manifest.json` as sorted-key JSON; it holds no timestamp."""
    manifest = {
        "version": __version__,
        "command": "hlsdbg " + shlex.join(argv),
        "seed": seed,
        "counts": counts,
        "histogram": histogram or {},
        "notes": notes or [],
    }
    _manifest_path(out).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_sample_pairs(args) -> list[tuple[str, str]]:
    if args.synth is not None:
        return make_corpus(args.synth, seed=args.seed)
    return [(s.id, s.code) for s in read_samples_jsonl(args.samples)]


# --- subcommand bodies ---------------------------------------------------------------


def _cmd_ingest(args, argv) -> int:
    markers = tuple(args.split_markers) if args.split_markers else None
    samples, report = ingest(args.root, Origin(args.origin), split_markers=markers)
    write_samples_jsonl(samples, args.out)
    _write_manifest(
        args.out,
        argv,
        seed=None,
        counts={
            "files_seen": report.n_files,
            "samples": len(samples),
            "excluded": dict(report.excluded),
        },
        notes=list(report.warnings),
    )
    print(f"ingest: {len(samples)} samples from {report.n_files} files -> {args.out}")
    return 0


def _cmd_inject(args, argv) -> int:
    pairs = _load_sample_pairs(args)
    report = generate_corpus(pairs, per_sample=args.per_sample, seed=args.seed)
    return _write_corpus(args, argv, len(pairs), report)


def _write_corpus(args, argv, n_samples: int, report: GenerationReport, **counts) -> int:
    """`inject` and `gen-llm` output: the records, their manifest with `counts` added, one summary line."""
    write_jsonl(report.records, args.out)
    _write_manifest(
        args.out,
        argv,
        seed=args.seed,
        counts={"samples": n_samples, "records": len(report.records), "skipped_samples": len(report.skipped),
                **counts},
        histogram=_histogram(report.records),
        notes=[f"skipped {sid}: {reason}" for sid, reason in report.skipped],
    )
    print(f"{args.command}: {len(report.records)} records from {n_samples} samples -> {args.out}")
    return 0


def _histogram(records) -> dict[str, int]:
    """Records per bug type name; the manifest's JSON orders the keys."""
    return dict(Counter(r.bug_type.name for r in records))


def _cmd_dedup(args, argv) -> int:
    samples = read_samples_jsonl(args.samples)
    benchmark = [s.code for s in read_samples_jsonl(args.benchmark)]
    kept, report = dedup(samples, benchmark, threshold=args.threshold)
    write_samples_jsonl(kept, args.out)
    _write_manifest(
        args.out,
        argv,
        seed=None,
        counts={
            "checked": report.n_checked,
            "removed": len(report.removed),
            "kept": len(kept),
        },
        notes=[f"removed {h.sample_id} (rouge {h.score:.4f} vs #{h.benchmark_index})" for h in report.removed],
    )
    print(f"dedup: kept {len(kept)}/{report.n_checked} samples -> {args.out}")
    return 0


def _train_setup(args):
    train_kw, model_kw, loss_kw = {}, {}, {}
    if args.config:
        train_kw, model_kw, loss_kw = parse_config_text(read_text(args.config))
    for key in ("epochs", "checkpoint_every"):
        value = getattr(args, key)
        if value is not None:
            train_kw[key] = value
    source = f"{args.config} and flags" if args.config else "flags"
    cfg = dataclass_from_meta(TrainConfig, train_kw, "train config", source)
    weights = dataclass_from_meta(LossWeights, loss_kw, "loss weights", source)
    return cfg, weights, model_kw


# run settings a checkpoint fixes; beside --resume they would be ignored
_RESUME_FIXED = ("config", "checkpoint_every", "model_seed")


def _cmd_train(args, argv) -> int:
    fixed = [f"--{key.replace('_', '-')}" for key in _RESUME_FIXED if getattr(args, key) is not None]
    if args.resume and fixed:
        print(f"hlsdbg train: error: --resume takes its settings from the checkpoint, not {' '.join(fixed)}",
              file=sys.stderr)
        return USAGE_EXIT
    records = read_jsonl(args.records)
    if not records:
        raise DataError(f"no records in {args.records}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.resume:
        # the checkpoint carries its own config; only --epochs may extend it
        model, result = resume(args.resume, records, out_dir=out_dir, epochs=args.epochs)
        seed_used = None
        notes = [f"resumed from {args.resume}"]
    else:
        cfg, weights, model_kw = _train_setup(args)
        model = _fresh_model(records, model_kw, args.model_seed or 0)
        result = train(model, records, cfg, weights=weights, out_dir=out_dir)
        seed_used = cfg.seed
        notes = []

    model_path = out_dir / "model.bin"
    model.save(model_path)
    _write_manifest(
        out_dir / "model.bin",
        argv,
        seed=seed_used,
        counts={
            "records": len(records),
            "epochs": result.epochs,
            "steps": result.curve[-1].step if result.curve else 0,
            "truncated_inputs": result.n_truncated,
        },
        histogram=_histogram(records),
        notes=notes,
    )
    final = result.curve[-1].l_all if result.curve else float("nan")
    print(f"train: {result.epochs} epochs, final loss {final:.4f} -> {model_path}")
    return 0


def _fresh_model(records, model_kw: dict, model_seed: int) -> DebuggerModel:
    vocab = Vocab.for_records(records)
    config = dataclass_from_meta(ModelConfig, {**model_kw, "vocab_size": len(vocab)}, "model config", "--config")
    return DebuggerModel(config, vocab, seed=model_seed)


def _cmd_eval(args, argv) -> int:
    model = DebuggerModel.load(args.model)
    records = read_jsonl(args.records)
    if not records:
        raise DataError(f"no records in {args.records}")
    report = evaluate(model, records, given_location=args.given_location, threshold=args.threshold)
    sys.stdout.write(report.text_summary())
    if args.out_csv:
        write_metrics_csv(args.out_csv, report)
        _write_manifest(
            args.out_csv,
            argv,
            seed=None,
            counts={"records": report.n_records, "truncated_inputs": report.truncated_samples},
        )
    return 0


def _cmd_debug(args, argv) -> int:
    model = DebuggerModel.load(args.model)
    code = read_text(args.source)
    pred = model.predict_source(code)
    probs = pred.token_probs
    if probs.shape[0] == 0:
        raise DataError(f"{args.source}: no tokens to score")

    per_line = line_scores(probs, pred.stream)
    source_lines = code.split("\n")
    print(f"debug: {args.source} ({probs.shape[0]} tokens scored)")
    for line in rank_lines(per_line)[: args.top]:
        text = source_lines[line - 1].strip() if line - 1 < len(source_lines) else ""
        print(f"  line {line:>4}  score {per_line[line]:.4f}  | {text}")
    predicted_type = BUG_TYPE_ORDER[int(np.argmax(pred.type_logits))]
    print(f"predicted bug type: {predicted_type.name}")
    print(f"proposed snippet: {pred.generated_text}")

    if args.out:
        span = suspect_span(probs)
        a, b = span_bytes(pred.stream, span)
        corrected = code[:a] + pred.generated_text + code[b:]
        Path(args.out).write_text(corrected, encoding="utf-8", newline="")
        _write_manifest(
            args.out,
            argv,
            seed=None,
            counts={"tokens": probs.shape[0], "span": list(span)},
            notes=[f"predicted type: {predicted_type.name}"],
        )
        print(f"corrected file -> {args.out}")
    return 0


def _cmd_gen_llm(args, argv) -> int:
    pairs = _load_sample_pairs(args)
    if args.endpoint is not None:
        client = HttpCompletionClient(
            args.endpoint,
            model=args.model_name,
            temperature=args.temperature,
            token=os.environ.get("HLSDBG_API_TOKEN"),
        )
    else:
        client = StubCompletionClient(seed=args.seed)
    report = generate_via_llm(pairs, client, threads=args.threads)
    return _write_corpus(args, argv, len(pairs), report, completion_calls=report.n_calls)


# --- parser ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="hlsdbg", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hlsdbg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="harvest source files into a samples jsonl")
    p.add_argument("root", help="directory to crawl")
    p.add_argument("--origin", choices=[o.value for o in Origin], default=Origin.CRAWLED.value)
    p.add_argument("--split-markers", nargs=2, metavar=("BEGIN", "END"), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("inject", help="manufacture labeled bug records")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--samples", help="samples jsonl from `ingest`")
    src.add_argument("--synth", type=_positive_int, metavar="N", help="use N built-in synthetic kernels")
    p.add_argument("--per-sample", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_inject)

    p = sub.add_parser("dedup", help="drop samples overlapping a benchmark")
    p.add_argument("--samples", required=True)
    p.add_argument("--benchmark", required=True, help="samples jsonl to compare against")
    p.add_argument("--threshold", type=_probability, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_dedup)

    p = sub.add_parser("train", help="fit a debugger model on a records jsonl")
    p.add_argument("--records", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="key = value file; model.* and loss.* prefixes supported")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--epochs", type=_positive_int, default=None)
    p.add_argument("--checkpoint-every", type=_non_negative_int, default=None)
    p.add_argument("--model-seed", type=_non_negative_int, default=None,
                   help="weight-init seed of a fresh model (default 0)")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="score a model against labeled records")
    p.add_argument("--model", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--given-location", action="store_true")
    p.add_argument("--threshold", type=_probability, default=FLAG_THRESHOLD)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("debug", help="localize and propose a fix for a raw source file")
    p.add_argument("source", help="C/C++ file to analyze")
    p.add_argument("--model", required=True)
    p.add_argument("--top", type=_positive_int, default=5)
    p.add_argument("--out", default=None, help="write the spliced corrected file here")
    p.set_defaults(fn=_cmd_debug)

    p = sub.add_parser("gen-llm", help="build records through a completion client")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--samples")
    src.add_argument("--synth", type=_positive_int, metavar="N")
    p.add_argument("--endpoint", default=None, help="completion URL; omit to use the offline stub")
    p.add_argument("--model-name", default="default")
    p.add_argument("--temperature", type=_non_negative_float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_llm)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args, argv)
    except DataError as exc:
        print(f"hlsdbg: data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except NumericError as exc:
        print(f"hlsdbg: numeric error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except OSError as exc:
        print(f"hlsdbg: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
