"""Manufacture a labeled bug corpus from the built-in synthetic kernels.

Writes records.jsonl plus a manifest; optionally splits train/held-out on
sample groups so no correct kernel leaks across the boundary.
"""

import argparse
import shlex
import sys
from pathlib import Path

from hlsdbg import __version__
from hlsdbg.cli import _positive_int
from hlsdbg.corpus import DatasetManifest, split, write_jsonl
from hlsdbg.mutate import generate_corpus
from hlsdbg.synth import make_corpus


def _held_out_ratio(text: str) -> float:
    """A ratio in [0, 1) that leaves `1 - ratio` strictly between 0 and 1, or 0 for no split."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not (value == 0.0 or 0.0 < 1.0 - value < 1.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a ratio in [0, 1)")
    return value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kernels", type=_positive_int, default=64)
    ap.add_argument("--per-sample", type=_positive_int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--held-out-ratio", type=_held_out_ratio, default=0.0)
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    samples = make_corpus(args.kernels, seed=args.seed)
    report = generate_corpus(samples, per_sample=args.per_sample, seed=args.seed)
    print(f"{len(report.records)} records from {len(samples)} kernels "
          f"({len(report.skipped)} skipped)")

    counts = {"kernels": args.kernels, "records": len(report.records)}
    notes = []
    if args.held_out_ratio > 0:
        parts = split(report.records, ratio=1.0 - args.held_out_ratio, seed=args.seed)
        write_jsonl(parts.train, args.out_dir / "train.jsonl")
        write_jsonl(parts.held_out, args.out_dir / "held_out.jsonl")
        counts["train"] = len(parts.train)
        counts["held_out"] = len(parts.held_out)
        notes = parts.warnings
        print(f"split: {len(parts.train)} train / {len(parts.held_out)} held out")
    else:
        write_jsonl(report.records, args.out_dir / "records.jsonl")

    manifest = DatasetManifest(
        version=__version__,
        command="make_synth_corpus " + shlex.join(sys.argv[1:]),
        seed=args.seed,
        counts=counts,
        histogram={t.name: c for t, c in sorted(report.histogram.items(), key=lambda kv: kv[0].name)},
        notes=notes,
    )
    (args.out_dir / "manifest.json").write_text(manifest.to_json())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
