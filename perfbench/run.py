"""Benchmark of the hlsdbg CLI: train-desk, debug-eval and corpus-build workloads.

Run from the repository root:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Every line but the last is human-readable: the platform fingerprint, each
named metric with its unit, and the checks. The last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics untraced, the per-layer metrics with `--trace 1`). The exit code is
0 only when every CLI call succeeded and every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports hlsdbg only inside its functions)
from fingerprint import fingerprint  # noqa: E402


def _overhead(results_dir: Path, result: dict) -> dict | None:
    """Traced minus untraced end-to-end numbers for the same workload and seed."""
    untraced_path = results_dir / f"{result['workload']}-s{result['seed']}-t0.json"
    if not untraced_path.exists():
        return None
    untraced = json.loads(untraced_path.read_text())
    out = {}
    for name, (value, unit) in result["end_to_end"].items():
        if name == "setup_s":  # set-up runs before the tracer is installed
            continue
        base = untraced["end_to_end"][name][0]
        out[name] = {
            "traced": value,
            "untraced": base,
            "difference": value - base,
            "relative": (value - base) / base if base else None,
            "unit": unit,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="`tiny` shrinks model and inputs for the benchmark's own tests")
    ap.add_argument("--work-dir", type=Path, default=ROOT / ".perfbench_work",
                    help="where inputs, outputs, results and traces are written")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hlsdbg" / "cli.py").is_file() or not (ROOT / "data" / "toy_corpus").is_dir():
        print(f"perfbench: no hlsdbg sources under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hlsdbg

    if Path(hlsdbg.__file__).resolve().parent != ROOT / "src" / "hlsdbg":
        print(f"perfbench: imported hlsdbg from {hlsdbg.__file__}, not this checkout", file=sys.stderr)
        return 2

    work = args.work_dir.resolve()
    run_dir = workloads.fresh_dir(work / f"{args.workload}-s{args.seed}-t{args.trace}")
    result = workloads.run(
        ROOT, run_dir, args.workload, args.seed, args.seconds, bool(args.trace),
        workloads.SIZES[args.size],
    )
    tracer = result.pop("tracer")
    result["platform"] = fingerprint()
    results_dir = work / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        result["tracing_overhead"] = _overhead(results_dir, result)
        tracer.write(run_dir / "trace.json", {"workload": args.workload, "seed": args.seed})
    (results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str)
    )

    print(f"platform: {json.dumps(result['platform'])}")
    calls = len(result["calls"])
    print(f"workload {args.workload} seed {args.seed}: {calls} CLI calls in {result['window_s']:.2f} s")
    for name, (value, unit) in result["named"].items():
        print(f"metric {name} = {value:.6g} {unit}")
    for check, ok in result["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {check}")
    if tracer is not None:
        top = sorted(tracer.by_name().items(), key=lambda kv: -kv[1]["self_ms"])[:12]
        for name, row in top:
            print(f"self {name:<28} {row['self_ms']:10.1f} ms  {row['calls']:8d} calls")
        overhead = result["tracing_overhead"]
        if overhead is None:
            print("tracing overhead: no untraced result for this workload and seed yet")
        else:
            for name, o in overhead.items():
                print(f"tracing overhead {name}: {o['traced']:.6g} traced vs {o['untraced']:.6g} "
                      f"untraced {o['unit']} ({o['relative']:+.1%})")
        print(f"trace -> {run_dir / 'trace.json'}")

    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
