"""The benchmark's workloads.

Every workload makes its inputs from the seed (set-up), warms up, then runs
a closed loop with one client for the given number of seconds: each
operation is one call of `hlsdbg.cli.main` with the argv a user would type,
issued only after the previous one returned. Correctness checks run after
the timed region. Outputs of a run stay under its own work directory.
"""

from __future__ import annotations

import io
import math
import re
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import checks
import tracer as tracing

# Reference overfit architecture (scripts/run_overfit.py): 4+4 layers, d 256, f64.
TRAIN_MODEL_SEED = 17
# Untrained weights under which the bug head flags at least 53 tokens of every
# toy and synth kernel tried, so each `debug` request decodes to the 23-step
# cap and its work is fixed by the input alone.
DEBUG_MODEL_SEED = 5
DEBUG_VOCAB_SYNTH = 64  # the debug model's vocabulary: toy corpus + this many seed-0 synth kernels
DEDUP_THRESHOLD = 0.5
# train-desk runs at least this many train/resume cycles, however long they
# take, so a median never rests on two calls when the host stalls one
MIN_TRAIN_CYCLES = 3
# The host's speed swings by up to 2x for seconds at a time (the same Python
# loop takes 0.39-0.64 s). A timing shorter than HOST_SWING_S is scaled to a
# reference host on which `host_probe` takes PROBE_REF_S, using the probe
# taken just before it; a longer one spans several swings and stays raw.
PROBE_REF_S = 0.004
HOST_SWING_S = 1.0


@dataclass(frozen=True)
class Size:
    n_layers: int
    d_model: int
    d_ff: int
    n_heads: int
    train_records: int
    train_epochs: int
    batch_size: int
    debug_kernels: int
    eval_records: int
    inject_kernels: int
    dedup_synth: int
    dedup_bench_synth: int
    check_requests: int
    check_dedup_samples: int


FULL = Size(
    n_layers=4, d_model=256, d_ff=256, n_heads=4,
    train_records=32, train_epochs=2, batch_size=4,
    debug_kernels=100, eval_records=8,
    inject_kernels=40, dedup_synth=20, dedup_bench_synth=3,
    check_requests=3, check_dedup_samples=8,
)
TINY = Size(
    n_layers=1, d_model=16, d_ff=16, n_heads=2,
    train_records=8, train_epochs=2, batch_size=4,
    debug_kernels=4, eval_records=2,
    inject_kernels=4, dedup_synth=3, dedup_bench_synth=1,
    check_requests=2, check_dedup_samples=4,
)
SIZES = {"full": FULL, "tiny": TINY}


# --- the client -----------------------------------------------------------------------


@dataclass
class Call:
    kind: str  # the subcommand, or a finer label such as `train-resume`
    seconds: float
    items: int
    code: int
    stdout: str
    probe_s: float  # host speed probe taken just before the call


@dataclass
class Client:
    """One closed-loop client of the CLI; records the wall time of every call."""

    tracer: tracing.Tracer | None = None
    idle: Callable[[], None] | None = None  # runs after each call, outside its timing
    calls: list[Call] = field(default_factory=list)

    def call(self, argv: list, items: int, kind: str | None = None) -> Call:
        from hlsdbg.cli import main

        kind = kind or argv[0]
        probe = host_probe()
        buf = io.StringIO()
        span = self.tracer.span(f"cli.{kind}") if self.tracer else nullcontext()
        start = perf_counter()
        try:
            with span, redirect_stdout(buf):
                code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = -1
        call = Call(kind, perf_counter() - start, items, code, buf.getvalue(), probe)
        self.calls.append(call)
        if code != 0:
            print(f"perfbench: `hlsdbg {' '.join(map(str, argv))}` exited {code}", file=sys.stderr)
        if self.idle is not None:
            self.idle()
        return call

    def of(self, kind: str) -> list[Call]:
        return [c for c in self.calls if c.kind == kind]


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes: how fast the host runs right now."""
    start = perf_counter()
    x = 0
    for j in range(50_000):
        x += j * j
    return perf_counter() - start


def at_reference_host(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_REF_S / probe_s if seconds < HOST_SWING_S else seconds


def _quiet_cli(argv: list) -> None:
    """A CLI call made during set-up; any failure aborts the run."""
    from hlsdbg.cli import main

    with redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"set-up call `hlsdbg {' '.join(map(str, argv))}` exited {code}")


def _median_rate(calls: list[Call], units_per_item: float = 1.0) -> float:
    return statistics.median(c.items * units_per_item / c.seconds for c in calls) if calls else 0.0


def typical_rate(calls: list[Call], normalize: bool) -> float:
    """Items per second of the call mix, each call costed at its kind's median time per item.

    Medians keep a few calls the host stalled from moving the figure; with
    `normalize`, short calls are first scaled to the reference host.
    """
    per_item: dict[str, list[float]] = {}
    for c in calls:
        seconds = at_reference_host(c.seconds, c.probe_s) if normalize else c.seconds
        per_item.setdefault(c.kind, []).append(seconds / c.items)
    median = {kind: statistics.median(v) for kind, v in per_item.items()}
    busy = sum(c.items * median[c.kind] for c in calls)
    return sum(c.items for c in calls) / busy if busy else 0.0


def _toy_dir(root: Path) -> Path:
    return root / "data" / "toy_corpus"


def _toy_kernels(root: Path) -> list[tuple[str, str]]:
    return [(f"toy/{p.stem}", p.read_text()) for p in sorted(_toy_dir(root).glob("*.c"))]


# --- workloads -------------------------------------------------------------------------


class Workload:
    """Set-up, warm-up, timed loop, checks and named metrics of one workload."""

    name = ""

    def __init__(self, root: Path, seed: int, size: Size):
        self.root, self.seed, self.size = root, seed, size

    def setup(self, d: Path) -> None:
        raise NotImplementedError

    def warmup(self, client: Client, d: Path) -> None:
        raise NotImplementedError

    def loop(self, client: Client, d: Path, deadline: float) -> None:
        raise NotImplementedError

    def check(self, client: Client, d: Path) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def named(self, client: Client, d: Path) -> dict[str, tuple[float, str]]:
        raise NotImplementedError


class TrainDesk(Workload):
    """`train` at the reference overfit config, checkpointing mid-run, then `train --resume`."""

    name = "train-desk"

    def setup(self, d: Path) -> None:
        size = self.size
        n_toy = len(list(_toy_dir(self.root).glob("*.c")))
        _quiet_cli(["ingest", _toy_dir(self.root), "--out", d / "toy_samples.jsonl"])
        _quiet_cli([
            "inject", "--samples", d / "toy_samples.jsonl",
            "--per-sample", math.ceil(size.train_records / n_toy),
            "--seed", self.seed, "--out", d / "injected.jsonl",
        ])
        lines = (d / "injected.jsonl").read_text().splitlines(keepends=True)
        (d / "records.jsonl").write_text("".join(lines[: size.train_records]))
        (d / "warmup.jsonl").write_text("".join(lines[: size.batch_size]))
        (d / "train.cfg").write_text("\n".join([
            f"epochs = {size.train_epochs}",
            f"batch_size = {size.batch_size}",
            "lr = 5e-4",
            "lr_final = 1e-4",
            "lr_decay_epochs = 140",
            f"seed = {self.seed}",
            "checkpoint_every = 1",
            "given_location_fraction = 0.25",
            f"model.n_layers_enc = {size.n_layers}",
            f"model.n_layers_dec = {size.n_layers}",
            f"model.d_model = {size.d_model}",
            f"model.d_ff = {size.d_ff}",
            f"model.n_heads = {size.n_heads}",
            "model.max_src_len = 200",
            "model.max_tgt_len = 24",
            "model.dtype = f64",
            "loss.alpha_true = 25",
            "loss.alpha_false = 1",
            "loss.alpha_bug = 4",
            "loss.alpha_decoder = 3",
        ]) + "\n")

    def _cycle(self, client: Client, d: Path, k: int) -> None:
        n, epochs = self.size.train_records, self.size.train_epochs
        full, resumed = d / f"cycle{k}" / "full", d / f"cycle{k}" / "resumed"
        client.call([
            "train", "--records", d / "records.jsonl", "--out-dir", full,
            "--config", d / "train.cfg", "--model-seed", TRAIN_MODEL_SEED,
        ], items=n * epochs)
        client.call([
            "train", "--records", d / "records.jsonl", "--out-dir", resumed,
            "--resume", full / "checkpoint_00001.bin", "--epochs", epochs,
        ], items=n * (epochs - 1), kind="train-resume")
        for blob in (d / f"cycle{k}").glob("*/*.bin"):
            blob.unlink()

    def warmup(self, client: Client, d: Path) -> None:
        client.call([
            "train", "--records", d / "warmup.jsonl", "--out-dir", d / "warmup",
            "--config", d / "train.cfg", "--epochs", 1, "--checkpoint-every", 0,
        ], items=self.size.batch_size)

    def loop(self, client: Client, d: Path, deadline: float) -> None:
        k = 0
        while k < MIN_TRAIN_CYCLES or perf_counter() < deadline:
            self._cycle(client, d, k)
            k += 1

    def _curves(self, d: Path):
        from hlsdbg.training import read_curve_csv

        for cycle in sorted(d.glob("cycle[0-9]*"), key=lambda p: int(p.name[5:])):
            yield tuple(
                read_curve_csv(p) if p.exists() else []
                for p in (cycle / "full" / "curve.csv", cycle / "resumed" / "curve.csv")
            )

    def check(self, client: Client, d: Path) -> list[tuple[str, bool]]:
        results = []
        for full, resumed in self._curves(d):
            results.append(("curve rows finite", checks.curve_rows_finite(full) and checks.curve_rows_finite(resumed)))
            results.append(("resume reproduces the tail", checks.resume_tail_matches(full, resumed)))
        return results

    def named(self, client: Client, d: Path) -> dict[str, tuple[float, str]]:
        last_full = next((full for full, _ in reversed(list(self._curves(d))) if full), [])
        return {
            "train_records_per_s": (_median_rate(client.of("train")), "1/s"),
            "train_loss_final": (last_full[-1].l_all if last_full else float("nan"), "loss"),
            "resume_records_per_s": (_median_rate(client.of("train-resume")), "1/s"),
        }


class DebugEval(Workload):
    """`debug` once per kernel on an untrained reference-size model, then one `eval --given-location`."""

    name = "debug-eval"

    def _kernels(self) -> list[tuple[str, str]]:
        from hlsdbg.synth import make_corpus

        toy = _toy_kernels(self.root)
        synth = make_corpus(self.size.debug_kernels // 2 + 1, seed=self.seed)
        # alternate toy (~98 tokens) and synth (~173 tokens) so any prefix keeps the mix
        return [
            toy[(i // 2 + self.seed) % len(toy)] if i % 2 == 0 else synth[i // 2]
            for i in range(self.size.debug_kernels)
        ]

    def setup(self, d: Path) -> None:
        from hlsdbg.corpus import write_jsonl
        from hlsdbg.lexer import lex
        from hlsdbg.model import DebuggerModel, ModelConfig, Vocab
        from hlsdbg.mutate import generate_corpus
        from hlsdbg.synth import make_corpus

        size = self.size
        kernels = self._kernels()
        (d / "kernels").mkdir()
        for i, (_, code) in enumerate(kernels):
            (d / "kernels" / f"k{i:03d}.c").write_text(code)
        fixed = _toy_kernels(self.root) + make_corpus(DEBUG_VOCAB_SYNTH, seed=0)
        vocab = Vocab.build(lex(code).texts() for _, code in fixed)
        config = ModelConfig(
            vocab_size=len(vocab), n_layers_enc=size.n_layers, n_layers_dec=size.n_layers,
            d_model=size.d_model, n_heads=size.n_heads, d_ff=size.d_ff,
            max_src_len=200, max_tgt_len=24, dtype="f64",
        )
        DebuggerModel(config, vocab, seed=DEBUG_MODEL_SEED).save(d / "model.bin")
        labeled = generate_corpus(kernels[: size.eval_records], per_sample=1, seed=self.seed)
        write_jsonl(labeled.records[: size.eval_records], d / "records.jsonl")

    def _debug(self, client: Client, d: Path, i: int) -> None:
        client.call(["debug", d / "kernels" / f"k{i:03d}.c", "--model", d / "model.bin"], items=1)

    def warmup(self, client: Client, d: Path) -> None:
        self._debug(client, d, 0)

    def loop(self, client: Client, d: Path, deadline: float) -> None:
        n_records = len((d / "records.jsonl").read_text().splitlines())
        i = 0
        # stop debugging when the eval, costed at the mean debug latency per record, would overrun
        while i == 0 or perf_counter() + n_records * statistics.mean(
            c.seconds for c in client.of("debug")
        ) < deadline:
            self._debug(client, d, i % self.size.debug_kernels)
            i += 1
        client.call([
            "eval", "--model", d / "model.bin", "--records", d / "records.jsonl", "--given-location",
        ], items=n_records)

    def check(self, client: Client, d: Path) -> list[tuple[str, bool]]:
        from hlsdbg.lexer import lex
        from hlsdbg.model import DebuggerModel

        model = DebuggerModel.load(d / "model.bin")
        results = []
        for i, call in enumerate(client.of("debug")[: self.size.check_requests]):
            code = (d / "kernels" / f"k{i:03d}.c").read_text()
            pred = model.predict_source(code)
            n_lexed = lex(code).n_tokens
            printed = re.search(r"^proposed snippet: (.*)$", call.stdout, re.MULTILINE)
            scored = re.search(r"\((\d+) tokens scored\)", call.stdout)
            results.append((
                "debug output reproduced in-process",
                printed is not None and printed.group(1) == pred.generated_text
                and scored is not None and int(scored.group(1)) == n_lexed,
            ))
            results.append(("greedy ids are teacher-forced argmaxes",
                            checks.greedy_ids_reproduced(model, code, pred.generated_ids)))
            results.append(("token probabilities valid", checks.token_probs_valid(pred.token_probs, n_lexed)))
        n_records = len((d / "records.jsonl").read_text().splitlines())
        for call in client.of("eval"):
            results.append(("eval scored every record",
                            call.stdout.startswith(f"records: {n_records} (given-location")))
        return results

    def named(self, client: Client, d: Path) -> dict[str, tuple[float, str]]:
        lat = [c.seconds * 1e3 for c in client.of("debug")]
        p90 = float(np.percentile(lat, 90))
        return {
            "debug_latency_ms.p50": (float(np.percentile(lat, 50)), "ms"),
            "debug_latency_ms.p90": (p90, "ms"),
            "debug_requests": (len(lat), "count"),
            "debug_requests_beyond_p90": (sum(x > p90 for x in lat), "count"),
            "eval_records_per_s": (_median_rate(client.of("eval")), "1/s"),
        }


class CorpusBuild(Workload):
    """`ingest`, `inject`, `dedup` and offline `gen-llm`: lexer, mutate, corpus and llmgen only."""

    name = "corpus-build"

    def setup(self, d: Path) -> None:
        from hlsdbg.corpus import Origin, SampleRecord, write_samples_jsonl
        from hlsdbg.synth import make_corpus

        size = self.size
        toy = _toy_kernels(self.root)

        def samples(pairs, prefix):
            return [SampleRecord(f"{prefix}/{sid}", code, Origin.SYNTHETIC) for sid, code in pairs]

        write_samples_jsonl(samples(make_corpus(size.inject_kernels, seed=self.seed), "gen"), d / "synth.jsonl")
        # synth kernels share one template (Rouge-L ~0.85 with each other) while toy
        # kernels mostly stay below 0.5: both kept and removed samples occur
        dedup_pairs = toy + make_corpus(size.dedup_synth, seed=self.seed + 1)
        write_samples_jsonl(samples(dedup_pairs, "dedup"), d / "dedup_samples.jsonl")
        bench = make_corpus(size.dedup_bench_synth, seed=self.seed + 2)
        bench += [toy[(self.seed + j) % len(toy)] for j in (0, 5)]
        write_samples_jsonl(samples(bench, "bench"), d / "bench.jsonl")

    def _cycle(self, client: Client, d: Path, k: int) -> None:
        size = self.size
        out = d / f"cycle{k}"
        out.mkdir()
        n_toy = len(list(_toy_dir(self.root).glob("*.c")))
        client.call(["ingest", _toy_dir(self.root), "--out", out / "toy.jsonl"], items=n_toy)
        client.call([
            "inject", "--samples", d / "synth.jsonl", "--per-sample", 4,
            "--seed", self.seed, "--out", out / "records.jsonl",
        ], items=size.inject_kernels)
        client.call([
            "dedup", "--samples", d / "dedup_samples.jsonl", "--benchmark", d / "bench.jsonl",
            "--threshold", DEDUP_THRESHOLD, "--out", out / "kept.jsonl",
        ], items=n_toy + size.dedup_synth)
        client.call([
            "gen-llm", "--samples", d / "synth.jsonl", "--seed", self.seed, "--out", out / "llm.jsonl",
        ], items=size.inject_kernels)

    def warmup(self, client: Client, d: Path) -> None:
        self._cycle(client, d, -1)

    def loop(self, client: Client, d: Path, deadline: float) -> None:
        k = 0
        while perf_counter() < deadline:
            self._cycle(client, d, k)
            k += 1

    def check(self, client: Client, d: Path) -> list[tuple[str, bool]]:
        from hlsdbg.corpus import read_jsonl, read_samples_jsonl

        last = max(d.glob("cycle[0-9]*"), key=lambda p: int(p.name[5:]))
        records = read_jsonl(last / "records.jsonl")
        llm = read_jsonl(last / "llm.jsonl")
        samples = [(s.id, s.code) for s in read_samples_jsonl(d / "dedup_samples.jsonl")]
        bench = [s.code for s in read_samples_jsonl(d / "bench.jsonl")]
        kept = {s.id for s in read_samples_jsonl(last / "kept.jsonl")}
        # a sample spread over the toy (first) and synth (last) samples
        step = max(1, len(samples) // self.size.check_dedup_samples)
        sampled = samples[::step][: self.size.check_dedup_samples]
        return [
            ("inject records verify", checks.records_verified(records)),
            ("gen-llm records verify", checks.records_verified(llm)),
            ("jsonl round-trips", checks.jsonl_round_trips(last / "records.jsonl", d / "round_trip.jsonl")),
            ("split shares no kernel", checks.split_is_disjoint(records, self.seed)),
            ("dedup keeps some and removes some", 0 < len(kept) < len(samples)),
            ("dedup decisions match an independent LCS",
             checks.dedup_decisions_match(sampled, bench, kept, DEDUP_THRESHOLD)),
        ]

    def named(self, client: Client, d: Path) -> dict[str, tuple[float, str]]:
        n_bench = self.size.dedup_bench_synth + 2
        return {
            "inject_kernels_per_s": (_median_rate(client.of("inject")), "1/s"),
            "dedup_pairs_per_s": (_median_rate(client.of("dedup"), n_bench), "1/s"),
            "genllm_kernels_per_s": (_median_rate(client.of("gen-llm")), "1/s"),
        }


WORKLOADS = {w.name: w for w in (TrainDesk, DebugEval, CorpusBuild)}


# --- one run -----------------------------------------------------------------------------


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def run(root: Path, work: Path, name: str, seed: int, seconds: float, trace: bool, size: Size) -> dict:
    """Set up, warm up, measure for `seconds`, check; returns everything measured."""
    workload = WORKLOADS[name](root, seed, size)

    setup_times: list[float] = []
    setup_probes: list[float] = []

    def set_up(d: Path) -> None:
        fresh_dir(d)
        setup_probes.append(host_probe())
        start = perf_counter()
        workload.setup(d)
        setup_times.append(perf_counter() - start)

    d = work / "run"
    for _ in range(3):
        set_up(d)
    last_setup = [perf_counter()]

    def idle() -> None:
        # The host's speed swings for seconds at a time, so set-up is also
        # repeated between calls across the window (about 5% of it at most):
        # the median then sees the host as the calls do.
        if perf_counter() - last_setup[0] >= max(1.0, 20 * setup_times[-1]):
            set_up(work / "setup")
            last_setup[0] = perf_counter()

    workload.warmup(Client(), d)

    tracer = tracing.Tracer() if trace else None
    # a traced run sets up only beforehand: spans must come from the timed calls alone
    client = Client(tracer=tracer, idle=None if trace else idle)
    if tracer is not None:
        tracing.install(tracer)
    try:
        start = perf_counter()
        workload.loop(client, d, start + seconds)
        window = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_calls = sum(1 for c in client.calls if c.code != 0)
    try:
        check_results = workload.check(client, d)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        check_results = [("checks ran", False)]
    for blob in work.rglob("*.bin"):  # models and checkpoints: tens of MB each
        blob.unlink()
    failed_checks = sum(1 for _, ok in check_results if not ok)
    attempted = len(client.calls) + len(check_results)
    failed = failed_calls + failed_checks

    end_to_end = {
        "setup_s": (statistics.median(map(at_reference_host, setup_times, setup_probes)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "items_per_s": (typical_rate(client.calls, normalize=True), "1/s"),
    }
    named = {
        **workload.named(client, d),
        **end_to_end,
        "setup_s.raw": (statistics.median(setup_times), "s"),
        "items_per_s.raw": (typical_rate(client.calls, normalize=False), "1/s"),
        "host_probe_ms": (statistics.median(c.probe_s for c in client.calls) * 1e3, "ms"),
        "failed_frac": (failed / attempted, "frac"),
    }
    per_layer = {}
    if tracer is not None:
        items = sum(c.items for c in client.calls)
        values = tracing.per_layer_metrics(tracer, items, len(client.of("inject")))
        per_layer = {k: (v, tracing.PER_LAYER_UNITS[k]) for k, v in values.items()}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "window_s": window,
        "setup_runs": len(setup_times),
        "trace": trace,
        "calls": [(c.kind, c.seconds, c.items, c.code, c.probe_s) for c in client.calls],
        "checks": check_results,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "end_to_end": end_to_end,
        "named": named,
        "per_layer": per_layer,
        "tracer": tracer,
    }
