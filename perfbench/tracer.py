"""Spans and counts recorded around the program's layer boundaries.

The tracer wraps public module-level functions (and a few model methods) of
`hlsdbg` from outside the package: each wrapper is installed on the module
that defines the function and on every `hlsdbg` module that imported it by
name, so the CLI's real call path runs through it. Nothing under `src/` is
changed. Spans live in memory as `[name, start, end, parent]` lists and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one CLI call."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        self._stack.pop()
        span[2] = perf_counter()

    def wrap(self, name: str, fn, on_call=None):
        """`fn` inside a span; `on_call(tracer, args, kwargs, result)` records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_call is not None:
                on_call(self, args, kwargs, result)
            return result

        return traced

    # --- patching -------------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, on_call=None) -> None:
        original = getattr(module, attr)
        traced = self.wrap(name, original, on_call)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hlsdbg" or mod_name.startswith("hlsdbg.")):
                continue
            if getattr(mod, attr, None) is original:
                self._patched.append((mod, attr, original))
                setattr(mod, attr, traced)

    def patch_method(self, cls, attr: str, name: str, on_call=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self.wrap(name, raw.__func__, on_call))
        else:
            traced = self.wrap(name, raw, on_call)
        self._patched.append((cls, attr, raw))
        setattr(cls, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- analysis -------------------------------------------------------------

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms.

        Self time is a span's duration minus the part covered by its direct
        children; children never overlap (one thread, strictly nested).
        """
        child_ms = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start) * 1e3 - child_ms[i]
        return dict(out)

    def write(self, path: Path, extra: dict) -> None:
        payload = {
            "spans_format": ["name", "start_s", "end_s", "parent_index"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "by_name": self.by_name(),
            **extra,
        }
        path.write_text(json.dumps(payload))


# --- what gets traced -----------------------------------------------------------------


def _count(key: str, amount_fn):
    def on_call(tracer, args, kwargs, result):
        tracer.counts[key] += amount_fn(args, kwargs, result)

    return on_call


def _on_lex(tracer, args, kwargs, result):
    tracer.counts["lexer.lex_calls"] += 1
    tracer.counts["lexer.tokens"] += result.n_tokens


def _on_decoder(tracer, args, kwargs, result):
    # a decoder call whose enclosing span is `generate` is one greedy step
    parent = tracer.spans[tracer._stack[-1]][0] if tracer._stack else ""
    if parent == "model.generate":
        tgt_ids = args[2] if len(args) > 2 else kwargs["tgt_ids"]
        tracer.counts["model.decoder_calls"] += 1
        tracer.counts["model.decoder_positions"] += int(tgt_ids.shape[1])


def _on_generate_for_sample(tracer, args, kwargs, result):
    per_sample = args[2] if len(args) > 2 else kwargs["per_sample"]
    tracer.counts["mutate.kernels"] += 1
    tracer.counts["mutate.requested"] += per_sample
    if result is None:
        tracer.counts["mutate.skipped"] += 1
    else:
        tracer.counts["mutate.records"] += len(result)


def _on_rouge(tracer, args, kwargs, result):
    tracer.counts["corpus.rouge_l_calls"] += 1
    tracer.counts["corpus.lcs_cells"] += len(args[0].split()) * len(args[1].split())


def _on_dedup(tracer, args, kwargs, result):
    kept, report = result
    tracer.counts["corpus.dedup_checked"] += report.n_checked
    tracer.counts["corpus.dedup_removed"] += len(report.removed)


def _on_genllm(tracer, args, kwargs, result):
    tracer.counts["llmgen.kernels"] += len(args[0])
    tracer.counts["llmgen.records"] += len(result.records)
    tracer.counts["llmgen.calls"] += result.n_calls


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from hlsdbg import autodiff, corpus, lexer, llmgen, metrics, mutate, optim, tensorstore, training
    from hlsdbg.model import DebuggerModel

    tracer.patch_function(lexer, "lex", "lexer.lex", _on_lex)
    tracer.patch_function(mutate, "find_sites", "mutate.find_sites")
    tracer.patch_function(mutate, "inject", "mutate.inject")
    tracer.patch_function(mutate, "generate_for_sample", "mutate.generate_for_sample", _on_generate_for_sample)
    tracer.patch_function(corpus, "rouge_l", "corpus.rouge_l", _on_rouge)
    tracer.patch_function(corpus, "dedup", "corpus.dedup", _on_dedup)
    for attr in ("write_jsonl", "write_samples_jsonl"):
        tracer.patch_function(corpus, attr, "corpus.jsonl_write")
    for attr in ("read_jsonl", "read_samples_jsonl"):
        tracer.patch_function(corpus, attr, "corpus.jsonl_read")
    tracer.patch_function(llmgen, "generate_via_llm", "llmgen.generate_via_llm", _on_genllm)
    tracer.patch_function(metrics, "evaluate", "metrics.evaluate")
    tracer.patch_function(tensorstore, "save_tensors", "tensorstore.save")
    tracer.patch_function(tensorstore, "load_tensors", "tensorstore.load")
    for attr in ("matmul", "gelu", "softmax", "layer_norm"):
        tracer.patch_function(autodiff, attr, f"autodiff.{attr}")
    tracer.patch_function(
        autodiff, "backward", "autodiff.backward",
        _count("autodiff.tape_nodes", lambda a, k, r: len(a[0].nodes)),
    )
    tracer.patch_function(optim, "clip_global_norm", "optim.clip")
    tracer.patch_function(optim, "adam_step", "optim.adam")
    tracer.patch_function(training, "_build_batch", "training.batch_build")
    for attr in ("loss_type", "loss_bug", "loss_decoder", "loss_all"):
        tracer.patch_function(training, attr, "training.loss")

    tracer.patch_method(DebuggerModel, "encode_ids", "model.encode")
    tracer.patch_method(DebuggerModel, "bug_logits", "model.heads")
    tracer.patch_method(DebuggerModel, "type_logits", "model.heads")
    tracer.patch_method(DebuggerModel, "decoder_logits", "model.decoder", _on_decoder)
    tracer.patch_method(
        DebuggerModel, "generate", "model.generate",
        _count("model.gen_tokens", lambda a, k, r: len(r)),
    )
    tracer.patch_method(DebuggerModel, "predict_record", "model.predict_record")


# --- per-layer metrics ----------------------------------------------------------------

# name -> unit; the order is the order printed
PER_LAYER_UNITS = {
    "training.step_ms.p50": "ms",
    "training.step_ms.p90": "ms",
    "training.batch_build_ms": "ms",
    "training.loss_ms": "ms",
    "model.encode_ms": "ms",
    "model.heads_ms": "ms",
    "model.decoder_tf_ms": "ms",
    "model.generate_ms": "ms",
    "model.decoder_calls": "count",
    "model.decoder_positions": "count",
    "model.gen_tokens": "count",
    "autodiff.backward_ms": "ms",
    "autodiff.tape_nodes_per_step": "count",
    "autodiff.matmul_fwd_ms": "ms",
    "autodiff.gelu_fwd_ms": "ms",
    "autodiff.softmax_fwd_ms": "ms",
    "autodiff.layer_norm_fwd_ms": "ms",
    "optim.clip_ms": "ms",
    "optim.adam_ms": "ms",
    "tensorstore.save_ms": "ms",
    "tensorstore.load_ms": "ms",
    "lexer.lex_ms": "ms",
    "lexer.lex_calls": "count",
    "lexer.tokens": "count",
    "mutate.find_sites_ms": "ms",
    "mutate.inject_ms": "ms",
    "mutate.records_per_kernel": "frac",
    "mutate.skipped": "count",
    "corpus.rouge_l_ms": "ms",
    "corpus.rouge_l_calls": "count",
    "corpus.lcs_cells": "count",
    "corpus.dedup_removed_frac": "frac",
    "corpus.jsonl_write_ms": "ms",
    "corpus.jsonl_read_ms": "ms",
    "metrics.score_ms": "ms",
    "llmgen.calls": "count",
    "llmgen.ms": "ms",
    "llmgen.records_per_kernel": "frac",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _step_ms(spans: list[list]) -> list[float]:
    """One training step: from a batch build to the end of the next Adam update."""
    steps, start = [], None
    for name, s, e, _ in spans:
        if name == "training.batch_build":
            start = s
        elif name == "optim.adam" and start is not None:
            steps.append((e - start) * 1e3)
            start = None
    return steps


def per_layer_metrics(tracer: Tracer, items: int, inject_calls: int) -> dict[str, float]:
    """Derive every per-layer metric from the spans and counts of a traced run.

    `*_ms` metrics are inclusive busy time per workload item (the unit of
    `items_per_s`), so each layer's figure compares directly with the
    end-to-end ms per item; zero means the workload bypasses the layer.
    """
    by = tracer.by_name()
    c = tracer.counts

    def busy(*names: str) -> float:
        return _ratio(sum(by.get(n, {}).get("total_ms", 0.0) for n in names), items)

    decoder_tf_ms = 0.0
    score_ms = 0.0
    for i, (name, s, e, parent) in enumerate(tracer.spans):
        if name == "model.decoder" and (parent < 0 or tracer.spans[parent][0] != "model.generate"):
            decoder_tf_ms += (e - s) * 1e3
    eval_ids = {i for i, sp in enumerate(tracer.spans) if sp[0] == "metrics.evaluate"}
    for i, (name, s, e, parent) in enumerate(tracer.spans):
        if i in eval_ids:
            score_ms += (e - s) * 1e3
        elif name == "model.predict_record" and parent in eval_ids:
            score_ms -= (e - s) * 1e3

    steps = _step_ms(tracer.spans)
    backward_calls = by.get("autodiff.backward", {}).get("calls", 0)
    generate_calls = by.get("model.generate", {}).get("calls", 0)
    values = {
        "training.step_ms.p50": float(np.percentile(steps, 50)) if steps else 0.0,
        "training.step_ms.p90": float(np.percentile(steps, 90)) if steps else 0.0,
        "training.batch_build_ms": busy("training.batch_build"),
        "training.loss_ms": busy("training.loss"),
        "model.encode_ms": busy("model.encode"),
        "model.heads_ms": busy("model.heads"),
        "model.decoder_tf_ms": _ratio(decoder_tf_ms, items),
        "model.generate_ms": busy("model.generate"),
        "model.decoder_calls": _ratio(c["model.decoder_calls"], generate_calls),
        "model.decoder_positions": _ratio(c["model.decoder_positions"], generate_calls),
        "model.gen_tokens": _ratio(c["model.gen_tokens"], generate_calls),
        "autodiff.backward_ms": busy("autodiff.backward"),
        "autodiff.tape_nodes_per_step": _ratio(c["autodiff.tape_nodes"], backward_calls),
        "autodiff.matmul_fwd_ms": busy("autodiff.matmul"),
        "autodiff.gelu_fwd_ms": busy("autodiff.gelu"),
        "autodiff.softmax_fwd_ms": busy("autodiff.softmax"),
        "autodiff.layer_norm_fwd_ms": busy("autodiff.layer_norm"),
        "optim.clip_ms": busy("optim.clip"),
        "optim.adam_ms": busy("optim.adam"),
        "tensorstore.save_ms": busy("tensorstore.save"),
        "tensorstore.load_ms": busy("tensorstore.load"),
        "lexer.lex_ms": busy("lexer.lex"),
        "lexer.lex_calls": _ratio(c["lexer.lex_calls"], items),
        "lexer.tokens": _ratio(c["lexer.tokens"], c["lexer.lex_calls"]),
        "mutate.find_sites_ms": busy("mutate.find_sites"),
        "mutate.inject_ms": busy("mutate.inject"),
        "mutate.records_per_kernel": _ratio(c["mutate.records"], c["mutate.requested"]),
        "mutate.skipped": _ratio(c["mutate.skipped"], inject_calls),
        "corpus.rouge_l_ms": busy("corpus.rouge_l"),
        "corpus.rouge_l_calls": _ratio(c["corpus.rouge_l_calls"], items),
        "corpus.lcs_cells": _ratio(c["corpus.lcs_cells"], c["corpus.rouge_l_calls"]),
        "corpus.dedup_removed_frac": _ratio(c["corpus.dedup_removed"], c["corpus.dedup_checked"]),
        "corpus.jsonl_write_ms": busy("corpus.jsonl_write"),
        "corpus.jsonl_read_ms": busy("corpus.jsonl_read"),
        "metrics.score_ms": _ratio(score_ms, items),
        "llmgen.calls": _ratio(c["llmgen.calls"], c["llmgen.kernels"]),
        "llmgen.ms": busy("llmgen.generate_via_llm"),
        "llmgen.records_per_kernel": _ratio(c["llmgen.records"], c["llmgen.kernels"]),
    }
    assert values.keys() == PER_LAYER_UNITS.keys()
    return values
