"""Evaluation metrics for bug detection and correction.

Detection quality is reported at three granularities: token-wise (every
real source token is a binary decision), line-wise (a line is suspect if
any of its tokens is), and code-wise (did any of the top-k ranked lines
hit a truly buggy line).  Correction quality is a strict normalized
substring match between the generated snippet and the reference fix.
"""

from __future__ import annotations

import csv
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import BUG_TYPE_ORDER, line_scores
from .mutate import BugRecord

METRICS_CSV_HEADER = (
    "group",
    "level",
    "n",
    "tp",
    "fp",
    "tn",
    "fn",
    "precision",
    "recall",
    "f1",
    "auc",
)

_WORD_CHARS = re.compile(r"[^0-9A-Za-z_]")


def normalize_for_match(text: str) -> str:
    """Collapse text to its identifier-ish characters only."""
    return _WORD_CHARS.sub("", text)


def strict_substring_match(generated: str, reference: str) -> bool:
    """Check a generated fix against the reference snippet.

    The raw generated text is truncated to three times the reference
    length before normalization so that a model cannot get credit by
    emitting everything it knows; after truncation both sides are
    reduced to word characters and the reference must appear verbatim.
    An empty reference matches anything.
    """
    window = generated[: 3 * len(reference)]
    want = normalize_for_match(reference)
    if not want:
        return True
    return want in normalize_for_match(window)


def rank_auc(scores: Sequence[float], labels: Sequence[int]) -> float | None:
    """Area under the ROC curve via the rank-sum identity.

    Ties receive average ranks.  Returns None when either class is
    absent, since AUC is undefined there.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-D sequences")
    n_pos = int((y == 1).sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(s, kind="mergesort")
    sorted_scores = s[order]
    ranks = np.empty(s.size, dtype=np.float64)
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[i : j + 1] = (i + j) / 2.0 + 1.0
        i = j + 1
    by_position = np.empty(s.size, dtype=np.float64)
    by_position[order] = ranks
    pos_rank_sum = float(by_position[y == 1].sum())
    u = pos_rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


@dataclass
class BinaryEval:
    """Confusion counts plus a threshold-free AUC for one pool of scores."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0
    auc: float | None = None

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def binary_metrics(
    scores: Sequence[float], labels: Sequence[int], threshold: float = 0.5
) -> BinaryEval:
    """Threshold scores and count the confusion matrix; AUC comes free."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-D sequences")
    pred = s >= threshold
    truth = y == 1
    return BinaryEval(
        tp=int(np.sum(pred & truth)),
        fp=int(np.sum(pred & ~truth)),
        tn=int(np.sum(~pred & ~truth)),
        fn=int(np.sum(~pred & truth)),
        auc=rank_auc(s, y) if s.size else None,
    )


def rank_lines(line_scores: Mapping[int, float]) -> list[int]:
    """Line numbers, best score first; ties go to the smaller line number."""
    return sorted(line_scores, key=lambda line: (-line_scores[line], line))


def code_topk(line_scores: Mapping[int, float], true_lines: set[int], k: int) -> bool:
    """True when any of the k best-ranked lines (`rank_lines`) is actually buggy.

    An empty score map is a miss; an empty truth set is a caller bug.
    """
    if not true_lines:
        raise ValueError("true_lines must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    return any(line in true_lines for line in rank_lines(line_scores)[:k])


@dataclass
class _Pool:
    scores: list[float] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)

    def extend(self, scores: Iterable[float], labels: Iterable[int]) -> None:
        self.scores.extend(scores)
        self.labels.extend(labels)

    def evaluate(self, threshold: float) -> BinaryEval:
        if not self.scores:
            return BinaryEval()
        return binary_metrics(self.scores, self.labels, threshold)


@dataclass
class MetricsReport:
    token: BinaryEval
    line: BinaryEval
    token_by_type: dict[str, BinaryEval]
    line_by_type: dict[str, BinaryEval]
    top1: float
    top5: float
    correction_accuracy: float
    n_records: int
    truncated_samples: int
    threshold: float
    given_location: bool

    def text_summary(self) -> str:
        def fmt(tag: str, ev: BinaryEval) -> str:
            auc = f"{ev.auc:.4f}" if ev.auc is not None else "n/a"
            return (
                f"{tag:<6} P={ev.precision:.4f} R={ev.recall:.4f} "
                f"F1={ev.f1:.4f} AUC={auc} (n={ev.n})"
            )

        mode = "given-location" if self.given_location else "plain"
        lines = [
            f"records: {self.n_records} ({mode}, threshold={self.threshold})",
            f"truncated inputs: {self.truncated_samples}",
            fmt("token", self.token),
            fmt("line", self.line),
            f"top-1: {self.top1:.4f}   top-5: {self.top5:.4f}",
            f"correction accuracy: {self.correction_accuracy:.4f}",
            "per-type token F1:",
        ]
        for name in sorted(self.token_by_type):
            lines.append(f"  {name:<5} F1={self.token_by_type[name].f1:.4f}")
        return "\n".join(lines) + "\n"


def write_metrics_csv(path: str | Path, report: MetricsReport) -> None:
    """Dump the per-group confusion table for offline plotting."""

    def row(group: str, level: str, ev: BinaryEval) -> list:
        auc = "" if ev.auc is None else f"{ev.auc:.6f}"
        return [
            group,
            level,
            ev.n,
            ev.tp,
            ev.fp,
            ev.tn,
            ev.fn,
            f"{ev.precision:.6f}",
            f"{ev.recall:.6f}",
            f"{ev.f1:.6f}",
            auc,
        ]

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_CSV_HEADER)
        writer.writerow(row("overall", "token", report.token))
        writer.writerow(row("overall", "line", report.line))
        for name in sorted(report.token_by_type):
            writer.writerow(row(name, "token", report.token_by_type[name]))
        for name in sorted(report.line_by_type):
            writer.writerow(row(name, "line", report.line_by_type[name]))


def evaluate(
    model,
    records: Sequence[BugRecord],
    given_location: bool = False,
    threshold: float = 0.5,
) -> MetricsReport:
    """Run the model over records and pool detection/correction metrics.

    Records pass `check_record`, as `read_jsonl` and the injector give them.

    Token and line pools are micro-averaged across records, overall and
    per bug type.  Labeled lines that fall beyond a truncated input are
    scored 0.0 so they honestly count as misses rather than vanish.
    """
    if not records:
        raise ValueError("no records to evaluate")
    token_all = _Pool()
    line_all = _Pool()
    token_by: dict[str, _Pool] = defaultdict(_Pool)
    line_by: dict[str, _Pool] = defaultdict(_Pool)
    top1_hits = 0
    top5_hits = 0
    corrected = 0
    truncated = 0

    for record in records:
        pred = model.predict_record(record, given_location=given_location)
        probs = pred.token_probs
        labels = record.token_labels[: probs.shape[0]]
        if pred.truncated:
            truncated += 1
        name = record.bug_type.name
        token_all.extend(probs[: len(labels)], labels)
        token_by[name].extend(probs[: len(labels)], labels)

        per_line = line_scores(probs, pred.stream)
        for missing in record.line_labels - set(per_line):
            per_line[missing] = 0.0
        row_scores = []
        row_labels = []
        for line, score in sorted(per_line.items()):
            row_scores.append(score)
            row_labels.append(1 if line in record.line_labels else 0)
        line_all.extend(row_scores, row_labels)
        line_by[name].extend(row_scores, row_labels)

        top1_hits += code_topk(per_line, record.line_labels, 1)
        top5_hits += code_topk(per_line, record.line_labels, 5)
        corrected += strict_substring_match(pred.generated_text, record.snippet_correct)

    known_types = [t.name for t in BUG_TYPE_ORDER if t.name in token_by]
    return MetricsReport(
        token=token_all.evaluate(threshold),
        line=line_all.evaluate(threshold),
        token_by_type={n: token_by[n].evaluate(threshold) for n in known_types},
        line_by_type={n: line_by[n].evaluate(threshold) for n in known_types},
        top1=top1_hits / len(records),
        top5=top5_hits / len(records),
        correction_accuracy=corrected / len(records),
        n_records=len(records),
        truncated_samples=truncated,
        threshold=threshold,
        given_location=given_location,
    )
