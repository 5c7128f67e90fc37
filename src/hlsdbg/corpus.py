"""Corpus plumbing: ingest, dedup, serialization, and splitting.

Samples travel as (id, code, origin) triples; supervised records use the
JSONL schema produced by the injector, and every record read passes the
injector's `check_record`. Everything here is deterministic:
file discovery is sorted, dedup order-preserving, splits seeded.
"""

from __future__ import annotations

import enum
import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DataError, JsonlError, LexError
from .lexer import lex, relex
from .mutate import BugRecord, BugType, check_record

SOURCE_EXTENSIONS = frozenset({".c", ".h", ".cpp", ".hpp", ".cc", ".cxx"})


class Origin(enum.Enum):
    CRAWLED = "crawled"
    CONVERTED = "converted"
    SYNTHETIC = "synthetic"


@dataclass(frozen=True)
class SampleRecord:
    id: str
    code: str
    origin: Origin


@dataclass
class IngestReport:
    n_files: int
    excluded: Counter = field(default_factory=Counter)  # extension -> count
    warnings: list[str] = field(default_factory=list)


def ingest(
    root: str | Path,
    origin: Origin = Origin.CRAWLED,
    split_markers: tuple[str, str] | None = None,
) -> tuple[list[SampleRecord], IngestReport]:
    """Collect source samples under `root`.

    By default each accepted file is one sample. With `split_markers`
    (begin, end), a file containing the begin keyword is cut into the chunks
    between begin/end marker lines instead; the marker lines themselves are
    dropped. Non-source extensions are counted and excluded, unreadable
    files produce warnings, and an empty harvest is a DataError.
    """
    root = Path(root)
    if not root.exists():
        raise DataError(f"ingest root does not exist: {root}")
    files = sorted(p for p in root.rglob("*") if p.is_file())
    report = IngestReport(n_files=len(files))
    samples: list[SampleRecord] = []
    for path in files:
        ext = path.suffix.lower()
        if ext not in SOURCE_EXTENSIONS:
            report.excluded[ext or "<none>"] += 1
            continue
        try:
            text = read_text(path)
        except (OSError, DataError) as exc:
            report.warnings.append(f"unreadable: {exc}")
            continue
        rel = path.relative_to(root).as_posix()
        chunks = _split_file(text, split_markers)
        if len(chunks) == 1:
            pieces = [(rel, chunks[0])]
        else:
            pieces = [(f"{rel}#{k}", chunk) for k, chunk in enumerate(chunks)]
        for sid, chunk in pieces:
            if not chunk.strip():
                report.warnings.append(f"empty sample skipped: {sid}")
                continue
            samples.append(SampleRecord(id=sid, code=chunk, origin=origin))
    if not samples:
        raise DataError(f"no samples ingested from {root}")
    return samples, report


def read_text(path: str | Path) -> str:
    """The file's text as strict UTF-8, with its line endings untranslated."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: invalid UTF-8 ({exc.reason})") from None


def _split_file(text: str, markers: tuple[str, str] | None) -> list[str]:
    if markers is None:
        return [text]
    begin, end = markers
    if begin not in text:
        return [text]
    chunks = []
    current: list[str] | None = None
    for line in re.findall(r"[^\n]*\n|[^\n]+", text):  # only a line feed ends a line, as in the lexer
        if current is None:
            if begin in line:
                current = []
        elif end in line:
            chunks.append("".join(current))
            current = None
        else:
            current.append(line)
    if current:  # unterminated trailing chunk still counts
        chunks.append("".join(current))
    return chunks or [text]


# --- similarity + dedup ---------------------------------------------------------


def rouge_l(candidate: str, reference: str) -> float:
    """LCS F-measure over whitespace tokens, in [0, 1].

    The LCS length comes from the bit-vector recurrence of Allison & Dix
    (1986) in Hyyrö's form (2004): `s` is a Python int with one bit per
    reference word, and after the last candidate word the LCS length is the
    number of its zero bits.
    """
    a = candidate.split()
    b = reference.split()
    if not a or not b:
        return 0.0
    match: dict[str, int] = {}
    for j, y in enumerate(b):
        match[y] = match.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    s = full
    for x in a:
        m = match.get(x)
        if m is not None:
            u = s & m
            s = ((s + u) | (s - u)) & full
    lcs = len(b) - s.bit_count()
    p = lcs / len(a)
    r = lcs / len(b)
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)


@dataclass(frozen=True)
class DedupHit:
    sample_id: str
    score: float
    benchmark_index: int


@dataclass
class DedupReport:
    n_checked: int
    removed: list[DedupHit]


def dedup(
    samples: Sequence[SampleRecord],
    benchmark: Sequence[str],
    threshold: float = 0.5,
) -> tuple[list[SampleRecord], DedupReport]:
    """Drop samples whose best Rouge-L against `benchmark` exceeds `threshold`.

    Strictly-greater comparison; an empty benchmark keeps everything.
    """
    report = DedupReport(n_checked=len(samples), removed=[])
    if not benchmark:
        return list(samples), report

    kept = []
    for sample in samples:
        scores = [rouge_l(sample.code, ref) for ref in benchmark]
        idx = max(range(len(scores)), key=scores.__getitem__)
        if scores[idx] > threshold:
            report.removed.append(DedupHit(sample.id, scores[idx], idx))
        else:
            kept.append(sample)
    return kept, report


# --- JSONL serialization ----------------------------------------------------------

_REQUIRED_FIELDS = (
    "id",
    "correct_code",
    "buggy_code",
    "snippet_correct",
    "snippet_buggy",
    "bug_type",
    "buggy_byte_span",
    "token_labels",
    "line_labels",
)
_TEXT_FIELDS = ("id", "correct_code", "buggy_code", "snippet_correct", "snippet_buggy")
_OPTIONAL_FIELDS = ("function_note", "bug_analysis", "strategy")


def record_to_dict(record: BugRecord) -> dict:
    out: dict = {
        "id": record.id,
        "correct_code": record.correct_code,
        "buggy_code": record.buggy_code,
        "snippet_correct": record.snippet_correct,
        "snippet_buggy": record.snippet_buggy,
        "bug_type": record.bug_type.value,
        "buggy_byte_span": list(record.buggy_byte_span),
        "token_labels": list(record.token_labels),
        "line_labels": sorted(record.line_labels),
    }
    for name in _OPTIONAL_FIELDS:
        value = getattr(record, name)
        if value is not None:
            out[name] = value
    for key in sorted(record.extra):
        if key not in out:
            out[key] = record.extra[key]
    return out


def record_from_dict(payload: dict, lineno: int = 0) -> BugRecord:
    """The record a JSONL object holds.

    A JsonlError unless its fields are well typed, it passes `check_record`
    and its correct code lexes too.
    """
    notes = tuple(name for name in _OPTIONAL_FIELDS if payload.get(name) is not None)
    _check_fields(payload, _REQUIRED_FIELDS, _TEXT_FIELDS + notes, lineno)
    try:
        bug_type = BugType(payload["bug_type"])
    except ValueError:
        raise JsonlError(f"unknown bug_type {payload['bug_type']!r}", lineno) from None
    span = payload["buggy_byte_span"]
    if not (isinstance(span, list) and len(span) == 2 and all(type(v) is int for v in span)):
        raise JsonlError("buggy_byte_span must be [start, end]", lineno)
    labels = payload["token_labels"]
    if not (isinstance(labels, list) and all(type(v) is int and v in (0, 1) for v in labels)):
        raise JsonlError("token_labels must be a list of 0/1", lineno)
    lines = payload["line_labels"]
    if not (isinstance(lines, list) and all(type(v) is int for v in lines)):
        raise JsonlError("line_labels must be a list of ints", lineno)
    known = set(_REQUIRED_FIELDS) | set(_OPTIONAL_FIELDS)
    record = BugRecord(
        id=payload["id"],
        correct_code=payload["correct_code"],
        buggy_code=payload["buggy_code"],
        snippet_correct=payload["snippet_correct"],
        snippet_buggy=payload["snippet_buggy"],
        bug_type=bug_type,
        buggy_byte_span=(span[0], span[1]),
        token_labels=list(labels),
        line_labels=set(lines),
        function_note=payload.get("function_note"),
        bug_analysis=payload.get("bug_analysis"),
        strategy=payload.get("strategy"),
        extra={k: v for k, v in payload.items() if k not in known},
    )
    try:
        stream = lex(record.buggy_code)
    except LexError as exc:
        raise JsonlError(f"buggy_code does not lex: {exc}", lineno) from None
    try:
        check_record(record, stream)
        relex(stream, *record.buggy_byte_span, record.snippet_correct)  # lex(correct_code), by check_record's splice
    except LexError as exc:
        raise JsonlError(f"correct_code does not lex: {exc}", lineno) from None
    except ValueError as exc:
        raise JsonlError(str(exc), lineno) from None
    return record


def write_jsonl(records: Iterable[BugRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record)) + "\n")


def _check_fields(payload: dict, required: Sequence[str], text: Sequence[str], lineno: int) -> None:
    """Every `required` field is present and every `text` field is a string of
    Unicode text: a JSON escape such as "\\ud800" decodes to a lone surrogate,
    which no prompt, hash or output file can encode."""
    for name in required:
        if name not in payload:
            raise JsonlError(f"missing field {name!r}", lineno)
    for name in text:
        value = payload[name]
        if not isinstance(value, str):
            raise JsonlError(f"{name} must be a string", lineno)
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise JsonlError(f"{name} holds a lone surrogate", lineno) from None


def _read_objects(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, JSON object) for each non-blank line of a JSONL file."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise JsonlError(f"invalid JSON ({exc.msg})", lineno) from None
            except UnicodeDecodeError:
                raise JsonlError("invalid UTF-8", lineno) from None
            if not isinstance(payload, dict):
                raise JsonlError("each line must be a JSON object", lineno)
            yield lineno, payload


def read_jsonl(path: str | Path) -> list[BugRecord]:
    return [record_from_dict(payload, lineno) for lineno, payload in _read_objects(path)]


def write_samples_jsonl(samples: Iterable[SampleRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(json.dumps({"id": s.id, "code": s.code, "origin": s.origin.value}) + "\n")


def read_samples_jsonl(path: str | Path) -> list[SampleRecord]:
    samples = []
    for lineno, payload in _read_objects(path):
        _check_fields(payload, ("id", "code", "origin"), ("id", "code"), lineno)
        try:
            origin = Origin(payload["origin"])
        except ValueError:
            raise JsonlError(f"unknown origin {payload['origin']!r}", lineno) from None
        samples.append(SampleRecord(payload["id"], payload["code"], origin))
    return samples


# --- splitting ----------------------------------------------------------------


@dataclass
class SplitResult:
    train: list[BugRecord]
    held_out: list[BugRecord]


def split(records: Sequence[BugRecord], ratio: float, seed: int) -> SplitResult:
    """Group-aware train/held-out split.

    All records sharing a `correct_code` land on the same side, so the
    held-out set never sees a training kernel. Groups are shuffled by
    `seed` and assigned greedily until train holds ~`ratio` of records.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    groups: dict[str, list[BugRecord]] = {}
    for rec in records:
        if rec.correct_code not in groups:
            groups[rec.correct_code] = []
        groups[rec.correct_code].append(rec)

    rng = random.Random(seed)
    buckets = list(groups.values())  # first-seen order, so a seed always picks the same split
    rng.shuffle(buckets)
    target = ratio * len(records)
    train: list[BugRecord] = []
    held_out: list[BugRecord] = []
    for bucket in buckets:
        if len(train) < target:
            train.extend(bucket)
        else:
            held_out.extend(bucket)
    # the first group always goes to train, so only held-out can be empty
    if len(buckets) >= 2 and not held_out:
        held_out = buckets[-1]
        train = train[: len(train) - len(held_out)]
    return SplitResult(train=train, held_out=held_out)
