"""Correctness checks run after the timed region of each workload.

Each check is a plain function returning True when the program's output is
right, so the benchmark's own tests can plant a fault and see it rejected.
The dedup check uses an LCS written here, independent of `corpus.rouge_l`.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

# --- train-desk -------------------------------------------------------------------


def curve_rows_finite(rows: Sequence) -> bool:
    """Every loss column of every `curve.csv` row is a finite float."""
    return bool(rows) and all(
        math.isfinite(v) for r in rows for v in (r.l_type, r.l_bug, r.l_decoder, r.l_all)
    )


def resume_tail_matches(full_rows: Sequence, resumed_rows: Sequence) -> bool:
    """The resumed run's rows equal the uninterrupted run's tail, bit for bit."""
    if not resumed_rows or len(resumed_rows) > len(full_rows):
        return False
    tail = full_rows[len(full_rows) - len(resumed_rows):]
    return all(a == b for a, b in zip(tail, resumed_rows))


# --- debug-eval -------------------------------------------------------------------


def greedy_ids_reproduced(model, code: str, generated_ids: Sequence[int]) -> bool:
    """One teacher-forced decoder pass over `[START] + generated` reproduces each greedy id.

    This is the uncached oracle any incremental decoder must keep: the
    argmax at position i is generated id i.
    """
    from hlsdbg.lexer import lex
    from hlsdbg.model import Vocab

    ids = model.vocab.encode(lex(code).texts())
    enc = model.encode_ids([ids])
    prefix = np.array([[Vocab.START] + list(generated_ids)], dtype=np.int64)
    keep = np.ones(prefix.shape, dtype=model.config.np_dtype)
    argmax = np.argmax(model.decoder_logits(enc, prefix, keep).data[0], axis=-1)
    return [int(i) for i in argmax[: len(generated_ids)]] == list(generated_ids)


def token_probs_valid(probs: np.ndarray, n_lexed: int) -> bool:
    """One probability per lexed token, each within [0, 1]."""
    return probs.shape == (n_lexed,) and bool(np.all((probs >= 0.0) & (probs <= 1.0)))


# --- corpus-build -------------------------------------------------------------------


def records_verified(records: Sequence) -> bool:
    from hlsdbg.mutate import verify_record

    return bool(records) and all(verify_record(r) for r in records)


def jsonl_round_trips(path: Path, scratch: Path) -> bool:
    """Reading a records file and writing it back gives the same bytes."""
    from hlsdbg.corpus import read_jsonl, write_jsonl

    write_jsonl(read_jsonl(path), scratch)
    return scratch.read_bytes() == path.read_bytes()


def split_is_disjoint(records: Sequence, seed: int) -> bool:
    """The group-aware split puts no correct kernel on both sides."""
    from hlsdbg.corpus import split

    result = split(records, 0.75, seed)
    train = {r.correct_code for r in result.train}
    held = {r.correct_code for r in result.held_out}
    return bool(result.train) and bool(result.held_out) and not train & held


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence by the full dynamic-programming table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) - 1, -1, -1):
        row, below = table[i], table[i + 1]
        for j in range(len(b) - 1, -1, -1):
            row[j] = below[j + 1] + 1 if a[i] == b[j] else max(below[j], row[j + 1])
    return table[0][0]


def rouge_l_f(candidate: str, reference: str) -> float:
    a, b = candidate.split(), reference.split()
    if not a or not b:
        return 0.0
    lcs = lcs_length(a, b)
    p, r = lcs / len(a), lcs / len(b)
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def dedup_decisions_match(
    samples: Sequence[tuple[str, str]],
    benchmark: Sequence[str],
    kept_ids: set[str],
    threshold: float,
) -> bool:
    """A sample was kept exactly when its best Rouge-L is at most `threshold`."""
    for sample_id, code in samples:
        best = max(rouge_l_f(code, ref) for ref in benchmark)
        if (best <= threshold) != (sample_id in kept_ids):
            return False
    return True
