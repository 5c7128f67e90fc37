"""Bug-corpus generation through a text-completion endpoint.

Each sample goes through three chained completions: describe the function,
insert a bug (structured TYPE/CORRECT/BUGGY block), and explain the fix.
The returned correct snippet is spliced only where it occurs exactly once
in the source, on token boundaries, and the record is re-verified, so
malformed or ambiguous completions can only cost a sample, never corrupt a
record. A deterministic rule-based stub stands in for a real
endpoint in tests and offline runs.
"""

from __future__ import annotations

import json
import random
import re
import time
import zlib
from itertools import chain, islice, takewhile, zip_longest
from typing import Protocol
from urllib.parse import urlsplit

from .errors import DataError, LexError
from .lexer import TokenStream, lex, tokens_in_byte_range
from .mutate import BugRecord, BugType, GenerationReport, draw_rewrite, find_sites, span_bytes, splice_record

_CODE_OPEN = "<<<CODE"
_CODE_CLOSE = "CODE>>>"


# the three prompt bodies; `{code}` etc. are filled per sample, and the stub
# client answers each by its `[TASK: ...]` first line
P_FUNCTION = (
    "[TASK: describe]\n"
    "Summarize in one sentence what this hardware kernel computes.\n"
    f"{_CODE_OPEN}\n{{code}}\n{_CODE_CLOSE}\n"
    "Answer as `FUNCTION: <summary>`.\n"
)
P_INSERT = (
    "[TASK: insert-bug]\n"
    "The kernel below does the following: {function_note}\n"
    "Introduce one realistic logic bug by rewriting a short snippet.\n"
    f"{_CODE_OPEN}\n{{code}}\n{_CODE_CLOSE}\n"
    "Answer with exactly three lines:\n"
    f"TYPE: <one of {' '.join(t.value for t in BugType)}>\n"
    "CORRECT: <the snippet as it appears in the kernel>\n"
    "BUGGY: <the rewritten snippet>\n"
)
P_STRATEGY = (
    "[TASK: explain-fix]\n"
    "A kernel was corrupted by replacing `{snippet_correct}` with "
    "`{snippet_buggy}`.\n"
    f"{_CODE_OPEN}\n{{code}}\n{_CODE_CLOSE}\n"
    "Answer with two lines, `ANALYSIS: <what breaks>` and "
    "`STRATEGY: <how to repair it>`.\n"
)

# an HTTP completion is tried this often, sleeping BACKOFF_S * 2**attempt between tries
MAX_ATTEMPTS = 3
BACKOFF_S = 0.5


class CompletionClient(Protocol):
    def complete(self, prompt: str) -> str: ...


class HttpCompletionClient:
    """POSTs prompts to an http(s) completion endpoint returning `{"text": ...}`."""

    def __init__(
        self,
        endpoint: str,
        model: str = "default",
        temperature: float = 0.0,
        token: str | None = None,
    ):
        # urllib would also open file: and ftp: URLs
        if urlsplit(endpoint).scheme not in ("http", "https"):
            raise DataError(f"completion endpoint {endpoint!r} is not an http or https URL")
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.token = token

    def complete(self, prompt: str) -> str:
        # imported here, not at module top, so that every other command skips loading the TLS stack
        import http.client
        import urllib.error
        import urllib.request

        body = json.dumps({"model": self.model, "prompt": prompt, "temperature": self.temperature}).encode()
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        request = urllib.request.Request(self.endpoint, data=body, headers=headers, method="POST")
        last = None
        for attempt in range(MAX_ATTEMPTS):
            try:
                with urllib.request.urlopen(request, timeout=60) as resp:
                    status, raw = resp.status, resp.read()
                if status != 200:
                    last = f"status {status}"
                else:
                    reply = json.loads(raw)
                    if isinstance(reply, dict) and isinstance(reply.get("text"), str):
                        return reply["text"]
                    last = "reply is not a JSON object with a string `text`"
            except urllib.error.HTTPError as exc:
                exc.close()
                last = f"status {exc.code}"
            except (OSError, http.client.HTTPException, ValueError) as exc:
                last = str(exc)
            if attempt + 1 < MAX_ATTEMPTS:
                time.sleep(BACKOFF_S * (2**attempt))
        raise DataError(f"completion endpoint failed after {MAX_ATTEMPTS} attempts: {last}")


class StubCompletionClient:
    """Offline stand-in that answers the three default prompt kinds.

    Responses are a pure function of the prompt text, so regenerating a
    corpus with the stub is reproducible bit for bit.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def complete(self, prompt: str) -> str:
        code = _extract_code(prompt)
        rng = random.Random((zlib.crc32(prompt.encode()) << 16) ^ self.seed)
        if prompt.startswith("[TASK: describe]"):
            name = _function_name(code) or "the kernel"
            return f"FUNCTION: {name} streams integers through a fixed-size staging buffer."
        if prompt.startswith("[TASK: insert-bug]"):
            return self._insert_bug(code, rng)
        if prompt.startswith("[TASK: explain-fix]"):
            return (
                "ANALYSIS: the rewritten snippet changes the kernel's arithmetic "
                "on a path the testbench exercises.\n"
                "STRATEGY: restore the original snippet at the flagged location."
            )
        return "UNSUPPORTED PROMPT"

    def _insert_bug(self, code: str, rng: random.Random) -> str:
        if code is None:
            return "NO CODE FOUND"
        try:
            stream = lex(code)
        except DataError:
            return "NO BUG POSSIBLE"
        by_type = find_sites(stream)
        types = list(BugType)
        start = rng.randrange(len(types))
        for t in types[start:] + types[:start]:
            sites = by_type[t]
            if not sites:
                continue
            site = sites[rng.randrange(len(sites))]
            span, text = draw_rewrite(site, rng.getrandbits(32))
            correct, buggy = _quote(stream, *span_bytes(stream, span), text)
            return f"TYPE: {t.value}\nCORRECT: {correct}\nBUGGY: {buggy}\n"
        return "NO BUG POSSIBLE"


def _quote(stream: TokenStream, a: int, b: int, text: str) -> tuple[str, str]:
    """The pair (`source[a:b]`, `text`), widened by whole tokens until the correct one occurs once in the code.

    Tokens are added one at a time, alternately after and before the
    snippet, from its own line only; if the line runs out first, the quote
    still repeats and `build_record` skips it.
    """
    code = stream.source
    lo, hi = tokens_in_byte_range(stream, (a, b))
    after = takewhile(lambda t: "\n" not in code[b:t.byte_end], stream.tokens[hi:])
    before = takewhile(lambda t: "\n" not in code[t.byte_start:a], reversed(stream.tokens[:lo]))
    qa, qb = a, b
    for t in chain.from_iterable(zip_longest(after, before)):
        if not _occurs_twice(code, code[qa:qb]):
            break
        if t is not None:
            qa, qb = min(qa, t.byte_start), max(qb, t.byte_end)
    return code[qa:qb], code[qa:a] + text + code[b:qb]


def _occurs_twice(code: str, snippet: str) -> bool:
    """Whether `snippet` occurs at two or more (possibly overlapping) places in `code`."""
    at = code.find(snippet)
    return at != -1 and code.find(snippet, at + 1) != -1


def _extract_code(prompt: str) -> str | None:
    start = prompt.find(_CODE_OPEN)
    end = prompt.find(_CODE_CLOSE)
    if start == -1 or end == -1 or end <= start:
        return None
    return prompt[start + len(_CODE_OPEN):end].strip("\n")


def _function_name(code: str | None) -> str | None:
    if not code:
        return None
    m = re.search(r"\b(\w+)\s*\(", code)
    return m.group(1) if m else None


# --- chained generation ----------------------------------------------------------


_BLOCK_RE = re.compile(
    r"^TYPE:\s*(?P<type>\w+)\s*$\n^CORRECT:\s*(?P<correct>.*)$\n^BUGGY:\s*(?P<buggy>.*)$",
    re.MULTILINE,
)


def parse_insert_block(text: str) -> tuple[BugType, str, str] | None:
    m = _BLOCK_RE.search(text)
    if m is None:
        return None
    try:
        bug_type = BugType(m.group("type").upper())
    except ValueError:
        return None
    correct = m.group("correct").strip()
    buggy = m.group("buggy").strip()
    if not correct or correct == buggy:
        return None
    return bug_type, correct, buggy


def _parse_tagged_line(text: str, tag: str) -> str | None:
    m = re.search(rf"^{tag}:\s*(.+)$", text, re.MULTILINE)
    return m.group(1).strip() if m else None


def build_record(
    sample_id: str,
    sample: TokenStream,
    bug_type: BugType,
    snippet_correct: str,
    snippet_buggy: str,
) -> BugRecord | None:
    """Record from a snippet pair spliced into the lexed sample; None if invalid.

    The correct snippet must occur exactly once in the sample, starting on a
    token start and ending on a token end: a snippet that repeats, or that
    matches inside a token, does not say where the bug goes. The tokens both
    snippets share at either end are context, not the bug, so only the
    tokens between them are spliced and flagged, keeping at least one token
    of each snippet. A pair whose tokens are all the same changes only
    whitespace and makes no record.
    """
    at = sample.source.find(snippet_correct)
    if at == -1 or _occurs_twice(sample.source, snippet_correct):
        return None
    end = at + len(snippet_correct)
    lo, hi = tokens_in_byte_range(sample, (at, end))
    if lo == hi or sample.tokens[lo].byte_start != at or sample.tokens[hi - 1].byte_end != end:
        return None
    try:
        buggy = lex(snippet_buggy).tokens
    except DataError:
        return None
    correct = sample.tokens[lo:hi]
    if [t.text for t in buggy] == [t.text for t in correct]:
        return None
    if buggy:
        keep = min(len(correct), len(buggy)) - 1
        tail = _n_shared(reversed(correct), reversed(buggy), keep)
        head = _n_shared(correct, buggy, keep - tail)
        at, end = correct[head].byte_start, correct[-1 - tail].byte_end
        snippet_buggy = snippet_buggy[buggy[head].byte_start : buggy[-1 - tail].byte_end]
    try:
        return splice_record(sample_id, sample, at, end, snippet_buggy, bug_type)
    except (DataError, ValueError):
        return None


def _n_shared(xs, ys, limit: int) -> int:
    """How many leading token pairs of `xs` and `ys`, at most `limit`, have equal texts."""
    return sum(1 for _ in takewhile(lambda pair: pair[0].text == pair[1].text, islice(zip(xs, ys), limit)))


def generate_via_llm(
    samples: list[tuple[str, str]],
    client: CompletionClient,
    threads: int = 1,
) -> GenerationReport:
    """One record per (id, code) sample through the three-step prompt chain."""
    report = GenerationReport(records=[], skipped=[])

    def run_one(job: tuple[str, str]) -> tuple[BugRecord | None, str | None, int]:
        sample_id, code = job
        try:
            sample = lex(code)
        except LexError:
            return None, "sample does not lex", 0
        calls = 0
        note_text = client.complete(P_FUNCTION.format(code=code))
        calls += 1
        function_note = _parse_tagged_line(note_text, "FUNCTION") or note_text.strip()

        insert_prompt = P_INSERT.format(code=code, function_note=function_note)
        parsed = None
        for nudge in ("", "\nRespond with exactly the three TYPE/CORRECT/BUGGY lines.\n"):
            parsed = parse_insert_block(client.complete(insert_prompt + nudge))
            calls += 1
            if parsed is not None:
                break
        if parsed is None:
            return None, "unparseable bug-insertion response", calls
        bug_type, snippet_correct, snippet_buggy = parsed

        record = build_record(f"{sample_id}/llm", sample, bug_type, snippet_correct, snippet_buggy)
        if record is None:
            return None, "snippet pair does not splice into the sample", calls

        strategy_text = client.complete(
            P_STRATEGY.format(
                code=record.buggy_code,
                snippet_correct=snippet_correct,
                snippet_buggy=snippet_buggy,
            )
        )
        calls += 1
        record.function_note = function_note
        record.bug_analysis = _parse_tagged_line(strategy_text, "ANALYSIS")
        record.strategy = _parse_tagged_line(strategy_text, "STRATEGY") or strategy_text.strip()
        return record, None, calls

    from concurrent.futures import ThreadPoolExecutor  # here, not at module top, so other commands skip it

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(run_one, samples))

    for (sample_id, _), (record, reason, calls) in zip(samples, results):
        report.n_calls += calls
        if record is not None:
            report.records.append(record)
        else:
            report.skipped.append((sample_id, reason))
    return report
