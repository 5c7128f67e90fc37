"""Bug-corpus generation through a text-completion endpoint.

Each sample goes through three chained completions: describe the function,
insert a bug (structured TYPE/CORRECT/BUGGY block), and explain the fix.
The returned snippets are spliced into the source at the first occurrence
and re-verified, so malformed completions can only cost a sample, never
corrupt a record. A deterministic rule-based stub stands in for a real
endpoint in tests and offline runs.
"""

from __future__ import annotations

import json
import random
import re
import time
import zlib
from dataclasses import dataclass
from typing import Protocol
from urllib.parse import urlsplit

from .errors import DataError
from .lexer import lex
from .mutate import BugRecord, BugType, find_sites, inject, splice_record

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
    "TYPE: <one of OOB INIT SHFT INF USE MLU ZERO BUF>\n"
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
            rec = inject(stream, site, rng.getrandbits(32))
            return (
                f"TYPE: {rec.bug_type.value}\n"
                f"CORRECT: {rec.snippet_correct}\n"
                f"BUGGY: {rec.snippet_buggy}\n"
            )
        return "NO BUG POSSIBLE"


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


@dataclass
class GenLlmReport:
    records: list[BugRecord]
    skipped: list[tuple[str, str]]  # (sample_id, reason)
    n_calls: int = 0


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
    code: str,
    bug_type: BugType,
    snippet_correct: str,
    snippet_buggy: str,
) -> BugRecord | None:
    """Record from a snippet pair, spliced at the first occurrence; None if invalid."""
    at = code.find(snippet_correct)
    if at == -1:
        return None
    try:
        return splice_record(sample_id, code, at, at + len(snippet_correct), snippet_buggy, bug_type)
    except (DataError, ValueError):
        return None


def generate_via_llm(
    samples: list[tuple[str, str]],
    client: CompletionClient,
    threads: int = 1,
) -> GenLlmReport:
    """One record per (id, code) sample through the three-step prompt chain."""
    report = GenLlmReport(records=[], skipped=[])

    def run_one(job: tuple[str, str]) -> tuple[BugRecord | None, str | None, int]:
        sample_id, code = job
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

        record = build_record(f"{sample_id}/llm", code, bug_type, snippet_correct, snippet_buggy)
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

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, samples))
    else:
        results = [run_one(job) for job in samples]

    for (sample_id, _), (record, reason, calls) in zip(samples, results):
        report.n_calls += calls
        if record is not None:
            report.records.append(record)
        else:
            report.skipped.append((sample_id, reason or "unknown"))
    return report
