"""Deterministic logic-bug injection for C-like HLS sources.

Eight mutation operators produce exactly-labeled supervised records from
correct code. Each operator is one finder: a pattern match over one shared
structural scan of the token stream (bracket partners, declarations, loop
headers; no parsing) that yields sites carrying their candidate rewrites,
each a token span and its replacement text. Injection draws one rewrite
with a seeded PRNG, splices it in, re-lexes, and derives token/line labels
from the byte span of the buggy snippet. Everything is a pure function of
(source, seed).
"""

from __future__ import annotations

import enum
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import accumulate, repeat
from typing import Iterable, Sequence

from .errors import DataError
from .lexer import TokenKind, TokenStream, lex, lines_of_tokens, tokens_in_byte_range


class BugType(enum.Enum):
    OOB = "OOB"    # out-of-bounds array access
    INIT = "INIT"  # read of uninitialized variable
    SHFT = "SHFT"  # shift by an out-of-bounds amount
    INF = "INF"    # incorrect loop termination
    USE = "USE"    # unintended sign extension
    MLU = "MLU"    # manual loop unrolling error
    ZERO = "ZERO"  # initialized to zero instead of nonzero
    BUF = "BUF"    # wrong half of a split buffer


Rewrite = tuple[tuple[int, int], str]  # (half-open token span, replacement text)


@dataclass(frozen=True)
class MutationSite:
    bug_type: BugType
    token_span: tuple[int, int]  # half-open token index interval, non-empty
    rewrites: tuple[Rewrite, ...]  # the candidates `inject` draws from

    def __post_init__(self) -> None:
        lo, hi = self.token_span
        if hi <= lo:
            raise ValueError(f"empty token span {self.token_span}")
        if not self.rewrites:
            raise ValueError(f"site at {self.token_span} has no rewrite")


@dataclass
class BugRecord:
    id: str
    correct_code: str
    buggy_code: str
    snippet_correct: str
    snippet_buggy: str
    bug_type: BugType
    buggy_byte_span: tuple[int, int]
    token_labels: list[int]
    line_labels: set[int]
    function_note: str | None = None
    bug_analysis: str | None = None
    strategy: str | None = None
    extra: dict = field(default_factory=dict)


# --- the structural scan ------------------------------------------------------


_TYPE_KEYWORDS = frozenset("int unsigned signed long short char float double bool".split())
_OPENERS = frozenset("([{")
_OPENER_OF = {")": "(", "]": "[", "}": "{"}
_PAREN_STEP = {"(": 1, ")": -1}
_SQUARE_STEP = {"[": 1, "]": -1}


def _int_value(text: str) -> int | None:
    t = text.rstrip("uUlL")
    try:
        return int(t, 0)
    except ValueError:
        return None


@dataclass(frozen=True)
class _Decl:
    name: str
    name_idx: int
    type_words: tuple[str, ...]
    array_size: int | None
    init_span: tuple[int, int] | None  # token span of `name .. = expr` (half-open)
    init_eq: int | None  # index of the `=` token inside init_span
    stmt_end: int  # index of terminating `;`


@dataclass(frozen=True)
class _LoopHeader:
    close_paren: int
    cond_span: tuple[int, int]  # half-open token span of the condition
    inc_span: tuple[int, int] | None  # for-loops: span after 2nd `;` (may be empty -> None)
    body_end: int


class _Scan:
    """The structure every finder reads, derived once per stream.

    One stack pass pairs each bracket with its same-kind partner (-1 when
    unmatched) and records the innermost `[` open at each token; the running
    `(` and `[` depths are prefix counts (`depth[j] - depth[i]` is the net
    count over tokens i..j-1). Declarations and loop headers are found once.
    """

    def __init__(self, stream: TokenStream):
        self.stream = stream
        self.texts = texts = [t.text for t in stream.tokens]
        self.kinds = kinds = [t.kind for t in stream.tokens]
        n = len(texts)
        self.partner = partner = [-1] * n
        self.square_open = square_open = [-1] * n
        self.last_read: dict[str, int] = {}  # each identifier's last index not followed by `=`
        stacks: dict[str, list[int]] = {"(": [], "[": [], "{": []}
        squares = stacks["["]
        for i, t in enumerate(texts):
            if squares:
                square_open[i] = squares[-1]
            if t in _OPENERS:
                stacks[t].append(i)
            elif t in _OPENER_OF:
                opened = stacks[_OPENER_OF[t]]
                if opened:
                    j = opened.pop()
                    partner[i], partner[j] = j, i
            elif kinds[i] is TokenKind.IDENTIFIER and (i + 1 == n or texts[i + 1] != "="):
                self.last_read[t] = i
        self.paren_depth = list(accumulate(map(_PAREN_STEP.get, texts, repeat(0)), initial=0))
        self.square_depth = list(accumulate(map(_SQUARE_STEP.get, texts, repeat(0)), initial=0))
        self.decls = self._declarations()
        self.arrays = {d.name: d.array_size for d in self.decls if d.array_size is not None}
        self.loops = self._loop_headers()

    def _declarations(self) -> list[_Decl]:
        """Simple declarations: `type-words name [N]? (= expr)? ;`.

        Only the first declarator of a statement is considered; that is enough
        for the pattern operators and keeps the scan unambiguous.
        """
        texts, kinds, partner = self.texts, self.kinds, self.partner
        decls: list[_Decl] = []
        i = 0
        n = len(texts)
        while i < n:
            if kinds[i] is not TokenKind.KEYWORD or texts[i] not in _TYPE_KEYWORDS:
                i += 1
                continue
            j = i
            while j < n and kinds[j] is TokenKind.KEYWORD and texts[j] in _TYPE_KEYWORDS:
                j += 1
            words = tuple(texts[i:j])
            if j >= n or kinds[j] is not TokenKind.IDENTIFIER:
                i = j + 1
                continue
            name_idx = j
            j += 1
            array_size = None
            if j + 2 < n and texts[j] == "[":
                if kinds[j + 1] is TokenKind.NUMBER and texts[j + 2] == "]":
                    array_size = _int_value(texts[j + 1])
                    j += 3
                elif partner[j] == -1:
                    i = j + 1
                    continue
                else:
                    j = partner[j] + 1
            init_span = None
            init_eq = None
            if j < n and texts[j] == "=":
                k = j + 1
                while k < n and texts[k] not in (";", ","):
                    if texts[k] in _OPENERS:
                        if partner[k] == -1:
                            break
                        k = partner[k]
                    k += 1
                if k > j + 1:
                    init_span = (name_idx, k)
                    init_eq = j
                    j = k
            # find the end of the statement (function headers have no `;` before `{`)
            end = j
            while end < n and texts[end] not in (";", "{", "}"):
                end += 1
            if end < n and texts[end] == ";":
                decls.append(_Decl(texts[name_idx], name_idx, words, array_size, init_span, init_eq, end))
            i = end + 1
        return decls

    def _loop_headers(self) -> list[_LoopHeader]:
        texts, depth = self.texts, self.paren_depth
        loops = []
        for i, t in enumerate(texts[:-1]):
            if t not in ("for", "while") or self.kinds[i] is not TokenKind.KEYWORD or texts[i + 1] != "(":
                continue
            op = i + 1
            cp = self.partner[op]
            if cp == -1:
                continue
            if t == "while":
                if cp == op + 1:
                    continue
                loops.append(_LoopHeader(cp, (op + 1, cp), None, self._body_end(cp)))
                continue
            semis = [j for j in range(op + 1, cp) if texts[j] == ";" and depth[j] - depth[op] == 1]
            if len(semis) != 2:
                continue
            cond = (semis[0] + 1, semis[1])
            inc = (semis[1] + 1, cp) if semis[1] + 1 < cp else None
            if cond[1] <= cond[0]:
                continue
            loops.append(_LoopHeader(cp, cond, inc, self._body_end(cp)))
        return loops

    def _body_end(self, close_paren: int) -> int:
        """Last token index (inclusive) of the loop body following a `)` token."""
        texts, n = self.texts, len(self.texts)
        j = close_paren + 1
        while j < n and self.kinds[j] in (TokenKind.COMMENT, TokenKind.PRAGMA):
            j += 1
        if j >= n:
            return close_paren
        if texts[j] == "{":
            return self.partner[j] if self.partner[j] != -1 else n - 1
        while j < n and texts[j] != ";":
            j += 1
        return min(j, n - 1)

    def rewrite(self, span: tuple[int, int], replacements: dict[int, str]) -> str:
        """Span text with some tokens replaced, original gaps preserved."""
        lo, hi = span
        toks, source = self.stream.tokens, self.stream.source
        out = []
        pos = toks[lo].byte_start
        for idx in range(lo, hi):
            out.append(source[pos:toks[idx].byte_start])
            out.append(replacements.get(idx, self.texts[idx]))
            pos = toks[idx].byte_end
        return "".join(out)


# --- site discovery ----------------------------------------------------------


def find_sites(stream: TokenStream) -> dict[BugType, list[MutationSite]]:
    """Every operator's sites in `stream`, with their rewrites, each list in source order."""
    scan = _Scan(stream)
    return {t: sorted(finder(scan), key=lambda s: s.token_span) for t, finder in _FINDERS.items()}


def _find_oob(scan: _Scan) -> list[MutationSite]:
    texts, kinds = scan.texts, scan.kinds
    sites = []
    for loop in scan.loops:
        lo, hi = loop.cond_span
        if hi - lo != 3:
            continue
        if kinds[lo] is not TokenKind.IDENTIFIER or texts[lo + 1] != "<" or kinds[lo + 2] is not TokenKind.NUMBER:
            continue
        bval = _int_value(texts[lo + 2])
        if bval is None:
            continue
        body = range(loop.close_paren + 1, loop.body_end + 1)
        if any(
            size == bval and any(texts[k] == name and kinds[k] is TokenKind.IDENTIFIER for k in body)
            for name, size in scan.arrays.items()
        ):
            span = (lo, hi)
            relaxed = scan.rewrite(span, {lo + 1: "<="})
            bumped = scan.rewrite(span, {lo + 2: str(bval + 1)})
            sites.append(MutationSite(BugType.OOB, span, ((span, relaxed), (span, bumped))))
    return sites


def _find_init(scan: _Scan) -> list[MutationSite]:
    toks = scan.stream.tokens
    sites = []
    for d in scan.decls:
        if d.init_span is not None and scan.last_read.get(d.name, -1) > d.stmt_end:
            # keep everything up to (not including) `=`: the name plus any array suffix
            kept = scan.stream.source[toks[d.name_idx].byte_start:toks[d.init_eq - 1].byte_end]
            sites.append(MutationSite(BugType.INIT, d.init_span, ((d.init_span, kept),)))
    return sites


def _shift_width(scan: _Scan, shift_idx: int) -> int:
    # step back to the shifted operand's base identifier, over one `[...]`
    j = shift_idx - 1
    if j >= 0 and scan.texts[j] == "]":
        j = scan.partner[j] - 1
    if j >= 0 and scan.kinds[j] is TokenKind.IDENTIFIER:
        name = scan.texts[j]
        for d in scan.decls:
            if d.name == name:
                return 64 if d.type_words.count("long") >= 2 else 32
    return 32


_SHIFTS = frozenset(("<<", ">>", "<<=", ">>="))


def _find_shft(scan: _Scan) -> list[MutationSite]:
    texts, kinds = scan.texts, scan.kinds
    sites = []
    for i, t in enumerate(texts[:-1]):
        if t in _SHIFTS and kinds[i] is TokenKind.OPERATOR:
            if kinds[i + 1] is not TokenKind.NUMBER:
                continue
            val = _int_value(texts[i + 1])
            if val is None:
                continue
            width = _shift_width(scan, i)
            if val >= width:
                continue  # already out of bounds; nothing to break
            span = (i + 1, i + 2)
            sites.append(MutationSite(BugType.SHFT, span, tuple((span, str(width + k)) for k in range(1, 9))))
    return sites


_INVERT = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _find_inf(scan: _Scan) -> list[MutationSite]:
    texts = scan.texts
    sites = []
    for loop in scan.loops:
        lo, hi = loop.cond_span
        rel = [j for j in range(lo, hi) if texts[j] in _INVERT]
        rewrites = []
        if rel:
            rewrites.append(((rel[0], rel[0] + 1), _INVERT[texts[rel[0]]]))
        if loop.inc_span is not None:
            rewrites.append(((loop.inc_span[0] - 1, loop.inc_span[1]), ";"))  # drop the increment
        if not rewrites:
            continue
        span_hi = loop.inc_span[1] if loop.inc_span is not None else hi
        sites.append(MutationSite(BugType.INF, (lo, span_hi), tuple(rewrites)))
    return sites


def _find_use(scan: _Scan) -> list[MutationSite]:
    texts, kinds = scan.texts, scan.kinds
    n = len(texts)
    ll_names = {d.name for d in scan.decls if d.type_words.count("long") >= 2}
    sites = []
    for d in scan.decls:
        if d.type_words not in (("unsigned",), ("unsigned", "int")):
            continue
        feeds = False
        for i in range(d.stmt_end + 1, n):
            if kinds[i] is not TokenKind.IDENTIFIER or texts[i] != d.name:
                continue
            nxt = texts[i + 1] if i + 1 < n else ""
            prv = texts[i - 1]
            if nxt in _SHIFTS or prv in ("<<", ">>"):
                feeds = True
                break
            # widening assignment: `ll = ... name ...`
            if prv == "=" and i >= 2 and texts[i - 2] in ll_names:
                feeds = True
                break
        if feeds:
            width = 2 if d.type_words == ("unsigned", "int") else 1
            lo = d.name_idx - len(d.type_words)
            sites.append(MutationSite(BugType.USE, (lo, lo + width), (((lo, lo + width), "int"),)))
    return sites


def _split_statements(texts: Sequence[str]) -> list[tuple[int, int]]:
    """Half-open token spans of `;`-terminated statements, per brace depth run."""
    spans = []
    start = 0
    for i, t in enumerate(texts):
        if t == ";":
            spans.append((start, i + 1))
            start = i + 1
        elif t in ("{", "}"):
            start = i + 1
    return spans


def _find_mlu(scan: _Scan) -> list[MutationSite]:
    texts, kinds, depth = scan.texts, scan.kinds, scan.square_depth
    stmts = _split_statements(texts)
    sites = []
    for (a_lo, a_hi), (b_lo, b_hi) in zip(stmts, stmts[1:]):
        if a_hi != b_lo or a_hi - a_lo != b_hi - b_lo or a_hi - a_lo < 4:
            continue
        diff = []
        same_shape = True
        for off in range(a_hi - a_lo):
            a, b = a_lo + off, b_lo + off
            if texts[a] == texts[b] and kinds[a] is kinds[b]:
                continue
            if kinds[a] is TokenKind.NUMBER and kinds[b] is TokenKind.NUMBER:
                diff.append(off)
            else:
                same_shape = False
                break
        if not same_shape or not diff:
            continue
        # the corrupted literal must sit inside an index expression
        bracketed = [off for off in diff if depth[b_lo + off] - depth[b_lo] > 0]
        if not bracketed:
            continue
        rewrites = []
        for off in bracketed:  # copy the neighbour's literal into the index expression
            lit = b_lo + off
            open_ = scan.square_open[lit]
            close = scan.partner[open_] if open_ != -1 else -1
            span = (open_ + 1, close) if close != -1 else (lit, lit + 1)
            rewrites.append((span, scan.rewrite(span, {lit: texts[a_lo + off]})))
        sites.append(MutationSite(BugType.MLU, (b_lo, b_hi), tuple(rewrites)))
    return sites


def _find_zero(scan: _Scan) -> list[MutationSite]:
    sites = []
    for d in scan.decls:
        if d.init_span is None:
            continue
        lo, hi = d.init_span
        if hi - lo != 3:  # name = literal
            continue
        if scan.kinds[lo + 2] is not TokenKind.NUMBER:
            continue
        val = _int_value(scan.texts[lo + 2])
        if val is None or val == 0:
            continue
        sites.append(MutationSite(BugType.ZERO, (lo + 2, lo + 3), (((lo + 2, lo + 3), "0"),)))
    return sites


_HALF_NAMES = ("half", "mid", "offset", "off")


def _is_half_offset(scan: _Scan, lo: int, hi: int, array_size: int | None) -> bool:
    """True when tokens lo..hi-1 look like a half-size offset expression."""
    texts, kinds = scan.texts, scan.kinds
    if hi - lo == 1:
        if kinds[lo] is TokenKind.NUMBER:
            v = _int_value(texts[lo])
            return v is not None and array_size is not None and v * 2 == array_size
        if kinds[lo] is TokenKind.IDENTIFIER:
            low = texts[lo].lower()
            return any(h in low for h in _HALF_NAMES)
    if hi - lo == 3 and (texts[lo + 1], texts[lo + 2]) in (("/", "2"), (">>", "1")):
        return kinds[lo] in (TokenKind.IDENTIFIER, TokenKind.NUMBER)
    return False


def _find_buf(scan: _Scan) -> list[MutationSite]:
    texts, kinds = scan.texts, scan.kinds
    sites = []
    for i in range(1, len(texts)):
        if texts[i] != "[" or kinds[i - 1] is not TokenKind.IDENTIFIER or scan.partner[i] == -1:
            continue
        inner = (i + 1, scan.partner[i])
        size = scan.arrays.get(texts[i - 1])
        n_inner = inner[1] - inner[0]
        first = inner[0]
        if n_inner >= 3 and kinds[first] is TokenKind.IDENTIFIER and texts[first + 1] == "+":
            if _is_half_offset(scan, first + 2, inner[1], size):
                sites.append(MutationSite(BugType.BUF, inner, ((inner, texts[first]),)))
        elif n_inner == 1 and kinds[first] is TokenKind.IDENTIFIER:
            if size is not None and size % 2 == 0 and size >= 2:
                sites.append(MutationSite(BugType.BUF, inner, ((inner, f"{texts[first]} + {size // 2}"),)))
    return sites


_FINDERS = {
    BugType.OOB: _find_oob,
    BugType.INIT: _find_init,
    BugType.SHFT: _find_shft,
    BugType.INF: _find_inf,
    BugType.USE: _find_use,
    BugType.MLU: _find_mlu,
    BugType.ZERO: _find_zero,
    BugType.BUF: _find_buf,
}


# --- injection ---------------------------------------------------------------


def _span_bytes(stream: TokenStream, span: tuple[int, int]) -> tuple[int, int]:
    lo, hi = span
    return stream.tokens[lo].byte_start, stream.tokens[hi - 1].byte_end


def inject(stream: TokenStream, site: MutationSite, seed: int) -> BugRecord:
    """Apply one of `site`'s rewrites to the stream, returning a verified BugRecord.

    `seed` draws the rewrite through its own PRNG, so identical
    (stream, site, seed) triples give identical records.
    """
    if site.token_span[1] > len(stream.tokens) or _span_bytes(stream, site.token_span)[1] > len(stream.source):
        raise ValueError("site does not belong to this stream")
    rng = random.Random(seed)
    if site.bug_type is BugType.OOB:  # a coin, not `choice`: seeded corpora were built with it
        span, buggy_text = site.rewrites[0 if rng.random() < 0.5 else 1]
    else:
        span, buggy_text = rng.choice(site.rewrites)
    a, b = _span_bytes(stream, span)
    t = site.bug_type
    return splice_record(f"{t.value.lower()}-{a}-{b}-{seed & 0xFFFFFFFF:08x}", stream.source, a, b, buggy_text, t)


def splice_record(record_id: str, code: str, a: int, b: int, buggy_text: str, bug_type: BugType) -> BugRecord:
    """The checked record whose buggy code replaces `code[a:b]` with `buggy_text`.

    Raises DataError when the buggy code does not lex, and ValueError, from
    `check_record`, for an identity rewrite or one that covers no token.
    """
    buggy_code = code[:a] + buggy_text + code[b:]
    span = (a, a + len(buggy_text))
    stream = lex(buggy_code)
    lo, hi = tokens_in_byte_range(stream, span)
    record = BugRecord(
        id=record_id,
        correct_code=code,
        buggy_code=buggy_code,
        snippet_correct=code[a:b],
        snippet_buggy=buggy_text,
        bug_type=bug_type,
        buggy_byte_span=span,
        token_labels=[1 if lo <= i < hi else 0 for i in range(stream.n_tokens)],
        line_labels=lines_of_tokens(stream, range(lo, hi)),
    )
    check_record(record, stream)
    return record


def verify_record(record: BugRecord) -> bool:
    """Whether the record lexes and `check_record` passes it."""
    try:
        check_record(record, lex(record.buggy_code))
    except (DataError, ValueError):
        return False
    return True


def check_record(record: BugRecord, stream: TokenStream) -> None:
    """Raise ValueError naming the first broken BugRecord invariant, given `stream = lex(record.buggy_code)`.

    The span lies in the buggy code and holds the buggy snippet, which differs
    from the correct one; putting the correct snippet back gives the correct
    code; there is one token label per token, and the flagged tokens are those
    the span touches, at least one; the line labels are the flagged tokens' lines.
    """
    s, e = record.buggy_byte_span
    if not 0 <= s <= e <= len(record.buggy_code):
        raise ValueError(f"buggy_byte_span {[s, e]} is not within the {len(record.buggy_code)} bytes of buggy_code")
    if record.snippet_correct == record.snippet_buggy:
        raise ValueError("snippet_correct equals snippet_buggy")
    if record.buggy_code[s:e] != record.snippet_buggy:
        raise ValueError("buggy_code does not hold snippet_buggy at buggy_byte_span")
    if record.buggy_code[:s] + record.snippet_correct + record.buggy_code[e:] != record.correct_code:
        raise ValueError("snippet_correct spliced into buggy_code does not give correct_code")
    if len(record.token_labels) != stream.n_tokens:
        raise ValueError(f"{len(record.token_labels)} token_labels for {stream.n_tokens} tokens")
    lo, hi = tokens_in_byte_range(stream, record.buggy_byte_span)
    if lo == hi:
        raise ValueError("buggy_byte_span covers no token")
    if record.token_labels != [1 if lo <= i < hi else 0 for i in range(stream.n_tokens)]:
        raise ValueError(f"token_labels do not flag exactly tokens {lo}..{hi - 1}, those buggy_byte_span covers")
    if set(record.line_labels) != lines_of_tokens(stream, range(lo, hi)):
        raise ValueError("line_labels are not the lines of the flagged tokens")


# --- corpus-level generation ---------------------------------------------------


@dataclass
class GenerationReport:
    records: list[BugRecord]
    histogram: Counter
    skipped: list[str]  # sample ids with no applicable site


def _derive_seed(seed: int, index: int) -> int:
    x = (seed ^ ((index + 1) * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    return (x ^ (x >> 31)) & 0xFFFFFFFFFFFFFFFF


def generate_for_sample(sample_id: str, code: str, per_sample: int, seed: int) -> list[BugRecord] | None:
    """Up to `per_sample` records for one sample; None when no site exists."""
    try:
        stream = lex(code)
    except DataError:
        return None
    queues = find_sites(stream)
    order = [t for t in BugType if queues[t]]
    if not order:
        return None
    rng = random.Random(_derive_seed(seed, 0))
    start = rng.randrange(len(order))
    order = order[start:] + order[:start]
    records: list[BugRecord] = []
    k = 0
    while len(records) < per_sample and any(queues[t] for t in order):
        for t in order:
            if len(records) >= per_sample:
                break
            if not queues[t]:
                continue
            site = queues[t].pop(rng.randrange(len(queues[t])))
            rec = inject(stream, site, _derive_seed(seed, k + 1))
            records.append(replace(rec, id=f"{sample_id}/{t.value.lower()}/{k}"))
            k += 1
    return records


def generate_corpus(
    samples: Iterable[tuple[str, str]],
    per_sample: int,
    seed: int,
) -> GenerationReport:
    """Inject bugs across a corpus of (id, correct_code) samples.

    Records are drawn round-robin over bug types that have sites, then over
    sites, with all ties broken by a PRNG derived from (seed, sample index).
    Deterministic for fixed inputs and seed.
    """
    if per_sample < 1:
        raise ValueError("per_sample must be >= 1")
    records: list[BugRecord] = []
    skipped: list[str] = []
    for idx, (sid, code) in enumerate(samples):
        recs = generate_for_sample(sid, code, per_sample, _derive_seed(seed, idx))
        if recs is None:
            skipped.append(sid)
        else:
            records.extend(recs)
    histogram = Counter(r.bug_type for r in records)
    return GenerationReport(records=records, histogram=histogram, skipped=skipped)
