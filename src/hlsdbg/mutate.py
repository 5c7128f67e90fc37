"""Deterministic logic-bug injection for C-like HLS sources.

Eight mutation operators produce exactly-labeled supervised records from
correct code. Each operator is one finder: a pattern scan over the token
stream (no parsing) that yields sites carrying their candidate rewrites,
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
from typing import Iterable, Sequence

from .errors import DataError
from .lexer import Token, TokenKind, TokenStream, lex, lines_of_tokens, tokens_in_byte_range


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


# --- structural scan helpers -------------------------------------------------


def _match_forward(tokens: Sequence[Token], i: int, open_: str, close: str) -> int:
    """Index of the token closing the bracket opened at `i`; -1 if unbalanced."""
    depth = 0
    for j in range(i, len(tokens)):
        t = tokens[j].text
        if t == open_:
            depth += 1
        elif t == close:
            depth -= 1
            if depth == 0:
                return j
    return -1


def _body_extent(tokens: Sequence[Token], close_paren: int) -> int:
    """Last token index (inclusive) of the loop body following a `)` token."""
    j = close_paren + 1
    while j < len(tokens) and tokens[j].kind in (TokenKind.COMMENT, TokenKind.PRAGMA):
        j += 1
    if j >= len(tokens):
        return close_paren
    if tokens[j].text == "{":
        end = _match_forward(tokens, j, "{", "}")
        return end if end != -1 else len(tokens) - 1
    while j < len(tokens) and tokens[j].text != ";":
        j += 1
    return min(j, len(tokens) - 1)


_TYPE_KEYWORDS = frozenset("int unsigned signed long short char float double bool".split())


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


def _scan_declarations(tokens: Sequence[Token]) -> list[_Decl]:
    """Collect simple declarations: `type-words name [N]? (= expr)? ;`.

    Only the first declarator of a statement is considered; that is enough
    for the pattern operators and keeps the scan unambiguous.
    """
    decls: list[_Decl] = []
    i = 0
    n = len(tokens)
    while i < n:
        if tokens[i].kind is not TokenKind.KEYWORD or tokens[i].text not in _TYPE_KEYWORDS:
            i += 1
            continue
        j = i
        words = []
        while j < n and tokens[j].kind is TokenKind.KEYWORD and tokens[j].text in _TYPE_KEYWORDS:
            words.append(tokens[j].text)
            j += 1
        if j >= n or tokens[j].kind is not TokenKind.IDENTIFIER:
            i = j + 1
            continue
        name_idx = j
        name = tokens[j].text
        j += 1
        array_size = None
        if j + 2 < n and tokens[j].text == "[":
            if tokens[j + 1].kind is TokenKind.NUMBER and tokens[j + 2].text == "]":
                array_size = _int_value(tokens[j + 1].text)
                j += 3
            else:
                close = _match_forward(tokens, j, "[", "]")
                if close == -1:
                    i = j + 1
                    continue
                j = close + 1
        init_span = None
        init_eq = None
        if j < n and tokens[j].text == "=":
            eq = j
            k = j + 1
            while k < n and tokens[k].text not in (";", ","):
                if tokens[k].text in ("(", "[", "{"):
                    close = _match_forward(tokens, k, tokens[k].text, {"(": ")", "[": "]", "{": "}"}[tokens[k].text])
                    if close == -1:
                        break
                    k = close
                k += 1
            if k > j + 1:
                init_span = (name_idx, k)
                init_eq = eq
                j = k
        # find the end of the statement (function headers have no `;` before `{`)
        end = j
        while end < n and tokens[end].text not in (";", "{", "}"):
            end += 1
        if end < n and tokens[end].text == ";":
            decls.append(_Decl(name, name_idx, tuple(words), array_size, init_span, init_eq, end))
        i = end + 1
    return decls


@dataclass(frozen=True)
class _LoopHeader:
    keyword_idx: int
    open_paren: int
    close_paren: int
    cond_span: tuple[int, int]  # half-open token span of the condition
    inc_span: tuple[int, int] | None  # for-loops: span after 2nd `;` (may be empty -> None)
    body_end: int


def _scan_loop_headers(tokens: Sequence[Token]) -> list[_LoopHeader]:
    loops = []
    for i, tok in enumerate(tokens):
        if tok.kind is not TokenKind.KEYWORD or tok.text not in ("for", "while"):
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].text != "(":
            continue
        op = i + 1
        cp = _match_forward(tokens, op, "(", ")")
        if cp == -1:
            continue
        if tok.text == "while":
            if cp == op + 1:
                continue
            loops.append(_LoopHeader(i, op, cp, (op + 1, cp), None, _body_extent(tokens, cp)))
            continue
        semis = [j for j in range(op + 1, cp) if tokens[j].text == ";" and _depth_ok(tokens, op, j)]
        if len(semis) != 2:
            continue
        cond = (semis[0] + 1, semis[1])
        inc = (semis[1] + 1, cp) if semis[1] + 1 < cp else None
        if cond[1] <= cond[0]:
            continue
        loops.append(_LoopHeader(i, op, cp, cond, inc, _body_extent(tokens, cp)))
    return loops


def _depth_ok(tokens: Sequence[Token], open_paren: int, j: int) -> bool:
    depth = 0
    for k in range(open_paren, j):
        if tokens[k].text == "(":
            depth += 1
        elif tokens[k].text == ")":
            depth -= 1
    return depth == 1


def _identifier_used_in(tokens: Sequence[Token], name: str, lo: int, hi: int) -> bool:
    return any(
        t.kind is TokenKind.IDENTIFIER and t.text == name
        for t in tokens[lo:hi + 1]
    )


def _rewrite_tokens(stream: TokenStream, span: tuple[int, int], replacements: dict[int, str]) -> str:
    """Span text with some tokens replaced, original gaps preserved."""
    lo, hi = span
    out = []
    pos = stream.tokens[lo].byte_start
    for idx in range(lo, hi):
        tok = stream.tokens[idx]
        out.append(stream.source[pos:tok.byte_start])
        out.append(replacements.get(idx, tok.text))
        pos = tok.byte_end
    return "".join(out)


def _index_expr_span(tokens: Sequence[Token], idx: int) -> tuple[int, int] | None:
    """Innermost `[ ... ]` content span containing token `idx`."""
    depth = 0
    for j in range(idx, -1, -1):
        if tokens[j].text == "]":
            depth += 1
        elif tokens[j].text == "[":
            if depth == 0:
                close = _match_forward(tokens, j, "[", "]")
                if close != -1 and close > idx:
                    return (j + 1, close)
                return None
            depth -= 1
    return None


# --- site discovery ----------------------------------------------------------


def find_sites(stream: TokenStream, bug_type: BugType) -> list[MutationSite]:
    """All sites where `bug_type`'s operator applies, with their rewrites, in source order."""
    finder = _FINDERS[bug_type]
    sites = finder(stream)
    sites.sort(key=lambda s: s.token_span)
    return sites


def _find_oob(stream: TokenStream) -> list[MutationSite]:
    toks = stream.tokens
    decls = _scan_declarations(toks)
    arrays = {d.name: d.array_size for d in decls if d.array_size is not None}
    sites = []
    for loop in _scan_loop_headers(toks):
        lo, hi = loop.cond_span
        if hi - lo != 3:
            continue
        var, op, bound = toks[lo], toks[lo + 1], toks[lo + 2]
        if var.kind is not TokenKind.IDENTIFIER or op.text != "<" or bound.kind is not TokenKind.NUMBER:
            continue
        bval = _int_value(bound.text)
        if bval is None:
            continue
        hit = [
            name for name, size in arrays.items()
            if size == bval and _identifier_used_in(toks, name, loop.close_paren + 1, loop.body_end)
        ]
        if hit:
            span = (lo, hi)
            relaxed = _rewrite_tokens(stream, span, {lo + 1: "<="})
            bumped = _rewrite_tokens(stream, span, {lo + 2: str(bval + 1)})
            sites.append(MutationSite(BugType.OOB, span, ((span, relaxed), (span, bumped))))
    return sites


def _find_init(stream: TokenStream) -> list[MutationSite]:
    toks = stream.tokens
    sites = []
    for d in _scan_declarations(toks):
        if d.init_span is None:
            continue
        read_later = any(
            t.kind is TokenKind.IDENTIFIER and t.text == d.name
            and (i + 1 >= len(toks) or toks[i + 1].text != "=")
            for i, t in enumerate(toks[d.stmt_end + 1:], start=d.stmt_end + 1)
        )
        if read_later:
            # keep everything up to (not including) `=`: the name plus any array suffix
            kept = stream.source[toks[d.name_idx].byte_start:toks[d.init_eq - 1].byte_end]
            sites.append(MutationSite(BugType.INIT, d.init_span, ((d.init_span, kept),)))
    return sites


def _shift_width(tokens: Sequence[Token], shift_idx: int, decls: list[_Decl]) -> int:
    # walk back to the shifted operand's base identifier
    j = shift_idx - 1
    if j >= 0 and tokens[j].text == "]":
        back = j
        depth = 0
        while back >= 0:
            if tokens[back].text == "]":
                depth += 1
            elif tokens[back].text == "[":
                depth -= 1
                if depth == 0:
                    break
            back -= 1
        j = back - 1
    if j >= 0 and tokens[j].kind is TokenKind.IDENTIFIER:
        name = tokens[j].text
        for d in decls:
            if d.name == name:
                return 64 if d.type_words.count("long") >= 2 else 32
    return 32


def _find_shft(stream: TokenStream) -> list[MutationSite]:
    toks = stream.tokens
    decls = _scan_declarations(toks)
    sites = []
    for i, tok in enumerate(toks[:-1]):
        if tok.kind is TokenKind.OPERATOR and tok.text in ("<<", ">>", "<<=", ">>="):
            amount = toks[i + 1]
            if amount.kind is not TokenKind.NUMBER:
                continue
            val = _int_value(amount.text)
            if val is None:
                continue
            width = _shift_width(toks, i, decls)
            if val >= width:
                continue  # already out of bounds; nothing to break
            span = (i + 1, i + 2)
            sites.append(MutationSite(BugType.SHFT, span, tuple((span, str(width + k)) for k in range(1, 9))))
    return sites


_INVERT = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _find_inf(stream: TokenStream) -> list[MutationSite]:
    toks = stream.tokens
    sites = []
    for loop in _scan_loop_headers(toks):
        lo, hi = loop.cond_span
        rel = [j for j in range(lo, hi) if toks[j].text in _INVERT]
        rewrites = []
        if rel:
            rewrites.append(((rel[0], rel[0] + 1), _INVERT[toks[rel[0]].text]))
        if loop.inc_span is not None:
            rewrites.append(((loop.inc_span[0] - 1, loop.inc_span[1]), ";"))  # drop the increment
        if not rewrites:
            continue
        span_hi = loop.inc_span[1] if loop.inc_span is not None else hi
        sites.append(MutationSite(BugType.INF, (lo, span_hi), tuple(rewrites)))
    return sites


def _find_use(stream: TokenStream) -> list[MutationSite]:
    toks = stream.tokens
    decls = _scan_declarations(toks)
    ll_names = {d.name for d in decls if d.type_words.count("long") >= 2}
    sites = []
    for d in decls:
        if not d.type_words or d.type_words[0] != "unsigned":
            continue
        if d.type_words not in (("unsigned",), ("unsigned", "int")):
            continue
        feeds = False
        for i in range(d.stmt_end + 1, len(toks)):
            if toks[i].kind is not TokenKind.IDENTIFIER or toks[i].text != d.name:
                continue
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            prv = toks[i - 1].text if i > 0 else ""
            if nxt in ("<<", ">>", "<<=", ">>=") or prv in ("<<", ">>"):
                feeds = True
                break
            # widening assignment: `ll = ... name ...`
            if prv == "=" and i >= 2 and toks[i - 2].text in ll_names:
                feeds = True
                break
        if feeds:
            width = 2 if d.type_words == ("unsigned", "int") else 1
            lo = d.name_idx - len(d.type_words)
            sites.append(MutationSite(BugType.USE, (lo, lo + width), (((lo, lo + width), "int"),)))
    return sites


def _split_statements(tokens: Sequence[Token]) -> list[tuple[int, int]]:
    """Half-open token spans of `;`-terminated statements, per brace depth run."""
    spans = []
    start = 0
    for i, t in enumerate(tokens):
        if t.text == ";":
            spans.append((start, i + 1))
            start = i + 1
        elif t.text in ("{", "}"):
            start = i + 1
    return spans


def _find_mlu(stream: TokenStream) -> list[MutationSite]:
    toks = stream.tokens
    stmts = _split_statements(toks)
    sites = []
    for (a_lo, a_hi), (b_lo, b_hi) in zip(stmts, stmts[1:]):
        if a_hi != b_lo or a_hi - a_lo != b_hi - b_lo or a_hi - a_lo < 4:
            continue
        diff = []
        same_shape = True
        for off in range(a_hi - a_lo):
            ta, tb = toks[a_lo + off], toks[b_lo + off]
            if ta.text == tb.text and ta.kind == tb.kind:
                continue
            if ta.kind is TokenKind.NUMBER and tb.kind is TokenKind.NUMBER:
                diff.append(off)
            else:
                same_shape = False
                break
        if not same_shape or not diff:
            continue
        # the corrupted literal must sit inside an index expression
        bracketed = [off for off in diff if _inside_brackets(toks, b_lo, b_hi, b_lo + off)]
        if not bracketed:
            continue
        rewrites = []
        for off in bracketed:  # copy the neighbour's literal into the index expression
            lit = b_lo + off
            span = _index_expr_span(toks, lit) or (lit, lit + 1)
            rewrites.append((span, _rewrite_tokens(stream, span, {lit: toks[a_lo + off].text})))
        sites.append(MutationSite(BugType.MLU, (b_lo, b_hi), tuple(rewrites)))
    return sites


def _inside_brackets(tokens: Sequence[Token], lo: int, hi: int, idx: int) -> bool:
    depth = 0
    for j in range(lo, idx):
        if tokens[j].text == "[":
            depth += 1
        elif tokens[j].text == "]":
            depth -= 1
    return depth > 0


def _find_zero(stream: TokenStream) -> list[MutationSite]:
    toks = stream.tokens
    sites = []
    for d in _scan_declarations(toks):
        if d.init_span is None:
            continue
        lo, hi = d.init_span
        if hi - lo != 3:  # name = literal
            continue
        lit = toks[lo + 2]
        if lit.kind is not TokenKind.NUMBER:
            continue
        val = _int_value(lit.text)
        if val is None or val == 0:
            continue
        sites.append(MutationSite(BugType.ZERO, (lo + 2, lo + 3), (((lo + 2, lo + 3), "0"),)))
    return sites


_HALF_NAMES = ("half", "mid", "offset", "off")


def _is_half_offset(tokens: Sequence[Token], lo: int, hi: int, array_size: int | None) -> bool:
    """True when tokens[lo:hi] looks like a half-size offset expression."""
    span = tokens[lo:hi]
    if len(span) == 1:
        t = span[0]
        if t.kind is TokenKind.NUMBER:
            v = _int_value(t.text)
            return v is not None and array_size is not None and v * 2 == array_size
        if t.kind is TokenKind.IDENTIFIER:
            low = t.text.lower()
            return any(h in low for h in _HALF_NAMES)
    if len(span) == 3 and span[1].text == "/" and span[2].text == "2":
        return span[0].kind in (TokenKind.IDENTIFIER, TokenKind.NUMBER)
    if len(span) == 3 and span[1].text == ">>" and span[2].text == "1":
        return span[0].kind in (TokenKind.IDENTIFIER, TokenKind.NUMBER)
    return False


def _find_buf(stream: TokenStream) -> list[MutationSite]:
    toks = stream.tokens
    decls = _scan_declarations(toks)
    arrays = {d.name: d.array_size for d in decls if d.array_size is not None}
    sites = []
    for i, tok in enumerate(toks):
        if tok.text != "[" or i == 0:
            continue
        base = toks[i - 1]
        if base.kind is not TokenKind.IDENTIFIER:
            continue
        close = _match_forward(toks, i, "[", "]")
        if close == -1:
            continue
        inner = (i + 1, close)
        size = arrays.get(base.text)
        n_inner = inner[1] - inner[0]
        if n_inner >= 3 and toks[inner[0]].kind is TokenKind.IDENTIFIER and toks[inner[0] + 1].text == "+":
            if _is_half_offset(toks, inner[0] + 2, inner[1], size):
                sites.append(MutationSite(BugType.BUF, inner, ((inner, toks[inner[0]].text),)))
        elif n_inner == 1 and toks[inner[0]].kind is TokenKind.IDENTIFIER:
            if size is not None and size % 2 == 0 and size >= 2:
                added = f"{toks[inner[0]].text} + {size // 2}"
                sites.append(MutationSite(BugType.BUF, inner, ((inner, added),)))
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
    """The verified record whose buggy code replaces `code[a:b]` with `buggy_text`.

    Raises DataError when the buggy code does not lex, and ValueError for an
    identity rewrite, a rewrite that covers no token, or a record that fails
    verification.
    """
    snippet_correct = code[a:b]
    if buggy_text == snippet_correct:
        raise ValueError(f"identity rewrite at bytes ({a}, {b})")
    buggy_code = code[:a] + buggy_text + code[b:]
    span = (a, a + len(buggy_text))
    stream = lex(buggy_code)
    lo, hi = tokens_in_byte_range(stream, span)
    if lo == hi:
        raise ValueError(f"rewrite at bytes ({a}, {b}) covers no token")
    record = BugRecord(
        id=record_id,
        correct_code=code,
        buggy_code=buggy_code,
        snippet_correct=snippet_correct,
        snippet_buggy=buggy_text,
        bug_type=bug_type,
        buggy_byte_span=span,
        token_labels=[1 if lo <= i < hi else 0 for i in range(stream.n_tokens)],
        line_labels=lines_of_tokens(stream, range(lo, hi)),
    )
    if not _verify_lexed(record, stream):
        raise ValueError(f"spliced record {record_id} is inconsistent")
    return record


def verify_record(record: BugRecord) -> bool:
    """Re-check every BugRecord invariant from the raw fields."""
    try:
        stream = lex(record.buggy_code)
    except Exception:
        return False
    return _verify_lexed(record, stream)


def _verify_lexed(record: BugRecord, stream: TokenStream) -> bool:
    """Every BugRecord invariant, given `stream = lex(record.buggy_code)`."""
    s, e = record.buggy_byte_span
    if not (0 <= s <= e <= len(record.buggy_code)):
        return False
    if record.snippet_correct == record.snippet_buggy:
        return False
    if record.buggy_code[s:e] != record.snippet_buggy:
        return False
    spliced = record.buggy_code[:s] + record.snippet_correct + record.buggy_code[e:]
    if spliced != record.correct_code:
        return False
    if len(record.token_labels) != stream.n_tokens:
        return False
    lo, hi = tokens_in_byte_range(stream, record.buggy_byte_span)
    expect = [1 if lo <= i < hi else 0 for i in range(stream.n_tokens)]
    if record.token_labels != expect:
        return False
    flagged = [i for i, v in enumerate(record.token_labels) if v == 1]
    if set(record.line_labels) != lines_of_tokens(stream, flagged):
        return False
    return True


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
    queues = {t: find_sites(stream, t) for t in BugType}
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
            rec = replace_id(rec, f"{sample_id}/{t.value.lower()}/{k}")
            records.append(rec)
            k += 1
    return records


def replace_id(record: BugRecord, new_id: str) -> BugRecord:
    return replace(record, id=new_id)


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
