"""Lexer for HLS-flavored C/C++ sources.

Tokens carry exact offsets into the source string plus 1-based line/col, so
every downstream label, span and metric can be tied back to the text. For the
ASCII sources this project works with, string offsets coincide with byte
offsets. The lexer is deliberately permissive: unknown characters become
single-char punctuation tokens instead of errors, because crawled HLS code is
noisy. Comments and pragmas are real tokens so they stay labelable.

The scan works per token, not per character: a token's first character picks
its kind, and one compiled-regex match consumes the rest of it (identifier
and number continuations, multi-char operators, literals) or the whitespace
run before the next token.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import LexError


class TokenKind(enum.Enum):
    IDENTIFIER = "Identifier"
    KEYWORD = "Keyword"
    NUMBER = "Number"
    STRING_LIT = "StringLit"
    CHAR_LIT = "CharLit"
    OPERATOR = "Operator"
    PUNCT = "Punct"
    PRAGMA = "Pragma"
    COMMENT = "Comment"


KEYWORDS = frozenset(
    """
    auto bool break case char const continue default do double else enum
    extern float for goto if inline int long register restrict return short
    signed sizeof static struct switch typedef union unsigned void volatile
    while true false
    """.split()
)

# Maximal munch: longest operators first.
_MULTI_OPS = (
    "<<=", ">>=", "...", "->*", "::",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "++", "--", "->",
)
_OP_CHARS = frozenset("+-*/%<>=!&|^~?")
_WS = frozenset(" \t\r\f\v")

# Token continuations. A token's first character is tested with str methods
# (`isalpha`, `isdigit`), which differ from `\d` and `[^\W\d]` on characters
# such as "²" and "½"; after it, `\w` equals `isalnum() or "_"` exactly.
_GAP = re.compile(r"[ \t\r\f\v\n]*")
_IDENT_REST = re.compile(r"\w*")
_NUMBER_REST = re.compile(r"(?:[\w.]|(?<=[eEpP])[+-])*")
_MULTI_OP = re.compile("|".join(map(re.escape, _MULTI_OPS)))
# A backslash escapes any next character, newline included; an unescaped
# newline or the end of the source leaves the literal unterminated.
_STRING = re.compile(r'"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*"')
_CHAR = re.compile(r"'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*'")


class Token(NamedTuple):
    kind: TokenKind
    text: str
    byte_start: int
    byte_end: int  # exclusive
    line: int  # 1-based
    col: int  # 1-based

    def intersects(self, lo: int, hi: int) -> bool:
        return self.byte_start < hi and self.byte_end > lo


# Builds a Token from a field tuple, skipping the Python-level `Token.__new__`
# frame (about 0.3 µs of a token's ~2 µs).
_token = tuple.__new__


@dataclass(frozen=True)
class TokenStream:
    source: str
    tokens: tuple[Token, ...]

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    def texts(self) -> list[str]:
        return [t.text for t in self.tokens]

    def reconstruct(self) -> str:
        """Token texts re-joined with the original inter-token gaps."""
        out: list[str] = []
        pos = 0
        for tok in self.tokens:
            out.append(self.source[pos:tok.byte_start])
            out.append(tok.text)
            pos = tok.byte_end
        out.append(self.source[pos:])
        return "".join(out)


def lex(source: str) -> TokenStream:
    """Lex `source` into a TokenStream.

    Whitespace is never a token; lines are delimited by '\\n' only and '\\r'
    counts as ordinary whitespace. A line whose first non-blank text is
    `#pragma` becomes a single Pragma token. Raises LexError for unterminated
    strings, char literals and block comments.
    """
    tokens: list[Token] = []
    append = tokens.append
    gap, ident_rest, number_rest, multi_op = _GAP.match, _IDENT_REST.match, _NUMBER_REST.match, _MULTI_OP.match
    K = TokenKind
    keyword, identifier, number, operator, punct = K.KEYWORD, K.IDENTIFIER, K.NUMBER, K.OPERATOR, K.PUNCT
    n = len(source)
    pos = 0
    line = 1
    line_start = 0
    # True until a non-whitespace char is seen on the current line.
    at_line_head = True

    while True:
        i = gap(source, pos).end()
        if i != pos:
            nl = source.rfind("\n", pos, i)
            if nl != -1:
                line += source.count("\n", pos, i)
                line_start = nl + 1
                at_line_head = True
        if i == n:
            break
        c = source[i]
        col = i - line_start + 1

        if c == "#" and at_line_head and source.startswith("#pragma", i):
            end = _trimmed_line_end(source, i)
            append(_token(Token, (K.PRAGMA, source[i:end], i, end, line, col)))
            pos = end
            at_line_head = False
            continue
        at_line_head = False

        if c.isalpha() or c == "_":
            end = ident_rest(source, i + 1).end()
            text = source[i:end]
            append(_token(Token, (keyword if text in KEYWORDS else identifier, text, i, end, line, col)))
        elif c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            # C preprocessing-number rule: covers decimal/hex/float forms and
            # literal suffixes as a single token.
            end = number_rest(source, i + 1).end()
            append(_token(Token, (number, source[i:end], i, end, line, col)))
        elif c == "/" and source.startswith("//", i):
            end = _trimmed_line_end(source, i)
            append(_token(Token, (K.COMMENT, source[i:end], i, end, line, col)))
        elif c == "/" and source.startswith("/*", i):
            close = source.find("*/", i + 2)
            if close == -1:
                raise LexError("unterminated block comment", line, col)
            end = close + 2
            append(_token(Token, (K.COMMENT, source[i:end], i, end, line, col)))
            nl = source.rfind("\n", i, end)
            if nl != -1:
                line += source.count("\n", i, end)
                line_start = nl + 1
        elif c == '"' or c == "'":
            m = (_STRING if c == '"' else _CHAR).match(source, i)
            if m is None:
                what = "string literal" if c == '"' else "char literal"
                raise LexError(f"unterminated {what}", line, col)
            end = m.end()
            kind = K.STRING_LIT if c == '"' else K.CHAR_LIT
            append(_token(Token, (kind, source[i:end], i, end, line, col)))
        else:
            m = multi_op(source, i)
            if m is not None:
                end = m.end()
                append(_token(Token, (operator, m.group(), i, end, line, col)))
            else:
                end = i + 1
                append(_token(Token, (operator if c in _OP_CHARS else punct, c, i, end, line, col)))
        pos = end

    return TokenStream(source=source, tokens=tuple(tokens))


def _trimmed_line_end(source: str, start: int) -> int:
    """End of the line holding `start`, before any trailing blanks."""
    end = source.find("\n", start)
    if end == -1:
        end = len(source)
    while end > start and source[end - 1] in _WS:
        end -= 1
    return end


def tokens_in_byte_range(stream: TokenStream, byte_range: tuple[int, int]) -> tuple[int, int]:
    """Half-open index interval of tokens intersecting `byte_range`.

    Returns (start, stop) with start == stop when no token intersects.
    """
    lo, hi = byte_range
    if lo > hi:
        raise ValueError(f"inverted byte range ({lo}, {hi})")
    if lo < 0 or hi > len(stream.source):
        raise ValueError(f"byte range ({lo}, {hi}) outside source of length {len(stream.source)}")
    first = None
    last = None
    for idx, tok in enumerate(stream.tokens):
        if tok.byte_start >= hi:
            break
        if tok.intersects(lo, hi):
            if first is None:
                first = idx
            last = idx
    if first is None:
        return (0, 0)
    return (first, last + 1)


def lines_of_tokens(stream: TokenStream, token_indices) -> set[int]:
    """Distinct line numbers of the given token indices."""
    lines: set[int] = set()
    for idx in token_indices:
        if idx < 0 or idx >= stream.n_tokens:
            raise ValueError(f"token index {idx} out of range (n_tokens={stream.n_tokens})")
        lines.add(stream.tokens[idx].line)
    return lines
