"""Reference lexer: the original character-by-character `hlsdbg.lexer.lex`.

Kept as a test oracle. `tests/test_lexer.py` asserts that the
regex-driven production lexer yields the same tokens, or raises the same
`LexError`, on every input it is given. Its one change since: a string or
char literal continued with a backslash-newline advances the line count, as
a block comment does. `reconstruct` checks that a stream's tokens and gaps
rebuild its source.
"""

from __future__ import annotations

from hlsdbg.errors import LexError
from hlsdbg.lexer import Token, TokenKind, TokenStream

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


def oracle_lex(source: str) -> TokenStream:
    """Lex `source` into a TokenStream.

    Whitespace is never a token; lines are delimited by '\\n' only and '\\r'
    counts as ordinary whitespace. A line whose first non-blank text is
    `#pragma` becomes a single Pragma token. Raises LexError for unterminated
    strings, char literals and block comments.
    """
    tokens: list[Token] = []
    n = len(source)
    i = 0
    line = 1
    line_start = 0
    # True until a non-whitespace char is seen on the current line.
    at_line_head = True

    def col_of(pos: int) -> int:
        return pos - line_start + 1

    def trim_back(end: int, start: int) -> int:
        while end > start and source[end - 1] in _WS:
            end -= 1
        return end

    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            line_start = i
            at_line_head = True
            continue
        if c in _WS:
            i += 1
            continue

        start = i
        start_line, start_col = line, col_of(i)

        if c == "#" and at_line_head and source.startswith("#pragma", i):
            end = source.find("\n", i)
            end = n if end == -1 else end
            end = trim_back(end, start)
            tokens.append(Token(TokenKind.PRAGMA, source[start:end], start, end, start_line, start_col))
            i = end
            at_line_head = False
            continue
        at_line_head = False

        if c == "/" and source.startswith("//", i):
            end = source.find("\n", i)
            end = n if end == -1 else end
            end = trim_back(end, start)
            tokens.append(Token(TokenKind.COMMENT, source[start:end], start, end, start_line, start_col))
            i = end
            continue
        if c == "/" and source.startswith("/*", i):
            close = source.find("*/", i + 2)
            if close == -1:
                raise LexError("unterminated block comment", start_line, start_col)
            end = close + 2
            tokens.append(Token(TokenKind.COMMENT, source[start:end], start, end, start_line, start_col))
            line += source.count("\n", start, end)
            nl = source.rfind("\n", start, end)
            if nl != -1:
                line_start = nl + 1
            i = end
            continue

        if c in "\"'":
            kind = TokenKind.STRING_LIT if c == '"' else TokenKind.CHAR_LIT
            what = "string literal" if c == '"' else "char literal"
            j = i + 1
            while j < n:
                if source[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if source[j] == c:
                    break
                if source[j] == "\n":
                    raise LexError(f"unterminated {what}", start_line, start_col)
                j += 1
            else:
                raise LexError(f"unterminated {what}", start_line, start_col)
            end = j + 1
            tokens.append(Token(kind, source[start:end], start, end, start_line, start_col))
            line += source.count("\n", start, end)
            nl = source.rfind("\n", start, end)
            if nl != -1:
                line_start = nl + 1
            i = end
            continue

        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            # C preprocessing-number rule: covers decimal/hex/float forms and
            # literal suffixes as a single token.
            j = i + 1
            while j < n:
                ch = source[j]
                if ch.isalnum() or ch in "._":
                    j += 1
                elif ch in "+-" and source[j - 1] in "eEpP":
                    j += 1
                else:
                    break
            tokens.append(Token(TokenKind.NUMBER, source[start:j], start, j, start_line, start_col))
            i = j
            continue

        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[start:j]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
            tokens.append(Token(kind, text, start, j, start_line, start_col))
            i = j
            continue

        for op in _MULTI_OPS:
            if source.startswith(op, i):
                end = i + len(op)
                tokens.append(Token(TokenKind.OPERATOR, op, start, end, start_line, start_col))
                i = end
                break
        else:
            kind = TokenKind.OPERATOR if c in _OP_CHARS else TokenKind.PUNCT
            tokens.append(Token(kind, c, start, i + 1, start_line, start_col))
            i += 1

    return TokenStream(source=source, tokens=tuple(tokens))


def reconstruct(stream: TokenStream) -> str:
    """Token texts re-joined with the original inter-token gaps."""
    out: list[str] = []
    pos = 0
    for tok in stream.tokens:
        out.append(stream.source[pos:tok.byte_start])
        out.append(tok.text)
        pos = tok.byte_end
    out.append(stream.source[pos:])
    return "".join(out)
