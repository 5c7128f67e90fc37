from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lexer_oracle import oracle_lex

from hlsdbg.errors import LexError
from hlsdbg.lexer import TokenKind, lex, lines_of_tokens, tokens_in_byte_range
from hlsdbg.synth import make_corpus

TOY_CORPUS = Path(__file__).resolve().parents[1] / "data" / "toy_corpus"

KERNEL = """\
#pragma HLS pipeline II=1
// accumulate with a shift
int scale_sum(int a[8], unsigned int s) {
    int acc = 1;
    for (int i = 0; i < 8; i++) {
        acc += a[i] << 2; /* widen
                             later */
        s >>= 1;
    }
    return acc;
}
"""


def test_int_decl_three_tokens():
    toks = lex("int a;").tokens
    assert [(t.kind, t.text) for t in toks] == [
        (TokenKind.KEYWORD, "int"),
        (TokenKind.IDENTIFIER, "a"),
        (TokenKind.PUNCT, ";"),
    ]


def test_maximal_munch_compound_shift():
    toks = lex("x <<= 34;").tokens
    assert [t.text for t in toks] == ["x", "<<=", "34", ";"]
    assert toks[1].kind is TokenKind.OPERATOR


@pytest.mark.parametrize("op", ["<<", ">=", "<=", "==", "!=", "&&", "||", "+=", "++", "--", "->", "<<=", ">>="])
def test_multichar_operators_are_single_tokens(op):
    toks = lex(f"a {op} b").tokens
    assert [t.text for t in toks] == ["a", op, "b"]


def test_pragma_is_one_token_per_line():
    toks = lex("#pragma HLS unroll factor=2\nint x;\n#pragma HLS array_partition\n").tokens
    pragmas = [t for t in toks if t.kind is TokenKind.PRAGMA]
    assert [t.text for t in pragmas] == ["#pragma HLS unroll factor=2", "#pragma HLS array_partition"]
    assert [t.line for t in pragmas] == [1, 3]


def test_comments_are_tokens():
    toks = lex("// line\nint a; /* block */").tokens
    assert toks[0].kind is TokenKind.COMMENT and toks[0].text == "// line"
    assert toks[-1].kind is TokenKind.COMMENT and toks[-1].text == "/* block */"


def test_number_forms_single_tokens():
    toks = lex("0x1F 42u 3.5f 1e-3 077").tokens
    assert [t.text for t in toks] == ["0x1F", "42u", "3.5f", "1e-3", "077"]
    assert all(t.kind is TokenKind.NUMBER for t in toks)


def test_string_and_char_literals():
    toks = lex('printf("a\\"b"); char c = \'x\';').tokens
    texts = {t.text for t in toks}
    assert '"a\\"b"' in texts and "'x'" in texts


def test_offsets_and_lines_on_kernel():
    stream = lex(KERNEL)
    for tok in stream.tokens:
        assert stream.source[tok.byte_start:tok.byte_end] == tok.text
        assert tok.byte_start < tok.byte_end
    starts = [t.byte_start for t in stream.tokens]
    assert starts == sorted(starts)
    for a, b in zip(stream.tokens, stream.tokens[1:]):
        assert a.byte_end <= b.byte_start
    assert stream.reconstruct() == KERNEL


def test_multiline_block_comment_line_tracking():
    stream = lex(KERNEL)
    ret = [t for t in stream.tokens if t.text == "return"][0]
    assert ret.line == 10
    assert ret.col == 5


@pytest.mark.parametrize(
    "src,what",
    [('"never closed', "string"), ("'a", "char"), ("/* open", "comment")],
)
def test_unterminated_errors_name_position(src, what):
    with pytest.raises(LexError) as exc:
        lex("int a;\n" + src)
    assert exc.value.line == 2
    assert exc.value.col == 1
    assert "line 2" in str(exc.value)


def test_unknown_chars_become_punct():
    toks = lex("a @ b $").tokens
    kinds = [t.kind for t in toks]
    assert kinds == [TokenKind.IDENTIFIER, TokenKind.PUNCT, TokenKind.IDENTIFIER, TokenKind.PUNCT]


def test_carriage_return_is_whitespace():
    stream = lex("int a;\r\nint b;\n")
    b = [t for t in stream.tokens if t.text == "b"][0]
    assert b.line == 2


def test_tokens_in_byte_range_single_token():
    stream = lex("int a = b + c;")
    tok = stream.tokens[5]  # "c"
    assert tok.text == "c"
    assert tokens_in_byte_range(stream, (tok.byte_start, tok.byte_end)) == (5, 6)


def test_tokens_in_byte_range_whitespace_only():
    stream = lex("int a;")
    lo = stream.tokens[0].byte_end  # gap between "int" and "a"
    span = tokens_in_byte_range(stream, (lo, lo + 1))
    assert span[0] == span[1]


def test_tokens_in_byte_range_partial_overlap():
    stream = lex("aa bb cc dd ee ff gg hh")
    lo = stream.tokens[3].byte_start + 1
    hi = stream.tokens[7].byte_start + 1
    assert tokens_in_byte_range(stream, (lo, hi)) == (3, 8)


def test_tokens_in_byte_range_inverted_raises():
    stream = lex("int a;")
    with pytest.raises(ValueError):
        tokens_in_byte_range(stream, (4, 2))
    with pytest.raises(ValueError):
        tokens_in_byte_range(stream, (0, 10_000))


def test_lines_of_tokens():
    stream = lex("a b\nc\n\nd e f\n")
    assert lines_of_tokens(stream, []) == set()
    assert lines_of_tokens(stream, [0, 1]) == {1}
    assert lines_of_tokens(stream, [0, 2, 3]) == {1, 2, 4}
    with pytest.raises(ValueError):
        lines_of_tokens(stream, [99])


# Property tests ------------------------------------------------------------

source_text = st.text(
    alphabet=st.sampled_from(list("abxyz01 \t\n;+-*/<>=!&|(){}[],._#")),
    max_size=200,
)


@given(source_text)
@settings(max_examples=200, deadline=None)
def test_roundtrip_and_monotonicity(src):
    try:
        stream = lex(src)
    except LexError:
        return
    assert stream.reconstruct() == src
    starts = [t.byte_start for t in stream.tokens]
    assert starts == sorted(set(starts))
    assert stream.n_tokens == len(stream.tokens)


@given(source_text)
@settings(max_examples=100, deadline=None)
def test_lex_is_pure(src):
    try:
        a = lex(src)
    except LexError:
        return
    b = lex(src)
    assert a == b


@given(source_text, st.integers(0, 200), st.integers(0, 200))
@settings(max_examples=200, deadline=None)
def test_byte_range_matches_linear_scan(src, a, b):
    try:
        stream = lex(src)
    except LexError:
        return
    lo, hi = sorted((min(a, len(src)), min(b, len(src))))
    hits = [i for i, t in enumerate(stream.tokens) if t.byte_start < hi and t.byte_end > lo]
    got = tokens_in_byte_range(stream, (lo, hi))
    if not hits:
        assert got[0] == got[1]
    else:
        assert hits == list(range(hits[0], hits[-1] + 1)), "intersecting tokens must be contiguous"
        assert got == (hits[0], hits[-1] + 1)


# Equivalence with the character-by-character reference lexer ---------------


def _outcome(lex_fn, src):
    """Token tuples, or the LexError's (message, line, col)."""
    try:
        return [(t.kind, t.text, t.byte_start, t.byte_end, t.line, t.col) for t in lex_fn(src).tokens]
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.col)


# C-ish fragments plus characters on which `str.isdigit`/`isalpha` and the
# regex classes `\d`/`\w` disagree ("²" is a digit but not decimal, "½" is
# numeric but not a digit), a non-ASCII letter, NUL, and every construct
# that switches the lexer into a multi-character mode.
_C_PIECES = [
    "int", "x_1", "acc", "0x1F", "1e", "+", "-", "3.5f", ".5", "p", "E", "42u", "..",
    "<<=", ">>", "->*", "::", "...", "++", "&&", "|", "=", "!", "?", "~", "^", "%",
    ";", ",", "(", ")", "{", "}", "[", "]", "@", "$", "#", "#pragma", "#pragma HLS unroll",
    "/*", "*/", "//", "/", "*", '"', "'", "\\", "\\\n", '"a\\\nb"', "'\\''",
    " ", "  ", "\t", "\r", "\f", "\v", "\n", "\n\n",
    "²", "½", "é", "\x00", "x²", "1½", "_é",
]
c_ish_text = st.lists(
    st.one_of(st.sampled_from(_C_PIECES), st.characters()),
    max_size=60,
).map("".join)


@given(c_ish_text)
@settings(max_examples=500, deadline=None)
def test_lex_matches_reference_lexer(src):
    assert _outcome(lex, src) == _outcome(oracle_lex, src)


def test_lex_matches_reference_lexer_on_kernels():
    sources = [p.read_text() for p in sorted(TOY_CORPUS.glob("*.c"))]
    assert sources, "toy corpus not found"
    sources += [code for _, code in make_corpus(200, seed=17)]
    for src in sources:
        assert _outcome(lex, src) == _outcome(oracle_lex, src)
