from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lexer_oracle import oracle_lex, reconstruct

from hlsdbg.errors import LexError
from hlsdbg.lexer import TokenKind, lex, lines_of_tokens, relex, tokens_in_byte_range
from hlsdbg.mutate import find_sites
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


@pytest.mark.parametrize("literal", ['"a\\\nb"', "'\\\n'"], ids=["string", "char"])
def test_backslash_newline_in_literal_advances_line(literal):
    toks = lex(f"char *s = {literal};\nint x;").tokens
    assert toks[4].text == literal and toks[4].line == 1
    after = toks[6]
    assert (after.text, after.line, after.col) == ("int", 3, 1)


def test_offsets_and_lines_on_kernel():
    stream = lex(KERNEL)
    for tok in stream.tokens:
        assert stream.source[tok.byte_start:tok.byte_end] == tok.text
        assert tok.byte_start < tok.byte_end
    starts = [t.byte_start for t in stream.tokens]
    assert starts == sorted(starts)
    for a, b in zip(stream.tokens, stream.tokens[1:]):
        assert a.byte_end <= b.byte_start
    assert reconstruct(stream) == KERNEL


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
    assert reconstruct(stream) == src
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


def _outcome(lex_fn, *args):
    """The source and its token tuples, or the LexError's (message, line, col)."""
    try:
        stream = lex_fn(*args)
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.col)
    return stream.source, [(t.kind, t.text, t.byte_start, t.byte_end, t.line, t.col) for t in stream.tokens]


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


# relex: the splice's window only, with lex's results -------------------------


# pieces that end, open or merge a token across a splice's edges
_SPLICE_PIECES = [".", "..", "/*", "*/", '"', "'", "\\\n", "\n#pragma HLS unroll\n", "#pragma", "\r", "²", "½"]
splice_text = st.one_of(
    st.sampled_from(_SPLICE_PIECES),
    st.lists(st.one_of(st.sampled_from(_SPLICE_PIECES), st.sampled_from(_C_PIECES), st.characters()),
             max_size=4).map("".join),
)


# the toy kernels and some synth ones, as they are and damaged
_KERNELS = [p.read_text() for p in sorted(TOY_CORPUS.glob("*.c"))] + [code for _, code in make_corpus(40, seed=17)]


@st.composite
def damaged_kernel(draw):
    code = draw(st.sampled_from(_KERNELS))
    for piece in draw(st.lists(st.sampled_from(_SPLICE_PIECES + _C_PIECES), max_size=3)):
        at = draw(st.integers(0, len(code)))
        code = code[:at] + piece + code[at:]
    return code


def _lexes(src: str) -> bool:
    try:
        lex(src)
    except LexError:
        return False
    return True


lexed_base = st.one_of(c_ish_text, damaged_kernel()).filter(_lexes).map(lex)


@st.composite
def splice(draw):
    """A lexed source and a byte range of it: arbitrary, or token-aligned like the injector's."""
    stream = draw(lexed_base)
    toks, n = stream.tokens, len(stream.source)
    if toks and draw(st.booleans()):
        lo = draw(st.integers(0, len(toks) - 1))
        hi = draw(st.integers(lo, min(lo + 4, len(toks))))
        a = toks[lo].byte_start
        b = toks[hi - 1].byte_end if hi > lo else a
    else:
        a = draw(st.integers(0, n))
        b = draw(st.integers(a, min(a + 12, n)))
    return stream, a, b


def _assert_relex_is_lex(stream, a, b, text):
    spliced = stream.source[:a] + text + stream.source[b:]
    assert _outcome(relex, stream, a, b, text) == _outcome(lex, spliced)


@given(splice(), splice_text)
@settings(max_examples=1500, deadline=None)
def test_relex_equals_lex_of_the_spliced_source(case, text):
    _assert_relex_is_lex(*case, text)


# single characters and `#pragma`: short sources and splices in which tokens
# merge and split across the splice's edges often
_DENSE = [".", "a", "1", "e", "+", ";", " ", "\n", "\r", "#pragma", "/", "*", '"', "'", "\\", "²", "½"]


@given(st.lists(st.sampled_from(_DENSE), max_size=10).map("".join).filter(_lexes).map(lex),
       st.data(), st.lists(st.sampled_from(_DENSE), max_size=3).map("".join))
@settings(max_examples=1500, deadline=None)
def test_relex_equals_lex_on_dense_splices(stream, data, text):
    a = data.draw(st.integers(0, len(stream.source)))
    b = data.draw(st.integers(a, len(stream.source)))
    _assert_relex_is_lex(stream, a, b, text)


@pytest.mark.parametrize("src, a, b, text", [
    ("x = a..b;", 7, 7, "."),  # `..` then `.` is one `...`, which starts two tokens back
    ("a.\n#pragma HLS x\n", 1, 2, ""),  # the pragma line's head is unchanged
    ("a\n#pragma HLS x\n", 1, 2, " "),  # the newline goes: `#` is no longer at a line head
    ("a #pragma b\n", 1, 2, "\n"),  # a newline puts `#pragma` at a line head
    ("a; /* c */ b;", 3, 4, "\n"),  # the comment keeps its bytes but moves down a line
    ("int s; char *t;", 6, 6, ' "'),  # the same LexError for an unterminated string
    ('s = "a\\\nb"; x;', 5, 6, ""),  # a backslash-newline in a literal
    ("i = 1;\r\nj = 2;", 6, 7, "\n"),  # `\r` is whitespace
    ("x = 2;", 4, 5, "²"),  # "²" is a digit to `str.isdigit` only
    ("x = 1½;", 4, 6, "½"),
    ("a b", 0, 3, ""),  # everything goes
    ("", 0, 0, "int x;"),
])
def test_relex_on_edge_cases(src, a, b, text):
    _assert_relex_is_lex(lex(src), a, b, text)


def test_relex_rejects_a_range_outside_the_source():
    for a, b in ((-1, 0), (2, 1), (0, 4)):
        with pytest.raises(ValueError):
            relex(lex("a b"), a, b, "")


def test_relex_equals_lex_on_every_injector_rewrite():
    for src in _KERNELS:
        stream = lex(src)
        for sites in find_sites(stream).values():
            for site in sites:
                for (lo, hi), text in site.rewrites:
                    _assert_relex_is_lex(stream, stream.tokens[lo].byte_start, stream.tokens[hi - 1].byte_end, text)
