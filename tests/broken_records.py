"""JSON records that break one BugRecord invariant each.

Each entry maps an id to (edit, fragment): `edit` turns the JSON object of a
valid injected record into one that breaks the invariant, and `fragment` is
part of the message the reader gives for it.
"""


def _flip_first_label(r):
    return {**r, "token_labels": [1 - r["token_labels"][0], *r["token_labels"][1:]]}


def _no_flagged_token(r):
    # consistent but for the span, which holds one blank between two tokens
    return {**r, "correct_code": "int a;\n", "buggy_code": "int  a;\n", "snippet_correct": "",
            "snippet_buggy": " ", "buggy_byte_span": [3, 4], "token_labels": [0, 0, 0], "line_labels": []}


def _no_tokens(r):
    return {**r, "correct_code": "", "buggy_code": " \n", "snippet_correct": "", "snippet_buggy": " \n",
            "buggy_byte_span": [0, 2], "token_labels": [], "line_labels": []}


def _correct_does_not_lex(r):
    # consistent, but the buggy snippet closes a string the correct code leaves open
    return {**r, "correct_code": 'char *s = "abc;\n', "buggy_code": 'char *s = "abc";\n', "snippet_correct": "",
            "snippet_buggy": '"', "buggy_byte_span": [14, 15], "token_labels": [0, 0, 0, 0, 1, 0],
            "line_labels": [1]}


def _tiny(r, **fields):
    # consistent: `a` -> `b` at byte 0, one flagged token on line 1
    return {**r, "correct_code": "a = 1;\n", "buggy_code": "b = 1;\n", "snippet_correct": "a",
            "snippet_buggy": "b", "buggy_byte_span": [0, 1], "token_labels": [1, 0, 0, 0], "line_labels": [1],
            **fields}


BROKEN = {
    "line-labels": (lambda r: {**r, "line_labels": [999]}, "line_labels"),
    "byte-span": (lambda r: {**r, "buggy_byte_span": [-5, 100000]}, "buggy_byte_span"),
    "snippet-correct": (lambda r: {**r, "snippet_correct": r["snippet_correct"] + " "}, "correct_code"),
    "snippet-buggy": (lambda r: {**r, "snippet_buggy": r["snippet_buggy"] + " "}, "snippet_buggy"),
    "same-snippets": (lambda r: {**r, "snippet_correct": r["snippet_buggy"]}, "equals"),
    "token-labels": (_flip_first_label, "token_labels do not flag"),
    "token-count": (lambda r: {**r, "token_labels": r["token_labels"] + [0]}, "token_labels for"),
    "no-flagged-token": (_no_flagged_token, "covers no token"),
    "no-tokens": (_no_tokens, "covers no token"),
    "does-not-lex": (lambda r: {**r, "buggy_code": r["buggy_code"] + "/*"}, "does not lex"),
    "correct-does-not-lex": (_correct_does_not_lex, "correct_code does not lex: line 1, col 11"),
    # JSON true, false, 0.0 and 1.0 compare equal to Python's 1 and 0, but are not ints
    "bool-label": (lambda r: {**r, "token_labels": [bool(v) for v in r["token_labels"]]}, "token_labels must be"),
    "float-label": (lambda r: {**r, "token_labels": [float(v) for v in r["token_labels"]]}, "token_labels must be"),
    "bool-span": (lambda r: _tiny(r, buggy_byte_span=[False, True]), "buggy_byte_span must be"),
    "bool-line": (lambda r: _tiny(r, line_labels=[True]), "line_labels must be"),
}
