import hashlib
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlsdbg.corpus import write_jsonl
from hlsdbg.lexer import lex
from hlsdbg.llmgen import StubCompletionClient, generate_via_llm
from hlsdbg.mutate import (
    BugRecord,
    BugType,
    MutationSite,
    find_sites,
    generate_corpus,
    inject,
    verify_record,
)
from hlsdbg.synth import make_corpus, make_kernel


def _inject_until(stream, site, pred, limit=64):
    """First record over seeds 0..limit-1 satisfying pred (variant selection)."""
    for seed in range(limit):
        rec = inject(stream, site, seed)
        if pred(rec):
            return rec
    pytest.fail("no seed produced the requested variant")


def _flagged_texts(rec: BugRecord) -> list[str]:
    stream = lex(rec.buggy_code)
    return [t.text for t, y in zip(stream.tokens, rec.token_labels) if y == 1]


# --- per-operator behaviour ---------------------------------------------------


class TestOOB:
    SRC = "int a[8];\nint i;\nfor (i = 0; i < 8; i++) a[i] = 0;\n"

    def test_single_site_at_comparison(self):
        stream = lex(self.SRC)
        sites = find_sites(stream)[BugType.OOB]
        assert len(sites) == 1
        lo, hi = sites[0].token_span
        assert [t.text for t in stream.tokens[lo:hi]] == ["i", "<", "8"]

    def test_relaxed_comparison_marks_three_tokens(self):
        stream = lex(self.SRC)
        (site,) = find_sites(stream)[BugType.OOB]
        rec = _inject_until(stream, site, lambda r: "<=" in r.snippet_buggy)
        assert rec.snippet_correct == "i < 8"
        assert rec.snippet_buggy == "i <= 8"
        assert "for (i = 0; i <= 8; i++)" in rec.buggy_code
        assert _flagged_texts(rec) == ["i", "<=", "8"]
        assert rec.line_labels == {3}

    def test_bound_bump_variant(self):
        stream = lex(self.SRC)
        (site,) = find_sites(stream)[BugType.OOB]
        rec = _inject_until(stream, site, lambda r: "9" in r.snippet_buggy)
        assert rec.snippet_buggy == "i < 9"
        assert _flagged_texts(rec) == ["i", "<", "9"]

    def test_no_site_when_bound_differs_from_array_size(self):
        stream = lex("int a[8];\nint i;\nfor (i = 0; i < 7; i++) a[i] = 0;\n")
        assert find_sites(stream)[BugType.OOB] == []

    def test_no_site_when_array_unused_in_body(self):
        stream = lex("int a[8];\nint i, s;\nfor (i = 0; i < 8; i++) s = s + i;\n")
        assert find_sites(stream)[BugType.OOB] == []


class TestINIT:
    def test_initializer_removed(self):
        stream = lex("int x = 0;\nint y;\ny = x + 1;\n")
        sites = find_sites(stream)[BugType.INIT]
        assert len(sites) == 1
        rec = inject(stream, sites[0], 0)
        assert rec.snippet_correct == "x = 0"
        assert rec.snippet_buggy == "x"
        assert "int x;" in rec.buggy_code
        assert _flagged_texts(rec) == ["x"]

    def test_array_initializer_keeps_suffix(self):
        stream = lex("int acc[4] = {0, 1, 2, 3};\nint z;\nz = acc[0];\n")
        (site,) = find_sites(stream)[BugType.INIT]
        rec = inject(stream, site, 1)
        assert rec.snippet_buggy == "acc[4]"
        assert "int acc[4];" in rec.buggy_code

    def test_write_only_variable_is_not_a_site(self):
        stream = lex("int x = 0;\nx = 3;\n")
        assert find_sites(stream)[BugType.INIT] == []


class TestSHFT:
    def test_amount_exceeds_32_bit_width(self):
        stream = lex("int v = 1;\nint w;\nw = v << 3;\n")
        sites = find_sites(stream)[BugType.SHFT]
        assert len(sites) == 1
        rec = inject(stream, sites[0], 7)
        assert rec.snippet_correct == "3"
        new_amount = int(rec.snippet_buggy)
        assert 33 <= new_amount <= 40
        assert _flagged_texts(rec) == [rec.snippet_buggy]

    def test_long_long_uses_64_bit_width(self):
        stream = lex("long long v = 1;\nlong long w;\nw = v << 3;\n")
        (site,) = find_sites(stream)[BugType.SHFT]
        rec = inject(stream, site, 7)
        assert 65 <= int(rec.snippet_buggy) <= 72

    def test_already_out_of_bounds_shift_is_skipped(self):
        stream = lex("int v = 1;\nint w;\nw = v << 40;\n")
        assert find_sites(stream)[BugType.SHFT] == []

    def test_variable_amount_is_skipped(self):
        stream = lex("int v = 1;\nint k = 2;\nint w;\nw = v << k;\n")
        assert find_sites(stream)[BugType.SHFT] == []


class TestINF:
    SRC = "int i, s;\nfor (i = 0; i < 8; i++) s = s + i;\n"

    def test_inverted_condition(self):
        stream = lex(self.SRC)
        (site,) = find_sites(stream)[BugType.INF]
        rec = _inject_until(stream, site, lambda r: r.snippet_buggy == ">")
        assert rec.snippet_correct == "<"
        assert "for (i = 0; i > 8; i++)" in rec.buggy_code
        assert _flagged_texts(rec) == [">"]

    def test_dropped_increment(self):
        stream = lex(self.SRC)
        (site,) = find_sites(stream)[BugType.INF]
        rec = _inject_until(stream, site, lambda r: r.snippet_buggy == ";")
        assert rec.snippet_correct == "; i++"
        assert "for (i = 0; i < 8;)" in rec.buggy_code
        assert _flagged_texts(rec) == [";"]

    def test_while_loop_only_inverts(self):
        stream = lex("int i = 0;\nwhile (i < 4) i = i + 1;\n")
        (site,) = find_sites(stream)[BugType.INF]
        assert [text for _, text in site.rewrites] == [">"]
        rec = inject(stream, site, 0)
        assert rec.snippet_buggy == ">"


class TestUSE:
    def test_unsigned_feeding_shift(self):
        stream = lex("unsigned int u = 1;\nint r;\nr = (int)(u << 2);\n")
        (site,) = find_sites(stream)[BugType.USE]
        rec = inject(stream, site, 0)
        assert rec.snippet_correct == "unsigned int"
        assert rec.snippet_buggy == "int"
        assert "int u = 1;" in rec.buggy_code
        assert "unsigned" not in rec.buggy_code

    def test_unsigned_widened_into_long_long(self):
        stream = lex("unsigned int u = 1;\nlong long w = 0;\nw = u * 2;\n")
        assert len(find_sites(stream)[BugType.USE]) == 1

    def test_unsigned_without_risky_use_is_skipped(self):
        stream = lex("unsigned int u = 1;\nint r;\nr = u + 1;\n")
        assert find_sites(stream)[BugType.USE] == []


class TestMLU:
    SRC = "int d[8];\nint s[8];\nd[0] = s[0] + 1;\nd[1] = s[1] + 1;\n"

    def test_site_on_second_statement(self):
        stream = lex(self.SRC)
        sites = find_sites(stream)[BugType.MLU]
        assert len(sites) == 1
        lo, hi = sites[0].token_span
        assert stream.tokens[lo].text == "d"
        assert stream.tokens[hi - 1].text == ";"
        assert len(sites[0].rewrites) == 2

    def test_copied_offset_not_updated(self):
        stream = lex(self.SRC)
        (site,) = find_sites(stream)[BugType.MLU]
        rec = inject(stream, site, 3)
        assert rec.snippet_correct == "1"
        assert rec.snippet_buggy == "0"
        assert rec.buggy_code.count("d[0]") + rec.buggy_code.count("s[0]") == 3
        assert _flagged_texts(rec) == ["0"]

    def test_renamed_accumulators_do_not_match(self):
        stream = lex("int a0, a1, s[8];\na0 = a0 + s[0];\na1 = a1 + s[1];\n")
        assert find_sites(stream)[BugType.MLU] == []


class TestZERO:
    def test_nonzero_initializer_zeroed(self):
        stream = lex("int acc = 1;\nint r;\nr = acc;\n")
        (site,) = find_sites(stream)[BugType.ZERO]
        rec = inject(stream, site, 0)
        assert rec.snippet_correct == "1"
        assert rec.snippet_buggy == "0"
        assert "int acc = 0;" in rec.buggy_code
        assert _flagged_texts(rec) == ["0"]

    def test_zero_initializer_is_not_a_site(self):
        stream = lex("int acc = 0;\n")
        assert find_sites(stream)[BugType.ZERO] == []


class TestBUF:
    def test_half_offset_dropped(self):
        stream = lex("int d[8];\nint half = 4;\nint k = 1;\nint j;\nj = d[k + half];\n")
        (site,) = find_sites(stream)[BugType.BUF]
        rec = inject(stream, site, 0)
        assert rec.snippet_correct == "k + half"
        assert rec.snippet_buggy == "k"
        assert "d[k]" in rec.buggy_code

    def test_literal_half_offset_dropped(self):
        stream = lex("int d[8];\nint k = 1;\nint j;\nj = d[k + 4];\n")
        sites = [s for s in find_sites(stream)[BugType.BUF] if s.rewrites[0][1] == "k"]
        assert len(sites) == 1

    def test_offset_added_to_plain_index(self):
        stream = lex("int d[8];\nint k = 1;\nint j;\nj = d[k];\n")
        sites = [s for s in find_sites(stream)[BugType.BUF] if s.rewrites[0][1] == "k + 4"]
        assert len(sites) == 1
        rec = inject(stream, sites[0], 0)
        assert rec.snippet_correct == "k"
        assert rec.snippet_buggy == "k + 4"
        assert "d[k + 4]" in rec.buggy_code

    def test_non_half_literal_is_not_dropped(self):
        stream = lex("int d[8];\nint k = 1;\nint j;\nj = d[k + 3];\n")
        assert [s for s in find_sites(stream)[BugType.BUF] if s.rewrites[0][1] == "k"] == []


# --- record invariants ----------------------------------------------------------


class TestVerifyRecord:
    @pytest.fixture()
    def record(self):
        stream = lex("int acc = 1;\nint r;\nr = acc;\n")
        (site,) = find_sites(stream)[BugType.ZERO]
        return inject(stream, site, 0)

    def test_fresh_record_verifies(self, record):
        assert verify_record(record)

    def test_flipped_token_label_fails(self, record):
        record.token_labels[0] ^= 1
        assert not verify_record(record)

    def test_shifted_byte_span_fails(self, record):
        s, e = record.buggy_byte_span
        record.buggy_byte_span = (s + 1, e + 1)
        assert not verify_record(record)

    def test_snippet_mismatch_fails(self, record):
        record.snippet_buggy = "7"
        assert not verify_record(record)

    def test_splice_mismatch_fails(self, record):
        record.snippet_correct = "2"
        assert not verify_record(record)

    def test_wrong_line_labels_fail(self, record):
        record.line_labels = record.line_labels | {99}
        assert not verify_record(record)

    def test_truncated_labels_fail(self, record):
        record.token_labels = record.token_labels[:-1]
        assert not verify_record(record)

    def test_identical_snippets_fail(self, record):
        record.snippet_correct = record.snippet_buggy
        assert not verify_record(record)

    def test_no_flagged_token_fails(self):
        # consistent but for the span, which holds only the blank the rewrite added
        record = BugRecord("blank", "int a;\n", "int  a;\n", "", " ", BugType.ZERO, (3, 4), [0, 0, 0], set())
        assert not verify_record(record)


def test_inject_rejects_foreign_site():
    stream = lex("int acc = 1;\n")
    other = lex("int a_very_much_longer_source = 1;\nint b = 2;\nint c = 3;\n")
    site = find_sites(other)[BugType.ZERO][0]
    big_site = MutationSite(site.bug_type, (20, 21), site.rewrites)
    with pytest.raises(ValueError):
        inject(stream, big_site, 0)


@pytest.mark.parametrize("span, rewrites", [((3, 3), (((3, 4), "0"),)), ((3, 4), ())],
                         ids=["empty-span", "no-rewrite"])
def test_site_needs_a_span_and_a_rewrite(span, rewrites):
    with pytest.raises(ValueError):
        MutationSite(BugType.ZERO, span, rewrites)


def test_sites_are_sorted_by_position():
    kernel = make_kernel(random.Random(5))
    stream = lex(kernel)
    for t in BugType:
        spans = [s.token_span for s in find_sites(stream)[t]]
        assert spans == sorted(spans)


# --- corpus generation ----------------------------------------------------------


class TestGenerateCorpus:
    def test_deterministic(self):
        samples = make_corpus(6, seed=11)
        a = generate_corpus(samples, per_sample=4, seed=99)
        b = generate_corpus(samples, per_sample=4, seed=99)
        assert a.records == b.records
        assert a.histogram == b.histogram
        assert a.skipped == b.skipped

    def test_seed_changes_output(self):
        samples = make_corpus(6, seed=11)
        a = generate_corpus(samples, per_sample=4, seed=1)
        b = generate_corpus(samples, per_sample=4, seed=2)
        assert a.records != b.records

    def test_per_sample_bound_and_ids(self):
        samples = make_corpus(5, seed=3)
        report = generate_corpus(samples, per_sample=3, seed=0)
        by_sample = Counter(r.id.rsplit("/", 2)[0] for r in report.records)
        assert all(v <= 3 for v in by_sample.values())
        for rec in report.records:
            sample_id, type_part, k = rec.id.rsplit("/", 2)
            assert type_part == rec.bug_type.value.lower()
            assert k.isdigit()

    def test_first_round_covers_every_available_type(self):
        samples = make_corpus(1, seed=21)
        report = generate_corpus(samples, per_sample=8, seed=5)
        assert len(report.records) == 8
        assert {r.bug_type for r in report.records} == set(BugType)

    def test_histogram_matches_records(self):
        samples = make_corpus(4, seed=7)
        report = generate_corpus(samples, per_sample=6, seed=13)
        assert report.histogram == Counter(r.bug_type for r in report.records)

    def test_sample_without_sites_is_skipped(self):
        samples = [("empty", "int main() { return 0; }\n")]
        report = generate_corpus(samples, per_sample=2, seed=0)
        assert report.records == []
        assert report.skipped == ["empty"]

    def test_rejects_nonpositive_per_sample(self):
        with pytest.raises(ValueError):
            generate_corpus([("a", "int x = 1;")], per_sample=0, seed=0)


TOY_CORPUS = Path(__file__).resolve().parent.parent / "data" / "toy_corpus"


def _toy_kernels():
    return [(p.stem, p.read_text()) for p in sorted(TOY_CORPUS.glob("*.c"))]


# SHA-256 of the JSONL each seeded build writes, and its record count: a
# change to any operator, draw or serialization shows up as a new digest
PINNED_CORPORA = {
    "toy-x3-seed103": (
        lambda: generate_corpus(_toy_kernels(), per_sample=3, seed=103).records,
        "3feba86ce46a2c9b64ff4a256bfa18169e683348d83e20b296fdd978d96046a4", 33,
    ),
    "synth300-x4-seed9": (
        lambda: generate_corpus(make_corpus(300, seed=7), per_sample=4, seed=9).records,
        "7ec0fd343827b8dcae1a3e8daddf0f9c25aaa268797851d1c446c4929b72d640", 1200,
    ),
    "llm-stub-toy-seed4": (
        lambda: generate_via_llm(_toy_kernels(), StubCompletionClient(seed=4)).records,
        "38ec97af6cf5406e5f804a05a296b3ec731aaffff61676c45c61d388739d5a91", 11,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CORPORA))
def test_seeded_corpus_bytes_are_pinned(tmp_path, name):
    build, digest, n_records = PINNED_CORPORA[name]
    records = build()
    write_jsonl(records, tmp_path / "out.jsonl")
    assert len(records) == n_records
    assert hashlib.sha256((tmp_path / "out.jsonl").read_bytes()).hexdigest() == digest


# --- synthetic kernels + whole-matrix properties ---------------------------------


def test_every_synth_kernel_has_all_eight_site_kinds():
    for sid, code in make_corpus(12, seed=2):
        stream = lex(code)
        for t in BugType:
            assert find_sites(stream)[t], f"{sid} lacks {t.value} sites"


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_injection_round_trip_property(seed):
    kernel = make_kernel(random.Random(seed))
    stream = lex(kernel)
    for t in BugType:
        for site in find_sites(stream)[t][:2]:
            rec = inject(stream, site, seed)
            assert verify_record(rec)
            assert rec.bug_type is t
            assert rec.buggy_code != rec.correct_code
            s, e = rec.buggy_byte_span
            assert rec.buggy_code[:s] + rec.snippet_correct + rec.buggy_code[e:] == kernel
            assert sum(rec.token_labels) >= 1


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_inject_is_deterministic_in_seed(seed):
    kernel = make_kernel(random.Random(seed % 1000))
    stream = lex(kernel)
    (site,) = find_sites(stream)[BugType.OOB]
    assert inject(stream, site, seed) == inject(stream, site, seed)


# --- every finder on malformed code ------------------------------------------------

_DAMAGE = ("(", ")", "[", "]", "{", "}", ";", "] [")


def _damaged(code: str, rng: random.Random) -> str:
    """`code` with one to three tokens deleted or stray brackets and `;` inserted."""
    for _ in range(rng.randint(1, 3)):
        toks = lex(code).tokens
        tok = toks[rng.randrange(len(toks))]
        if rng.random() < 0.4:
            code = code[:tok.byte_start] + code[tok.byte_end:]
        else:
            code = code[:tok.byte_start] + f" {rng.choice(_DAMAGE)} " + code[tok.byte_start:]
    return code


def _damaged_sources() -> list[str]:
    rng = random.Random(2024)
    kernels = [code for _, code in _toy_kernels() + make_corpus(40, seed=31)]
    return [_damaged(code, rng) for code in kernels for _ in range(4)]


def test_sites_on_damaged_kernels_are_pinned():
    # every type's spans and rewrites over 204 damaged kernels; a change to
    # how any finder reads unbalanced brackets or stray tokens shows up here
    h = hashlib.sha256()
    for code in _damaged_sources():
        stream = lex(code)
        for t in BugType:
            for site in find_sites(stream)[t]:
                h.update(repr((t.value, site.token_span, site.rewrites)).encode())
            h.update(b"|")
    assert h.hexdigest() == "e95eb78215a3b89b437f17aa2d8e642c7586a3729c53d8568bf22ed69b76c363"
