import functools
import json
import shlex
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlsdbg
from broken_records import BROKEN
from hlsdbg.cli import main
from hlsdbg.corpus import (
    Origin,
    SampleRecord,
    dedup,
    ingest,
    read_jsonl,
    read_samples_jsonl,
    record_from_dict,
    record_to_dict,
    rouge_l,
    split,
    write_jsonl,
    write_samples_jsonl,
)
from hlsdbg.errors import DataError, JsonlError
from hlsdbg.mutate import generate_corpus
from hlsdbg.synth import make_corpus


# --- ingest --------------------------------------------------------------------


class TestIngest:
    def test_extension_allowlist(self, tmp_path):
        (tmp_path / "a.c").write_text("int x = 1;\n")
        (tmp_path / "b.cpp").write_text("int y = 2;\n")
        (tmp_path / "notes.md").write_text("# readme\n")
        (tmp_path / "data.json").write_text("{}\n")
        samples, report = ingest(tmp_path)
        assert [s.id for s in samples] == ["a.c", "b.cpp"]
        assert len(samples) == 2 and report.n_files == 4
        assert report.excluded == {".md": 1, ".json": 1}

    def test_nested_files_sorted_by_path(self, tmp_path):
        (tmp_path / "z").mkdir()
        (tmp_path / "z" / "k.c").write_text("int a = 1;\n")
        (tmp_path / "b.c").write_text("int b = 2;\n")
        samples, _ = ingest(tmp_path)
        assert [s.id for s in samples] == ["b.c", "z/k.c"]

    def test_origin_carried_through(self, tmp_path):
        (tmp_path / "a.c").write_text("int x = 1;\n")
        samples, _ = ingest(tmp_path, origin=Origin.SYNTHETIC)
        assert samples[0].origin is Origin.SYNTHETIC

    def test_empty_harvest_raises(self, tmp_path):
        (tmp_path / "notes.md").write_text("nothing\n")
        with pytest.raises(DataError):
            ingest(tmp_path)

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(DataError):
            ingest(tmp_path / "nope")

    def test_unreadable_file_warns(self, tmp_path):
        (tmp_path / "bad.c").write_bytes(b"\xff\xfe\x00 not utf8")
        (tmp_path / "ok.c").write_text("int x = 1;\n")
        samples, report = ingest(tmp_path)
        assert [s.id for s in samples] == ["ok.c"]
        assert any("bad.c" in w for w in report.warnings)

    def test_marker_split(self, tmp_path):
        body = (
            "garbage preamble\n"
            "BEGIN_KERNEL\n"
            "int a = 1;\n"
            "END_KERNEL\n"
            "more garbage\n"
            "BEGIN_KERNEL\n"
            "int b = 2;\n"
            "END_KERNEL\n"
        )
        (tmp_path / "multi.c").write_text(body)
        samples, _ = ingest(tmp_path, split_markers=("BEGIN_KERNEL", "END_KERNEL"))
        assert [s.id for s in samples] == ["multi.c#0", "multi.c#1"]
        assert samples[0].code == "int a = 1;\n"
        assert samples[1].code == "int b = 2;\n"

    @pytest.mark.parametrize("raw, markers, code", [
        (b"int a;\r\nint b = 1;\r\n", None, "int a;\r\nint b = 1;\r\n"),
        # a lone `\r` is whitespace to the lexer, not a line end
        (b"int a;\rint b = 1;\n", None, "int a;\rint b = 1;\n"),
        # only `\n` ends a marker line, so `\f` does not cut `int x;\f // END_KERNEL` in two
        (b"BEGIN_KERNEL\nint y;\nint x;\x0c // END_KERNEL\n", ("BEGIN_KERNEL", "END_KERNEL"), "int y;\n"),
    ], ids=["crlf", "lone-cr", "form-feed-in-marker-line"])
    def test_text_is_read_untranslated_and_split_at_line_feeds(self, tmp_path, raw, markers, code):
        (tmp_path / "k.c").write_bytes(raw)
        samples, _ = ingest(tmp_path, split_markers=markers)
        assert [s.code for s in samples] == [code]

    def test_marker_absent_keeps_whole_file(self, tmp_path):
        (tmp_path / "plain.c").write_text("int a = 1;\n")
        samples, _ = ingest(tmp_path, split_markers=("BEGIN_KERNEL", "END_KERNEL"))
        assert samples[0].code == "int a = 1;\n"
        assert samples[0].id == "plain.c"


# --- rouge ---------------------------------------------------------------------

TOY_CORPUS = Path(__file__).resolve().parents[1] / "data" / "toy_corpus"


def _dp_rouge_l(candidate: str, reference: str) -> float:
    """Rouge-L F-measure from the O(n*m) LCS table, the reference for `rouge_l`."""
    a, b = candidate.split(), reference.split()
    if not a or not b:
        return 0.0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    lcs = prev[-1]
    p, r = lcs / len(a), lcs / len(b)
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


class TestRougeL:
    def test_identical(self):
        assert rouge_l("int a = 1;", "int a = 1;") == 1.0

    def test_disjoint(self):
        assert rouge_l("a b c", "x y z") == 0.0

    def test_prefix_example(self):
        assert abs(rouge_l("a b c", "a b") - 0.8) < 1e-12

    def test_empty_sides(self):
        assert rouge_l("", "a b") == 0.0
        assert rouge_l("a b", "") == 0.0
        assert rouge_l("", "") == 0.0

    def test_order_sensitivity(self):
        # LCS respects order: reversed token sequence shares only one token run
        assert rouge_l("a b c d", "d c b a") == pytest.approx(0.25)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from("abcxyz"), max_size=6),
        st.lists(st.sampled_from("abcxyz"), max_size=6),
    )
    def test_matches_reference_lcs(self, xs, ys):
        @functools.lru_cache(maxsize=None)
        def lcs(i, j):
            if i == 0 or j == 0:
                return 0
            if xs[i - 1] == ys[j - 1]:
                return lcs(i - 1, j - 1) + 1
            return max(lcs(i - 1, j), lcs(i, j - 1))

        got = rouge_l(" ".join(xs), " ".join(ys))
        if not xs or not ys:
            assert got == 0.0
            return
        l = lcs(len(xs), len(ys))
        p, r = l / len(xs), l / len(ys)
        want = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert got == pytest.approx(want)

    @settings(max_examples=300, deadline=None)
    @given(
        # a vocabulary of 1-6 words forces heavy repetition; up to 150 words
        # spans several 64-bit limbs of the bit vector
        st.integers(1, 6).flatmap(
            lambda k: st.tuples(*[st.lists(st.sampled_from(["a", "b", "int", "x_1", "=", ";"][:k]), max_size=150)] * 2)
        )
    )
    def test_bit_parallel_equals_dp_oracle(self, pair):
        cand, ref = (" ".join(words) for words in pair)
        assert rouge_l(cand, ref) == _dp_rouge_l(cand, ref)

    def test_bit_parallel_equals_dp_oracle_on_kernels(self):
        texts = [p.read_text() for p in sorted(TOY_CORPUS.glob("*.c"))]
        texts += [code for _, code in make_corpus(12, seed=23)]
        assert max(len(t.split()) for t in texts) > 64
        for a in texts:
            for b in texts[::3]:
                assert rouge_l(a, b) == _dp_rouge_l(a, b)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.sampled_from("abcxyz"), min_size=1, max_size=8),
        st.lists(st.sampled_from("abcxyz"), min_size=1, max_size=8),
    )
    def test_symmetric_and_bounded(self, xs, ys):
        a, b = " ".join(xs), " ".join(ys)
        assert 0.0 <= rouge_l(a, b) <= 1.0
        assert rouge_l(a, b) == pytest.approx(rouge_l(b, a))


# --- dedup ---------------------------------------------------------------------


def _sample(sid, code):
    return SampleRecord(id=sid, code=code, origin=Origin.CRAWLED)


class TestDedup:
    def test_exact_copy_removed(self):
        samples = [_sample("dup", "int a = 1;"), _sample("keep", "float q; q = 2.0f;")]
        kept, report = dedup(samples, benchmark=["int a = 1;"])
        assert [s.id for s in kept] == ["keep"]
        assert len(report.removed) == 1
        hit = report.removed[0]
        assert (hit.sample_id, hit.benchmark_index) == ("dup", 0)
        assert hit.score == 1.0

    def test_boundary_score_is_kept(self):
        # rouge("a b", "a c") == 0.5 exactly; strictly-greater removal keeps it
        kept, report = dedup([_sample("edge", "a b")], benchmark=["a c"])
        assert [s.id for s in kept] == ["edge"]
        assert report.removed == []

    def test_empty_benchmark_keeps_all(self):
        samples = [_sample("a", "int a = 1;")]
        kept, report = dedup(samples, benchmark=[])
        assert kept == samples
        assert report.removed == []

    def test_decisions_match_dp_oracle(self):
        toy = [_sample(p.name, p.read_text()) for p in sorted(TOY_CORPUS.glob("*.c"))]
        synth = [_sample(sid, code) for sid, code in make_corpus(10, seed=31)]
        samples = toy + synth
        bench = [code for _, code in make_corpus(3, seed=32)] + [toy[0].code, toy[5].code]
        kept, report = dedup(samples, bench, threshold=0.5)
        want_removed = []
        for sample in samples:
            scores = [_dp_rouge_l(sample.code, ref) for ref in bench]
            best = max(scores)
            if best > 0.5:
                want_removed.append((sample.id, best, scores.index(best)))
        assert [(h.sample_id, h.score, h.benchmark_index) for h in report.removed] == want_removed
        assert [s.id for s in kept] == [s.id for s in samples if s.id not in {h[0] for h in want_removed}]
        assert 0 < len(kept) < len(samples)

    def test_best_benchmark_index_reported(self):
        kept, report = dedup(
            [_sample("s", "int a = 1; int b = 2;")],
            benchmark=["float z;", "int a = 1; int b = 2;", "char c;"],
        )
        assert kept == []
        assert report.removed[0].benchmark_index == 1


# --- jsonl ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_records():
    report = generate_corpus(make_corpus(3, seed=17), per_sample=4, seed=23)
    return report.records


class TestJsonl:
    def test_round_trip(self, small_records, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl(small_records, path)
        back = read_jsonl(path)
        assert back == small_records

    def test_schema_field_names(self, small_records):
        payload = record_to_dict(small_records[0])
        assert set(payload) >= {
            "id",
            "correct_code",
            "buggy_code",
            "snippet_correct",
            "snippet_buggy",
            "bug_type",
            "buggy_byte_span",
            "token_labels",
            "line_labels",
        }
        assert isinstance(payload["buggy_byte_span"], list)
        assert payload["line_labels"] == sorted(payload["line_labels"])

    def test_truncated_line_names_line_number(self, small_records, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(record_to_dict(small_records[0]))
        path.write_text(good + "\n" + good[: len(good) // 2] + "\n")
        with pytest.raises(JsonlError) as err:
            read_jsonl(path)
        assert err.value.lineno == 2
        assert "line 2" in str(err.value)

    def test_missing_field_rejected(self, small_records, tmp_path):
        payload = record_to_dict(small_records[0])
        del payload["bug_type"]
        path = tmp_path / "missing.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(JsonlError):
            read_jsonl(path)

    def test_unknown_bug_type_rejected(self, small_records):
        payload = record_to_dict(small_records[0])
        payload["bug_type"] = "WAT"
        with pytest.raises(JsonlError):
            record_from_dict(payload, 1)

    def test_non_binary_labels_rejected(self, small_records):
        payload = record_to_dict(small_records[0])
        payload["token_labels"] = [0, 2, 1]
        with pytest.raises(JsonlError):
            record_from_dict(payload, 1)

    @pytest.mark.parametrize("name", BROKEN)
    def test_broken_invariant_names_its_line(self, small_records, tmp_path, name):
        edit, fragment = BROKEN[name]
        lines = [json.dumps(record_to_dict(r)) for r in small_records[:3]]
        lines[1] = json.dumps(edit(json.loads(lines[1])))
        path = tmp_path / "broken.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JsonlError) as err:
            read_jsonl(path)
        assert err.value.lineno == 2
        assert str(err.value).startswith("line 2: ") and fragment in str(err.value)

    def test_unknown_fields_survive_round_trip(self, small_records, tmp_path):
        payload = record_to_dict(small_records[0])
        payload["provenance"] = {"crawler": "v2"}
        rec = record_from_dict(payload, 1)
        assert rec.extra == {"provenance": {"crawler": "v2"}}
        assert record_to_dict(rec)["provenance"] == {"crawler": "v2"}

    def test_optional_fields_round_trip(self, small_records, tmp_path):
        rec = small_records[0]
        rec.function_note = "accumulates a tap window"
        rec.strategy = "relax the loop bound"
        path = tmp_path / "opt.jsonl"
        write_jsonl([rec], path)
        back = read_jsonl(path)[0]
        assert back.function_note == rec.function_note
        assert back.strategy == rec.strategy
        assert back.bug_analysis is None

    def test_samples_round_trip(self, tmp_path):
        samples = [SampleRecord("a.c", "int a = 1;\n", Origin.CRAWLED)]
        path = tmp_path / "samples.jsonl"
        write_samples_jsonl(samples, path)
        assert read_samples_jsonl(path) == samples

    def test_blank_lines_ignored(self, small_records, tmp_path):
        path = tmp_path / "gaps.jsonl"
        body = json.dumps(record_to_dict(small_records[0]))
        path.write_text("\n" + body + "\n\n")
        assert len(read_jsonl(path)) == 1


# --- split ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def split_records():
    report = generate_corpus(make_corpus(10, seed=31), per_sample=4, seed=37)
    return report.records


class TestSplit:
    def test_ratio_roughly_honoured(self, split_records):
        result = split(split_records, ratio=0.8, seed=0)
        n = len(split_records)
        assert n == len(result.train) + len(result.held_out)
        assert 0.6 * n <= len(result.train) <= 0.95 * n

    def test_groups_never_straddle(self, split_records):
        result = split(split_records, ratio=0.8, seed=1)
        train_groups = {r.correct_code for r in result.train}
        held_groups = {r.correct_code for r in result.held_out}
        assert train_groups.isdisjoint(held_groups)

    def test_same_seed_same_split(self, split_records):
        a = split(split_records, ratio=0.8, seed=5)
        b = split(split_records, ratio=0.8, seed=5)
        assert [r.id for r in a.train] == [r.id for r in b.train]

    def test_different_seed_moves_groups(self, split_records):
        ids = lambda res: [r.id for r in res.train]
        assert any(
            ids(split(split_records, 0.8, s)) != ids(split(split_records, 0.8, 0))
            for s in range(1, 6)
        )

    def test_no_record_lost(self, split_records):
        result = split(split_records, ratio=0.7, seed=9)
        before = sorted(r.id for r in split_records)
        after = sorted(r.id for r in result.train + result.held_out)
        assert before == after

    def test_both_sides_non_empty_with_two_groups(self, split_records):
        two_groups = [r for r in split_records if r.correct_code in
                      {split_records[0].correct_code, split_records[-1].correct_code}]
        result = split(two_groups, ratio=0.99, seed=3)
        assert result.train and result.held_out

    def test_bad_ratio_rejected(self, split_records):
        with pytest.raises(ValueError):
            split(split_records, ratio=1.0, seed=0)


# --- manifest --------------------------------------------------------------------


def test_manifest_round_trip_and_stability(tmp_path, monkeypatch):
    # the manifest the CLI writes: its exact keys, the same bytes on a rerun, no timestamp
    monkeypatch.chdir(tmp_path)
    argv = ["inject", "--synth", "3", "--per-sample", "2", "--seed", "7", "--out", "records.jsonl"]
    assert main(argv) == 0
    text = (tmp_path / "records.jsonl.manifest.json").read_text()
    records = read_jsonl(tmp_path / "records.jsonl")
    manifest = json.loads(text)
    assert manifest == {
        "version": hlsdbg.__version__, "command": "hlsdbg " + shlex.join(argv), "seed": 7,
        "counts": {"records": len(records), "samples": 3, "skipped_samples": 0},
        "histogram": dict(Counter(r.bug_type.name for r in records)), "notes": [],
    }
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert main(argv) == 0
    assert (tmp_path / "records.jsonl.manifest.json").read_text() == text  # byte-identical on a rerun
    assert "time" not in text and "date" not in text
