import pytest

from hlsdbg.errors import DataError
from hlsdbg.llmgen import (
    HttpCompletionClient,
    StubCompletionClient,
    build_record,
    generate_via_llm,
    parse_insert_block,
)
from hlsdbg.mutate import BugType, verify_record
from hlsdbg.synth import make_corpus


class ScriptedClient:
    """Replays a fixed list of completions; records the prompts it saw."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        return self.responses.pop(0)


SRC = "int acc = 1;\nint r;\nr = acc;\n"


class TestParseInsertBlock:
    def test_valid_block(self):
        text = "TYPE: ZERO\nCORRECT: 1\nBUGGY: 0\n"
        assert parse_insert_block(text) == (BugType.ZERO, "1", "0")

    def test_block_embedded_in_prose(self):
        text = "Sure, here you go:\nTYPE: OOB\nCORRECT: i < 8\nBUGGY: i <= 8\nDone!\n"
        assert parse_insert_block(text) == (BugType.OOB, "i < 8", "i <= 8")

    def test_lowercase_type_accepted(self):
        assert parse_insert_block("TYPE: zero\nCORRECT: 1\nBUGGY: 0\n")[0] is BugType.ZERO

    def test_unknown_type_rejected(self):
        assert parse_insert_block("TYPE: NOPE\nCORRECT: 1\nBUGGY: 0\n") is None

    def test_missing_line_rejected(self):
        assert parse_insert_block("TYPE: ZERO\nCORRECT: 1\n") is None

    def test_identity_rewrite_rejected(self):
        assert parse_insert_block("TYPE: ZERO\nCORRECT: 1\nBUGGY: 1\n") is None

    def test_empty_correct_rejected(self):
        assert parse_insert_block("TYPE: ZERO\nCORRECT: \nBUGGY: 0\n") is None


class TestBuildRecord:
    def test_first_occurrence_splice(self):
        rec = build_record("s", SRC, BugType.ZERO, "1", "0")
        assert rec is not None
        assert verify_record(rec)
        assert rec.buggy_code == "int acc = 0;\nint r;\nr = acc;\n"
        assert sum(rec.token_labels) == 1

    def test_snippet_not_present(self):
        assert build_record("s", SRC, BugType.ZERO, "99", "0") is None

    def test_rewrite_that_breaks_lexing(self):
        assert build_record("s", SRC, BugType.ZERO, "1", '"unterminated') is None

    def test_whitespace_only_rewrite(self):
        assert build_record("s", "int acc = 1 ;\n", BugType.ZERO, "1 ", " ") is None


class TestGenerateViaLlm:
    def test_scripted_happy_path(self):
        client = ScriptedClient(
            [
                "FUNCTION: accumulates one tap.",
                "TYPE: ZERO\nCORRECT: 1\nBUGGY: 0\n",
                "ANALYSIS: accumulator starts cold.\nSTRATEGY: restore the seed value.",
            ]
        )
        report = generate_via_llm([("s", SRC)], client)
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec.id == "s/llm"
        assert rec.function_note == "accumulates one tap."
        assert rec.bug_analysis == "accumulator starts cold."
        assert rec.strategy == "restore the seed value."
        assert rec.bug_type is BugType.ZERO
        assert report.n_calls == 3
        assert report.skipped == []

    def test_unparseable_twice_skips_sample(self):
        client = ScriptedClient(["FUNCTION: x.", "garbage", "still garbage"])
        report = generate_via_llm([("s", SRC)], client)
        assert report.records == []
        assert report.skipped == [("s", "unparseable bug-insertion response")]
        assert report.n_calls == 3

    def test_retry_prompt_carries_nudge(self):
        client = ScriptedClient(
            ["FUNCTION: x.", "nope", "TYPE: ZERO\nCORRECT: 1\nBUGGY: 0\n", "STRATEGY: s."]
        )
        report = generate_via_llm([("s", SRC)], client)
        assert len(report.records) == 1
        assert "exactly the three" in client.prompts[2]

    def test_bad_splice_skips_sample(self):
        client = ScriptedClient(["FUNCTION: x.", "TYPE: ZERO\nCORRECT: 777\nBUGGY: 0\n"])
        report = generate_via_llm([("s", SRC)], client)
        assert report.records == []
        assert report.skipped[0][1] == "snippet pair does not splice into the sample"

    def test_stub_end_to_end(self):
        samples = make_corpus(4, seed=9)
        report = generate_via_llm(samples, StubCompletionClient(seed=1))
        assert len(report.records) == 4
        for rec in report.records:
            assert verify_record(rec)
            assert rec.function_note
            assert rec.strategy
        assert report.n_calls == 12

    def test_stub_is_deterministic(self):
        samples = make_corpus(3, seed=2)
        a = generate_via_llm(samples, StubCompletionClient(seed=5))
        b = generate_via_llm(samples, StubCompletionClient(seed=5))
        assert a.records == b.records

    def test_stub_seed_changes_choices(self):
        samples = make_corpus(6, seed=2)
        a = generate_via_llm(samples, StubCompletionClient(seed=1))
        b = generate_via_llm(samples, StubCompletionClient(seed=2))
        assert a.records != b.records

    def test_threads_do_not_change_output(self):
        samples = make_corpus(5, seed=3)
        a = generate_via_llm(samples, StubCompletionClient(seed=0), threads=1)
        b = generate_via_llm(samples, StubCompletionClient(seed=0), threads=4)
        assert a.records == b.records

    def test_sample_without_sites_is_skipped(self):
        client = StubCompletionClient(seed=0)
        report = generate_via_llm([("empty", "int main() { return 0; }\n")], client)
        assert report.records == []
        assert report.skipped[0][0] == "empty"


class TestHttpClient:
    def test_posts_payload_and_returns_text(self, monkeypatch):
        seen = {}

        class FakeResp:
            status_code = 200

            def json(self):
                return {"text": "FUNCTION: ok."}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, json=json, headers=headers)
            return FakeResp()

        monkeypatch.setattr("hlsdbg.llmgen.requests.post", fake_post)
        client = HttpCompletionClient("http://unit.test/v1", model="m1", token="tok")
        assert client.complete("hello") == "FUNCTION: ok."
        assert seen["url"] == "http://unit.test/v1"
        assert seen["json"] == {"model": "m1", "prompt": "hello", "temperature": 0.0}
        assert seen["headers"] == {"Authorization": "Bearer tok"}

    def test_retries_then_succeeds(self, monkeypatch):
        calls = {"n": 0}

        class Resp:
            def __init__(self, code):
                self.status_code = code

            def json(self):
                return {"text": "late"}

        def fake_post(url, **kwargs):
            calls["n"] += 1
            return Resp(500 if calls["n"] == 1 else 200)

        monkeypatch.setattr("hlsdbg.llmgen.requests.post", fake_post)
        monkeypatch.setattr("hlsdbg.llmgen.time.sleep", lambda s: None)
        client = HttpCompletionClient("http://unit.test/v1")
        assert client.complete("p") == "late"
        assert calls["n"] == 2

    def test_gives_up_after_max_attempts(self, monkeypatch):
        class Resp:
            status_code = 503

        monkeypatch.setattr("hlsdbg.llmgen.requests.post", lambda *a, **k: Resp())
        monkeypatch.setattr("hlsdbg.llmgen.time.sleep", lambda s: None)
        client = HttpCompletionClient("http://unit.test/v1")
        with pytest.raises(DataError):
            client.complete("p")
