import http.client
import http.server
import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from hlsdbg.errors import DataError
from hlsdbg.lexer import lex
from hlsdbg.llmgen import (
    MAX_ATTEMPTS,
    HttpCompletionClient,
    StubCompletionClient,
    build_record,
    generate_via_llm,
    parse_insert_block,
)
from hlsdbg.mutate import BugType, find_sites, verify_record
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
TWICE = "int a = 1;\nint b = 1;\n"
TOY_CORPUS = Path(__file__).resolve().parents[1] / "data" / "toy_corpus"


def _finder_rewrites(code, bug_type):
    """Every buggy code the injector's finders could make of `code` for `bug_type`."""
    stream = lex(code)
    out = set()
    for site in find_sites(stream)[bug_type]:
        for (lo, hi), text in site.rewrites:
            a, b = stream.tokens[lo].byte_start, stream.tokens[hi - 1].byte_end
            out.add(code[:a] + text + code[b:])
    return out


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
    def test_unique_snippet_splice(self):
        rec = build_record("s", lex(SRC), BugType.ZERO, "1", "0")
        assert rec is not None
        assert verify_record(rec)
        assert rec.buggy_code == "int acc = 0;\nint r;\nr = acc;\n"
        assert sum(rec.token_labels) == 1

    def test_snippet_that_occurs_twice(self):
        assert build_record("s", lex(TWICE), BugType.ZERO, "1", "0") is None

    @pytest.mark.parametrize("snippet", ["cc = 1", "r = ac"])
    def test_snippet_not_on_token_boundaries(self, snippet):
        # each occurs once in SRC, but starts or ends inside the identifier `acc`
        assert SRC.count(snippet) == 1
        assert build_record("s", lex(SRC), BugType.ZERO, snippet, snippet.replace("c", "d")) is None

    def test_snippet_not_present(self):
        assert build_record("s", lex(SRC), BugType.ZERO, "99", "0") is None

    def test_rewrite_that_breaks_lexing(self):
        assert build_record("s", lex(SRC), BugType.ZERO, "1", '"unterminated') is None

    def test_whitespace_only_rewrite(self):
        assert build_record("s", lex("int acc = 1 ;\n"), BugType.ZERO, "1 ", " ") is None

    def test_pair_that_changes_only_whitespace(self):
        assert build_record("s", lex("int acc = a + b;\n"), BugType.ZERO, "a + b", "a+b") is None

    def test_shared_context_tokens_are_not_spliced(self):
        rec = build_record("s", lex(SRC), BugType.ZERO, "acc = 1;", "acc  =  0 ;")
        assert (rec.snippet_correct, rec.snippet_buggy, rec.buggy_byte_span) == ("1", "0", (10, 11))
        assert rec.buggy_code == "int acc = 0;\nint r;\nr = acc;\n"

    @pytest.mark.parametrize("correct, buggy, flagged", [
        ("k = 0;", "k;", ["k"]),  # a deletion keeps one token of each snippet
        ("r = acc", "r = acc + 1", ["acc", "+", "1"]),  # and so does an insertion
    ])
    def test_one_token_of_each_snippet_stays(self, correct, buggy, flagged):
        code = "int k = 0;\nint r;\nr = acc;\n"
        rec = build_record("s", lex(code), BugType.INIT, correct, buggy)
        tokens = lex(rec.buggy_code).tokens
        assert [t.text for t, y in zip(tokens, rec.token_labels) if y] == flagged


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

    def test_ambiguous_snippet_skips_sample(self):
        client = ScriptedClient(["FUNCTION: x.", "TYPE: ZERO\nCORRECT: 1\nBUGGY: 0\n"])
        report = generate_via_llm([("s", TWICE)], client)
        assert report.records == []
        assert report.skipped == [("s", "snippet pair does not splice into the sample")]

    def test_sample_that_does_not_lex_is_skipped_unprompted(self):
        # the buggy snippet would close the string, but the record's correct code must lex
        client = ScriptedClient(["FUNCTION: x.", 'TYPE: ZERO\nCORRECT: abc;\nBUGGY: abc";\n'])
        report = generate_via_llm([("s", 'char *s = "abc;\n')], client)
        assert report.records == []
        assert report.skipped == [("s", "sample does not lex")]
        assert report.n_calls == 0 and client.prompts == []

    def test_stub_end_to_end(self):
        samples = make_corpus(4, seed=9)
        report = generate_via_llm(samples, StubCompletionClient(seed=1))
        assert len(report.records) == 4
        for rec in report.records:
            assert verify_record(rec)
            assert rec.function_note
            assert rec.strategy
        assert report.n_calls == 12

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_stub_records_are_finder_rewrites(self, seed):
        # the stub's bare snippets (`1`, `i`, `<`) often repeat; each record must still be the
        # injector's rewrite of its labelled type, not the same text spliced somewhere else
        toy = [(p.stem, p.read_text()) for p in sorted(TOY_CORPUS.glob("*.c"))]
        samples = toy + make_corpus(40, seed=0)
        report = generate_via_llm(samples, StubCompletionClient(seed=seed))
        assert len(report.records) == len(samples)
        for rec in report.records:
            assert rec.buggy_code in _finder_rewrites(rec.correct_code, rec.bug_type), rec.id

    def test_stub_record_flags_only_the_changed_token(self):
        # the stub quotes downsample's `= 8;` as `= 0;`; `=` and `;` are context the injector never flags
        sample = ("downsample", (TOY_CORPUS / "downsample.c").read_text())
        (rec,) = generate_via_llm([sample], StubCompletionClient(seed=4)).records
        tokens = lex(rec.buggy_code).tokens
        assert (rec.snippet_correct, rec.snippet_buggy) == ("8", "0")
        assert [t.text for t, y in zip(tokens, rec.token_labels) if y] == ["0"]

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
        assert (a.records, a.skipped, a.n_calls) == (b.records, b.skipped, b.n_calls)

    def test_client_error_stops_the_run(self):
        # the executor cancels the samples not yet started, so a dead endpoint costs one sample's calls
        prompts = []

        class DownClient:
            def complete(self, prompt):
                prompts.append(prompt)
                raise DataError("endpoint down")

        with pytest.raises(DataError, match="endpoint down"):
            generate_via_llm(make_corpus(10, seed=0), DownClient(), threads=1)
        assert len(prompts) == 1

    def test_sample_without_sites_is_skipped(self):
        client = StubCompletionClient(seed=0)
        report = generate_via_llm([("empty", "int main() { return 0; }\n")], client)
        assert report.records == []
        assert report.skipped[0][0] == "empty"


class FakeReply:
    """What `urlopen` returns: a context manager with a status and a body."""

    def __init__(self, status=200, body=b'{"text": "ok"}'):
        self.status, self.body = status, body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self.body


def _serve(monkeypatch, *outcomes):
    """Make `urlopen` play `outcomes` in turn, each a factory of a reply or of an exception to raise.

    Returns the `(request, timeout)` of each call and the backoff sleeps.
    """
    calls, sleeps, pending = [], [], list(outcomes)

    def fake_urlopen(request, timeout=None):
        calls.append((request, timeout))
        outcome = pending.pop(0)()
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setattr("hlsdbg.llmgen.time.sleep", sleeps.append)
    return calls, sleeps


# loopback, so a client that bypassed the fake would get a refused connection, not reach a host
URL = "http://127.0.0.1:9/v1"


def _http_error(code):
    return lambda: urllib.error.HTTPError(URL, code, "Server Error", {}, None)


class TestHttpClient:
    def test_posts_payload_and_returns_text(self):
        seen = {}

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                seen.update(path=self.path, headers=dict(self.headers), body=json.loads(body))
                reply = json.dumps({"text": "FUNCTION: ok."}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, *args):
                pass

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            client = HttpCompletionClient(f"http://127.0.0.1:{server.server_port}/v1", model="m1", token="tok")
            assert client.complete("hello") == "FUNCTION: ok."
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen["path"] == "/v1"
        assert seen["body"] == {"model": "m1", "prompt": "hello", "temperature": 0.0}
        assert seen["headers"]["Content-Type"] == "application/json"
        assert seen["headers"]["Authorization"] == "Bearer tok"

    @pytest.mark.parametrize("token", ["tok", None])
    def test_request_carries_payload_headers_and_timeout(self, monkeypatch, token):
        calls, _ = _serve(monkeypatch, FakeReply)
        client = HttpCompletionClient(URL, model="m1", temperature=0.7, token=token)
        assert client.complete("p") == "ok"
        [(request, timeout)] = calls
        assert (request.full_url, request.get_method(), timeout) == (URL, "POST", 60)
        assert json.loads(request.data) == {"model": "m1", "prompt": "p", "temperature": 0.7}
        assert request.get_header("Content-type") == "application/json"
        assert request.get_header("Authorization") == (f"Bearer {token}" if token else None)

    def test_retries_then_succeeds(self, monkeypatch):
        calls, sleeps = _serve(monkeypatch, _http_error(500), lambda: FakeReply(body=b'{"text": "late"}'))
        assert HttpCompletionClient(URL).complete("p") == "late"
        assert len(calls) == 2
        assert sleeps == [0.5]

    def test_gives_up_after_max_attempts(self, monkeypatch):
        calls, sleeps = _serve(monkeypatch, *[_http_error(503)] * MAX_ATTEMPTS)
        with pytest.raises(DataError, match="failed after 3 attempts: status 503"):
            HttpCompletionClient(URL).complete("p")
        assert len(calls) == MAX_ATTEMPTS
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("outcome, reason", [
        (lambda: FakeReply(status=204, body=b""), "status 204"),
        (lambda: FakeReply(body=b"<html>"), "Expecting value"),
        (lambda: FakeReply(body=b'{"text": "\xff"}'), "can't decode"),
        (lambda: FakeReply(body=b'["a"]'), "not a JSON object"),
        (lambda: FakeReply(body=b'{"text": 5}'), "not a JSON object"),
        (lambda: urllib.error.URLError(ConnectionRefusedError(111, "Connection refused")), "Connection refused"),
        (lambda: TimeoutError("timed out"), "timed out"),
        (lambda: http.client.BadStatusLine("HTTP/0.9 garbage"), "HTTP/0.9 garbage"),
        (lambda: ValueError("unknown url type"), "unknown url type"),
    ], ids=["status-204", "not-json", "not-utf8", "not-an-object", "text-not-a-string", "refused", "timeout",
            "bad-status-line", "value-error"])
    def test_each_failure_is_one_attempt(self, monkeypatch, outcome, reason):
        calls, sleeps = _serve(monkeypatch, *[outcome] * MAX_ATTEMPTS)
        with pytest.raises(DataError, match=f"failed after 3 attempts: .*{reason}"):
            HttpCompletionClient(URL).complete("p")
        assert len(calls) == MAX_ATTEMPTS
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("endpoint", ["file:///etc/hosts", "ftp://127.0.0.1/v1", "127.0.0.1:8000/v1", ""])
    def test_endpoint_must_be_http_or_https(self, monkeypatch, endpoint):
        calls, _ = _serve(monkeypatch)
        with pytest.raises(DataError, match="not an http or https URL"):
            HttpCompletionClient(endpoint)
        assert calls == []
