"""Offline stub clients (chat rules, TTS, ASR corruption, embeddings), and the
live HTTP clients against a loopback server."""

from __future__ import annotations

import email.message
import email.parser
import email.policy
import io
import json
import logging
import os
import random
import subprocess
import sys
import threading
import wave
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable

import pytest
import requests

from todvoice import clients, prompts
from todvoice.clients import (
    ClientConfig,
    ClientError,
    HTTPASRClient,
    HTTPChatClient,
    HTTPEmbedClient,
    HTTPTTSClient,
    StubASRClient,
    StubChatClient,
    StubDirectory,
    StubEmbedClient,
    StubTTSClient,
    _silence_wav,
    plausible_wrong,
    wav_duration_s,
    with_retries,
)
from conftest import RejectingChat, make_dialogue, make_goal, with_states
from todvoice.bargein import BargeInConfig, apply_bargein_stage
from todvoice.corpus import MIN_TURN_S, BargeInStyle, BargeInType, Emotion, Role, Turn, fluent_text, save_corpus
from todvoice.disfluency import inject
from todvoice.emotion import annotate_dialogue
from todvoice.metrics import GoalCoverageState, cosine, edit_distance, goal_items, judge_turn_coverage
from todvoice.pipeline import PipelineConfig, build_clients
from todvoice.seeding import rng_for

_ROLES = ("generator", "judge", "tts", "asr", "embed")


class TestClientConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClientConfig(timeout_s=0)
        with pytest.raises(ValueError):
            ClientConfig(max_retries=-1)

    def test_endpoint_env_override(self, monkeypatch):
        cfg = ClientConfig(endpoint="http://default")
        monkeypatch.setenv("TODVOICE_ASR_ENDPOINT", "http://special")
        assert cfg.resolved_endpoint("asr") == "http://special"
        assert cfg.resolved_endpoint("tts") == "http://default"

    @pytest.mark.parametrize("role", _ROLES)
    def test_every_role_env_override_reaches_its_client(self, role, monkeypatch):
        cfg = PipelineConfig(stub=False, clients={r: ClientConfig(endpoint=f"http://{r}") for r in _ROLES})
        monkeypatch.setenv(f"TODVOICE_{role.upper()}_ENDPOINT", "http://special")
        clients = build_clients(cfg)
        for r in _ROLES:
            assert getattr(clients, r).endpoint == ("http://special" if r == role else f"http://{r}")


def _http_error(status: int) -> requests.HTTPError:
    resp = requests.Response()
    resp.status_code = status
    return requests.HTTPError(f"{status} error", response=resp)


def _failing(exc: Exception, calls: list):
    def fn():
        calls.append(1)
        raise exc

    return fn


class TestWithRetries:
    @pytest.fixture(autouse=True)
    def _record_backoff_waits(self, monkeypatch):
        self.waits = []
        monkeypatch.setattr(clients.time, "sleep", self.waits.append)

    def test_succeeds_after_transient_failures(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ConnectionError("transient")
            return "ok"

        assert with_retries(flaky, max_retries=2) == "ok"
        assert len(calls) == 3
        assert self.waits == [0.5, 1.0]

    def test_exhaustion_raises_client_error(self):
        def broken():
            raise RuntimeError("down")

        with pytest.raises(ClientError):
            with_retries(broken, max_retries=1)

    def test_zero_retries_is_single_attempt(self):
        calls = []

        def broken():
            calls.append(1)
            raise RuntimeError("down")

        with pytest.raises(ClientError):
            with_retries(broken, max_retries=0)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "exc",
        [
            ConnectionError("reset"),
            TimeoutError("slow"),
            requests.ConnectionError("refused"),
            requests.Timeout("read timed out"),
            _http_error(429),
            _http_error(500),
            _http_error(503),
        ],
        ids=repr,
    )
    def test_transient_failures_retried(self, exc):
        calls = []
        with pytest.raises(ClientError, match="after 3 attempts"):
            with_retries(_failing(exc, calls), max_retries=2)
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "exc",
        [
            _http_error(400),
            _http_error(401),
            _http_error(404),
            requests.HTTPError("no response attached"),
            KeyError("choices"),
            ValueError("Expecting value: line 1 column 1"),
            RuntimeError("bug"),
        ],
        ids=repr,
    )
    def test_other_failures_not_retried(self, exc):
        calls = []
        with pytest.raises(ClientError) as info:
            with_retries(_failing(exc, calls), max_retries=2)
        assert len(calls) == 1
        assert info.value.__cause__ is exc


# --- every chat call: ChatClient.ask --------------------------------------------


class _Scripted(clients.ChatClient):
    """Gives the listed replies in turn; counts the calls."""

    def __init__(self, *replies: str) -> None:
        self.replies, self.calls = list(replies), 0

    def chat(self, messages):
        self.calls += 1
        return self.replies.pop(0)


def _emotion_of(judge):
    d = make_dialogue(texts=[(Role.USER, "Thank you so much!"), (Role.ASSISTANT, "Glad to help.")])
    return annotate_dialogue(d, judge).turns[0].emotion


def _covered_by(judge):
    state = GoalCoverageState(items=goal_items(make_goal(food="italian", area="centre")))
    state = judge_turn_coverage(state, "", "Italian food in the centre.", judge)
    return [item.slot for _, item in state.covered]


def _bargein_turns(judge, gen):
    """How many turns the barge-in stage leaves of a two-turn dialogue with one candidate."""
    d = make_dialogue(texts=[(Role.USER, "A flight to Paris, please."), (Role.ASSISTANT, "Booking Paris now.")])
    d = with_states(d, {0: {"destination": "Paris"}})
    return len(apply_bargein_stage(d, BargeInConfig(sample_rate=1.0), judge, gen, rng_for(0, "bi")).turns)


_BLOCK = json.dumps({
    "turns": [
        {"role": "assistant", "text": "Booking Lon<bargein>"},
        {"role": "user", "text": "No, Paris."},
        {"role": "assistant", "text": "Sorry, Paris it is."},
    ],
    "erroneous_slots": {"destination": "London"},
    "corrected_slots": {"destination": "Paris"},
})

_UTTERANCE = "I need it on Saturday please."


def _disfluent(dtype):
    start = _UTTERANCE.index("Saturday")
    t = Turn(index=0, role=Role.USER, text=_UTTERANCE, slot_spans=(("day", start, start + 8),))
    return lambda gen: inject(t, dtype, 4, gen, random.Random(0)).text


# name -> (run the call, a reply it accepts, what that reply gives, the fallback, how its warning starts)
_JUDGES = {
    "emotion": (_emotion_of, "6", Emotion.SATISFIED, Emotion.NEUTRAL, "emotion judge on "),
    "coverage": (_covered_by, "[2]", ["food"], [], "coverage judge on "),
    "bargein-judge": (lambda judge: _bargein_turns(judge, StubChatClient()), "yes", 5, 2, "barge-in judge on "),
    "bargein-generator": (lambda gen: _bargein_turns(_Scripted("yes"), gen), _BLOCK, 5, 2, "barge-in generator on "),
    "cor": (_disfluent("COR"), "I need it on Friday— no, Saturday please.",
            "I need it on Friday— no, Saturday please.", _UTTERANCE, "self-correction generator on turn 0 "),
    "rst": (_disfluent("RST"), f"I need... {_UTTERANCE}", f"I need... {_UTTERANCE}", _UTTERANCE,
            "restart generator on turn 0 "),
}


@pytest.mark.parametrize("name", _JUDGES)
@pytest.mark.parametrize("case", ["unparseable twice", "unparseable then valid", "permanent error"])
def test_judge_asks_twice_then_falls_back(name, case, caplog):
    """Every chat call a stage or judge makes: an unusable reply is asked again
    once, a failed call is not, and either way the caller's fallback holds."""
    run, valid, value, fallback, starts = _JUDGES[name]
    judge, calls, expected = {
        "unparseable twice": (_Scripted("hmm", "hmm"), 2, fallback),
        "unparseable then valid": (_Scripted("hmm", valid), 2, value),
        "permanent error": (RejectingChat(), 1, fallback),
    }[case]
    with caplog.at_level(logging.WARNING, logger="todvoice"):
        assert run(judge) == expected
    assert judge.calls == calls
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == (case != "unparseable then valid")
    assert all(w.startswith(starts) for w in warnings)


# --- live clients against a loopback server ---------------------------------


@dataclass
class _Request:
    path: str
    headers: email.message.Message
    body: bytes

    def json(self) -> object:
        assert self.headers["Content-Type"] == "application/json"
        return json.loads(self.body)

    def form(self) -> dict[str, tuple[str | None, bytes]]:
        """Multipart fields as name -> (filename, bytes)."""
        head = f"Content-Type: {self.headers['Content-Type']}\r\n\r\n".encode()
        msg = email.parser.BytesParser(policy=email.policy.HTTP).parsebytes(head + self.body)
        assert msg.get_content_type() == "multipart/form-data"
        return {
            part.get_param("name", header="content-disposition"): (part.get_filename(), part.get_payload(decode=True))
            for part in msg.iter_parts()
        }


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests.append(_Request(self.path, self.headers, body))
        status, content_type, payload = self.server.replies.pop(0)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args) -> None:
        pass


class _Loopback(ThreadingHTTPServer):
    """Records each POST and answers it with the next scripted (status, content type, body)."""

    daemon_threads = True

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.replies: list[tuple[int, str, bytes]] = []
        self.requests: list[_Request] = []
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1/call"


@pytest.fixture
def loopback(monkeypatch):
    monkeypatch.setattr(clients.time, "sleep", lambda s: None)  # no backoff waits
    monkeypatch.delenv(clients.ENV_TOKEN, raising=False)
    for role in _ROLES:
        monkeypatch.delenv(f"TODVOICE_{role.upper()}_ENDPOINT", raising=False)
    server = _Loopback()
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


def _json(obj: object) -> tuple[int, str, bytes]:
    return 200, "application/json", json.dumps(obj).encode()


_MESSAGES = [{"role": "system", "content": "Be brief."}, {"role": "user", "content": "Hi."}]
_AUDIO = bytes(range(256)) * 40  # the uploaded file; clients do not parse it
_WAV = _silence_wav(0.5, 8000)


@dataclass(frozen=True)
class _Live:
    """One live client: how to call it, a good reply and what it parses to, a malformed
    200 reply, and the request it must send (JSON, or multipart fields for an upload)."""

    call: Callable[[ClientConfig, str], object]
    reply: tuple[int, str, bytes]
    parsed: object
    malformed: tuple[int, str, bytes]
    sent: object
    upload: bool = False


_LIVE = {
    "chat": _Live(
        lambda cfg, audio: HTTPChatClient(cfg, "generator").chat(_MESSAGES),
        _json({"choices": [{"message": {"role": "assistant", "content": "Hello."}}]}),
        "Hello.",
        _json({"choices": [{"message": {}}]}),
        {"model": "m1", "messages": _MESSAGES},
    ),
    "tts": _Live(
        lambda cfg, audio: HTTPTTSClient(cfg).synthesize("Hi there.", "ref/a.wav", "calm"),
        (200, "audio/wav", _WAV),
        (_WAV, 0.5),
        (200, "audio/wav", b"not a wav file"),
        {"model": "m1", "text": "Hi there.", "speaker_ref": "ref/a.wav", "style": "calm", "sample_rate": 24_000},
    ),
    "asr": _Live(
        lambda cfg, audio: HTTPASRClient(cfg).transcribe(audio),
        _json({"text": "book a table"}),
        "book a table",
        _json({"transcript": "book a table"}),
        {"audio": ("turn.wav", _AUDIO), "model": (None, b"m1")},
        upload=True,
    ),
    "embed": _Live(
        lambda cfg, audio: HTTPEmbedClient(cfg).embed(audio),
        _json({"embedding": [1, 0.5, -2]}),
        [1.0, 0.5, -2.0],
        _json({"vector": [1, 0.5, -2]}),
        {"audio": ("turn.wav", _AUDIO), "model": (None, b"m1")},
        upload=True,
    ),
}


_STUB_RUN = """
import sys
import todvoice.cli
from todvoice.corpus import load_corpus
from todvoice.pipeline import PipelineConfig, build_clients, run_pipeline

cfg = PipelineConfig(out_dir=sys.argv[2], workers=2)
build_clients(cfg)
result = run_pipeline(load_corpus(sys.argv[1]), cfg)
assert len(result.dialogues) == 2 and result.manifest, result.quarantined
print("requests" in sys.modules)
"""


def test_stub_run_never_imports_requests(tmp_path):
    corpus = tmp_path / "in.jsonl"
    save_corpus([make_dialogue(dialogue_id=f"lazy-{i}") for i in range(2)], corpus)
    src = Path(clients.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _STUB_RUN, str(corpus), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


class TestLiveClientsOnTheWire:
    """The exact requests, attempt counts and parsed replies of the four HTTP clients."""

    def _run(self, loopback, tmp_path, live: _Live, *replies, **config):
        audio = tmp_path / "turn.wav"
        audio.write_bytes(_AUDIO)
        loopback.replies[:] = replies
        return live.call(ClientConfig(endpoint=loopback.url, model="m1", **config), str(audio))

    @staticmethod
    def _assert_sent(live: _Live, req: _Request) -> None:
        assert req.path == "/v1/call"
        assert (req.form() if live.upload else req.json()) == live.sent

    @pytest.mark.parametrize("name", _LIVE)
    def test_request_and_parsed_reply(self, name, loopback, tmp_path):
        live = _LIVE[name]
        assert self._run(loopback, tmp_path, live, live.reply) == live.parsed
        (req,) = loopback.requests
        self._assert_sent(live, req)
        assert req.headers["Authorization"] is None

    @pytest.mark.parametrize("name", _LIVE)
    def test_bearer_token_from_env(self, name, loopback, tmp_path, monkeypatch):
        monkeypatch.setenv(clients.ENV_TOKEN, "s3cret")
        live = _LIVE[name]
        self._run(loopback, tmp_path, live, live.reply)
        (req,) = loopback.requests
        assert req.headers["Authorization"] == "Bearer s3cret"

    def test_chat_temperature_sent_only_when_set(self, loopback, tmp_path):
        live = _LIVE["chat"]
        self._run(loopback, tmp_path, live, live.reply, temperature=0.7)
        assert loopback.requests[0].json() == {"model": "m1", "messages": _MESSAGES, "temperature": 0.7}

    @pytest.mark.parametrize("status", [500, 429, 503])
    @pytest.mark.parametrize("name", _LIVE)
    def test_transient_status_retried_with_the_same_request(self, name, status, loopback, tmp_path):
        live = _LIVE[name]
        busy = (status, "application/json", b'{"error": "busy"}')
        assert self._run(loopback, tmp_path, live, busy, live.reply) == live.parsed
        assert len(loopback.requests) == 2
        for req in loopback.requests:  # an upload resends the whole file
            self._assert_sent(live, req)

    @pytest.mark.parametrize("name", _LIVE)
    def test_transient_failures_exhaust_max_retries(self, name, loopback, tmp_path):
        busy = (503, "application/json", b"{}")
        with pytest.raises(ClientError, match="after 2 attempts"):
            self._run(loopback, tmp_path, _LIVE[name], busy, busy, max_retries=1)
        assert len(loopback.requests) == 2

    @pytest.mark.parametrize("name", _LIVE)
    def test_client_error_status_sent_once(self, name, loopback, tmp_path):
        with pytest.raises(ClientError, match="400"):
            self._run(loopback, tmp_path, _LIVE[name], (400, "application/json", b'{"error": "bad"}'))
        assert len(loopback.requests) == 1

    @pytest.mark.parametrize("name", _LIVE)
    def test_malformed_reply_sent_once(self, name, loopback, tmp_path):
        live = _LIVE[name]
        with pytest.raises(ClientError):
            self._run(loopback, tmp_path, live, live.malformed, live.reply)
        assert len(loopback.requests) == 1


class TestPlausibleWrong:
    def test_place_swap_case_matched(self):
        assert plausible_wrong("Paris") == "London"
        assert plausible_wrong("paris") == "london"

    def test_weekday_stays_a_weekday(self):
        got = plausible_wrong("Saturday")
        assert got != "Saturday"
        assert got.lower() in ("monday", "tuesday", "wednesday", "thursday",
                               "friday", "saturday", "sunday")
        assert got[0].isupper()

    def test_digit_changed(self):
        got = plausible_wrong("room 204")
        assert got != "room 204"
        assert len(got) == len("room 204")

    def test_letters_only_code(self):
        assert plausible_wrong("TR") != "TR"

    def test_always_differs(self):
        for value in ("Paris", "friday", "may", "19:30", "ABC123", "zz", "#!?"):
            assert plausible_wrong(value) != value


class TestStubChatDispatch:
    def test_unknown_prompt_echoes_last_user_message(self):
        client = StubChatClient()
        got = client.chat([
            {"role": "user", "content": "first"},
            {"role": "assistant", "content": "reply"},
            {"role": "user", "content": "second"},
        ])
        assert got == "second"

    def test_complete_wraps_single_message(self):
        assert StubChatClient().complete("just echo me") == "just echo me"


class TestStubEmotionRule:
    def _label(self, utterance, context=""):
        return StubChatClient().complete(prompts.emotion_prompt(context, utterance))

    def test_thank_you_is_satisfied(self):
        assert self._label("Thank you so much!") == "6"

    def test_apology(self):
        assert self._label("Sorry, my mistake.") == "3"

    def test_neutral_default(self):
        assert self._label("I need a taxi to the station.") == "0"

    def test_fearful(self):
        assert self._label("Oh no, I'm worried we missed it.") == "1"

    def test_always_a_single_digit(self):
        for utt in ("anything", "thanks!", "this is wrong", "I love it"):
            assert self._label(utt) in {"0", "1", "2", "3", "4", "5", "6"}


class TestStubJudgeRule:
    def _verdict(self, kind, exchange, state):
        prompt = prompts.interruption_validity_prompt(kind, exchange, "", state)
        return StubChatClient().complete(prompt)

    def test_error_recovery_needs_state(self):
        ex = "user: to Paris\nassistant: Booking to Paris now."
        assert self._verdict(BargeInType.ERROR_RECOVERY, ex, {"destination": "Paris"}) == "yes"
        assert self._verdict(BargeInType.ERROR_RECOVERY, ex, None) == "no"

    def test_clarification_needs_assistant_text(self):
        assert self._verdict(BargeInType.CLARIFICATION,
                             "user: hi\nassistant: Your PNR is X4J9.", None) == "yes"
        assert self._verdict(BargeInType.CLARIFICATION, "user: hi\nassistant: ", None) == "no"

    def test_efficiency_needs_done_words(self):
        assert self._verdict(BargeInType.EFFICIENCY,
                             "user: ok\nassistant: Your table is confirmed for two.", None) == "yes"
        assert self._verdict(BargeInType.EFFICIENCY,
                             "user: ok\nassistant: Which part of town?", None) == "no"


class TestStubGeneration:
    def _block(self, kind, style, state=None):
        exchange = "user: Book it for Friday.\nassistant: Booking your table for Friday at seven."
        prompt = prompts.interruption_generation_prompt(kind, style, exchange, "", state)
        return json.loads(StubChatClient().complete(prompt))

    def test_three_turn_shape(self):
        block = self._block(BargeInType.EFFICIENCY, BargeInStyle.IMPLICIT)
        roles = [t["role"] for t in block["turns"]]
        assert roles == ["assistant", "user", "assistant"]
        assert block["turns"][0]["text"].endswith("<bargein>")

    def test_error_recovery_slot_maps(self):
        block = self._block(BargeInType.ERROR_RECOVERY, BargeInStyle.INTERPRETED,
                            state={"destination": "Paris"})
        assert set(block["erroneous_slots"]) == set(block["corrected_slots"]) == {"destination"}
        assert block["corrected_slots"]["destination"] == "Paris"
        assert block["erroneous_slots"]["destination"] != "Paris"

    def test_styles_have_distinct_registers(self):
        implicit = self._block(BargeInType.EFFICIENCY, BargeInStyle.IMPLICIT)
        raw = self._block(BargeInType.EFFICIENCY, BargeInStyle.RAW)
        assert implicit["turns"][1]["text"] == "Uh-huh."
        assert raw["turns"][1]["text"] == "Got it, that works."

    def test_clarification_interpreted_names_a_term(self):
        block = self._block(BargeInType.CLARIFICATION, BargeInStyle.INTERPRETED)
        assert block["turns"][1]["text"].startswith("What's a ")


class TestStubSelfCorrection:
    def test_inserts_wrong_then_right(self):
        prompt = prompts.self_correction_prompt(
            "I need a table on Friday.", "day", "Friday")
        got = StubChatClient().complete(prompt)
        assert "Friday" in got
        assert "— no, Friday" in got
        assert got != "I need a table on Friday."

    def test_value_absent_leaves_utterance(self):
        prompt = prompts.self_correction_prompt("No day mentioned here.", "day", "Friday")
        assert StubChatClient().complete(prompt) == "No day mentioned here."


class TestStubRestart:
    def test_fragment_prefix_then_full(self):
        utterance = "I would like to book a table for two."
        got = StubChatClient().complete(prompts.restart_prompt(utterance))
        assert got.endswith(utterance)
        fragment = got[: -len(utterance)].rstrip()
        assert fragment.endswith("...")
        n_words = len(fragment[:-3].split())
        assert 2 <= n_words <= 5
        assert utterance.startswith(fragment[:-3].strip())

    def test_deterministic(self):
        prompt = prompts.restart_prompt("Find me a cheap hotel in the north.")
        assert StubChatClient().complete(prompt) == StubChatClient().complete(prompt)

    def test_single_word_gets_a_made_up_two_word_fragment(self):
        assert StubChatClient().complete(prompts.restart_prompt("Huh?")) == "I was... Huh?"
        out = inject(Turn(index=0, role=Role.USER, text="Huh?"), "RST", 0, StubChatClient(), random.Random(0))
        assert (out.text, [m.inserted_span for m in out.disfluency]) == ("I was... Huh?", ["I was..."])
        assert fluent_text(out) == "Huh?"


class TestStubCoverage:
    def test_picks_mentioned_values(self):
        prompt = prompts.coverage_prompt(
            ["restaurant food = thai", "restaurant area = centre", "request: restaurant phone"],
            "",
            "I want thai food please.",
        )
        assert StubChatClient().complete(prompt) == "[1]"

    def test_request_matched_by_slot_word(self):
        prompt = prompts.coverage_prompt(
            ["request: restaurant phone"], "", "What's their phone number?")
        assert StubChatClient().complete(prompt) == "[1]"

    def test_nothing_mentioned(self):
        prompt = prompts.coverage_prompt(["hotel area = north"], "", "Hello there.")
        assert StubChatClient().complete(prompt) == "[]"


class TestStubTTS:
    def test_duration_formula(self):
        audio, duration = StubTTSClient().synthesize("x" * 50)
        assert duration == 3.0
        assert wav_duration_s(audio) == pytest.approx(3.0, abs=1e-3)

    def test_short_text_lasts_the_shortest_valid_turn(self):
        audio, duration = StubTTSClient().synthesize("Huh?")  # 0.24 s by the formula
        assert duration == MIN_TURN_S
        assert wav_duration_s(audio) == pytest.approx(MIN_TURN_S, abs=1e-3)

    def test_sample_rate_respected(self):
        audio, _ = StubTTSClient().synthesize("hello")
        with wave.open(io.BytesIO(audio)) as wav:
            assert wav.getframerate() == 24_000
        assert wav_duration_s(audio) == pytest.approx(0.3, abs=1e-3)


class TestStubASR:
    def _directory(self, text="the quick brown fox", path="a.wav"):
        directory = StubDirectory()
        directory.register(path, text, "spk0001")
        return directory

    def test_zero_corruption_returns_ground_truth(self):
        asr = StubASRClient(self._directory(), corruption_rate=0.0)
        assert asr.transcribe("a.wav") == "the quick brown fox"

    def test_unregistered_path_is_client_error(self):
        asr = StubASRClient(self._directory())
        with pytest.raises(ClientError):
            asr.transcribe("missing.wav")

    def test_corruption_rate_validated(self):
        with pytest.raises(ValueError):
            StubASRClient(StubDirectory(), corruption_rate=1.5)

    def test_corruption_deterministic(self):
        directory = self._directory(" ".join(f"word{i}" for i in range(50)))
        a = StubASRClient(directory, corruption_rate=0.5, seed=3)
        b = StubASRClient(directory, corruption_rate=0.5, seed=3)
        assert a.transcribe("a.wav") == b.transcribe("a.wav")
        c = StubASRClient(directory, corruption_rate=0.5, seed=4)
        assert c.transcribe("a.wav") != a.transcribe("a.wav")

    def test_corruption_rate_drives_wer(self):
        # 200 utterances x 50 words = 10,000 words, micro-aggregated
        def word(i):
            out = ""
            while True:
                out = chr(ord("a") + i % 26) + out
                i //= 26
                if i == 0:
                    return "w" + out

        directory = StubDirectory()
        texts = {}
        for u in range(200):
            path = f"utt{u:03d}.wav"
            texts[path] = " ".join(word(u * 50 + k) for k in range(50))
            directory.register(path, texts[path], "spk0001")
        asr = StubASRClient(directory, corruption_rate=0.1, seed=0)
        errors = total = 0
        for path, ref in texts.items():
            hyp = asr.transcribe(path)
            errors += edit_distance(ref.split(), hyp.split())
            total += 50
        assert errors / total == pytest.approx(0.1, abs=0.02)


class TestStubEmbed:
    def _directory(self):
        directory = StubDirectory()
        directory.register("t0.wav", "hello", "spk0001")
        directory.register("t1.wav", "again", "spk0001")
        directory.register("t2.wav", "other", "spk0002")
        return directory

    def test_same_speaker_identical_vectors(self):
        embed = StubEmbedClient(self._directory())
        v0, v1 = embed.embed("t0.wav"), embed.embed("t1.wav")
        assert v0 == v1
        assert cosine(v0, v1) == pytest.approx(1.0)

    def test_distinct_speakers_differ(self):
        embed = StubEmbedClient(self._directory())
        sim = cosine(embed.embed("t0.wav"), embed.embed("t2.wav"))
        assert sim < 0.5

    def test_dimension(self):
        embed = StubEmbedClient(self._directory())
        assert len(embed.embed("t0.wav")) == 192

    def test_unregistered_path_hashes_itself(self):
        embed = StubEmbedClient(self._directory())
        assert embed.embed("novel.wav") == embed.embed("novel.wav")
