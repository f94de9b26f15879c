"""Service clients: chat generation/judging, TTS, ASR, speaker embeddings.

Every role has an offline stub and a real HTTP implementation, built as
`cls(config, role)` from `pipeline._LIVE_CLIENTS`, that adds only a payload and
a reply reader to `_HTTPClient._post`. Stubs are pure functions of their inputs
plus fixed seeds, so a stub-mode pipeline run is byte-identical across runs and
worker counts and never touches the network. The chat stub answers from two
tables: `StubChatClient._ANSWERS` (task tag to answer method) and
`_INTERRUPTIONS` (barge-in kind and style to the block's texts).
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import os
import re
import time
import wave
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, TypeVar

from . import prompts
from .corpus import MIN_TURN_S
from .seeding import rng_for, stable_seed

log = logging.getLogger(__name__)

T = TypeVar("T")

DEFAULT_SAMPLE_RATE = 24_000

ENV_TOKEN = "TODVOICE_API_TOKEN"

_BACKOFF_S = 0.5  # the n-th retry waits n times this


class ClientError(Exception):
    """A service call failed: at once on a permanent error, or after exhausting retries."""


class ReplyRejected(ValueError):
    """A chat reply is not of the shape its prompt asked for."""


@dataclass(frozen=True)
class ClientConfig:
    endpoint: str = ""
    model: str = ""
    timeout_s: float = 30.0
    max_retries: int = 2
    temperature: float | None = None

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    def resolved_endpoint(self, role: str) -> str:
        return os.environ.get(f"TODVOICE_{role.upper()}_ENDPOINT", self.endpoint)


def _is_transient(exc: BaseException) -> bool:
    """Connection errors, timeouts, HTTP 429 and HTTP 5xx: failures worth retrying."""
    if isinstance(exc, (ConnectionError, TimeoutError)):
        return True
    import requests  # only on a failed call, so stub runs never import it

    if isinstance(exc, (requests.ConnectionError, requests.Timeout)):
        return True
    status = getattr(exc.response, "status_code", None) if isinstance(exc, requests.HTTPError) else None
    return status is not None and (status == 429 or status >= 500)


def with_retries(fn: Callable[[], Any], max_retries: int) -> Any:
    """Shared retry policy: up to max_retries re-attempts with linear backoff,
    for transient failures only. Any other error fails after one attempt."""
    for attempt in range(max_retries + 1):
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - transport errors vary by backend
            if not _is_transient(exc):
                raise ClientError(f"call failed: {type(exc).__name__}: {exc}") from exc
            if attempt == max_retries:
                raise ClientError(f"call failed after {max_retries + 1} attempts: {exc}") from exc
            time.sleep(_BACKOFF_S * (attempt + 1))


def _auth_headers() -> dict[str, str]:
    token = os.environ.get(ENV_TOKEN)
    return {"Authorization": f"Bearer {token}"} if token else {}


class _HTTPClient:
    """How a live call is sent: the role's endpoint, the bearer token, the timeout,
    the status check and the shared retry policy."""

    def __init__(self, config: ClientConfig, role: str) -> None:
        """`role` picks the TODVOICE_<ROLE>_ENDPOINT override."""
        self.config = config
        self.endpoint = config.resolved_endpoint(role)

    def _post(self, read: Callable[[Any], Any], audio_path: str | None = None, **body: Any) -> Any:
        """POST `body` and return read(response); a malformed reply, like a 4xx, fails at once.
        `audio_path` goes as the multipart file "audio", reopened so a retry resends all of it."""
        import requests  # only on a live call, so stub runs never import it

        def call() -> Any:
            with open(audio_path, "rb") if audio_path is not None else contextlib.nullcontext() as fh:
                resp = requests.post(
                    self.endpoint,
                    files=None if fh is None else {"audio": fh},
                    headers=_auth_headers(),
                    timeout=self.config.timeout_s,
                    **body,
                )
            resp.raise_for_status()
            return read(resp)

        return with_retries(call, self.config.max_retries)


# --- chat ---------------------------------------------------------------------


class ChatClient:
    def chat(self, messages: Sequence[Mapping[str, str]]) -> str:
        raise NotImplementedError

    def complete(self, prompt: str) -> str:
        return self.chat([{"role": "user", "content": prompt}])

    def ask(self, prompt: str, parse: Callable[[str], T | None], what: str) -> T | None:
        """parse(reply) for the first of two replies that parse accepts (maps to
        something other than None, raising no ReplyRejected). None, with one
        warning naming `what`, when both are rejected (the last reason) or when
        the call fails: a failed call is not repeated, since the HTTP layer
        already retried it if it was transient."""
        for _ in (1, 2):
            try:
                value, reason = parse(self.complete(prompt)), "unparseable"
            except ClientError as exc:
                log.warning("%s: call failed (%s)", what, exc)
                return None
            except ReplyRejected as exc:
                value, reason = None, str(exc)
            if value is not None:
                return value
        log.warning("%s: no usable reply in two tries (last: %s)", what, reason)
        return None


class HTTPChatClient(_HTTPClient, ChatClient):
    def chat(self, messages: Sequence[Mapping[str, str]]) -> str:
        payload: dict[str, Any] = {"model": self.config.model, "messages": list(messages)}
        if self.config.temperature is not None:
            payload["temperature"] = self.config.temperature
        return self._post(lambda resp: resp.json()["choices"][0]["message"]["content"], json=payload)


_WEEKDAYS = ["monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday"]
_MONTHS = [
    "january", "february", "march", "april", "may", "june",
    "july", "august", "september", "october", "november", "december",
]
_PLACE_SWAP = {
    "paris": "london",
    "london": "paris",
    "cambridge": "oxford",
    "oxford": "cambridge",
    "boston": "chicago",
    "chicago": "boston",
    "tokyo": "osaka",
}


def _match_case(candidate: str, like: str) -> str:
    return candidate.capitalize() if like[:1].isupper() else candidate


def plausible_wrong(value: str) -> str:
    """A deterministic, same-category wrong alternative to a slot value."""
    low = value.strip().lower()
    if low in _PLACE_SWAP:
        return _match_case(_PLACE_SWAP[low], value)
    if low in _WEEKDAYS:
        return _match_case(_WEEKDAYS[(_WEEKDAYS.index(low) - 1) % 7], value)
    if low in _MONTHS:
        return _match_case(_MONTHS[(_MONTHS.index(low) - 1) % 12], value)
    for i, ch in enumerate(value):
        if ch.isdigit():
            return value[:i] + str((int(ch) + 1) % 10) + value[i + 1 :]
    for i in range(len(value) - 1, -1, -1):
        ch = value[i]
        if ch.isalpha():
            nxt = "a" if ch.lower() == "z" else chr(ord(ch.lower()) + 1)
            return value[:i] + (nxt.upper() if ch.isupper() else nxt) + value[i + 1 :]
    return value + "x"


def _extract_term(text: str) -> str:
    tokens = re.findall(r"[A-Za-z0-9']+", text)
    if not tokens:
        return "that"
    for tok in tokens:
        code_like = (len(tok) >= 2 and tok.isupper()) or (
            any(c.isdigit() for c in tok) and any(c.isalpha() for c in tok)
        )
        if code_like:
            return tok
    return max(tokens, key=len)


def _truncate_words(text: str, frac: float = 2 / 3) -> str:
    words = text.split()
    if not words:
        return "Well"
    keep = max(1, int(len(words) * frac))
    return " ".join(words[:keep])


# The stub's interruption and recovery texts for each barge-in kind and style,
# under the words that the generation prompt names them by. Error recovery fills
# {correct}, {wrong} and {phrase} (the slot's name); the other kinds fill {term}.
_INTERRUPTIONS = {
    "error recovery": {
        "implicit": ("Wait, no.", "Sorry, let me correct that."),
        "raw": ("No, that's wrong.", "I apologize. What would you like me to correct?"),
        "interpreted": (
            "No, I said {correct}, not {wrong}.",
            "I apologize for the mistake. I'll change the {phrase} to {correct}.",
        ),
    },
    "clarification": {
        "implicit": ("Huh?", "Sorry, let me say that again."),
        "raw": ("Sorry, what was that?", "Of course, let me repeat that."),
        "interpreted": ("What's a {term}?", "Good question, {term} is part of your booking details."),
    },
    "efficiency": {
        "implicit": ("Uh-huh.", "Great, I'll proceed with the booking."),
        "raw": ("Got it, that works.", "Alright, I'll finalize the booking now."),
        "interpreted": ("Yes, {term} works for me.", "Understood, I'll go with {term}."),
    },
}


class StubChatClient(ChatClient):
    """Deterministic template/rule responses keyed on the prompt's task tag.

    Unrecognized prompts echo the last user message.
    """

    # Task tag -> answer method, looked up by name so that a subclass's override is called.
    _ANSWERS = {
        prompts.TASK_EMOTION: "_emotion",
        prompts.TASK_INTERRUPT_JUDGE: "_judge",
        prompts.TASK_INTERRUPT_GENERATE: "_generate_interruption",
        prompts.TASK_SELF_CORRECTION: "_self_correction",
        prompts.TASK_RESTART: "_restart",
        prompts.TASK_COVERAGE: "_coverage",
    }

    def chat(self, messages: Sequence[Mapping[str, str]]) -> str:
        prompt = ""
        for msg in messages:
            if msg.get("role") == "user":
                prompt = msg.get("content", "")
        answer = self._ANSWERS.get(prompt.split("\n", 1)[0])
        return prompt if answer is None else getattr(self, answer)(prompt)

    # parsing helpers for the structured sections the builders emit

    @staticmethod
    def _section(prompt: str, header: str) -> str:
        return prompt.partition(header + "\n")[2].split("\n\n", 1)[0].strip()

    @staticmethod
    def _field(prompt: str, label: str) -> str:
        for line in prompt.splitlines():
            if line.startswith(label):
                return line[len(label):].strip()
        return ""

    @staticmethod
    def _state_pairs(prompt: str) -> dict[str, str]:
        block = StubChatClient._section(prompt, "Current state:")  # "(empty)" holds no ": "
        return dict(line.split(": ", 1) for line in map(str.strip, block.splitlines()) if ": " in line)

    @staticmethod
    def _exchange_assistant_text(prompt: str) -> str:
        block = StubChatClient._section(prompt, "Current exchange to transform:")
        lines = (block or StubChatClient._section(prompt, "Current exchange:")).splitlines()
        said = [line[len("assistant: "):] for line in lines if line.startswith("assistant: ")]
        return said[-1] if said else ""

    def _emotion(self, prompt: str) -> str:
        utt = self._field(prompt, "User utterance: ").lower()
        rules: list[tuple[tuple[str, ...], str]] = [
            (("thank", "grateful", "appreciate"), "6"),
            (("sorry", "apolog", "my mistake", "my fault"), "3"),
            (("stupid", "useless", "shut up", "damn", "hate"), "4"),
            (("afraid", "scared", "worried", "oh no"), "1"),
            (("wrong", "not what i", "disappoint", "unacceptable", "annoy"), "2"),
            (("can't wait", "amazing", "awesome", "excited", "love"), "5"),
        ]
        for needles, label in rules:
            if any(n in utt for n in needles):
                return label
        return "0"

    def _judge(self, prompt: str) -> str:
        kind_line = self._field(prompt, "Interruption kind - ")
        assistant = self._exchange_assistant_text(prompt).lower()
        if kind_line.startswith("error recovery"):
            return "yes" if self._state_pairs(prompt) else "no"
        if kind_line.startswith("clarification"):
            return "yes" if assistant.strip() else "no"
        done_words = ("book", "confirm", "reserved", "reference", "all set", "scheduled")
        return "yes" if any(w in assistant for w in done_words) else "no"

    def _generate_interruption(self, prompt: str) -> str:
        kind = self._field(prompt, "Interruption kind - ").split(":", 1)[0]
        style = self._field(prompt, "Interruption style - ").split(":", 1)[0].strip()
        user, recovery = _INTERRUPTIONS[kind][style]
        if kind == "error recovery":
            state = self._state_pairs(prompt)
            slot = sorted(state)[0] if state else "value"
            correct = state.get(slot, "")
            wrong = plausible_wrong(correct) if correct else "something"
            phrase = slot.replace("_", " ")
            trunc = f"Just to confirm, your {phrase} is {wrong[: max(1, (len(wrong) + 1) // 2)]}<bargein>"
            fill = {"correct": correct, "wrong": wrong, "phrase": phrase}
            slots = {"erroneous_slots": {slot: wrong}, "corrected_slots": {slot: correct}}
        else:
            assistant = self._exchange_assistant_text(prompt)
            fill = {"term": _extract_term(assistant)}
            trunc = _truncate_words(assistant) + "<bargein>"
            slots = {}
        turns = [("assistant", trunc), ("user", user.format(**fill)), ("assistant", recovery.format(**fill))]
        return json.dumps({"turns": [{"role": r, "text": x} for r, x in turns], **slots}, ensure_ascii=False)

    def _self_correction(self, prompt: str) -> str:
        slot_line = self._field(prompt, "Slot: ")
        utterance = self._field(prompt, "Utterance: ")
        value = slot_line.split(" = ", 1)[1] if " = " in slot_line else ""
        if not value or value not in utterance:
            return utterance
        wrong = plausible_wrong(value)
        return utterance.replace(value, f"{wrong}— no, {value}", 1)

    def _restart(self, prompt: str) -> str:
        utterance = self._field(prompt, "Utterance: ")
        words = utterance.split()
        if len(words) < 2:  # no two words of its own to abandon, so a made-up start
            return f"I was... {utterance}"
        k = 2 + stable_seed("restart", utterance) % 4
        k = min(k, 5, max(2, len(words) - 1))
        fragment = " ".join(words[:k])
        return f"{fragment}... {utterance}"

    def _coverage(self, prompt: str) -> str:
        items_block = self._section(prompt, "Remaining goal items:")
        utterance = self._field(prompt, "User utterance: ").lower()
        picked: list[int] = []
        for line in items_block.splitlines():
            m = re.match(r"(\d+)\. (.*)", line.strip())
            if not m:
                continue
            number, body = int(m.group(1)), m.group(2)
            if body.startswith("request: "):
                name = body[len("request: "):]
                needle = re.split(r"[ _]", name)[-1].lower()
            elif " = " in body:
                needle = body.split(" = ", 1)[1].lower()
            else:
                needle = body.lower()
            if needle and needle in utterance:
                picked.append(number)
        return "[" + ", ".join(str(i) for i in picked) + "]"


# --- TTS ----------------------------------------------------------------------


class TTSClient:
    def synthesize(self, text: str, speaker_ref: str | None = None, style: str | None = None) -> tuple[bytes, float]:
        """Returns (wav bytes, duration in seconds)."""
        raise NotImplementedError


def _silence_wav(duration_s: float, sample_rate: int) -> bytes:
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(sample_rate)
        wav.writeframes(b"\x00\x00" * int(round(duration_s * sample_rate)))
    return buf.getvalue()


def wav_duration_s(data: bytes) -> float:
    with wave.open(io.BytesIO(data), "rb") as wav:
        return wav.getnframes() / wav.getframerate()


class StubTTSClient(TTSClient):
    """Silence at 0.06 s per input character, and at least MIN_TURN_S; mono
    16-bit PCM at DEFAULT_SAMPLE_RATE."""

    def synthesize(self, text: str, speaker_ref: str | None = None, style: str | None = None) -> tuple[bytes, float]:
        duration = max(MIN_TURN_S, (6 * len(text)) / 100.0)
        return _silence_wav(duration, DEFAULT_SAMPLE_RATE), duration


class HTTPTTSClient(_HTTPClient, TTSClient):
    def synthesize(self, text: str, speaker_ref: str | None = None, style: str | None = None) -> tuple[bytes, float]:
        payload = {
            "model": self.config.model,
            "text": text,
            "speaker_ref": speaker_ref,
            "style": style,
            "sample_rate": DEFAULT_SAMPLE_RATE,
        }
        return self._post(lambda resp: (resp.content, wav_duration_s(resp.content)), json=payload)


# --- ASR / embeddings ---------------------------------------------------------


class StubDirectory:
    """Ground-truth registry backing the offline ASR and embedding stubs."""

    def __init__(self) -> None:
        self.text_of: dict[str, str] = {}
        self.speaker_of: dict[str, str] = {}

    def register(self, audio_path: str, text: str, speaker_id: str) -> None:
        self.text_of[audio_path] = text
        self.speaker_of[audio_path] = speaker_id


class ASRClient:
    def transcribe(self, audio_path: str) -> str:
        raise NotImplementedError


def _corrupt_word(word: str) -> str:
    if not word:
        return "uh"
    ch = word[0]
    if ch.isalpha():
        nxt = "a" if ch.lower() == "z" else chr(ord(ch.lower()) + 1)
        return (nxt.upper() if ch.isupper() else nxt) + word[1:]
    return word + "s"


class StubASRClient(ASRClient):
    """Returns registered ground truth, optionally corrupted word-by-word.

    The corruption is seeded by the path's last two parts (`<dialogue_id>/turnNN.wav`
    as synthesis writes it), so a corpus scores the same wherever its audio sits.
    """

    def __init__(self, directory: StubDirectory, corruption_rate: float = 0.0, seed: int = 0) -> None:
        if not 0.0 <= corruption_rate <= 1.0:
            raise ValueError("corruption_rate must be in [0, 1]")
        self.directory = directory
        self.corruption_rate = corruption_rate
        self.seed = seed

    def transcribe(self, audio_path: str) -> str:
        if audio_path not in self.directory.text_of:
            raise ClientError(f"no registered transcript for {audio_path!r}")
        text = self.directory.text_of[audio_path]
        if self.corruption_rate == 0.0:
            return text
        rng = rng_for(self.seed, "asr", *Path(audio_path).parts[-2:])
        words = [
            _corrupt_word(w) if rng.random() < self.corruption_rate else w
            for w in text.split()
        ]
        return " ".join(words)


class HTTPASRClient(_HTTPClient, ASRClient):
    def transcribe(self, audio_path: str) -> str:
        return self._post(lambda resp: resp.json()["text"], audio_path, data={"model": self.config.model})


class EmbedClient:
    def embed(self, audio_path: str) -> list[float]:
        raise NotImplementedError


_EMBED_DIM = 192


class StubEmbedClient(EmbedClient):
    """Hash-seeded gaussian vector per speaker: all of a speaker's turns embed identically."""

    def __init__(self, directory: StubDirectory) -> None:
        self.directory = directory

    def embed(self, audio_path: str) -> list[float]:
        speaker = self.directory.speaker_of.get(audio_path, audio_path)
        rng = rng_for("embed", speaker)
        return [rng.gauss(0.0, 1.0) for _ in range(_EMBED_DIM)]


class HTTPEmbedClient(_HTTPClient, EmbedClient):
    def embed(self, audio_path: str) -> list[float]:
        return self._post(
            lambda resp: [float(x) for x in resp.json()["embedding"]], audio_path, data={"model": self.config.model}
        )
