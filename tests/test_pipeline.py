"""End-to-end pipeline: determinism, quarantine, splits, ASR validation."""

from __future__ import annotations

import dataclasses
import json
import logging
import re
from pathlib import Path

import pytest

from conftest import RejectingChat, assistant_pool_profiles, make_dialogue, user_pool_profiles, write_speaker_manifest
from todvoice import pipeline, speakers
from todvoice.corpus import BARGEIN_TOKEN, Dialogue, Role, dumps_dialogue
from todvoice.disfluency import DisfluencyConfig
from todvoice.clients import (
    ClientConfig,
    StubASRClient,
    StubChatClient,
    StubDirectory,
    StubEmbedClient,
    StubTTSClient,
)
from todvoice.metrics import WerCell, format_wer_report
from todvoice.pipeline import (
    STAGES,
    ConfigError,
    PipelineConfig,
    RunContext,
    StageToggles,
    build_clients,
    config_from_dict,
    largest_remainder_sizes,
    load_config,
    process_dialogue,
    run_pipeline,
    split_corpus,
    wer_validation,
)

_DATA = Path(__file__).parent / "data"

_USER_LINES = (
    "Thank you so much, that is great news.",
    "Sorry, I think something went wrong there.",
    "I am worried this will not work out.",
    "Can I also get the phone number please.",
)


def _pipeline_corpus(n: int = 8) -> list[Dialogue]:
    out = []
    for i in range(n):
        code = f"AB{i:02d}XY{(7 * i) % 90 + 10}"
        opener = f"I need to register the code {code} for my account."
        start = opener.index(code)
        texts = [
            (Role.USER, opener),
            (Role.ASSISTANT, "Sure, let me note that down."),
            (Role.USER, _USER_LINES[i % len(_USER_LINES)]),
            (Role.ASSISTANT, "All set, the booking is confirmed."),
        ]
        out.append(
            make_dialogue(
                texts,
                dialogue_id=f"run-{i:04d}",
                spans={0: (("code", start, start + len(code)),)},
            )
        )
    return out


def _manifests(tmp_path: Path) -> tuple[str, str]:
    user_path = tmp_path / "speakers.json"
    asst_path = tmp_path / "assistants.json"
    write_speaker_manifest(user_pool_profiles(), user_path)
    write_speaker_manifest(assistant_pool_profiles(), asst_path)
    return str(user_path), str(asst_path)


def _digest(result) -> str:
    corpus = "\n".join(dumps_dialogue(d) for d in result.dialogues)
    manifest = json.dumps([r.to_dict() for r in result.manifest])
    quarantined = json.dumps([q.to_dict() for q in result.quarantined])
    return corpus + "\n" + manifest + "\n" + quarantined


class TestConfig:
    def test_defaults(self):
        cfg = config_from_dict({})
        assert cfg == PipelineConfig()
        assert cfg.stages.crossturn and cfg.stages.synthesis

    def test_sections_and_scalars(self):
        cfg = config_from_dict(
            {
                "global_seed": 5,
                "workers": 2,
                "stages": {"bargein": False},
                "disfluency": {"b": 0.9},
            }
        )
        assert cfg.global_seed == 5
        assert cfg.workers == 2
        assert cfg.stages == StageToggles(bargein=False)
        assert cfg.disfluency.b == 0.9

    def test_client_sections(self):
        cfg = config_from_dict(
            {"clients": {"tts": {"endpoint": "http://tts.local", "model": "m1"}}}
        )
        assert cfg.clients["tts"].endpoint == "http://tts.local"
        assert cfg.clients["tts"].model == "m1"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_dict({"banana": 1})
        # Sections that were once accepted but never read are unknown keys too.
        for data in ({"turn_taking": {"strategy": "argmax"}}, {"split_ratios": [0.75, 0.1, 0.15]}):
            (key,) = data
            with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
                config_from_dict(data)

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="unknown keys in stages"):
            config_from_dict({"stages": {"bogus": True}})
        # Fields that were once accepted but never read are unknown keys too.
        for data in (
            {"bargein": {"seed": 1}},
            {"crossturn": {"p_categorical": 0.1}},
            {"crossturn": {"categorical_corrections": True}},
            # ... and so are the ones that became module constants.
            {"crossturn": {"min_digits": 7}},
            {"crossturn": {"min_code_len": 5}},
            {"disfluency": {"slot_window_words": 2}},
            {"disfluency": {"p_slot_local": 0.5}},
        ):
            (section,) = data
            with pytest.raises(ConfigError, match=f"unknown keys in {section}"):
                config_from_dict(data)
        # Client sections are checked the same way, and so are their roles.
        with pytest.raises(ConfigError, match=r"unknown keys in clients\.tts: \['endpont'\]"):
            config_from_dict({"clients": {"tts": {"endpont": "x"}}})
        with pytest.raises(ConfigError, match=r"unknown keys in clients: \['speech'\]"):
            config_from_dict({"clients": {"speech": {"endpoint": "x"}}})
        # Only the chat roles send a temperature.
        for role in ("tts", "asr", "embed"):
            with pytest.raises(ConfigError, match=rf"^unknown keys in clients\.{role}: \['temperature'\]$"):
                config_from_dict({"clients": {role: {"temperature": 0.7}}})

    @pytest.mark.parametrize("data,message", [
        ({"workers": 1.5}, "workers must be an integer, not 1.5"),
        ({"workers": True}, "workers must be an integer, not True"),
        ({"global_seed": [1]}, r"global_seed must be an integer, not \[1\]"),
        ({"global_seed": "7"}, "global_seed must be an integer"),
        ({"out_dir": 3}, "out_dir must be a string, not 3"),
        ({"stub": "no"}, "stub must be true or false, not 'no'"),
        ({"stub": 0}, "stub must be true or false"),
        ({"speaker_manifest": 1}, r"speaker_manifest must be a string or null"),
        ({"assistant_manifest": ["a.json"]}, r"assistant_manifest must be a string or null"),
        ({"asr_corruption": 1.5}, r"asr_corruption must be a number in \[0, 1\]"),
        ({"asr_corruption": -0.1}, r"asr_corruption must be a number in \[0, 1\]"),
        ({"asr_corruption": float("nan")}, r"asr_corruption must be a number in \[0, 1\]"),
        ({"asr_corruption": "0.1"}, r"asr_corruption must be a number, not '0.1'"),
        ({"asr_corruption": True}, r"asr_corruption must be a number, not True"),
    ])
    def test_scalar_key_types(self, data, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            config_from_dict(data)

    def test_scalar_keys_accept_their_types(self):
        cfg = config_from_dict({
            "global_seed": 3, "stub": False, "workers": 2, "out_dir": "o",
            "speaker_manifest": None, "assistant_manifest": "a.json", "asr_corruption": 1,
        })
        assert (cfg.global_seed, cfg.stub, cfg.workers, cfg.out_dir) == (3, False, 2, "o")
        assert (cfg.speaker_manifest, cfg.assistant_manifest, cfg.asr_corruption) == (None, "a.json", 1)

    @pytest.mark.parametrize("data,message", [
        ({"stages": {"bargein": "no"}}, "stages.bargein must be true or false, not 'no'"),
        ({"stages": {"synthesis": 0}}, "stages.synthesis must be true or false, not 0"),
        ({"clients": {"tts": {"max_retries": 1.5}}}, "clients.tts.max_retries must be an integer, not 1.5"),
        ({"clients": {"tts": {"max_retries": True}}}, "clients.tts.max_retries must be an integer, not True"),
        ({"clients": {"tts": {"endpoint": 5}}}, "clients.tts.endpoint must be a string, not 5"),
        ({"clients": {"judge": {"model": None}}}, "clients.judge.model must be a string, not None"),
        ({"clients": {"asr": {"timeout_s": "30"}}}, "clients.asr.timeout_s must be a number, not '30'"),
        ({"clients": {"asr": {"timeout_s": False}}}, "clients.asr.timeout_s must be a number, not False"),
        ({"clients": {"generator": {"temperature": "hot"}}}, "clients.generator.temperature must be a number or null, not 'hot'"),
        ({"disfluency": {"b": "0.9"}}, "disfluency.b must be a number, not '0.9'"),
        ({"pool_weights": {"asian": None}}, "pool_weights.asian must be a number, not None"),
        ({"crossturn": {"p_error": True}}, "crossturn.p_error must be a number, not True"),
        ({"pool_weights": {"native": "0.7"}}, "pool_weights.native must be a number, not '0.7'"),
        ({"bargein": {"sample_rate": "0.5"}}, "bargein.sample_rate must be a number, not '0.5'"),
    ])
    def test_section_field_types(self, data, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            config_from_dict(data)

    def test_section_fields_accept_their_types(self):
        cfg = config_from_dict({
            "stages": {"bargein": False, "emotion": True},
            "clients": {"tts": {"endpoint": "http://t", "model": "m", "timeout_s": 5, "max_retries": 0},
                        "generator": {"temperature": 0.7},
                        "judge": {"timeout_s": 2.5, "temperature": None}},
        })
        assert cfg.stages == StageToggles(bargein=False)
        assert cfg.clients["tts"] == ClientConfig("http://t", "m", 5, 0)
        assert cfg.clients["generator"] == ClientConfig(temperature=0.7)
        assert cfg.clients["judge"] == ClientConfig(timeout_s=2.5)

    @pytest.mark.parametrize("data,where", [
        ([], "config"),
        ("stages", "config"),
        ({"stages": ["crossturn"]}, "stages"),
        ({"pool_weights": "census"}, "pool_weights"),
        ({"clients": ["tts"]}, "clients"),
        ({"clients": {"tts": "http://tts"}}, "clients.tts"),
    ])
    def test_non_object_section(self, data, where):
        with pytest.raises(ConfigError, match=f"^{where} must be an object"):
            config_from_dict(data)

    def test_bad_section_values_are_config_errors(self):
        with pytest.raises(ConfigError, match=r"disfluency: b must be in \(0, 1\)"):
            config_from_dict({"disfluency": {"b": 1.5}})
        with pytest.raises(ConfigError, match="clients.tts: timeout_s must be positive"):
            config_from_dict({"clients": {"tts": {"timeout_s": 0}}})

    def test_one_config_error_type(self):
        assert pipeline.ConfigError is speakers.ConfigError
        assert issubclass(ConfigError, ValueError)

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigError):
            config_from_dict({"workers": 0})

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"global_seed": 9, "stages": {"emotion": False}}))
        cfg = load_config(path)
        assert cfg.global_seed == 9
        assert not cfg.stages.emotion


class TestBuildClients:
    def test_stub_mode_shares_directory(self):
        clients = build_clients(PipelineConfig())
        assert isinstance(clients.generator, StubChatClient)
        assert clients.judge is clients.generator
        assert isinstance(clients.tts, StubTTSClient)
        assert isinstance(clients.asr, StubASRClient)
        assert isinstance(clients.embed, StubEmbedClient)
        assert clients.directory is not None

    def test_non_stub_requires_client_configs(self):
        with pytest.raises(ConfigError, match="generator"):
            build_clients(PipelineConfig(stub=False))


class TestRunDeterminism:
    def test_identical_across_runs_and_worker_counts(self, tmp_path):
        dialogues = _pipeline_corpus(8)
        user_m, asst_m = _manifests(tmp_path)
        digests = {}
        for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
            cfg = PipelineConfig(
                global_seed=3,
                workers=workers,
                out_dir=str(tmp_path / f"run-{tag}"),
                speaker_manifest=user_m,
                assistant_manifest=asst_m,
            )
            digests[tag] = _digest(run_pipeline(dialogues, cfg))
        assert digests["a"] == digests["b"]
        assert digests["a"] == digests["c"]

    def test_audio_bytes_identical_across_runs(self, tmp_path):
        dialogues = _pipeline_corpus(2)
        paths = []
        for tag in ("x", "y"):
            out_dir = tmp_path / f"run-{tag}"
            cfg = PipelineConfig(global_seed=3, out_dir=str(out_dir))
            result = run_pipeline(dialogues, cfg)
            assert result.manifest, "expected synthesized rows"
            first = result.dialogues[0].turns[0]
            assert first.audio_ref is not None
            paths.append(out_dir / first.audio_ref)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_full_run_populates_everything(self, tmp_path):
        dialogues = _pipeline_corpus(4)
        user_m, asst_m = _manifests(tmp_path)
        cfg = PipelineConfig(
            global_seed=1,
            out_dir=str(tmp_path / "out"),
            speaker_manifest=user_m,
            assistant_manifest=asst_m,
        )
        result = run_pipeline(dialogues, cfg)
        assert not result.quarantined
        assert len(result.dialogues) == 4
        assert all(r.status == "ok" for r in result.manifest)
        for d in result.dialogues:
            assert d.user_speaker is not None
            assert d.assistant_speaker is not None
            for t in d.turns:
                assert t.audio_ref is not None
                assert t.duration_s is not None and t.duration_s > 0
            for t in d.user_turns():
                assert t.emotion is not None

    def test_manifest_sorted_regardless_of_input_order(self, tmp_path):
        dialogues = list(reversed(_pipeline_corpus(5)))
        cfg = PipelineConfig(global_seed=2, workers=4, out_dir=str(tmp_path / "out"))
        result = run_pipeline(dialogues, cfg)
        keys = [(r.dialogue_id, r.turn) for r in result.manifest]
        assert keys == sorted(keys)

    def test_all_stages_off_is_identity(self, tmp_path):
        dialogues = _pipeline_corpus(3)
        cfg = PipelineConfig(
            out_dir=str(tmp_path / "out"),
            stages=StageToggles(
                crossturn=False, bargein=False, disfluency=False, emotion=False, synthesis=False
            ),
        )
        result = run_pipeline(dialogues, cfg)
        assert [dumps_dialogue(d) for d in result.dialogues] == [
            dumps_dialogue(d) for d in dialogues
        ]
        assert result.manifest == []
        assert result.quarantined == []


class TestQuarantine:
    def test_bad_dialogue_quarantined_run_continues(self, tmp_path):
        dialogues = _pipeline_corpus(9)
        bad = make_dialogue(
            [
                (Role.USER, f"I want a table {BARGEIN_TOKEN} for two."),
                (Role.ASSISTANT, "Of course."),
            ],
            dialogue_id="bad-0001",
        )
        dialogues.insert(4, bad)
        cfg = PipelineConfig(global_seed=1, out_dir=str(tmp_path / "out"))
        result = run_pipeline(dialogues, cfg)
        assert len(result.dialogues) == 9
        assert len(result.quarantined) == 1
        row = result.quarantined[0]
        assert row.dialogue_id == "bad-0001"
        assert row.stage == "validate"
        assert "turn.bargein_token" in row.reason
        assert all(r.dialogue_id != "bad-0001" for r in result.manifest)

    def test_alternation_violation_quarantined(self, tmp_path):
        bad = make_dialogue(
            [
                (Role.USER, "First thing."),
                (Role.USER, "Second thing in a row."),
                (Role.ASSISTANT, "Noted."),
            ],
            dialogue_id="bad-0002",
        )
        cfg = PipelineConfig(
            out_dir=str(tmp_path / "out"),
            stages=StageToggles(
                crossturn=False, bargein=False, disfluency=False, emotion=False, synthesis=False
            ),
        )
        result = run_pipeline([bad], cfg)
        assert result.dialogues == []
        assert result.quarantined[0].stage == "validate"
        assert "turns.alternation" in result.quarantined[0].reason

    def test_disfluency_fallback_warning_names_the_dialogue(self, tmp_path, caplog):
        only = StageToggles(crossturn=False, bargein=False, emotion=False, synthesis=False)
        cfg = PipelineConfig(out_dir=str(tmp_path / "out"), stages=only, disfluency=DisfluencyConfig(b=0.01))
        ctx = RunContext.build(cfg)
        ctx = dataclasses.replace(ctx, clients=dataclasses.replace(ctx.clients, generator=RejectingChat()))
        with caplog.at_level(logging.WARNING, logger="todvoice"):
            for d in _pipeline_corpus(4):
                process_dialogue(d, ctx)
        fallbacks = [r.getMessage() for r in caplog.records if " generator on " in r.getMessage()]
        assert fallbacks
        for message in fallbacks:
            assert re.match(r"(self-correction|restart) generator on run-\d{4} turn \d+ \(", message), message

    def test_validate_reason_is_the_bare_violation_summary(self, tmp_path):
        bad = make_dialogue(
            [(Role.USER, "One."), (Role.USER, "Two."), (Role.USER, "Three."), (Role.ASSISTANT, "Noted.")],
            dialogue_id="bad-0003",
        )
        off = StageToggles(crossturn=False, bargein=False, disfluency=False, emotion=False, synthesis=False)
        (row,) = run_pipeline([bad], PipelineConfig(out_dir=str(tmp_path / "out"), stages=off)).quarantined
        assert row.to_dict() == {
            "dialogue_id": "bad-0003",
            "stage": "validate",
            "reason": "turns.alternation@1; turns.alternation@2",
        }

    def test_bad_assistant_pool_fails_at_load(self, tmp_path):
        user_m, _ = _manifests(tmp_path)
        short_path = tmp_path / "short.json"
        write_speaker_manifest(assistant_pool_profiles()[:3], short_path)
        cfg = PipelineConfig(
            out_dir=str(tmp_path / "out"),
            speaker_manifest=user_m,
            assistant_manifest=str(short_path),
        )
        with pytest.raises(speakers.ConfigError) as info:
            run_pipeline(_pipeline_corpus(2), cfg)
        assert str(info.value) == f"{short_path}: assistant pool must hold exactly 10 speakers, got 3"

    # The public function each STAGES row calls into.
    _CALLEES = {
        "crossturn": "apply_crossturn_stage",
        "bargein": "apply_bargein_stage",
        "disfluency": "apply_disfluency_stage",
        "emotion": "annotate_dialogue",
        "speakers": "sample_user_speaker",
        "synthesis": "synthesize_dialogue",
        "validate": "validate_dialogue",
    }

    @pytest.mark.parametrize("name", [name for name, _, _ in STAGES])
    def test_quarantine_stage_named_by_table_row(self, name, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError(f"{name} broke")

        monkeypatch.setattr(pipeline, self._CALLEES[name], boom)
        user_m, asst_m = _manifests(tmp_path)
        cfg = PipelineConfig(
            out_dir=str(tmp_path / "out"), speaker_manifest=user_m, assistant_manifest=asst_m
        )
        d = _pipeline_corpus(1)[0]
        out, rows, bad = process_dialogue(d, RunContext.build(cfg))
        assert (out, rows) == (None, [])
        assert (bad.dialogue_id, bad.stage, bad.reason) == (d.dialogue_id, name, f"RuntimeError: {name} broke")


class TestLargestRemainder:
    def test_thousand_splits_exactly(self):
        assert largest_remainder_sizes(1000, (0.75, 0.10, 0.15)) == [750, 100, 150]

    def test_published_corpus_size(self):
        assert largest_remainder_sizes(52390, (0.75, 0.10, 0.15)) == [39293, 5239, 7858]

    def test_single_item_goes_to_largest_fraction(self):
        assert largest_remainder_sizes(1, (0.75, 0.10, 0.15)) == [1, 0, 0]

    def test_tie_broken_by_position(self):
        assert largest_remainder_sizes(1, (0.5, 0.5, 0.0)) == [1, 0, 0]

    def test_sizes_always_sum_to_n(self):
        import random

        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(0, 5000)
            cuts = sorted(rng.random() for _ in range(2))
            ratios = (cuts[0], cuts[1] - cuts[0], 1.0 - cuts[1])
            sizes = largest_remainder_sizes(n, ratios)
            assert sum(sizes) == n
            assert all(s >= 0 for s in sizes)


class TestSplitCorpus:
    def test_thousand_dialogues_split_750_100_150(self):
        dialogues = [make_dialogue(dialogue_id=f"d{i:05d}") for i in range(1000)]
        train, valid, test = split_corpus(dialogues)
        assert (len(train), len(valid), len(test)) == (750, 100, 150)

    def test_disjoint_and_exhaustive(self):
        dialogues = [make_dialogue(dialogue_id=f"d{i:05d}") for i in range(97)]
        train, valid, test = split_corpus(dialogues, seed=2)
        ids = [d.dialogue_id for part in (train, valid, test) for d in part]
        assert len(ids) == len(set(ids)) == 97
        assert set(ids) == {d.dialogue_id for d in dialogues}

    def test_same_seed_same_split_any_input_order(self):
        dialogues = [make_dialogue(dialogue_id=f"d{i:05d}") for i in range(60)]
        a = split_corpus(dialogues, seed=4)
        b = split_corpus(list(reversed(dialogues)), seed=4)
        assert [[d.dialogue_id for d in part] for part in a] == [
            [d.dialogue_id for d in part] for part in b
        ]

    def test_different_seeds_differ(self):
        dialogues = [make_dialogue(dialogue_id=f"d{i:05d}") for i in range(200)]
        a, _, _ = split_corpus(dialogues, seed=0)
        b, _, _ = split_corpus(dialogues, seed=1)
        assert [d.dialogue_id for d in a] != [d.dialogue_id for d in b]

    def test_degenerate_ratio_all_train(self):
        dialogues = [make_dialogue(dialogue_id=f"d{i:05d}") for i in range(10)]
        train, valid, test = split_corpus(dialogues, ratios=(1.0, 0.0, 0.0))
        assert len(train) == 10
        assert valid == [] and test == []

    def test_bad_ratios_rejected(self):
        for ratios in ((0.5, 0.5, 0.1), (1.5, -0.25, -0.25), (float("nan"), 0.5, 0.5), (0.5, 0.5)):
            with pytest.raises(ConfigError, match=r"^ratios must be three numbers in \[0, 1\] summing to 1$"):
                split_corpus([], ratios=ratios)


def _word(i: int) -> str:
    i += 1
    out = []
    while i:
        i, r = divmod(i, 26)
        out.append(chr(ord("a") + r))
    return "".join(out)


def _asr_corpus(
    n_dialogues: int = 100, words_per_turn: int = 50
) -> tuple[list[Dialogue], StubDirectory, str]:
    """Dialogues with registered stub audio for every user turn."""
    root = "out"
    profiles = user_pool_profiles()
    by_pool = {}
    for sp in profiles:
        by_pool.setdefault(sp.accent_pool, sp)
    directory = StubDirectory()
    dialogues = []
    for i in range(n_dialogues):
        did = f"asr-{i:04d}"
        texts = []
        for k in range(2):
            words = " ".join(
                _word(i * 997 + k * 131 + j) for j in range(words_per_turn)
            )
            texts.append((Role.USER, words))
            texts.append((Role.ASSISTANT, "Noted."))
        d = make_dialogue(texts, dialogue_id=did)
        turns = []
        for t in d.turns:
            if t.role is Role.USER:
                ref = f"data/audio/{did}/turn{t.index:02d}.wav"
                directory.register(str(Path(root) / ref), t.text, f"spk-{i:04d}")
                turns.append(t.with_(audio_ref=ref, duration_s=1.0))
            else:
                turns.append(t)
        speaker = by_pool["african"] if i % 2 == 0 else by_pool["native"]
        dialogues.append(
            dataclasses.replace(d, turns=tuple(turns), user_speaker=speaker)
        )
    return dialogues, directory, root


class TestWerValidation:
    def test_clean_stub_transcription_gives_zero(self):
        dialogues, directory, root = _asr_corpus(n_dialogues=10)
        asr = StubASRClient(directory, corruption_rate=0.0)
        out = wer_validation(dialogues, sample_n=10, asr=asr, audio_root=root)
        assert out.failed_files == 0
        assert set(out.report) == {"african", "native", "overall"}
        assert all(cell.wer == 0.0 for cell in out.report.values())

    def test_five_percent_corruption_measured(self):
        dialogues, directory, root = _asr_corpus(n_dialogues=100, words_per_turn=50)
        asr = StubASRClient(directory, corruption_rate=0.05, seed=11)
        out = wer_validation(dialogues, sample_n=100, asr=asr, audio_root=root)
        assert abs(out.report["overall"].wer - 0.05) <= 0.01
        for pool in ("african", "native"):
            assert abs(out.report[pool].wer - 0.05) <= 0.02
        assert out.report["overall"].utterances == 200

    def test_sampling_caps_dialogue_count(self):
        dialogues, directory, root = _asr_corpus(n_dialogues=30)
        asr = StubASRClient(directory, corruption_rate=0.0)
        out = wer_validation(dialogues, sample_n=10, asr=asr, audio_root=root)
        assert out.report["overall"].utterances == 20

    def test_sampling_is_seed_deterministic(self):
        dialogues, directory, root = _asr_corpus(n_dialogues=30)
        asr = StubASRClient(directory, corruption_rate=0.02, seed=3)
        a = wer_validation(dialogues, sample_n=8, asr=asr, audio_root=root, seed=5)
        b = wer_validation(dialogues, sample_n=8, asr=asr, audio_root=root, seed=5)
        assert a.report == b.report

    def test_unregistered_audio_counted_not_fatal(self):
        dialogues, directory, root = _asr_corpus(n_dialogues=4)
        broken = dialogues[0]
        turns = [
            t.with_(audio_ref="data/audio/missing.wav")
            if t.index == 0
            else t
            for t in broken.turns
        ]
        dialogues[0] = dataclasses.replace(broken, turns=tuple(turns))
        asr = StubASRClient(directory, corruption_rate=0.0)
        out = wer_validation(dialogues, sample_n=99, asr=asr, audio_root=root)
        assert out.failed_files == 1
        assert out.report["overall"].utterances == 7

    def test_dialogue_without_speaker_reports_unknown(self):
        dialogues, directory, root = _asr_corpus(n_dialogues=2)
        dialogues[0] = dataclasses.replace(dialogues[0], user_speaker=None)
        asr = StubASRClient(directory, corruption_rate=0.0)
        out = wer_validation(dialogues, sample_n=2, asr=asr, audio_root=root)
        assert "unknown" in out.report

    def test_turns_without_audio_skipped(self):
        dialogues, directory, root = _asr_corpus(n_dialogues=1)
        stripped = [t.with_(audio_ref=None) for t in dialogues[0].turns]
        dialogues[0] = dataclasses.replace(dialogues[0], turns=tuple(stripped))
        asr = StubASRClient(directory, corruption_rate=0.0)
        out = wer_validation(dialogues, sample_n=1, asr=asr, audio_root=root)
        assert out.report == {"overall": WerCell(0.0, 0)}
        assert out.failed_files == 0


class TestPublishedWerTable:
    def test_table_renders_from_file(self):
        data = json.loads((_DATA / "published_wer_table.json").read_text())
        report = {
            name: WerCell(row["wer"], row["utterances"]) for name, row in data.items()
        }
        table = format_wer_report(report)
        lines = table.splitlines()
        assert lines[0].split() == ["group", "wer_pct", "utterances"]
        assert [ln.split()[0] for ln in lines[1:]] == list(data)
        rendered = {ln.split()[0]: ln.split()[1] for ln in lines[1:]}
        assert rendered == {
            "african": "5.08",
            "asian": "3.77",
            "indian": "4.95",
            "native": "4.91",
            "overall": "4.69",
        }
