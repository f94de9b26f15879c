"""CLI subcommand round-trips on small corpora."""

from __future__ import annotations

import dataclasses
import json
import logging
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import assistant_pool_profiles, make_dialogue, set_path, user_pool_profiles, write_speaker_manifest
from todvoice import cli
from todvoice.cli import main
from todvoice.clients import ClientError, EmbedClient
from todvoice.corpus import CrossTurnMeta, Emotion, Role, dialogue_to_dict, dumps_dialogue, load_corpus, save_corpus


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()


def _corpus_file(tmp_path: Path, n: int = 2, name: str = "in.jsonl") -> Path:
    dialogues = [make_dialogue(dialogue_id=f"cli-{i:04d}") for i in range(n)]
    path = tmp_path / name
    save_corpus(dialogues, path)
    return path


def _empty_dialogue_file(tmp_path: Path) -> Path:
    """A corpus of one dialogue with no turns, then a well-formed one."""
    empty = dialogue_to_dict(make_dialogue(dialogue_id="a"))
    empty["turns"] = []
    path = tmp_path / "empty.jsonl"
    path.write_text(json.dumps(empty) + "\n" + dumps_dialogue(make_dialogue(dialogue_id="b")) + "\n")
    return path


def _labeled_dialogue(dialogue_id: str, texts=None):
    d = make_dialogue(texts, dialogue_id=dialogue_id)
    return d.with_turns(tuple(t.with_(emotion=Emotion.NEUTRAL) for t in d.turns))


def _labeled_corpus_file(tmp_path: Path, n: int = 2) -> Path:
    path = tmp_path / "labeled.jsonl"
    save_corpus([_labeled_dialogue(f"cli-{i:04d}") for i in range(n)], path)
    return path


class TestIngest:
    def test_generic_round_trip(self, runner, tmp_path):
        original = [make_dialogue(dialogue_id=f"g-{i}") for i in range(3)]
        src = tmp_path / "raw.jsonl"
        src.write_text(
            "\n".join(json.dumps(dialogue_to_dict(d)) for d in original) + "\n"
        )
        out = tmp_path / "out.jsonl"
        result = runner.invoke(main, ["ingest", "--source", "generic", str(src), str(out)])
        assert result.exit_code == 0, result.output
        assert "ingested 3 dialogues" in result.output
        loaded = load_corpus(out)
        assert [d.dialogue_id for d in loaded] == [d.dialogue_id for d in original]

    def test_unknown_source_rejected(self, runner, tmp_path):
        src = tmp_path / "raw.jsonl"
        src.write_text("{}\n")
        result = runner.invoke(main, ["ingest", "--source", "mystery", str(src), str(tmp_path / "o")])
        assert result.exit_code != 0

    @pytest.mark.parametrize("source,record", [
        ("sgd", {"dialogue_id": "s", "turns": [{"speaker": "USER", "utterance": "Hi."},
                                               {"speaker": "USER", "utterance": "A table?"},
                                               {"speaker": "SYSTEM", "utterance": "Sure."}]}),
        ("tm2", {"conversation_id": "t", "utterances": [{"speaker": "USER", "text": "Hi."},
                                                        {"speaker": "USER", "text": "A table?"},
                                                        {"speaker": "ASSISTANT", "text": "Sure."}]}),
    ])
    def test_run_of_one_speaker_ingests_as_one_valid_turn(self, runner, tmp_path, source, record):
        src, out = tmp_path / "raw.json", tmp_path / "out.jsonl"
        src.write_text(json.dumps(record))
        result = runner.invoke(main, ["ingest", "--source", source, str(src), str(out)])
        assert result.exit_code == 0, result.output
        assert [t.text for t in load_corpus(out)[0].turns] == ["Hi. A table?", "Sure."]
        result = runner.invoke(main, ["validate", str(out)])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("source,records,message", [
        pytest.param("sgd", [{"dialogue_id": "s1", "turns": [{"speaker": "USER", "utterance": "Hi."}]},
                             {"dialogue_id": "s2"}],
                     "[1]: KeyError: 'turns'", id="sgd-no-turns"),
        pytest.param("sgd", [{"dialogue_id": "s1", "turns": []}],
                     "[0]: turns.empty: dialogue has no turns", id="sgd-empty"),
        pytest.param("generic", [{**dialogue_to_dict(make_dialogue()), "turns": [{"role": "user", "text": "a"}] * 2}],
                     "[0]: turns.alternation@1: consecutive user turns at 0, 1", id="generic-two-user-turns"),
        pytest.param("sgd", [{"dialogue_id": "s1", "turns": [{"speaker": 5, "utterance": "Hi."}]}],
                     "[0]: AttributeError: 'int' object has no attribute 'upper'", id="sgd-speaker-5"),
        pytest.param("abcd", [{"convo_id": 1, "original": [["customer"]]}],
                     "[0]: ValueError: not enough values to unpack (expected 2, got 1)", id="abcd-short-row"),
        pytest.param("abcd", [{"convo_id": 1, "original": [["customer", "Hi."], ["agent", "Hello."]],
                               "delexed": [["customer", "Hi."]]}],
                     "[0]: ValueError: zip() argument 2 is shorter than argument 1", id="abcd-delexed-short"),
        pytest.param("emowoz", [{"log": [{"text": "Hi."}, {"text": "Hello."}]}],
                     "[0]: KeyError: 'id'", id="emowoz-no-id"),
    ])
    def test_bad_record_is_one_line_naming_it(self, runner, tmp_path, source, records, message):
        src = tmp_path / "raw.json"
        src.write_text(json.dumps(records))
        result = runner.invoke(main, ["ingest", "--source", source, str(src), str(tmp_path / "out.jsonl")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"Error: {src}{message}"]


class TestCorpusFileLayouts:
    """ingest and the corpus-reading commands share one reader."""

    @staticmethod
    def _write(path: Path, layout: str) -> int:
        records = [dialogue_to_dict(make_dialogue(dialogue_id=f"l-{i}")) for i in range(2)]
        if layout == "array":
            path.write_text(json.dumps(records, indent=2))
            return 2
        if layout == "object":
            path.write_text("\n" + json.dumps(records[0], indent=2) + "\n")
            return 1
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return 2

    @pytest.mark.parametrize("suffix", [".json", ".jsonl"])
    @pytest.mark.parametrize("layout", ["array", "object", "ndjson"])
    def test_ingest_and_stats_accept_every_layout(self, runner, tmp_path, layout, suffix):
        src = tmp_path / f"corpus{suffix}"
        n = self._write(src, layout)
        out = tmp_path / "out.jsonl"
        result = runner.invoke(main, ["ingest", "--source", "generic", str(src), str(out)])
        assert result.exit_code == 0, result.output
        assert f"ingested {n} dialogues" in result.output
        result = runner.invoke(main, ["stats", str(src)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["dialogues"] == n


class TestAugment:
    def test_stub_run_writes_everything(self, runner, tmp_path):
        src = _corpus_file(tmp_path)
        out = tmp_path / "aug.jsonl"
        out_dir = tmp_path / "artifacts"
        result = runner.invoke(
            main,
            ["--stub", "augment", str(src), str(out), "--out-dir", str(out_dir)],
        )
        assert result.exit_code == 0, result.output
        assert "augmented 2 dialogues (0 quarantined)" in result.output
        assert len(load_corpus(out)) == 2
        assert (out_dir / "synthesis_manifest.jsonl").exists()
        assert (out_dir / "quarantine.jsonl").read_text() == ""

    def test_no_synthesis_skips_audio(self, runner, tmp_path):
        src = _corpus_file(tmp_path)
        out = tmp_path / "aug.jsonl"
        out_dir = tmp_path / "artifacts"
        result = runner.invoke(
            main,
            ["augment", str(src), str(out), "--out-dir", str(out_dir), "--no-synthesis"],
        )
        assert result.exit_code == 0, result.output
        assert not (out_dir / "synthesis_manifest.jsonl").exists()
        assert all(t.audio_ref is None for d in load_corpus(out) for t in d.turns)

    def test_empty_dialogue_quarantined_at_validate(self, runner, tmp_path):
        out_dir = tmp_path / "artifacts"
        result = runner.invoke(main, ["--stub", "augment", str(_empty_dialogue_file(tmp_path)),
                                      str(tmp_path / "aug.jsonl"), "--out-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        assert "augmented 1 dialogues (1 quarantined)" in result.output
        assert [d.dialogue_id for d in load_corpus(tmp_path / "aug.jsonl")] == ["b"]
        (row,) = [json.loads(line) for line in (out_dir / "quarantine.jsonl").read_text().splitlines()]
        assert row == {"dialogue_id": "a", "stage": "validate", "reason": "turns.empty"}

    def test_seed_changes_output(self, runner, tmp_path):
        src = _corpus_file(tmp_path, n=6)
        blobs = {}
        for seed in (0, 1):
            out = tmp_path / f"aug-{seed}.jsonl"
            result = runner.invoke(
                main,
                ["--seed", str(seed), "augment", str(src), str(out),
                 "--out-dir", str(tmp_path / f"art-{seed}"), "--no-synthesis"],
            )
            assert result.exit_code == 0, result.output
            blobs[seed] = out.read_text()
        assert blobs[0] != blobs[1]


class TestSynthesize:
    def test_renders_labeled_corpus(self, runner, tmp_path):
        src = _labeled_corpus_file(tmp_path)
        out = tmp_path / "with_audio.jsonl"
        out_dir = tmp_path / "audio_root"
        result = runner.invoke(
            main, ["synthesize", str(src), str(out), "--out-dir", str(out_dir)]
        )
        assert result.exit_code == 0, result.output
        dialogues = load_corpus(out)
        assert all(t.audio_ref for d in dialogues for t in d.turns)
        manifest = (out_dir / "synthesis_manifest.jsonl").read_text().splitlines()
        assert len(manifest) == sum(len(d.turns) for d in dialogues)
        first = json.loads(manifest[0])
        assert (out_dir / dialogues[0].turns[0].audio_ref).exists()
        assert first["status"] == "ok"

    def test_quarantine_written_like_augment(self, runner, tmp_path):
        good = _labeled_dialogue("cli-good")
        bad = _labeled_dialogue("cli-bad", [(Role.USER, "One."), (Role.USER, "Two in a row.")])
        src = tmp_path / "mixed.jsonl"
        save_corpus([good, bad], src)
        out = tmp_path / "with_audio.jsonl"
        out_dir = tmp_path / "fresh" / "audio_root"
        result = runner.invoke(main, ["synthesize", str(src), str(out), "--out-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        assert "synthesized 1 dialogues (1 quarantined)" in result.output
        assert [d.dialogue_id for d in load_corpus(out)] == ["cli-good"]
        (row,) = [json.loads(line) for line in (out_dir / "quarantine.jsonl").read_text().splitlines()]
        assert (row["dialogue_id"], row["stage"]) == ("cli-bad", "validate")
        manifest = [json.loads(line) for line in (out_dir / "synthesis_manifest.jsonl").read_text().splitlines()]
        assert {r["dialogue_id"] for r in manifest} == {"cli-good"}
        assert len(manifest) == len(good.turns)

    def test_all_quarantined_into_fresh_out_dir(self, runner, tmp_path):
        src = tmp_path / "bad.jsonl"
        save_corpus([_labeled_dialogue("cli-bad", [(Role.USER, "One."), (Role.USER, "Two.")])], src)
        out_dir = tmp_path / "fresh"
        result = runner.invoke(main, ["synthesize", str(src), str(tmp_path / "o.jsonl"), "--out-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        assert "synthesized 0 dialogues (1 quarantined)" in result.output
        assert not (out_dir / "synthesis_manifest.jsonl").exists()
        assert len((out_dir / "quarantine.jsonl").read_text().splitlines()) == 1

    def test_keeps_the_speakers_augment_assigned(self, runner, tmp_path):
        users, assistants = tmp_path / "speakers.json", tmp_path / "assistants.json"
        write_speaker_manifest(user_pool_profiles(), users)
        write_speaker_manifest(assistant_pool_profiles(), assistants)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"speaker_manifest": str(users), "assistant_manifest": str(assistants)}))
        augmented, synthesized = tmp_path / "aug.jsonl", tmp_path / "syn.jsonl"
        result = runner.invoke(main, ["--config", str(cfg), "--seed", "1", "augment", str(_corpus_file(tmp_path, 4)),
                                      str(augmented), "--out-dir", str(tmp_path / "a"), "--no-synthesis"])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["--config", str(cfg), "--seed", "9", "synthesize", str(augmented),
                                      str(synthesized), "--out-dir", str(tmp_path / "s")])
        assert result.exit_code == 0, result.output
        before, after = load_corpus(augmented), load_corpus(synthesized)
        assert len(after) == len(before) == 4
        assert all(d.user_speaker is not None and d.assistant_speaker is not None for d in before)
        assert [(d.user_speaker, d.assistant_speaker) for d in after] == \
            [(d.user_speaker, d.assistant_speaker) for d in before]
        assert all(t.audio_ref for d in after for t in d.turns)


class TestValidate:
    def test_clean_corpus_passes(self, runner, tmp_path):
        src = _corpus_file(tmp_path)
        result = runner.invoke(main, ["validate", str(src)])
        assert result.exit_code == 0
        assert "all dialogues valid" in result.output

    def test_violations_fail_with_details(self, runner, tmp_path):
        bad = make_dialogue(
            [
                (Role.USER, "One."),
                (Role.USER, "Two in a row."),
                (Role.ASSISTANT, "Noted."),
            ],
            dialogue_id="bad-cli",
        )
        src = tmp_path / "bad.jsonl"
        save_corpus([bad], src)
        result = runner.invoke(main, ["validate", str(src)])
        assert result.exit_code == 1
        assert "turns.alternation" in result.output
        assert "bad-cli" in result.output

    def test_empty_dialogue_fails(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", str(_empty_dialogue_file(tmp_path))])
        assert result.exit_code == 1
        assert result.stdout.splitlines() == ["a\t-\tturns.empty\tdialogue has no turns"]

    def test_turn_duration_out_of_bounds_fails_and_is_quarantined_by_augment(self, runner, tmp_path):
        long = make_dialogue(dialogue_id="long")
        long = long.with_turns((long.turns[0].with_(duration_s=31.0),) + long.turns[1:])
        src = tmp_path / "long.jsonl"
        save_corpus([long, make_dialogue(dialogue_id="ok")], src)
        result = runner.invoke(main, ["validate", str(src)])
        assert result.exit_code == 1
        assert result.stdout.splitlines() == ["long\tturn 0\tturn.duration\t31.00 s outside [0.3, 30.0] s"]
        out_dir = tmp_path / "artifacts"
        result = runner.invoke(main, ["augment", str(src), str(tmp_path / "aug.jsonl"),
                                      "--out-dir", str(out_dir), "--no-synthesis"])
        assert result.exit_code == 0, result.output
        assert [d.dialogue_id for d in load_corpus(tmp_path / "aug.jsonl")] == ["ok"]
        (row,) = [json.loads(line) for line in (out_dir / "quarantine.jsonl").read_text().splitlines()]
        assert row == {"dialogue_id": "long", "stage": "validate", "reason": "turn.duration@0"}


class TestSplit:
    def test_writes_three_files(self, runner, tmp_path):
        src = _corpus_file(tmp_path, n=20)
        out_dir = tmp_path / "splits"
        result = runner.invoke(main, ["split", str(src), str(out_dir)])
        assert result.exit_code == 0, result.output
        assert "split 20 -> 15/2/3" in result.output
        parts = {name: load_corpus(out_dir / f"{name}.jsonl") for name in ("train", "valid", "test")}
        assert (len(parts["train"]), len(parts["valid"]), len(parts["test"])) == (15, 2, 3)
        ids = [d.dialogue_id for chunk in parts.values() for d in chunk]
        assert len(set(ids)) == 20

    def test_custom_ratios(self, runner, tmp_path):
        src = _corpus_file(tmp_path, n=10)
        out_dir = tmp_path / "splits"
        result = runner.invoke(main, ["split", str(src), str(out_dir), "--ratios", "0.8,0.2,0.0"])
        assert result.exit_code == 0, result.output
        assert "split 10 -> 8/2/0" in result.output

    def test_seed_option_changes_assignment(self, runner, tmp_path):
        src = _corpus_file(tmp_path, n=40)
        texts = {}
        for seed in (0, 1):
            out_dir = tmp_path / f"splits-{seed}"
            result = runner.invoke(main, ["--seed", str(seed), "split", str(src), str(out_dir)])
            assert result.exit_code == 0, result.output
            texts[seed] = (out_dir / "train.jsonl").read_text()
        assert texts[0] != texts[1]

    def test_bad_ratios_render_as_clean_error(self, runner, tmp_path):
        src = _corpus_file(tmp_path, n=10)
        for ratios in ("0.5,0.5,0.1", "1.5,-0.25,-0.25", "nan,0.5,0.5", "a,b,c"):
            result = runner.invoke(main, ["split", str(src), str(tmp_path / "x"), "--ratios", ratios])
            assert result.exit_code != 0
            assert result.exception is None or isinstance(result.exception, SystemExit)
            assert result.output == "Error: ratios must be three numbers in [0, 1] summing to 1\n"
            assert not (tmp_path / "x").exists()


_ABSENT = object()  # a key the manifest row leaves out


class TestCleanErrorBoundary:
    def test_unknown_config_key_is_one_line(self, runner, tmp_path):
        src = _corpus_file(tmp_path, n=2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"speling": 1}')
        result = runner.invoke(main, ["--config", str(cfg), "stats", str(src)])
        assert result.exit_code != 0
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "unknown config key 'speling'" in result.output

    @pytest.mark.parametrize("config", [
        '{"clients": {"tts": {"endpont": "x"}}}',
        '{"stages": ["crossturn"]}',
        '{"stub": "no"}',
        '{"stages": {"bargein": "no"}}',
        '{"clients": {"tts": {"max_retries": 1.5, "endpoint": 5}, "judge": {"temperature": "hot"}}}',
        '{"clients": {"asr": {"temperature": 0.7}}}',
        '{"crossturn": {"min_digits": "7"}}',
        '{"disfluency": {"slot_window_words": "2"}}',
        '{"crossturn": {"p_error": true}}',
        '{"pool_weights": {"native": "0.7"}}',
        '{"bargein": {"sample_rate": "0.5"}}',
        '{"bargein": {"sample_rate": 1.5}}',
        '{"crossturn": {"p_error": -0.1}}',
    ])
    def test_bad_config_shape_is_one_line(self, runner, tmp_path, config):
        src = _corpus_file(tmp_path, n=2)
        cfg = tmp_path / "bad.json"
        cfg.write_text(config)
        result = runner.invoke(main, ["--config", str(cfg), "validate", str(src)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: "), result.output

    def test_bad_record_names_its_file_and_position(self, runner, tmp_path):
        doc = dialogue_to_dict(make_dialogue(dialogue_id="ok"))
        src = tmp_path / "bad.jsonl"
        src.write_text(json.dumps(doc) + "\n" + json.dumps({**doc, "dialogue_id": 5}) + "\n")
        result = runner.invoke(main, ["validate", str(src)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"Error: {src}[1]: dialogue_id must be a string, not 5"]

    @pytest.mark.parametrize("state", [5, ["ab"], {"a": 1}])
    def test_bad_turn_state_is_one_line(self, runner, tmp_path, state):
        doc = dialogue_to_dict(make_dialogue(dialogue_id="st"))
        doc["turns"][2]["state"] = state
        src = tmp_path / "bad.jsonl"
        src.write_text(json.dumps(doc) + "\n")
        result = runner.invoke(main, ["validate", str(src)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1, result.output
        assert lines[0].startswith(f"Error: {src}[0]: dialogue 'st': turn 2: state must be an object of string values or null")

    @pytest.mark.parametrize("path,value,message", [pytest.param(*case, id=case[0]) for case in [
        ("turns.0.text", 5, "turn 0: text must be a string, not 5"),
        ("turns.1.duration_s", "3", "turn 1: duration_s must be a number or null, not '3'"),
        ("turns.0.slot_spans", "ab", "turn 0: slot_spans must be an array of [name, start, end] arrays, not 'ab'"),
        ("turns.2.emotion", "happy", 'turn 2: emotion must be null or {"label": 0-6, "name": its name}, not \'happy\''),
        ("goal.structured.sub_goals.0.constraints", ["ab"],
         "goal.structured.sub_goals[0].constraints must be an object of string values, not ['ab']"),
        ("goal.structured.sub_goals.0.requests", [""], "goal.structured.sub_goals[0]: empty slot name in sub-goal"),
        ("turns.1.bargein", {"subtype": "INCOHERENT_RAW"},
         "turn 1: error-recovery barge-in requires erroneous and corrected slots"),
        ("turns.3.bargein", {"subtype": "FAIL_RAW", "erroneous_slots": {"a": "b"}, "corrected_slots": {"a": "c"}},
         "turn 3: clarification barge-in must not carry slot corrections"),
        ("turns.2.bargein", {"subtype": "NOPE_RAW"}, "turn 2: unknown barge-in subtype: 'NOPE_RAW'"),
        ("turns.0.disfluency", [{"type": "XX", "position": 0, "inserted_span": "uh,"}],
         "turn 0: disfluency[0]: unknown disfluency type: 'XX'"),
        ("turns.2.disfluency", [{"type": "FP", "position": -1, "inserted_span": "uh,"}],
         "turn 2: disfluency[0]: disfluency position must be non-negative"),
        ("turns.1.disfluency", [{"type": "COR", "position": 0, "inserted_span": "cheap"}],
         "turn 1: disfluency[0]: COR must record the corrected value"),
        ("turns.0", 5, "turn 0 must be an object, not 5"),
    ]])
    @pytest.mark.parametrize("command", ["validate", "stats", "augment"])
    def test_bad_corpus_value_is_one_line(self, runner, tmp_path, path, value, message, command):
        doc = dialogue_to_dict(make_dialogue(dialogue_id="bad"))
        set_path(doc, path, value)
        src = tmp_path / "bad.jsonl"
        src.write_text(json.dumps(doc) + "\n")
        args = [command, str(src)]
        if command == "augment":
            args += [str(tmp_path / "out.jsonl"), "--out-dir", str(tmp_path / "o"), "--no-synthesis"]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"Error: {src}[0]: dialogue 'bad': {message}"]

    def test_truncation_token_inside_an_assistant_turn_is_a_violation(self, runner, tmp_path):
        doc = dialogue_to_dict(make_dialogue(dialogue_id="bad"))
        doc["turns"][1]["text"] = "Sure, <bargein> which part of town?"
        src = tmp_path / "bad.jsonl"
        src.write_text(json.dumps(doc) + "\n")
        result = runner.invoke(main, ["validate", str(src)])
        assert result.exit_code == 1
        assert result.stdout == "bad\tturn 1\tturn.truncation\ttruncation token not at end of turn\n"

    @pytest.mark.parametrize("changes,message", [
        pytest.param({"age": None}, "age must be an integer, not None", id="age"),
        pytest.param({"ref_duration_s": "12"}, "ref_duration_s must be a number or null, not '12'",
                     id="ref_duration_s"),
        pytest.param({"age": 5, "age_bin": _ABSENT}, "age must be an integer of at least 10, not 5", id="age-5-no-bin"),
        pytest.param({"age": 5, "age_bin": "10s"}, "age must be an integer of at least 10, not 5", id="age-5-in-10s"),
    ])
    def test_bad_speaker_manifest_is_one_line(self, runner, tmp_path, changes, message):
        manifest = tmp_path / "speakers.json"
        write_speaker_manifest(user_pool_profiles(), manifest)
        rows = json.loads(manifest.read_text())
        rows[3] = {k: v for k, v in {**rows[3], **changes}.items() if v is not _ABSENT}
        manifest.write_text(json.dumps(rows))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"speaker_manifest": str(manifest)}))
        result = runner.invoke(main, ["--config", str(cfg), "augment", str(_corpus_file(tmp_path)),
                                      str(tmp_path / "out.jsonl"), "--out-dir", str(tmp_path / "o"), "--no-synthesis"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"Error: {manifest}[3].{message}"]

    def test_bad_assistant_pool_is_one_line(self, runner, tmp_path):
        users, assistants = tmp_path / "speakers.json", tmp_path / "assistants.json"
        write_speaker_manifest(user_pool_profiles(), users)
        write_speaker_manifest(assistant_pool_profiles()[:9], assistants)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"speaker_manifest": str(users), "assistant_manifest": str(assistants)}))
        result = runner.invoke(main, ["--config", str(cfg), "augment", str(_corpus_file(tmp_path)),
                                      str(tmp_path / "out.jsonl"), "--out-dir", str(tmp_path / "o"), "--no-synthesis"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            f"Error: {assistants}: assistant pool must hold exactly 10 speakers, got 9"
        ]

    def test_assistant_pool_with_a_repeated_id_is_one_line(self, runner, tmp_path):
        users, assistants = tmp_path / "speakers.json", tmp_path / "assistants.json"
        write_speaker_manifest(user_pool_profiles(), users)
        pool = assistant_pool_profiles()
        write_speaker_manifest([*pool[:9], dataclasses.replace(pool[9], speaker_id=pool[8].speaker_id)], assistants)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"speaker_manifest": str(users), "assistant_manifest": str(assistants)}))
        result = runner.invoke(main, ["--config", str(cfg), "augment", str(_corpus_file(tmp_path)),
                                      str(tmp_path / "out.jsonl"), "--out-dir", str(tmp_path / "o"), "--no-synthesis"])
        assert result.exit_code == 1
        assert result.output == f"Error: {assistants}: assistant pool speaker ids must be unique\n"

    def test_speaker_manifest_that_is_not_an_array_is_one_line(self, runner, tmp_path):
        manifest = tmp_path / "speakers.json"
        manifest.write_text('{"speaker_id": "s1"}')
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"speaker_manifest": str(manifest)}))
        result = runner.invoke(main, ["--config", str(cfg), "augment", str(_corpus_file(tmp_path)),
                                      str(tmp_path / "out.jsonl"), "--out-dir", str(tmp_path / "o"), "--no-synthesis"])
        assert result.exit_code == 1
        assert result.output == f"Error: {manifest} must be an array, not {{'speaker_id': 's1'}}\n"

    @pytest.mark.parametrize("preds,message", [
        pytest.param([1, 2], " must be an object, not [1, 2]", id="array"),
        pytest.param({"cli-0000": "abc"}, "['cli-0000'] must be an object of string values, not 'abc'", id="state"),
    ])
    def test_bad_predictions_file_is_one_line(self, runner, tmp_path, preds, message):
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps(preds))
        result = runner.invoke(main, ["eval-dialogue", str(_corpus_file(tmp_path, n=2)), "--pred", str(pred_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"Error: {pred_path}{message}"]

    @pytest.mark.parametrize("pointer,message", [
        pytest.param(7, "must be 2, not 7", id="dangling"),
        pytest.param(None, "must be 2, not None", id="missing"),
        pytest.param("2", "must be an integer or null, not '2'", id="string"),
    ])
    def test_wrong_correction_pointer_is_one_line(self, runner, tmp_path, pointer, message):
        err = CrossTurnMeta(slot_name="phone", chunk_index=0, chunk_text="123", is_error=True)
        d = make_dialogue(dialogue_id="ct")
        d = d.with_turns([d.turns[0].with_(crossturn=err), d.turns[1],
                          d.turns[2].with_(crossturn=CrossTurnMeta("phone", 0, "124")), d.turns[3]])
        doc = dialogue_to_dict(d)
        doc["turns"][0]["crossturn"]["corrected_in_turn"] = pointer
        src = tmp_path / "bad.jsonl"
        src.write_text(json.dumps(doc) + "\n")
        result = runner.invoke(main, ["validate", str(src)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"Error: {src}[0]: dialogue 'ct': turn 0: crossturn.corrected_in_turn {message}"]

    @pytest.mark.parametrize("layout,text,message", [
        pytest.param("ndjson", "{ok}\n\n{oops\n", "3: Expecting property name enclosed in double quotes (column 2)",
                     id="ndjson"),
        pytest.param("array", "[\n{ok},\n{oops}\n]\n", "3: Expecting property name enclosed in double quotes (column 2)",
                     id="array"),
        pytest.param("object", '\n{\n  "dialogue_id": oops\n}\n', "3: Expecting value (column 18)", id="object"),
    ])
    @pytest.mark.parametrize("command", ["validate", "ingest"])
    def test_bad_json_names_file_and_line(self, runner, tmp_path, command, layout, text, message):
        src = tmp_path / "bad.jsonl"
        src.write_text(text.replace("{ok}", dumps_dialogue(make_dialogue(dialogue_id="ok"))))
        args = ["--source", "generic", str(src), str(tmp_path / "out.jsonl")] if command == "ingest" else [str(src)]
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"Error: {src}:{message}"]

    def test_malformed_corpus_is_one_line(self, runner, tmp_path):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"dialogue_id": "d", "goal": {}, "turns": []}\n')
        result = runner.invoke(main, ["stats", str(src)])
        assert result.exit_code != 0
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "sub-goal" in result.output


class TestStats:
    def test_reports_corpus_shape(self, runner, tmp_path):
        src = _corpus_file(tmp_path, n=3)
        result = runner.invoke(main, ["stats", str(src)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["dialogues"] == 3
        assert report["utterances"] == 12
        assert "behaviors" in report


class TestEvalTurnTaking:
    def test_scores_stream_file(self, runner, tmp_path):
        frames = []
        for t in range(6):
            frames.append(
                {"stream_id": "s1", "t": t, "truth": "turnend",
                 "p_listen": 1.0, "p_turnend": 0.0, "p_bargein": 0.0}
            )
        frames.append(
            {"stream_id": "s1", "t": 6, "truth": "turnend",
             "p_listen": 0.0, "p_turnend": 1.0, "p_bargein": 0.0}
        )
        src = tmp_path / "streams.jsonl"
        src.write_text("\n".join(json.dumps(f) for f in frames) + "\n")
        result = runner.invoke(
            main,
            ["eval-turn-taking", str(src), "--strategy", "prob_threshold",
             "--t-turnend", "0.5", "--t-bargein", "0.25"],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["strategy"] == "prob_threshold"
        assert report["thresholds"] == {"turnend": 0.5, "bargein": 0.25}
        assert report["rows"]["turnend"]["correct"] == 100.0

    @pytest.mark.parametrize("record", [
        '{"stream_id": "s1", "t": 1, "truth": "turnend", "p_listen": 1.0, "p_turnend": 0.0}',
        '{"stream_id": "s1", "t": 1, "truth": "turnend", "p_listen": 1.0, "p_turnend": "x", "p_bargein": 0.0}',
        '{"stream_id": "s1", "t": 1, "truth": "turnend", "p_listen": 2.0, "p_turnend": 0.0, "p_bargein": 0.0}',
        '{"stream_id": "s1" "t": 1}',
        '{"stream_id": "s1", "t": 1, "truth": "listen", "p_listen": 1.0, "p_turnend": 0.0, "p_bargein": 0.0}',
    ])
    def test_bad_stream_record_is_one_line(self, runner, tmp_path, record):
        src = tmp_path / "streams.jsonl"
        src.write_text(
            '{"stream_id": "s1", "t": 0, "truth": "turnend", "p_listen": 1.0, "p_turnend": 0.0, "p_bargein": 0.0}\n'
            + record + "\n"
        )
        result = runner.invoke(main, ["eval-turn-taking", str(src)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"Error: {src}:2: "), result.output
        assert lines[0].count(":2:") == 1, result.output

    def test_negative_threshold_is_one_line(self, runner, tmp_path):
        src = tmp_path / "streams.jsonl"
        src.write_text('{"stream_id": "s1", "t": 0, "truth": "turnend", "p_listen": 1.0, "p_turnend": 0.0, "p_bargein": 0.0}\n')
        result = runner.invoke(main, ["eval-turn-taking", str(src), "--t-turnend", "-1"])
        assert result.exit_code == 1
        assert result.output == "Error: thresholds must be positive\n"

    def test_stream_line_that_is_not_json_names_file_line_and_column(self, runner, tmp_path):
        src = tmp_path / "streams.jsonl"
        src.write_text('\n  {"stream_id": "s1" "t": 1}\n')
        result = runner.invoke(main, ["eval-turn-taking", str(src)])
        assert result.exit_code == 1
        assert result.output == f"Error: {src}:2: Expecting ',' delimiter (column 22)\n"


class TestEvalDialogue:
    def test_coverage_summary(self, runner, tmp_path):
        src = _corpus_file(tmp_path, n=2)
        result = runner.invoke(main, ["eval-dialogue", str(src)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["dialogues"] == 2
        for key in ("ga", "smr", "smr_constraints", "smr_requests", "disclosure_curve"):
            assert key in report
        assert 0.0 <= report["smr"] <= 1.0

    def test_report_does_not_depend_on_where_the_audio_sits(self, runner, tmp_path):
        src, out, first = _corpus_file(tmp_path, n=8), tmp_path / "aug.jsonl", tmp_path / "A"
        result = runner.invoke(main, ["augment", str(src), str(out), "--out-dir", str(first)])
        assert result.exit_code == 0, result.output
        second = tmp_path / "B" / "nested"
        shutil.copytree(first, second)
        reports = []
        for root in (first, second):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"asr_corruption": 0.15, "out_dir": str(root)}))
            result = runner.invoke(main, ["--config", str(cfg), "eval-dialogue", str(out),
                                          "--wer-sample", "8", "--similarity"])
            assert result.exit_code == 0, result.output
            reports.append(result.stdout)
        assert json.loads(reports[0])["wer"]["overall"]["wer_pct"] > 0
        assert reports[0] == reports[1]

    def test_failed_embedding_costs_its_turn_not_the_run(self, runner, tmp_path, monkeypatch, caplog):
        src, out, audio = _corpus_file(tmp_path, n=4), tmp_path / "aug.jsonl", tmp_path / "audio"
        assert runner.invoke(main, ["augment", str(src), str(out), "--out-dir", str(audio)]).exit_code == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": str(audio)}))
        args = ["--config", str(cfg), "eval-dialogue", str(out), "--similarity"]
        healthy = runner.invoke(main, args)
        assert healthy.exit_code == 0, healthy.output

        class FailsOnce(EmbedClient):
            """Fails the third call, as a service that is down for a moment."""

            def __init__(self, inner):
                self.inner, self.paths = inner, []

            def embed(self, audio_path):
                self.paths.append(audio_path)
                if len(self.paths) == 3:
                    raise ClientError("call failed after 3 attempts: 503")
                return self.inner.embed(audio_path)

        real_build, wrapped = cli.build_clients, []

        def build(config):
            clients = real_build(config)
            wrapped.append(FailsOnce(clients.embed))
            return dataclasses.replace(clients, embed=wrapped[0])

        monkeypatch.setattr(cli, "build_clients", build)
        with caplog.at_level(logging.WARNING, logger="todvoice"):
            result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        # the stub embeds all of a speaker's turns alike, so one turn fewer leaves the means as they were
        assert result.stdout == healthy.stdout
        failed = Path(wrapped[0].paths[2])
        (warning,) = [r.getMessage() for r in caplog.records]
        assert warning == (f"embedding failed on {failed.parent.name} turn {int(failed.stem[4:])}; "
                           "turn skipped: call failed after 3 attempts: 503")

    def test_curve_csv_and_predictions(self, runner, tmp_path):
        src = _corpus_file(tmp_path, n=2)
        csv_path = tmp_path / "curve.csv"
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps({"cli-0000": {"restaurant-food": "italian"}}))
        result = runner.invoke(
            main,
            ["eval-dialogue", str(src), "--curve-csv", str(csv_path), "--pred", str(pred_path)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert "slot_f1" in report
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "turn,coverage"
        assert len(lines) >= 2
