"""The JSON boundary: config, corpus and speaker manifests are checked against
the dataclass annotations of the fields they fill, and a bad value is one
`Error:` line that says where it is, never a traceback."""

from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import set_path
from todvoice import corpus, pipeline
from todvoice.checked import TYPES, build, dump
from todvoice.cli import main
from todvoice.clients import ClientConfig
from todvoice.corpus import BargeInMeta, CrossTurnMeta, DisfluencyMeta, SpeakerProfile, SubGoal
from todvoice.pipeline import PipelineConfig

GOLDEN_CORPUS = Path(__file__).parent / "data" / "golden_corpus.jsonl"


def _full_record() -> dict:
    """The last golden record (pre-augmented: speakers, emotions, audio) with
    its goal's domains and intents, a cross-turn chunk and a self-correction
    (COR) on turn 0 and a barge-in on turn 1, so every kind of field the reader
    knows is present. No later user turn re-dictates the chunk, so its
    correction pointer is null."""
    rec = json.loads(GOLDEN_CORPUS.read_text(encoding="utf-8").splitlines()[-1])
    rec["goal"]["structured"].update(domains=["train"], intents=["book_train"])
    turn = rec["turns"][0]
    turn["crossturn"] = {
        "slot_name": "day", "chunk_index": 0, "chunk_text": "wed", "is_error": True, "corrected_in_turn": None,
    }
    head, value = turn["text"][: turn["slot_spans"][0][1]], "wednesday"
    turn["text"] = f"{head}tuesday— no, {value}."
    turn["tagged"] = f"{head}tuesday— [COR] no, {value}."
    turn["slot_spans"] = [["day", len(turn["text"]) - 1 - len(value), len(turn["text"]) - 1]]
    turn["disfluency"] = [{"type": "COR", "position": 1, "inserted_span": "tuesday", "original_value": value}]
    rec["turns"][1]["bargein"] = {
        "type": "ERROR_RECOVERY", "subtype": "INCOHERENT_RAW",
        "erroneous_slots": {"day": "tuesday"}, "corrected_slots": {"day": "wednesday"},
    }
    return rec


FULL = _full_record()

# JSON kinds a field may hold and still load; any other kind is a bad value.
_TEXT, _NUMBER, _OBJECT, _ARRAY = {"str"}, {"int", "float"}, {"object"}, {"array"}
_NULLABLE = {"null"}
TURN_FIELDS = {
    "role": _TEXT, "text": _TEXT, "tagged": _TEXT | _NULLABLE, "slot_spans": _ARRAY,
    "emotion": _OBJECT | _NULLABLE, "bargein": _OBJECT | _NULLABLE, "disfluency": _ARRAY,
    "crossturn": _OBJECT | _NULLABLE, "audio_path": _TEXT | _NULLABLE,
    "duration_s": _NUMBER | _NULLABLE, "state": _OBJECT | _NULLABLE,
}
SPEAKER_FIELDS = {
    "speaker_id": _TEXT, "category": _TEXT, "country": _TEXT, "age": {"int"}, "age_bin": _TEXT,
    "sex": _TEXT, "ref_audio": _TEXT | _NULLABLE, "ref_duration_s": _NUMBER | _NULLABLE,
}
PATHS = {
    **{f"turns.{i}.{key}": kinds for i in (0, 1, 2) for key, kinds in TURN_FIELDS.items()},
    "dialogue_id": _TEXT, "source": _TEXT, "goal.text": _TEXT,
    # A stored domain or intent list loads only as the one derived from the sub-goals.
    "goal.structured.domains": _ARRAY, "goal.structured.intents": _ARRAY,
    "goal.structured.sub_goals.0.constraints": _OBJECT,
    "goal.structured.sub_goals.0.requests": _ARRAY,
    "turns.1.bargein.subtype": _TEXT,
    # A stored type loads only as the one its subtype names.
    "turns.1.bargein.type": _TEXT,
    "turns.1.bargein.erroneous_slots": _OBJECT | _NULLABLE,
    "turns.1.bargein.corrected_slots": _OBJECT | _NULLABLE,
    "turns.0.crossturn.slot_name": _TEXT, "turns.0.crossturn.chunk_index": {"int"},
    "turns.0.crossturn.chunk_text": _TEXT, "turns.0.crossturn.is_error": {"bool"},
    # A stored pointer loads only as the one derived from the turns.
    "turns.0.crossturn.corrected_in_turn": _NULLABLE,
    "turns.0.disfluency.0.type": _TEXT, "turns.0.disfluency.0.position": {"int"},
    "turns.0.disfluency.0.inserted_span": _TEXT, "turns.0.disfluency.0.original_value": _TEXT | _NULLABLE,
    "speaker": _OBJECT | _NULLABLE, "assistant_speaker": _OBJECT | _NULLABLE,
    **{f"{who}.{key}": kinds for who in ("speaker", "assistant_speaker") for key, kinds in SPEAKER_FIELDS.items()},
}
_SHORT = st.text(alphabet="abz_ 09", max_size=4)
VALUES = {
    "int": st.integers(-3, 40),
    "float": st.floats(-50, 50, allow_nan=False),
    "bool": st.booleans(),
    "str": _SHORT,
    "array": st.lists(st.one_of(st.integers(0, 9), _SHORT), max_size=3),
    "object": st.dictionaries(_SHORT, _SHORT, max_size=2),
    "null": st.none(),
}


def _where(path: str) -> tuple[str, str]:
    """What an error about path must name: its dialogue and turn, and its key."""
    parts = path.split(".")
    if path == "dialogue_id":
        return "", "dialogue_id"
    turn = f"turn {parts[1]}: " if parts[0] == "turns" else ""
    return f"dialogue '{FULL['dialogue_id']}': {turn}", parts[-1]


def test_every_wrong_kind_at_every_path_is_a_corpus_error_that_says_where():
    one_of_each = {"int": 7, "float": 2.5, "bool": True, "str": "x", "array": ["x"], "object": {"x": "y"}, "null": None}
    for path, kinds in PATHS.items():
        context, key = _where(path)
        for kind in one_of_each.keys() - kinds:
            rec = copy.deepcopy(FULL)
            set_path(rec, path, one_of_each[kind])
            with pytest.raises(corpus.CorpusError) as info:
                corpus.loads_dialogue(json.dumps(rec))
            assert str(info.value).startswith(context) and key in str(info.value), (path, kind, str(info.value))


@settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_bad_field_is_one_error_line_and_what_loads_is_a_fixed_point(tmp_path, data):
    path = data.draw(st.sampled_from(sorted(PATHS)), label="path")
    kind = data.draw(st.sampled_from(sorted(VALUES)), label="kind")
    value = data.draw(VALUES[kind], label="value")
    rec = copy.deepcopy(FULL)
    set_path(rec, path, value)
    text = json.dumps(rec)
    try:
        once = corpus.dumps_dialogue(corpus.loads_dialogue(text))
    except corpus.CorpusError:
        once = None
    else:
        assert corpus.dumps_dialogue(corpus.loads_dialogue(once)) == once
    assert once is None or kind in PATHS[path], f"{path} = {value!r} loaded"

    src = tmp_path / "in.jsonl"
    src.write_text(text + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    for args in (["validate", src], ["stats", src], ["augment", src, out, "--out-dir", tmp_path / "o", "--no-synthesis"]):
        result = CliRunner().invoke(main, [str(a) for a in args])
        assert result.exception is None or isinstance(result.exception, SystemExit), result.output
        if once is None:
            context, key = _where(path)
            (line,) = result.output.splitlines()
            assert result.exit_code == 1
            assert line.startswith(f"Error: {src}[0]: {context}"), line
            # A value of the wrong JSON kind is named by its key; a value of
            # the right kind can break a rule of its dataclass instead.
            assert key in line or kind in PATHS[path], line


# Ways turn 0's tagged text can disagree with its text and disfluency metadata.
_BAD_TAGGED = {
    "markers without metadata": lambda turn: turn.pop("disfluency"),
    "metadata without markers": lambda turn: turn.pop("tagged"),
    "marker out of place": lambda turn: turn.update(tagged=turn["tagged"].replace("— [COR] no, ", "— no, [COR] ")),
    "reparandum not before its marker": lambda turn: turn["disfluency"][0].update(inserted_span="monday"),
}


@pytest.mark.parametrize("case", sorted(_BAD_TAGGED))
def test_a_tagged_text_that_disagrees_is_one_error_line_naming_tagged(tmp_path, case):
    rec = copy.deepcopy(FULL)
    _BAD_TAGGED[case](rec["turns"][0])
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    result = CliRunner().invoke(main, ["validate", str(src)])
    (line,) = result.output.splitlines()
    assert result.exit_code == 1
    assert line.startswith(f"Error: {src}[0]: dialogue '{FULL['dialogue_id']}': turn 0: tagged must be"), line


# A stored value the reader derives from the rest, with a wrong one of the right kind.
_DERIVED = {
    "turns.1.bargein.type": ("EFFICIENCY", 'turn 1: bargein.type must be "ERROR_RECOVERY", not \'EFFICIENCY\''),
    "goal.structured.domains": (["hotel"], 'goal.structured.domains must be ["train"], not [\'hotel\']'),
    "goal.structured.intents": (["book_train", "book_train"],
                                'goal.structured.intents must be ["book_train"], not [\'book_train\', \'book_train\']'),
}


@pytest.mark.parametrize("path", sorted(_DERIVED))
def test_a_stored_value_the_reader_derives_must_be_the_derived_one(path):
    value, message = _DERIVED[path]
    rec = copy.deepcopy(FULL)
    set_path(rec, path, value)
    with pytest.raises(corpus.CorpusError) as info:
        corpus.loads_dialogue(json.dumps(rec))
    assert str(info.value) == f"dialogue '{FULL['dialogue_id']}': {message}"


def test_a_record_may_leave_out_what_the_reader_derives():
    rec = copy.deepcopy(FULL)
    del rec["turns"][1]["bargein"]["type"], rec["goal"]["structured"]["domains"], rec["goal"]["structured"]["intents"]
    assert corpus.loads_dialogue(json.dumps(rec)) == corpus.loads_dialogue(json.dumps(FULL))


def _bad_json_run(tmp_path: Path, which: str) -> tuple[Path, list[str]]:
    """A CLI run whose config, speaker manifest or eval-dialogue --pred file is
    not JSON on its second line: (that file, the CLI's argument list)."""
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(FULL) + "\n", encoding="utf-8")
    bad = tmp_path / f"{which}.json"
    bad.write_text('{\n  "a": 1,,\n}\n', encoding="utf-8")
    if which == "config":
        return bad, ["--config", str(bad), "validate", str(src)]
    if which == "speakers":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"speaker_manifest": str(bad)}), encoding="utf-8")
        return bad, ["--config", str(cfg), "augment", str(src), str(tmp_path / "out.jsonl"),
                     "--out-dir", str(tmp_path / "o"), "--no-synthesis"]
    return bad, ["eval-dialogue", str(src), "--pred", str(bad)]


@pytest.mark.parametrize("which", ["config", "speakers", "pred"])
def test_a_file_that_is_not_json_is_one_error_line_naming_it_and_its_line(tmp_path, which):
    bad, args = _bad_json_run(tmp_path, which)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    (line,) = result.output.splitlines()
    assert line == f"Error: {bad}:2: Expecting property name enclosed in double quotes (column 10)"


def _checked_annotations() -> list[tuple[str, str]]:
    sections = list(pipeline._SECTION_TYPES.values())
    scalars = [f for f in dataclasses.fields(PipelineConfig) if f.name not in pipeline._SECTION_TYPES and f.name != "clients"]
    slots = [f for f in dataclasses.fields(BargeInMeta) if f.name.endswith("_slots")]
    classes = (*sections, ClientConfig, SubGoal, CrossTurnMeta, DisfluencyMeta, SpeakerProfile)
    fields = scalars + slots + [f for cls in classes for f in dataclasses.fields(cls)]
    return [(f.name, f.type) for f in fields] + list(corpus._TURN_PLAIN.items())


def test_every_checked_field_has_an_annotation_the_table_knows():
    assert set(pipeline._SECTION_TYPES) == {"stages", "crossturn", "bargein", "disfluency", "pool_weights"}
    unknown = [(name, annotation) for name, annotation in _checked_annotations() if annotation not in TYPES]
    assert unknown == []


# dump's three rules, each on a record: a field under its key or left out by
# keys, a field that is None left out, and a frozenset as a sorted array.
_DUMPED = {
    "key map and skip": (
        DisfluencyMeta("COR", 1, "tuesday", "wednesday", start=4, end=18), {"type": "kind", "start": None, "end": None},
        {"kind": "COR", "position": 1, "inserted_span": "tuesday", "original_value": "wednesday"},
    ),
    "None left out": (
        SpeakerProfile("spk1", "native", "US", 30, "20-30s", "female"), corpus._SPEAKER_KEYS,
        {"speaker_id": "spk1", "category": "native", "country": "US", "age": 30, "age_bin": "20-30s", "sex": "female"},
    ),
    "frozenset sorted": (
        SubGoal("train", "book_train", {"day": "monday"}, frozenset({"price", "duration"})), {},
        {"domain": "train", "intent": "book_train", "constraints": {"day": "monday"}, "requests": ["duration", "price"]},
    ),
}


@pytest.mark.parametrize("case", sorted(_DUMPED))
def test_dump_writes_in_field_order_what_build_reads_back(case):
    record, keys, written = _DUMPED[case]
    assert list(dump(record, keys).items()) == list(written.items())
    left_out = {f.name: f.default for f in dataclasses.fields(record) if keys.get(f.name, f.name) is None}
    read_keys = {name: key for name, key in keys.items() if key is not None}
    assert build(type(record), case, written, ValueError, read_keys) == dataclasses.replace(record, **left_out)
