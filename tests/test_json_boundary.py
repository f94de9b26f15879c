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
from todvoice.checked import TYPES
from todvoice.cli import main
from todvoice.clients import ClientConfig
from todvoice.corpus import BargeInMeta, CrossTurnMeta, DisfluencyMeta, SpeakerProfile, SubGoal
from todvoice.pipeline import PipelineConfig

GOLDEN_CORPUS = Path(__file__).parent / "data" / "golden_corpus.jsonl"


def _full_record() -> dict:
    """The last golden record (pre-augmented: speakers, emotions, audio) with a
    cross-turn chunk and a self-correction (COR) on turn 0 and a barge-in on
    turn 1, so every kind of field the reader knows is present. No later user
    turn re-dictates the chunk, so its correction pointer is null."""
    rec = json.loads(GOLDEN_CORPUS.read_text(encoding="utf-8").splitlines()[-1])
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
    "goal.structured.sub_goals.0.constraints": _OBJECT,
    "goal.structured.sub_goals.0.requests": _ARRAY,
    "turns.1.bargein.subtype": _TEXT,
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


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
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
            assert line.startswith(f"Error: {context}"), line
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
    assert line.startswith(f"Error: dialogue '{FULL['dialogue_id']}': turn 0: tagged must be"), line


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
