"""Checked reading of JSON that other tools wrote (config, corpus, speaker
manifests and predictions), and the writing of records that `build` reads.

A value is typed by the annotation of the dataclass field it fills. Under
`from __future__ import annotations` that annotation is a string, and TYPES
maps each one a loader meets to what the JSON value must be and a check
("dict" and "list" stand for a JSON object or array that is not one field).
Nothing is coerced: a bad value raises the caller's error type, worded
"<where> must be <what>, not <value>", and a text that is not JSON raises it
naming the file and the line. `dump` is `build`'s inverse: it writes a
record's fields under the same keys.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import reprlib
from pathlib import Path
from typing import Any, Callable, Collection, Mapping

_PLAIN: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "bool": ("true or false", lambda v: v is True or v is False),
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", lambda v: type(v) is float or type(v) is int),
    "str": ("a string", lambda v: isinstance(v, str)),
    "dict[str, str]": (
        "an object of string values",
        lambda v: isinstance(v, dict) and all(isinstance(x, str) for x in v.values()),
    ),
    "frozenset[str]": ("an array of strings", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
    "dict": ("an object", lambda v: isinstance(v, dict)),
    "list": ("an array", lambda v: isinstance(v, list)),
}

# annotation -> (what the JSON value must be, check)
TYPES: dict[str, tuple[str, Callable[[Any], bool]]] = {
    **_PLAIN,
    **{f"{a} | None": (f"{what} or null", lambda v, ok=ok: v is None or ok(v)) for a, (what, ok) in _PLAIN.items()},
}


def must(where: str, what: str, value: Any) -> str:
    """The wording of every bad value."""
    return f"{where} must be {what}, not {reprlib.repr(value)}"


def parse_json(path: str | Path, error: type[Exception], text: str | None = None, lines_before: int = 0) -> Any:
    """The JSON value of text (default: the file at path), whose first line is
    line lines_before + 1 of the file; a text that is not JSON is error."""
    if text is None:
        text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{lines_before + exc.lineno}: {exc.msg} (column {exc.colno})") from exc


def check(where: str, value: Any, annotation: str, error: type[Exception]) -> Any:
    """value, if it is what annotation names; else error."""
    what, ok = TYPES[annotation]
    if not ok(value):
        raise error(must(where, what, value))
    return value


def known_keys(where: str, value: Any, known: Collection[str], error: type[Exception]) -> Mapping[str, Any]:
    """value, if it is a JSON object whose keys are all in known; else error."""
    bad = set(check(where, value, "dict", error)) - set(known)
    if bad:
        raise error(f"unknown keys in {where}: {sorted(bad)}")
    return value


@functools.cache
def _fields(cls: Any) -> tuple[tuple[str, bool, str, Callable[[Any], bool]], ...]:
    """(name, required, what, check) of each field of cls, from its annotation."""
    return tuple(
        (f.name, f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING, *TYPES[f.type])
        for f in dataclasses.fields(cls)
    )


def build(cls: Any, where: str, value: Any, error: type[Exception], keys: Mapping[str, str] = {}) -> Any:
    """cls from the JSON object value; other keys are ignored.

    Each field is read from its key (keys maps a field to its JSON key where
    the two differ) and checked against its annotation. Only a field with a
    default may be absent. A ValueError or error from cls itself is reworded
    as one error under where.
    """
    check(where, value, "dict", error)
    kwargs = {}
    for name, required, what, ok in _fields(cls):
        key = keys.get(name, name)
        if required or key in value:
            v = kwargs[name] = value.get(key)
            if not ok(v):
                raise error(must(f"{where}.{key}", what, v))
    try:
        return cls(**kwargs)
    except (ValueError, error) as exc:
        raise error(f"{where}: {exc}") from exc


def dump(obj: Any, keys: Mapping[str, str | None] = {}) -> dict[str, Any]:
    """The JSON object of the dataclass obj that build reads it back from.

    Each field is written under its key (keys maps a field to its JSON key, or
    to None to leave it out). A field whose value is None is left out, a
    frozenset is written as a sorted array and a dict as a copy.
    """
    out = {}
    for name, *_ in _fields(type(obj)):
        key, v = keys.get(name, name), getattr(obj, name)
        if key is not None and v is not None:
            out[key] = sorted(v) if isinstance(v, frozenset) else dict(v) if isinstance(v, dict) else v
    return out
