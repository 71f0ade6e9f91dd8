"""Strict JSON file formats for relations, sets, coverings and frames.

Formats::

    relation  {"universe": ["a","b","c"], "pairs": [["a","b"],["b","c"]]}
    set       {"set": ["a","c"]}
    covering  {"universe": ["a","b","c"], "blocks": [["a","b"],["b","c"]]}
    frame     {"propositions": ["p","q","r"], "implies": [["p","q"]]}

A universe may alternatively be given as {"size": 3}, in which case the
labels are "0".."2". Elements may be written as labels or bare indices.
Every key shown is required and unknown keys are rejected; malformed
files fail with a line/field diagnostic.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any

from .coverings import Covering
from .errors import CapacityError, InputError
from .logic import ImplicationFrame
from .relations import BinaryRelation, Subset, Universe, check_input_size


def _load_json(path: str | Path) -> Any:
    try:
        with open(path, "rb", buffering=0) as file:
            text = file.read().decode("utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    if "\r" in text:
        # text mode's universal newlines, so error lines and columns match it
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    except ValueError:
        # the decoder's other ValueError: an int literal over the digit limit
        raise InputError(f"{path}: a number has too many digits") from None


def _require_object(value: Any, context: str, keys: set[str]) -> dict:
    """The object itself, once its keys are exactly ``keys``."""
    if not isinstance(value, dict):
        raise InputError(f"{context}: expected a JSON object")
    unknown = set(value) - keys
    if unknown:
        raise InputError(
            f"{context}: unknown key(s) {sorted(unknown)}; allowed: {sorted(keys)}"
        )
    missing = keys - set(value)
    if missing:
        raise InputError(f"{context}: missing key(s) {sorted(missing)}")
    return value


def parse_universe(value: Any, context: str) -> Universe:
    if isinstance(value, list):
        if not all(isinstance(name, str) for name in value):
            raise InputError(f"{context}: universe labels must be strings")
        size, labels = len(value), tuple(value)
    elif isinstance(value, dict):
        _require_object(value, context, {"size"})
        size, labels = value["size"], None
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
            raise InputError(f"{context}: size must be a nonnegative integer")
    else:
        raise InputError(
            f"{context}: universe must be a list of labels or {{\"size\": n}}"
        )
    try:
        check_input_size(size)
        return Universe(size, labels)
    except (CapacityError, InputError) as exc:
        raise type(exc)(f"{context}: {exc}") from None


def resolve_element(universe: Universe, token: Any) -> int:
    """The index a label names, or the error a bad token gives.

    Callers take a bare in-range int index themselves and pass every other
    token here. An error names the token, callers its place.
    """
    if isinstance(token, bool):
        raise InputError(f"{token!r} is not an element")
    if isinstance(token, int):
        raise InputError(f"index {token} out of range")
    if isinstance(token, str):
        return universe.index(token)
    raise InputError(f"{token!r} is not an element")


def _parse_relation(universe: Universe, value: Any, context: str) -> BinaryRelation:
    if not isinstance(value, list):
        raise InputError(f"{context}: expected a list of pairs")
    size = universe.size
    rows = [0] * size
    try:
        for i, entry in enumerate(value):
            if not isinstance(entry, list) or len(entry) != 2:
                raise InputError("a pair must be a 2-element list")
            x, y = entry
            if not (type(x) is int and 0 <= x < size):
                x = resolve_element(universe, x)
            if not (type(y) is int and 0 <= y < size):
                y = resolve_element(universe, y)
            rows[x] |= 1 << y
    except InputError as exc:
        raise InputError(f"{context}[{i}]: {exc}") from None
    return BinaryRelation(universe, tuple(rows))


def _parse_elements(universe: Universe, value: Any, context: str) -> Subset:
    if not isinstance(value, list):
        raise InputError(f"{context}: expected a list of elements")
    size, bits = universe.size, 0
    try:
        for i, token in enumerate(value):
            if not (type(token) is int and 0 <= token < size):
                token = resolve_element(universe, token)
            bits |= 1 << token
    except InputError as exc:
        raise InputError(f"{context}[{i}]: {exc}") from None
    return Subset(universe, bits)


def load_relation(path: str | Path) -> BinaryRelation:
    obj = _require_object(_load_json(path), f"{path}", {"universe", "pairs"})
    universe = parse_universe(obj["universe"], f"{path}: universe")
    return _parse_relation(universe, obj["pairs"], f"{path}: pairs")


def load_subset(path: str | Path, universe: Universe) -> Subset:
    obj = _require_object(_load_json(path), f"{path}", {"set"})
    return _parse_elements(universe, obj["set"], f"{path}: set")


def load_covering(path: str | Path) -> Covering:
    obj = _require_object(_load_json(path), f"{path}", {"universe", "blocks"})
    universe = parse_universe(obj["universe"], f"{path}: universe")
    value = obj["blocks"]
    if not isinstance(value, list):
        raise InputError(f"{path}: blocks: expected a list of blocks")
    blocks = tuple(
        _parse_elements(universe, entry, f"{path}: blocks[{i}]")
        for i, entry in enumerate(value)
    )
    try:
        return Covering(universe, blocks)
    except InputError as exc:
        raise InputError(f"{path}: blocks: {exc}") from None


def load_frame(path: str | Path) -> ImplicationFrame:
    obj = _require_object(_load_json(path), f"{path}", {"propositions", "implies"})
    universe = parse_universe(obj["propositions"], f"{path}: propositions")
    relation = _parse_relation(universe, obj["implies"], f"{path}: implies")
    return ImplicationFrame(universe, relation)


def dump_json(obj: Any) -> str:
    """The one JSON writer for reports: two-space indent, UTF-8 kept as is.

    Writes what ``json.dumps(obj, indent=2, ensure_ascii=False) + "\\n"``
    does, without the pure-Python encoder that ``indent`` selects, for the
    types reports hold: dicts with str keys, lists, tuples, str, int, bool
    and None. Any other type raises ``TypeError``.
    """
    return _encode(obj, "\n") + "\n"


def _encode(value: Any, newline: str) -> str:
    """``value`` as JSON, its nested lines starting with ``newline`` plus two spaces."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        items, brackets = [_encode(item, inner) for item in value], "[]"
    elif isinstance(value, dict):
        # encode_basestring raises TypeError on a key that is not a str
        items = [encode_basestring(key) + ": " + _encode(item, inner)
                 for key, item in value.items()]
        brackets = "{}"
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]
