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
from pathlib import Path
from typing import Any

from .coverings import Covering
from .errors import InputError
from .logic import ImplicationFrame
from .relations import (
    BinaryRelation,
    Subset,
    Universe,
    build_relation,
    check_input_size,
)


def _load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None
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
        check_input_size(len(value))
        return Universe(len(value), tuple(value))
    if isinstance(value, dict):
        _require_object(value, context, {"size"})
        size = value["size"]
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
            raise InputError(f"{context}: size must be a nonnegative integer")
        check_input_size(size)
        return Universe(size)
    raise InputError(f"{context}: universe must be a list of labels or {{\"size\": n}}")


def resolve_element(universe: Universe, token: Any, context: str) -> int:
    if isinstance(token, bool):
        raise InputError(f"{context}: {token!r} is not an element")
    if isinstance(token, int):
        if not 0 <= token < universe.size:
            raise InputError(f"{context}: index {token} out of range")
        return token
    if isinstance(token, str):
        try:
            return universe.index(token)
        except InputError:
            raise InputError(f"{context}: unknown element {token!r}") from None
    raise InputError(f"{context}: {token!r} is not an element")


def _parse_pairs(universe: Universe, value: Any, context: str) -> list[tuple[int, int]]:
    if not isinstance(value, list):
        raise InputError(f"{context}: expected a list of pairs")
    pairs = []
    for i, entry in enumerate(value):
        if not isinstance(entry, list) or len(entry) != 2:
            raise InputError(f"{context}[{i}]: a pair must be a 2-element list")
        x = resolve_element(universe, entry[0], f"{context}[{i}]")
        y = resolve_element(universe, entry[1], f"{context}[{i}]")
        pairs.append((x, y))
    return pairs


def _parse_elements(universe: Universe, value: Any, context: str) -> Subset:
    if not isinstance(value, list):
        raise InputError(f"{context}: expected a list of elements")
    members = [
        resolve_element(universe, token, f"{context}[{i}]")
        for i, token in enumerate(value)
    ]
    return Subset.of(universe, members)


def load_relation(path: str | Path) -> BinaryRelation:
    obj = _require_object(_load_json(path), f"{path}", {"universe", "pairs"})
    universe = parse_universe(obj["universe"], f"{path}: universe")
    pairs = _parse_pairs(universe, obj["pairs"], f"{path}: pairs")
    return build_relation(universe, pairs)


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
    return Covering(universe, blocks)


def load_frame(path: str | Path) -> ImplicationFrame:
    obj = _require_object(_load_json(path), f"{path}", {"propositions", "implies"})
    universe = parse_universe(obj["propositions"], f"{path}: propositions")
    pairs = _parse_pairs(universe, obj["implies"], f"{path}: implies")
    return ImplicationFrame(universe, build_relation(universe, pairs))


def dump_json(obj: Any) -> str:
    """The one JSON writer for reports: two-space indent, UTF-8 kept as is."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def subset_to_labels(subset: Subset) -> list[str]:
    return list(subset.labels())
