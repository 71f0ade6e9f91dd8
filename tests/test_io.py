"""Strict JSON file parsing."""

import json

import pytest

from rsklab import CapacityError, InputError, Universe
from rsklab.io import load_covering, load_frame, load_relation, load_subset
from rsklab.relations import MAX_INPUT_SIZE


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestRelationFiles:
    def test_labelled_universe(self, tmp_path):
        path = write(
            tmp_path,
            "r.json",
            {"universe": ["a", "b", "c"], "pairs": [["a", "b"], ["b", "c"]]},
        )
        relation = load_relation(path)
        assert relation.universe.labels == ("a", "b", "c")
        assert relation.pairs() == ((0, 1), (1, 2))

    def test_sized_universe_with_string_indices(self, tmp_path):
        path = write(tmp_path, "r.json", {"universe": {"size": 3}, "pairs": [["0", "1"]]})
        relation = load_relation(path)
        assert relation.universe.labels is None
        assert relation.pairs() == ((0, 1),)

    def test_bare_integer_indices(self, tmp_path):
        path = write(tmp_path, "r.json", {"universe": {"size": 2}, "pairs": [[0, 1]]})
        assert load_relation(path).pairs() == ((0, 1),)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write(
            tmp_path, "r.json", {"universe": {"size": 2}, "pairs": [], "name": "x"}
        )
        with pytest.raises(InputError, match="unknown key"):
            load_relation(path)

    def test_unknown_element_is_located(self, tmp_path):
        path = write(tmp_path, "r.json", {"universe": ["a"], "pairs": [["a", "z"]]})
        with pytest.raises(InputError, match=r"pairs\[0\].*'z'"):
            load_relation(path)

    def test_malformed_pair_shape(self, tmp_path):
        path = write(tmp_path, "r.json", {"universe": ["a"], "pairs": [["a"]]})
        with pytest.raises(InputError, match="2-element"):
            load_relation(path)

    def test_json_syntax_error_reports_position(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"universe": ["a"],\n "pairs": }')
        with pytest.raises(InputError, match="line 2"):
            load_relation(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_relation(tmp_path / "absent.json")

    def test_duplicate_labels_rejected(self, tmp_path):
        path = write(tmp_path, "r.json", {"universe": ["a", "a"], "pairs": []})
        with pytest.raises(InputError, match="distinct"):
            load_relation(path)


class TestSubsetFiles:
    def test_labels_resolve_against_given_universe(self, tmp_path):
        path = write(tmp_path, "s.json", {"set": ["a", "c"]})
        subset = load_subset(path, Universe(3, ("a", "b", "c")))
        assert subset.members() == (0, 2)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write(tmp_path, "s.json", {"set": [], "extra": 1})
        with pytest.raises(InputError, match="unknown key"):
            load_subset(path, Universe(2))

    def test_unknown_member(self, tmp_path):
        path = write(tmp_path, "s.json", {"set": ["q"]})
        with pytest.raises(InputError, match="'q'"):
            load_subset(path, Universe(2, ("a", "b")))


class TestCoveringFiles:
    def test_round_trip(self, tmp_path):
        path = write(
            tmp_path,
            "c.json",
            {"universe": ["a", "b", "c"], "blocks": [["a", "b"], ["b", "c"]]},
        )
        covering = load_covering(path)
        assert [b.members() for b in covering.blocks] == [(0, 1), (1, 2)]

    def test_covering_validation_applies(self, tmp_path):
        path = write(tmp_path, "c.json", {"universe": ["a", "b"], "blocks": [["a"]]})
        with pytest.raises(InputError, match="cover"):
            load_covering(path)


class TestFrameFiles:
    def test_frame_closes_implication(self, tmp_path):
        path = write(
            tmp_path,
            "f.json",
            {"propositions": ["p", "q", "r"], "implies": [["p", "q"]]},
        )
        frame = load_frame(path)
        assert frame.propositions.labels == ("p", "q", "r")
        assert frame.implies.has(0, 0) and frame.implies.has(0, 1)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write(tmp_path, "f.json", {"propositions": ["p"], "40": 2, "implies": []})
        with pytest.raises(InputError, match="unknown key"):
            load_frame(path)


class TestSizeCeiling:
    @pytest.mark.parametrize(
        "loader, obj",
        [
            (load_relation, {"universe": {"size": 10**9}, "pairs": []}),
            (load_relation, {"universe": [str(i) for i in range(17)], "pairs": []}),
            (load_covering, {"universe": {"size": 10**9}, "blocks": []}),
            (load_frame, {"propositions": {"size": 10**9}, "implies": []}),
        ],
    )
    def test_oversized_universe_rejected_before_building(self, tmp_path, loader, obj):
        path = write(tmp_path, "big.json", obj)
        with pytest.raises(CapacityError, match="per-input limit"):
            loader(path)

    def test_limit_itself_is_admitted(self, tmp_path):
        path = write(
            tmp_path, "r.json", {"universe": {"size": MAX_INPUT_SIZE}, "pairs": []}
        )
        assert load_relation(path).universe.size == MAX_INPUT_SIZE
