"""Strict JSON file parsing."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsklab import CapacityError, ImplicationFrame, InputError, Universe, build_relation
from rsklab.io import (
    _load_json,
    dump_json,
    load_covering,
    load_frame,
    load_relation,
    load_subset,
)
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


# Each bad element token, with the message its element context gets.
BAD_TOKENS = [
    (True, "True is not an element"),
    (3, "index 3 out of range"),
    (-1, "index -1 out of range"),
    ("z", "unknown element 'z'"),
    (None, "None is not an element"),
    (1.5, "1.5 is not an element"),
    ([0], "[0] is not an element"),
]
LABELS = ["a", "b", "c"]


def load_set(path):
    return load_subset(path, Universe(3, tuple(LABELS)))


# Each list of elements: its loader, and the file where that list holds one
# good entry and then ``entry``.
CONTAINERS = {
    "pairs": (load_relation, lambda entry: {"universe": LABELS,
                                            "pairs": [["a", "b"], entry]}),
    "implies": (load_frame, lambda entry: {"propositions": LABELS,
                                           "implies": [["a", "b"], entry]}),
    "set": (load_set, lambda entry: {"set": ["a", entry]}),
    "blocks": (load_covering, lambda entry: {"universe": LABELS,
                                             "blocks": [LABELS, entry]}),
}


def load_message(tmp_path, loader, obj):
    """The file written from ``obj`` and the whole message ``loader`` raises."""
    path = write(tmp_path, "in.json", obj)
    with pytest.raises(InputError) as exc:
        loader(path)
    return path, str(exc.value)


def load_entry(tmp_path, container, entry):
    loader, file_of = CONTAINERS[container]
    return load_message(tmp_path, loader, file_of(entry))


class TestExactMessages:
    """The whole message of each malformed element, in every file format."""

    @pytest.mark.parametrize("token, message", BAD_TOKENS, ids=repr)
    @pytest.mark.parametrize("container", ["pairs", "implies"])
    def test_bad_token_in_a_pair(self, tmp_path, container, token, message):
        path, text = load_entry(tmp_path, container, ["a", token])
        assert text == f"{path}: {container}[1]: {message}"

    @pytest.mark.parametrize("token, message", BAD_TOKENS, ids=repr)
    def test_bad_token_in_a_set(self, tmp_path, token, message):
        path, text = load_entry(tmp_path, "set", token)
        assert text == f"{path}: set[1]: {message}"

    @pytest.mark.parametrize("token, message", BAD_TOKENS, ids=repr)
    def test_bad_token_in_a_block(self, tmp_path, token, message):
        path, text = load_entry(tmp_path, "blocks", ["a", token])
        assert text == f"{path}: blocks[1][1]: {message}"

    @pytest.mark.parametrize("entry", ["ab", {"a": "b"}, ["a"], ["a", "b", "c"]],
                             ids=repr)
    @pytest.mark.parametrize("container", ["pairs", "implies"])
    def test_malformed_pair(self, tmp_path, container, entry):
        path, text = load_entry(tmp_path, container, entry)
        assert text == f"{path}: {container}[1]: a pair must be a 2-element list"

    def test_block_that_is_not_a_list(self, tmp_path):
        path, text = load_entry(tmp_path, "blocks", "a")
        assert text == f"{path}: blocks[1]: expected a list of elements"

    @pytest.mark.parametrize(
        "loader, obj, message",
        [
            (load_relation, {"universe": LABELS, "pairs": "ab"},
             "pairs: expected a list of pairs"),
            (load_frame, {"propositions": LABELS, "implies": {}},
             "implies: expected a list of pairs"),
            (load_set, {"set": "a"}, "set: expected a list of elements"),
            (load_covering, {"universe": LABELS, "blocks": "a"},
             "blocks: expected a list of blocks"),
        ],
        ids=["pairs", "implies", "set", "blocks"],
    )
    def test_container_that_is_not_a_list(self, tmp_path, loader, obj, message):
        path, text = load_message(tmp_path, loader, obj)
        assert text == f"{path}: {message}"


class TestMixedTokens:
    """Bare in-range indices are read inline; every other token keeps its message."""

    @pytest.mark.parametrize("container", ["pairs", "implies"])
    def test_indices_and_labels_name_the_same_pairs(self, tmp_path, container):
        loader, _ = CONTAINERS[container]
        key = "universe" if container == "pairs" else "propositions"
        labelled = loader(write(tmp_path, "l.json", {key: LABELS, container: [
            ["a", "b"], ["c", "a"], ["b", "b"]]}))
        mixed = loader(write(tmp_path, "m.json", {key: LABELS, container: [
            [0, "b"], ["c", 0], [1, 1]]}))
        assert mixed == labelled

    @pytest.mark.parametrize("entry, message", [
        ([0, 3], "index 3 out of range"),
        ([3, 0], "index 3 out of range"),
        ([2, -1], "index -1 out of range"),
        ([0, "z"], "unknown element 'z'"),
        ([False, 0], "False is not an element"),
    ], ids=repr)
    def test_a_bad_token_beside_an_index(self, tmp_path, entry, message):
        path, text = load_entry(tmp_path, "pairs", entry)
        assert text == f"{path}: pairs[1]: {message}"

    @pytest.mark.parametrize("tokens, message", [
        ([0, 2, 3], "set[2]: index 3 out of range"),
        ([2, "c", -1], "set[2]: index -1 out of range"),
        ([1, "z"], "set[1]: unknown element 'z'"),
    ], ids=repr)
    def test_a_bad_set_element_beside_indices(self, tmp_path, tokens, message):
        path, text = load_message(tmp_path, load_set, {"set": tokens})
        assert text == f"{path}: {message}"

    def test_indices_and_labels_name_the_same_set(self, tmp_path):
        mixed = load_set(write(tmp_path, "s.json", {"set": [2, "a", 0]}))
        assert mixed.members() == (0, 2)


@st.composite
def pair_files(draw):
    """A universe of n <= 6, its pairs (duplicated and shuffled), and the
    file entries that name them, each token a bare index or a label."""
    n = draw(st.integers(0, 6))
    labels = draw(st.none() | st.lists(st.text(), min_size=n, max_size=n, unique=True))
    universe = Universe(n, labels)
    pairs = []
    if n:
        index = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(index, index), max_size=3 * n))
        if pairs:
            pairs += draw(st.lists(st.sampled_from(pairs), max_size=n))
        pairs = draw(st.permutations(pairs))
    token = st.sampled_from(["index", "label"])
    entries = [
        [x if draw(token) == "index" else universe.label(x) for x in pair]
        for pair in pairs
    ]
    return universe, pairs, {"size": n} if labels is None else labels, entries


class TestOnePassMatchesBuildRelation:
    """The loaders build a relation's rows as they read its pairs, into
    the relation that ``build_relation`` makes of the same pairs."""

    @settings(max_examples=150, deadline=None)
    @given(case=pair_files())
    def test_relation_and_frame_files(self, tmp_path_factory, case):
        universe, pairs, named, entries = case
        relation = build_relation(universe, pairs)
        path = tmp_path_factory.getbasetemp() / "pairs.json"
        path.write_text(json.dumps({"universe": named, "pairs": entries}))
        assert load_relation(path) == relation
        path.write_text(json.dumps({"propositions": named, "implies": entries}))
        assert load_frame(path) == ImplicationFrame(universe, relation)


def text_mode_load(path):
    """The reader that binary reads replaced: a text-mode ``open``, whose
    universal newlines read CR and CRLF as LF. The oracle of its messages."""
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
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
        raise InputError(f"{path}: a number has too many digits") from None


def outcome(load, path):
    """The value ``load`` reads from ``path``, or its whole error message."""
    try:
        return "value", load(path)
    except InputError as exc:
        return "error", str(exc)


SYNTAX_ERROR = b'{"universe": ["a"],\n "pairs": [["a",\n "a"] }\n'


class TestReadMatchesTextMode:
    """``_load_json`` reads bytes, yet reads and fails as text mode did."""

    @pytest.mark.parametrize("data", [
        SYNTAX_ERROR,
        SYNTAX_ERROR.replace(b"\n", b"\r\n"),
        SYNTAX_ERROR.replace(b"\n", b"\r"),
        SYNTAX_ERROR.replace(b"\n", b"\r\r\n"),
        b'{"set":\r\n ["a\r\nb"]}',
        b'\xef\xbb\xbf{"set": []}',
        b'{"set": ["a"],\r\n "x": "\xc3\xa9\xff"}',
        b'{"set":\r\n [\r' + b"[" * 100_000,
        b'{"set": [' + b"7" * 5000 + b"]}",
        b'{"set":\r\n ["a",\r "b"]}\r\n',
    ], ids=["lf", "crlf", "cr", "cr-crlf", "cr-in-string", "bom", "bad-utf8",
            "deep", "digits", "valid"])
    def test_file(self, tmp_path, data):
        path = tmp_path / "in.json"
        path.write_bytes(data)
        assert outcome(_load_json, path) == outcome(text_mode_load, path)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_ends_keep_the_line_and_column(self, tmp_path, newline):
        lf, other = tmp_path / "lf.json", tmp_path / "other.json"
        lf.write_bytes(SYNTAX_ERROR)
        other.write_bytes(SYNTAX_ERROR.replace(b"\n", newline))
        _, lf_text = outcome(_load_json, lf)
        _, text = outcome(_load_json, other)
        assert lf_text.endswith(": line 3 column 7: Expecting ',' delimiter")
        assert text == lf_text.replace(str(lf), str(other))

    def test_invalid_utf8_names_its_byte(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_bytes(b'{"set":\r\n ["\xc3\xa9", "\xe2\x82"]}')
        assert outcome(_load_json, path) == (
            "error", f"{path}: not UTF-8 text (byte 18)")

    @pytest.mark.parametrize("name", ["absent.json", "."])
    def test_unreadable_path(self, tmp_path, name):
        path = tmp_path / name
        kind, text = outcome(_load_json, path)
        assert kind == "error" and (kind, text) == outcome(text_mode_load, path)


# quotes, backslashes, control characters, non-ASCII and astral characters
TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\t\n\x0c\r\x1f\x7fé \U0001f600'),
    st.characters(),
))
TREES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=-(1 << 5000), max_value=1 << 5000),
        st.sampled_from([(1 << 5000) - 1, -(1 << 4999)]),
        TEXT,
    ),
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(TEXT, children),
    ),
    max_leaves=30,
)


class TestDumpJson:
    @settings(max_examples=200, deadline=None)
    @given(value=TREES)
    def test_matches_the_indenting_encoder(self, value):
        assert dump_json(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"

    @pytest.mark.parametrize("value", [
        1.5, {1, 2}, {"a": [0, 2.0]}, [frozenset()], {1: "a"}, {None: 0},
    ], ids=repr)
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            dump_json(value)
