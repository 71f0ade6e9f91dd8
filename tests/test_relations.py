"""Relation construction, classification, closures and enumeration."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rsklab import (
    BinaryRelation,
    CapacityError,
    Covering,
    InputError,
    Pairing,
    RelationClass,
    Subset,
    Universe,
    build_relation,
    classify,
    enumerate_coverings,
    enumerate_relations,
    generate_table,
    intersect,
    reflexive_closure,
    search_class,
    transitive_closure,
    verify_reduction,
)
from rsklab.relations import class_cube, rows_from_encoding

from oracles import (
    CLASS_FLAGS,
    class_encodings,
    classify_pairs,
    in_class,
    least_violations,
    pairs_from_encoding,
)


@st.composite
def row_relations(draw, max_n=5):
    # uniform rows; st.integers favours small, sparse ones
    n = draw(st.integers(0, max_n))
    rng = draw(st.randoms(use_true_random=False))
    return n, tuple(rng.getrandbits(n) for _ in range(n))


def rel(n, pairs):
    return build_relation(Universe(n), pairs)


class TestUniverseAndSubset:
    def test_labels_must_match_size(self):
        with pytest.raises(InputError):
            Universe(2, ("a",))

    def test_labels_must_be_distinct(self):
        with pytest.raises(InputError):
            Universe(2, ("a", "a"))

    def test_default_labels_are_indices(self):
        u = Universe(3)
        assert u.label(2) == "2"
        assert u.index("1") == 1

    def test_subset_algebra(self):
        u = Universe(4)
        a = Subset.of(u, [0, 2])
        b = Subset.of(u, [2, 3])
        assert (a | b).members() == (0, 2, 3)
        assert (a & b).members() == (2,)
        assert (a - b).members() == (0,)
        assert a.complement().members() == (1, 3)
        assert a <= a | b
        assert 2 in a and 1 not in a

    def test_subset_rejects_foreign_universe(self):
        with pytest.raises(InputError):
            Subset.of(Universe(2), [0]) | Subset.of(Universe(3), [0])

    def test_subset_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Subset.of(Universe(2), [2])

    @given(st.integers(0, 5), st.data())
    def test_complement_is_involutive(self, n, data):
        bits = data.draw(st.integers(0, (1 << n) - 1))
        s = Subset(Universe(n), bits)
        assert s.complement().complement() == s


class TestBuildRelation:
    def test_empty(self):
        assert rel(2, []).rows == (0, 0)

    def test_duplicate_pairs_collapse(self):
        assert rel(2, [(0, 1), (0, 1)]).pairs() == ((0, 1),)

    def test_chain_witness(self):
        chain = rel(3, [(0, 1), (1, 2)])
        assert chain.pairs() == ((0, 1), (1, 2))
        assert repr(chain) == "BinaryRelation(n=3, {(0,1), (1,2)})"
        labelled = build_relation(Universe(2, ("a", "b")), [(1, 0)])
        assert repr(labelled) == "BinaryRelation(n=2, {(b,a)})"

    def test_out_of_range_pair_is_named(self):
        with pytest.raises(InputError, match=r"\(0, 5\)"):
            rel(3, [(0, 5)])

    @given(st.integers(0, 4), st.data())
    def test_encoding_round_trip(self, n, data):
        encoding = data.draw(st.integers(0, (1 << (n * n)) - 1))
        r = BinaryRelation.from_encoding(Universe(n), encoding)
        assert len(r.universe) == n
        assert r.encoding == encoding
        assert build_relation(Universe(n), r.pairs()) == r

    def test_transpose(self):
        assert rel(3, [(0, 1), (1, 2)]).transpose().pairs() == ((1, 0), (2, 1))

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: Universe(-1),
                "universe size must be nonnegative, got -1",
            ),
            (
                lambda: Subset(Universe(3), 8),
                "bitmask 0x8 does not fit a universe of size 3",
            ),
            (
                lambda: Subset(Universe(3), -1),
                "bitmask -0x1 does not fit a universe of size 3",
            ),
            (
                lambda: BinaryRelation(Universe(2), (0,)),
                "1 rows given for a universe of size 2",
            ),
            (
                lambda: BinaryRelation(Universe(2), (0, 4)),
                "row 1 does not fit the universe",
            ),
            (
                lambda: BinaryRelation(Universe(2), (-1, 0)),
                "row 0 does not fit the universe",
            ),
            (
                lambda: BinaryRelation.from_encoding(Universe(2), 16),
                "encoding 16 does not fit 2x2 relations",
            ),
            (
                lambda: BinaryRelation.from_encoding(Universe(2), -1),
                "encoding -1 does not fit 2x2 relations",
            ),
        ],
        ids=[
            "universe-negative", "subset-over", "subset-negative", "row-count",
            "row-over", "row-negative", "encoding-over", "encoding-negative",
        ],
    )
    def test_out_of_range_construction_is_rejected(self, build, message):
        with pytest.raises(InputError) as exc:
            build()
        assert str(exc.value) == message


class TestClassify:
    def test_identity_is_equivalence(self):
        flags = classify(rel(3, [(0, 0), (1, 1), (2, 2)]))
        assert (flags.reflexive, flags.symmetric, flags.transitive, flags.serial) == (
            True,
            True,
            True,
            True,
        )
        assert flags.equivalence and flags.preorder

    def test_empty_relation_vacuous_quantifiers(self):
        flags = classify(rel(2, []))
        assert (flags.reflexive, flags.symmetric, flags.transitive, flags.serial) == (
            False,
            True,
            True,
            False,
        )

    def test_two_step_chain(self):
        flags = classify(rel(3, [(0, 1), (1, 2)]))
        assert (flags.reflexive, flags.symmetric, flags.transitive, flags.serial) == (
            False,
            False,
            False,
            False,
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_agrees_with_triple_loop_oracle(self, n):
        u = Universe(n)
        for encoding in range(1 << (n * n)):
            r = BinaryRelation.from_encoding(u, encoding)
            flags = classify(r)
            assert (
                flags.reflexive,
                flags.symmetric,
                flags.transitive,
                flags.serial,
            ) == classify_pairs(n, pairs_from_encoding(n, encoding))


class TestIntersect:
    def test_singleton(self):
        r = rel(2, [(0, 1)])
        assert intersect([r]) == r

    def test_identity_absorbs_full(self):
        u = Universe(3)
        identity = build_relation(u, [(i, i) for i in range(3)])
        full = build_relation(u, [(x, y) for x in range(3) for y in range(3)])
        assert intersect([identity, full]) == identity

    def test_two_partitions_give_identity(self):
        u = Universe(3)
        a = build_relation(u, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
        b = build_relation(u, [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)])
        assert intersect([a, b]).pairs() == ((0, 0), (1, 1), (2, 2))

    def test_mismatched_universes(self):
        with pytest.raises(InputError):
            intersect([rel(2, []), rel(3, [])])

    def test_empty_list(self):
        with pytest.raises(InputError):
            intersect([])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equivalences_are_closed_under_intersection(self, n):
        eqs = list(enumerate_relations(n, RelationClass.Rrst))
        for a in eqs:
            for b in eqs:
                assert classify(intersect([a, b])).equivalence


class TestClosures:
    def test_chain_closure_adds_shortcut(self):
        assert transitive_closure(rel(3, [(0, 1), (1, 2)])).pairs() == (
            (0, 1),
            (0, 2),
            (1, 2),
        )

    def test_transitive_input_is_fixed_point(self):
        r = rel(3, [(0, 1), (0, 2), (1, 2)])
        assert transitive_closure(r) == r

    def test_cycle_closure(self):
        assert transitive_closure(rel(2, [(0, 1), (1, 0)])).pairs() == (
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        )

    def test_reflexive_closure(self):
        assert reflexive_closure(rel(2, [(0, 1)])).pairs() == ((0, 0), (0, 1), (1, 1))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_idempotent_monotone_and_transitive(self, n):
        u = Universe(n)
        for encoding in range(1 << (n * n)):
            r = BinaryRelation.from_encoding(u, encoding)
            closed = transitive_closure(r)
            assert classify(closed).transitive
            assert all(c & ~d == 0 for c, d in zip(r.rows, closed.rows))
            assert transitive_closure(closed) == closed


class TestEnumeration:
    def test_counts_for_full_class(self):
        assert sum(1 for _ in enumerate_relations(1)) == 2
        assert sum(1 for _ in enumerate_relations(2)) == 16
        assert sum(1 for _ in enumerate_relations(0)) == 1

    def test_two_equivalences_on_two_elements(self):
        got = list(enumerate_relations(2, RelationClass.Rrst))
        assert [r.pairs() for r in got] == [
            ((0, 0), (1, 1)),
            ((0, 0), (0, 1), (1, 0), (1, 1)),
        ]

    def test_distinct_and_ascending(self):
        encodings = [r.encoding for r in enumerate_relations(2)]
        assert encodings == sorted(set(encodings)) == list(range(16))

    @pytest.mark.parametrize("relation_class", list(RelationClass))
    def test_class_stream_equals_filtered_full_stream(self, relation_class):
        for n in (1, 2, 3):
            filtered = [
                r for r in enumerate_relations(n) if relation_class.contains(r)
            ]
            assert list(enumerate_relations(n, relation_class)) == filtered

    @given(row_relations())
    def test_admits_is_the_oracle_conjunction(self, relation):
        n, rows = relation
        pairs = {(x, y) for x in range(n) for y in range(n) if rows[x] >> y & 1}
        for relation_class in RelationClass:
            assert relation_class.admits(n, rows) == in_class(
                relation_class.value, classify_pairs(n, pairs)
            ), relation_class
            assert relation_class.admits(n, rows) == (
                relation_class.violation(n, rows) is None
            ), relation_class

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_class_members_are_the_oracle_members_in_order(self, n):
        for relation_class in RelationClass:
            got = list(class_cube(n, relation_class).members())
            assert got == class_encodings(n, relation_class.value)
            for encoding in got:
                rows = rows_from_encoding(n, encoding)
                assert {
                    (x, y) for x in range(n) for y in range(n) if rows[x] >> y & 1
                } == pairs_from_encoding(n, encoding)

    # Labelled class sizes at n=5: equivalences are Bell(5), partial
    # equivalences Bell(6), reflexive symmetric relations 2^10, pre-orders
    # OEIS A000798, symmetric relations 2^15, transitive relations A006905.
    @pytest.mark.parametrize(
        "relation_class,size",
        [
            (RelationClass.Rrst, 52),
            (RelationClass.Rst, 203),
            (RelationClass.Rrs, 1024),
            (RelationClass.Rrt, 6942),
            (RelationClass.Rs, 32768),
            (RelationClass.Rt, 154303),
        ],
    )
    def test_class_members_at_five_are_exactly_the_class(self, relation_class, size):
        # strictly ascending, all members, as many as the class has: together
        # these make the stream exactly the class, in order
        previous = -1
        count = 0
        for encoding in class_cube(5, relation_class).members():
            assert encoding > previous
            assert relation_class.admits(5, rows_from_encoding(5, encoding))
            previous = encoding
            count += 1
        assert count == size

    # At n=6: equivalences Bell(6), partial equivalences Bell(7), pre-orders
    # OEIS A000798.
    @pytest.mark.parametrize(
        "relation_class,size",
        [
            (RelationClass.Rrst, 203),
            (RelationClass.Rst, 877),
            (RelationClass.Rrt, 209527),
        ],
    )
    def test_class_sizes_at_six(self, relation_class, size):
        encodings = list(class_cube(6, relation_class).members())
        assert len(encodings) == size
        assert encodings == sorted(set(encodings))

    def test_capacity_bound(self):
        with pytest.raises(CapacityError):
            next(enumerate_relations(5))

    def test_capacity_env_override(self, monkeypatch):
        monkeypatch.setenv("RSK_MAX_N", "2")
        with pytest.raises(CapacityError):
            next(enumerate_relations(3))
        monkeypatch.setenv("RSK_MAX_N", "5")
        assert next(enumerate_relations(5)).universe.size == 5

    @pytest.mark.parametrize(
        "run",
        [
            lambda n: next(enumerate_relations(n)),
            lambda n: search_class(1, Pairing.DUAL_SUCC, RelationClass.Rrst, n),
            lambda n: generate_table(Pairing.DUAL_SUCC, n),
            lambda n: next(enumerate_coverings(n)),
        ],
        ids=[
            "enumerate_relations",
            "search_class",
            "generate_table",
            "enumerate_coverings",
        ],
    )
    def test_each_exhaustive_entry_point_is_gated(self, monkeypatch, run):
        with pytest.raises(InputError, match="must be nonnegative, got -1"):
            run(-1)
        monkeypatch.setenv("RSK_MAX_N", "2")
        with pytest.raises(CapacityError):
            run(3)
        run(2)

    def test_verify_reduction_has_only_the_per_input_gate(self, monkeypatch):
        """It tabulates one covering's subsets, so RSK_MAX_N does not bound it."""
        def covering(n):
            return Covering.from_masks(Universe(n), [(1 << n) - 1])

        monkeypatch.setenv("RSK_MAX_N", "2")
        assert verify_reduction(covering(5))
        with pytest.raises(
            CapacityError, match=r"^universe size 17 exceeds the per-input limit 16$"
        ):
            verify_reduction(covering(17))


class TestViolations:
    """``violation`` is the oracle's least violator of the first failing predicate.

    For Rr, Rs, Rt and Rser that is the one predicate's least violator; the
    composite classes try theirs in the order of ``CLASS_FLAGS``.
    """

    @staticmethod
    def check(n, rows):
        pairs = {(x, y) for x in range(n) for y in range(n) if rows[x] >> y & 1}
        violations = least_violations(n, pairs)
        for relation_class in RelationClass:
            expected = next(
                (
                    violations[i]
                    for i in CLASS_FLAGS[relation_class.value]
                    if violations[i] is not None
                ),
                None,
            )
            assert relation_class.violation(n, rows) == expected, relation_class

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_relation_up_to_three(self, n):
        for encoding in range(1 << n * n):
            self.check(n, rows_from_encoding(n, encoding))

    # The least open triple is (x, y, z) with y minimal before z, not the
    # other way round; telling the two apart needs an x with two successors
    # and two missing targets, so n >= 4: here (0, 1, 3), not (0, 2, 0).
    @example((4, (0b0110, 0b1000, 0b0001, 0b0000)))
    @given(row_relations())
    def test_random_relations_up_to_five(self, relation):
        self.check(*relation)


class TestRelationClassTags:
    @pytest.mark.parametrize(
        "tag,expected",
        [
            ("R", RelationClass.R),
            ("any", RelationClass.R),
            ("r", RelationClass.Rr),
            ("rt", RelationClass.Rrt),
            ("ser", RelationClass.Rser),
            ("rst", RelationClass.Rrst),
            ("SER", RelationClass.Rser),
            ("Rst", RelationClass.Rst),
        ],
    )
    def test_parse(self, tag, expected):
        assert RelationClass.from_tag(tag) == expected

    @pytest.mark.parametrize("tag", ["RS", "RT", "RST", "RSER"])
    def test_uppercase_r_names_a_class_exactly(self, tag):
        with pytest.raises(InputError):
            RelationClass.from_tag(tag)

    def test_reject_unknown(self):
        with pytest.raises(InputError):
            RelationClass.from_tag("reflexive-ish")
