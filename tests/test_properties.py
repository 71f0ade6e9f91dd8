"""Property rows: single-assignment evaluation, per-relation quantification
and the class-wide counterexample search."""

import copy
import functools
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsklab import (
    BinaryRelation,
    InputError,
    Pairing,
    PreconditionError,
    RelationClass,
    RskError,
    Subset,
    Universe,
    build_relation,
    check_relation,
    eval_property,
    generate_table,
    property_row,
    search_class,
)
from rsklab import properties, relations
from rsklab.cli import main
from rsklab.operators import approx_tables
from rsklab.properties import (
    PROPERTY_ROWS,
    class_verdicts,
    relation_failures,
    scan_class_failures,
)
from rsklab.relations import class_cube, class_rows, rows_from_encoding

from oracles import (
    ONE_SET_PREDICATES,
    class_encodings,
    plain_failures,
    reference_scan,
)

U3 = Universe(3)
CHAIN = build_relation(U3, [(0, 1), (1, 2)])
IDENTITY3 = build_relation(U3, [(i, i) for i in range(3)])

TWO_SET_ROWS = {8, 9, 10, 11, 12, 13}

GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"


class TestCatalog:
    def test_exactly_23_rows_in_order(self):
        assert [row.index for row in PROPERTY_ROWS] == list(range(1, 24))

    def test_two_set_rows(self):
        assert {row.index for row in PROPERTY_ROWS if row.two_set} == TWO_SET_ROWS

    def test_every_one_set_row_is_declared_by_inclusions(self):
        declared = {row.index for row in PROPERTY_ROWS if row.inclusions}
        assert declared == set(ONE_SET_PREDICATES) == set(range(1, 24)) - TWO_SET_ROWS

    def test_index_bounds(self):
        with pytest.raises(InputError):
            property_row(0)
        with pytest.raises(InputError):
            property_row(24)


class TestEvalProperty:
    def test_row6_under_identity_holds_everywhere(self):
        for bits in range(8):
            assert eval_property(6, Pairing.DUAL_SUCC, IDENTITY3, Subset(U3, bits))

    def test_row18_fails_on_the_chain(self):
        assert not eval_property(18, Pairing.DUAL_SUCC, CHAIN, Subset.of(U3, [2]))

    def test_row22_nondual_holds_for_arbitrary_relations(self):
        for n in (1, 2):
            u = Universe(n)
            for encoding in range(1 << (n * n)):
                r = BinaryRelation.from_encoding(u, encoding)
                for bits in range(1 << n):
                    assert eval_property(22, Pairing.NONDUAL, r, Subset(u, bits))

    def test_arity_enforced(self):
        with pytest.raises(InputError):
            eval_property(8, Pairing.DUAL_SUCC, CHAIN, Subset.empty(U3))
        with pytest.raises(InputError):
            eval_property(
                6, Pairing.DUAL_SUCC, CHAIN, Subset.empty(U3), Subset.empty(U3)
            )

    @pytest.mark.parametrize(
        "index, sets",
        [
            (6, [Subset.empty(Universe(2))]),
            (8, [Subset.empty(U3), Subset.empty(Universe(2))]),
        ],
        ids=["x", "y"],
    )
    def test_foreign_universe_is_rejected(self, index, sets):
        with pytest.raises(InputError) as exc:
            eval_property(index, Pairing.DUAL_SUCC, CHAIN, *sets)
        assert str(exc.value) == "set and relation belong to different universes"

    def test_two_set_row(self):
        x_set, y_set = Subset.of(U3, [0]), Subset.of(U3, [0, 1])
        assert eval_property(8, Pairing.DUAL_SUCC, CHAIN, x_set, y_set)

    def test_pawlak_requires_equivalence(self):
        with pytest.raises(PreconditionError):
            eval_property(6, Pairing.PAWLAK, CHAIN, Subset.empty(U3))


class TestCheckRelation:
    def test_duality_holds_for_every_relation_under_dual_pairing(self):
        for n in (1, 2):
            u = Universe(n)
            for encoding in range(1 << (n * n)):
                r = BinaryRelation.from_encoding(u, encoding)
                assert check_relation(1, Pairing.DUAL_SUCC, r).holds

    def test_duality_fails_nondual_on_one_arrow(self):
        u = Universe(2)
        r = build_relation(u, [(0, 1)])
        result = check_relation(1, Pairing.NONDUAL, r)
        assert not result.holds
        # canonical scan order makes the empty set the first witness
        assert result.x == Subset.empty(u)
        assert result.y is None

    def test_row11_holds_everywhere(self):
        for pairing in (Pairing.DUAL_SUCC, Pairing.NONDUAL):
            for n in (1, 2):
                u = Universe(n)
                for encoding in range(1 << (n * n)):
                    r = BinaryRelation.from_encoding(u, encoding)
                    assert check_relation(11, pairing, r).holds

    def test_oversized_relation_rejected(self):
        from rsklab import CapacityError
        from rsklab.relations import MAX_INPUT_SIZE

        u = Universe(MAX_INPUT_SIZE + 1)
        r = build_relation(u, [])
        with pytest.raises(CapacityError):
            check_relation(10, Pairing.DUAL_SUCC, r)
        with pytest.raises(CapacityError):
            eval_property(6, Pairing.DUAL_SUCC, r, Subset.empty(u))

    def test_failing_two_set_row_reports_both_sets(self):
        u = Universe(2)
        # row 10 under the mirror pairing still holds for every relation;
        # row 5 (constant) fails for the empty relation and reports X = {} only
        r = build_relation(u, [])
        result = check_relation(5, Pairing.DUAL_SUCC, r)
        assert not result.holds and result.x == Subset.empty(u) and result.y is None


class TestPawlakCompleteness:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "pairing", [Pairing.DUAL_SUCC, Pairing.NONDUAL, Pairing.PAWLAK]
    )
    def test_every_row_holds_on_equivalences(self, n, pairing):
        from rsklab import enumerate_relations

        for relation in enumerate_relations(n, RelationClass.Rrst):
            for row in PROPERTY_ROWS:
                assert check_relation(row.index, pairing, relation).holds


class TestSearchClass:
    def test_row6_verified_for_reflexive(self):
        verdict = search_class(6, Pairing.DUAL_SUCC, RelationClass.Rr, 3)
        assert verdict.status == "verified" and verdict.bound == 3

    def test_row6_refuted_for_serial(self):
        verdict = search_class(6, Pairing.DUAL_SUCC, RelationClass.Rser, 3)
        assert verdict.refuted
        cex = verdict.counterexample
        flags_ok = RelationClass.Rser.contains(cex.relation)
        assert flags_ok and not RelationClass.Rr.contains(cex.relation)
        assert not eval_property(6, Pairing.DUAL_SUCC, cex.relation, cex.x)

    def test_row16_nondual_verified_for_transitive(self):
        verdict = search_class(16, Pairing.NONDUAL, RelationClass.Rt, 3)
        assert verdict.status == "verified"

    def test_minimal_counterexample_for_row2(self):
        # smallest universe first: the empty relation on one element already
        # puts its only element into l({}) via a vacuous inclusion
        verdict = search_class(2, Pairing.DUAL_SUCC, RelationClass.R, 3)
        cex = verdict.counterexample
        assert cex.relation.universe.size == 1
        assert cex.relation.encoding == 0
        assert cex.x == Subset.empty(cex.relation.universe)

    def test_minimal_counterexample_orders_relations_before_sets(self):
        verdict = search_class(1, Pairing.NONDUAL, RelationClass.R, 3)
        cex = verdict.counterexample
        assert cex.relation.universe.size == 2
        assert cex.relation.pairs() == ((0, 1),)
        assert cex.x.members() == ()

    def test_capacity_guard(self):
        from rsklab import CapacityError

        with pytest.raises(CapacityError):
            search_class(6, Pairing.DUAL_SUCC, RelationClass.R, 9)

    def test_pawlak_only_searchable_over_equivalences(self):
        with pytest.raises(PreconditionError):
            search_class(6, Pairing.PAWLAK, RelationClass.Rt, 2)
        verdict = search_class(6, Pairing.PAWLAK, RelationClass.Rrst, 2)
        assert verdict.status == "verified"

    def test_refuted_witness_replays_false(self):
        for row in (2, 5, 6, 7, 14):
            verdict = search_class(row, Pairing.NONDUAL, RelationClass.R, 2)
            assert verdict.refuted
            cex = verdict.counterexample
            assert not eval_property(row, Pairing.NONDUAL, cex.relation, cex.x, cex.y)



class TestTransposition:
    """Mirror-nondual on R reads exactly the atoms nondual reads on R^T, and
    every class but Rser is closed under transpose: a cross-check of the two
    pairings against each other, not each against its own oracle."""

    def test_mirror_verdicts_are_nondual_verdicts_of_the_transpose(self):
        differ, replayed = [], 0
        for relation_class in RelationClass:
            mirror = class_verdicts(Pairing.MIRROR_NONDUAL, relation_class, 4)
            nondual = class_verdicts(Pairing.NONDUAL, relation_class, 4)
            for m, d in zip(mirror, nondual):
                if m.refuted != d.refuted:
                    differ.append((relation_class, m.row, m.status, d.status))
                if not m.refuted:
                    continue
                cex = m.counterexample
                check = check_relation(m.row, Pairing.NONDUAL, cex.relation.transpose())
                assert (check.holds, check.x, check.y) == (False, cex.x, cex.y), (
                    relation_class, m.row
                )
                replayed += 1
        # Rser is not closed under transpose: its two cells differ, as a fact
        assert differ == [
            (RelationClass.Rser, 2, "refuted", "verified"),
            (RelationClass.Rser, 5, "verified", "refuted"),
        ]
        assert replayed == 62

PAIRINGS = [Pairing.DUAL_SUCC, Pairing.NONDUAL, Pairing.MIRROR_NONDUAL]


class TestWordsAgainstPredicates:
    """Each one-set row compiled from its words, against the row written out
    by hand."""

    @pytest.mark.parametrize("pairing", [*PAIRINGS, Pairing.PAWLAK])
    def test_on_every_relation_and_set(self, pairing):
        # the granule pairing is defined on equivalences only
        members = RelationClass.Rrst if pairing is Pairing.PAWLAK else RelationClass.R
        for n in range(4):
            full = (1 << n) - 1
            for _, rows in class_rows(n, members):
                lo, up = approx_tables(n, rows, pairing)
                for index, predicate in ONE_SET_PREDICATES.items():
                    evaluate = property_row(index).evaluate
                    for x in range(full + 1):
                        assert evaluate(lo, up, full, x, 0) == predicate(
                            lo, up, full, x, 0
                        ), (n, rows, index, x)


class TestScanAgainstReference:
    """The bit-sliced column scan against the oracle-filtered scan, which
    runs ``relation_failures`` on every member in turn."""

    # 24 bits: batches of 12, 6 and 3 members at n = 1, 2, 3, so the member
    # path's last batch of a size is often short, and a cube's batches hold
    # 8, 4 and 2 members, the rest of its free bits fixed per batch
    @pytest.mark.parametrize("batch_bits", [properties._BATCH_BITS, 24])
    @pytest.mark.parametrize("pairing", PAIRINGS)
    @pytest.mark.parametrize("relation_class", list(RelationClass))
    def test_all_rows_and_each_row_alone(
        self, monkeypatch, relation_class, pairing, batch_bits
    ):
        monkeypatch.setattr(properties, "_BATCH_BITS", batch_bits)
        expected = reference_scan(pairing, relation_class.value, 3, range(1, 24))
        assert scan_class_failures(pairing, relation_class, 3, range(1, 24)) == expected
        for index in range(1, 24):
            alone = {index: expected[index]} if index in expected else {}
            assert scan_class_failures(pairing, relation_class, 3, [index]) == alone

    def test_pawlak_equivalences(self):
        pairing = Pairing.PAWLAK
        assert scan_class_failures(
            pairing, RelationClass.Rrst, 4, range(1, 24)
        ) == reference_scan(pairing, "Rrst", 4, range(1, 24))


def table_word(word, lo, up, full, x):
    """``word`` on one relation's tables; its last letter is its set, the
    set X or a fixed ∅ or V."""
    value = {"X": x, "∅": 0, "V": full}[word[-1]]
    for letter in reversed(word[:-1]):
        if letter == "¬":
            value = full ^ value
        else:
            value = (lo if letter == "l" else up)[value]
    return value


class TestCompiledKernels:
    """The compiled sliced operators and row fail masks, against the table
    algebra, and the words a batch evaluates."""

    @pytest.mark.parametrize("pairing", [*PAIRINGS, Pairing.PAWLAK])
    def test_every_plan_word_and_fail_mask_on_every_relation_and_set(self, pairing):
        # the granule pairing is defined on equivalences only
        members = RelationClass.Rrst if pairing is Pairing.PAWLAK else RelationClass.R
        everything = properties._needed(frozenset(range(1, 24)))
        for n in range(1, 4):
            full = (1 << n) - 1
            listed = list(class_rows(n, members))
            frame = properties._Frame(n, len(listed))
            bits = properties._member_bits(frame, [encoding for encoding, _ in listed])
            batch = properties._Batch(frame, bits, pairing, everything)
            words = {word for word, _, _ in everything}
            assert batch.values.keys() == {"X", "∅", "V"} | words
            one_set = [row.index for row in PROPERTY_ROWS if not row.two_set]
            assert len(one_set) == 17
            fail_masks = {
                index: properties._fail_masks(n)[index](batch.values, batch.ones)
                for index in one_set
            }
            for k, (_, rows) in enumerate(listed):
                lo, up = approx_tables(n, rows, pairing)
                for x in range(full + 1):
                    position = (k << n) + x
                    for word, sliced in batch.values.items():
                        value = sum(1 << w for w in range(n) if sliced[w] >> position & 1)
                        assert value == table_word(word, lo, up, full, x), (
                            n, rows, word, x
                        )
                    for index, fails in fail_masks.items():
                        holds = property_row(index).evaluate(lo, up, full, x, 0)
                        assert bool(fails >> position & 1) == (not holds), (
                            n, rows, index, x
                        )

    @pytest.mark.parametrize("pairing", [*PAIRINGS, Pairing.PAWLAK])
    def test_one_set_fail_masks_at_n5_and_n6(self, pairing):
        one_set = [row for row in PROPERTY_ROWS if not row.two_set]
        needed = properties._needed(frozenset(row.index for row in one_set))
        for n in (5, 6):
            full = (1 << n) - 1
            if pairing is Pairing.PAWLAK:  # defined on equivalences only
                members = itertools.islice(class_rows(n, RelationClass.Rrst), 16)
                encodings = [encoding for encoding, _ in members]
            else:
                rng = random.Random(n)
                encodings = [rng.getrandbits(n * n) for _ in range(16)]
            frame = properties._Frame(n, len(encodings))
            bits = properties._member_bits(frame, encodings)
            batch = properties._Batch(frame, bits, pairing, needed)
            fail_masks = {
                row: properties._fail_masks(n)[row.index](batch.values, batch.ones)
                for row in one_set
            }
            for k, encoding in enumerate(encodings):
                lo, up = approx_tables(n, rows_from_encoding(n, encoding), pairing)
                for x in range(full + 1):
                    position = (k << n) + x
                    for row, fails in fail_masks.items():
                        holds = row.evaluate(lo, up, full, x, 0)
                        assert bool(fails >> position & 1) == (not holds), (
                            n, encoding, row.index, x
                        )

    def test_needed_lists_every_word_inside_the_rows_inner_words_first(self):
        def words(index):
            """Every word of the row's inclusions and every word inside it,
            its set alone left out; u(X) and l(X) for a two-set row."""
            row = property_row(index)
            if row.two_set:
                return {"uX", "lX"}
            spelled = [word for pair in row.inclusions for word in pair]
            return {word[-k:] for word in spelled for k in range(2, len(word) + 1)}

        rows = range(1, 24)
        pairs = [set(pair) for pair in itertools.combinations(rows, 2)]
        for indices in [*({i} for i in rows), *pairs, set(rows)]:
            needed = properties._needed(frozenset(indices))
            assert needed == tuple(sorted(needed, key=lambda t: (len(t[0]), t[0])))
            evaluated = {"X", "∅", "V"}
            for word, letter, inner in needed:
                assert letter + inner == word and inner in evaluated, (indices, word)
                evaluated.add(word)
            expected = set().union(*map(words, indices))
            assert len(needed) == len(expected), indices
            assert evaluated == {"X", "∅", "V"} | expected, indices

    def test_a_scan_compiles_only_the_fail_masks_of_its_rows(self):
        properties._fail_masks.cache_clear()
        failures = scan_class_failures(Pairing.DUAL_SUCC, RelationClass.Rr, 4, [6, 15])
        assert list(failures) == [15] and failures[15][0] == 3
        # row 15 settles at n = 3, so n = 4 compiles row 6 alone
        compiled = [sorted(properties._fail_masks(n)) for n in range(1, 5)]
        assert compiled == [[6, 15], [6, 15], [6, 15], [6]]
        mask = properties._fail_masks(4)[6]
        assert properties._fail_masks(4)[6] is mask

    def test_a_scan_evaluates_only_the_words_of_its_pending_rows(self, monkeypatch):
        evaluated, calls = [], []
        init, compiled = properties._Batch.__init__, properties.sliced_operators

        def recorded(batch, *args):
            init(batch, *args)
            evaluated.append(set(batch.values) - {"X", "∅", "V"})

        def counted(pairing, n):
            lower, upper = compiled(pairing, n)

            def counted_lower(*args):
                calls.append("l")
                return lower(*args)

            def counted_upper(*args):
                calls.append("u")
                return upper(*args)

            return counted_lower, counted_upper

        monkeypatch.setattr(properties._Batch, "__init__", recorded)
        monkeypatch.setattr(properties, "sliced_operators", counted)
        row_6 = {"lX"}
        # row 6 holds on reflexive relations: one batch a size, all read l(X)
        assert scan_class_failures(Pairing.DUAL_SUCC, RelationClass.Rr, 3, [6]) == {}
        assert evaluated == [row_6] * 3 and calls == ["l"] * 3
        # row 15 first fails at n = 3, and the n = 4 batch reads row 6 alone
        evaluated.clear()
        failures = scan_class_failures(Pairing.DUAL_SUCC, RelationClass.Rr, 4, [6, 15])
        assert list(failures) == [15] and failures[15][0] == 3
        assert evaluated == [row_6 | {"llX"}] * 3 + [row_6]


TRANSITIVE = [RelationClass.Rt, RelationClass.Rrt, RelationClass.Rst, RelationClass.Rrst]


def scanned_encodings(n, relation_class):
    """The members of every batch the column scan builds, in scan order."""
    cube = class_cube(n, relation_class)
    if cube.transitive:
        return [
            encoding_of(k)
            for frame, _, _, encoding_of in properties._member_batches(n, cube)
            for k in range(frame.count)
        ]
    members = []
    for frame, bits, mask, encoding_of in properties._cube_batches(n, cube):
        # the sliced bits are the packed relations the batch stands for
        encodings = list(map(encoding_of, range(frame.count)))
        assert bits == properties._member_bits(frame, encodings)
        # the mask fills whole blocks; read its first bits off its digits
        digits = format(mask, "b")[::-1]
        starts = range(0, len(digits), frame.width)
        members += (encoding_of(i >> n) for i in starts if digits[i] == "1")
    return members


class TestCubeBatches:
    """Every class as the members of a cube over its free encoding bits: the
    classes without transitivity sliced batch by batch, the transitive ones
    read off their masks and packed."""

    @pytest.mark.parametrize(
        "n, relation_class, batch_bits",
        [(n, cls, properties._BATCH_BITS) for n in range(1, 5) for cls in RelationClass]
        + [(5, RelationClass.Rs, properties._BATCH_BITS)]
        + [(5, RelationClass.Rrs, properties._BATCH_BITS)]
        + [(n, cls, 24) for n in range(1, 4) for cls in RelationClass],
    )
    def test_cube_order_is_encoding_order(
        self, monkeypatch, n, relation_class, batch_bits
    ):
        monkeypatch.setattr(properties, "_BATCH_BITS", batch_bits)
        expected = [encoding for encoding, _ in class_rows(n, relation_class)]
        assert scanned_encodings(n, relation_class) == expected

    @pytest.mark.parametrize("relation_class", list(RelationClass))
    def test_small_batches_and_levels_give_the_oracle_members(
        self, monkeypatch, relation_class
    ):
        # 2-bit levels and 24-bit batches: from n = 2 a cube's free bits span
        # several levels of the descent, and the scan's batches hold at most
        # 12 members; the cube batches at n = 4 are left to the test above,
        # as one member a batch they would be 2^16 batches of R
        monkeypatch.setattr(relations, "_LEVEL_BITS", 2)
        monkeypatch.setattr(properties, "_BATCH_BITS", 24)
        for n in range(5):
            expected = class_encodings(n, relation_class.value)
            generated = [encoding for encoding, _ in class_rows(n, relation_class)]
            assert generated == expected
            if 0 < n < 4 or relation_class in TRANSITIVE:
                assert scanned_encodings(n, relation_class) == expected

    @pytest.mark.parametrize("relation_class", TRANSITIVE)
    def test_the_descent_skips_batches_that_violate_transitivity(
        self, monkeypatch, relation_class
    ):
        monkeypatch.setattr(relations, "_LEVEL_BITS", 2)
        cube = class_cube(4, relation_class)
        tops = [top for top, _, _ in cube.batches(2, 1)]
        assert tops == sorted(set(tops))
        # every skipped top already violates transitivity in its fixed bits
        skipped = set(range(1 << cube.free - 2)) - set(tops)
        assert skipped
        for top in skipped:
            for k in range(4):
                rows = rows_from_encoding(4, cube.encoding(top << 2 | k))
                assert not relation_class.admits(4, rows)

    @pytest.mark.parametrize("relation_class", TRANSITIVE)
    @pytest.mark.parametrize("level_bits", [2, 3, relations._LEVEL_BITS])
    def test_each_term_is_checked_once_at_the_level_that_decides_it(
        self, relation_class, level_bits
    ):
        cube = class_cube(4, relation_class)
        levels = cube._levels(2, 8, level_bits)
        # the levels tile the free bits from the top down, the batch's last
        assert levels[-1][:2] == (0, 2)
        assert [hi for _, hi, *_ in levels] == [cube.free] + [
            lo for lo, *_ in levels[:-1]
        ]
        checked = [(term, lo, hi) for lo, hi, _, _, terms in levels for term in terms]
        assert sorted(term for term, _, _ in checked) == sorted(cube._terms)
        for term, lo, hi in checked:
            assert lo <= cube._terms[term] < hi

    def test_a_changed_level_width_builds_its_own_levels(self, monkeypatch):
        # the walk at the default width first, so a cache keyed without the
        # level width would hand the second walk the default levels
        cube = class_cube(3, RelationClass.Rt)
        expected = list(cube.batches(2, 8))
        widths = []
        violations = relations._violations

        def recorded(terms, values, ones):
            widths.append(ones.bit_length())
            return violations(terms, values, ones)

        monkeypatch.setattr(relations, "_violations", recorded)
        monkeypatch.setattr(relations, "_LEVEL_BITS", 2)
        assert list(cube.batches(2, 8)) == expected
        # free bits 8, 6-7, 4-5 and 2-3 above the batch's 2 bits of width 8
        assert sorted(set(widths)) == [2, 4, 32]
        assert len(cube._levels(2, 8, 2)) == 5

    @pytest.mark.parametrize(
        "relation_class, size",
        [
            (RelationClass.R, 1 << 25),
            (RelationClass.Rr, 1 << 20),
            (RelationClass.Rser, 31**5),
        ],
    )
    def test_the_scan_batches_hold_every_member_at_five(self, relation_class, size):
        # R and Rser are too large to count through class_rows in tier-1; a
        # member is one set bit of its block in the batch's mask
        counted = sum(
            (mask & frame.starts).bit_count()
            for frame, _, mask, _ in properties._cube_batches(
                5, class_cube(5, relation_class)
            )
        )
        assert counted == size

    def test_only_transitive_classes_are_packed_and_class_rows_is_not_read(
        self, monkeypatch
    ):
        packed = []
        members = relations.ClassCube.members

        def recorded(cube):
            packed.append(cube.transitive)
            return members(cube)

        def forbidden(n, relation_class):
            raise AssertionError("the column scan read class_rows")

        monkeypatch.setattr(relations.ClassCube, "members", recorded)
        monkeypatch.setattr(relations, "class_rows", forbidden)
        assert not hasattr(properties, "class_rows")
        for cls in RelationClass:
            packed.clear()
            scan_class_failures(Pairing.NONDUAL, cls, 3, range(1, 24))
            assert packed == [cls in TRANSITIVE] * len(packed)
            assert bool(packed) == (cls in TRANSITIVE)

    def test_every_class_has_a_cube(self):
        for n in range(5):
            for cls in RelationClass:
                assert class_cube(n, cls).transitive == (cls in TRANSITIVE)


def clear_shared_constants():
    """Empty every functools cache of the scan's modules and their classes."""
    for module in (properties, relations):
        for value in list(vars(module).values()):
            owners = [value, *vars(value).values()] if isinstance(value, type) else [value]
            for cached in owners:
                if hasattr(cached, "cache_clear"):
                    cached.cache_clear()


class TestSharedConstants:
    """The column scan's size constants, built once per process and shared
    by every scan: frames, index variables and cube tables."""

    # the patched settings run before, between or after the default ones, so
    # a cache keyed without _BATCH_BITS or _LEVEL_BITS serves one setting
    # what it built for the other
    @pytest.mark.parametrize("small_first", [False, True])
    def test_changed_batch_and_level_bits_reuse_no_stale_constant(
        self, monkeypatch, small_first
    ):
        pairings = [Pairing.DUAL_SUCC, Pairing.NONDUAL]
        expected = {
            (pairing, cls): reference_scan(pairing, cls.value, 3, range(1, 24))
            for pairing in pairings
            for cls in RelationClass
        }
        members = {
            (n, cls): class_encodings(n, cls.value)
            for n in range(1, 4)
            for cls in RelationClass
        }
        clear_shared_constants()
        for small in [small_first, not small_first, small_first]:
            with monkeypatch.context() as patch:
                if small:
                    patch.setattr(properties, "_BATCH_BITS", 24)
                    patch.setattr(relations, "_LEVEL_BITS", 2)
                for (pairing, cls), failures in expected.items():
                    found = scan_class_failures(pairing, cls, 3, range(1, 24))
                    assert found == failures, (small, pairing, cls)
                for (n, cls), encodings in members.items():
                    generated = [encoding for encoding, _ in class_rows(n, cls)]
                    assert generated == encodings, (small, n, cls)

    def test_a_frame_is_built_once_per_size_and_batch_length(self, monkeypatch):
        built = []
        init = properties._Frame.__init__

        def counted(frame, n, count):
            built.append((n, count))
            init(frame, n, count)

        monkeypatch.setattr(properties._Frame, "__init__", counted)
        clear_shared_constants()
        generate_table(Pairing.DUAL_SUCC, 3)
        generate_table(Pairing.NONDUAL, 3)
        assert built and len(built) == len(set(built))
        built.clear()
        generate_table(Pairing.DUAL_SUCC, 3)
        assert built == []

    def test_shared_constants_are_read_only(self):
        frames = [properties._frame(n, 1 << n) for n in range(1, 4)]
        # a scan asserting rows 8-13 adds nothing to the frames it reads: each
        # holds its sizes and its n + 2 ints, ones, starts and the sets X
        assert scan_class_failures(Pairing.DUAL_SUCC, RelationClass.R, 3, [10]) == {}
        frames += [
            frame
            for n in range(1, 4)
            for frame, *_ in properties._cube_batches(n, class_cube(n, RelationClass.R))
        ]
        held = {"n", "width", "count", "ones", "starts", "sets"}
        for frame in frames:
            assert vars(frame).keys() == held
            assert isinstance(frame.sets, tuple) and len(frame.sets) == frame.n
        batch = properties._Batch(frames[0], [[0]], Pairing.DUAL_SUCC, ())
        assert batch.values["X"] is frames[0].sets
        assert isinstance(relations.index_variables(3, 8), tuple)
        cube = class_cube(3, RelationClass.Rt)
        assert isinstance(cube._positions[1], tuple)
        assert isinstance(cube._low_table(cube.free), tuple)
        levels = cube._levels(2, 8, 2)
        assert isinstance(levels, tuple)
        assert all(isinstance(level, tuple) for level in levels)
        assert all(isinstance(part, tuple) for *_, v, t in levels for part in (v, t))


@pytest.fixture
def failure_calls(monkeypatch):
    """(full, lower, upper, rows asked) of every ``relation_failures`` call."""
    calls = []
    real = properties.relation_failures

    def recorded(rows, lo, up, full):
        rows = list(rows)
        calls.append((full, lo, up, [row.index for row in rows]))
        return real(rows, lo, up, full)

    monkeypatch.setattr(properties, "relation_failures", recorded)
    return calls


class TestSlicedMorphismCheck:
    """Rows 8-13 in the column scan: asserted by the morphism check computed
    on the sliced operators, whose failure is an internal inconsistency."""

    def test_rows_8_to_13_need_no_member_tables(self, failure_calls):
        for cls in RelationClass:
            assert scan_class_failures(Pairing.DUAL_SUCC, cls, 3, TWO_SET_ROWS) == {}
        assert failure_calls == []

    def test_a_failing_member_is_an_internal_inconsistency(
        self, monkeypatch, capsys, failure_calls
    ):
        one_set = [6, 18, 23]
        expected = scan_class_failures(Pairing.DUAL_SUCC, RelationClass.Rs, 3, one_set)
        checked = []

        def failing(batch):
            # member 1 of every batch fails at X = 0: its block starts at 2^n
            checked.append(batch)
            return 1 << batch.frame.width

        monkeypatch.setattr(properties._Batch, "morphism_failures", failing)
        with pytest.raises(RskError, match="^internal inconsistency: relation 1 "):
            scan_class_failures(Pairing.DUAL_SUCC, RelationClass.Rs, 2, [6, 10])
        assert len(checked) == 1  # raised at the first batch
        checked.clear()
        found = scan_class_failures(Pairing.DUAL_SUCC, RelationClass.Rs, 3, one_set)
        assert found == expected and checked == []
        argv = ["counterexample", "--row", "10", "--pairing", "nondual"]
        assert main([*argv, "--class", "R", "--max-n", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: internal inconsistency: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert failure_calls == []

    def test_one_set_witnesses_come_off_the_fail_mask(
        self, monkeypatch, failure_calls
    ):
        one_set = [row.index for row in PROPERTY_ROWS if not row.two_set]
        cells = [(p, cls, 3) for p in PAIRINGS for cls in RelationClass]
        cells.append((Pairing.PAWLAK, RelationClass.Rrst, 4))
        expected = [reference_scan(p, cls.value, n, one_set) for p, cls, n in cells]
        failure_calls.clear()  # the reference's own calls
        tables = []
        real = properties.approx_tables
        monkeypatch.setattr(
            properties, "approx_tables", lambda *args: tables.append(args) or real(*args)
        )
        for (pairing, cls, n), failures in zip(cells, expected):
            found = scan_class_failures(pairing, cls, n, one_set)
            assert found == failures, (pairing, cls)
        assert failure_calls == [] and tables == []

    def test_the_empty_and_the_full_set_are_checked(self):
        # the full relation on 2 elements, encoding 15, is member 15 of R
        n, k, full = 2, 15, 0b11
        lo, up = approx_tables(n, (full, full), Pairing.DUAL_SUCC)
        assert (lo, up) == ([0, 0, 0, full], [0, full, full, full])
        encodings = [encoding for encoding, _ in class_rows(n, RelationClass.R)]
        frame = properties._Frame(n, len(encodings))
        bits = properties._member_bits(frame, encodings)
        needed = properties._needed(frozenset({10}))
        batch = properties._Batch(frame, bits, Pairing.DUAL_SUCC, needed)
        assert batch.morphism_failures() == 0
        # u(∅) becomes {0}, then l(V) becomes {1}: every step u(X minus a) ∪
        # u({a}) and l(-(X minus a)) ∩ l(-{a}) still holds, so only the check
        # at ∅ and at V tells these tables from a relation's
        flips = [("u", 0, (lo, [0b01, *up[1:]])), ("l", full, ([*lo[:3], 0b10], up))]
        for word, x, tables in flips:
            assert not properties._morphisms(*tables, full)
            with pytest.raises(RskError, match="^internal inconsistency: "):
                relation_failures([property_row(10)], *tables, full)
            values = batch.values[word + "X"]
            values[0] ^= 1 << (k << n) + x
            assert batch.morphism_failures() == 1 << (k << n) + x
            values[0] ^= 1 << (k << n) + x

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["members", "cube"]),
        st.integers(1, 4),
        st.data(),
        st.sampled_from(PAIRINGS),
    )
    def test_equals_the_table_check_on_flipped_operators(
        self, source, n, data, pairing
    ):
        batch, mask, members, encoding_of = sliced_class(source, n, pairing)
        k = data.draw(st.sampled_from(members))
        word = data.draw(st.sampled_from(["l", "u"]))
        w, x = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, (1 << n) - 1))
        # one membership flipped in the sliced operator and in member k's table
        batch = copy.copy(batch)
        key = word + "X"
        batch.values = dict(batch.values)
        batch.values[key] = list(batch.values[key])
        batch.values[key][w] ^= 1 << (k << n) + x
        rows = rows_from_encoding(n, encoding_of(k))
        lo, up = (list(table) for table in approx_tables(n, rows, pairing))
        (lo if word == "l" else up)[x] ^= 1 << w
        fails = batch.morphism_failures() & mask
        block = fails >> (k << n) & (1 << (1 << n)) - 1
        # only member k's block can fail, and it fails exactly when the table does
        assert fails == block << (k << n)
        assert bool(block) != properties._morphisms(lo, up, (1 << n) - 1)


@functools.cache
def sliced_class(source, n, pairing):
    """``(batch, mask, members, encoding_of)``: u(X) and l(X) over one batch
    of size n, from either batch source of the column scan. ``"members"``
    packs every relation with ``_member_bits``; ``"cube"`` slices the cube
    of the serial relations with ``_cube_batches``, whose member mask leaves
    out the relations that are not serial. ``members`` are the member
    indices k of the batch."""
    if source == "members":
        encodings = [encoding for encoding, _ in class_rows(n, RelationClass.R)]
        frame = properties._Frame(n, len(encodings))
        bits = properties._member_bits(frame, encodings)
        mask, encoding_of = frame.ones, encodings.__getitem__
    else:
        cube = class_cube(n, RelationClass.Rser)
        [(frame, bits, mask, encoding_of)] = properties._cube_batches(n, cube)
    needed = properties._needed(frozenset({8}))
    batch = properties._Batch(frame, bits, pairing, needed)
    digits = format(mask, "b")[::-1]
    members = [i >> n for i in range(0, len(digits), frame.width) if digits[i] == "1"]
    return batch, mask, members, encoding_of


@pytest.fixture
def morphism_calls(monkeypatch):
    """The ``full`` argument of every morphism check run while the test runs."""
    calls = []
    check = properties._morphisms

    def counted(lo, up, full):
        calls.append(full)
        return check(lo, up, full)

    monkeypatch.setattr(properties, "_morphisms", counted)
    return calls


def least_xs(failures):
    """``plain_failures`` in the shape of ``relation_failures``: row -> X."""
    return {index: x for index, (x, _) in failures.items()}


class TestRelationFailures:
    """One decision step per relation: the morphism check asserts rows 8-13,
    and the one-set scan finds every witness."""

    @pytest.mark.parametrize("pairing", PAIRINGS)
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_equals_the_plain_scan_on_every_relation(self, n, pairing):
        full = (1 << n) - 1
        for encoding in range(1 << n * n):
            lo, up = approx_tables(n, rows_from_encoding(n, encoding), pairing)
            assert relation_failures(PROPERTY_ROWS, lo, up, full) == least_xs(
                plain_failures(PROPERTY_ROWS, lo, up, full)
            )

    def test_morphism_check_runs_once_per_call_with_two_set_rows(
        self, morphism_calls
    ):
        lo, up = approx_tables(3, CHAIN.rows, Pairing.DUAL_SUCC)
        relation_failures(PROPERTY_ROWS, lo, up, 0b111)
        assert len(morphism_calls) == 1
        # a failed check raises, also with every two-set row asked
        up = [0b00, 0b00, 0b00, 0b11]
        rows = [property_row(index) for index in sorted(TWO_SET_ROWS)]
        with pytest.raises(RskError, match="^internal inconsistency: "):
            relation_failures(rows, up, up, 0b11)
        assert len(morphism_calls) == 2

    def test_one_set_rows_never_run_the_morphism_check(self, morphism_calls):
        one_set = [row for row in PROPERTY_ROWS if not row.two_set]
        lo, up = approx_tables(3, CHAIN.rows, Pairing.NONDUAL)
        relation_failures(one_set, lo, up, 0b111)
        # the shape of a counterexample cell on a one-set row
        search_class(15, Pairing.NONDUAL, RelationClass.Rt, 3)
        assert morphism_calls == []


class TestTwoSetCertificates:
    """Rows 8-13 are asserted by the O(2^n) morphism check; tables failing
    it are an internal inconsistency, and only the oracle scans their 4^n
    (X, Y) pairs."""

    def test_rows_8_to_13_carry_a_certificate(self, morphism_calls):
        lo, up = approx_tables(2, (0b01, 0b11), Pairing.DUAL_SUCC)
        certified = set()
        for row in PROPERTY_ROWS:
            before = len(morphism_calls)
            relation_failures([row], lo, up, 0b11)
            if len(morphism_calls) > before:
                certified.add(row.index)
        assert certified == TWO_SET_ROWS

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 4),
        st.data(),
        st.sampled_from(
            [Pairing.DUAL_SUCC, Pairing.NONDUAL, Pairing.MIRROR_NONDUAL]
        ),
    )
    def test_certificates_hold_and_agree_with_the_scan(self, n, data, pairing):
        encoding = data.draw(st.integers(0, (1 << (n * n)) - 1))
        lo, up = approx_tables(n, rows_from_encoding(n, encoding), pairing)
        full = (1 << n) - 1
        # every relational operator passes, so nothing raises here
        assert properties._morphisms(lo, up, full)
        for index in sorted(TWO_SET_ROWS):
            row = property_row(index)
            assert relation_failures([row], lo, up, full) == {}
            assert plain_failures([row], lo, up, full) == {}

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4),
        st.data(),
        st.sampled_from(
            [Pairing.DUAL_SUCC, Pairing.NONDUAL, Pairing.MIRROR_NONDUAL]
        ),
    )
    def test_flipped_tables_failing_a_row_are_an_internal_inconsistency(
        self, n, data, pairing
    ):
        encoding = data.draw(st.integers(0, (1 << (n * n)) - 1))
        tables = approx_tables(n, rows_from_encoding(n, encoding), pairing)
        lo, up = (list(table) for table in tables)
        full = (1 << n) - 1
        flipped = data.draw(st.sampled_from([lo, up]))
        flipped[data.draw(st.integers(0, full))] ^= 1 << data.draw(
            st.integers(0, n - 1)
        )
        rows = [property_row(index) for index in sorted(TWO_SET_ROWS)]
        assume(plain_failures(rows, lo, up, full))
        # the check misses no failing pair: every two-set row asked raises
        assert not properties._morphisms(lo, up, full)
        for row in rows:
            with pytest.raises(RskError, match="^internal inconsistency: "):
                relation_failures([row], lo, up, full)
        # and the one-set rows are still scanned, without the check
        one_set = [row for row in PROPERTY_ROWS if not row.two_set]
        assert relation_failures(one_set, lo, up, full) == least_xs(
            plain_failures(one_set, lo, up, full)
        )

    def test_hand_made_failing_tables_are_an_internal_inconsistency(self):
        # no relation fails rows 8-13 under any pairing, so the tables are
        # made by hand: u maps both singletons of {0, 1} to the empty set and
        # the whole universe to itself; monotone but not additive
        lo = up = [0b00, 0b00, 0b00, 0b11]
        assert plain_failures([property_row(10)], lo, up, 0b11) == {10: (0b01, 0b10)}
        assert plain_failures([property_row(9)], lo, up, 0b11) == {}
        assert plain_failures([property_row(13)], lo, up, 0b11) == {}
        for index in (9, 10, 13):
            with pytest.raises(RskError, match="^internal inconsistency: "):
                relation_failures([property_row(index)], lo, up, 0b11)
        # the dual table l(X) = -u(-X) is monotone but not multiplicative
        lo = [0b00, 0b11, 0b11, 0b11]
        assert plain_failures([property_row(11)], lo, up, 0b11) == {11: (0b01, 0b10)}
        assert plain_failures([property_row(8)], lo, up, 0b11) == {}
        for index in (8, 11):
            with pytest.raises(RskError, match="^internal inconsistency: "):
                relation_failures([property_row(index)], lo, up, 0b11)
        # a one-set row on the same tables reports its least X
        assert relation_failures([property_row(7)], lo, up, 0b11) == {7: 0b01}

    def test_check_reports_failing_tables_as_an_internal_inconsistency(
        self, monkeypatch, capsys
    ):
        real = properties.approx_tables
        flips = []

        def flipped(n, rows, pairing):
            # u(V) loses element 0, so u(V) = u(V minus {0}) ∪ u({0}) fails
            lo, up = real(n, rows, pairing)
            up = [*up[:-1], up[-1] ^ 1]
            flips.append((lo, up))
            return lo, up

        monkeypatch.setattr(properties, "approx_tables", flipped)
        chain = str(GOLDEN_CLI / "chain.json")
        argv = ["check", "--pairing", "nondual", "--relation", chain]
        assert main([*argv, "--row", "10"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: internal inconsistency: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        # a one-set row on the same tables reports its least X
        assert main([*argv, "--row", "18"]) == 1
        out, err = capsys.readouterr()
        lo, up = flips[-1]
        x = plain_failures([property_row(18)], lo, up, 0b1111)[18][0]
        assert err == "" and json.loads(out)["counterexample"] == {
            "x": [label for i, label in enumerate("abcd") if x >> i & 1]
        }
