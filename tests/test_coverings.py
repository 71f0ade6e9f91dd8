"""Coverings: neighbourhoods, definable sets, the C_t operators and their
reduction to the non-dual pre-order operators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsklab import (
    Covering,
    InputError,
    Pairing,
    RelationClass,
    Subset,
    Universe,
    classify,
    ct_lower,
    ct_upper,
    definable_family,
    enumerate_coverings,
    induced_relation,
    is_definable,
    lower,
    neighborhood,
    upper,
    verify_reduction,
)
from rsklab.properties import PROPERTY_ROWS
from rsklab.tables import REFERENCE_NONDUAL, TABLE_CLASSES

U3 = Universe(3)
OVERLAP = Covering(U3, (Subset.of(U3, [0, 1]), Subset.of(U3, [1, 2])))

RRT_COLUMN = TABLE_CLASSES.index(RelationClass.Rrt)
RRT_TICKED_ROWS = [
    row for row in range(1, 24) if REFERENCE_NONDUAL[row][RRT_COLUMN] == "+"
]


def ct_mask_tables(covering):
    u = covering.universe
    size = u.full_mask + 1
    low = [ct_lower(covering, Subset(u, m)).bits for m in range(size)]
    up = [ct_upper(covering, Subset(u, m)).bits for m in range(size)]
    return low, up


def random_covering(rng: random.Random, n: int) -> Covering:
    universe = Universe(n)
    full = universe.full_mask
    while True:
        count = rng.randint(1, 2 * n)
        masks = [rng.randint(1, full) for _ in range(count)]
        union = 0
        for mask in masks:
            union |= mask
        if union == full:
            return Covering.from_masks(universe, masks)


class TestConstruction:
    def test_rejects_empty_block(self):
        with pytest.raises(InputError, match="nonempty"):
            Covering(U3, (Subset.of(U3, [0, 1, 2]), Subset.empty(U3)))

    def test_rejects_non_covering_family(self):
        with pytest.raises(InputError, match="cover"):
            Covering(U3, (Subset.of(U3, [0, 1]),))

    def test_duplicate_blocks_change_nothing(self):
        doubled = Covering(U3, OVERLAP.blocks + OVERLAP.blocks)
        for x in range(3):
            assert neighborhood(doubled, x) == neighborhood(OVERLAP, x)


class TestNeighbourhoods:
    def test_overlapping_blocks(self):
        assert neighborhood(OVERLAP, 0).members() == (0, 1)
        assert neighborhood(OVERLAP, 1).members() == (1,)
        assert neighborhood(OVERLAP, 2).members() == (1, 2)

    def test_partition_blocks_give_the_class(self):
        parts = Covering(U3, (Subset.of(U3, [0, 1]), Subset.of(U3, [2])))
        assert neighborhood(parts, 0).members() == (0, 1)
        assert neighborhood(parts, 1).members() == (0, 1)
        assert neighborhood(parts, 2).members() == (2,)

    def test_single_block_covering(self):
        whole = Covering(U3, (Subset.full(U3),))
        for x in range(3):
            assert neighborhood(whole, x) == Subset.full(U3)

    def test_contains_its_point(self):
        for covering in enumerate_coverings(3):
            for x in range(3):
                assert x in neighborhood(covering, x)


class TestCtOperators:
    def test_lower_examples(self):
        assert ct_lower(OVERLAP, Subset.of(U3, [1])).members() == (1,)
        assert ct_lower(OVERLAP, Subset.full(U3)) == Subset.full(U3)
        assert ct_lower(OVERLAP, Subset.empty(U3)) == Subset.empty(U3)

    def test_upper_examples(self):
        assert ct_upper(OVERLAP, Subset.of(U3, [0])).members() == (0, 1)
        assert ct_upper(OVERLAP, Subset.empty(U3)) == Subset.empty(U3)

    def test_partition_covering_reduces_to_granule_operators(self):
        parts = Covering(U3, (Subset.of(U3, [0, 1]), Subset.of(U3, [2])))
        equivalence = induced_relation(parts)
        assert classify(equivalence).equivalence
        for bits in range(8):
            x_set = Subset(U3, bits)
            assert ct_upper(parts, x_set) == upper(Pairing.PAWLAK, equivalence, x_set)
            assert ct_lower(parts, x_set) == lower(Pairing.PAWLAK, equivalence, x_set)

    def test_lower_equals_union_of_definable_subsets(self):
        for covering in enumerate_coverings(3):
            family = definable_family(covering)
            for bits in range(8):
                x_set = Subset(U3, bits)
                union = 0
                for d in family:
                    if d <= x_set:
                        union |= d.bits
                assert ct_lower(covering, x_set).bits == union


class TestDefinableFamily:
    def test_contains_bounds_and_is_union_closed(self):
        for covering in enumerate_coverings(3):
            family = definable_family(covering)
            bits = {d.bits for d in family}
            assert 0 in bits and U3.full_mask in bits
            for a in bits:
                for b in bits:
                    assert a | b in bits

    def test_family_equals_pointwise_definability_filter(self):
        # two overlapping blocks on 8 elements: three distinct neighbourhoods
        u8 = Universe(8)
        overlapping = Covering.from_masks(u8, [0b00111111, 0b11111100])
        coverings = [c for n in (1, 2, 3) for c in enumerate_coverings(n)]
        for covering in [*coverings, overlapping]:
            u = covering.universe
            family = {d.bits for d in definable_family(covering)}
            pointwise = {
                m for m in range(u.full_mask + 1)
                if is_definable(covering, Subset(u, m))
            }
            assert family == pointwise


class TestInducedRelation:
    def test_worked_example(self):
        relation = induced_relation(OVERLAP)
        assert relation.pairs() == ((0, 0), (0, 1), (1, 1), (2, 1), (2, 2))
        assert classify(relation).preorder

    def test_partition_gives_equivalence(self):
        parts = Covering(U3, (Subset.of(U3, [0, 1]), Subset.of(U3, [2])))
        assert classify(induced_relation(parts)).equivalence

    def test_one_block_gives_full_relation(self):
        whole = Covering(U3, (Subset.full(U3),))
        assert induced_relation(whole).rows == (7, 7, 7)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_always_a_preorder(self, n):
        for covering in enumerate_coverings(n):
            assert classify(induced_relation(covering)).preorder


class TestReduction:
    def test_worked_example(self):
        assert verify_reduction(OVERLAP)

    def test_every_small_covering(self):
        for n in (1, 2, 3):
            for covering in enumerate_coverings(n):
                assert verify_reduction(covering)

    def test_partition_coverings_up_to_four(self):
        # partitions of {0..n-1}, built by one pass of least-member grouping
        def partitions(items):
            if not items:
                yield []
                return
            head, *rest = items
            for smaller in partitions(rest):
                for i in range(len(smaller)):
                    yield smaller[:i] + [[head] + smaller[i]] + smaller[i + 1 :]
                yield [[head]] + smaller

        for n in (1, 2, 3, 4):
            u = Universe(n)
            for blocks in partitions(list(range(n))):
                covering = Covering(u, tuple(Subset.of(u, b) for b in blocks))
                assert verify_reduction(covering)

    def test_seeded_random_coverings_at_five(self, monkeypatch):
        monkeypatch.setenv("RSK_MAX_N", "5")
        rng = random.Random(515253)
        for _ in range(40):
            covering = random_covering(rng, 5)
            assert classify(induced_relation(covering)).preorder
            assert verify_reduction(covering)

    @given(st.integers(1, 4), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_reduction_holds_on_random_coverings(self, n, rng):
        covering = random_covering(rng, n)
        assert verify_reduction(covering)


class TestPropertyInheritance:
    def test_ct_pair_satisfies_every_preorder_ticked_row(self):
        assert set(RRT_TICKED_ROWS) == set(range(2, 24))
        for n in (1, 2, 3):
            u = Universe(n)
            full = u.full_mask
            for covering in enumerate_coverings(n):
                low, up = ct_mask_tables(covering)
                for index in RRT_TICKED_ROWS:
                    row = PROPERTY_ROWS[index - 1]
                    if row.two_set:
                        assert all(
                            row.evaluate(low, up, full, x, y)
                            for x in range(full + 1)
                            for y in range(full + 1)
                        ), (n, covering, index)
                    else:
                        assert all(
                            row.evaluate(low, up, full, x, 0)
                            for x in range(full + 1)
                        ), (n, covering, index)


class TestDualityFailure:
    def test_canonical_search_finds_the_frozen_fixture(self):
        # first covering (family order) with ct_lower(-X) != -ct_upper(X)
        found = None
        for n in (1, 2, 3):
            u = Universe(n)
            for covering in enumerate_coverings(n):
                for bits in range(u.full_mask + 1):
                    x_set = Subset(u, bits)
                    if ct_lower(covering, x_set.complement()) != ct_upper(
                        covering, x_set
                    ).complement():
                        found = (covering, x_set)
                        break
                if found:
                    break
            if found:
                break
        assert found is not None
        covering, x_set = found
        assert covering.universe.size == 2
        assert [b.members() for b in covering.blocks] == [(0,), (0, 1)]
        assert x_set.members() == (0,)

    def test_frozen_fixture_replays(self):
        u = Universe(2)
        covering = Covering(u, (Subset.of(u, [0]), Subset.of(u, [0, 1])))
        x_set = Subset.of(u, [0])
        left = ct_lower(covering, x_set.complement())
        right = ct_upper(covering, x_set).complement()
        assert left != right
        assert left.members() == () and right.members() == (1,)
