"""Approximation operators: worked examples, cross-checks against the
set-comprehension oracles, and the pairing-level identities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsklab import (
    BinaryRelation,
    InputError,
    Pairing,
    PreconditionError,
    RelationClass,
    Subset,
    Universe,
    build_relation,
    enumerate_relations,
    granules,
    lower,
    predecessor_set,
    successor_set,
    upper,
)
from rsklab.operators import approx_tables
from rsklab.relations import rows_from_encoding

from oracles import (
    all_subsets,
    lower_pred,
    lower_succ,
    pairs_from_encoding,
    pawlak_classes,
    successor_union,
    upper_pred,
    upper_succ,
)

U3 = Universe(3)
CHAIN = build_relation(U3, [(0, 1), (1, 2)])
IDENTITY3 = build_relation(U3, [(i, i) for i in range(3)])
TWO_ONE = build_relation(U3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])


def subset(universe, members):
    return Subset.of(universe, members)


def each_relation(n):
    u = Universe(n)
    for encoding in range(1 << (n * n)):
        yield BinaryRelation.from_encoding(u, encoding)


class TestNeighbourhoods:
    def test_successor_identity(self):
        assert successor_set(IDENTITY3, 1).members() == (1,)

    def test_successor_chain(self):
        assert successor_set(CHAIN, 0).members() == (1,)

    def test_successor_empty_relation(self):
        r = build_relation(U3, [])
        assert all(successor_set(r, x).members() == () for x in range(3))

    def test_predecessor_identity(self):
        assert predecessor_set(IDENTITY3, 0).members() == (0,)

    def test_predecessor_chain_is_transposed_successor(self):
        assert predecessor_set(CHAIN, 1).members() == (0,)
        transposed = CHAIN.transpose()
        for x in range(3):
            assert predecessor_set(CHAIN, x) == successor_set(transposed, x)

    def test_symmetric_relation_collapses_directions(self):
        r = build_relation(U3, [(0, 1), (1, 0), (2, 2)])
        for x in range(3):
            assert predecessor_set(r, x) == successor_set(r, x)

    def test_index_out_of_range(self):
        with pytest.raises(InputError):
            successor_set(CHAIN, 3)
        with pytest.raises(InputError):
            predecessor_set(CHAIN, -1)


class TestGranules:
    def test_identity_gives_finest_partition(self):
        assert [g.members() for g in granules(IDENTITY3)] == [(0,), (1,), (2,)]

    def test_full_relation_gives_coarsest_partition(self):
        full = build_relation(U3, [(x, y) for x in range(3) for y in range(3)])
        assert [g.members() for g in granules(full)] == [(0, 1, 2)]

    def test_two_classes(self):
        assert [g.members() for g in granules(TWO_ONE)] == [(0, 1), (2,)]

    def test_rejects_non_equivalence(self):
        with pytest.raises(PreconditionError):
            granules(CHAIN)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_orbit_oracle(self, n):
        for r in enumerate_relations(n, RelationClass.Rrst):
            expected = pawlak_classes(n, set(r.pairs()))
            assert [frozenset(g.members()) for g in granules(r)] == expected


class TestWorkedExamples:
    def test_nondual_lower_of_empty_set_under_empty_relation(self):
        r = build_relation(U3, [])
        assert lower(Pairing.NONDUAL, r, Subset.empty(U3)) == Subset.full(U3)

    def test_dual_lower_catches_vacuous_rows(self):
        u = Universe(2)
        r = build_relation(u, [(0, 1)])
        assert lower(Pairing.DUAL_SUCC, r, subset(u, [1])) == Subset.full(u)

    def test_pawlak_lower_of_full_set(self):
        assert lower(Pairing.PAWLAK, TWO_ONE, Subset.full(U3)) == Subset.full(U3)

    def test_nondual_upper_collects_successors(self):
        assert upper(Pairing.NONDUAL, CHAIN, subset(U3, [0])).members() == (1,)

    def test_dual_upper_iterated_escapes_non_transitive(self):
        once = upper(Pairing.DUAL_SUCC, CHAIN, subset(U3, [2]))
        assert once.members() == (1,)
        twice = upper(Pairing.DUAL_SUCC, CHAIN, once)
        assert twice.members() == (0,)

    @pytest.mark.parametrize(
        "pairing", [Pairing.DUAL_SUCC, Pairing.NONDUAL, Pairing.MIRROR_NONDUAL]
    )
    def test_upper_of_empty_set_is_empty(self, pairing):
        for r in (CHAIN, IDENTITY3, TWO_ONE):
            assert upper(pairing, r, Subset.empty(U3)) == Subset.empty(U3)

    def test_pawlak_rejects_non_equivalence(self):
        with pytest.raises(PreconditionError):
            lower(Pairing.PAWLAK, CHAIN, Subset.empty(U3))
        with pytest.raises(PreconditionError):
            upper(Pairing.PAWLAK, CHAIN, Subset.empty(U3))

    def test_universe_mismatch(self):
        with pytest.raises(InputError):
            lower(Pairing.NONDUAL, CHAIN, Subset.empty(Universe(2)))

    def test_degenerate_empty_universe(self):
        u = Universe(0)
        r = build_relation(u, [])
        empty = Subset.empty(u)
        assert lower(Pairing.NONDUAL, r, empty) == empty
        assert upper(Pairing.NONDUAL, r, empty) == empty


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_all_three_neighbourhood_operators(self, n):
        u = Universe(n)
        for r in each_relation(n):
            pairs = pairs_from_encoding(n, r.encoding)
            for xs in all_subsets(n):
                x_set = Subset.of(u, xs)
                assert frozenset(lower(Pairing.DUAL_SUCC, r, x_set)) == lower_succ(
                    n, pairs, xs
                )
                assert frozenset(upper(Pairing.DUAL_SUCC, r, x_set)) == upper_succ(
                    n, pairs, xs
                )
                assert frozenset(upper(Pairing.NONDUAL, r, x_set)) == upper_pred(
                    n, pairs, xs
                )


def mask_of(members) -> int:
    return sum(1 << x for x in members)


def members_of(bits: int, n: int) -> frozenset[int]:
    return frozenset(x for x in range(n) if bits >> x & 1)


class TestKernelAgainstOracles:
    """``approx_tables`` builds each table from singleton images and dualizes
    the lower one; the oracles read neighbourhoods set by set."""

    ORACLES = {
        Pairing.DUAL_SUCC: (lower_succ, upper_succ),
        Pairing.NONDUAL: (lower_succ, upper_pred),
        Pairing.MIRROR_NONDUAL: (lower_pred, upper_succ),
    }

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5), st.data(), st.sampled_from(list(ORACLES)))
    def test_tables_and_single_sets_match_the_oracles(self, n, data, pairing):
        encoding = data.draw(st.integers(0, (1 << n * n) - 1))
        pairs = pairs_from_encoding(n, encoding)
        rows = rows_from_encoding(n, encoding)
        lo, up = approx_tables(n, rows, pairing)
        lower_oracle, upper_oracle = self.ORACLES[pairing]
        assert len(lo) == len(up) == 1 << n
        for bits in range(1 << n):
            xs = members_of(bits, n)
            assert lo[bits] == mask_of(lower_oracle(n, pairs, xs))
            assert up[bits] == mask_of(upper_oracle(n, pairs, xs))
        u = Universe(n)
        relation = BinaryRelation(u, rows)
        bits = data.draw(st.integers(0, u.full_mask))
        assert lower(pairing, relation, Subset(u, bits)).bits == lo[bits]
        assert upper(pairing, relation, Subset(u, bits)).bits == up[bits]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    ), st.data())
    def test_pawlak_tables_match_the_classes(self, labels, data):
        # an equivalence drawn as a block label per element
        n = len(labels)
        pairs = {(x, y) for x in range(n) for y in range(n) if labels[x] == labels[y]}
        rows = [mask_of(y for y in range(n) if (x, y) in pairs) for x in range(n)]
        lo, up = approx_tables(n, rows, Pairing.PAWLAK)
        classes = pawlak_classes(n, pairs)
        for bits in range(1 << n):
            xs = members_of(bits, n)
            assert lo[bits] == mask_of(x for c in classes if c <= xs for x in c)
            assert up[bits] == mask_of(x for c in classes if c & xs for x in c)
        u = Universe(n)
        relation = BinaryRelation(u, tuple(rows))
        bits = data.draw(st.integers(0, u.full_mask))
        assert lower(Pairing.PAWLAK, relation, Subset(u, bits)).bits == lo[bits]
        assert upper(Pairing.PAWLAK, relation, Subset(u, bits)).bits == up[bits]

    def test_pawlak_tables_reject_a_non_equivalence(self):
        with pytest.raises(PreconditionError):
            approx_tables(3, CHAIN.rows, Pairing.PAWLAK)


class TestPairingIdentities:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pawlak_dual_and_nondual_coincide_on_equivalences(self, n):
        u = Universe(n)
        pairings = (Pairing.PAWLAK, Pairing.DUAL_SUCC, Pairing.NONDUAL)
        for r in enumerate_relations(n, RelationClass.Rrst):
            for bits in range(1 << n):
                x_set = Subset(u, bits)
                lows = {lower(p, r, x_set) for p in pairings}
                ups = {upper(p, r, x_set) for p in pairings}
                assert len(lows) == 1 and len(ups) == 1

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_nondual_upper_equals_successor_union(self, n):
        u = Universe(n)
        for r in each_relation(n):
            pairs = pairs_from_encoding(n, r.encoding)
            for xs in all_subsets(n):
                got = upper(Pairing.NONDUAL, r, Subset.of(u, xs))
                assert frozenset(got) == successor_union(n, pairs, xs)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nondual_adjunction(self, n):
        u = Universe(n)
        for r in each_relation(n):
            for x_bits in range(1 << n):
                x_set = Subset(u, x_bits)
                image = upper(Pairing.NONDUAL, r, x_set)
                for y_bits in range(1 << n):
                    y_set = Subset(u, y_bits)
                    assert (image <= y_set) == (
                        x_set <= lower(Pairing.NONDUAL, r, y_set)
                    )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dual_pairing_duality_for_all_relations(self, n):
        u = Universe(n)
        for r in each_relation(n):
            for bits in range(1 << n):
                x_set = Subset(u, bits)
                assert (
                    lower(Pairing.DUAL_SUCC, r, x_set.complement())
                    == upper(Pairing.DUAL_SUCC, r, x_set).complement()
                )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mirror_equals_nondual_on_transpose(self, n):
        u = Universe(n)
        for r in each_relation(n):
            t = r.transpose()
            for bits in range(1 << n):
                x_set = Subset(u, bits)
                assert lower(Pairing.MIRROR_NONDUAL, r, x_set) == lower(
                    Pairing.NONDUAL, t, x_set
                )
                assert upper(Pairing.MIRROR_NONDUAL, r, x_set) == upper(
                    Pairing.NONDUAL, t, x_set
                )

    @pytest.mark.parametrize(
        "pairing", [Pairing.DUAL_SUCC, Pairing.NONDUAL, Pairing.MIRROR_NONDUAL]
    )
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_monotonicity(self, pairing, n):
        u = Universe(n)
        for r in each_relation(n):
            for x_bits in range(1 << n):
                for y_bits in range(1 << n):
                    if x_bits & ~y_bits:
                        continue
                    x_set, y_set = Subset(u, x_bits), Subset(u, y_bits)
                    assert lower(pairing, r, x_set) <= lower(pairing, r, y_set)
                    assert upper(pairing, r, x_set) <= upper(pairing, r, y_set)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pawlak_monotonicity_on_equivalences(self, n):
        u = Universe(n)
        for r in enumerate_relations(n, RelationClass.Rrst):
            for x_bits in range(1 << n):
                for y_bits in range(1 << n):
                    if x_bits & ~y_bits:
                        continue
                    x_set, y_set = Subset(u, x_bits), Subset(u, y_bits)
                    assert lower(Pairing.PAWLAK, r, x_set) <= lower(
                        Pairing.PAWLAK, r, y_set
                    )
                    assert upper(Pairing.PAWLAK, r, x_set) <= upper(
                        Pairing.PAWLAK, r, y_set
                    )


class TestPairingNames:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("dual", Pairing.DUAL_SUCC),
            ("dual-succ", Pairing.DUAL_SUCC),
            ("nondual", Pairing.NONDUAL),
            ("mirror", Pairing.MIRROR_NONDUAL),
            ("PAWLAK", Pairing.PAWLAK),
        ],
    )
    def test_parse(self, name, expected):
        assert Pairing.from_name(name) == expected

    def test_reject_unknown(self):
        with pytest.raises(InputError):
            Pairing.from_name("sideways")


@given(st.integers(1, 4), st.data())
def test_adjunction_random_relations(n, data):
    u = Universe(n)
    encoding = data.draw(st.integers(0, (1 << (n * n)) - 1))
    r = BinaryRelation.from_encoding(u, encoding)
    x_set = Subset(u, data.draw(st.integers(0, u.full_mask)))
    y_set = Subset(u, data.draw(st.integers(0, u.full_mask)))
    image = upper(Pairing.NONDUAL, r, x_set)
    assert (image <= y_set) == (x_set <= lower(Pairing.NONDUAL, r, y_set))
