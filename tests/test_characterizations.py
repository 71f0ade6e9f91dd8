"""Characterization biconditionals and their constructive witnesses."""

import json
from collections import Counter
from pathlib import Path

import pytest

from rsklab import (
    BinaryRelation,
    CapacityError,
    Characterization,
    InputError,
    NoWitnessError,
    Pairing,
    Subset,
    Universe,
    build_relation,
    check_biconditional,
    classify,
    eval_property,
    proof_witness,
)
from rsklab import characterizations
from rsklab.characterizations import (
    characterization_pairing,
    characterization_rows,
)
from rsklab.operators import approx_tables
from rsklab.properties import PROPERTY_ROWS, property_row, relation_failures
from rsklab.relations import MAX_INPUT_SIZE, rows_from_encoding

from oracles import CONDITIONS, ROW_CONDITIONS, TRANSPOSED, pairs_from_encoding

U2 = Universe(2)
U3 = Universe(3)
CHAIN = build_relation(U3, [(0, 1), (1, 2)])
IDENTITY3 = build_relation(U3, [(i, i) for i in range(3)])
ONE_ARROW = build_relation(U2, [(0, 1)])

ALL = list(Characterization)
WITNESS_GOLDEN = Path(__file__).parent / "golden" / "witnesses_n3.json"


def each_relation(n):
    u = Universe(n)
    for encoding in range(1 << (n * n)):
        yield BinaryRelation.from_encoding(u, encoding)


def class_side(c: Characterization, relation) -> bool:
    flags = classify(relation)
    return {
        Characterization.REFLEXIVE_LOWER: flags.reflexive,
        Characterization.REFLEXIVE_UPPER: flags.reflexive,
        Characterization.SYMMETRIC: flags.symmetric,
        Characterization.TRANSITIVE_UPPER: flags.transitive,
        Characterization.EQUIVALENCE: flags.equivalence,
        Characterization.EQUIVALENCE_ALT: flags.equivalence,
        Characterization.TRANSITIVE_NONDUAL: flags.transitive,
        Characterization.PREORDER: flags.preorder,
    }[c]


def conjunction_at(c: Characterization, relation, witness) -> bool:
    pairing = characterization_pairing(c)
    return all(
        eval_property(row, pairing, relation, witness)
        for row in characterization_rows(c)
    )


# The module docstring's table: each characterization's pairing and its
# conjunct rows, in theorem order.
DOCSTRING_TABLE = {
    Characterization.REFLEXIVE_LOWER: (Pairing.DUAL_SUCC, (6,)),
    Characterization.REFLEXIVE_UPPER: (Pairing.DUAL_SUCC, (7,)),
    Characterization.SYMMETRIC: (Pairing.DUAL_SUCC, (23,)),
    Characterization.TRANSITIVE_UPPER: (Pairing.DUAL_SUCC, (18,)),
    Characterization.EQUIVALENCE: (Pairing.DUAL_SUCC, (6, 23, 18)),
    Characterization.EQUIVALENCE_ALT: (Pairing.DUAL_SUCC, (7, 23, 18)),
    Characterization.TRANSITIVE_NONDUAL: (Pairing.NONDUAL, (21,)),
    Characterization.PREORDER: (Pairing.NONDUAL, (6, 21)),
}


class TestBindings:
    @pytest.mark.parametrize("c", ALL, ids=lambda c: c.value)
    def test_pairing_and_rows_are_the_docstring_table(self, c):
        pairing, rows = DOCSTRING_TABLE[c]
        assert characterization_pairing(c) is pairing
        assert characterization_rows(c) == rows

    def test_a_one_row_line_of_the_docstring_states_its_row(self):
        lines = characterizations.__doc__.splitlines()
        for c, (_, rows) in DOCSTRING_TABLE.items():
            if len(rows) == 1:
                line = next(line for line in lines if f"``{c.name}``" in line)
                assert property_row(rows[0]).label in line, c


class TestWorkedExamples:
    def test_reflexive_lower_on_identity(self):
        record = check_biconditional(Characterization.REFLEXIVE_LOWER, IDENTITY3)
        assert (record.property_holds, record.class_holds, record.consistent) == (
            True,
            True,
            True,
        )

    def test_transitive_upper_on_chain(self):
        record = check_biconditional(Characterization.TRANSITIVE_UPPER, CHAIN)
        assert (record.property_holds, record.class_holds, record.consistent) == (
            False,
            False,
            True,
        )

    def test_symmetric_on_one_arrow(self):
        record = check_biconditional(Characterization.SYMMETRIC, ONE_ARROW)
        assert (record.property_holds, record.class_holds, record.consistent) == (
            False,
            False,
            True,
        )

    def test_tag_parsing(self):
        assert Characterization.from_tag("REFLEXIVE_LOWER") is (
            Characterization.REFLEXIVE_LOWER
        )
        assert Characterization.from_tag("preorder") is Characterization.PREORDER
        with pytest.raises(InputError):
            Characterization.from_tag("antisymmetric")

    def test_oversized_relation_rejected(self):
        big = build_relation(Universe(MAX_INPUT_SIZE + 1), [])
        with pytest.raises(CapacityError):
            check_biconditional(Characterization.PREORDER, big)


class TestProofWitness:
    def test_reflexive_lower_witness_is_the_successor_set(self):
        witness = proof_witness(Characterization.REFLEXIVE_LOWER, ONE_ARROW)
        assert witness == Subset.of(U2, [1])
        assert not eval_property(6, characterization_pairing(
            Characterization.REFLEXIVE_LOWER), ONE_ARROW, witness)

    def test_reflexive_upper_witness_is_the_singleton(self):
        witness = proof_witness(Characterization.REFLEXIVE_UPPER, ONE_ARROW)
        assert witness == Subset.of(U2, [0])

    def test_symmetric_witness(self):
        witness = proof_witness(Characterization.SYMMETRIC, ONE_ARROW)
        # successor set of the arrowhead: R_s(1) is empty here
        assert witness == Subset.empty(U2)
        assert not conjunction_at(Characterization.SYMMETRIC, ONE_ARROW, witness)

    def test_transitive_upper_witness_is_the_chain_end(self):
        witness = proof_witness(Characterization.TRANSITIVE_UPPER, CHAIN)
        assert witness == Subset.of(U3, [2])

    def test_transitive_nondual_witness_is_the_chain_start(self):
        witness = proof_witness(Characterization.TRANSITIVE_NONDUAL, CHAIN)
        assert witness == Subset.of(U3, [0])

    def test_composite_uses_first_violated_conjunct(self):
        # reflexive and symmetric but not transitive: the witness must
        # target the transitivity conjunct
        r = build_relation(U3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)])
        flags = classify(r)
        assert flags.reflexive and flags.symmetric and not flags.transitive
        witness = proof_witness(Characterization.EQUIVALENCE, r)
        assert not conjunction_at(Characterization.EQUIVALENCE, r, witness)

    def test_no_witness_on_satisfying_relation(self):
        with pytest.raises(NoWitnessError):
            proof_witness(Characterization.REFLEXIVE_LOWER, IDENTITY3)
        with pytest.raises(NoWitnessError):
            proof_witness(Characterization.PREORDER, IDENTITY3)


class TestBiconditionals:
    @pytest.mark.parametrize("c", ALL, ids=lambda c: c.value)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sound_for_every_small_relation(self, c, n):
        for relation in each_relation(n):
            record = check_biconditional(c, relation)
            assert record.consistent
            assert record.class_holds == class_side(c, relation)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equivalence_property_is_the_conjunction_of_the_parts(self, n):
        atoms = (
            Characterization.REFLEXIVE_LOWER,
            Characterization.SYMMETRIC,
            Characterization.TRANSITIVE_UPPER,
        )
        for relation in each_relation(n):
            whole = check_biconditional(Characterization.EQUIVALENCE, relation)
            parts = [check_biconditional(a, relation).property_holds for a in atoms]
            assert whole.property_holds == all(parts)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_both_equivalence_forms_agree(self, n):
        for relation in each_relation(n):
            a = check_biconditional(Characterization.EQUIVALENCE, relation)
            b = check_biconditional(Characterization.EQUIVALENCE_ALT, relation)
            assert a.property_holds == b.property_holds

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_preorder_characterization_tracks_flags(self, n):
        for relation in each_relation(n):
            record = check_biconditional(Characterization.PREORDER, relation)
            assert record.class_holds == classify(relation).preorder
            assert record.consistent

    @pytest.mark.parametrize("c", ALL, ids=lambda c: c.value)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_witness_refutes_on_every_violating_relation(self, c, n):
        for relation in each_relation(n):
            if class_side(c, relation):
                continue
            witness = proof_witness(c, relation)
            assert not conjunction_at(c, relation, witness)


class TestWitnessGolden:
    """Every n<=3 relation under every characterization: the biconditional
    record and, where the class side fails, the witness. Captured before
    the class predicates were rewritten; it pins which conjunct a composite
    characterization refutes first, not only that the witness refutes."""

    def test_records_and_witnesses_match_the_golden(self):
        golden = json.loads(WITNESS_GOLDEN.read_text(encoding="utf-8"))
        assert len(golden) == len(ALL) * 3
        for c in ALL:
            for n in (1, 2, 3):
                got = []
                for relation in each_relation(n):
                    record = check_biconditional(c, relation)
                    entry = [record.property_holds, record.class_holds]
                    if not record.class_holds:
                        entry.append(list(proof_witness(c, relation).members()))
                    got.append(entry)
                assert got == golden[f"{c.value} n={n}"], (c, n)


ONE_SET_ROWS = [row for row in PROPERTY_ROWS if not row.two_set]

# The 4-element relations on which each condition holds: 15^4 serial and
# 15^4 converse-serial, 2^12 reflexive, 2^10 symmetric, 3,994 transitive
# (OEIS A006905).
CONDITION_COUNTS_AT_4 = {
    "every": 65536,
    "serial": 50625,
    "converse-serial": 50625,
    "reflexive": 4096,
    "symmetric": 1024,
    "transitive": 3994,
    "dense": 34924,
    "euclidean": 306,
    "inner-successor": 11724,
}


def correspondent_mismatches(pairings, max_n):
    """Each (n, encoding, pairing) where the one-set rows that fail through
    ``approx_tables`` and ``relation_failures`` are not those whose
    condition fails; and, at n = 4, how many relations each condition
    holds on and, per pairing, each row fails on."""
    conditions = {
        pairing: [
            (row.index, ROW_CONDITIONS[row.index, pairing.value])
            for row in ONE_SET_ROWS
        ]
        for pairing in pairings
    }
    mismatches, holding = [], Counter()
    failing = {pairing: Counter() for pairing in pairings}
    for n in range(1, max_n + 1):
        full = (1 << n) - 1
        for encoding in range(1 << n * n):
            pairs = pairs_from_encoding(n, encoding)
            held = {name for name, holds in CONDITIONS.items() if holds(n, pairs)}
            rows = rows_from_encoding(n, encoding)
            for pairing in pairings:
                lo, up = approx_tables(n, rows, pairing)
                failures = relation_failures(ONE_SET_ROWS, lo, up, full)
                expected = {i for i, name in conditions[pairing] if name not in held}
                if failures.keys() != expected:
                    mismatches.append((n, encoding, pairing))
                if n == 4:
                    failing[pairing].update(failures.keys())
            if n == 4:
                holding.update(held)
    return mismatches, holding, failing


class TestRowCorrespondents:
    """Each one-set row holds on a relation, under a pairing, exactly when
    the relation satisfies the row's first-order condition in
    ``oracles.ROW_CONDITIONS``."""

    def test_the_table_covers_every_row_and_pairing(self):
        pairings = {"dual-succ", "nondual", "mirror-nondual"}
        assert ROW_CONDITIONS.keys() == {
            (index, pairing) for index in range(1, 24) for pairing in pairings
        }
        assert set(ROW_CONDITIONS.values()) == CONDITIONS.keys()

    def test_the_characterizations_are_entries_of_the_table(self):
        classes = {
            Characterization.REFLEXIVE_LOWER: {"reflexive"},
            Characterization.REFLEXIVE_UPPER: {"reflexive"},
            Characterization.SYMMETRIC: {"symmetric"},
            Characterization.TRANSITIVE_UPPER: {"transitive"},
            Characterization.EQUIVALENCE: {"reflexive", "symmetric", "transitive"},
            Characterization.EQUIVALENCE_ALT: {"reflexive", "symmetric", "transitive"},
            Characterization.TRANSITIVE_NONDUAL: {"transitive"},
            Characterization.PREORDER: {"reflexive", "transitive"},
        }
        for c, (pairing, rows) in DOCSTRING_TABLE.items():
            assert {ROW_CONDITIONS[row, pairing.value] for row in rows} == classes[c]

    def test_dual_and_nondual_on_every_relation_to_four(self):
        pairings = [Pairing.DUAL_SUCC, Pairing.NONDUAL]
        mismatches, holding, failing = correspondent_mismatches(pairings, 4)
        assert mismatches == []
        assert holding == CONDITION_COUNTS_AT_4
        for row in ONE_SET_ROWS:
            for pairing in pairings:
                held = CONDITION_COUNTS_AT_4[ROW_CONDITIONS[row.index, pairing.value]]
                assert 65536 - failing[pairing][row.index] == held, (row, pairing)

    def test_mirror_to_three_reads_the_transposed_conditions(self):
        mismatches, _, _ = correspondent_mismatches([Pairing.MIRROR_NONDUAL], 3)
        assert mismatches == []
        # rows 2 and 5 swap serial and converse-serial against nondual
        for index in range(1, 24):
            swapped = ROW_CONDITIONS[index, "mirror-nondual"] != ROW_CONDITIONS[
                index, "nondual"
            ]
            assert swapped == (index in (2, 5))
        # each nondual condition on the transpose is its transposed condition
        nondual = {name for (_, p), name in ROW_CONDITIONS.items() if p == "nondual"}
        for n in range(1, 4):
            for encoding in range(1 << n * n):
                pairs = pairs_from_encoding(n, encoding)
                transpose = {(y, x) for x, y in pairs}
                for name in nondual:
                    holds = CONDITIONS[name]
                    transposed = CONDITIONS[TRANSPOSED.get(name, name)]
                    assert holds(n, transpose) == transposed(n, pairs), (name, pairs)
