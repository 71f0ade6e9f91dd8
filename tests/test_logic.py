"""Implication frames: deductive closure, inner theories and operator laws."""

import pytest

from rsklab import (
    ImplicationFrame,
    InputError,
    RelationClass,
    Subset,
    Universe,
    build_relation,
    classify,
    deductive_closure,
    enumerate_relations,
    is_theory,
    largest_theory_within,
)

PQR = Universe(3, ("p", "q", "r"))


def frame(pairs):
    return ImplicationFrame(PQR, build_relation(PQR, pairs))


@pytest.fixture
def p_implies_q():
    return frame([(0, 1)])


class TestConstruction:
    def test_relation_is_closed_at_construction(self, p_implies_q):
        assert classify(p_implies_q.implies).preorder
        assert p_implies_q.implies.pairs() == ((0, 0), (0, 1), (1, 1), (2, 2))

    def test_cycles_close_into_mutual_implication(self):
        f = frame([(0, 1), (1, 0)])
        assert f.implies.has(0, 0) and f.implies.has(1, 0) and f.implies.has(0, 1)
        assert classify(f.implies).preorder

    def test_closed_input_is_untouched(self):
        closed = build_relation(PQR, [(0, 0), (1, 1), (2, 2), (0, 1)])
        assert ImplicationFrame(PQR, closed).implies == closed

    def test_universe_mismatch(self):
        with pytest.raises(InputError):
            ImplicationFrame(PQR, build_relation(Universe(2), []))

    def test_theory_of_a_foreign_universe_is_rejected(self, p_implies_q):
        with pytest.raises(
            InputError, match="^set and frame belong to different universes$"
        ):
            is_theory(p_implies_q, Subset.empty(Universe(2)))


class TestWorkedExamples:
    def test_closure_of_a_premise(self, p_implies_q):
        assert deductive_closure(p_implies_q, Subset.from_labels(PQR, ["p"])).labels() == (
            "p",
            "q",
        )

    def test_closure_of_nothing(self, p_implies_q):
        assert deductive_closure(p_implies_q, Subset.empty(PQR)) == Subset.empty(PQR)

    def test_closure_fixes_theories(self, p_implies_q):
        closed = Subset.from_labels(PQR, ["p", "q"])
        assert deductive_closure(p_implies_q, closed) == closed

    def test_interior_drops_underivable_premises(self, p_implies_q):
        assert largest_theory_within(
            p_implies_q, Subset.from_labels(PQR, ["p"])
        ) == Subset.empty(PQR)

    def test_interior_of_everything(self, p_implies_q):
        assert largest_theory_within(p_implies_q, Subset.full(PQR)) == Subset.full(PQR)

    def test_interior_keeps_closed_singletons(self, p_implies_q):
        q_only = Subset.from_labels(PQR, ["q"])
        assert largest_theory_within(p_implies_q, q_only) == q_only

    def test_is_theory(self, p_implies_q):
        assert is_theory(p_implies_q, Subset.empty(PQR))
        assert is_theory(p_implies_q, Subset.full(PQR))
        assert not is_theory(p_implies_q, Subset.from_labels(PQR, ["p"]))


class TestOperatorLaws:
    def preorder_frames(self):
        for n in (1, 2, 3):
            universe = Universe(n)
            for relation in enumerate_relations(n, RelationClass.Rrt):
                yield universe, ImplicationFrame(universe, relation)

    def test_closure_is_a_closure_operator(self):
        for universe, f in self.preorder_frames():
            for bits in range(universe.full_mask + 1):
                x = Subset(universe, bits)
                cx = deductive_closure(f, x)
                assert x <= cx
                assert deductive_closure(f, cx) == cx
                for other in range(universe.full_mask + 1):
                    if not bits & ~other:
                        assert cx <= deductive_closure(f, Subset(universe, other))

    def test_interior_is_an_interior_operator(self):
        for universe, f in self.preorder_frames():
            for bits in range(universe.full_mask + 1):
                x = Subset(universe, bits)
                ix = largest_theory_within(f, x)
                assert ix <= x
                assert largest_theory_within(f, ix) == ix
                for other in range(universe.full_mask + 1):
                    if not bits & ~other:
                        assert ix <= largest_theory_within(f, Subset(universe, other))

    def test_outputs_are_theories_and_extremal(self):
        for universe, f in self.preorder_frames():
            for bits in range(universe.full_mask + 1):
                x = Subset(universe, bits)
                cx = deductive_closure(f, x)
                ix = largest_theory_within(f, x)
                assert is_theory(f, cx) and is_theory(f, ix)
                for other in range(universe.full_mask + 1):
                    candidate = Subset(universe, other)
                    if not is_theory(f, candidate):
                        continue
                    if x <= candidate:
                        assert cx <= candidate  # smallest theory containing x
                    if candidate <= x:
                        assert candidate <= ix  # largest theory inside x

    def test_galois_pair(self):
        for universe, f in self.preorder_frames():
            for x_bits in range(universe.full_mask + 1):
                x = Subset(universe, x_bits)
                cx = deductive_closure(f, x)
                for y_bits in range(universe.full_mask + 1):
                    y = Subset(universe, y_bits)
                    assert (cx <= y) == (x <= largest_theory_within(f, y))
