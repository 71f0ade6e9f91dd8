"""Biconditional frame characterizations and their refuting witnesses.

Each characterization ties a property conjunction (quantified over every
subset) to a relation-class predicate:

* ``REFLEXIVE_LOWER``    l(X) ⊆ X                    iff reflexive
* ``REFLEXIVE_UPPER``    X ⊆ u(X)                    iff reflexive
* ``SYMMETRIC``          u(l(X)) ⊆ X                 iff symmetric
* ``TRANSITIVE_UPPER``   u(u(X)) ⊆ u(X)              iff transitive
* ``EQUIVALENCE``        the three above (lower form) iff equivalence
* ``EQUIVALENCE_ALT``    upper form of reflexivity    iff equivalence
* ``TRANSITIVE_NONDUAL`` u(X) ⊆ l(u(X)), non-dual    iff transitive
* ``PREORDER``           l(X) ⊆ X and the row above   iff pre-order

The first six run under the dual pairing, the last two under the
non-dual one. Both sides of every biconditional are computed
independently: the property side by exhaustive subset quantification,
the class side from the base predicates of the conjuncts' classes.

``proof_witness`` rebuilds the constructive sets used to refute the
property on a class-violating relation: the successor set of a
reflexivity violator, the singleton of a missing loop, the successor set
of the target of an asymmetric edge, and the singletons taken from a
non-transitive triple. The violating tuples come from
``RelationClass.violation``, the same base predicates that decide the
class side, and are lexicographically smallest, so witnesses are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .errors import InputError, NoWitnessError
from .operators import Pairing, approx_tables
from .properties import property_row, relation_failures
from .relations import BinaryRelation, RelationClass, Subset, Violation


class Characterization(Enum):
    REFLEXIVE_LOWER = "reflexive-lower"
    REFLEXIVE_UPPER = "reflexive-upper"
    SYMMETRIC = "symmetric"
    TRANSITIVE_UPPER = "transitive-upper"
    EQUIVALENCE = "equivalence"
    EQUIVALENCE_ALT = "equivalence-alt"
    TRANSITIVE_NONDUAL = "transitive-nondual"
    PREORDER = "preorder"

    @classmethod
    def from_tag(cls, tag: str) -> Characterization:
        normalized = tag.strip().lower().replace("_", "-")
        for member in cls:
            if member.value == normalized:
                return member
        raise InputError(
            f"unknown characterization {tag!r}; expected one of "
            + ", ".join(m.value for m in cls)
        )


# Each conjunct row's class and the bits of its refuting set, from the rows
# and the class's violating tuple: the constructive set of the
# contrapositive argument.
_ROW_CLASSES: dict[
    int, tuple[RelationClass, Callable[[Sequence[int], Violation], int]]
] = {
    6: (RelationClass.Rr, lambda rows, v: rows[v[0]]),
    7: (RelationClass.Rr, lambda rows, v: 1 << v[0]),
    23: (RelationClass.Rs, lambda rows, v: rows[v[1]]),
    18: (RelationClass.Rt, lambda rows, v: 1 << v[2]),
    21: (RelationClass.Rt, lambda rows, v: 1 << v[0]),
}

# Each characterization's pairing and conjunct rows, in theorem order.
_BINDINGS: dict[Characterization, tuple[Pairing, tuple[int, ...]]] = {
    Characterization.REFLEXIVE_LOWER: (Pairing.DUAL_SUCC, (6,)),
    Characterization.REFLEXIVE_UPPER: (Pairing.DUAL_SUCC, (7,)),
    Characterization.SYMMETRIC: (Pairing.DUAL_SUCC, (23,)),
    Characterization.TRANSITIVE_UPPER: (Pairing.DUAL_SUCC, (18,)),
    Characterization.EQUIVALENCE: (Pairing.DUAL_SUCC, (6, 23, 18)),
    Characterization.EQUIVALENCE_ALT: (Pairing.DUAL_SUCC, (7, 23, 18)),
    Characterization.TRANSITIVE_NONDUAL: (Pairing.NONDUAL, (21,)),
    Characterization.PREORDER: (Pairing.NONDUAL, (6, 21)),
}


def characterization_pairing(c: Characterization) -> Pairing:
    return _BINDINGS[c][0]


def characterization_rows(c: Characterization) -> tuple[int, ...]:
    return _BINDINGS[c][1]


@dataclass(frozen=True)
class ConsistencyRecord:
    characterization: Characterization
    property_holds: bool
    class_holds: bool

    @property
    def consistent(self) -> bool:
        return self.property_holds == self.class_holds


def check_biconditional(
    c: Characterization, relation: BinaryRelation
) -> ConsistencyRecord:
    """Evaluate both sides of one biconditional independently."""
    pairing, rows = _BINDINGS[c]
    lo, up = approx_tables(relation.universe.size, relation.rows, pairing)
    full = relation.universe.full_mask
    property_holds = not relation_failures(map(property_row, rows), lo, up, full)
    class_holds = all(_ROW_CLASSES[row][0].contains(relation) for row in rows)
    return ConsistencyRecord(c, property_holds, class_holds)


def proof_witness(c: Characterization, relation: BinaryRelation) -> Subset:
    """A subset refuting the property side on a class-violating relation.

    Follows the constructive contrapositive arguments, applied to the
    first conjunct (in theorem order) whose class predicate fails.
    """
    rows = relation.rows
    for row in _BINDINGS[c][1]:
        relation_class, witness = _ROW_CLASSES[row]
        violation = relation_class.violation(relation.universe.size, rows)
        if violation is not None:
            return Subset(relation.universe, witness(rows, violation))
    raise NoWitnessError(
        f"relation satisfies the {c.value} class predicate; nothing to refute"
    )
