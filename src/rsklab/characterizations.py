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
non-transitive triple. Violating tuples are chosen lexicographically
smallest, so witnesses are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .errors import InputError, NoWitnessError
from .operators import Pairing, approx_tables
from .properties import property_row, relation_failures
from .relations import BinaryRelation, RelationClass, Subset, check_input_size


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


@dataclass(frozen=True)
class _Conjunct:
    """A property row, the class it characterizes, and a refuting set's bits."""

    row: int
    relation_class: RelationClass
    witness: Callable[[BinaryRelation], int]


# The conjuncts, in the order the composite theorems state them; each
# witness is the constructive set of the contrapositive argument.
_REFL_LOWER = _Conjunct(6, RelationClass.Rr, lambda r: r.rows[_smallest_non_loop(r)])
_REFL_UPPER = _Conjunct(7, RelationClass.Rr, lambda r: 1 << _smallest_non_loop(r))
_SYM = _Conjunct(
    23, RelationClass.Rs, lambda r: r.rows[_smallest_asymmetric_pair(r)[1]]
)
_TRANS_UPPER = _Conjunct(
    18, RelationClass.Rt, lambda r: 1 << _smallest_open_triple(r)[2]
)
_TRANS_NONDUAL = _Conjunct(
    21, RelationClass.Rt, lambda r: 1 << _smallest_open_triple(r)[0]
)

_BINDINGS: dict[Characterization, tuple[Pairing, tuple[_Conjunct, ...]]] = {
    Characterization.REFLEXIVE_LOWER: (Pairing.DUAL_SUCC, (_REFL_LOWER,)),
    Characterization.REFLEXIVE_UPPER: (Pairing.DUAL_SUCC, (_REFL_UPPER,)),
    Characterization.SYMMETRIC: (Pairing.DUAL_SUCC, (_SYM,)),
    Characterization.TRANSITIVE_UPPER: (Pairing.DUAL_SUCC, (_TRANS_UPPER,)),
    Characterization.EQUIVALENCE: (
        Pairing.DUAL_SUCC,
        (_REFL_LOWER, _SYM, _TRANS_UPPER),
    ),
    Characterization.EQUIVALENCE_ALT: (
        Pairing.DUAL_SUCC,
        (_REFL_UPPER, _SYM, _TRANS_UPPER),
    ),
    Characterization.TRANSITIVE_NONDUAL: (Pairing.NONDUAL, (_TRANS_NONDUAL,)),
    Characterization.PREORDER: (Pairing.NONDUAL, (_REFL_LOWER, _TRANS_NONDUAL)),
}


def characterization_pairing(c: Characterization) -> Pairing:
    return _BINDINGS[c][0]


def characterization_rows(c: Characterization) -> tuple[int, ...]:
    return tuple(conjunct.row for conjunct in _BINDINGS[c][1])


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
    pairing, conjuncts = _BINDINGS[c]
    n = relation.universe.size
    check_input_size(n)
    lo, up = approx_tables(n, relation.rows, pairing)
    full = relation.universe.full_mask
    property_holds = not relation_failures(
        [property_row(conjunct.row) for conjunct in conjuncts], lo, up, full
    )
    class_holds = all(
        conjunct.relation_class.contains(relation) for conjunct in conjuncts
    )
    return ConsistencyRecord(c, property_holds, class_holds)


def _smallest_non_loop(relation: BinaryRelation) -> int | None:
    for x in range(relation.universe.size):
        if not relation.rows[x] >> x & 1:
            return x
    return None


def _smallest_asymmetric_pair(relation: BinaryRelation) -> tuple[int, int] | None:
    n = relation.universe.size
    for x in range(n):
        for y in range(n):
            if relation.rows[x] >> y & 1 and not relation.rows[y] >> x & 1:
                return x, y
    return None


def _smallest_open_triple(relation: BinaryRelation) -> tuple[int, int, int] | None:
    n = relation.universe.size
    for x in range(n):
        for y in range(n):
            if not relation.rows[x] >> y & 1:
                continue
            for z in range(n):
                if relation.rows[y] >> z & 1 and not relation.rows[x] >> z & 1:
                    return x, y, z
    return None


def proof_witness(c: Characterization, relation: BinaryRelation) -> Subset:
    """A subset refuting the property side on a class-violating relation.

    Follows the constructive contrapositive arguments, applied to the
    first conjunct (in theorem order) whose class predicate fails.
    """
    for conjunct in _BINDINGS[c][1]:
        if not conjunct.relation_class.contains(relation):
            return Subset(relation.universe, conjunct.witness(relation))
    raise NoWitnessError(
        f"relation satisfies the {c.value} class predicate; nothing to refute"
    )
