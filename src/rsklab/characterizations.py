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
the class side from the classification flags.

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
from .properties import first_failure, property_row
from .relations import (
    BinaryRelation,
    RelationFlags,
    Subset,
    check_input_size,
    classify,
)


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


# conjunct kinds, in the order the composite theorems state them
_REFL_LOWER = "reflexive-lower"
_REFL_UPPER = "reflexive-upper"
_SYM = "symmetric"
_TRANS_UPPER = "transitive-upper"
_TRANS_NONDUAL = "transitive-nondual"

_CONJUNCT_ROW = {
    _REFL_LOWER: 6,
    _REFL_UPPER: 7,
    _SYM: 23,
    _TRANS_UPPER: 18,
    _TRANS_NONDUAL: 21,
}

_CONJUNCT_FLAG: dict[str, Callable[[RelationFlags], bool]] = {
    _REFL_LOWER: lambda f: f.reflexive,
    _REFL_UPPER: lambda f: f.reflexive,
    _SYM: lambda f: f.symmetric,
    _TRANS_UPPER: lambda f: f.transitive,
    _TRANS_NONDUAL: lambda f: f.transitive,
}

_BINDINGS: dict[Characterization, tuple[Pairing, tuple[str, ...]]] = {
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
    return tuple(_CONJUNCT_ROW[kind] for kind in _BINDINGS[c][1])


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
    property_holds = all(
        first_failure(property_row(_CONJUNCT_ROW[kind]), lo, up, full) is None
        for kind in conjuncts
    )
    flags = classify(relation)
    class_holds = all(_CONJUNCT_FLAG[kind](flags) for kind in conjuncts)
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
    universe = relation.universe
    flags = classify(relation)
    _, conjuncts = _BINDINGS[c]
    for kind in conjuncts:
        if _CONJUNCT_FLAG[kind](flags):
            continue
        if kind == _REFL_LOWER:
            x = _smallest_non_loop(relation)
            return Subset(universe, relation.rows[x])
        if kind == _REFL_UPPER:
            x = _smallest_non_loop(relation)
            return Subset(universe, 1 << x)
        if kind == _SYM:
            _, y = _smallest_asymmetric_pair(relation)
            return Subset(universe, relation.rows[y])
        if kind == _TRANS_UPPER:
            _, _, z = _smallest_open_triple(relation)
            return Subset(universe, 1 << z)
        if kind == _TRANS_NONDUAL:
            x, _, _ = _smallest_open_triple(relation)
            return Subset(universe, 1 << x)
    raise NoWitnessError(
        f"relation satisfies the {c.value} class predicate; nothing to refute"
    )
