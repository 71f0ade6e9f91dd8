"""Implication pre-orders read as rough approximation structure.

Propositions form the universe; an implication relation is closed
reflexively and transitively at construction. A theory is a set of
propositions closed under implication. The non-dual upper approximation
of a set is then its deductive closure (the smallest theory containing
it) and the non-dual lower approximation is the largest theory inside
it. Theories are closed under union here, so that largest theory is also
the union of all maximal theories within the set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .operators import Pairing, lower, upper
from .relations import (
    BinaryRelation,
    Subset,
    Universe,
    reflexive_closure,
    transitive_closure,
)


@dataclass(frozen=True)
class ImplicationFrame:
    """A set of propositions with a reflexive-transitive implication relation.

    Any relation is accepted; construction normalizes it to its
    reflexive-transitive closure, since implication is inherently both.
    """

    propositions: Universe
    implies: BinaryRelation

    def __post_init__(self) -> None:
        if self.implies.universe != self.propositions:
            raise InputError("implication relation is over a different universe")
        object.__setattr__(
            self, "implies", transitive_closure(reflexive_closure(self.implies))
        )


def deductive_closure(frame: ImplicationFrame, p_set: Subset) -> Subset:
    """Smallest theory containing the given propositions."""
    return upper(Pairing.NONDUAL, frame.implies, p_set)


def largest_theory_within(frame: ImplicationFrame, p_set: Subset) -> Subset:
    """Largest theory contained in the given propositions."""
    return lower(Pairing.NONDUAL, frame.implies, p_set)


def is_theory(frame: ImplicationFrame, p_set: Subset) -> bool:
    """Closed under implication: every consequence of a member is a member."""
    if p_set.universe != frame.propositions:
        raise InputError("set and frame belong to different universes")
    for p in range(frame.propositions.size):
        if p_set.bits >> p & 1 and frame.implies.rows[p] & ~p_set.bits:
            return False
    return True
