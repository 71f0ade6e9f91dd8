"""Coverings, point neighbourhoods, definable sets and the C_t operators.

A covering is a family of nonempty blocks whose union is the whole
universe; the neighbourhood N(x) is the intersection of all blocks
containing x. Reading ``x -> N(x)`` as successor rows induces a relation
that is always reflexive and transitive, and under that pre-order the
C_t lower/upper operators coincide with the non-dual relational pair.
``verify_reduction`` checks that coincidence on all 2^n subsets at once,
tabulating C_t by subset and superset recurrences in O(n·2^n).

A set is definable when it is the union of the neighbourhoods of its own
points. The definable family is every union of neighbourhoods, the empty
union included: the image of the non-dual upper table of the induced
relation, built from the distinct neighbourhoods alone. The upper
operator is computed both as the union of member neighbourhoods (by its
own loop or recurrence, not the operator kernel) and as the
intersection of definable supersets, and the two forms are asserted
equal on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import InputError, RskError
from .operators import Pairing, approx_tables
from .relations import BinaryRelation, Subset, Universe, check_capacity, join_table


@dataclass(frozen=True)
class Covering:
    """A multiset of nonempty blocks jointly covering the universe."""

    universe: Universe
    blocks: tuple[Subset, ...]

    def __post_init__(self) -> None:
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        union = 0
        for i, block in enumerate(blocks):
            if block.universe != self.universe:
                raise InputError(f"block {i} belongs to a different universe")
            if block.bits == 0:
                raise InputError(f"block {i} is empty; covering blocks must be nonempty")
            union |= block.bits
        if union != self.universe.full_mask:
            missing = Subset(self.universe, self.universe.full_mask & ~union)
            raise InputError(f"blocks do not cover the universe; missing {missing!r}")

    @classmethod
    def from_masks(cls, universe: Universe, masks: Iterable[int]) -> Covering:
        return cls(universe, tuple(Subset(universe, m) for m in masks))

    def block_masks(self) -> tuple[int, ...]:
        return tuple(block.bits for block in self.blocks)

    @cached_property
    def neighborhoods(self) -> tuple[int, ...]:
        """N(x) for every x, built once per covering and read by the operators below."""
        masks = self.block_masks()
        out = []
        for x in range(self.universe.size):
            acc = self.universe.full_mask
            for mask in masks:
                if mask >> x & 1:
                    acc &= mask
            out.append(acc)
        return tuple(out)


def neighborhood(covering: Covering, x: int) -> Subset:
    """Intersection of all blocks containing x; always contains x."""
    covering.universe.check_index(x)
    return Subset(covering.universe, covering.neighborhoods[x])


def definable_masks(covering: Covering) -> list[int]:
    """The definable sets: every union of the distinct neighbourhoods N(x).

    Contains the empty union and the whole universe; sorted ascending. A
    covering with k distinct neighbourhoods costs a 2^k join table.
    """
    return sorted(set(join_table(sorted(set(covering.neighborhoods)))))


def definable_family(covering: Covering) -> list[Subset]:
    return [Subset(covering.universe, m) for m in definable_masks(covering)]


def is_definable(covering: Covering, candidate: Subset) -> bool:
    """Pointwise test: D equals the union of N(x) over its own members."""
    if candidate.universe != covering.universe:
        raise InputError("set and covering belong to different universes")
    return _ct(covering.neighborhoods, candidate.bits)[1] == candidate.bits


def _ct(
    neigh: tuple[int, ...], bits: int, definable: list[int] | None = None
) -> tuple[int, int]:
    """(C_t lower, C_t upper) of one set from the neighbourhoods N(x).

    Given the definable family, the upper approximation is also computed
    as the intersection of the definable supersets, and the two forms are
    asserted equal.
    """
    lower_bits = union_form = 0
    for x, mask in enumerate(neigh):
        if not mask & ~bits:
            lower_bits |= mask
        if bits >> x & 1:
            union_form |= mask
    if definable is not None:
        intersection_form = definable[-1]  # the whole universe
        for mask in definable:
            if not bits & ~mask:
                intersection_form &= mask
        if union_form != intersection_form:
            raise RskError(
                "internal inconsistency: the two upper-approximation forms disagree"
            )
    return lower_bits, union_form


def ct_lower(covering: Covering, x_set: Subset) -> Subset:
    """Union of all neighbourhoods contained in the set."""
    if x_set.universe != covering.universe:
        raise InputError("set and covering belong to different universes")
    return Subset(covering.universe, _ct(covering.neighborhoods, x_set.bits)[0])


def ct_upper(covering: Covering, x_set: Subset) -> Subset:
    """Union of the neighbourhoods of the set's members.

    Also computed as the intersection of the definable supersets; the two
    forms are asserted equal on every call.
    """
    if x_set.universe != covering.universe:
        raise InputError("set and covering belong to different universes")
    _, upper_bits = _ct(covering.neighborhoods, x_set.bits, definable_masks(covering))
    return Subset(covering.universe, upper_bits)


def induced_relation(covering: Covering) -> BinaryRelation:
    """The relation with successor rows N(x); always a pre-order."""
    return BinaryRelation(covering.universe, covering.neighborhoods)


def _ct_tables(
    neigh: tuple[int, ...], definable: Iterable[int]
) -> tuple[list[int], list[int]]:
    """(C_t lower, C_t upper) of all 2^n sets, tabulated by mask.

    Each table comes straight from its definition, by O(n·2^n) recurrences
    over subsets and supersets: the lower as the union of the N(x) inside
    X, an OR over subsets; the upper as the union of N(x) over x in X, by
    the lowest bit of X, and as the intersection of the definable supersets
    of X, an AND over supersets. The two upper forms are asserted equal.
    """
    n = len(neigh)
    size = 1 << n
    lower_table = [0] * size
    for mask in neigh:
        lower_table[mask] |= mask
    union_form = [0] * size
    for bits in range(1, size):
        low = bits & -bits
        union_form[bits] = union_form[bits ^ low] | neigh[low.bit_length() - 1]
    intersection_form = [size - 1] * size
    for mask in definable:
        intersection_form[mask] = mask
    for e in range(n):
        bit = 1 << e
        for bits in range(size):
            if bits & bit:
                lower_table[bits] |= lower_table[bits ^ bit]
            else:
                intersection_form[bits] &= intersection_form[bits | bit]
    if union_form != intersection_form:
        raise RskError(
            "internal inconsistency: the two upper-approximation forms disagree"
        )
    return lower_table, union_form


def verify_reduction(covering: Covering) -> bool:
    """C_t operators equal the non-dual pair of the induced relation, all subsets."""
    n = covering.universe.size
    neigh = covering.neighborhoods
    lower_table, upper_table = approx_tables(n, neigh, Pairing.NONDUAL)
    return _ct_tables(neigh, upper_table) == (lower_table, upper_table)


def enumerate_coverings(n: int) -> Iterator[Covering]:
    """Every covering of an n-element universe with distinct nonempty blocks.

    Families are ordered by their encoding: bit ``b-1`` of the encoding
    selects the block with mask ``b``; encodings ascend, and blocks within
    a family are listed by ascending mask. Duplicate blocks never change
    any neighbourhood, so distinct-block families exhaust the covering
    behaviours.
    """
    check_capacity(n)
    universe = Universe(n)
    full = universe.full_mask
    block_count = full  # nonempty masks 1..full
    for family in range(1 << block_count):
        masks = [b for b in range(1, full + 1) if family >> (b - 1) & 1]
        union = 0
        for mask in masks:
            union |= mask
        if union == full:
            yield Covering.from_masks(universe, masks)

