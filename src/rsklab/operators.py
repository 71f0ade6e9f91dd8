"""Lower and upper approximation operators.

Four couplings of a lower and an upper operator are supported, selected
by :class:`Pairing`:

* ``DUAL_SUCC`` - both operators read successor neighbourhoods; the pair
  is dual (``l(-X) = -u(X)``).
* ``NONDUAL`` - lower reads successors, upper reads predecessors. The
  upper operator then collects all successors of members of X, and the
  pair forms an adjunction instead of a duality.
* ``MIRROR_NONDUAL`` - the opposite coupling (lower via predecessors,
  upper via successors); equivalent to ``NONDUAL`` on the transpose.
* ``PAWLAK`` - granule-based operators, defined only when the relation
  is an equivalence; included as a checked special case so the classical
  definitions can be cross-checked against the relational ones.

Every operator here is fixed by its images of singletons (its atoms):
an upper operator is a complete join morphism, ``u(X)`` being the union
of ``u({y})`` over the members y of X, and each lower operator is the
dual ``l(X) = V minus u'(V minus X)`` of an upper operator ``u'``
(Jónsson-Tarski; Yao, Inf. Sci. 111, 1998). ``_atom_source`` is the one
place that decides which atoms each pairing reads. :func:`approx_tables`
turns them into mask-to-mask lookup tables with one OR per mask, for the
exhaustive searches elsewhere in the package; :func:`lower` and
:func:`upper` apply the same atoms to a single set without tabulating,
in O(n) for the three relational pairings.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .errors import InputError, PreconditionError
from .relations import (
    BinaryRelation,
    RelationClass,
    Subset,
    check_input_size,
    transpose_rows,
)


class Pairing(Enum):
    """Which (lower, upper) coupling is in force."""

    DUAL_SUCC = "dual-succ"
    NONDUAL = "nondual"
    MIRROR_NONDUAL = "mirror-nondual"
    PAWLAK = "pawlak"

    @classmethod
    def from_name(cls, name: str) -> Pairing:
        aliases = {
            "dual": cls.DUAL_SUCC,
            "dual-succ": cls.DUAL_SUCC,
            "dual_succ": cls.DUAL_SUCC,
            "nondual": cls.NONDUAL,
            "non-dual": cls.NONDUAL,
            "mirror": cls.MIRROR_NONDUAL,
            "mirror-nondual": cls.MIRROR_NONDUAL,
            "mirror_nondual": cls.MIRROR_NONDUAL,
            "pawlak": cls.PAWLAK,
        }
        try:
            return aliases[name.strip().lower()]
        except KeyError:
            raise InputError(
                f"unknown pairing {name!r}; expected dual, nondual, mirror or pawlak"
            ) from None


# Whether the (lower, upper) operator of a pairing takes its atoms from the
# transpose of the successor rows (True) or from the rows themselves; the
# lower operator is the dual of the upper operator on its atoms.
_READS_TRANSPOSE = {
    Pairing.DUAL_SUCC: (True, True),
    Pairing.NONDUAL: (True, False),
    Pairing.MIRROR_NONDUAL: (False, True),
}


def granule_masks(n: int, rows: Sequence[int]) -> list[int]:
    """Distinct equivalence classes of a row-encoded equivalence relation."""
    seen = 0
    blocks = []
    for x in range(n):
        if seen >> x & 1:
            continue
        seen |= rows[x]
        blocks.append(rows[x])
    return blocks


def _atom_source(
    pairing: Pairing, n: int, rows: Sequence[int]
) -> tuple[Sequence[int], tuple[bool, bool]]:
    """Atom rows of a pairing and whether (lower, upper) read their transpose."""
    if pairing is not Pairing.PAWLAK:
        return rows, _READS_TRANSPOSE[pairing]
    if not RelationClass.Rrst.admits(n, rows):
        raise PreconditionError(
            "the granule-based pairing needs an equivalence relation"
        )
    atoms = [0] * n
    for block in granule_masks(n, rows):
        for x in range(n):
            if block >> x & 1:
                atoms[x] = block
    return atoms, (False, False)


def join_table(atoms: Sequence[int]) -> list[int]:
    """Table by mask X of the union of ``atoms[y]`` over the bits y of X."""
    table = [0]  # bit i doubles the table
    for atom in atoms:
        table += [image | atom for image in table]
    return table


def approx_tables(
    n: int, rows: Sequence[int], pairing: Pairing = Pairing.DUAL_SUCC
) -> tuple[list[int], list[int]]:
    """(lower, upper) of one relation under one pairing, as tables by mask.

    The only code that tabulates all 2^n subsets, so it holds the per-input
    size gate.
    """
    check_input_size(n)
    source, reads = _atom_source(pairing, n, rows)
    joins = {
        transposed: join_table(transpose_rows(source) if transposed else source)
        for transposed in set(reads)
    }
    full = (1 << n) - 1
    return [full ^ image for image in reversed(joins[reads[0]])], joins[reads[1]]


def successor_set(relation: BinaryRelation, x: int) -> Subset:
    """All y with x related to y."""
    relation.universe.check_index(x)
    return Subset(relation.universe, relation.rows[x])


def predecessor_set(relation: BinaryRelation, x: int) -> Subset:
    """All y with y related to x; the successor set of the transpose."""
    relation.universe.check_index(x)
    return Subset(relation.universe, transpose_rows(relation.rows)[x])


def granules(relation: BinaryRelation) -> list[Subset]:
    """The partition induced by an equivalence relation.

    Classes are listed once each, ordered by least element. Raises
    PreconditionError for non-equivalences: the granule-based definitions
    are only meaningful on a partition.
    """
    if not RelationClass.Rrst.contains(relation):
        raise PreconditionError("granules are defined only for equivalence relations")
    return [
        Subset(relation.universe, block)
        for block in granule_masks(relation.universe.size, relation.rows)
    ]


def _approximate(
    pairing: Pairing, relation: BinaryRelation, x_set: Subset, side: int
) -> Subset:
    # side 0 is the lower operator, the dual of the join of its atoms, side 1
    # the upper one. A join of transposed atoms is read off the rows (x is in
    # it iff rows[x] meets the set), so no transpose is built: O(n) per call.
    if x_set.universe != relation.universe:
        raise InputError("set and relation belong to different universes")
    n = relation.universe.size
    full = relation.universe.full_mask
    source, reads = _atom_source(pairing, n, relation.rows)
    bits = x_set.bits if side else full ^ x_set.bits
    image = 0
    for x in range(n):
        if reads[side]:
            if source[x] & bits:
                image |= 1 << x
        elif bits >> x & 1:
            image |= source[x]
    return Subset(relation.universe, image if side else full ^ image)


def lower(pairing: Pairing, relation: BinaryRelation, x_set: Subset) -> Subset:
    """Elements whose neighbourhood is contained in the given set."""
    return _approximate(pairing, relation, x_set, 0)


def upper(pairing: Pairing, relation: BinaryRelation, x_set: Subset) -> Subset:
    """Elements whose neighbourhood meets the given set."""
    return _approximate(pairing, relation, x_set, 1)
