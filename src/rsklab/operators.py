"""Lower and upper approximation operators.

Every operator here is fixed by its images of singletons (its atoms):
an upper operator is a complete join morphism, ``u(X)`` being the union
of ``u({y})`` over the members y of X, and each lower operator is the
dual ``l(X) = V minus u'(V minus X)`` of an upper operator ``u'``
(Jónsson-Tarski; Yao, Inf. Sci. 111, 1998). An operator defined by
successor neighbourhoods joins the transposed rows, one defined by
predecessor neighbourhoods joins the rows, so each :class:`Pairing` is
one corner of (lower reads the transpose?, upper reads the transpose?),
and ``_READS_TRANSPOSE`` states which:

* ``DUAL_SUCC`` (transpose, transpose) - both operators read successor
  neighbourhoods; the pair is dual (``l(-X) = -u(X)``).
* ``NONDUAL`` (transpose, rows) - lower reads successors, upper reads
  predecessors. The upper operator then collects all successors of
  members of X, and the pair forms an adjunction instead of a duality.
* ``MIRROR_NONDUAL`` (rows, transpose) - the opposite coupling; equal to
  ``NONDUAL`` on the transpose.
* ``PAWLAK`` (rows, rows) - granule-based operators, defined only on an
  equivalence, whose granule of x is row x; a checked special case to
  cross-check the classical definitions against the relational ones.

:func:`approx_tables` turns the atoms into mask-to-mask lookup tables
with one OR per mask, for the exhaustive searches elsewhere in the
package; :func:`lower` and :func:`upper` join the same atoms for a
single set without tabulating, in O(n), or O(n²) where the atoms are
transposed (n ≤ 16 for file input); :func:`sliced_operators` compiles,
once per pairing and size, functions that join them for many relations
and sets at once, over bit-sliced sets.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from typing import Callable, Sequence

from .errors import InputError, PreconditionError
from .relations import (
    BinaryRelation,
    RelationClass,
    Subset,
    check_input_size,
    join_table,
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


# Whether (lower, upper) join the transposed rows: the four corners.
_READS_TRANSPOSE = {
    Pairing.DUAL_SUCC: (True, True),
    Pairing.NONDUAL: (True, False),
    Pairing.MIRROR_NONDUAL: (False, True),
    Pairing.PAWLAK: (False, False),
}


def _reads(pairing: Pairing, n: int, rows: Sequence[int]) -> tuple[bool, bool]:
    """Whether (lower, upper) of a pairing read the transpose of the rows."""
    if pairing is Pairing.PAWLAK and not RelationClass.Rrst.admits(n, rows):
        raise PreconditionError(
            "the granule-based pairing needs an equivalence relation"
        )
    return _READS_TRANSPOSE[pairing]


def approx_tables(
    n: int, rows: Sequence[int], pairing: Pairing = Pairing.DUAL_SUCC
) -> tuple[list[int], list[int]]:
    """(lower, upper) of one relation under one pairing, as tables by mask.

    The only code that tabulates all 2^n subsets, so it holds the per-input
    size gate.
    """
    check_input_size(n)
    reads = _reads(pairing, n, rows)
    joins = {
        transposed: join_table(transpose_rows(rows) if transposed else rows)
        for transposed in set(reads)
    }
    full = (1 << n) - 1
    return [full ^ image for image in reversed(joins[reads[0]])], joins[reads[1]]


_SlicedOperator = Callable[[Sequence[Sequence[int]], int, Sequence[int]], list[int]]


def _sliced_source(name: str, n: int, transposed: bool) -> str:
    """The unrolled source of the sliced operator ``name`` of n-element
    relations; the lower one is the complement of the join of the
    complement."""
    lower = name == "lower"
    sets = "c" if lower else "s"
    images = []
    for w in range(n):
        # the join of {y} holds w where bits[w][y] (transposed) or bits[y][w]
        join = " | ".join(
            f"b{w}[{y}] & {sets}{y}" if transposed else f"b{y}[{w}] & {sets}{y}"
            for y in range(n)
        )
        images.append(f"ones ^ ({join})" if lower else join)
    lines = [
        f"def {name}(bits, ones, sets):",
        f"    {''.join(f'b{x}, ' for x in range(n))}= bits",
    ]
    if lower:
        # ones ^ v, not ~v: a negative int makes each AND a two's complement
        # pass over the whole int
        lines += [f"    c{y} = ones ^ sets[{y}]" for y in range(n)]
    else:
        lines.append(f"    {''.join(f's{y}, ' for y in range(n))}= sets")
    lines.append(f"    return [{', '.join(images)}]")
    return "\n".join(lines)


@cache  # two functions per (pairing, size) that a scan reaches
def sliced_operators(
    pairing: Pairing, n: int
) -> tuple[_SlicedOperator, _SlicedOperator]:
    """(lower, upper) of many n-element relations at once, on bit-sliced sets.

    Each is a function ``(bits, ones, sets) -> set``, compiled once per
    pairing and size into an unrolled body of n² ANDs and ORs. Every int
    here is a bit vector over the same positions, each standing for one
    relation and one set: ``bits[x][y]`` has the positions whose relation
    holds (x, y), ``ones`` every position, and a set is n ints whose entry
    w has the positions whose set contains w. Each operator reads the rows
    or their transpose as :func:`approx_tables` does; the lower one
    complements the set once per call. The granule pairing's equivalence
    precondition is the caller's to check.
    """
    namespace: dict[str, _SlicedOperator] = {}
    for name, transposed in zip(("lower", "upper"), _READS_TRANSPOSE[pairing]):
        # the source holds only names and integer indices
        exec(_sliced_source(name, n, transposed), namespace)
    return namespace["lower"], namespace["upper"]


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

    Classes are listed once each, ordered by least element, each as the
    row of its least element. Raises PreconditionError for
    non-equivalences: the granule-based definitions are only meaningful
    on a partition.
    """
    if not RelationClass.Rrst.contains(relation):
        raise PreconditionError("granules are defined only for equivalence relations")
    return [
        Subset(relation.universe, row)
        for x, row in enumerate(relation.rows)
        if row & -row == 1 << x
    ]


def _approximate(
    pairing: Pairing, relation: BinaryRelation, x_set: Subset, side: int
) -> Subset:
    # side 0 is the lower operator, the dual of the join of its atoms, side 1
    # the upper one; the join is join_table's rule applied to one mask.
    if x_set.universe != relation.universe:
        raise InputError("set and relation belong to different universes")
    n = relation.universe.size
    full = relation.universe.full_mask
    rows = relation.rows
    atoms = transpose_rows(rows) if _reads(pairing, n, rows)[side] else rows
    bits = x_set.bits if side else full ^ x_set.bits
    image = 0
    for y in range(n):
        if bits >> y & 1:
            image |= atoms[y]
    return Subset(relation.universe, image if side else full ^ image)


def lower(pairing: Pairing, relation: BinaryRelation, x_set: Subset) -> Subset:
    """Elements whose neighbourhood is contained in the given set."""
    return _approximate(pairing, relation, x_set, 0)


def upper(pairing: Pairing, relation: BinaryRelation, x_set: Subset) -> Subset:
    """Elements whose neighbourhood meets the given set."""
    return _approximate(pairing, relation, x_set, 1)
