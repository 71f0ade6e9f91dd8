"""The 23 approximation-operator properties and the counterexample search.

Rows 1-23 match the shared row numbering of the two verdict tables; rows
8-13 quantify over an ordered pair of subsets, all other rows over one
subset. Row 1 (duality) is the conjunction of both orientations
``l(-X) = -u(X)`` and ``u(-X) = -l(X)``.

Row 13 is stated here as ``u(X∩Y) ⊆ u(X) ∩ u(Y)``; the reverse inclusion
fails already for equivalence relations, so only this direction is
consistent with the all-ticked reference rows it has to reproduce.

Every relation is decided by one step, ``relation_failures``. Every
relational operator is a complete join morphism (upper) or meet morphism
(lower), fixed by its values on atoms (Jónsson-Tarski). ``_morphisms``
checks the binary form of that once per relation, in O(2^n):
``u(X) = u(X minus a) ∪ u({a})`` and ``l(-X) = l(-(X minus a)) ∩ l(-{a})``
for every nonempty X and its least element a. By induction on |X| this
holds exactly when ``u`` preserves binary unions (row 10) and ``l``
binary intersections (row 11), which imply rows 9 and 13 and rows 8 and
12, so rows 8-13 all hold without scanning the 4^n (X, Y) pairs. On any
other table, such as a hand-edited one, the check fails and the plain
scan runs; the scan stays the only witness finder, so the check never
changes a result. One-set rows are always scanned, and the check runs
only when a two-set row is asked for.

A refuted verdict always carries the canonically minimal counterexample:
smallest universe size, then smallest relation encoding, then smallest X
bitmask, then smallest Y. Searches scan in exactly that order, which is
why verdicts are independent of worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import InputError, PreconditionError
from .operators import Pairing, approx_tables
from .relations import (
    BinaryRelation,
    RelationClass,
    Subset,
    Universe,
    check_capacity,
    class_rows,
)

_Eval = Callable[[Sequence[int], Sequence[int], int, int, int], bool]


@dataclass(frozen=True)
class PropertyRow:
    """One table row: an executable predicate over (lower, upper, X[, Y])."""

    index: int
    label: str
    two_set: bool
    evaluate: _Eval


def _subset(a: int, b: int) -> bool:
    return not (a & ~b)


def _morphisms(lo, up, full):
    """u preserves binary unions and l binary intersections (rows 10, 11)."""
    for x in range(1, full + 1):
        a = x & -x
        if up[x] != up[x ^ a] | up[a]:
            return False
        if lo[full ^ x] != lo[full ^ x ^ a] & lo[full ^ a]:
            return False
    return True


def _p01(lo, up, f, x, y):
    cx = f & ~x
    return lo[cx] == f & ~up[x] and up[cx] == f & ~lo[x]


def _p02(lo, up, f, x, y):
    return lo[0] == 0


def _p03(lo, up, f, x, y):
    return up[0] == 0


def _p04(lo, up, f, x, y):
    return lo[f] == f


def _p05(lo, up, f, x, y):
    return up[f] == f


def _p06(lo, up, f, x, y):
    return _subset(lo[x], x)


def _p07(lo, up, f, x, y):
    return _subset(x, up[x])


def _p08(lo, up, f, x, y):
    return not _subset(x, y) or _subset(lo[x], lo[y])


def _p09(lo, up, f, x, y):
    return not _subset(x, y) or _subset(up[x], up[y])


def _p10(lo, up, f, x, y):
    return up[x | y] == up[x] | up[y]


def _p11(lo, up, f, x, y):
    return lo[x & y] == lo[x] & lo[y]


def _p12(lo, up, f, x, y):
    return _subset(lo[x] | lo[y], lo[x | y])


def _p13(lo, up, f, x, y):
    return _subset(up[x & y], up[x] & up[y])


def _p14(lo, up, f, x, y):
    return _subset(lo[lo[x]], lo[x])


def _p15(lo, up, f, x, y):
    return _subset(lo[x], lo[lo[x]])


def _p16(lo, up, f, x, y):
    return _subset(up[lo[x]], lo[x])


def _p17(lo, up, f, x, y):
    return _subset(lo[x], up[lo[x]])


def _p18(lo, up, f, x, y):
    return _subset(up[up[x]], up[x])


def _p19(lo, up, f, x, y):
    return _subset(up[x], up[up[x]])


def _p20(lo, up, f, x, y):
    return _subset(lo[up[x]], up[x])


def _p21(lo, up, f, x, y):
    return _subset(up[x], lo[up[x]])


def _p22(lo, up, f, x, y):
    return _subset(x, lo[up[x]])


def _p23(lo, up, f, x, y):
    return _subset(up[lo[x]], x)


PROPERTY_ROWS: tuple[PropertyRow, ...] = (
    PropertyRow(1, "duality of l(X), u(X)", False, _p01),
    PropertyRow(2, "l(∅) = ∅", False, _p02),
    PropertyRow(3, "∅ = u(∅)", False, _p03),
    PropertyRow(4, "l(V) = V", False, _p04),
    PropertyRow(5, "u(V) = V", False, _p05),
    PropertyRow(6, "l(X) ⊆ X", False, _p06),
    PropertyRow(7, "X ⊆ u(X)", False, _p07),
    PropertyRow(8, "X ⊆ Y ⇒ l(X) ⊆ l(Y)", True, _p08),
    PropertyRow(9, "X ⊆ Y ⇒ u(X) ⊆ u(Y)", True, _p09),
    PropertyRow(10, "u(X∪Y) = u(X) ∪ u(Y)", True, _p10),
    PropertyRow(11, "l(X∩Y) = l(X) ∩ l(Y)", True, _p11),
    PropertyRow(12, "l(X∪Y) ⊇ l(X) ∪ l(Y)", True, _p12),
    PropertyRow(13, "u(X∩Y) ⊆ u(X) ∩ u(Y)", True, _p13),
    PropertyRow(14, "l(l(X)) ⊆ l(X)", False, _p14),
    PropertyRow(15, "l(l(X)) ⊇ l(X)", False, _p15),
    PropertyRow(16, "u(l(X)) ⊆ l(X)", False, _p16),
    PropertyRow(17, "u(l(X)) ⊇ l(X)", False, _p17),
    PropertyRow(18, "u(u(X)) ⊆ u(X)", False, _p18),
    PropertyRow(19, "u(u(X)) ⊇ u(X)", False, _p19),
    PropertyRow(20, "l(u(X)) ⊆ u(X)", False, _p20),
    PropertyRow(21, "u(X) ⊆ l(u(X))", False, _p21),
    PropertyRow(22, "X ⊆ l(u(X))", False, _p22),
    PropertyRow(23, "u(l(X)) ⊆ X", False, _p23),
)


def property_row(index: int) -> PropertyRow:
    if not 1 <= index <= 23:
        raise InputError(f"property row must be 1..23, got {index}")
    return PROPERTY_ROWS[index - 1]


def eval_property(
    index: int,
    pairing: Pairing,
    relation: BinaryRelation,
    x_set: Subset,
    y_set: Subset | None = None,
) -> bool:
    """Truth of one table row at one subset assignment."""
    row = property_row(index)
    if row.two_set and y_set is None:
        raise InputError(f"property {index} quantifies over two sets; Y missing")
    if not row.two_set and y_set is not None:
        raise InputError(f"property {index} quantifies over one set; Y not allowed")
    if x_set.universe != relation.universe:
        raise InputError("set and relation belong to different universes")
    if y_set is not None and y_set.universe != relation.universe:
        raise InputError("set and relation belong to different universes")
    lo, up = approx_tables(relation.universe.size, relation.rows, pairing)
    return row.evaluate(lo, up, relation.universe.full_mask, x_set.bits, y_set.bits if y_set else 0)


def relation_failures(
    rows: Iterable[PropertyRow], lo: Sequence[int], up: Sequence[int], full: int
) -> dict[int, tuple[int, int | None]]:
    """Minimal failing assignment (X asc, then Y asc) of each failing row.

    ``lo`` and ``up`` are one relation's tables; rows that hold are absent.
    """
    failures: dict[int, tuple[int, int | None]] = {}
    morphisms = None
    for row in rows:
        evaluate = row.evaluate
        if not row.two_set:
            for x in range(full + 1):
                if not evaluate(lo, up, full, x, 0):
                    failures[row.index] = (x, None)
                    break
            continue
        if morphisms is None:
            morphisms = _morphisms(lo, up, full)
        if morphisms:
            continue
        for x in range(full + 1):
            y = next((y for y in range(full + 1) if not evaluate(lo, up, full, x, y)), None)
            if y is not None:
                failures[row.index] = (x, y)
                break
    return failures


@dataclass(frozen=True)
class RelationCheck:
    """All-subsets verdict of one property row for one fixed relation."""

    row: int
    pairing: Pairing
    holds: bool
    x: Subset | None = None
    y: Subset | None = None


def check_relation(
    index: int, pairing: Pairing, relation: BinaryRelation
) -> RelationCheck:
    """Quantify one row over every subset assignment of one relation."""
    row = property_row(index)
    lo, up = approx_tables(relation.universe.size, relation.rows, pairing)
    failure = relation_failures([row], lo, up, relation.universe.full_mask).get(index)
    if failure is None:
        return RelationCheck(index, pairing, True)
    x_bits, y_bits = failure
    return RelationCheck(
        index,
        pairing,
        False,
        Subset(relation.universe, x_bits),
        None if y_bits is None else Subset(relation.universe, y_bits),
    )


@dataclass(frozen=True)
class Counterexample:
    relation: BinaryRelation
    x: Subset
    y: Subset | None = None


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of searching one (row, class) cell up to a size bound."""

    row: int
    pairing: Pairing
    relation_class: RelationClass
    bound: int
    counterexample: Counterexample | None = None

    @property
    def refuted(self) -> bool:
        return self.counterexample is not None

    @property
    def status(self) -> str:
        return "refuted" if self.refuted else "verified"


def scan_class_failures(
    pairing: Pairing,
    relation_class: RelationClass,
    max_n: int,
    indices: Iterable[int],
) -> dict[int, tuple[int, int, int, int | None]]:
    """Minimal counterexamples ``row -> (n, encoding, x, y)`` for the given rows.

    Rows with no counterexample up to ``max_n`` are absent from the result.
    Scans sizes, then encodings, ascending; a row is settled by the first
    failing relation of the class, with the minimal assignment inside it.
    """
    pending = {property_row(i).index: property_row(i) for i in indices}
    found: dict[int, tuple[int, int, int, int | None]] = {}
    if pairing is Pairing.PAWLAK and relation_class is not RelationClass.Rrst:
        raise PreconditionError(
            "the granule-based pairing is only searchable over class Rrst"
        )
    for n in range(1, max_n + 1):
        if not pending:
            break
        full = (1 << n) - 1
        for encoding, rows in class_rows(n, relation_class):
            lo, up = approx_tables(n, rows, pairing)
            for index, (x, y) in relation_failures(pending.values(), lo, up, full).items():
                found[index] = (n, encoding, x, y)
                del pending[index]
            if not pending:
                break
    return found


def class_verdicts(
    pairing: Pairing,
    relation_class: RelationClass,
    max_n: int,
    indices: Iterable[int] = range(1, 24),
) -> list[PropertyVerdict]:
    """Verdicts of the given rows in one class, in the order given.

    One scan of the class settles every row; a refuted row carries its
    minimal counterexample.
    """
    indices = list(indices)
    failures = scan_class_failures(pairing, relation_class, max_n, indices)
    verdicts = []
    for index in indices:
        cex = None
        if index in failures:
            n, encoding, x_bits, y_bits = failures[index]
            universe = Universe(n)
            cex = Counterexample(
                BinaryRelation.from_encoding(universe, encoding),
                Subset(universe, x_bits),
                None if y_bits is None else Subset(universe, y_bits),
            )
        verdicts.append(PropertyVerdict(index, pairing, relation_class, max_n, cex))
    return verdicts


def search_class(
    index: int,
    pairing: Pairing,
    relation_class: RelationClass,
    max_n: int,
) -> PropertyVerdict:
    """Search one table cell: refute with a minimal witness or verify up to max_n."""
    check_capacity(max_n)
    return class_verdicts(pairing, relation_class, max_n, [index])[0]
