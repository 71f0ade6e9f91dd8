"""Finite universes, subsets and binary relations as integer bitsets.

Elements of a universe are dense indices ``0..size-1``; labels, when
present, are display names only. A subset is a single bitmask, and a
relation is stored row-wise: bit ``y`` of ``rows[x]`` means ``(x, y)`` is
in the relation. Concatenating the rows LSB-first gives the row-major
``n*n``-bit encoding, a total order on relations of a given size. That
order is what makes "minimal counterexample" well defined everywhere
else in the package, so nothing here may reorder it.

All types are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CapacityError, InputError

DEFAULT_CAPACITY_BOUND = 4
_CAPACITY_ENV = "RSK_MAX_N"
# Largest universe of one input file or one checked relation. Per-relation
# checks tabulate the operators on all 2^n subsets; at n=16 that is well
# under a second and a few MB, and it stays independent of RSK_MAX_N, which
# bounds enumeration over all relations of a size.
MAX_INPUT_SIZE = 16


def capacity_bound() -> int:
    """Size bound for exhaustive enumeration, overridable via RSK_MAX_N."""
    raw = os.environ.get(_CAPACITY_ENV)
    if raw is None:
        return DEFAULT_CAPACITY_BOUND
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{_CAPACITY_ENV} must be an integer, got {raw!r}") from None
    if value < 0:
        raise InputError(f"{_CAPACITY_ENV} must be nonnegative, got {value}")
    return value


def check_capacity(n: int) -> None:
    """The one size gate of the exhaustive operations: 0 <= n <= the bound."""
    if n < 0:
        raise InputError(f"universe size must be nonnegative, got {n}")
    limit = capacity_bound()
    if n > limit:
        raise CapacityError(
            f"universe size {n} exceeds the capacity bound {limit}"
            f" (raise {_CAPACITY_ENV})"
        )


def check_input_size(n: int) -> None:
    """The one size gate of per-input work, which tabulates all 2^n subsets."""
    if n > MAX_INPUT_SIZE:
        raise CapacityError(
            f"universe size {n} exceeds the per-input limit {MAX_INPUT_SIZE}"
        )


@dataclass(frozen=True)
class Universe:
    """An indexed finite set of elements, optionally labelled."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise InputError(f"universe size must be nonnegative, got {self.size}")
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != self.size:
                raise InputError(
                    f"{len(labels)} labels given for a universe of size {self.size}"
                )
            if len(set(labels)) != len(labels):
                raise InputError("universe labels must be pairwise distinct")

    @cached_property
    def _index_of(self) -> dict[str, int]:
        if self.labels is None:
            return {str(i): i for i in range(self.size)}
        return {name: i for i, name in enumerate(self.labels)}

    def label(self, index: int) -> str:
        self.check_index(index)
        return self.labels[index] if self.labels is not None else str(index)

    def index(self, name: str) -> int:
        try:
            return self._index_of[name]
        except KeyError:
            raise InputError(f"unknown element {name!r}") from None

    def check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise InputError(
                f"element index {index} out of range for universe of size {self.size}"
            )

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True)
class Subset:
    """A subset of a universe, stored as a bitmask over element indices."""

    universe: Universe
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= self.universe.full_mask:
            raise InputError(
                f"bitmask {self.bits:#x} does not fit a universe of size"
                f" {self.universe.size}"
            )

    @classmethod
    def empty(cls, universe: Universe) -> Subset:
        return cls(universe, 0)

    @classmethod
    def full(cls, universe: Universe) -> Subset:
        return cls(universe, universe.full_mask)

    @classmethod
    def of(cls, universe: Universe, members: Iterable[int]) -> Subset:
        bits = 0
        for index in members:
            universe.check_index(index)
            bits |= 1 << index
        return cls(universe, bits)

    @classmethod
    def from_labels(cls, universe: Universe, names: Iterable[str]) -> Subset:
        return cls.of(universe, (universe.index(name) for name in names))

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.universe.size) if self.bits >> i & 1)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.universe.label(i) for i in self.members())

    def complement(self) -> Subset:
        return Subset(self.universe, self.universe.full_mask & ~self.bits)

    def _coerce(self, other: Subset) -> None:
        if other.universe != self.universe:
            raise InputError("subsets belong to different universes")

    def __or__(self, other: Subset) -> Subset:
        self._coerce(other)
        return Subset(self.universe, self.bits | other.bits)

    def __and__(self, other: Subset) -> Subset:
        self._coerce(other)
        return Subset(self.universe, self.bits & other.bits)

    def __sub__(self, other: Subset) -> Subset:
        self._coerce(other)
        return Subset(self.universe, self.bits & ~other.bits)

    def __le__(self, other: Subset) -> bool:
        self._coerce(other)
        return not (self.bits & ~other.bits)

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.universe.size and bool(self.bits >> index & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __repr__(self) -> str:
        return "{" + ", ".join(self.labels()) + "}"


@dataclass(frozen=True)
class RelationFlags:
    """Outcome of classifying a relation against the four base predicates."""

    reflexive: bool
    symmetric: bool
    transitive: bool
    serial: bool

    @property
    def preorder(self) -> bool:
        return self.reflexive and self.transitive

    @property
    def equivalence(self) -> bool:
        return self.reflexive and self.symmetric and self.transitive


# Each base predicate returns its lexicographically least violating tuple,
# or None when it holds: (x,) for a missing loop or an empty row, (x, y) for
# xRy without yRx, (x, y, z) for xRy and yRz without xRz.
Violation = tuple[int, ...]


def _reflexive(n: int, rows: Sequence[int]) -> Violation | None:
    for x in range(n):
        if not rows[x] >> x & 1:
            return (x,)
    return None


def _symmetric(n: int, rows: Sequence[int]) -> Violation | None:
    for x in range(n):
        row = rows[x]
        for y in range(n):
            if row >> y & 1 and not rows[y] >> x & 1:
                return x, y
    return None


def _transitive(n: int, rows: Sequence[int]) -> Violation | None:
    for x in range(n):
        row = rows[x]
        for y in range(n):
            if row >> y & 1:
                missing = rows[y] & ~row
                if missing:
                    return x, y, (missing & -missing).bit_length() - 1
    return None


def _serial(n: int, rows: Sequence[int]) -> Violation | None:
    for x in range(n):
        if not rows[x]:
            return (x,)
    return None


class RelationClass(Enum):
    """The nine relation classes used as table columns.

    Declaration order is the column order of the property tables.
    """

    R = "R"
    Rr = "Rr"
    Rs = "Rs"
    Rt = "Rt"
    Rrs = "Rrs"
    Rrt = "Rrt"
    Rst = "Rst"
    Rrst = "Rrst"
    Rser = "Rser"

    def violation(self, n: int, rows: Sequence[int]) -> Violation | None:
        """The least violating tuple of the class's first failing predicate.

        Predicates are tried in ``_CONJUNCTS`` order; None when all hold.
        """
        for violator in _CONJUNCTS[self._value_]:
            found = violator(n, rows)
            if found is not None:
                return found
        return None

    def admits(self, n: int, rows: Sequence[int]) -> bool:
        """Whether a row-encoded relation satisfies every predicate of the class."""
        return self.violation(n, rows) is None

    def contains(self, relation: BinaryRelation) -> bool:
        return self.admits(relation.universe.size, relation.rows)

    @classmethod
    def from_tag(cls, tag: str) -> RelationClass:
        # bare lowercase "r" is the reflexive subscript; the unconstrained
        # column is addressed as uppercase "R" or "any"
        normalized = tag.strip()
        if normalized == "R" or normalized.lower() == "any":
            return cls.R
        for member in cls:
            if member.value == normalized:
                return member
        by_subscript = {m.value[1:]: m for m in cls if m is not cls.R}
        member = by_subscript.get(normalized.lower())
        if member is None:
            raise InputError(
                f"unknown relation class {tag!r}; expected one of "
                + ", ".join(m.value for m in cls)
                + " or a subscript r/s/t/rs/rt/st/rst/ser, or 'any'"
            )
        return member


# Class tag -> the base predicates the class conjoins, cheapest first. Keyed
# by the tag string; ``violation`` and ``class_rows`` look it up once per call,
# so no per-encoding path depends on the key type.
_CONJUNCTS: dict[str, tuple[Callable[[int, Sequence[int]], Violation | None], ...]] = {
    "R": (),
    "Rr": (_reflexive,),
    "Rs": (_symmetric,),
    "Rt": (_transitive,),
    "Rrs": (_reflexive, _symmetric),
    "Rrt": (_reflexive, _transitive),
    "Rst": (_symmetric, _transitive),
    "Rrst": (_reflexive, _symmetric, _transitive),
    "Rser": (_serial,),
}


@dataclass(frozen=True)
class BinaryRelation:
    """A binary relation over a finite universe, one bitmask row per element."""

    universe: Universe
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.universe.size:
            raise InputError(
                f"{len(rows)} rows given for a universe of size {self.universe.size}"
            )
        full = self.universe.full_mask
        for x, row in enumerate(rows):
            if not 0 <= row <= full:
                raise InputError(f"row {x} does not fit the universe")

    @classmethod
    def from_encoding(cls, universe: Universe, encoding: int) -> BinaryRelation:
        n = universe.size
        if not 0 <= encoding < 1 << (n * n):
            raise InputError(f"encoding {encoding} does not fit {n}x{n} relations")
        return cls(universe, rows_from_encoding(n, encoding))

    def has(self, x: int, y: int) -> bool:
        self.universe.check_index(x)
        self.universe.check_index(y)
        return bool(self.rows[x] >> y & 1)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        n = self.universe.size
        return tuple(
            (x, y) for x in range(n) for y in range(n) if self.rows[x] >> y & 1
        )

    @property
    def encoding(self) -> int:
        n = self.universe.size
        value = 0
        for x, row in enumerate(self.rows):
            value |= row << (n * x)
        return value

    def transpose(self) -> BinaryRelation:
        return BinaryRelation(self.universe, transpose_rows(self.rows))

    def __repr__(self) -> str:
        shown = ", ".join(
            f"({self.universe.label(x)},{self.universe.label(y)})"
            for x, y in self.pairs()
        )
        return f"BinaryRelation(n={self.universe.size}, {{{shown}}})"


def transpose_rows(rows: Sequence[int]) -> tuple[int, ...]:
    n = len(rows)
    out = [0] * n
    for x in range(n):
        row = rows[x]
        bit = 1 << x
        for y in range(n):
            if row >> y & 1:
                out[y] |= bit
    return tuple(out)


def build_relation(
    universe: Universe, pairs: Iterable[tuple[int, int]]
) -> BinaryRelation:
    """Build a relation containing exactly the given index pairs.

    Duplicates are permitted; out-of-range indices raise InputError naming
    the offending pair.
    """
    rows = [0] * universe.size
    for pair in pairs:
        x, y = pair
        if not (0 <= x < universe.size and 0 <= y < universe.size):
            raise InputError(
                f"pair {tuple(pair)!r} out of range for universe of size"
                f" {universe.size}"
            )
        rows[x] |= 1 << y
    return BinaryRelation(universe, tuple(rows))


def classify(relation: BinaryRelation) -> RelationFlags:
    """Evaluate the reflexive/symmetric/transitive/serial predicates."""
    n, rows = relation.universe.size, relation.rows
    violators = (_reflexive, _symmetric, _transitive, _serial)
    return RelationFlags(*(violator(n, rows) is None for violator in violators))


def intersect(relations: Sequence[BinaryRelation]) -> BinaryRelation:
    """Pairwise bitwise intersection; the indiscernibility construction."""
    if not relations:
        raise InputError("intersect needs at least one relation")
    universe = relations[0].universe
    rows = list(relations[0].rows)
    for other in relations[1:]:
        if other.universe != universe:
            raise InputError("relations belong to different universes")
        for x in range(universe.size):
            rows[x] &= other.rows[x]
    return BinaryRelation(universe, tuple(rows))


def transitive_closure(relation: BinaryRelation) -> BinaryRelation:
    """Smallest transitive relation containing the input; idempotent."""
    n = relation.universe.size
    out = list(relation.rows)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            row = out[x]
            acc = row
            for y in range(n):
                if row >> y & 1:
                    acc |= out[y]
            if acc != row:
                out[x] = acc
                changed = True
    return BinaryRelation(relation.universe, tuple(out))


def reflexive_closure(relation: BinaryRelation) -> BinaryRelation:
    return BinaryRelation(
        relation.universe,
        tuple(row | (1 << x) for x, row in enumerate(relation.rows)),
    )


def rows_from_encoding(n: int, encoding: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple((encoding >> (n * x)) & full for x in range(n))


def class_rows(
    n: int, relation_class: RelationClass
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """``(encoding, rows)`` of every n-element relation of the class, ascending.

    The one enumeration of a class: ``enumerate_relations`` and the table
    searches both read it. No capacity check; callers bound ``n``.

    Builds only the members, by backtracking over rows from ``rows[n-1]``
    (the most significant part of the encoding) down to ``rows[0]``,
    trying each row's candidates in ascending order, so encodings come out
    ascending. A row's candidates obey the base predicates the class
    conjoins (``_CONJUNCTS``) against the rows already fixed: reflexive
    sets bit x of row x, symmetric copies bits y > x from the fixed rows,
    serial rejects an empty row, and transitive needs ``rows[y] <= rows[x]``
    for each fixed y in row x and ``rows[x] <= rows[z]`` for each fixed z
    with x in row z. Each pair of rows is checked once both are fixed, so
    a complete assignment is a member, and every member is reached.
    """
    conjuncts = _CONJUNCTS[relation_class.value]
    reflexive = _reflexive in conjuncts
    symmetric = _symmetric in conjuncts
    transitive = _transitive in conjuncts
    serial = _serial in conjuncts
    full = (1 << n) - 1
    rows = [0] * n

    def extend(x: int, encoding: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        if x < 0:
            yield encoding, tuple(rows)
            return
        bit = 1 << x
        forced = bit if reflexive else 0
        allowed = full
        if symmetric:
            mirrored = 0
            for y in range(x + 1, n):
                if rows[y] & bit:
                    mirrored |= 1 << y
            forced |= mirrored
            allowed = (bit << 1) - 1 | mirrored
        fixed_in = []
        if transitive:
            # rows[x] <= rows[z] for every fixed z with x in rows[z]; a fixed
            # y may join rows[x] only if rows[y] fits under that bound.
            for z in range(x + 1, n):
                if rows[z] & bit:
                    allowed &= rows[z]
            for y in range(x + 1, n):
                if allowed >> y & 1 and rows[y] & ~allowed:
                    allowed &= ~(1 << y)
            fixed_in = [
                (1 << y, rows[y]) for y in range(x + 1, n) if allowed >> y & 1
            ]
        if forced & ~allowed:
            return
        free = allowed & ~forced
        shift = n * x
        sub = 0
        while True:
            row = forced | sub
            if (row or not serial) and all(
                not (row & y_bit and y_row & ~row) for y_bit, y_row in fixed_in
            ):
                rows[x] = row
                yield from extend(x - 1, encoding | row << shift)
            if sub == free:
                break
            sub = (sub - free) & free  # next larger subset of free

    return extend(n - 1, 0)


def enumerate_relations(
    n: int,
    relation_class: RelationClass = RelationClass.R,
) -> Iterator[BinaryRelation]:
    """Yield every n-element relation of the class, ascending by encoding.

    Equals filtering the full enumeration by class membership, element for
    element; that identity is part of the contract and is tested.
    """
    check_capacity(n)
    universe = Universe(n)
    for _, rows in class_rows(n, relation_class):
        yield BinaryRelation(universe, rows)
