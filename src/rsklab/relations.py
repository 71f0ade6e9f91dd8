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
from functools import cache, cached_property, reduce
from itertools import product
from operator import and_, or_
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
        # an uppercase R is only ever the relation symbol, so a tag starting
        # with it is a class name exactly; any other tag is a subscript in any
        # case, such as "rst", or "any" for the unconstrained column
        normalized = tag.strip()
        if normalized.startswith("R"):
            member = _BY_NAME.get(normalized)
        else:
            member = _BY_SUBSCRIPT.get(normalized.lower())
        if member is None:
            raise InputError(
                f"unknown relation class {tag!r}; expected one of "
                + ", ".join(_BY_NAME)
                + " or a subscript r/s/t/rs/rt/st/rst/ser, or 'any'"
            )
        return member


# The tags ``RelationClass.from_tag`` accepts: class names, and subscripts.
_BY_NAME = {m.value: m for m in RelationClass}
_BY_SUBSCRIPT = {m.value[1:] or "any": m for m in RelationClass}


# Class tag -> the base predicates the class conjoins, cheapest first. Keyed
# by the tag string; ``violation`` and ``class_cube`` look it up once per call,
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
    # Warshall: after step k, each row holds all it reaches via 0..k
    out = list(relation.rows)
    for k in range(len(out)):
        for x, row in enumerate(out):
            if row >> k & 1:
                out[x] = row | out[k]
    return BinaryRelation(relation.universe, tuple(out))


def reflexive_closure(relation: BinaryRelation) -> BinaryRelation:
    return BinaryRelation(
        relation.universe,
        tuple(row | (1 << x) for x, row in enumerate(relation.rows)),
    )


def rows_from_encoding(n: int, encoding: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple([encoding >> n * x & full for x in range(n)])


def class_rows(
    n: int, relation_class: RelationClass
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """``(encoding, rows)`` of every n-element relation of the class, ascending.

    The one enumeration of a class: ``enumerate_relations`` reads it. It
    reads the members off the class's cube (``ClassCube.members``), as the
    column scan does. No capacity check; callers bound ``n``.
    """
    for encoding in class_cube(n, relation_class).members():
        yield encoding, rows_from_encoding(n, encoding)


# Free bits assigned per level of a cube's descent, so that a level's masks
# are ints of 2^12 bits, one per assignment of its free bits. Of 10 to 14
# bits, 12 generated the preorders of size 6 fastest.
_LEVEL_BITS = 12

# Per byte value, the offsets of its set bits.
_BYTE_BITS = tuple(tuple(i for i in range(8) if byte >> i & 1) for byte in range(256))


def _set_bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending.

    A sparse mask, at most one set bit per 16 bytes, is read by clearing
    its lowest set bit, each step O(bytes); any other mask off its bytes,
    O(bytes) plus O(1) per set bit. At 4,096 bits, 1 set bit in 16 bytes
    takes about as long either way, and 1 in 32 about half as long by the
    lowest bit.
    """
    size = (mask.bit_length() + 7) // 8
    if mask.bit_count() * 16 <= size:
        positions = []
        while mask:
            low = mask & -mask
            positions.append(low.bit_length() - 1)
            mask ^= low
        return positions
    data = mask.to_bytes(size, "little")
    return [
        j << 3 | i for j, byte in enumerate(data) if byte for i in _BYTE_BITS[byte]
    ]


def tile(block: int, width: int, count: int) -> int:
    """``count`` copies of a ``width``-bit block, side by side."""
    tiled, copies = block, 1
    while copies < count:
        tiled |= tiled << width * copies
        copies *= 2
    return tiled & (1 << width * count) - 1


@cache  # shared by every scan: a few pairs a size, read-only
def index_variables(bits: int, width: int) -> tuple[int, ...]:
    """The bit-sliced indices k < 2^bits, index k a block of ``width`` bits.

    Int i holds the blocks of the indices k with bit i of k set.
    """
    variables = []
    for i in range(bits):
        span = width << i  # the bits of 2^i indices
        block = ((1 << span) - 1) << span
        variables.append(tile(block, 2 * span, 1 << bits - i - 1))
    return tuple(variables)


# A transitivity term: the free bits that must all be 1 and the free bit
# that must be 0 for some xRy, yRz, not xRz.
_Term = tuple[tuple[int, ...], int]


def _violations(terms: Sequence[_Term], values: Sequence[int], ones: int) -> int:
    """The positions where some term is violated; ``values[i]`` is free bit i."""
    fails = 0
    for factors, missing in terms:
        term = ones ^ values[missing]
        for factor in factors:
            if not term:
                break
            term &= values[factor]
        fails |= term
    return fails


@dataclass(frozen=True)
class ClassCube:
    """The n-element relations of a class among the assignments of its free bits.

    ``layout[x][y]`` is the free bit that relation bit (x, y) reads, or -1
    where the class fixes it to 1. Cube index k assigns free bit i the
    value of bit i of k. The members are the whole cube, or its serial
    relations when ``serial`` is set, or its transitive relations when
    ``transitive`` is set.
    """

    layout: tuple[tuple[int, ...], ...]
    free: int
    serial: bool
    transitive: bool

    @cached_property
    def _positions(self) -> tuple[int, tuple[int, ...]]:
        """The encoding bits the class fixes to 1, and those of each free bit."""
        n = len(self.layout)
        fixed, positions = 0, [0] * self.free
        for x, row in enumerate(self.layout):
            for y, bit in enumerate(row):
                if bit < 0:
                    fixed |= 1 << n * x + y
                else:
                    positions[bit] |= 1 << n * x + y
        return fixed, tuple(positions)

    def encoding(self, index: int) -> int:
        """The encoding of the relation at cube index ``index``."""
        value, positions = self._positions
        while index:
            low = index & -index
            value |= positions[low.bit_length() - 1]
            index ^= low
        return value

    @cached_property
    def _terms(self) -> dict[_Term, int]:
        """Each transitivity term not always met, with its lowest free bit.

        A term is decided once every free bit from its lowest one up is
        assigned. A fixed bit (x, z) meets its terms, and so does one that
        is also (x, y) or (y, z).
        """
        layout, terms = self.layout, {}
        if self.transitive:
            for x, y, z in product(range(len(layout)), repeat=3):
                missing = layout[x][z]
                factors = {layout[x][y], layout[y][z]} - {-1}
                if missing >= 0 and missing not in factors:
                    terms[tuple(sorted(factors)), missing] = min(factors | {missing})
        return terms

    @cache  # one per batch shape and level width; class_cube keeps the cube
    def _levels(self, low: int, width: int, level_bits: int) -> tuple[tuple, ...]:
        """``(lo, hi, ones, variables, terms)`` per level of the descent, top first.

        A level assigns free bits ``lo..hi-1``: ``level_bits`` of them at
        width 1 from the most significant free bit down (the top level the
        rest), and last the batch's ``low`` bits at ``width``. ``variables``
        are the index variables of its bits after ``lo`` zeros, so entry i
        is free bit i, and ``terms`` those whose lowest free bit it assigns.
        """
        bounds, hi = [], self.free
        while hi > low:
            lo = low + (hi - low - 1) // level_bits * level_bits
            bounds.append((lo, hi, 1))
            hi = lo
        bounds.append((0, low, width))
        return tuple(
            (lo, hi, (1 << (block << hi - lo)) - 1,
             (0,) * lo + index_variables(hi - lo, block),
             tuple(t for t, lowest in self._terms.items() if lo <= lowest < hi))
            for lo, hi, block in bounds
        )

    def batches(
        self, low: int, width: int
    ) -> Iterator[tuple[int, list[list[int]], int]]:
        """``(top, bits, mask)`` per batch of the cube indices ``top << low | k``.

        Index k is the k-th block of ``width`` bits of each int: ``bits[x][y]``
        has the blocks whose relation holds (x, y), and ``mask`` those of
        the members. Batches come in cube order. The one walk over a cube,
        a descent through ``_levels``: at each level the bits above it are
        fixed, as constant 0 or all-ones ints, and its mask is the
        bit-sliced check of the terms it decides over every assignment of
        its own bits. An upper level extends only its set bits, so a batch
        whose fixed bits already violate transitivity is never built; a
        batch without a member is skipped.
        """
        levels = self._levels(low, width, _LEVEL_BITS)

        def descend(top: int, depth: int) -> Iterator[tuple[int, list[list[int]], int]]:
            lo, hi, ones, variables, terms = levels[depth]
            fixed = tuple(ones if top >> i & 1 else 0 for i in range(self.free - hi))
            values = variables + fixed
            mask = ones ^ _violations(terms, values, ones)
            if depth + 1 < len(levels):
                for k in _set_bits(mask):
                    yield from descend(top << hi - lo | k, depth + 1)
                return
            bits = [[values[i] if i >= 0 else ones for i in row] for row in self.layout]
            if self.serial:
                mask &= reduce(and_, (reduce(or_, row) for row in bits), ones)
            if mask:
                yield top, bits, mask

        return descend(0, 0)

    @cache  # one width per cube and _LEVEL_BITS, and class_cube keeps the cube
    def _low_table(self, low: int) -> tuple[int, ...]:
        """Entry k: the free encoding bits of cube index k < 2^low."""
        table = [0]  # bit i of k doubles it
        for position in self._positions[1][:low]:
            table += [e | position for e in table]
        return tuple(table)

    def members(self) -> Iterator[int]:
        """The encodings of the members, ascending.

        Read off the masks of batches of ``2^_LEVEL_BITS`` cube indices, one
        bit each: the set bits' indices come from a mask's bytes, and their
        encodings from a table of the batch's free encoding bits.
        """
        low = min(self.free, _LEVEL_BITS)
        table = self._low_table(low)
        for top, _, mask in self.batches(low, 1):
            base = self.encoding(top << low)
            yield from [base | table[k] for k in _set_bits(mask)]


@cache  # one cube, and the tables it derives, per size and class
def class_cube(n: int, relation_class: RelationClass) -> ClassCube:
    """The class as the members of a cube over free encoding bits.

    Reflexive classes fix the diagonal to 1, and symmetric classes tie bit
    (y, x) to bit (x, y). The free bits are numbered in ascending order of
    the encoding position they set: the pair {x, y} with x > y, a single
    free bit in a symmetric class, is placed at its more significant
    position n·x + y. So cube order is encoding order: the highest
    encoding bit where two cube members differ is the highest position of
    the highest free bit where their indices differ. Transitivity ties
    bits by implication, not equality, so a class that conjoins it is the
    cube of its other predicates with ``transitive`` set, and its members
    are the assignments that violate no transitivity term.
    """
    conjuncts = _CONJUNCTS[relation_class.value]
    symmetric = _symmetric in conjuncts
    layout = [[-1] * n for _ in range(n)]
    free = 0
    for x in range(n):
        for y in range(x + 1 if symmetric else n):
            if x == y and _reflexive in conjuncts:
                continue
            layout[x][y] = free
            if symmetric:
                layout[y][x] = free
            free += 1
    return ClassCube(
        tuple(map(tuple, layout)), free, _serial in conjuncts, _transitive in conjuncts
    )


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
