"""The 23 approximation-operator properties and the counterexample search.

Rows 1-23 match the shared row numbering of the two verdict tables; rows
8-13 quantify over an ordered pair of subsets, all other rows over one
subset.

Each one-set row is declared once, as data: a conjunction of inclusions,
each a pair ``(sub, sup)`` of words read as ``sub ⊆ sup``. A word is over
l, u and ¬ (complement) and spelled with its set, the row's X or a fixed ∅
or V: ``("ulX", "lX")`` is u(l(X)) ⊆ l(X) and ``"l∅"`` is l(∅). Row 1
(duality) is the four inclusions of ``l(¬X) = ¬u(X)`` and
``u(¬X) = ¬l(X)``; rows 2-5 read only ∅ or V, ignore X, and so have the
witness X=∅; every other one-set row is a single inclusion. Two algebras
read the same words, keyed by their spelling, each compiled from them:
each row's ``evaluate`` once, at import, over one relation's tables; and
each row's fail mask by ``_fail_mask``, once per (size, row), over
bit-sliced sets, when a scan first asks for that row at that size. Rows
8-13 keep their predicates, which only ``eval_property`` reads.

Row 13 is stated here as ``u(X∩Y) ⊆ u(X) ∩ u(Y)``; the reverse inclusion
fails already for equivalence relations, so only this direction is
consistent with the all-ticked reference rows it has to reproduce.

``relation_failures`` decides every row on one relation's tables, for
``check_relation`` and ``check_biconditional``. Every relational
operator is a complete join morphism (upper) or meet morphism (lower),
fixed by its values on atoms (Jónsson-Tarski). ``_morphisms`` checks
exactly that once per relation, in O(2^n): at every X, ∅ and V included,
u(X) is the union of u({a}) over a in X, and l(X) the intersection of
l(V minus {a}) over a not in X. It takes u(∅) = ∅ and l(V) = V, then
adds one atom at a time: ``u(X) = u(X minus a) ∪ u({a})`` and
``l(-X) = l(-(X minus a)) ∩ l(-{a})`` for a the least element of X. So u
preserves every union (row 10, which implies rows 9 and 13) and l every
intersection (row 11, which implies rows 8 and 12), and rows 8-13 all
hold without scanning the 4^n (X, Y) pairs; the check asserts rows 3 and
4 too, which are still scanned as one-set rows. Both paths assert rows
8-13 rather than search them: here the check runs once per call that
asks for a two-set row, and tables failing it, which no relation has,
raise an internal inconsistency; one-set rows are scanned for their
least failing X.

A column scan, ``scan_class_failures``, decides every member of a class
at once by bit-slicing (Biham, "A fast new DES implementation in
software", FSE 1997; Knuth, TAOCP 4A, "Bitwise tricks and techniques").
For each size it takes batches of relations, in encoding order, as ints
of ``_BATCH_BITS`` bits, where bit ``k * 2^n + X`` stands for relation k
of the batch at subset X, and each relation bit (x, y) is one int. The
ints that depend only on the size and the batch length are built once
per process and shared, read-only, by every scan: the sets X, tiled from
the index variables of the 2^n subsets (``relations.index_variables``),
and the cube's levels and tables; a few frames of ints of up to 128 KB
per size, 27 frames and about 2.7 MB after an n≤5 table. Every class is
the members of a cube over its free encoding bits
(``relations.class_cube``), with cube order equal to encoding order. A
cube is sliced: a batch's low free bits are index variables, its top
free bits constant 0 or all-ones ints, and a serial or transitive
class's members a mask computed from them. From n = 3, where a member's
2^n bits are whole bytes, a transitive class's members are read off its
cube's bit-sliced transitivity masks (``ClassCube.members``) and packed,
their rows through bytes, into batches of members only, as the class
fills little of its cube (0.5% for Rt at n=5). A set becomes n ints, and
each word is O(n²) big-int ANDs and ORs over every relation and every X
of the batch, by the operators ``operators.sliced_operators`` compiles
per pairing and size. ``_words`` evaluates, per batch, only the words
its pending rows read, with the words inside them, each once and inner
words first (``_needed``, kept per set of pending rows), and the scan
looks that list up again only when a row is settled. A one-set row's
fail mask is the OR of its inclusions' violations, and its lowest set
bit among the class members, ``k * 2^n + X``, is the row's witness: the
minimal failing member k and its minimal X. Rows 8-13 hold for every
relation, so the scan asserts them: ``_morphism_failures`` computes
``_morphisms`` on the sliced operators, reading the batch's u(X) and l(X)
and each member's u({a}) and l(V minus {a}) off its own block, and a
member failing it is an error in the sliced kernels, raised as an
internal inconsistency, never a counterexample.

A refuted verdict always carries the canonically minimal counterexample:
smallest universe size, then smallest relation encoding, then smallest X
bitmask. Searches scan in exactly that order, which is
why verdicts are independent of worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InputError, PreconditionError, RskError
from .operators import Pairing, approx_tables, sliced_operators
from .relations import (
    BinaryRelation,
    ClassCube,
    RelationClass,
    Subset,
    Universe,
    check_capacity,
    class_cube,
    index_variables,
    tile,
)

_Eval = Callable[[Sequence[int], Sequence[int], int, int, int], bool]


@dataclass(frozen=True)
class PropertyRow:
    """One table row: an executable predicate over (lower, upper, X[, Y]).

    A one-set row's ``evaluate`` is compiled from its ``inclusions``, each a
    pair ``(sub, sup)`` of words read as ``sub ⊆ sup``; rows 8-13 have a
    predicate and no inclusions. A word over l, u and ¬ (complement) reads
    right to left, as composition, and ends in its set: the row's set X, or
    the fixed set ∅ or V. ``"ulX"`` is u(l(X)), ``"l∅"`` is l(∅) and ``"V"``
    is V itself.
    """

    index: int
    label: str
    two_set: bool
    evaluate: _Eval
    inclusions: tuple[tuple[str, str], ...] = ()


# The table algebra: lo and up are one relation's tables by mask, f the
# full mask and x the row's set, so a word becomes nested lookups.
_TABLE_LETTERS = {
    "l": "lo[{}]", "u": "up[{}]", "¬": "(f ^ {})", "X": "x", "∅": "0", "V": "f"
}


def _table_term(word: str) -> str:
    term = "{}"
    for letter in word:
        term = term.format(_TABLE_LETTERS[letter])
    return term


def _one_set(index: int, label: str, *inclusions: tuple[str, str]) -> PropertyRow:
    """A one-set row; ``evaluate`` is its inclusions compiled to one expression."""
    test = " and ".join(
        f"not {_table_term(sub)} & ~{_table_term(sup)}" for sub, sup in inclusions
    )
    # the source holds only the fixed words of PROPERTY_ROWS
    evaluate = eval(f"lambda lo, up, f, x, y: {test}")
    return PropertyRow(index, label, False, evaluate, inclusions)


def _subset(a: int, b: int) -> bool:
    return not (a & ~b)


def _morphisms(lo, up, full):
    """u is the union of its values on singletons and l the intersection of
    its values on co-singletons, at every X: a complete join (meet) morphism."""
    if up[0] != 0 or lo[full] != full:
        return False
    for x in range(1, full + 1):
        a = x & -x
        if up[x] != up[x ^ a] | up[a]:
            return False
        if lo[full ^ x] != lo[full ^ x ^ a] & lo[full ^ a]:
            return False
    return True


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


PROPERTY_ROWS: tuple[PropertyRow, ...] = (
    _one_set(
        1,
        "duality of l(X), u(X)",
        ("l¬X", "¬uX"),
        ("¬uX", "l¬X"),
        ("u¬X", "¬lX"),
        ("¬lX", "u¬X"),
    ),
    _one_set(2, "l(∅) = ∅", ("l∅", "∅")),
    _one_set(3, "∅ = u(∅)", ("u∅", "∅")),
    _one_set(4, "l(V) = V", ("V", "lV")),
    _one_set(5, "u(V) = V", ("V", "uV")),
    _one_set(6, "l(X) ⊆ X", ("lX", "X")),
    _one_set(7, "X ⊆ u(X)", ("X", "uX")),
    PropertyRow(8, "X ⊆ Y ⇒ l(X) ⊆ l(Y)", True, _p08),
    PropertyRow(9, "X ⊆ Y ⇒ u(X) ⊆ u(Y)", True, _p09),
    PropertyRow(10, "u(X∪Y) = u(X) ∪ u(Y)", True, _p10),
    PropertyRow(11, "l(X∩Y) = l(X) ∩ l(Y)", True, _p11),
    PropertyRow(12, "l(X∪Y) ⊇ l(X) ∪ l(Y)", True, _p12),
    PropertyRow(13, "u(X∩Y) ⊆ u(X) ∩ u(Y)", True, _p13),
    _one_set(14, "l(l(X)) ⊆ l(X)", ("llX", "lX")),
    _one_set(15, "l(l(X)) ⊇ l(X)", ("lX", "llX")),
    _one_set(16, "u(l(X)) ⊆ l(X)", ("ulX", "lX")),
    _one_set(17, "u(l(X)) ⊇ l(X)", ("lX", "ulX")),
    _one_set(18, "u(u(X)) ⊆ u(X)", ("uuX", "uX")),
    _one_set(19, "u(u(X)) ⊇ u(X)", ("uX", "uuX")),
    _one_set(20, "l(u(X)) ⊆ u(X)", ("luX", "uX")),
    _one_set(21, "u(X) ⊆ l(u(X))", ("uX", "luX")),
    _one_set(22, "X ⊆ l(u(X))", ("X", "luX")),
    _one_set(23, "u(l(X)) ⊆ X", ("ulX", "X")),
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
) -> dict[int, int]:
    """The least failing X of each failing one-set row.

    ``lo`` and ``up`` are one relation's tables; rows that hold are absent.
    Rows 8-13 hold for every relation and are never in the result: while
    one is asked for, the tables must pass ``_morphisms`` (u the union of
    its values on singletons and l the intersection of its values on
    co-singletons, at every X), and tables failing it raise ``RskError``
    as an internal inconsistency.
    """
    rows = list(rows)
    if any(row.two_set for row in rows) and not _morphisms(lo, up, full):
        raise RskError(
            "internal inconsistency: the operator tables fail the morphism check"
        )
    failures: dict[int, int] = {}
    for row in rows:
        if row.two_set:
            continue
        evaluate = row.evaluate
        for x in range(full + 1):
            if not evaluate(lo, up, full, x, 0):
                failures[row.index] = x
                break
    return failures


@dataclass(frozen=True)
class RelationCheck:
    """All-subsets verdict of one property row for one fixed relation."""

    row: int
    pairing: Pairing
    holds: bool
    x: Subset | None = None
    y: Subset | None = None  # always None: rows 8-13 are never refuted


def check_relation(
    index: int, pairing: Pairing, relation: BinaryRelation
) -> RelationCheck:
    """Quantify one row over every subset assignment of one relation."""
    row = property_row(index)
    lo, up = approx_tables(relation.universe.size, relation.rows, pairing)
    x_bits = relation_failures([row], lo, up, relation.universe.full_mask).get(index)
    if x_bits is None:
        return RelationCheck(index, pairing, True)
    return RelationCheck(index, pairing, False, Subset(relation.universe, x_bits))


@dataclass(frozen=True)
class Counterexample:
    relation: BinaryRelation
    x: Subset
    y: Subset | None = None  # always None: rows 8-13 are never refuted


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


@cache  # one per distinct set of pending rows
def _needed(indices: frozenset[int]) -> tuple[tuple[str, str, str], ...]:
    """``(word, letter, inner)`` for each word a batch evaluates for the rows,
    the word being its first letter applied to ``inner``: every word of a
    one-set row's inclusions with every word inside it, and u(X) and l(X),
    which the morphism check reads, for a two-set row. The sets X, ∅ and V
    are not listed; the rest are sorted by length, then spelling, so each
    inner word comes before the words it is inside."""
    words: set[str] = set()
    for row in map(property_row, indices):
        if row.two_set:
            words |= {"uX", "lX"}
        for pair in row.inclusions:
            for word in pair:
                words.update(word[start:] for start in range(len(word) - 1))
    ordered = sorted(words, key=lambda word: (len(word), word))
    return tuple((word, word[0], word[1:]) for word in ordered)


@cache  # one per (size, one-set row) that a scan reaches
def _fail_mask(n: int, index: int) -> Callable[[dict[str, Sequence[int]], int], int]:
    """The row's fail mask from a batch's words and ones: the OR of every
    inclusion's violations, compiled to one expression."""
    test = " | ".join(
        f"v[{sub!r}][{w}] & (ones ^ v[{sup!r}][{w}])"
        for sub, sup in property_row(index).inclusions
        for w in range(n)
    )
    # the source holds only the fixed words of PROPERTY_ROWS and integers
    return eval(f"lambda v, ones: {test}")


# Bits per batch of the column scan: each int of the pass is 128 KB
# whatever the size or the class, so memory stays in the tens of MB.
_BATCH_BITS = 1 << 20


class _Frame:
    """The constant ints of the batches of ``count`` n-element relations.

    Bit ``k * 2^n + X`` of each int stands for member k at subset X, and a
    constant repeats one 2^n-bit block per member. Frames come from
    ``_frame``, one per (size, batch length) for the life of the process,
    shared by every scan and never changed: their ints are read-only, held
    in tuples. A frame holds n + 2 ints, each of ``count * 2^n`` bits
    (128 KB at a whole batch).
    """

    def __init__(self, n: int, count: int):
        width = 1 << n
        self.n, self.width, self.count = n, width, count
        self.ones = (1 << width * count) - 1
        self.starts = tile(1, width, count)
        # the set X itself, X the index of its block: entry e is index
        # variable e, the positions whose X contains e, tiled per member
        self.sets = tuple(tile(v, width, count) for v in index_variables(n, 1))

    def fill(self, starts: int) -> int:
        """Each set bit ``k * 2^n`` of ``starts`` widened to member k's whole block."""
        return (starts << self.width) - starts


# The one frame of the batches of ``count`` n-element relations: the sizes
# and batch lengths of a process are few, about ten a size.
_frame = cache(_Frame)


def _member_bits(frame: _Frame, encodings: Sequence[int]) -> list[list[int]]:
    """``bits[x][y]``: the positions whose member relates x to y.

    Row x of member k goes to bits ``k * 2^n .. k * 2^n + n - 1`` of one
    int, read from bytes: row x of member k in the first bytes of its
    block, so a block must be whole bytes, n ≥ 3.
    """
    n = frame.n
    full = (1 << n) - 1
    stride = frame.width // 8
    bits = []
    for x in range(n):
        shift = n * x
        data = bytearray(len(encodings) * stride)
        for b in range(0, n, 8):  # a row's bytes, low first
            digit = full >> b & 255
            column = [e >> shift + b & digit for e in encodings]
            data[b // 8 :: stride] = bytes(column)
        packed = int.from_bytes(data, "little")
        bits.append([frame.fill(packed >> y & frame.starts) for y in range(n)])
    return bits


# A batch source yields (frame, bits, mask, encoding): the sliced relation
# bits of one batch, the positions of its class members, and the encoding of
# member k, in encoding order across batches.
_Batches = Iterator[tuple[_Frame, list[list[int]], int, Callable[[int], int]]]


def _member_batches(n: int, cube: ClassCube) -> _Batches:
    """The members of a transitive class's cube, packed a batch at a time."""
    members = cube.members()
    while batch := list(islice(members, max(1, _BATCH_BITS >> n))):
        frame = _frame(n, len(batch))
        yield frame, _member_bits(frame, batch), frame.ones, batch.__getitem__


def _cube_batches(n: int, cube: ClassCube) -> _Batches:
    """The cube of a class, its low free bits varying inside a batch, as
    ``ClassCube.batches`` slices it."""
    low = min(cube.free, max(1, _BATCH_BITS >> n).bit_length() - 1)
    frame = _frame(n, 1 << low)
    for top, bits, mask in cube.batches(low, frame.width):
        yield frame, bits, mask, lambda k, base=top << low: cube.encoding(base | k)


def _words(
    frame: _Frame,
    bits: list[list[int]],
    pairing: Pairing,
    needed: Sequence[tuple[str, str, str]],
) -> dict[str, Sequence[int]]:
    """``word -> set`` over a batch of n-element relations, bit-sliced over
    (member, subset): the sets X, ∅ and V, and each word of ``needed``,
    evaluated once, in its order. A set is n ints, entry w holding the
    positions whose set contains w."""
    n, ones = frame.n, frame.ones
    lower, upper = sliced_operators(pairing, n)
    values = {"X": frame.sets, "∅": (0,) * n, "V": (ones,) * n}
    for word, letter, inner in needed:
        if letter == "l":
            values[word] = lower(bits, ones, values[inner])
        elif letter == "u":
            values[word] = upper(bits, ones, values[inner])
        else:
            values[word] = [ones ^ v for v in values[inner]]
    return values


def _morphism_failures(frame: _Frame, values: dict[str, Sequence[int]]) -> int:
    """The positions where ``_morphisms`` fails, on the sliced operators.

    At position X, u fails when u(X) differs from the union of u({a})
    over a in X, and l fails when l(X) differs from the intersection of
    l(V minus {a}) over a not in X; so at X = ∅, u(∅) must be ∅, and at
    X = V, l(V) must be V. A member's u({a}) is read off its block at
    position {a} and widened to the whole block, as is its l(V minus {a}).
    """
    ones, fill, starts, full = frame.ones, frame.fill, frame.starts, frame.width - 1
    fails = 0
    for u, l in zip(values["uX"], values["lX"]):
        joined, met = 0, ones
        for a, s in enumerate(frame.sets):
            joined |= s & fill(u >> (1 << a) & starts)
            met &= s | fill(l >> (full ^ 1 << a) & starts)
        fails |= u ^ joined | l ^ met
    return fails


def scan_class_failures(
    pairing: Pairing,
    relation_class: RelationClass,
    max_n: int,
    indices: Iterable[int],
) -> dict[int, tuple[int, int, int, int | None]]:
    """Minimal counterexamples ``row -> (n, encoding, x, y)`` for the given rows.

    Rows with no counterexample up to ``max_n`` are absent from the result.
    Settles each one-set row at the first failing relation of the class
    (sizes, then encodings, ascending), with the minimal X inside it: the
    lowest set bit of its sliced fail mask, so ``y`` is always None. Rows
    8-13 hold for every relation and are never settled; while one is asked
    for, every batch must pass the sliced morphism check, and a member
    failing it raises ``RskError`` as an internal inconsistency. A
    transitive class is packed from its cube's members from n = 3; every
    other cube is sliced over its free bits.
    """
    pending = {row.index: row for row in map(property_row, indices)}
    found: dict[int, tuple[int, int, int, int | None]] = {}
    needed = None
    if pairing is Pairing.PAWLAK and relation_class is not RelationClass.Rrst:
        raise PreconditionError(
            "the granule-based pairing is only searchable over class Rrst"
        )
    morphisms = any(row.two_set for row in pending.values())
    for n in range(1, max_n + 1):
        if not pending:
            break
        full = (1 << n) - 1
        cube = class_cube(n, relation_class)
        # members are packed from n = 3, where a member's block of 2^n bits
        # is whole bytes, as _member_bits reads it; below, a transitive cube
        # has at most 16 relations, and its sliced batches apply its terms
        batches = _member_batches if cube.transitive and n >= 3 else _cube_batches
        for frame, bits, mask, encoding_of in batches(n, cube):
            if needed is None:
                needed = _needed(frozenset(pending))
            values = _words(frame, bits, pairing, needed)
            for index in [index for index, row in pending.items() if not row.two_set]:
                fails = _fail_mask(n, index)(values, frame.ones) & mask
                if fails:  # bit k * 2^n + X: member k fails at X, both minimal
                    low = (fails & -fails).bit_length() - 1
                    found[index] = (n, encoding_of(low >> n), low & full, None)
                    del pending[index]
                    needed = None  # the words of the rows left, at the next batch
            fails = _morphism_failures(frame, values) & mask if morphisms else 0
            del values  # its words are freed before the next batch is built
            if fails:
                encoding = encoding_of((fails & -fails).bit_length() - 1 >> n)
                raise RskError(
                    f"internal inconsistency: relation {encoding} of size {n} "
                    f"fails the sliced morphism check under {pairing.value}"
                )
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
            n, encoding, x_bits, _ = failures[index]
            universe = Universe(n)
            cex = Counterexample(
                BinaryRelation.from_encoding(universe, encoding),
                Subset(universe, x_bits),
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
