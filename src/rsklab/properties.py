"""The 23 approximation-operator properties and the counterexample search.

Rows 1-23 match the shared row numbering of the two verdict tables; rows
8-13 quantify over an ordered pair of subsets, all other rows over one
subset.

Each one-set row is declared once, as data: a conjunction of inclusions
``P(A) ⊆ Q(A)`` of words over l, u and ¬ (complement), at A the row's
set X or a fixed ∅ or V. Row 1 (duality) is the four inclusions of
``l(¬X) = ¬u(X)`` and ``u(¬X) = ¬l(X)``; rows 2-5 are evaluated at ∅ or
V, ignore X, and so have the witness X=∅; every other one-set row is a
single inclusion. Two algebras read the same words, each compiled from
them: each row's ``evaluate`` once, at import, over one relation's
tables; and each row's fail mask once per size, over bit-sliced sets, on
the first scan that asks for that row. Rows 8-13 keep their predicates.

Row 13 is stated here as ``u(X∩Y) ⊆ u(X) ∩ u(Y)``; the reverse inclusion
fails already for equivalence relations, so only this direction is
consistent with the all-ticked reference rows it has to reproduce.

``relation_failures`` decides every row on one relation's tables, for
``check_relation`` and ``check_biconditional``. Every relational
operator is a complete join morphism (upper) or meet morphism (lower),
fixed by its values on atoms (Jónsson-Tarski). ``_morphisms`` checks
the binary form of that once per relation, in O(2^n):
``u(X) = u(X minus a) ∪ u({a})`` and ``l(-X) = l(-(X minus a)) ∩ l(-{a})``
for every nonempty X and its least element a. By induction on |X| this
holds exactly when ``u`` preserves binary unions (row 10) and ``l``
binary intersections (row 11), which imply rows 9 and 13 and rows 8 and
12, so rows 8-13 all hold without scanning the 4^n (X, Y) pairs. On any
other table, such as a hand-edited one, the check fails and the plain
scan runs; the scan stays the only finder of an (X, Y) witness, so the
check never changes a result. There one-set rows are always scanned,
and the check runs only when a two-set row is asked for.

A column scan, ``scan_class_failures``, decides every member of a class
at once by bit-slicing (Biham, "A fast new DES implementation in
software", FSE 1997; Knuth, TAOCP 4A, "Bitwise tricks and techniques").
For each size it takes batches of relations, in encoding order, as ints
of ``_BATCH_BITS`` bits, where bit ``k * 2^n + X`` stands for relation k
of the batch at subset X, and each relation bit (x, y) is one int. The
ints that depend only on the size and the batch length (the sets X, the
masks of the morphism check, the cube's index variables and tables) are
built once per process and shared, read-only, by every scan: a few
frames of ints of up to 128 KB per size, 29 frames and about 10 MB after
an n≤5 table. Every class is the members of a cube over its free
encoding bits (``relations.class_cube``), with cube order equal to
encoding order. A class without transitivity is sliced as its cube: a
batch's low free bits are fixed tilings, its top free bits constant 0 or
all-ones ints, and a serial class's members a mask computed from them. A
transitive class fills too little of its cube (0.5% for Rt at n=5) to be
sliced whole, so its members are read off the cube's bit-sliced
transitivity masks (``ClassCube.members``) and packed, their rows
through bytes, into batches of members only. A set becomes n ints, and
each word is O(n²) big-int ANDs and ORs over every relation and every X
of the batch, by the operators ``operators.sliced_operators`` compiles
per pairing and size. The words the one-set rows read, with their
suffixes, form one fixed plan, built at import; a batch evaluates only
the plan's words that its pending rows read, each once, and the scan
works that set out again only when a row is settled. A one-set row's
fail mask is the OR of its inclusions' violations, and its lowest set
bit among the class members, ``k * 2^n + X``, is the row's witness: the
minimal failing member k and its minimal X. Rows 8-13 hold for every
relation, so the scan asserts them: it computes ``_morphisms`` on the
sliced operators, reading u(X) and l(X) from the plan, and a member
failing it is an error in the sliced kernels, raised as an internal
inconsistency, never a counterexample.

A refuted verdict always carries the canonically minimal counterexample:
smallest universe size, then smallest relation encoding, then smallest X
bitmask, then smallest Y. Searches scan in exactly that order, which is
why verdicts are independent of worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
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
    tile,
)

_Eval = Callable[[Sequence[int], Sequence[int], int, int, int], bool]


@dataclass(frozen=True)
class Inclusion:
    """``P(A) ⊆ Q(A)`` for words P and Q over l, u and ¬ (complement).

    A word reads right to left, as composition: ``"ul"`` is u(l(A)) and
    ``""`` is A itself. A is the row's set X, or the fixed set ∅ or V.
    """

    sub: str
    sup: str
    at: str = "X"


@dataclass(frozen=True)
class PropertyRow:
    """One table row: an executable predicate over (lower, upper, X[, Y]).

    A one-set row's ``evaluate`` is compiled from its ``inclusions``; rows
    8-13 have a predicate and no inclusions.
    """

    index: int
    label: str
    two_set: bool
    evaluate: _Eval
    inclusions: tuple[Inclusion, ...] = ()


# The table algebra: lo and up are one relation's tables by mask, f the
# full mask and x the row's set, so a word becomes nested lookups.
_TABLE_LETTERS = {"l": "lo[{}]", "u": "up[{}]", "¬": "(f ^ {})"}
_TABLE_SETS = {"X": "x", "∅": "0", "V": "f"}


def _table_term(word: str, at: str) -> str:
    term = _TABLE_SETS[at]
    for letter in reversed(word):
        term = _TABLE_LETTERS[letter].format(term)
    return term


def _one_set(index: int, label: str, *inclusions: Inclusion) -> PropertyRow:
    """A one-set row; ``evaluate`` is its inclusions compiled to one expression."""
    test = " and ".join(
        f"not {_table_term(i.sub, i.at)} & ~{_table_term(i.sup, i.at)}"
        for i in inclusions
    )
    # the source holds only the fixed words of PROPERTY_ROWS
    evaluate = eval(f"lambda lo, up, f, x, y: {test}")
    return PropertyRow(index, label, False, evaluate, inclusions)


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
        Inclusion("l¬", "¬u"),
        Inclusion("¬u", "l¬"),
        Inclusion("u¬", "¬l"),
        Inclusion("¬l", "u¬"),
    ),
    _one_set(2, "l(∅) = ∅", Inclusion("l", "", "∅")),
    _one_set(3, "∅ = u(∅)", Inclusion("u", "", "∅")),
    _one_set(4, "l(V) = V", Inclusion("", "l", "V")),
    _one_set(5, "u(V) = V", Inclusion("", "u", "V")),
    _one_set(6, "l(X) ⊆ X", Inclusion("l", "")),
    _one_set(7, "X ⊆ u(X)", Inclusion("", "u")),
    PropertyRow(8, "X ⊆ Y ⇒ l(X) ⊆ l(Y)", True, _p08),
    PropertyRow(9, "X ⊆ Y ⇒ u(X) ⊆ u(Y)", True, _p09),
    PropertyRow(10, "u(X∪Y) = u(X) ∪ u(Y)", True, _p10),
    PropertyRow(11, "l(X∩Y) = l(X) ∩ l(Y)", True, _p11),
    PropertyRow(12, "l(X∪Y) ⊇ l(X) ∪ l(Y)", True, _p12),
    PropertyRow(13, "u(X∩Y) ⊆ u(X) ∩ u(Y)", True, _p13),
    _one_set(14, "l(l(X)) ⊆ l(X)", Inclusion("ll", "l")),
    _one_set(15, "l(l(X)) ⊇ l(X)", Inclusion("l", "ll")),
    _one_set(16, "u(l(X)) ⊆ l(X)", Inclusion("ul", "l")),
    _one_set(17, "u(l(X)) ⊇ l(X)", Inclusion("l", "ul")),
    _one_set(18, "u(u(X)) ⊆ u(X)", Inclusion("uu", "u")),
    _one_set(19, "u(u(X)) ⊇ u(X)", Inclusion("u", "uu")),
    _one_set(20, "l(u(X)) ⊆ u(X)", Inclusion("lu", "u")),
    _one_set(21, "u(X) ⊆ l(u(X))", Inclusion("u", "lu")),
    _one_set(22, "X ⊆ l(u(X))", Inclusion("", "lu")),
    _one_set(23, "u(l(X)) ⊆ X", Inclusion("ul", "")),
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


def _suffixes(word: str, at: str) -> list[tuple[str, str]]:
    """``(word, at)`` and every word inside it, inner words first."""
    return [(word[start:], at) for start in reversed(range(len(word) + 1))]


def _words(row: PropertyRow) -> list[tuple[str, str]]:
    """The (word, at) that a batch evaluates for a row, inner words first:
    the words of a one-set row's inclusions, and u(X) and l(X), which the
    morphism check reads, for a two-set row."""
    if row.two_set:
        return _suffixes("u", "X") + _suffixes("l", "X")
    return [
        term
        for i in row.inclusions
        for word in (i.sub, i.sup)
        for term in _suffixes(word, i.at)
    ]


# The fixed plan of the sliced algebra, every word of every row once, inner
# words first, so that a batch, evaluating in plan order, evaluates a word
# after the word its first letter applies to. A batch's values are a list by
# plan position. _STEPS gives each word's first letter and the position of
# the word it applies to ("" and None for a set itself), _ROW_TERMS each
# one-set row's (sub, sup) positions, and _READS each row's positions.
_PLAN = tuple(dict.fromkeys(term for row in PROPERTY_ROWS for term in _words(row)))
_POSITION = {term: p for p, term in enumerate(_PLAN)}
_STEPS = tuple(
    (word[:1], _POSITION[word[1:], at] if word else None) for word, at in _PLAN
)
_ROW_TERMS = {
    row.index: tuple(
        (_POSITION[i.sub, i.at], _POSITION[i.sup, i.at]) for i in row.inclusions
    )
    for row in PROPERTY_ROWS
    if not row.two_set
}
_READS = {
    row.index: frozenset(_POSITION[term] for term in _words(row))
    for row in PROPERTY_ROWS
}
_UX, _LX = _POSITION["u", "X"], _POSITION["l", "X"]


def _needed(rows: Iterable[PropertyRow]) -> tuple[int, ...]:
    """The plan positions a batch evaluates for the rows, in plan order."""
    # a loop, not frozenset().union(*...): CPython builds that argument tuple
    # from the generator by resizing, and every such tuple freed then stays
    # in its size's free list, about 1 MB over a few thousand scans
    needed: set[int] = set()
    for row in rows:
        needed |= _READS[row.index]
    return tuple(sorted(needed))


class _FailMasks(dict):
    """Per one-set row index, its fail mask from a batch's plan values and
    ones: the OR of every inclusion's violations, compiled to one expression
    on the row's first lookup, so a scan compiles only the rows it asks for
    and every later lookup is a dict hit."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, index: int) -> Callable[[Sequence[Sequence[int]], int], int]:
        test = " | ".join(
            f"v[{p}][{w}] & (ones ^ v[{q}][{w}])"
            for p, q in _ROW_TERMS[index]
            for w in range(self.n)
        )
        # the source holds only integer indices
        mask = self[index] = eval(f"lambda v, ones: {test}")
        return mask


@cache  # one per size a scan reaches
def _fail_masks(n: int) -> _FailMasks:
    """The fail masks of the one-set rows at size n."""
    return _FailMasks(n)


# Bits per batch of the column scan: each int of the pass is 128 KB
# whatever the size or the class, so memory stays in the tens of MB.
_BATCH_BITS = 1 << 20


class _Frame:
    """The constant ints of the batches of ``count`` n-element relations.

    Bit ``k * 2^n + X`` of each int stands for member k at subset X, and a
    constant repeats one 2^n-bit block per member. Frames come from
    ``_frame``, one per (size, batch length) for the life of the process,
    shared by every scan and never changed: their ints are read-only, held
    in tuples. A frame holds n + 2 ints, and 4n more once a two-set row
    asks for ``steps``, each of ``count * 2^n`` bits (128 KB at a whole
    batch).
    """

    def __init__(self, n: int, count: int):
        width = 1 << n
        self.n, self.width, self.count = n, width, count
        self.ones = (1 << width * count) - 1
        self.starts = self.where(lambda x: x == 0)
        # the set X itself: entry e holds the positions whose X contains e
        self.sets = tuple(self.where(lambda x, e=e: x >> e & 1) for e in range(n))

    @cached_property
    def steps(self) -> tuple[tuple[int, ...], ...]:
        """Per element a, the masks of the morphism check at a.

        Built on first use: a scan without a two-set row never needs them.
        """
        steps = []
        for a in range(self.n):
            step, low = 1 << a, (2 << a) - 1
            co_step = self.width - 1 - step  # the subset V minus {a}
            steps.append(
                (
                    step,
                    self.where(lambda x: x & low == step),
                    self.where(lambda x: x == step),
                    co_step,
                    self.where(lambda z: z & low == step - 1),
                    self.where(lambda z: z == co_step),
                )
            )
        return tuple(steps)

    def where(self, holds: Callable[[int], bool]) -> int:
        """The positions, in every member, of the subsets X with ``holds(X)``."""
        block = sum(1 << x for x in range(self.width) if holds(x))
        return tile(block, self.width, self.count)

    def fill(self, starts: int) -> int:
        """Each set bit ``k * 2^n`` of ``starts`` widened to member k's whole block."""
        return (starts << self.width) - starts


@cache  # the sizes and batch lengths of a process are few: about ten a size
def _frame(n: int, count: int) -> _Frame:
    """The one frame of the batches of ``count`` n-element relations."""
    return _Frame(n, count)


def _member_bits(frame: _Frame, encodings: Sequence[int]) -> list[list[int]]:
    """``bits[x][y]``: the positions whose member relates x to y.

    Row x of member k goes to bits ``k * 2^n .. k * 2^n + n - 1`` of one
    int. From n = 3 a member's block is whole bytes, so the int is read
    from bytes, row x of member k in the first bytes of its block; below,
    where a transitive class has at most 13 members, it is a sum.
    """
    n, width = frame.n, frame.width
    full = (1 << n) - 1
    stride = width // 8
    bits = []
    for x in range(n):
        shift = n * x
        if stride:
            data = bytearray(len(encodings) * stride)
            for b in range(0, n, 8):  # a row's bytes, low first
                digit = full >> b & 255
                column = [e >> shift + b & digit for e in encodings]
                data[b // 8 :: stride] = bytes(column)
            packed = int.from_bytes(data, "little")
        else:
            rows = (e >> shift & full for e in encodings)
            packed = sum(row << k * width for k, row in enumerate(rows))
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
    """The cube of a class without transitivity, its low free bits varying
    inside a batch, as ``ClassCube.batches`` slices it."""
    low = min(cube.free, max(1, _BATCH_BITS >> n).bit_length() - 1)
    frame = _frame(n, 1 << low)
    for top, bits, mask in cube.batches(low, frame.width):
        yield frame, bits, mask, lambda k, base=top << low: cube.encoding(base | k)


class _Batch:
    """A batch of n-element relations, bit-sliced over (member, subset).

    A set is n ints, entry w holding the positions whose set contains w.
    ``values[p]`` is the set of the plan's word p at every position: each
    word in ``needed`` is evaluated once, in plan order, the others are None.
    ``frame`` and ``ones`` are the frame's, for the checks that read them.
    """

    def __init__(
        self,
        frame: _Frame,
        bits: list[list[int]],
        pairing: Pairing,
        needed: Sequence[int],
    ):
        n, ones = frame.n, frame.ones
        self.frame, self.ones = frame, ones
        lower, upper = sliced_operators(pairing, n)
        sets = {"X": frame.sets, "∅": (0,) * n, "V": (ones,) * n}
        values: list = [None] * len(_PLAN)
        for p in needed:
            letter, inner = _STEPS[p]
            if letter == "l":
                values[p] = lower(bits, ones, values[inner])
            elif letter == "u":
                values[p] = upper(bits, ones, values[inner])
            elif letter == "¬":
                values[p] = [ones ^ v for v in values[inner]]
            else:
                values[p] = sets[_PLAN[p][1]]
        self.values = values

    def morphism_failures(self) -> int:
        """The positions where ``_morphisms`` fails, on the sliced operators.

        At position X (a the least element of X) u fails when u(X) differs
        from u(X minus a) ∪ u({a}); at position Z (a the least element not
        in Z) l fails when l(Z) differs from l(Z ∪ {a}) ∩ l(V minus {a}),
        which is ``_morphisms``' lower check at Z = -X.
        """
        up, lo = self.values[_UX], self.values[_LX]
        fill = self.frame.fill
        fails = 0
        for step, least, atom, co_step, co_least, coatom in self.frame.steps:
            for u in up:
                joined = u << step | fill((u & atom) >> step)
                fails |= least & (u ^ joined)
            for l in lo:
                met = l >> step & fill((l & coatom) >> co_step)
                fails |= co_least & (l ^ met)
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
    failing it raises ``RskError`` as an internal inconsistency. A class
    without transitivity is sliced over its cube's free bits; a transitive
    class is packed from its cube's members.
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
        if cube.transitive:
            batches = _member_batches(n, cube)
        else:
            batches = _cube_batches(n, cube)
        fail_masks = _fail_masks(n)
        for frame, bits, mask, encoding_of in batches:
            if needed is None:
                needed = _needed(pending.values())
            batch = _Batch(frame, bits, pairing, needed)
            for index in [index for index in pending if index in _ROW_TERMS]:
                fails = fail_masks[index](batch.values, batch.ones) & mask
                if fails:  # bit k * 2^n + X: member k fails at X, both minimal
                    low = (fails & -fails).bit_length() - 1
                    found[index] = (n, encoding_of(low >> n), low & full, None)
                    del pending[index]
                    needed = None  # the words of the rows left, at the next batch
            fails = batch.morphism_failures() & mask if morphisms else 0
            del batch  # its words are freed before the next batch is built
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
