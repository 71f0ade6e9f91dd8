"""Independent brute-force oracles for the test suite.

Everything here works on plain Python sets of pairs and frozensets of
elements, deliberately sharing no code with the package's bitmask
kernel, so agreement between the two is meaningful. The exceptions are
``ONE_SET_PREDICATES``, the one-set rows written out by hand over the
package's tables, as reference for the rows the package compiles from
words; ``plain_failures``, which takes the package's row predicates as
given and replaces only the decision step around them; and
``reference_scan``, which takes the package's operator kernel and
decision step as given and replaces only the class enumeration.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

# Which classify_pairs flags (reflexive, symmetric, transitive, serial) each
# relation class requires, read off the subscript of its tag.
CLASS_FLAGS = {
    "R": (),
    "Rr": (0,),
    "Rs": (1,),
    "Rt": (2,),
    "Rrs": (0, 1),
    "Rrt": (0, 2),
    "Rst": (1, 2),
    "Rrst": (0, 1, 2),
    "Rser": (3,),
}


# First-order frame conditions, by quantifier loops over the pairs.
def _every(n, pairs):
    return True


def _serial(n, pairs):
    return {x for x, _ in pairs} == set(range(n))


def _converse_serial(n, pairs):
    return {y for _, y in pairs} == set(range(n))


def _reflexive(n, pairs):
    return all((x, x) in pairs for x in range(n))


def _symmetric(n, pairs):
    return all((y, x) in pairs for x, y in pairs)


def _transitive(n, pairs):
    return all(
        (x, z) in pairs for x, y in pairs for z in range(n) if (y, z) in pairs
    )


def _dense(n, pairs):
    return all(
        any((x, z) in pairs and (z, y) in pairs for z in range(n)) for x, y in pairs
    )


def _euclidean(n, pairs):
    return all(
        (y, z) in pairs for x, y in pairs for z in range(n) if (x, z) in pairs
    )


def _inner_successor(n, pairs):
    image = [set() for _ in range(n)]
    for x, y in pairs:
        image[x].add(y)
    return all(any(image[y] <= image[x] for y in image[x]) for x in range(n))


# Condition name -> (n, pairs) -> whether the relation satisfies it:
# "converse-serial" is every y with an x such that xRy, "dense" xRy ⇒
# ∃z (xRz ∧ zRy), "euclidean" xRy ∧ xRz ⇒ yRz, and "inner-successor"
# ∀x ∃y (xRy ∧ R(y) ⊆ R(x)).
CONDITIONS = {
    "every": _every,
    "serial": _serial,
    "converse-serial": _converse_serial,
    "reflexive": _reflexive,
    "symmetric": _symmetric,
    "transitive": _transitive,
    "dense": _dense,
    "euclidean": _euclidean,
    "inner-successor": _inner_successor,
}


def classify_pairs(n: int, pairs: set[tuple[int, int]]):
    """(reflexive, symmetric, transitive, serial), the conditions above."""
    return (
        _reflexive(n, pairs), _symmetric(n, pairs), _transitive(n, pairs),
        _serial(n, pairs),
    )


def least_violations(n: int, pairs: set[tuple[int, int]]):
    """(reflexive, symmetric, transitive, serial) least violators, or None each.

    Literal quantifier loops in lexicographic order: (x,) without (x, x),
    (x, y) in pairs without (y, x), (x, y, z) with (x, y) and (y, z) but
    not (x, z), and (x,) with no (x, y) at all.
    """
    elements = range(n)
    no_loop = next(((x,) for x in elements if (x, x) not in pairs), None)
    asymmetric = next(
        (
            (x, y)
            for x, y in product(elements, repeat=2)
            if (x, y) in pairs and (y, x) not in pairs
        ),
        None,
    )
    open_triple = next(
        (
            (x, y, z)
            for x, y, z in product(elements, repeat=3)
            if (x, y) in pairs and (y, z) in pairs and (x, z) not in pairs
        ),
        None,
    )
    empty_row = next(
        ((x,) for x in elements if not any((x, y) in pairs for y in elements)), None
    )
    return no_loop, asymmetric, open_triple, empty_row


def successors(n: int, pairs: set[tuple[int, int]], x: int) -> frozenset[int]:
    return frozenset(y for y in range(n) if (x, y) in pairs)


def predecessors(n: int, pairs: set[tuple[int, int]], x: int) -> frozenset[int]:
    return frozenset(y for y in range(n) if (y, x) in pairs)


def lower_succ(n, pairs, xs: frozenset[int]) -> frozenset[int]:
    return frozenset(x for x in range(n) if successors(n, pairs, x) <= xs)


def lower_pred(n, pairs, xs: frozenset[int]) -> frozenset[int]:
    return frozenset(x for x in range(n) if predecessors(n, pairs, x) <= xs)


def upper_succ(n, pairs, xs: frozenset[int]) -> frozenset[int]:
    return frozenset(x for x in range(n) if successors(n, pairs, x) & xs)


def upper_pred(n, pairs, xs: frozenset[int]) -> frozenset[int]:
    return frozenset(x for x in range(n) if predecessors(n, pairs, x) & xs)


def successor_union(n, pairs, xs: frozenset[int]) -> frozenset[int]:
    out: set[int] = set()
    for x in xs:
        out |= successors(n, pairs, x)
    return frozenset(out)


def pawlak_classes(n: int, pairs: set[tuple[int, int]]) -> list[frozenset[int]]:
    blocks = {successors(n, pairs, x) for x in range(n)}
    return sorted(blocks, key=min)


def all_subsets(n: int):
    out = []
    for size in range(n + 1):
        out.extend(frozenset(c) for c in combinations(range(n), size))
    return out


def pairs_from_encoding(n: int, encoding: int) -> set[tuple[int, int]]:
    return {
        (x, y) for x in range(n) for y in range(n) if encoding >> (x * n + y) & 1
    }


def in_class(tag: str, flags) -> bool:
    """Whether classify_pairs flags satisfy every predicate of the class."""
    return all(flags[i] for i in CLASS_FLAGS[tag])


@lru_cache(maxsize=None)
def encoding_flags(n: int) -> tuple[tuple[bool, bool, bool, bool], ...]:
    """classify_pairs of every n-element relation, indexed by encoding."""
    return tuple(
        classify_pairs(n, pairs_from_encoding(n, e)) for e in range(1 << n * n)
    )


def class_encodings(n: int, tag: str) -> list[int]:
    """Encodings of the class's n-element relations: all of them, filtered."""
    flags = encoding_flags(n)
    return [e for e in range(1 << n * n) if in_class(tag, flags[e])]


def packed_bits(n: int, encodings) -> list[list[int]]:
    """The column scan's relation bits of a batch of ``encodings``, spelled
    out as binary digits.

    ``bits[x][y]`` has bit ``k * 2^n + X`` set, for every X, exactly when
    relation k of the batch relates x to y: member k's whole block of 2^n
    bits.
    """
    width = 1 << n
    blocks = ("0" * width, "1" * width)
    return [
        [
            # binary digits, the last member's block first
            int("".join(blocks[e >> n * x + y & 1] for e in reversed(encodings)), 2)
            for y in range(n)
        ]
        for x in range(n)
    ]


def _subset(a: int, b: int) -> bool:
    return not (a & ~b)


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


# Row -> the one-set row as an (lo, up, full, x, y) predicate, stated by hand.
ONE_SET_PREDICATES = {
    1: _p01, 2: _p02, 3: _p03, 4: _p04, 5: _p05, 6: _p06, 7: _p07,
    14: _p14, 15: _p15, 16: _p16, 17: _p17, 18: _p18, 19: _p19,
    20: _p20, 21: _p21, 22: _p22, 23: _p23,
}


# Row correspondents, as (rows, dual, nondual): each row holds on a relation
# under a pairing exactly when the relation satisfies the pairing's
# condition (modal correspondence: Sahlqvist 1975; van Benthem 1985).
# Rows 8-13 are the two-set rows, which hold on every relation.
_CORRESPONDENTS = (
    ((3, 4, 8, 9, 10, 11, 12, 13), "every", "every"),
    ((1,), "every", "symmetric"),
    ((22, 23), "symmetric", "every"),
    ((2,), "serial", "serial"),
    ((5,), "serial", "converse-serial"),
    ((6, 7), "reflexive", "reflexive"),
    ((14, 19), "dense", "dense"),
    ((15, 18), "transitive", "transitive"),
    ((16, 21), "euclidean", "transitive"),
    ((17, 20), "inner-successor", "reflexive"),
)

# Nondual's conditions on the transposed relation, where they are not
# their own transposes.
TRANSPOSED = {"serial": "converse-serial", "converse-serial": "serial"}

# (row, pairing) -> its condition. Mirror is nondual on the transpose, so
# its conditions are nondual's, transposed.
ROW_CONDITIONS = {
    (row, pairing): condition
    for rows, dual, nondual in _CORRESPONDENTS
    for row in rows
    for pairing, condition in (
        ("dual-succ", dual),
        ("nondual", nondual),
        ("mirror-nondual", TRANSPOSED.get(nondual, nondual)),
    )
}


def plain_failures(rows, lo, up, full):
    """``relation_failures`` with rows 8-13 scanned, not asserted: every
    row is scanned over its assignments.

    X ascending, then Y ascending; each failing row maps to its first
    failing assignment, with Y None for one-set rows.
    """
    failures = {}
    for row in rows:
        ys = range(full + 1) if row.two_set else (None,)
        for x, y in product(range(full + 1), ys):
            if not row.evaluate(lo, up, full, x, y or 0):
                failures[row.index] = (x, y)
                break
    return failures


def reference_scan(pairing, tag: str, max_n: int, indices):
    """``scan_class_failures`` over the oracle-filtered class enumeration.

    Sizes, then encodings, ascending; each row is settled by the first
    member with a failing X, found by the package's ``approx_tables`` and
    ``relation_failures``, so Y is always None.
    """
    from rsklab.operators import approx_tables
    from rsklab.properties import property_row, relation_failures

    pending = {index: property_row(index) for index in indices}
    found = {}
    for n in range(1, max_n + 1):
        if not pending:
            break
        full = (1 << n) - 1
        for encoding in class_encodings(n, tag):
            rows = [encoding >> n * x & full for x in range(n)]
            lo, up = approx_tables(n, rows, pairing)
            failures = relation_failures(pending.values(), lo, up, full)
            for index, x in failures.items():
                found[index] = (n, encoding, x, None)
                del pending[index]
            if not pending:
                break
    return found
