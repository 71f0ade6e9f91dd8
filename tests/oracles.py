"""Independent brute-force oracles for the test suite.

Everything here works on plain Python sets of pairs and frozensets of
elements, deliberately sharing no code with the package's bitmask
kernel, so agreement between the two is meaningful.
"""

from __future__ import annotations

from itertools import combinations, product


def classify_pairs(n: int, pairs: set[tuple[int, int]]):
    """(reflexive, symmetric, transitive, serial) by literal quantifier loops."""
    reflexive = all((x, x) in pairs for x in range(n))
    symmetric = all(
        (y, x) in pairs for x in range(n) for y in range(n) if (x, y) in pairs
    )
    transitive = all(
        (x, z) in pairs
        for x, y, z in product(range(n), repeat=3)
        if (x, y) in pairs and (y, z) in pairs
    )
    serial = all(any((x, y) in pairs for y in range(n)) for x in range(n))
    return reflexive, symmetric, transitive, serial


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
