"""Full 23x9 verdict tables and the reference tick patterns they reproduce.

``generate_table`` populates every (property row, relation class) cell by
bounded-exhaustive search. A tick in the reference grid is reproduced as
a ``verified``-up-to-bound verdict, a cross as a ``refuted`` verdict with
a stored, replayable minimal counterexample.

The reference grids below are the published tick patterns for the dual
and the non-dual pairing, transcribed column order
R, Rr, Rs, Rt, Rrs, Rrt, Rst, Rrst, Rser. Exhaustive search disagrees
with a handful of reference crosses (all in rows 14-21, columns Rt/Rst)
that are in fact theorems for those classes; ``compare_with_reference``
reports every such cell rather than silently assuming either side is
right.

Cells are independent, so table generation can fan out across worker
processes; verdict minimality is defined by the canonical scan order, so
reports are byte-identical for every worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

from .errors import InputError
from .io import dump_json
from .operators import Pairing
from .properties import PROPERTY_ROWS, PropertyVerdict, class_verdicts
from .relations import RelationClass, check_capacity

TABLE_CLASSES: tuple[RelationClass, ...] = tuple(RelationClass)

# "+" tick / "-" cross, one char per class column.
REFERENCE_DUAL: dict[int, str] = {
    1: "+++++++++",
    2: "-+--++-++",
    3: "+++++++++",
    4: "+++++++++",
    5: "-+--++-++",
    6: "-+--++-+-",
    7: "-+--++-+-",
    8: "+++++++++",
    9: "+++++++++",
    10: "+++++++++",
    11: "+++++++++",
    12: "+++++++++",
    13: "+++++++++",
    14: "-+--++-+-",
    15: "-----+-+-",
    16: "-------+-",
    17: "-+--++-+-",
    18: "---+-+++-",
    19: "-+--++-+-",
    20: "-+--++-+-",
    21: "-------+-",
    22: "--+-+-++-",
    23: "--+-+-++-",
}

REFERENCE_NONDUAL: dict[int, str] = {
    1: "--+-+-++-",
    2: "-+--++-++",
    3: "+++++++++",
    4: "+++++++++",
    5: "-+--++-+-",
    6: "-+--++-+-",
    7: "-+--++-+-",
    8: "+++++++++",
    9: "+++++++++",
    10: "+++++++++",
    11: "+++++++++",
    12: "+++++++++",
    13: "+++++++++",
    14: "-+--++-+-",
    15: "-----+-+-",
    16: "---+-+-+-",
    17: "-+--++-+-",
    18: "---+-+++-",
    19: "-+--++-+-",
    20: "-+--++-+-",
    21: "---+-+++-",
    22: "+++++++++",
    23: "+++++++++",
}


def reference_grid(pairing: Pairing) -> dict[tuple[int, RelationClass], bool]:
    """Reference ticks as ``(row, class) -> bool``."""
    if pairing is Pairing.DUAL_SUCC:
        raw = REFERENCE_DUAL
    elif pairing is Pairing.NONDUAL:
        raw = REFERENCE_NONDUAL
    else:
        raise InputError("reference grids exist for the dual and nondual pairings")
    return {
        (row, cls): raw[row][i] == "+"
        for row in range(1, 24)
        for i, cls in enumerate(TABLE_CLASSES)
    }


@dataclass(frozen=True)
class TableReport:
    """All 207 cell verdicts for one pairing, searched up to one bound."""

    pairing: Pairing
    bound: int
    cells: tuple[PropertyVerdict, ...]

    def cell(self, row: int, relation_class: RelationClass) -> PropertyVerdict:
        column = TABLE_CLASSES.index(relation_class)
        return self.cells[(row - 1) * len(TABLE_CLASSES) + column]


def generate_table(
    pairing: Pairing,
    max_n: int,
    *,
    workers: int = 1,
) -> TableReport:
    """Populate the full 23x9 table for the dual or non-dual pairing."""
    if pairing not in (Pairing.DUAL_SUCC, Pairing.NONDUAL):
        raise InputError("tables are generated for the dual and nondual pairings")
    if workers < 1:
        raise InputError(f"workers must be at least 1, got {workers}")
    check_capacity(max_n)
    jobs = (repeat(pairing), TABLE_CLASSES, repeat(max_n))
    if workers > 1:
        # one job per column; a larger pool would only start idle processes
        with ProcessPoolExecutor(max_workers=min(workers, len(TABLE_CLASSES))) as pool:
            columns = list(pool.map(class_verdicts, *jobs))
    else:
        columns = list(map(class_verdicts, *jobs))
    cells = []
    for row_index in range(23):
        for column in columns:
            cells.append(column[row_index])
    return TableReport(pairing, max_n, tuple(cells))


def compare_with_reference(
    report: TableReport,
) -> list[tuple[int, RelationClass, bool, str]]:
    """Cells where the computed verdict contradicts the reference grid.

    Each entry is ``(row, class, reference_tick, computed_status)``. An
    empty list means the report reproduces the reference pattern exactly.
    """
    grid = reference_grid(report.pairing)
    mismatches = []
    for verdict in report.cells:
        tick = grid[(verdict.row, verdict.relation_class)]
        if tick == verdict.refuted:
            mismatches.append(
                (verdict.row, verdict.relation_class, tick, verdict.status)
            )
    return mismatches


def verdict_to_obj(verdict: PropertyVerdict) -> dict:
    """The JSON object of one cell verdict; the only verdict serializer."""
    obj: dict = {
        "row": verdict.row,
        "class": verdict.relation_class.value,
        "status": verdict.status,
        "bound": verdict.bound,
    }
    cex = verdict.counterexample
    if cex is not None:
        relation = {
            "size": cex.relation.universe.size,
            "pairs": [list(pair) for pair in cex.relation.pairs()],
        }
        obj["counterexample"] = {"relation": relation, "x": list(cex.x.members())}
        if cex.y is not None:
            obj["counterexample"]["y"] = list(cex.y.members())
    return obj


def report_to_json(report: TableReport) -> str:
    obj = {
        "pairing": report.pairing.value,
        "bound": report.bound,
        "cells": [verdict_to_obj(v) for v in report.cells],
    }
    return dump_json(obj)


def report_to_markdown(report: TableReport) -> str:
    """Tick/cross grid laid out like the reference tables."""
    header = "| # | Property | " + " | ".join(c.value for c in TABLE_CLASSES) + " |"
    rule = "|---|---|" + "---|" * len(TABLE_CLASSES)
    lines = [
        f"Verdicts for the {report.pairing.value} pairing,"
        f" all relations up to n={report.bound}.",
        "",
        header,
        rule,
    ]
    for row in PROPERTY_ROWS:
        marks = []
        for cls in TABLE_CLASSES:
            verdict = report.cell(row.index, cls)
            marks.append("✗" if verdict.refuted else "✓")
        lines.append(f"| {row.index} | {row.label} | " + " | ".join(marks) + " |")
    return "\n".join(lines) + "\n"
