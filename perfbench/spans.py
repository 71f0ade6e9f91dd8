"""Spans around public rsklab calls, the traced replays, and per-layer metrics.

The traced run does not instrument the library. It replays a workload's
inner loop through public functions, wrapping every call in a span
(name, start, end, parent). A span's self time is its duration minus the
durations of its children. Counts (encodings visited, class members,
assignments) are recorded where the replay does the work, and are exact:
they follow from class sizes and witness positions.

``replay_scan`` mirrors ``scan_class_failures``: for each size it walks
``enumerate_relations`` (the filter, whose cost is the enumerate span's
self time), tabulates the operators once per member and checks every
still-pending row with ``check_relation``. Its verdicts must equal the
library's own scan; a difference is reported as a replay problem.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import time
from collections import Counter

from workloads import CHARACTERIZATION_IDS, failure_of

_NULL = contextlib.nullcontext()
CHECK_SAMPLE = 4  # relations, coverings and frames per check replay


class Tracer:
    """Spans kept in memory; ``enabled=False`` records counts only."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, attrs]
        self.counts: Counter = Counter()
        self.problems: list[str] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        return self._span(name, attrs) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str, attrs: dict):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0, 0, parent, attrs]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def durations(self, name: str, **attrs) -> list[int]:
        return [
            s[2] - s[1] for s in self.spans
            if s[0] == name and all(s[4].get(k) == v for k, v in attrs.items())
        ]

    def self_time_ns(self, name: str) -> int:
        child_ns = Counter()
        for s in self.spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        return sum(
            s[2] - s[1] - child_ns[i] for i, s in enumerate(self.spans) if s[0] == name
        )


def _cli(tr: Tracer, argv: list[str]) -> int:
    from rsklab.cli import build_parser, main

    with tr.span("cli.parse"):
        build_parser().parse_args(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with tr.span("cli.main"):
            return main(argv)


def replay_scan(tr: Tracer, pairing, relation_class, max_n: int, rows) -> dict:
    """``scan_class_failures`` through public calls: ``row -> (n, enc, x, y)``."""
    from rsklab import check_relation, enumerate_relations, property_row
    from rsklab.operators import approx_tables

    pending = list(rows)
    found: dict = {}
    for n in range(1, max_n + 1):
        if not pending:
            break
        visited = 1 << (n * n)
        members = 0
        with tr.span("relations.enumerate", n=n):
            for relation in enumerate_relations(n, relation_class):
                members += 1
                with tr.span("operators.approx_tables", n=n):
                    approx_tables(n, relation.rows)
                for index in list(pending):
                    two_set = property_row(index).two_set
                    with tr.span("properties.check_relation", n=n, two_set=two_set):
                        result = check_relation(index, pairing, relation)
                    per_set = 1 << n
                    if result.holds:
                        tr.counts["properties.assignments"] += per_set ** (2 if two_set else 1)
                        continue
                    x, y = result.x.bits, None if result.y is None else result.y.bits
                    tr.counts["properties.assignments"] += (
                        x * per_set + y + 1 if two_set else x + 1)
                    found[index] = (n, relation.encoding, x, y)
                    pending.remove(index)
                if not pending:
                    visited = relation.encoding + 1
                    break
        tr.counts["relations.encodings_visited"] += visited
        tr.counts["relations.class_members"] += members
    return found


# ---------------------------------------------------------------- replays


def replay_table(files: dict, tr: Tracer) -> None:
    from rsklab import Pairing, RelationClass, generate_table, report_to_json
    from rsklab.operators import approx_tables
    from rsklab.properties import scan_class_failures

    pairing, max_n = Pairing.DUAL_SUCC, files["max_n"]
    for cls in RelationClass:
        with tr.span("tables.column", cls=cls.value):
            failures = scan_class_failures(pairing, cls, max_n, range(1, 24))
        if replay_scan(tr, pairing, cls, max_n, range(1, 24)) != failures:
            tr.problems.append(f"table replay disagrees with the scan in column {cls.value}")
    with tr.span("tables.generate"):
        report = generate_table(pairing, max_n, workers=1)
    with tr.span("tables.serialize"):
        report_to_json(report)
    # the n<=4 table spends its operator time at n=4: a seeded sample of it
    rng = random.Random(files["seed"])
    for _ in range(64):
        rows = [rng.getrandbits(4) for _ in range(4)]
        with tr.span("operators.approx_tables", n=4):
            approx_tables(4, rows)


def replay_search(files: dict, tr: Tracer) -> None:
    from rsklab import Pairing, RelationClass, search_class

    max_n = files["max_n"]
    for row, pairing_name, cls_name in files["cells"]:
        pairing, cls = Pairing(pairing_name), RelationClass(cls_name)
        with tr.span("properties.search_cell"):
            verdict = search_class(row, pairing, cls, max_n)
        found = replay_scan(tr, pairing, cls, max_n, [row]).get(row)
        if found != failure_of(verdict.counterexample):
            tr.problems.append(f"search replay disagrees on ({row},{pairing_name},{cls_name})")
        _cli(tr, ["counterexample", "--row", str(row), "--pairing", pairing_name,
                  "--class", cls_name, "--max-n", str(max_n)])


def replay_check(files: dict, tr: Tracer) -> None:
    from rsklab import (Characterization, Pairing, Subset, check_biconditional,
                        check_relation, classify, ct_lower, ct_upper,
                        deductive_closure, is_theory, largest_theory_within, lower,
                        proof_witness, upper, verify_reduction)
    from rsklab.coverings import definable_masks
    from rsklab.io import load_covering, load_frame, load_relation, load_subset
    from rsklab.operators import approx_tables

    rng = random.Random(files["seed"])
    for rel_path, set_path in rng.sample(files["relations"], CHECK_SAMPLE):
        with tr.span("io.load", kind="relation"):
            relation = load_relation(rel_path)
        with tr.span("io.load", kind="set"):
            x_set = load_subset(set_path, relation.universe)
        n = relation.universe.size
        with tr.span("relations.classify"):
            classify(relation)
        with tr.span("operators.approx_tables", n=n):
            approx_tables(n, relation.rows)
        for pairing in (Pairing.DUAL_SUCC, Pairing.NONDUAL):
            for op in (lower, upper):
                with tr.span("operators.lower_upper"):
                    op(pairing, relation, x_set)
        for cid in CHARACTERIZATION_IDS:
            c = Characterization(cid)
            with tr.span("characterizations.biconditional"):
                record = check_biconditional(c, relation)
            if not record.class_holds:
                with tr.span("characterizations.witness"):
                    proof_witness(c, relation)
        for pairing in (Pairing.DUAL_SUCC, Pairing.NONDUAL):
            for row in range(1, 24):
                with tr.span("properties.check_relation", n=n, two_set=8 <= row <= 13):
                    check_relation(row, pairing, relation)
        _cli(tr, ["classify", "--relation", rel_path])
        _cli(tr, ["approx", "--pairing", "dual", "--op", "upper",
                  "--relation", rel_path, "--set", set_path])
        _cli(tr, ["characterize", "--id", "preorder", "--relation", rel_path])
        _cli(tr, ["check", "--row", "10", "--pairing", "dual", "--relation", rel_path])
        _cli(tr, ["check", "--row", "18", "--pairing", "nondual", "--relation", rel_path])
    for path in rng.sample(files["coverings"], CHECK_SAMPLE):
        with tr.span("io.load", kind="covering"):
            covering = load_covering(path)
        with tr.span("coverings.verify_reduction"):
            verify_reduction(covering)
        with tr.span("coverings.definable_masks"):
            family = definable_masks(covering)
        tr.counts["coverings.definable_size"] += len(family)
        tr.counts["coverings.sampled"] += 1
        universe = covering.universe
        for bits in range(universe.full_mask + 1):
            x_set = Subset(universe, bits)
            with tr.span("coverings.ct_lower"):
                ct_lower(covering, x_set)
            with tr.span("coverings.ct_upper"):
                ct_upper(covering, x_set)
        _cli(tr, ["covering", "--covering", path])
    for frame_path, set_path in rng.sample(files["frames"], CHECK_SAMPLE):
        with tr.span("io.load", kind="frame"):
            frame = load_frame(frame_path)
        p_set = load_subset(set_path, frame.propositions)
        with tr.span("logic.closure"):
            closure = deductive_closure(frame, p_set)
        if not (is_theory(frame, closure)
                and is_theory(frame, largest_theory_within(frame, p_set))):
            tr.problems.append(f"logic replay: closure or interior of {frame_path} not a theory")
        _cli(tr, ["logic", "--frame", frame_path, "--set", set_path])


REPLAYS = {"table": replay_table, "search": replay_search, "check": replay_check}


# ---------------------------------------------------------------- metrics


def _median_us(ns: list[int]) -> float | None:
    return statistics.median(ns) / 1e3 if ns else None


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one replay pass; absent where the replay has no spans."""
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value, unit: str) -> None:
        if value is not None:
            out[name] = (value, unit)

    c = tr.counts
    if tr.durations("relations.enumerate"):
        put("relations.filter_s", tr.self_time_ns("relations.enumerate") / 1e9, "s")
        put("relations.encodings_visited", c["relations.encodings_visited"], "count")
        put("relations.class_members", c["relations.class_members"], "count")
        put("relations.class_yield",
            c["relations.class_members"] / c["relations.encodings_visited"], "ratio")
    put("relations.classify_us", _median_us(tr.durations("relations.classify")), "us")

    approx_us = {}
    for n in (3, 4, 5):
        approx_us[n] = _median_us(tr.durations("operators.approx_tables", n=n))
        put(f"operators.approx_tables_us.n{n}", approx_us[n], "us")
    put("operators.lower_upper_us", _median_us(tr.durations("operators.lower_upper")), "us")

    # check_relation builds the operator tables once per call: take that share out
    for kind, two_set in (("one_set", False), ("two_set", True)):
        total_ns = 0.0
        seen = False
        for n in range(1, 6):
            ns = tr.durations("properties.check_relation", n=n, two_set=two_set)
            if not ns:
                continue
            seen = True
            tables_ns = statistics.median(
                tr.durations("operators.approx_tables", n=n) or [0])
            total_ns += sum(ns) - len(ns) * tables_ns
        if seen:
            put(f"properties.{kind}_s", total_ns / 1e9, "s")
    if "properties.assignments" in c:
        put("properties.assignments", c["properties.assignments"], "count")
    cells = tr.durations("properties.search_cell")
    if cells:
        put("properties.search_cell_s", sum(cells) / 1e9, "s")

    columns = {}
    for s in tr.spans:
        if s[0] == "tables.column":
            columns[s[4]["cls"]] = (s[2] - s[1]) / 1e9
    for cls, seconds in columns.items():
        put(f"tables.column_s.{cls}", seconds, "s")
    if columns:
        put("tables.critical_path_share", max(columns.values()) / sum(columns.values()),
            "ratio")
    serialize = tr.durations("tables.serialize")
    if serialize:
        put("tables.serialize_ms", statistics.median(serialize) / 1e6, "ms")

    put("characterizations.biconditional_us",
        _median_us(tr.durations("characterizations.biconditional")), "us")
    put("characterizations.witness_us",
        _median_us(tr.durations("characterizations.witness")), "us")

    reduction = tr.durations("coverings.verify_reduction")
    if reduction:
        put("coverings.verify_reduction_ms", statistics.median(reduction) / 1e6, "ms")
    for name in ("ct_upper", "ct_lower", "definable_masks"):
        put(f"coverings.{name}_us", _median_us(tr.durations(f"coverings.{name}")), "us")
    if c["coverings.sampled"]:
        put("coverings.definable_size",
            c["coverings.definable_size"] / c["coverings.sampled"], "count")

    for kind in ("relation", "set", "covering", "frame"):
        put(f"io.load_us.{kind}", _median_us(tr.durations("io.load", kind=kind)), "us")
    parse = tr.durations("cli.parse")
    put("cli.parse_us", _median_us(parse), "us")
    if parse:
        put("cli.overhead_share", sum(parse) / sum(tr.durations("cli.main")), "ratio")
    put("logic.closure_us", _median_us(tr.durations("logic.closure")), "us")
    return out
