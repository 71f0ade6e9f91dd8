"""Acceptance suite: one test per criterion, one pass/fail line each.

Criteria:
  1. dual-pairing table reproduced at n<=3 (minimal replayable witnesses)
  2. non-dual table reproduced at n<=3, with the pinned row-1/22/23 cells
  3. all eight characterizations consistent, exhaustively at n=3 and on
     10,000 seeded random relations at n=5; witnesses always refute
  4. the twelve classical equivalence-relation properties hold under all
     three operator families at n=4, and the families coincide pointwise
  5. covering reduction: every covering at n<=3 and 500 seeded random
     coverings at n=5 induce a pre-order, reduce to the non-dual pair,
     and satisfy every pre-order-column row
  6. union form and adjunction identities, exhaustively at n<=3
  7. closure/interior operator laws over every pre-order frame at n<=3
  8. table generation is byte-identical across worker counts

The two reference grids carry a handful of crossed cells that are in
fact theorems for their class (all in rows 14-21, columns Rt/Rst); no
counterexample can exist for those, so reproduction there means the
search verifies the cell and flags the disagreement. The flagged sets
below are additionally confirmed one or two sizes further out in
criteria 1 and 2: the Rst cells at n<=5, the Rt cell at n<=4.
"""

import random
import time

from rsklab import (
    Characterization,
    Covering,
    ImplicationFrame,
    Pairing,
    RelationClass,
    Subset,
    Universe,
    check_biconditional,
    classify,
    compare_with_reference,
    ct_lower,
    ct_upper,
    deductive_closure,
    enumerate_coverings,
    enumerate_relations,
    eval_property,
    generate_table,
    induced_relation,
    is_theory,
    largest_theory_within,
    lower,
    proof_witness,
    reference_grid,
    report_to_json,
    upper,
    verify_reduction,
)
from rsklab.characterizations import characterization_pairing, characterization_rows
from rsklab.operators import approx_tables
from rsklab.properties import PROPERTY_ROWS
from rsklab.relations import BinaryRelation, rows_from_encoding
from rsklab.tables import REFERENCE_NONDUAL, TABLE_CLASSES

FLAGGED = {
    Pairing.DUAL_SUCC: {
        (14, RelationClass.Rst),
        (15, RelationClass.Rt),
        (15, RelationClass.Rst),
        (16, RelationClass.Rst),
        (19, RelationClass.Rst),
        (21, RelationClass.Rst),
    },
    Pairing.NONDUAL: {
        (14, RelationClass.Rst),
        (15, RelationClass.Rt),
        (15, RelationClass.Rst),
        (16, RelationClass.Rst),
        (19, RelationClass.Rst),
    },
}

# Size up to which each flagged column is re-confirmed. Rst has 203
# members at n=5 and takes milliseconds; Rt has 154,303 and takes seconds.
CONFIRM_N = {RelationClass.Rst: 5, RelationClass.Rt: 4}

RELATION_SEED = 20260810
COVERING_SEED = 20260811


def _verdict_line(number: int, ok: bool, message: str) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {message}")
    return ok


def _reproduce_table(pairing: Pairing) -> tuple[bool, str, float]:
    started = time.perf_counter()
    report = generate_table(pairing, 3)
    elapsed = time.perf_counter() - started
    grid = reference_grid(pairing)
    flagged = FLAGGED[pairing]

    mismatch = {
        (row, cls): (tick, status)
        for row, cls, tick, status in compare_with_reference(report)
    }
    problems = []
    if set(mismatch) != flagged:
        problems.append(f"unexpected divergence set {sorted(mismatch)}")
    for (row, cls), (tick, status) in mismatch.items():
        if tick or status != "verified":
            problems.append(f"flagged cell ({row},{cls.value}) not a verified cross")

    # flagged reference crosses stay verified further out
    from rsklab.properties import scan_class_failures

    for cls in {cls for _, cls in flagged}:
        rows = [row for row, c in flagged if c is cls]
        max_n = CONFIRM_N[cls]
        if scan_class_failures(pairing, cls, max_n, rows):
            problems.append(f"flagged cells for {cls.value} refuted at n={max_n}")

    for verdict in report.cells:
        key = (verdict.row, verdict.relation_class)
        expected_tick = grid[key]
        if key in mismatch:
            continue
        if expected_tick:
            if verdict.refuted:
                problems.append(f"cell {key} refuted but reference ticks it")
            continue
        cex = verdict.counterexample
        if cex is None:
            problems.append(f"cell {key} has no stored witness")
            continue
        if not verdict.relation_class.contains(cex.relation):
            problems.append(f"cell {key} witness outside the class")
        if eval_property(verdict.row, pairing, cex.relation, cex.x, cex.y):
            problems.append(f"cell {key} witness does not replay")

    message = (
        f"{207 - len(mismatch)}/207 cells match, {len(mismatch)} flagged reference"
        f" crosses verified (stable at n=5 for Rst, n=4 for Rt),"
        f" all crosses replayable,"
        f" {elapsed:.1f}s"
    )
    if problems:
        message = "; ".join(problems)
    return not problems, message, elapsed


def test_criterion_1_dual_table_reproduction():
    ok, message, elapsed = _reproduce_table(Pairing.DUAL_SUCC)
    ok = ok and elapsed < 60
    assert _verdict_line(1, ok, message)


def test_criterion_2_nondual_table_reproduction():
    ok, message, elapsed = _reproduce_table(Pairing.NONDUAL)
    report = generate_table(Pairing.NONDUAL, 3)
    refuted_row1 = {
        cls.value for cls in TABLE_CLASSES if report.cell(1, cls).refuted
    }
    pinned = refuted_row1 == {"R", "Rr", "Rt", "Rrt", "Rser"}
    rows_22_23 = all(
        not report.cell(row, cls).refuted
        for row in (22, 23)
        for cls in TABLE_CLASSES
    )
    ok = ok and pinned and rows_22_23 and elapsed < 60
    assert _verdict_line(
        2, ok, message + f"; row-1 pattern {sorted(refuted_row1)}, rows 22-23 verified"
    )


def _conjunction_holds_at(c, lo, up, full, bits) -> bool:
    return all(
        PROPERTY_ROWS[row - 1].evaluate(lo, up, full, bits, 0)
        for row in characterization_rows(c)
    )


def _check_characterizations(relation: BinaryRelation) -> list[str]:
    problems = []
    n = relation.universe.size
    full = relation.universe.full_mask
    flags = classify(relation)
    for c in Characterization:
        record = check_biconditional(c, relation)
        if not record.consistent:
            problems.append(f"{c.value} inconsistent on {relation!r}")
        if not record.class_holds:
            lo, up = approx_tables(n, relation.rows, characterization_pairing(c))
            witness = proof_witness(c, relation)
            if _conjunction_holds_at(c, lo, up, full, witness.bits):
                problems.append(f"{c.value} witness fails to refute on {relation!r}")
    return problems


def test_criterion_3_characterization_suite():
    problems = []
    for n in (1, 2, 3):
        universe = Universe(n)
        for encoding in range(1 << n * n):
            problems += _check_characterizations(
                BinaryRelation.from_encoding(universe, encoding)
            )
    rng = random.Random(RELATION_SEED)
    universe = Universe(5)
    for _ in range(10_000):
        relation = BinaryRelation.from_encoding(universe, rng.getrandbits(25))
        problems += _check_characterizations(relation)
    ok = not problems
    message = (
        "8 characterizations consistent on 584 exhaustive relations (n<=3)"
        " and 10000 seeded relations (n=5); witnesses refute"
        if ok
        else "; ".join(problems[:5])
    )
    assert _verdict_line(3, ok, message)


def _twelve_classical_properties(lo, up, full) -> bool:
    size = full + 1
    comp = lambda m: full & ~m
    for x in range(size):
        if lo[x] & ~x or x & ~up[x]:  # 1
            return False
        if lo[comp(x)] != comp(up[x]) or up[comp(x)] != comp(lo[x]):  # 9, 10
            return False
        if not (lo[lo[x]] == up[lo[x]] == lo[x]):  # 11
            return False
        if not (up[up[x]] == lo[up[x]] == up[x]):  # 12
            return False
        for y in range(size):
            if up[x | y] != up[x] | up[y]:  # 3
                return False
            if lo[x & y] != lo[x] & lo[y]:  # 4
                return False
            if not x & ~y:  # 5, 6
                if lo[x] & ~lo[y] or up[x] & ~up[y]:
                    return False
            if (lo[x] | lo[y]) & ~lo[x | y]:  # 7
                return False
            if up[x & y] & ~(up[x] & up[y]):  # 8
                return False
    return lo[0] == up[0] == 0 and lo[full] == up[full] == full  # 2


def test_criterion_4_pawlak_regression():
    problems = []
    count = 0
    universe = Universe(4)
    full = universe.full_mask
    for relation in enumerate_relations(4, RelationClass.Rrst):
        count += 1
        per_pairing = {}
        for pairing in (Pairing.PAWLAK, Pairing.DUAL_SUCC, Pairing.NONDUAL):
            lo, up = approx_tables(4, relation.rows, pairing)
            per_pairing[pairing] = (tuple(lo), tuple(up))
            if not _twelve_classical_properties(lo, up, full):
                problems.append(f"{pairing.value} breaks a classical law on {relation!r}")
        if len(set(per_pairing.values())) != 1:
            problems.append(f"operator families disagree on {relation!r}")
    ok = not problems and count == 15
    message = (
        f"twelve classical laws hold and all three families coincide on"
        f" {count} equivalence relations at n=4"
        if ok
        else "; ".join(problems[:5]) or f"expected 15 equivalences, saw {count}"
    )
    assert _verdict_line(4, ok, message)


def _random_covering(rng: random.Random, n: int) -> Covering:
    universe = Universe(n)
    full = universe.full_mask
    while True:
        masks = [rng.randint(1, full) for _ in range(rng.randint(1, 2 * n))]
        union = 0
        for mask in masks:
            union |= mask
        if union == full:
            return Covering.from_masks(universe, masks)


def _covering_problems(covering: Covering, ticked_rows) -> list[str]:
    problems = []
    if not classify(induced_relation(covering)).preorder:
        problems.append(f"induced relation not a pre-order for {covering}")
    if not verify_reduction(covering):
        problems.append(f"reduction fails for {covering}")
    universe = covering.universe
    full = universe.full_mask
    lo = [ct_lower(covering, Subset(universe, m)).bits for m in range(full + 1)]
    up = [ct_upper(covering, Subset(universe, m)).bits for m in range(full + 1)]
    for index in ticked_rows:
        row = PROPERTY_ROWS[index - 1]
        assignments = (
            ((x, y) for x in range(full + 1) for y in range(full + 1))
            if row.two_set
            else ((x, 0) for x in range(full + 1))
        )
        if not all(row.evaluate(lo, up, full, x, y) for x, y in assignments):
            problems.append(f"covering operators break row {index} on {covering}")
    return problems


def test_criterion_5_covering_reduction(monkeypatch):
    monkeypatch.setenv("RSK_MAX_N", "5")
    started = time.perf_counter()
    rrt = TABLE_CLASSES.index(RelationClass.Rrt)
    ticked = [row for row in range(1, 24) if REFERENCE_NONDUAL[row][rrt] == "+"]
    problems = []
    total = 0
    for n in (0, 1, 2, 3):
        for covering in enumerate_coverings(n):
            total += 1
            problems += _covering_problems(covering, ticked)
    rng = random.Random(COVERING_SEED)
    for _ in range(500):
        covering = _random_covering(rng, 5)
        problems += _covering_problems(covering, ticked)
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 300
    message = (
        f"{total} exhaustive coverings (n<=3) + 500 seeded coverings (n=5):"
        f" pre-order, reduction and all {len(ticked)} pre-order-column rows hold,"
        f" {elapsed:.1f}s"
        if not problems
        else "; ".join(problems[:5])
    )
    assert _verdict_line(5, ok, message)


def test_criterion_6_union_form_and_adjunction():
    problems = []
    for n in (1, 2, 3):
        universe = Universe(n)
        full = universe.full_mask
        for encoding in range(1 << n * n):
            rows = rows_from_encoding(n, encoding)
            relation = BinaryRelation(universe, rows)
            for x_bits in range(full + 1):
                x_set = Subset(universe, x_bits)
                union = 0
                for x in range(n):
                    if x_bits >> x & 1:
                        union |= rows[x]
                image = upper(Pairing.NONDUAL, relation, x_set)
                if image.bits != union:
                    problems.append(f"union form fails on {relation!r} at {x_set!r}")
                for y_bits in range(full + 1):
                    y_set = Subset(universe, y_bits)
                    left = image <= y_set
                    right = x_set <= lower(Pairing.NONDUAL, relation, y_set)
                    if left != right:
                        problems.append(
                            f"adjunction fails on {relation!r} at {x_set!r},{y_set!r}"
                        )
    ok = not problems
    message = (
        "upper(nondual) equals the successor union and the adjunction holds,"
        " all relations n<=3, all subset pairs"
        if ok
        else "; ".join(problems[:5])
    )
    assert _verdict_line(6, ok, message)


def test_criterion_7_logic_demo():
    problems = []
    frames = 0
    for n in (1, 2, 3):
        universe = Universe(n)
        for relation in enumerate_relations(n, RelationClass.Rrt):
            frames += 1
            frame = ImplicationFrame(universe, relation)
            if frame.implies != relation:
                problems.append(f"closure moved a pre-order {relation!r}")
            closures = {}
            interiors = {}
            for bits in range(universe.full_mask + 1):
                x = Subset(universe, bits)
                closures[bits] = deductive_closure(frame, x)
                interiors[bits] = largest_theory_within(frame, x)
            for bits in range(universe.full_mask + 1):
                x = Subset(universe, bits)
                cx, ix = closures[bits], interiors[bits]
                if not (x <= cx and ix <= x):
                    problems.append(f"extensivity/contractivity fails at {x!r}")
                if deductive_closure(frame, cx) != cx:
                    problems.append(f"closure not idempotent at {x!r}")
                if largest_theory_within(frame, ix) != ix:
                    problems.append(f"interior not idempotent at {x!r}")
                if not (is_theory(frame, cx) and is_theory(frame, ix)):
                    problems.append(f"non-theory output at {x!r}")
                for other in range(universe.full_mask + 1):
                    if bits & ~other:
                        continue
                    if not (closures[bits] <= closures[other]):
                        problems.append(f"closure not monotone at {bits},{other}")
                    if not (interiors[bits] <= interiors[other]):
                        problems.append(f"interior not monotone at {bits},{other}")
    ok = not problems
    message = (
        f"closure/interior laws hold on all {frames} pre-order frames (n<=3)"
        if ok
        else "; ".join(problems[:5])
    )
    assert _verdict_line(7, ok, message)


def test_criterion_8_determinism_across_workers():
    serial = report_to_json(generate_table(Pairing.DUAL_SUCC, 3, workers=1))
    parallel = report_to_json(generate_table(Pairing.DUAL_SUCC, 3, workers=3))
    ok = serial == parallel
    message = (
        f"byte-identical reports ({len(serial)} bytes) for 1 and 3 workers"
        if ok
        else "reports differ between worker counts"
    )
    assert _verdict_line(8, ok, message)
