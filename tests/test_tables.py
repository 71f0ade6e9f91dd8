"""Full table generation: shape, reference comparison, structural sanity
checks and scheduling-independent determinism."""

import hashlib
from pathlib import Path

import pytest

from rsklab import (
    InputError,
    Pairing,
    RelationClass,
    compare_with_reference,
    enumerate_relations,
    eval_property,
    generate_table,
    reference_grid,
    report_to_json,
    report_to_markdown,
)
from rsklab.tables import TABLE_CLASSES

# Reference cells that bounded search contradicts: each is a reference
# cross on a property that is in fact a theorem for the class, so no
# counterexample can exist at any size. Everything else must match.
FLAGGED_DUAL = {(14, "Rst"), (15, "Rt"), (15, "Rst"), (16, "Rst"), (19, "Rst"), (21, "Rst")}
FLAGGED_NONDUAL = {(14, "Rst"), (15, "Rt"), (15, "Rst"), (16, "Rst"), (19, "Rst")}


@pytest.fixture(scope="module")
def dual_report():
    return generate_table(Pairing.DUAL_SUCC, 3)


@pytest.fixture(scope="module")
def nondual_report():
    return generate_table(Pairing.NONDUAL, 3)


def _subclass_pairs():
    """(smaller, larger) class pairs: every n<=3 relation of the smaller
    class is a member of the larger one."""
    relations = [r for n in (1, 2, 3) for r in enumerate_relations(n)]
    members = {
        cls: {i for i, r in enumerate(relations) if cls.contains(r)}
        for cls in TABLE_CLASSES
    }
    return [
        (small, large)
        for small in TABLE_CLASSES
        for large in TABLE_CLASSES
        if small is not large and members[small] <= members[large]
    ]


class TestShape:
    def test_dimensions_and_order(self, dual_report):
        assert len(dual_report.cells) == 23 * 9
        seen = [(v.row, v.relation_class) for v in dual_report.cells]
        expected = [(row, cls) for row in range(1, 24) for cls in TABLE_CLASSES]
        assert seen == expected

    def test_cell_accessor(self, dual_report):
        verdict = dual_report.cell(18, RelationClass.Rt)
        assert verdict.row == 18 and verdict.relation_class is RelationClass.Rt

    def test_rejects_other_pairings(self):
        with pytest.raises(InputError):
            generate_table(Pairing.MIRROR_NONDUAL, 2)
        with pytest.raises(InputError):
            generate_table(Pairing.PAWLAK, 2)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(InputError):
            generate_table(Pairing.DUAL_SUCC, 1, workers=workers)

    def test_vacuous_bound(self):
        report = generate_table(Pairing.DUAL_SUCC, 0)
        assert all(v.status == "verified" and v.bound == 0 for v in report.cells)


class TestReferenceComparison:
    def test_dual_divergence_is_exactly_the_flagged_set(self, dual_report):
        mismatches = compare_with_reference(dual_report)
        assert {(row, cls.value) for row, cls, _, _ in mismatches} == FLAGGED_DUAL
        assert all(tick is False and status == "verified" for _, _, tick, status in mismatches)

    def test_nondual_divergence_is_exactly_the_flagged_set(self, nondual_report):
        mismatches = compare_with_reference(nondual_report)
        assert {(row, cls.value) for row, cls, _, _ in mismatches} == FLAGGED_NONDUAL
        assert all(tick is False and status == "verified" for _, _, tick, status in mismatches)

    def test_every_matching_cross_has_a_replayable_witness(self, nondual_report):
        grid = reference_grid(Pairing.NONDUAL)
        for verdict in nondual_report.cells:
            if grid[(verdict.row, verdict.relation_class)]:
                continue
            if (verdict.row, verdict.relation_class.value) in FLAGGED_NONDUAL:
                continue
            cex = verdict.counterexample
            assert cex is not None
            assert verdict.relation_class.contains(cex.relation)
            assert not eval_property(
                verdict.row, Pairing.NONDUAL, cex.relation, cex.x, cex.y
            )

    def test_reference_grid_only_for_table_pairings(self):
        with pytest.raises(InputError):
            reference_grid(Pairing.PAWLAK)


class TestStructuralInvariants:
    def test_column_monotonicity(self, dual_report, nondual_report):
        # a property verified for a class is verified for every subclass
        pairs = _subclass_pairs()
        for report in (dual_report, nondual_report):
            for row in range(1, 24):
                for small, large in pairs:
                    if not report.cell(row, large).refuted:
                        assert not report.cell(row, small).refuted, (
                            report.pairing,
                            row,
                            small,
                            large,
                        )

    def test_row6_verified_implies_row14_verified(self, dual_report, nondual_report):
        for report in (dual_report, nondual_report):
            for cls in TABLE_CLASSES:
                if not report.cell(6, cls).refuted:
                    assert not report.cell(14, cls).refuted


class TestDeterminism:
    def test_worker_count_does_not_change_bytes(self, nondual_report):
        parallel = generate_table(Pairing.NONDUAL, 3, workers=2)
        assert report_to_json(parallel) == report_to_json(nondual_report)

    def test_repeat_run_is_byte_identical(self, dual_report):
        again = generate_table(Pairing.DUAL_SUCC, 3)
        assert report_to_json(again) == report_to_json(dual_report)

    def test_pool_is_capped_at_one_worker_per_column(self, monkeypatch):
        # a stand-in executor that records its size and maps in-process, so
        # no pool is ever started with the large value
        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlineExecutor)
        report = generate_table(Pairing.DUAL_SUCC, 2, workers=64)
        assert sizes == [len(TABLE_CLASSES)] == [9]
        assert report_to_json(report) == report_to_json(
            generate_table(Pairing.DUAL_SUCC, 2)
        )


GOLDEN = Path(__file__).parent / "golden"

# sha256 of the n<=4 table JSON of each pairing.
N4_SHA256 = {
    Pairing.DUAL_SUCC: "194bc2f28592765fcab97327ddc9eaf4e894e33b8115fe4cf09c92309f972fc5",
    Pairing.NONDUAL: "c4cc2ca5473c4c8ef88a8c663efeff16023ada2548c22052c5e1e2fa9d453467",
}


class TestGoldenBytes:
    """The n<=3 table JSON, checked in byte for byte, and the n<=4 one by
    its sha256; any change to a verdict, a witness or the serialization
    shows up here."""

    def test_dual(self, dual_report):
        golden = (GOLDEN / "table_dual_n3.json").read_text(encoding="utf-8")
        assert report_to_json(dual_report) == golden

    def test_nondual(self, nondual_report):
        golden = (GOLDEN / "table_nondual_n3.json").read_text(encoding="utf-8")
        assert report_to_json(nondual_report) == golden

    @pytest.mark.parametrize("pairing", list(N4_SHA256))
    def test_n4_sha256(self, pairing):
        text = report_to_json(generate_table(pairing, 4))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == N4_SHA256[pairing]


class TestRendering:
    def test_json_round_trippable_and_complete(self, nondual_report):
        import json

        obj = json.loads(report_to_json(nondual_report))
        assert obj["pairing"] == "nondual" and obj["bound"] == 3
        assert len(obj["cells"]) == 207
        refuted = [c for c in obj["cells"] if c["status"] == "refuted"]
        assert refuted and all("counterexample" in c for c in refuted)

    def test_markdown_mirrors_the_grid(self, nondual_report):
        text = report_to_markdown(nondual_report)
        lines = text.splitlines()
        header = lines[2]
        assert header.split("|")[3].strip() == "R"
        # row 22 is verified for every class under the nondual pairing
        row22 = next(line for line in lines if line.startswith("| 22 |"))
        assert "✗" not in row22
        # row 1 has the symmetric-classes-only tick pattern
        row1 = next(line for line in lines if line.startswith("| 1 |"))
        marks = [c.strip() for c in row1.split("|")[3:-1]]
        assert marks == ["✗", "✗", "✓", "✗", "✓", "✗", "✓", "✓", "✗"]
