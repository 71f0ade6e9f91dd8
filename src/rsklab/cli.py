"""Command-line front end.

Every subcommand is a thin wrapper over the library: parse files, call
one operation, serialize the result. Exit status 0 on
success/consistent/verified, 1 when a check is refuted or inconsistent
(the report is still printed), 2 on input errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as rio
from .characterizations import Characterization, check_biconditional
from .coverings import induced_relation, verify_reduction
from .errors import InputError, RskError
from .logic import deductive_closure, is_theory, largest_theory_within
from .operators import Pairing, lower, upper
from .properties import check_relation, search_class
from .relations import RelationClass, classify
from .tables import generate_table, report_to_json, report_to_markdown, verdict_to_obj


def _emit(text: str, output: str | None) -> None:
    if output is None:
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:
            raise InputError(
                f"stdout cannot encode the report as {exc.encoding}; use --output"
            ) from None
        return
    try:
        Path(output).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{output}: {exc.strerror or exc}") from None


def _cmd_classify(args: argparse.Namespace) -> int:
    relation = rio.load_relation(args.relation)
    flags = classify(relation)
    _emit(
        rio.dump_json(
            {
                "reflexive": flags.reflexive,
                "symmetric": flags.symmetric,
                "transitive": flags.transitive,
                "serial": flags.serial,
                "preorder": flags.preorder,
                "equivalence": flags.equivalence,
            }
        ),
        args.output,
    )
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    relation = rio.load_relation(args.relation)
    x_set = rio.load_subset(args.set, relation.universe)
    pairing = Pairing.from_name(args.pairing)
    op = lower if args.op == "lower" else upper
    result = op(pairing, relation, x_set)
    _emit(
        rio.dump_json(
            {
                "pairing": pairing.value,
                "op": args.op,
                "set": rio.subset_to_labels(x_set),
                "result": rio.subset_to_labels(result),
            }
        ),
        args.output,
    )
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    pairing = Pairing.from_name(args.pairing)
    report = generate_table(pairing, args.max_n, workers=args.workers)
    if args.format == "markdown":
        _emit(report_to_markdown(report), args.output)
    else:
        _emit(report_to_json(report), args.output)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    relation = rio.load_relation(args.relation)
    pairing = Pairing.from_name(args.pairing)
    result = check_relation(args.row, pairing, relation)
    obj: dict = {"row": args.row, "pairing": pairing.value, "holds": result.holds}
    if not result.holds:
        witness: dict = {"x": rio.subset_to_labels(result.x)}
        if result.y is not None:
            witness["y"] = rio.subset_to_labels(result.y)
        obj["counterexample"] = witness
    _emit(rio.dump_json(obj), args.output)
    return 0 if result.holds else 1


def _cmd_counterexample(args: argparse.Namespace) -> int:
    pairing = Pairing.from_name(args.pairing)
    relation_class = RelationClass.from_tag(args.relation_class)
    verdict = search_class(args.row, pairing, relation_class, args.max_n)
    obj = {"row": verdict.row, "pairing": pairing.value, **verdict_to_obj(verdict)}
    _emit(rio.dump_json(obj), args.output)
    return 1 if verdict.refuted else 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    relation = rio.load_relation(args.relation)
    record = check_biconditional(Characterization.from_tag(args.id), relation)
    _emit(
        rio.dump_json(
            {
                "characterization": record.characterization.value,
                "property_holds": record.property_holds,
                "class_holds": record.class_holds,
                "consistent": record.consistent,
            }
        ),
        args.output,
    )
    return 0 if record.consistent else 1


def _cmd_covering(args: argparse.Namespace) -> int:
    covering = rio.load_covering(args.covering)
    relation = induced_relation(covering)
    flags = classify(relation)
    verified = verify_reduction(covering)
    universe = covering.universe
    neighborhoods = {
        universe.label(x): [universe.label(y) for y in range(universe.size)
                            if relation.rows[x] >> y & 1]
        for x in range(universe.size)
    }
    _emit(
        rio.dump_json(
            {
                "neighborhoods": neighborhoods,
                "induced_preorder": flags.preorder,
                "reduction_verified": verified,
            }
        ),
        args.output,
    )
    return 0 if verified and flags.preorder else 1


def _cmd_logic(args: argparse.Namespace) -> int:
    frame = rio.load_frame(args.frame)
    p_set = rio.load_subset(args.set, frame.propositions)
    _emit(
        rio.dump_json(
            {
                "set": rio.subset_to_labels(p_set),
                "closure": rio.subset_to_labels(deductive_closure(frame, p_set)),
                "interior": rio.subset_to_labels(largest_theory_within(frame, p_set)),
                "set_is_theory": is_theory(frame, p_set),
            }
        ),
        args.output,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsklab",
        description="Exhaustive verification lab for rough-set approximation operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("classify", help="reflexive/symmetric/transitive/serial flags")
    p.add_argument("--relation", required=True)
    add_output(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("approx", help="apply a lower or upper approximation")
    p.add_argument("--pairing", required=True)
    p.add_argument("--op", required=True, choices=["lower", "upper"])
    p.add_argument("--relation", required=True)
    p.add_argument("--set", required=True)
    add_output(p)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("table", help="generate a full 23x9 verdict table")
    p.add_argument("--pairing", required=True)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    p.add_argument("--workers", type=int, default=1)
    add_output(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("check", help="check one property row on one relation")
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--pairing", required=True)
    p.add_argument("--relation", required=True)
    add_output(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "counterexample", help="search a relation class for a property counterexample"
    )
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--pairing", required=True)
    p.add_argument("--class", dest="relation_class", required=True)
    p.add_argument("--max-n", type=int, default=3)
    add_output(p)
    p.set_defaults(func=_cmd_counterexample)

    for name in ("characterize", "check-characterization"):
        p = sub.add_parser(
            name, help="evaluate both sides of a characterization biconditional"
        )
        p.add_argument("--id", required=True)
        p.add_argument("--relation", required=True)
        add_output(p)
        p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("covering", help="verify the covering-to-pre-order reduction")
    p.add_argument("--covering", required=True)
    add_output(p)
    p.set_defaults(func=_cmd_covering)

    p = sub.add_parser("logic", help="deductive closure and largest inner theory")
    p.add_argument("--frame", required=True)
    p.add_argument("--set", required=True)
    add_output(p)
    p.set_defaults(func=_cmd_logic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
