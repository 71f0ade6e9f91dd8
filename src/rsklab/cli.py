"""Command-line front end.

Every subcommand is a thin wrapper over the library: parse files, call
one operation, return the report and the exit status. ``main`` alone
serializes the report and writes it, to stdout or ``--output``. Exit
status 0 on success/consistent/verified, 1 when a check is refuted or
inconsistent (the report is still printed), 2 on input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import io as rio
from .characterizations import Characterization, check_biconditional
from .coverings import induced_relation, verify_reduction
from .errors import InputError, RskError
from .logic import deductive_closure, is_theory, largest_theory_within
from .operators import Pairing, lower, successor_set, upper
from .properties import check_relation, search_class
from .relations import RelationClass, classify
from .tables import generate_table, report_to_json, report_to_markdown, verdict_to_obj

# A report is a JSON object, or the finished text of a table.
_Result = tuple[dict | str, int]


def _emit(text: str, output: str | None) -> None:
    if output is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except UnicodeEncodeError as exc:
            raise InputError(
                f"stdout cannot encode the report as {exc.encoding}; use --output"
            ) from None
        except BrokenPipeError:
            # the reader has gone; send what is still buffered to devnull so
            # the interpreter's exit flush stays quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise InputError("stdout closed before the report was written") from None
        return
    try:
        Path(output).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{output}: {exc.strerror or exc}") from None


def _cmd_classify(args: argparse.Namespace) -> _Result:
    relation = rio.load_relation(args.relation)
    flags = classify(relation)
    return {
        "reflexive": flags.reflexive,
        "symmetric": flags.symmetric,
        "transitive": flags.transitive,
        "serial": flags.serial,
        "preorder": flags.preorder,
        "equivalence": flags.equivalence,
    }, 0


def _cmd_approx(args: argparse.Namespace) -> _Result:
    relation = rio.load_relation(args.relation)
    x_set = rio.load_subset(args.set, relation.universe)
    pairing = Pairing.from_name(args.pairing)
    op = lower if args.op == "lower" else upper
    result = op(pairing, relation, x_set)
    return {
        "pairing": pairing.value,
        "op": args.op,
        "set": rio.subset_to_labels(x_set),
        "result": rio.subset_to_labels(result),
    }, 0


def _cmd_table(args: argparse.Namespace) -> _Result:
    pairing = Pairing.from_name(args.pairing)
    report = generate_table(pairing, args.max_n, workers=args.workers)
    if args.format == "markdown":
        return report_to_markdown(report), 0
    return report_to_json(report), 0


def _cmd_check(args: argparse.Namespace) -> _Result:
    relation = rio.load_relation(args.relation)
    pairing = Pairing.from_name(args.pairing)
    result = check_relation(args.row, pairing, relation)
    obj: dict = {"row": args.row, "pairing": pairing.value, "holds": result.holds}
    if not result.holds:
        witness: dict = {"x": rio.subset_to_labels(result.x)}
        if result.y is not None:
            witness["y"] = rio.subset_to_labels(result.y)
        obj["counterexample"] = witness
    return obj, 0 if result.holds else 1


def _cmd_counterexample(args: argparse.Namespace) -> _Result:
    pairing = Pairing.from_name(args.pairing)
    relation_class = RelationClass.from_tag(args.relation_class)
    verdict = search_class(args.row, pairing, relation_class, args.max_n)
    obj = {"row": verdict.row, "pairing": pairing.value, **verdict_to_obj(verdict)}
    return obj, 1 if verdict.refuted else 0


def _cmd_characterize(args: argparse.Namespace) -> _Result:
    relation = rio.load_relation(args.relation)
    record = check_biconditional(Characterization.from_tag(args.id), relation)
    return {
        "characterization": record.characterization.value,
        "property_holds": record.property_holds,
        "class_holds": record.class_holds,
        "consistent": record.consistent,
    }, 0 if record.consistent else 1


def _cmd_covering(args: argparse.Namespace) -> _Result:
    covering = rio.load_covering(args.covering)
    relation = induced_relation(covering)
    flags = classify(relation)
    verified = verify_reduction(covering)
    universe = covering.universe
    neighborhoods = {
        universe.label(x): rio.subset_to_labels(successor_set(relation, x))
        for x in range(universe.size)
    }
    return {
        "neighborhoods": neighborhoods,
        "induced_preorder": flags.preorder,
        "reduction_verified": verified,
    }, 0 if verified and flags.preorder else 1


def _cmd_logic(args: argparse.Namespace) -> _Result:
    frame = rio.load_frame(args.frame)
    p_set = rio.load_subset(args.set, frame.propositions)
    return {
        "set": rio.subset_to_labels(p_set),
        "closure": rio.subset_to_labels(deductive_closure(frame, p_set)),
        "interior": rio.subset_to_labels(largest_theory_within(frame, p_set)),
        "set_is_theory": is_theory(frame, p_set),
    }, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsklab",
        description="Exhaustive verification lab for rough-set approximation operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser(
        "classify", parents=[output], help="reflexive/symmetric/transitive/serial flags"
    )
    p.add_argument("--relation", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "approx", parents=[output], help="apply a lower or upper approximation"
    )
    p.add_argument("--pairing", required=True)
    p.add_argument("--op", required=True, choices=["lower", "upper"])
    p.add_argument("--relation", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser(
        "table", parents=[output], help="generate a full 23x9 verdict table"
    )
    p.add_argument("--pairing", required=True)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser(
        "check", parents=[output], help="check one property row on one relation"
    )
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--pairing", required=True)
    p.add_argument("--relation", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "counterexample",
        parents=[output],
        help="search a relation class for a property counterexample",
    )
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--pairing", required=True)
    p.add_argument("--class", dest="relation_class", required=True)
    p.add_argument("--max-n", type=int, default=3)
    p.set_defaults(func=_cmd_counterexample)

    for name in ("characterize", "check-characterization"):
        p = sub.add_parser(
            name,
            parents=[output],
            help="evaluate both sides of a characterization biconditional",
        )
        p.add_argument("--id", required=True)
        p.add_argument("--relation", required=True)
        p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser(
        "covering", parents=[output], help="verify the covering-to-pre-order reduction"
    )
    p.add_argument("--covering", required=True)
    p.set_defaults(func=_cmd_covering)

    p = sub.add_parser(
        "logic", parents=[output], help="deductive closure and largest inner theory"
    )
    p.add_argument("--frame", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(func=_cmd_logic)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = args.func(args)
        if not isinstance(report, str):
            report = rio.dump_json(report)
        _emit(report, args.output)
    except RskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
