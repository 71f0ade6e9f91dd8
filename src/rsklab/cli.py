"""Command-line front end.

Every subcommand is a thin wrapper over the library: parse files, call
one operation, return the report and the exit status. Each option and
each subcommand is declared once, in ``_OPTIONS`` and ``_COMMANDS``, and
the parsers are built once per process. Each command line is parsed by
its own subcommand's parser alone (``parse_command``); the full parser
runs only to report a line that no subparser takes whole. ``main`` alone
serializes the report and writes it, to stdout or ``--output``. Exit
status 0 on success/consistent/verified, 1 when a check is refuted or
inconsistent (the report is still printed), 2 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import io as rio
from .characterizations import Characterization, check_biconditional
from .coverings import induced_relation, verify_reduction
from .errors import InputError, RskError
from .logic import deductive_closure, is_theory, largest_theory_within
from .operators import Pairing, lower, upper
from .properties import check_relation, search_class
from .relations import RelationClass, Subset, classify
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
        except OSError as exc:
            # a closed pipe, a full disk: send what is still buffered to
            # devnull so the interpreter's exit flush stays quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            message = f"stdout: {exc.strerror or exc}"
            if isinstance(exc, BrokenPipeError):
                message = "stdout closed before the report was written"
            raise InputError(message) from None
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
        obj["counterexample"] = {"x": rio.subset_to_labels(result.x)}
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
        universe.label(x): rio.subset_to_labels(Subset(universe, row))
        for x, row in enumerate(relation.rows)
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


# The add_argument keywords of each option, declared once. An option is
# required unless it has a default.
_OPTIONS: dict[str, dict] = {
    "--relation": {},
    "--pairing": {},
    "--set": {},
    "--row": {"type": int},
    "--max-n": {"type": int, "default": 3},
    "--op": {"choices": ["lower", "upper"]},
    "--format": {"choices": ["json", "markdown"], "default": "json"},
    "--workers": {"type": int, "default": 1},
    "--class": {"dest": "relation_class"},
    "--id": {},
    "--covering": {},
    "--frame": {},
}

# Each subcommand: name, aliases, handler, help text, options in usage order.
_COMMANDS = (
    ("classify", [], _cmd_classify, "reflexive/symmetric/transitive/serial flags",
     ["--relation"]),
    ("approx", [], _cmd_approx, "apply a lower or upper approximation",
     ["--pairing", "--op", "--relation", "--set"]),
    ("table", [], _cmd_table, "generate a full 23x9 verdict table",
     ["--pairing", "--max-n", "--format", "--workers"]),
    ("check", [], _cmd_check, "check one property row on one relation",
     ["--row", "--pairing", "--relation"]),
    ("counterexample", [], _cmd_counterexample,
     "search a relation class for a property counterexample",
     ["--row", "--pairing", "--class", "--max-n"]),
    ("characterize", ["check-characterization"], _cmd_characterize,
     "evaluate both sides of a characterization biconditional",
     ["--id", "--relation"]),
    ("covering", [], _cmd_covering, "verify the covering-to-pre-order reduction",
     ["--covering"]),
    ("logic", [], _cmd_logic, "deductive closure and largest inner theory",
     ["--frame", "--set"]),
)


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each subcommand's own parser by name and alias."""
    parser = argparse.ArgumentParser(
        prog="rsklab",
        description="Exhaustive verification lab for rough-set approximation operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write the report here instead of stdout")
    for name, aliases, func, help_text, options in _COMMANDS:
        p = sub.add_parser(name, aliases=aliases, parents=[output], help=help_text)
        for flag in options:
            kwargs = _OPTIONS[flag]
            p.add_argument(flag, required="default" not in kwargs, **kwargs)
        p.set_defaults(func=func)
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared."""
    return _parsers()[0]


def parse_command(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed by the subparser its first word names, the same
    ``Namespace`` that ``build_parser().parse_args(argv)`` gives.

    The full parser runs only when no command comes first or the subparser
    leaves an argument over, and then prints argparse's own usage and error.
    """
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, extra = commands[argv[0]].parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_command(sys.argv[1:] if argv is None else argv)
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
