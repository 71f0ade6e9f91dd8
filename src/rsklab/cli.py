"""Command-line front end.

Every subcommand is a thin wrapper over the library: parse files, call
one operation, return the report and the exit status. Each option and
each subcommand is declared once, in ``_OPTIONS`` and ``_COMMANDS``.
``parse_command`` reads a well-formed line, ``COMMAND (--FLAG VALUE)*``,
straight from those declarations; the argparse parser, built from the
same declarations at most once per process, runs only on any other line,
to parse it or to print its usage, help or error. ``main`` alone
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
        "set": x_set.labels(),
        "result": result.labels(),
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
        obj["counterexample"] = {"x": result.x.labels()}
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
        universe.label(x): Subset(universe, row).labels()
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
        "set": p_set.labels(),
        "closure": deductive_closure(frame, p_set).labels(),
        "interior": largest_theory_within(frame, p_set).labels(),
        "set_is_theory": is_theory(frame, p_set),
    }, 0


# The add_argument keywords of each option, declared once. An option is
# required unless it has a default.
_OPTIONS: dict[str, dict] = {
    "--output": {"default": None, "help": "write the report here instead of stdout"},
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

# Each subcommand: name, aliases, handler, help text, options in usage order
# (every subcommand also takes --output, first).
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

# Each subcommand by name and alias: its handler, and its options by flag,
# each with the Namespace attribute it sets and its add_argument keywords.
_TABLE = {
    command: (func, {
        flag: (_OPTIONS[flag].get("dest", flag[2:].replace("-", "_")), _OPTIONS[flag])
        for flag in ["--output", *options]
    })
    for name, aliases, func, _, options in _COMMANDS
    for command in [name, *aliases]
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="rsklab",
        description="Exhaustive verification lab for rough-set approximation operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, aliases, func, help_text, options in _COMMANDS:
        p = sub.add_parser(name, aliases=aliases, help=help_text)
        for flag in ["--output", *options]:
            kwargs = _OPTIONS[flag]
            p.add_argument(flag, required="default" not in kwargs, **kwargs)
        p.set_defaults(func=func)
    return parser


def _parse_table(argv: list[str]) -> argparse.Namespace | None:
    """``argv`` read from ``_TABLE`` if it is ``COMMAND (--FLAG VALUE)*`` with
    every flag spelled out and given once, no value starting with ``-``, each
    value of its option's type and among its choices, and every required
    option given; otherwise None."""
    if not argv or argv[0] not in _TABLE or len(argv) % 2 == 0:
        return None
    func, options = _TABLE[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) * 2 + 1 < len(argv):
        return None  # a flag given twice
    found = {"command": argv[0], "func": func}
    for flag, value in given.items():
        if flag not in options or value.startswith("-"):
            return None
        dest, kwargs = options[flag]
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        found[dest] = value
    for flag, (dest, kwargs) in options.items():
        if dest not in found:
            if "default" not in kwargs:
                return None
            found[dest] = kwargs["default"]
    return argparse.Namespace(**found)


def parse_command(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed, the same ``Namespace`` that
    ``build_parser().parse_args(argv)`` gives.

    A line of the form ``COMMAND (--FLAG VALUE)*`` that needs nothing of
    argparse (no abbreviation, ``=``, ``--``, ``-h``, repeated flag or
    ``-``-prefixed value, and nothing to report) is read straight from the
    declared options. Every other line goes to the full parser, which also
    prints argparse's own usage, help and errors.
    """
    args = _parse_table(argv)
    return build_parser().parse_args(argv) if args is None else args


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
