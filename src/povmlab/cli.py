"""Command line front end.

Two subcommands:

``povmlab scenario NAME``
    Run one of the canned scenarios and emit JSON (default) or CSV.

``povmlab doubleslit``
    Run the grid simulation with explicit numeric knobs; a shorthand for
    ``scenario doubleslit`` with configuration flags.  The flags are the
    fields listed in ``DoubleSlitConfig.EXPOSED``, each with the config's
    default (``--max-steps`` for ``max_steps``); every other field keeps
    its default, and the stop rule's constants are fixed.

Exit codes: 0 on success, 2 for invalid input or I/O failure, 3 for a
numeric failure (unstable stepping, vanishing conditioning mass).
"""

from __future__ import annotations

import argparse
import sys

from .errors import NUMERIC_ERRORS, IoFailure, ValidationError
from .scenarios import (
    SCENARIO_NAMES,
    DoubleSlitConfig,
    EraserSpec,
    run_scenario,
)
from .serialize import emit

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3


def _parse_complex(text: str) -> complex:
    """Parse 'RE,IM' or a bare real number."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", dest="fmt", action="store_const", const="json",
        help="emit the full result as JSON (default)",
    )
    fmt.add_argument(
        "--csv", dest="fmt", action="store_const", const="csv",
        help="emit the first pmf as CSV",
    )
    parser.set_defaults(fmt="json")
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write to PATH instead of stdout",
    )


def _add_doubleslit_flags(parser: argparse.ArgumentParser) -> None:
    d = DoubleSlitConfig()
    for name in d.EXPOSED:
        default = getattr(d, name)
        kind = {"choices": d.BRANCHES} if name == "branch" else {"type": type(default)}
        parser.add_argument("--" + name.replace("_", "-"), default=default, **kind)
    parser.add_argument(
        "--histogram", action="store_true",
        help="with --csv, emit sampled counts instead of the pmf",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="povmlab",
        description="Finite measurement scenarios and a double-slit grid run.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scenario", help="run a canned scenario by name")
    sc.add_argument("name", choices=SCENARIO_NAMES)
    sc.add_argument(
        "--alpha1", type=_parse_complex, default=None, metavar="RE,IM",
        help="first path amplitude (eraser only)",
    )
    sc.add_argument(
        "--alpha2", type=_parse_complex, default=None, metavar="RE,IM",
        help="second path amplitude (eraser only)",
    )
    _add_output_flags(sc)

    ds = sub.add_parser("doubleslit", help="run the grid simulation")
    _add_doubleslit_flags(ds)
    _add_output_flags(ds)

    return parser


def _run(args: argparse.Namespace):
    if args.command == "scenario":
        kwargs = {}
        if args.name == "eraser" and (args.alpha1 is not None or args.alpha2 is not None):
            spec = EraserSpec()
            kwargs["spec"] = EraserSpec(
                alpha1=args.alpha1 if args.alpha1 is not None else spec.alpha1,
                alpha2=args.alpha2 if args.alpha2 is not None else spec.alpha2,
            )
        elif args.alpha1 is not None or args.alpha2 is not None:
            raise ValidationError("--alpha1/--alpha2 apply to the eraser scenario only")
        result = run_scenario(args.name, **kwargs)
        return emit(result, fmt=args.fmt, path=args.out)

    config = DoubleSlitConfig(**{name: getattr(args, name) for name in DoubleSlitConfig.EXPOSED})
    result = run_scenario("doubleslit", config=config)
    return emit(result, fmt=args.fmt, path=args.out, histogram=args.histogram)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on bad flags and 0 on --help; keep its code
        return int(err.code or 0)
    try:
        payload = _run(args)
    except NUMERIC_ERRORS as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValidationError, IoFailure) as err:
        print(f"invalid request: {err}", file=sys.stderr)
        return EXIT_INVALID
    if args.out is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return EXIT_OK
