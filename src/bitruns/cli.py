"""Command line interface: exact tables as csv, json or plain text.

Exit codes: 0 success, 1 usage error, 2 verification failure,
3 computational limit reached.  A reader that closes the output pipe
early (say `| head`) ends the command with exit 1 and no message.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import __version__
from .errors import (
    BitrunsError,
    NonUnitConstantTerm,
    OracleBoundExceeded,
    SeriesOrderExceeded,
)

# Every command imports the modules it runs, so --version, --help and a
# usage error load none of the math.  The parser's choices are therefore
# literals; tests pin them to StringClass and verify.available_scopes().
CLASS_CHOICES = ("unconstrained", "solus", "multus", "bimultus", "persolus")
SCOPE_CHOICES = (
    "counts",
    "bitsums",
    "run-moments",
    "cross-run",
    "joint-dp",
    "compositions",
    "all",
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_LIMIT = 3

#: Largest `counts --nmax` and `crossgf --order`.  The coefficients grow
#: like 2^n, so the output grows as n^2: 60 MB of digits at this bound.
MAX_SERIES_ORDER = 20000

#: Largest `--lengths` entry of `moments`, `asymptotics` and `table2`.
#: The cap sum holds a few rows of N integers of up to N bits and costs
#: O(N^2): on a 2-vCPU Xeon VM, `moments --class solus --lengths 10000`
#: takes 42 s and 50 MB, and the time grows about 5x per doubling.
MAX_CAP_SUM_LENGTH = 10000

#: Largest sum of those `--lengths`.  Each listed length n adds about
#: n^2 log n digit operations to the rows that the largest one needs: on
#: the same VM `table2` takes 62 s at 10000 alone and 85 s for the 40
#: lengths 9961..10000, so at this bound no list costs much more than
#: 1.4 times the one length MAX_CAP_SUM_LENGTH, and a dense sweep
#: reaches 1..893 (5.1 s).
MAX_CAP_SUM_TOTAL = 400000

#: Largest `table1 --lengths` entry.  The run-run product costs O(N^3)
#: big-integer additions: 0.6 s at 400 and 6.0 s and 16 MB at this bound
#: on the same VM.
MAX_TABLE1_LENGTH = 1000

#: Largest sum of the `table1 --lengths`: 6.7 s at 1000 alone and 9.1 s
#: for the 20 lengths 981..1000, so at this bound no list costs much
#: more than 1.4 times the one length MAX_TABLE1_LENGTH, and a dense
#: sweep reaches 2..199.
MAX_TABLE1_TOTAL = 20000

#: Largest `joint --n`.  The table holds n^2/2 counts of up to n bits:
#: 5 s and 72 MB at this bound.
MAX_JOINT_LENGTH = 1000

#: Largest `compositions --n`.  All 2^n rows are held until they are
#: printed: on the same VM, 4.1 s and 90 MB at 18 and 18 s and 318 MB at
#: this bound, about 3.5x the memory and 4x the time per 2 more.
MAX_COMPOSITIONS_N = 20

#: Largest `fewones --nmax`.  With --ones above nmax every length sums
#: O(n) bounded-composition counts of O(n) terms: 5.1 s at 400, about
#: 6x per doubling, so over a minute at this bound.
MAX_FEWONES_NMAX = 1000

#: Largest `--precision`.  Rendering exact values is cheap (`moments`
#: takes 0.24 s at this bound), but `asymptotics` computes its constants
#: at the printed places, about 4x slower per doubling: 10.5 s at this
#: bound for the default four lengths, plus 0.6 s per further length.
MAX_PRECISION = 20000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _emit(args, command: str, params: dict, header: list, rows: list) -> None:
    if args.format == "csv":
        import csv

        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    elif args.format == "json":
        import json

        doc = {
            "command": command,
            "parameters": params,
            "version": __version__,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        table = [header, *rows]
        widths = [_width([r[i] for r in table]) for i in range(len(header))]
        for r in table:
            print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip())


def _width(column) -> int:
    """Longest rendering in the column.  The digit count of an integer
    grows with its magnitude, so of the integers only the largest and the
    smallest are rendered: every cell is stringified once, to print it,
    and no rendered copy of the table is held."""
    ints = [v for v in column if type(v) is int]
    width = max((len(str(v)) for v in column if type(v) is not int), default=0)
    if ints:
        width = max(width, len(str(max(ints))), len(str(min(ints))))
    return width


def _class_arg(p, choices=None) -> None:
    p.add_argument(
        "--class",
        dest="string_class",
        required=True,
        choices=choices or CLASS_CHOICES,
        help="string ensemble",
    )


def _lengths(text: str) -> list:
    try:
        out = [int(t) for t in text.split(",") if t]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad length list {text!r}") from None
    if not out or any(n < 0 for n in out):
        raise argparse.ArgumentTypeError(f"bad length list {text!r}")
    return out


def _check_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")


def _check_bound(flag: str, value: int, bound: int, what: str = "series order") -> None:
    """A usage error below 0 and a limit above `bound`, naming `flag`."""
    _check_least(flag, value, 0)
    if value > bound:
        raise SeriesOrderExceeded(f"{flag} {value} exceeds the {what} bound {bound}")


def _check_lengths(lengths: list, bound: int, total: int) -> None:
    """Each of the lengths at most `bound`, and their sum at most `total`."""
    _check_bound("--lengths", max(lengths), bound, "length")
    if sum(lengths) > total:
        raise SeriesOrderExceeded(
            f"--lengths sum to {sum(lengths)}, which exceeds the length-sum bound {total}"
        )


# -- subcommands ------------------------------------------------------------


def _cmd_counts(args) -> int:
    from .catalog import count_gf
    from .ensembles import StringClass

    _check_bound("--nmax", args.nmax, MAX_SERIES_ORDER)
    cls = StringClass.from_name(args.string_class)
    series = count_gf(cls).expand(args.nmax)
    rows = [[n, series[n]] for n in range(args.nmax + 1)]
    _emit(args, "counts", {"class": cls.value, "nmax": args.nmax}, ["n", "count"], rows)
    return EXIT_OK


def _cmd_moments(args) -> int:
    _check_lengths(args.lengths, MAX_CAP_SUM_LENGTH, MAX_CAP_SUM_TOTAL)
    from .ensembles import StringClass
    from .moments import run_variance_table
    from .render import format_fraction

    cls = StringClass.from_name(args.string_class)
    p = args.precision
    rows = []
    for r in run_variance_table(args.lengths, cls, args.bit):
        rows.append(
            [
                r.n,
                format_fraction(r.mean, p),
                format_fraction(r.variance, p),
                format_fraction(r.second_moment, p),
                format_fraction(r.third_moment, p),
                format_fraction(r.fourth_moment, p),
            ]
        )
    _emit(
        args,
        "moments",
        {"class": cls.value, "bit": args.bit, "lengths": args.lengths},
        ["n", "mean", "variance", "second", "third", "fourth"],
        rows,
    )
    return EXIT_OK


def _cmd_table(bound: int, total: int, names: tuple, table: str, args) -> int:
    """table1 and table2: rho(R0, Y) of the classes in `names` at each
    length, from the `crossrun` table function named `table`."""
    _check_lengths(args.lengths, bound, total)
    from . import crossrun
    from .ensembles import StringClass

    classes = [StringClass.from_name(name) for name in names]
    # every degenerate length of both classes, before either table starts
    for cls in classes:
        crossrun.correlation_counts(cls, args.lengths)
    cols = [getattr(crossrun, table)(args.lengths, cls) for cls in classes]
    rows = [
        [n, *(col[i].rho(args.precision) for col in cols)]
        for i, n in enumerate(args.lengths)
    ]
    _emit(
        args,
        args.command,
        {"lengths": args.lengths},
        ["n", *(f"rho_{cls.value}" for cls in classes)],
        rows,
    )
    return EXIT_OK


def _cmd_joint(args) -> int:
    _check_bound("--n", args.n, MAX_JOINT_LENGTH, "length")
    from .ensembles import StringClass
    from .jointdp import joint_table

    cls = StringClass.from_name(args.string_class)
    table = joint_table(args.n, cls)
    rows = [
        [x, y, c]
        for x, row in enumerate(table.rows)
        for y, c in enumerate(row)
        if c
    ]
    _emit(
        args,
        "joint",
        {"class": cls.value, "n": args.n},
        ["zeros", "longest_zero_run", "count"],
        rows,
    )
    return EXIT_OK


def _cmd_fewones(args) -> int:
    _check_least("--ones", args.ones, 1)
    _check_least("--run", args.run, 1)
    _check_bound("--nmax", args.nmax, MAX_FEWONES_NMAX, "length")
    from .jointdp import fewones_closed_form, fewones_count

    rows = []
    closed_ok = 2 <= args.ones < 6 and args.run >= 2
    for n in range(1, args.nmax + 1):
        row = [n, fewones_count(n, args.ones, args.run)]
        if closed_ok:
            row.append(fewones_closed_form(n, args.ones, args.run))
        rows.append(row)
    header = ["n", "count"] + (["closed_form"] if closed_ok else [])
    _emit(
        args,
        "fewones",
        {"ones": args.ones, "run": args.run, "nmax": args.nmax},
        header,
        rows,
    )
    return EXIT_OK


def _cmd_crossgf(args) -> int:
    from .catalog import cross_gf
    from .ensembles import StringClass

    _check_least("--i", args.i, 1)
    _check_least("--j", args.j, 1)
    _check_bound("--order", args.order, MAX_SERIES_ORDER)
    cls = StringClass.from_name(args.string_class)
    series = cross_gf(cls, args.i, args.j).expand(args.order)
    rows = [[n, series[n]] for n in range(args.order + 1)]
    _emit(
        args,
        "crossgf",
        {"class": cls.value, "i": args.i, "j": args.j, "order": args.order},
        ["n", "count"],
        rows,
    )
    return EXIT_OK


def _cmd_compositions(args) -> int:
    _check_bound("--n", args.n, MAX_COMPOSITIONS_N, "length")
    from .ensembles import bit_string, run_stats, to_composition

    n = args.n
    rows = []
    for v in range(1 << n):
        r0, _, s = run_stats(v, n)
        parts = to_composition(v, n)
        rows.append(
            [
                bit_string(v, n),
                "+".join(map(str, parts)),
                len(parts),
                max(parts),
                s,
                r0,
            ]
        )
    _emit(
        args,
        "compositions",
        {"n": args.n},
        ["string", "composition", "parts", "max_part", "bitsum", "longest_zero_run"],
        rows,
    )
    return EXIT_OK


def _cmd_asymptotics(args) -> int:
    _check_least("--lengths", min(args.lengths), 1)
    _check_lengths(args.lengths, MAX_CAP_SUM_LENGTH, MAX_CAP_SUM_TOTAL)
    from .asymptotics import (
        density_limits,
        finite_vs_asymptote,
        growth_constant,
        growth_constant_residual,
        variance_limit,
        working_precision,
    )
    from .ensembles import StringClass
    from .render import format_float, format_fraction

    cls = StringClass.from_name(args.string_class)
    p = args.precision
    # compute and render inside one scope: str() of an mpf reads the
    # working precision in force where it is called
    with working_precision(p):
        rows = []
        for r in finite_vs_asymptote(args.lengths, cls, args.bit):
            rows.append(
                [
                    r.n,
                    format_fraction(r.mean, p),
                    format_float(r.mean_asymptote, p),
                    format_float(r.mean_gap, p),
                    format_fraction(r.variance, p),
                    format_float(r.variance_limit, p),
                    format_float(r.variance_gap, p),
                ]
            )
        params = {
            "class": cls.value,
            "bit": args.bit,
            "lengths": args.lengths,
            "growth_constant": format_float(growth_constant(cls), 10),
            "growth_residual": format_float(growth_constant_residual(cls), 40),
            "variance_limit": format_float(variance_limit(cls), 10),
        }
        # density_limits serves every class, but the printed parameters
        # keep the two of the pinned output
        if cls in (StringClass.BIMULTUS, StringClass.PERSOLUS):
            d = density_limits(cls)
            params["density_mean"] = format_float(d.mean, 10)
            params["density_variance"] = format_float(d.variance, 10)
        _emit(
            args,
            "asymptotics",
            params,
            ["n", "mean", "asymptote", "mean_gap", "variance", "limit", "variance_gap"],
            rows,
        )
        return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_checks

    _check_least("--nmax", args.nmax, 0)
    results = run_checks(args.scope, args.nmax)
    rows = [[r.name, "pass" if r.passed else "fail", r.detail] for r in results]
    _emit(
        args,
        "verify",
        {"scope": args.scope, "nmax": args.nmax},
        ["check", "status", "detail"],
        rows,
    )
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


# -- parser -----------------------------------------------------------------


def build_parser() -> _Parser:
    # SUPPRESS keeps a subcommand's copy of a shared flag from clobbering
    # a value given before the subcommand; defaults are seeded in main().
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format",
        choices=("plain", "csv", "json"),
        default=argparse.SUPPRESS,
    )
    shared.add_argument(
        "--precision",
        type=int,
        default=argparse.SUPPRESS,
        help="decimal places in rendered values",
    )

    parser = _Parser(prog="bitruns", description=__doc__, parents=[shared])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    p = add_parser("counts", help="class counts d_n")
    _class_arg(p)
    p.add_argument("--nmax", type=int, default=20)
    p.set_defaults(fn=_cmd_counts)

    p = add_parser("moments", help="longest-run moments")
    _class_arg(p)
    p.add_argument("--bit", type=int, choices=(0, 1), default=0)
    p.add_argument("--lengths", type=_lengths, default=[10, 20, 50])
    p.set_defaults(fn=_cmd_moments)

    p = add_parser("table1", help="correlation of the two longest runs")
    p.add_argument(
        "--lengths", type=_lengths, default=[10, 20, 30, 40, 50, 60, 70]
    )
    p.set_defaults(
        fn=partial(
            _cmd_table,
            MAX_TABLE1_LENGTH,
            MAX_TABLE1_TOTAL,
            ("unconstrained", "multus"),
            "cross_report_table",
        )
    )

    p = add_parser("table2", help="correlation of longest zero run and bitsum")
    p.add_argument("--lengths", type=_lengths, default=[100, 200, 300, 400])
    p.set_defaults(
        fn=partial(
            _cmd_table,
            MAX_CAP_SUM_LENGTH,
            MAX_CAP_SUM_TOTAL,
            ("unconstrained", "solus"),
            "joint_rs_report_table",
        )
    )

    p = add_parser("joint", help="(zeros, longest zero run) table")
    _class_arg(p, choices=["unconstrained", "solus"])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_joint)

    p = add_parser("fewones", help="counts with few ones and short zero runs")
    p.add_argument("--ones", type=int, required=True, help="bitsum strictly below")
    p.add_argument("--run", type=int, required=True, help="zero runs strictly below")
    p.add_argument("--nmax", type=int, default=40)
    p.set_defaults(fn=_cmd_fewones)

    p = add_parser("crossgf", help="two-run generating function coefficients")
    _class_arg(p, choices=["unconstrained", "multus"])
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--order", type=int, default=20)
    p.set_defaults(fn=_cmd_crossgf)

    p = add_parser("compositions", help="waiting-time compositions")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_compositions)

    p = add_parser("asymptotics", help="finite n against the conjectured limits")
    _class_arg(p)
    p.add_argument("--bit", type=int, choices=(0, 1), default=0)
    p.add_argument("--lengths", type=_lengths, default=[10, 20, 50, 100])
    p.set_defaults(fn=_cmd_asymptotics)

    p = add_parser("verify", help="cross-check formulas against brute force")
    p.add_argument("--scope", choices=SCOPE_CHOICES, default="all")
    p.add_argument("--nmax", type=int, default=10)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    # exact integers are printed in full, however many digits they have
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    # shared flags live on the root and every subparser with a SUPPRESS
    # default; seeding the namespace keeps a value given before the
    # subcommand from being clobbered by the subparser's copy
    defaults = argparse.Namespace(format="plain", precision=6)
    args = build_parser().parse_args(argv, namespace=defaults)
    try:
        _check_bound("--precision", args.precision, MAX_PRECISION, "precision")
        return args.fn(args)
    except (OracleBoundExceeded, SeriesOrderExceeded, NonUnitConstantTerm) as exc:
        sys.stderr.write(f"bitruns: {exc}\n")
        return EXIT_LIMIT
    except (BitrunsError, ValueError) as exc:
        sys.stderr.write(f"bitruns: {exc}\n")
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout (say `| head`); Python flushes stdout
        # at exit, so point it at devnull to keep that from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
