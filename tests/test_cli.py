import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitruns
import bitruns.errors

from bitruns.cli import EXIT_LIMIT, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_counts_csv(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "counts", "--class", "solus", "--nmax", "6")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "count"]
    assert rows[1:] == [
        ["0", "1"], ["1", "2"], ["2", "3"], ["3", "5"], ["4", "8"], ["5", "13"], ["6", "21"],
    ]


def test_moments_json_metadata(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "moments", "--class", "multus", "--bit", "1",
        "--lengths", "5,10",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["command"] == "moments"
    assert doc["parameters"] == {"class": "multus", "bit": 1, "lengths": [5, 10]}
    assert "version" in doc
    assert [r["n"] for r in doc["rows"]] == [5, 10]
    assert doc["rows"][1]["mean"] == "3.755000"


#: argv -> the (key, value) pairs of the json document's `command` and
#: `parameters`, recorded while each command built its own parameters.
#: Flags given out of their declared order, and --precision after the
#: subcommand, leave the parameters in declaration order.
JSON_PARAMETERS = {
    ("counts", "--class", "solus", "--nmax", "3"): ("counts", [("class", "solus"), ("nmax", 3)]),
    ("moments", "--class", "multus", "--bit", "1", "--lengths", "5,10"): (
        "moments", [("class", "multus"), ("bit", 1), ("lengths", [5, 10])],
    ),
    ("table1", "--lengths", "10"): ("table1", [("lengths", [10])]),
    ("table2", "--lengths", "10,20"): ("table2", [("lengths", [10, 20])]),
    ("joint", "--class", "solus", "--n", "4"): ("joint", [("class", "solus"), ("n", 4)]),
    ("fewones", "--ones", "2", "--run", "3", "--nmax", "4"): (
        "fewones", [("ones", 2), ("run", 3), ("nmax", 4)],
    ),
    ("crossgf", "--order", "5", "--j", "4", "--i", "3", "--class", "multus", "--precision", "3"): (
        "crossgf", [("class", "multus"), ("i", 3), ("j", 4), ("order", 5)],
    ),
    ("crossgf", "--class", "bimultus", "--i", "2", "--j", "3", "--order", "4"): (
        "crossgf", [("class", "bimultus"), ("i", 2), ("j", 3), ("order", 4)],
    ),
    ("compositions", "--n", "2"): ("compositions", [("n", 2)]),
    ("asymptotics", "--class", "persolus", "--lengths", "20,40"): (
        "asymptotics",
        [
            ("class", "persolus"), ("bit", 0), ("lengths", [20, 40]),
            ("growth_constant", "1.4655712319"), ("growth_residual", "0E-40"),
            ("variance_limit", "11.3414222235"), ("density_mean", "0.1942540040"),
            ("density_variance", "0.0495615175"),
        ],
    ),
    ("asymptotics", "--lengths", "5", "--class", "solus"): (
        "asymptotics",
        [
            ("class", "solus"), ("bit", 0), ("lengths", [5]),
            ("growth_constant", "1.6180339887"), ("growth_residual", "0E-40"),
            ("variance_limit", "7.1868910445"),
        ],
    ),
    ("verify", "--scope", "counts", "--nmax", "4"): (
        "verify", [("scope", "counts"), ("nmax", 4)],
    ),
}


# the bimultus crossgf line has an id of its own, which keeps the id of
# the multus one
@pytest.mark.parametrize(
    "argv",
    list(JSON_PARAMETERS),
    ids=lambda argv: argv[0] + ("-bimultus" if "bimultus" in argv else ""),
)
def test_json_command_and_parameters_are_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert code == EXIT_OK
    doc = json.loads(out, object_pairs_hook=list)
    assert [k for k, _ in doc] == ["command", "parameters", "version", "rows"]
    assert (doc[0][1], doc[1][1]) == JSON_PARAMETERS[argv]


@pytest.mark.parametrize("cls", [c.value for c in bitruns.StringClass])
def test_moments_at_length_zero(capsys, cls):
    """The empty string is the one member of every class at n = 0."""
    code, out, err = run_cli(capsys, "--format", "csv", "moments", "--class", cls, "--lengths", "0")
    assert (code, err) == (EXIT_OK, "")
    assert list(csv.reader(io.StringIO(out)))[1] == ["0"] + ["0.000000"] * 5


def test_table1_plain(capsys):
    code, out, _ = run_cli(capsys, "table1", "--lengths", "10")
    assert code == EXIT_OK
    assert "-0.383683" in out and "-0.443900" in out


def test_table2_spot_values(capsys):
    code, out, _ = run_cli(capsys, "table2", "--lengths", "10,20")
    assert code == EXIT_OK
    assert "-0.752444" in out and "-0.728540" in out


def test_joint_rows_sum_to_count(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "joint", "--class", "unconstrained", "--n", "6"
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert sum(int(r[2]) for r in rows) == 64


def test_fewones_with_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "fewones", "--ones", "2", "--run", "7", "--nmax", "13"
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "count", "closed_form"]
    counts = [int(r[1]) for r in rows[1:]]
    assert counts == [2, 3, 4, 5, 6, 7, 7, 6, 5, 4, 3, 2, 1]
    assert [int(r[2]) for r in rows[1:]] == counts


def test_crossgf(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "crossgf", "--class", "multus",
        "--i", "3", "--j", "3", "--order", "6",
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][1] == "0"


@pytest.mark.parametrize("i,j", [(1, 1), (2, 3), (3, 3), (4, 2), (6, 6)])
def test_crossgf_bimultus_matches_the_oracle(capsys, i, j):
    """Every row from n = 1 counts the bimultus strings with no 1-run of
    i and no 0-run of j; z^0 is 0 under the class's convention."""
    from bitruns.ensembles import StringClass
    from families import oracle, oracle_sum

    code, out, err = run_cli(
        capsys, "--format", "csv", "crossgf", "--class", "bimultus",
        "--i", str(i), "--j", str(j), "--order", "12",
    )
    assert (code, err) == (EXIT_OK, "")
    rows = [[int(v) for v in r] for r in list(csv.reader(io.StringIO(out)))[1:]]
    want = [
        oracle_sum(oracle(n)[StringClass.BIMULTUS], lambda r0, r1, s: r1 < i and r0 < j)
        for n in range(1, 13)
    ]
    assert rows == [[0, 0]] + [[n, c] for n, c in enumerate(want, 1)]


#: The classes `joint` and `crossgf` have no route for, with the
#: library's refusal.
_REFUSALS = [
    (("joint", "--class", cls, "--n", "3"), f"no bounded-composition count for {cls}")
    for cls in ("multus", "bimultus", "persolus")
] + [
    (("crossgf", "--class", cls, "--i", "2", "--j", "2"), f"no two-run generating function for {cls}")
    for cls in ("solus", "persolus")
]


@pytest.mark.parametrize(
    "argv,message", _REFUSALS, ids=[f"{argv[0]}-{argv[2]}" for argv, _ in _REFUSALS]
)
def test_joint_and_crossgf_leave_class_refusals_to_the_library(capsys, monkeypatch, argv, message):
    """A class the command has no route for exits 1 with the library's
    one-line refusal, before any table or series is expanded."""
    from bitruns import jointdp
    from bitruns.series import RationalGF

    def forbidden(*args):
        raise AssertionError("expansion started")

    monkeypatch.setattr(jointdp, "_signed_binomials", forbidden)
    monkeypatch.setattr(RationalGF, "expand", forbidden)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"bitruns: {message}\n")


def test_compositions(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "compositions", "--n", "3")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 8
    comps = {r[1] for r in rows}
    assert len(comps) == 8  # the correspondence is one-to-one
    assert "1+1+1+1" in comps and "4" in comps


def test_compositions_limit(capsys):
    code, _, err = run_cli(capsys, "compositions", "--n", "25")
    assert code == EXIT_LIMIT
    assert "bound" in err


def test_asymptotics_json(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "asymptotics", "--class", "persolus",
        "--bit", "0", "--lengths", "20,40",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["parameters"]["growth_constant"] == "1.4655712319"
    assert doc["parameters"]["density_mean"] == "0.1942540040"
    assert len(doc["rows"]) == 2


def test_verify_ok_and_scope(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "compositions", "--nmax", "6")
    assert code == EXIT_OK
    assert "pass" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    from bitruns import verify
    from bitruns.verify import CheckResult

    monkeypatch.setattr(
        verify, "run_checks", lambda scope, nmax: [CheckResult("stub", False, "boom")]
    )
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_VERIFY
    assert "fail" in out


#: The error types that exit 3; every other BitrunsError exits 1.
_LIMIT_ERRORS = {"LimitExceeded", "NonUnitConstantTerm"}
_ERROR_TYPES = sorted(
    name
    for name, cls in vars(bitruns.errors).items()
    if isinstance(cls, type) and issubclass(cls, bitruns.errors.BitrunsError)
    and cls is not bitruns.errors.BitrunsError
)


@pytest.mark.parametrize("name", _ERROR_TYPES)
def test_every_error_type_has_its_exit_code(capsys, monkeypatch, name):
    """Each BitrunsError subclass, found by introspection so that a new
    one cannot slip by, ends a command with its exit code, one stderr
    line and nothing on stdout."""
    from bitruns import verify

    def refuse(scope, nmax):
        raise getattr(bitruns.errors, name)(f"planted {name}")

    monkeypatch.setattr(verify, "run_checks", refuse)
    code, out, err = run_cli(capsys, "verify")
    want = EXIT_LIMIT if name in _LIMIT_ERRORS else EXIT_USAGE
    assert (code, out, err) == (want, "", f"bitruns: planted {name}\n")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["counts", "--class", "bogus"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == EXIT_USAGE


def test_bad_lengths_exit_code(capsys):
    # an empty item is an error, not a length to skip
    for text in ("a,b", "1,,2", ",5", "5,"):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--class", "solus", "--lengths", text])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        errors = [line for line in err.splitlines() if line.startswith("bitruns ")]
        assert errors == [
            f"bitruns moments: error: argument --lengths: bad length list {text!r}"
        ]


def test_domain_error_maps_to_usage(capsys):
    code, _, err = run_cli(capsys, "moments", "--class", "solus", "--bit", "1")
    assert code == EXIT_USAGE
    assert "bit=1" in err


def test_shared_flags_after_subcommand(capsys):
    code, out, _ = run_cli(capsys, "counts", "--class", "solus", "--nmax", "3", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "n,count"


@pytest.mark.parametrize(
    "argv",
    [
        ["--threads", "4", "counts", "--class", "solus", "--nmax", "3"],
        ["counts", "--threads", "4", "--class", "solus", "--nmax", "3"],
    ],
)
def test_threads_flag_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    # argparse prints the usage, then exactly one error line
    errors = [line for line in err.splitlines() if line.startswith("bitruns: ")]
    assert errors == [err.splitlines()[-1]]
    if argv[0] == "counts":
        assert errors[0] == "bitruns: error: unrecognized arguments: --threads 4"


@pytest.mark.parametrize(
    "argv",
    [
        ["joint", "--class", "solus", "--n", "-1"],
        ["counts", "--class", "solus", "--nmax", "-3"],
        ["fewones", "--ones", "0", "--run", "3", "--nmax", "5"],
        ["crossgf", "--class", "multus", "--i", "0", "--j", "2"],
        ["--precision", "-1", "table1", "--lengths", "10"],
        ["compositions", "--n", "-1"],
        ["fewones", "--ones", "3", "--run", "3", "--nmax", "-1"],
    ],
)
def test_bad_value_is_one_line_usage_error(argv):
    src = str(Path(bitruns.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bitruns.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("bitruns: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def _two_pass_plain(header, rows):
    """The plain table as rendered before, with every cell stringified
    once for the widths and once to print."""
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    lines = [header, *rows]
    return "".join(
        "  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip() + "\n"
        for r in lines
    )


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[0, "a"], [-7, "bc"]],
        [[-1, 10**40], [99, -(10**39)], ["wide text", 3]],
        [[True, 2**200], [False, -(2**199)]],
    ],
)
def test_plain_table_matches_two_pass_rendering(capsys, rows):
    from argparse import Namespace

    from bitruns.cli import _emit

    header = ["n", "value"]
    _emit(Namespace(format="plain", command="t", precision=6), header, rows)
    assert capsys.readouterr().out == _two_pass_plain(header, rows)


def test_moments_at_precision_60(capsys):
    code, out, err = run_cli(
        capsys, "--format", "csv", "moments", "--class", "multus", "--bit", "1",
        "--lengths", "30", "--precision", "60",
    )
    assert code == EXIT_OK and err == ""
    header, row = list(csv.reader(io.StringIO(out)))
    assert row[0] == "30"
    for value in row[1:]:
        assert len(value.split(".")[1]) == 60


def test_verify_over_oracle_bound_exits_before_enumerating(capsys, monkeypatch):
    from bitruns import verify

    def forbidden(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(verify, "enumerate_classes", forbidden)
    monkeypatch.setattr(verify, "compositions", forbidden)
    code, out, err = run_cli(capsys, "verify", "--nmax", "25")
    assert code == EXIT_LIMIT
    assert out == ""
    assert err.startswith("bitruns: ") and err.count("\n") == 1


def test_asymptotics_at_precision_60_against_100_digits(capsys):
    import mpmath

    from bitruns.moments import run_variance_table
    from bitruns.render import format_float

    code, out, err = run_cli(
        capsys, "--format", "csv", "asymptotics", "--class", "solus",
        "--lengths", "10", "--precision", "60",
    )
    assert code == EXIT_OK and err == ""
    header, row = list(csv.reader(io.StringIO(out)))
    got = dict(zip(header, row))
    (r,) = run_variance_table([10], bitruns.StringClass.SOLUS, 0)
    with mpmath.workdps(100):
        lb = mpmath.log((1 + mpmath.sqrt(5)) / 2)
        asymptote = mpmath.log(10) / lb - (2 - mpmath.euler / lb)
        limit = mpmath.mpf(1) / 12 + mpmath.pi**2 / (6 * lb**2)
        mean = mpmath.mpf(r.mean.numerator) / r.mean.denominator
        variance = mpmath.mpf(r.variance.numerator) / r.variance.denominator
        want = {
            "asymptote": format_float(asymptote, 60),
            "mean_gap": format_float(mean - asymptote, 60),
            "limit": format_float(limit, 60),
            "variance_gap": format_float(variance - limit, 60),
        }
    for name, value in want.items():
        assert got[name] == value, name


_LOAD_PROBE = """
import json
import sys
from bitruns.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("bitruns", "mpmath"))))
"""

_CLI_ONLY = {"bitruns", "bitruns.cli", "bitruns.errors"}

_SERIES = {"catalog", "ensembles", "series"}

#: argv -> the package modules it loads beyond _CLI_ONLY.  mpmath loads
#: with `asymptotics` and with no other command.
_LOADS = {
    ("--version",): set(),
    ("table1", "--lengths", "10"): _SERIES | {"crossrun", "moments", "render"},
    ("counts", "--class", "bogus"): set(),  # a usage error
    ("moments", "--class", "solus", "--lengths", "10"): _SERIES | {"moments", "render"},
    ("table2", "--lengths", "10"): _SERIES | {"crossrun", "moments", "render"},
    ("compositions", "--n", "5"): {"ensembles"},
    ("counts", "--class", "solus", "--nmax", "3"): _SERIES,
    ("crossgf", "--class", "unconstrained", "--i", "1", "--j", "1", "--order", "4"): _SERIES,
    ("joint", "--class", "solus", "--n", "4"): {"ensembles", "jointdp"},
    ("fewones", "--ones", "3", "--run", "3", "--nmax", "5"): {"ensembles", "jointdp"},
    ("verify", "--scope", "counts", "--nmax", "3"): {
        p.stem for p in Path(bitruns.__file__).parent.glob("*.py")
    } - {"__init__", "asymptotics"},
    ("asymptotics", "--class", "solus", "--lengths", "10"): _SERIES
    | {"asymptotics", "moments", "render"},
}


@pytest.mark.parametrize("argv", list(_LOADS))
def test_commands_without_limits_leave_mpmath_unloaded(argv):
    src = str(Path(bitruns.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert ("mpmath" in loaded) == (argv[0] == "asymptotics")
    package = {m for m in loaded if m.startswith("bitruns")}
    assert package == _CLI_ONLY | {f"bitruns.{m}" for m in _LOADS[argv]}


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_closed_pipe_exits_1_without_a_traceback(tmp_path, fmt):
    """About 1.4 MB of counts, far past a pipe buffer, into a reader that
    takes one line and closes the pipe, as `| head -n 1` does."""
    src = str(Path(bitruns.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["--format", fmt, "counts", "--class", "unconstrained", "--nmax", "3000"]
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "bitruns.cli", *argv],
            stdout=subprocess.PIPE, stderr=err, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == EXIT_USAGE
        err.seek(0)
        assert err.read() == ""


def test_parser_choices_match_the_library():
    from bitruns import cli
    from bitruns.ensembles import StringClass
    from bitruns.verify import available_scopes

    assert list(cli.CLASS_CHOICES) == [c.value for c in StringClass]
    assert cli.SCOPE_CHOICES == tuple(available_scopes())


def test_package_exports_resolve_lazily():
    assert set(bitruns.__all__) <= set(dir(bitruns))
    for name in bitruns.__all__:
        value = getattr(bitruns, name)
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value, name
    star = {}
    exec("from bitruns import *", star)
    assert set(bitruns.__all__) <= set(star)
    with pytest.raises(AttributeError):
        bitruns.no_such_name


def test_package_exports_are_pinned():
    """Adding or removing a public name is a deliberate change here."""
    assert bitruns.__all__ == [
        "BitrunsError",
        "JointDistribution",
        "RationalGF",
        "RunStats",
        "StringClass",
        "bitsum_gfs",
        "class_member",
        "compositions",
        "count_gf",
        "cross_gf",
        "cross_report_oracle",
        "cross_report_table",
        "density_limits",
        "enumerate_classes",
        "fewones_closed_form",
        "fewones_count",
        "fewones_peak",
        "finite_vs_asymptote",
        "growth_constant",
        "joint_rs_report_table",
        "joint_table",
        "mean_asymptote",
        "oracle_tally",
        "rs_numerator_approx",
        "run_checks",
        "run_family",
        "run_stats",
        "run_variance_table",
        "variance_limit",
        "__version__",
    ]


def test_counts_print_integers_past_4300_digits(capsys):
    # 2^14285 is the first unconstrained count with 4301 digits, past
    # Python's default limit on int-to-str conversion
    code, out, err = run_cli(
        capsys, "--format", "csv", "counts", "--class", "unconstrained", "--nmax", "14285"
    )
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[-1] == f"14285,{2**14285}"


@pytest.mark.parametrize(
    "argv",
    [
        ("counts", "--class", "unconstrained", "--nmax", "100000000000"),
        ("crossgf", "--class", "multus", "--i", "3", "--j", "3", "--order", "100000000000"),
    ],
)
def test_series_order_bound_exits_before_expanding(capsys, monkeypatch, argv):
    from bitruns import catalog
    from bitruns.cli import MAX_SERIES_ORDER

    def forbidden(*args):
        raise AssertionError("expansion started")

    monkeypatch.setattr(catalog, "count_gf", forbidden)
    monkeypatch.setattr(catalog, "cross_gf", forbidden)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_LIMIT
    assert out == ""
    flag = argv[-2]
    assert err == (
        f"bitruns: {flag} 100000000000 exceeds the series order bound {MAX_SERIES_ORDER}\n"
    )
    assert MAX_SERIES_ORDER >= 14285


def _size_bounds():
    from bitruns import cli

    cap, t1 = cli.MAX_CAP_SUM_LENGTH, cli.MAX_TABLE1_LENGTH
    joint, fewones = cli.MAX_JOINT_LENGTH, cli.MAX_FEWONES_NMAX
    compositions = cli.MAX_COMPOSITIONS_N
    return [
        (("moments", "--class", "solus", "--lengths", f"10,{cap + 1}"), "--lengths", cap),
        (("asymptotics", "--class", "solus", "--lengths", f"{cap + 1}"), "--lengths", cap),
        (("table2", "--lengths", f"{cap + 1},5"), "--lengths", cap),
        (("table1", "--lengths", f"10,{t1 + 1}"), "--lengths", t1),
        (("joint", "--class", "solus", "--n", f"{joint + 1}"), "--n", joint),
        (("fewones", "--ones", "3", "--run", "2", "--nmax", f"{fewones + 1}"), "--nmax", fewones),
        (("compositions", "--n", f"{compositions + 1}"), "--n", compositions),
    ]


#: The functions that do each bounded command's work.
_WORK = {
    "moments": ("moments", "run_variance_table"),
    "asymptotics": ("asymptotics", "finite_vs_asymptote"),
    "table2": ("crossrun", "joint_rs_report_table"),
    "table1": ("crossrun", "cross_report_table"),
    "joint": ("jointdp", "joint_table"),
    "fewones": ("jointdp", "fewones_count"),
    "compositions": ("ensembles", "compositions"),
}


@pytest.mark.parametrize("argv,flag,bound", _size_bounds(), ids=[c[0][0] for c in _size_bounds()])
def test_size_bound_exits_before_any_work(capsys, monkeypatch, argv, flag, bound):
    """A length above its command's bound exits 3 with one line, before
    the command's work starts, and at once."""
    import importlib
    import time

    def forbidden(*args):
        raise AssertionError("work started")

    module, name = _WORK[argv[0]]
    monkeypatch.setattr(importlib.import_module(f"bitruns.{module}"), name, forbidden)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 0.5
    assert code == EXIT_LIMIT
    assert out == ""
    assert err == f"bitruns: {flag} {bound + 1} exceeds the length bound {bound}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("asymptotics", "--class", "persolus", "--lengths", "10"),
        ("moments", "--class", "solus", "--lengths", "10"),
    ],
)
def test_precision_bound_exits_before_any_work(capsys, monkeypatch, argv):
    """A --precision above MAX_PRECISION exits 3 with one line before
    any work, and the bound admits the places the limit constants are
    pinned at."""
    import importlib

    from bitruns.cli import MAX_PRECISION

    def forbidden(*args):
        raise AssertionError("work started")

    module, name = _WORK[argv[0]]
    monkeypatch.setattr(importlib.import_module(f"bitruns.{module}"), name, forbidden)
    code, out, err = run_cli(capsys, "--precision", str(MAX_PRECISION + 1), *argv)
    assert code == EXIT_LIMIT
    assert out == ""
    assert err == (
        f"bitruns: --precision {MAX_PRECISION + 1} exceeds the precision bound {MAX_PRECISION}\n"
    )
    assert MAX_PRECISION >= 3000


#: command -> (arguments before --lengths, the cli names of its length
#: bound and of its length-sum bound)
_SUM_BOUNDS = {
    "table2": ((), "MAX_CAP_SUM_LENGTH", "MAX_CAP_SUM_TOTAL"),
    "moments": (("--class", "solus"), "MAX_CAP_SUM_LENGTH", "MAX_CAP_SUM_TOTAL"),
    "asymptotics": (("--class", "solus"), "MAX_CAP_SUM_LENGTH", "MAX_CAP_SUM_TOTAL"),
    "table1": ((), "MAX_TABLE1_LENGTH", "MAX_TABLE1_TOTAL"),
}


@pytest.mark.parametrize("command", list(_SUM_BOUNDS))
def test_length_sum_bound_exits_before_any_work(capsys, monkeypatch, command):
    """The list of every length up to the length bound, each entry in
    bound but not their sum, exits 3 with one line before the command's
    work starts (for table2 that list is well over ten minutes of work,
    by the growth of dense sweeps); a list that sums to the bound itself
    gets to the work."""
    import importlib

    from bitruns import cli

    def forbidden(*args):
        raise AssertionError("work started")

    module, name = _WORK[command]
    monkeypatch.setattr(importlib.import_module(f"bitruns.{module}"), name, forbidden)
    args, top_name, bound_name = _SUM_BOUNDS[command]

    def run(lengths):
        return run_cli(capsys, command, *args, "--lengths", ",".join(map(str, lengths)))

    top = getattr(cli, top_name)
    every = range(1, top + 1)
    code, out, err = run(every)
    assert (code, out) == (EXIT_LIMIT, "")
    bound = getattr(cli, bound_name)
    assert err == (
        f"bitruns: --lengths sum to {sum(every)}, which exceeds the length-sum bound {bound}\n"
    )
    at_bound = [top] * (bound // top) + ([bound % top] if bound % top else [])
    with pytest.raises(AssertionError, match="work started"):
        run(at_bound)
    code, out, err = run(at_bound + [1])
    assert (code, out) == (EXIT_LIMIT, "")
    assert err.startswith(f"bitruns: --lengths sum to {bound + 1}, ")


@pytest.mark.parametrize(
    "argv,flag,least,value",
    [
        (("fewones", "--ones", "0", "--run", "3", "--nmax", "5"), "--ones", 1, 0),
        (("fewones", "--ones", "3", "--run", "0", "--nmax", "0"), "--run", 1, 0),
        (("crossgf", "--class", "multus", "--i", "0", "--j", "2"), "--i", 1, 0),
        (("crossgf", "--class", "unconstrained", "--i", "2", "--j", "-3"), "--j", 1, -3),
        (("crossgf", "--class", "multus", "--i", "2", "--j", "2", "--order", "-1"), "--order", 0, -1),
        (("counts", "--class", "solus", "--nmax", "-3"), "--nmax", 0, -3),
        (("fewones", "--ones", "3", "--run", "3", "--nmax", "-1"), "--nmax", 0, -1),
        (("joint", "--class", "solus", "--n", "-1"), "--n", 0, -1),
        (("compositions", "--n", "-1"), "--n", 0, -1),
        (("verify", "--nmax", "-1"), "--nmax", 0, -1),
        (("--precision", "-2", "moments", "--class", "solus"), "--precision", 0, -2),
        (("asymptotics", "--class", "solus", "--lengths", "0,10"), "--lengths", 1, 0),
    ],
)
def test_value_below_range_names_the_flag(capsys, monkeypatch, argv, flag, least, value):
    """A value below a flag's range is a usage error whose one line
    names the flag the user typed, raised before any work."""
    import bitruns.asymptotics
    import bitruns.catalog
    import bitruns.jointdp
    import bitruns.verify

    def forbidden(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(bitruns.asymptotics, "finite_vs_asymptote", forbidden)
    monkeypatch.setattr(bitruns.jointdp, "fewones_count", forbidden)
    monkeypatch.setattr(bitruns.catalog, "cross_gf", forbidden)
    monkeypatch.setattr(bitruns.verify, "run_checks", forbidden)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"bitruns: {flag} must be >= {least}, got {value}\n"


def test_size_bounds_admit_the_paper_sizes():
    from bitruns import cli

    # moments and asymptotics at n = 10^4; table1 beyond its n = 400 row
    assert cli.MAX_CAP_SUM_LENGTH >= 10000
    assert cli.MAX_TABLE1_LENGTH >= 400
    assert cli.MAX_TABLE1_LENGTH < cli.MAX_CAP_SUM_LENGTH
    # the README's dense sweeps: moments and table2 to 600, table1 to 150
    assert sum(range(1, 601)) <= cli.MAX_CAP_SUM_TOTAL
    assert sum(range(2, 151)) <= cli.MAX_TABLE1_TOTAL


# -- random command lines ------------------------------------------------------

_CLASSES = ["unconstrained", "solus", "multus", "bimultus", "persolus", "bogus"]
_SMALL = st.sampled_from(["0", "1", "2", "3"])
_BAD = st.sampled_from(["-1", "-4", "x", "1.5", ""])
_INTS = _SMALL | _SMALL | _BAD
_BITS = st.sampled_from(["0", "1", "0", "1", "2", "x"])
_LENGTHS = st.sampled_from(["1", "2,3", "5,1", "4"]) | st.sampled_from(
    ["0", "-1", "x", "", "1,,2"]
)


def _oversized(value):
    return _INTS | st.just(value)


#: Flags of each subcommand and the values drawn for them.  Oversized
#: values go to the flags with a documented bound, the only ones where a
#: huge value is refused before the work starts.
_GRID = {
    "counts": {"--class": st.sampled_from(_CLASSES), "--nmax": _oversized("20001")},
    "moments": {
        "--class": st.sampled_from(_CLASSES),
        "--bit": _BITS,
        "--lengths": _LENGTHS | st.just("3,10001"),
    },
    "table1": {"--lengths": _LENGTHS | st.just("1001")},
    "table2": {"--lengths": _LENGTHS | st.just("10001")},
    "joint": {"--class": st.sampled_from(_CLASSES), "--n": _oversized("1001")},
    "fewones": {"--ones": _INTS, "--run": _INTS, "--nmax": _oversized("1001")},
    "crossgf": {
        "--class": st.sampled_from(_CLASSES),
        "--i": _INTS,
        "--j": _INTS,
        "--order": _oversized("20001"),
    },
    "compositions": {"--n": _oversized("25")},
    "asymptotics": {
        "--class": st.sampled_from(_CLASSES),
        "--bit": _BITS,
        "--lengths": _LENGTHS | st.just("10001"),
    },
    "verify": {
        "--scope": st.sampled_from(["counts", "compositions", "joint-dp", "all", "bogus"]),
        "--nmax": _oversized("25"),
    },
    "bogus": {},
}


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(sorted(_GRID)))
    argv = [command]
    for flag, values in _GRID[command].items():
        # usually present: a missing required flag is a usage error
        if draw(st.sampled_from([True] * 9 + [False])):
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["plain", "csv", "json", "xml"]))]
    if draw(st.booleans()):
        argv += ["--precision", draw(_oversized("40") | st.just("20001"))]
    prefix = draw(st.sampled_from([[]] * 9 + [["--version"], ["--help"], ["-h"]]))
    return prefix + argv


@settings(max_examples=200, deadline=None)
@given(argv=_command_lines())
def test_random_command_lines_end_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage error, --help, --version
            code = exc.code
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_LIMIT, EXIT_VERIFY), (argv, code)
    assert "Traceback" not in err
    # argparse prints its usage block above the message; the message
    # itself is one line
    messages = [
        line for line in err.splitlines() if line and not line[0].isspace()
        and not line.startswith("usage:")
    ]
    assert len(messages) <= (code != EXIT_OK), (argv, err)
