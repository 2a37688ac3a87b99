"""Exact run-length and bitsum statistics of constrained bitstrings.

Five ensembles of 0/1 strings are supported: unconstrained strings,
strings with no two adjacent 1s (solus), strings where every 1 has an
adjacent 1 (multus), the two-sided variant where every 0 also has an
adjacent 0 (bimultus), and isolated 1s with clumped 0s (persolus).
The package computes, exactly over the rationals:

* ensemble counts and bitsum statistics from rational generating
  functions;
* moments of the longest run of a designated bit;
* correlations between the two longest runs and between the longest
  zero run and the bitsum;
* few-ones counts with piecewise polynomial closed forms;
* conjectured asymptotes and limit constants at 50-digit precision.

Every closed-form pipeline is verifiable against exhaustive enumeration
via :mod:`bitruns.verify` or ``bitruns verify`` on the command line.
"""

import importlib

#: The public names of each module.  A name is imported from its module
#: on first access (PEP 562), so importing the package, or running one CLI
#: command, loads only the modules that are used.
_EXPORTS = {
    "asymptotics": (
        "density_limits",
        "finite_vs_asymptote",
        "growth_constant",
        "mean_asymptote",
        "variance_limit",
    ),
    "catalog": ("bitsum_gfs", "count_gf", "cross_gf", "run_family"),
    "crossrun": ("cross_report_oracle", "cross_report_table", "joint_rs_report_table"),
    "ensembles": (
        "JointDistribution",
        "RunStats",
        "StringClass",
        "class_member",
        "enumerate_joint",
        "oracle_moment",
        "run_stats",
        "to_composition",
    ),
    "errors": ("BitrunsError",),
    "jointdp": (
        "fewones_closed_form",
        "fewones_count",
        "fewones_peak",
        "joint_table",
        "rs_numerator_approx",
    ),
    "moments": ("run_variance_table",),
    "series": ("RationalGF",),
    "verify": ("run_checks",),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
# a name listed under two modules would silently resolve to the last
assert len(_HOMES) == sum(map(len, _EXPORTS.values())), "a name has two homes"

__version__ = "1.0.0"

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
