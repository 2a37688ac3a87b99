"""Run one bitruns CLI command in-process with a span around each layer.

    PYTHONPATH=src python3 bench/traced.py table1 --lengths 10,20

The program itself is not changed.  Before the command runs, the public
function of each layer is replaced, at every module name it is bound
to, by a wrapper that records its self time (its duration minus the
spans it caused) and exact work counts.  The command's stdout is
captured, and one JSON object is printed instead: that stdout, the exit
code, the wall time of `cli.main`, self time per layer and the counts.
A hook whose target no longer exists is listed under "unhooked".
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from collections import Counter

import bitruns
from bitruns import cli, crossrun, ensembles, jointdp, moments, render, series, verify


class Tracer:
    """Spans and counters kept in memory for one command."""

    def __init__(self):
        self.self_s = Counter()
        self.counts = Counter()
        self.unhooked = []
        self.distinct = set()
        self._stack = []  # [layer, seconds covered by child spans]

    def innermost(self):
        return self._stack[-1][0] if self._stack else None

    def span(self, module, name, layer, after=None):
        """Wrap module.name as a span of `layer`; `after(args, result)`
        runs inside the span to count the work done."""
        fn = getattr(module, name, None)
        if fn is None:
            self.unhooked.append(f"{module.__name__}.{name}")
            return
        stack, self_s, counts = self._stack, self.self_s, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                counts[layer + ".calls"] += 1
                if after is not None:
                    after(args, result)
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        _rebind(fn, traced)

    def hook(self, owner, name, before):
        """Call `before(args)` ahead of owner.name, without a span."""
        fn = getattr(owner, name, None)
        if fn is None:
            self.unhooked.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before(args)
            return fn(*args, **kwargs)

        setattr(owner, name, counted)


def _rebind(fn, wrapper) -> None:
    """Point every bitruns module name bound to fn at wrapper, so callers
    that imported fn by name reach the wrapper too."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "bitruns":
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    counts = tracer.counts

    def coeffs(args, result):
        counts["series.coeffs"] += len(result.coeffs)

    def strings(args, result):
        counts["ensembles.strings"] += 1 << args[0]
        counts["ensembles.members"] += result.total
        tracer.distinct.add((args[0], args[1]))

    tracer.span(series, "gf_expand", "series.gf_expand", coeffs)
    tracer.span(moments, "moment_numerator", "moments.moment_numerator")
    tracer.span(moments, "run_variance_report", "moments.run_variance_report")
    tracer.span(crossrun, "cross_numerator", "crossrun.cross_numerator")
    tracer.span(crossrun, "cross_report_table", "crossrun.report")
    tracer.span(jointdp, "joint_table", "jointdp.joint_table")
    tracer.span(jointdp, "joint_rs_report", "jointdp.joint_rs_report")
    tracer.span(ensembles, "enumerate_joint", "ensembles.enumerate_joint", strings)
    tracer.span(verify, "run_checks", "verify")
    for name in ("format_fraction", "signed_sqrt_ratio", "format_float"):
        tracer.span(render, name, "render")

    # Each telescoping term (moments) and each (i, j) pair (crossrun)
    # scales one series; count those scalings where they happen.
    per_layer = {
        "moments.moment_numerator": "moments.hk_terms",
        "crossrun.cross_numerator": "crossrun.pairs",
    }

    def scaled(args):
        key = per_layer.get(tracer.innermost())
        if key:
            counts[key] += 1

    def layer_built(args):
        counts["jointdp.cells"] += sum(map(len, args[1]))

    tracer.hook(series.TruncatedSeries, "scale", scaled)
    tracer.hook(getattr(jointdp, "_LayerBuilder", None), "_push", layer_built)


def _hit_ratio() -> float:
    cached = getattr(moments, "_numerator_cached", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return 0.0
    info = cached.cache_info()
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


def _layer_bytes() -> int:
    """Computed size of the F and P layers the joint DP holds: the lists
    and the integers in them, by sys.getsizeof.  Not a measured RSS."""
    total = 0
    for builder in getattr(jointdp, "_BUILDERS", {}).values():
        for layers in (getattr(builder, "F", []), getattr(builder, "P", [])):
            total += sys.getsizeof(layers)
            for layer in layers:
                total += sys.getsizeof(layer)
                for row in layer:
                    total += sys.getsizeof(row) + sum(map(sys.getsizeof, row))
    return total


def main(argv: list) -> int:
    tracer = Tracer()
    install(tracer)
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    wall = time.perf_counter() - t0
    t1 = time.perf_counter()
    counts = dict(tracer.counts)
    counts["ensembles.distinct"] = len(tracer.distinct)
    doc = {
        "exit": code if isinstance(code, int) else 1,
        "stdout": out.getvalue(),
        "source": bitruns.__file__,
        "wall_s": wall,
        "self_s": dict(tracer.self_s),
        "counts": counts,
        "hit_ratio": _hit_ratio(),
        "layer_bytes": _layer_bytes(),
        "unhooked": tracer.unhooked,
    }
    doc["post_s"] = time.perf_counter() - t1
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
