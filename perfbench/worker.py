"""Traced CLI child: ``python3 worker.py TRACE_FILE ARGS...`` behaves like
``python3 -m arctanderiv ARGS...`` and also writes per-layer totals to
TRACE_FILE.

Before calling ``cli.main``, it wraps the public functions of each package
module in every namespace that binds them: modules import each other's
functions by name (``from .combinatorics import binomial``) and cli keeps
some in a dict, so patching only the defining module would miss calls.

Each wrapped call records a span (name, start, end, parent) in memory; the
spans are reduced to self time per name (span minus its child spans) and
written once, when the command ends.  ``binomial`` runs millions of times per
sweep, so it gets no span: every call is counted and every
BINOMIAL_SAMPLE-th call is timed, which estimates its total time without
timing each call.  Its time stays inside its callers' self time.
"""

import functools
import json
import sys
import time

perf = time.perf_counter

BINOMIAL_SAMPLE = 16

# (module, attribute path, layer name).  Functions that move together in the
# per-layer table share a name.
SPANS = (
    ("polynomial", "Polynomial.__mul__", "polynomial.mul"),
    ("polynomial", "Polynomial.evaluate", "polynomial.evaluate"),
    ("polynomial", "ArctanRational.evaluate", "polynomial.evaluate"),
    ("polynomial", "Polynomial.derivative", "polynomial.derivative"),
    ("polynomial", "ArctanRational.derivative", "polynomial.derivative"),
    ("composition", "DerivativeJet.of_reciprocal", "composition.reciprocal_jet"),
    ("composition", "square_chain_rule", "composition.square_chain"),
    ("arctan", "q_polynomial", "arctan.q_polynomial"),
    ("arctan", "expansion_coefficient", "arctan.expansion_coefficient"),
    ("arctan", "arctan_derivative_closed", "arctan.closed"),
    ("arctan", "arctan_derivative_expanded", "arctan.expanded"),
    ("arctan", "arctan_derivative_oracle", "arctan.oracle"),
    ("arctan", "arctan_derivative_pointwise", "arctan.pointwise"),
    ("arctan", "crosscheck", "arctan.crosscheck"),
    ("combinatorics", "pochhammer", "combinatorics.pochhammer"),
    ("identities", "alternating_binomial_sum", "identities.alternating_sum"),
    ("identities", "alternating_binomial_closed_form", "identities.closed_form"),
    ("identities", "weighted_binomial_sum", "identities.weighted_sum"),
    ("identities", "terminating_2f1", "identities.terminating_2f1"),
    ("identities", "check_binomial_identity", "identities.check"),
    ("identities", "check_weighted_identity", "identities.check"),
    ("identities", "check_hypergeometric_sweep", "identities.check"),
    ("reports", "CheckReport.count_case", "reports.count_case"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = [-1]
        self.calls = {}
        self.counts = {
            "polynomial.divmod_calls": 0,
            "polynomial.factors_removed": 0,
            "combinatorics.binomial_calls": 0,
        }
        self.binomial_sampled_s = 0.0
        self.reports = {}
        self.missing = []

    def span(self, name, fn):
        spans, stack, calls = self.spans, self.stack, self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            index = len(spans)
            spans.append([name, perf(), 0.0, stack[-1]])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf()

        return wrapper

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(self.calls, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += end - start - inner
        return totals

    def summary(self):
        return {
            "self_s": self.self_times(),
            "calls": self.calls,
            "counts": {
                **self.counts,
                "combinatorics.binomial_s": self.binomial_sampled_s * BINOMIAL_SAMPLE,
                "reports.failures_kept": sum(len(r.failures) for r in self.reports.values()),
                **row_cache_counts(),
            },
            "spans": len(self.spans),
            "missing": self.missing,
        }


def row_cache_counts():
    cache = getattr(sys.modules["arctanderiv.combinatorics"], "_binomial_row", None)
    if not hasattr(cache, "cache_info"):
        return {"combinatorics.row_hits": 0, "combinatorics.row_misses": 0}
    info = cache.cache_info()
    return {"combinatorics.row_hits": info.hits, "combinatorics.row_misses": info.misses}


def resolve(module, path):
    """The raw attribute at dotted `path` in `module` (a function, or the
    classmethod wrapping one), or None."""
    owner = module
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    return vars(owner).get(attribute) if owner is not None else None


def replace_everywhere(modules, original, replacement):
    """Rebind every module-level name, class attribute and module-level dict
    value that is `original` to `replacement`."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif isinstance(value, dict):
                for k, v in value.items():
                    if v is original:
                        value[k] = replacement
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for k, v in list(vars(value).items()):
                    if v is original:
                        setattr(value, k, replacement)


def install(tracer, package):
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == package.__name__]

    def module(name):
        return sys.modules.get(f"{package.__name__}.{name}")

    def patch(module_name, path, make):
        raw = resolve(module(module_name), path) if module(module_name) else None
        if raw is None:
            tracer.missing.append(f"{module_name}.{path}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            replace_everywhere(modules, raw, type(raw)(make(raw.__func__)))
        else:
            replace_everywhere(modules, raw, make(raw))

    for module_name, path, name in SPANS:
        patch(module_name, path, lambda fn, name=name: tracer.span(name, fn))

    counts = tracer.counts

    def canonicalize(fn):
        traced = tracer.span("polynomial.canonicalize", fn)

        def init(self, *args, **kwargs):
            traced(self, *args, **kwargs)
            requested = args[1] if len(args) > 1 else kwargs.get("exponent", 0)
            counts["polynomial.factors_removed"] += requested - self.exponent

        return functools.wraps(fn)(init)

    def divmod_counter(fn):
        def counted(self, divisor):
            counts["polynomial.divmod_calls"] += 1
            return fn(self, divisor)

        return functools.wraps(fn)(counted)

    def binomial_counter(fn):
        def counted(*args):
            calls = counts["combinatorics.binomial_calls"] = counts["combinatorics.binomial_calls"] + 1
            if calls % BINOMIAL_SAMPLE:
                return fn(*args)
            start = perf()
            value = fn(*args)
            tracer.binomial_sampled_s += perf() - start
            return value

        return functools.wraps(fn)(counted)

    def report_keeper(fn):
        reports = tracer.reports

        def count_case(self, ok, **context):
            reports[id(self)] = self
            return fn(self, ok, **context)

        return functools.wraps(fn)(count_case)

    # count_case is wrapped twice: once to remember each report, once (above)
    # for its span.
    patch("polynomial", "ArctanRational.__init__", canonicalize)
    patch("polynomial", "Polynomial.__divmod__", divmod_counter)
    patch("combinatorics", "binomial", binomial_counter)
    patch("reports", "CheckReport.count_case", report_keeper)


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import arctanderiv
    from arctanderiv import cli

    tracer = Tracer()
    install(tracer, arctanderiv)
    run = tracer.span("cli", cli.main)
    try:
        code = run(argv)
    finally:
        with open(trace_path, "w") as handle:
            json.dump(tracer.summary(), handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
