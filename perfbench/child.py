"""Run one recurgaps CLI invocation for the benchmark and report on it.

    python3 perfbench/child.py REPORT TRACE CLI-ARG...

Runs ``recurgaps.cli.main(CLI-ARG...)`` in this process, with the CLI's
own stdout, and exits with its return code.  REPORT receives one JSON
object: the CLOCK_MONOTONIC time at which the run's first
``build_prime_table`` returned (the end of set-up), and, when TRACE is 1,
the per-layer metrics.

Tracing wraps, from outside, the module-level names through which the
recurgaps modules call each other; no file of the package is changed.
Coarse calls become spans (name, start, end, parent); hot calls, such as
one ``correlation`` per progression element, are counted and their time
summed.  Everything is kept in memory and written once when the run ends.
The tracer is not thread-safe, so traced runs use ``--threads 1``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """Spans and per-call tallies, held in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._open: list[int] = []
        self.tallies = defaultdict(lambda: [0, 0.0])  # name -> [calls, s]
        self.counts = defaultdict(int)
        self.absent: list[str] = []

    def span(self, name, fn, on_return=None):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = time.perf_counter()
            if on_return:
                on_return(args, result)
            return result
        return wrapper

    def tally(self, name, fn, on_return=None):
        cell = self.tallies[name]

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += time.perf_counter() - t0
            if on_return:
                on_return(args, result)
            return result
        return wrapper

    def span_seconds(self, name) -> float:
        return sum((e - s for n, s, e, _ in self.spans if n == name), 0.0)


def _patch(tracer: Tracer, mods: dict, name: str, attr: str, make) -> None:
    """Replace recurgaps.<name>.<attr> by make(original); note it if gone."""
    module = mods.get(name)
    if module is None or not hasattr(module, attr):
        tracer.absent.append(f"recurgaps.{name}.{attr}")
        return
    setattr(module, attr, make(getattr(module, attr)))


def install(tracer: Tracer, mods: dict) -> None:
    """Wrap every traced boundary of the recurgaps modules in ``mods``."""
    counts = tracer.counts

    def table_built(args, table):
        counts["primes.table_limit"] = max(counts["primes.table_limit"],
                                           int(table.limit))
        counts["primes.table_bytes"] += int(table.spf.nbytes
                                            + table.primes.nbytes)

    def dumped(args, text):
        counts["serialize.bytes"] += len(text.encode()) + 1  # + newline

    def scanned(args, reports):
        counts["cluster.reports"] += len(reports)

    def phase_terms(args, result):
        x, theta = args[0], args[1]
        if theta != 0.0 and abs(theta - round(theta)) != 0.0:
            counts["expsum.geometric_phase_terms"] += x + 1

    # Calls made by the CLI: one span each, the CLI's children.
    for attr, name, hook in (
            ("build_prime_table", "primes.table_build", table_built),
            ("omega_sum", "sieve.omega_sum", None),
            ("weighted_prime_sum", "sieve.weighted_prime_sum", None),
            ("expsum_discrepancy", "expsum.discrepancy", None),
            ("detector_sum", "cluster.detector", None),
            ("scan_clusters", "cluster.scan", scanned),
            ("consecutive_filter", "cluster.filter", None)):
        _patch(tracer, mods, "cli", attr,
               lambda fn, name=name, hook=hook: tracer.span(name, fn, hook))
    _patch(tracer, mods, "cli", "dumps",
           lambda fn: tracer.tally("serialize.dumps", fn, dumped))

    # Calls between modules.
    _patch(tracer, mods, "expsum", "geometric_phase_sum",
           lambda fn: tracer.tally("expsum.geometric_phase", fn, phase_terms))
    _patch(tracer, mods, "expsum", "prime_expsum",
           lambda fn: tracer.tally("expsum.prime_expsum", fn))
    _patch(tracer, mods, "dynamics", "correlation",
           lambda fn: tracer.tally("dynamics.correlation", fn))

    # The reduction each module imports; the kernel it is handed is that
    # module's own work, so it is timed apart from the reduction around it.
    for layer in ("sieve", "expsum", "dynamics", "cluster"):
        _patch(tracer, mods, layer, "chunked_sum",
               lambda fn, layer=layer: _reduction(tracer, layer, fn))


def _reduction(tracer: Tracer, layer: str, fn):
    counts = tracer.counts
    reduce = tracer.span("accumulate.chunked_sum", fn)

    def chunked_sum(ns, kernel, *args, **kwargs):
        counts["accumulate.calls"] += 1
        counts["accumulate.terms"] += len(ns)
        return reduce(ns, tracer.tally(f"{layer}.kernel", kernel),
                      *args, **kwargs)
    return chunked_sum


# Boundaries each per-layer metric is read from; a metric whose boundary a
# later version of the package no longer has is reported as absent.
_SOURCES = {
    "primes.": ["recurgaps.cli.build_prime_table"],
    "sieve.kernel_s": ["recurgaps.sieve.chunked_sum"],
    "accumulate.": ["recurgaps.%s.chunked_sum" % m
                    for m in ("sieve", "expsum", "dynamics", "cluster")],
    "expsum.geometric_phase": ["recurgaps.expsum.geometric_phase_sum"],
    "expsum.prime_expsum": ["recurgaps.expsum.prime_expsum"],
    "dynamics.correlation": ["recurgaps.dynamics.correlation"],
    "cluster.detector_s": ["recurgaps.cli.detector_sum"],
    "cluster.kernel_s": ["recurgaps.cluster.chunked_sum"],
    "cluster.scan_s": ["recurgaps.cli.scan_clusters"],
    "cluster.reports": ["recurgaps.cli.scan_clusters"],
    "cluster.filter_s": ["recurgaps.cli.consecutive_filter"],
    "serialize.": ["recurgaps.cli.dumps"],
}


def layer_metrics(tracer: Tracer, run_s: float, import_s: float) -> dict:
    """Per-layer figures of one traced run, keyed by benchmark metric name."""
    t, c = tracer.tallies, tracer.counts
    kernel_s = {layer: t[f"{layer}.kernel"][1]
                for layer in ("sieve", "expsum", "dynamics", "cluster")}
    reduce_s = (tracer.span_seconds("accumulate.chunked_sum")
                - sum(kernel_s.values()))
    terms = c["accumulate.terms"]
    # CLI self time: the run minus the calls it makes into other layers.
    children_s = sum(e - s for _, s, e, parent in tracer.spans
                     if parent is None)
    out = {
        "primes.table_build_s": tracer.span_seconds("primes.table_build"),
        "primes.table_limit": c["primes.table_limit"],
        "primes.table_bytes": c["primes.table_bytes"],
        "sieve.kernel_s": kernel_s["sieve"],
        "accumulate.reduce_s": reduce_s,
        "accumulate.calls": c["accumulate.calls"],
        "accumulate.terms": terms,
        "accumulate.ns_per_term": reduce_s / terms * 1e9 if terms else 0.0,
        "expsum.geometric_phase_s": t["expsum.geometric_phase"][1],
        "expsum.geometric_phase_calls": t["expsum.geometric_phase"][0],
        "expsum.geometric_phase_terms": c["expsum.geometric_phase_terms"],
        "expsum.prime_expsum_s": t["expsum.prime_expsum"][1],
        "expsum.prime_expsum_calls": t["expsum.prime_expsum"][0],
        "dynamics.correlation_calls": t["dynamics.correlation"][0],
        "dynamics.correlation_s": t["dynamics.correlation"][1],
        "cluster.detector_s": tracer.span_seconds("cluster.detector"),
        "cluster.kernel_s": kernel_s["cluster"],
        "cluster.scan_s": tracer.span_seconds("cluster.scan"),
        "cluster.filter_s": tracer.span_seconds("cluster.filter"),
        "cluster.reports": c["cluster.reports"],
        "serialize.dumps_s": t["serialize.dumps"][1],
        "serialize.records": t["serialize.dumps"][0],
        "serialize.bytes": c["serialize.bytes"],
        "cli.import_s": import_s,
        "cli.self_s": run_s - children_s - t["serialize.dumps"][1],
    }
    absent = sorted(name for name in out
                    for prefix, sources in _SOURCES.items()
                    if name.startswith(prefix)
                    and any(s in tracer.absent for s in sources))
    return {"metrics": out, "absent": absent, "spans": tracer.spans}


def main(argv: list[str]) -> int:
    report_path, traced, cli_args = argv[0], argv[1] == "1", argv[2:]
    t0 = time.perf_counter()
    import recurgaps.cli as cli
    import_s = time.perf_counter() - t0
    report: dict = {"setup_at": None}

    tracer = Tracer()
    if traced:
        mods = {}
        for name in ("cli", "sieve", "expsum", "dynamics", "cluster"):
            try:
                mods[name] = importlib.import_module(f"recurgaps.{name}")
            except ModuleNotFoundError:
                mods[name] = None
        install(tracer, mods)

    def stamp(fn):
        def build_prime_table(*args, **kwargs):
            table = fn(*args, **kwargs)
            if report["setup_at"] is None:
                report["setup_at"] = time.monotonic()
            return table
        return build_prime_table
    _patch(tracer, {"cli": cli}, "cli", "build_prime_table", stamp)

    t0 = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        run_s = time.perf_counter() - t0
        sys.stdout.flush()
        if traced:
            report.update(layer_metrics(tracer, run_s, import_s))
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
