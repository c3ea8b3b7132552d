"""Single entry point for every experiment, with reproducible config.

All structured output is JSONL (one object per line) on stdout or --out;
humans get progress and the verify table on stderr.  Identical configs
(including seed) produce byte-identical JSONL; wall-clock timing is only
attached under --timing because it would break that.  Every run is
single-threaded: this module sets OPENBLAS_NUM_THREADS=1 before numpy
loads, as numpy's OpenBLAS otherwise starts a worker thread that
busy-waits, and the CLI makes no BLAS call.  Its own imports run with
the collector off, the pattern the gc.freeze documentation gives: this
module calls gc.disable() first, and once those imports are done,
gc.freeze() and then gc.enable(), so the collector is left as it was
found, even when an import raises.  No collection walks the objects the
imports make (numpy's among them) while they are made: a short run ran
34-35 collections, 4-5 ms, while it imported with the collector on.
The freeze moves those objects to the permanent generation, so no later
collection walks them either, not even the one at interpreter exit, which
took about 25 ms of a short run.  It happens at import, not in main(),
since main() may run many times in one process (the tests call it
hundreds of times) and freezing there would pin each run's cyclic
garbage.  The parser gives only the invoked subcommand its arguments
(build_parser).  A run imports only its op's modules: `cluster`,
`dynamics` and `expsum` load in the handlers that use them, and the
progression-sum pipeline (`sieve`, `testfn`) only in the ops that sum over
a progression (`sums`, `expsum --op weighted|minor-scan`, `recur
--weighted`, `cluster`).  So `sums` never compiles or runs `cluster`,
`dynamics` or `expsum`, and `expsum --op discrepancy` runs none of
`dynamics`, `sieve` or `testfn`.

Exit codes: 0 success, 2 parameter/validation error, 1 internal error
(and 1 when `verify` finds a failing check).
"""

from __future__ import annotations

import gc

# The collector is off during the eager imports (see above).
_GC_WAS_ENABLED = gc.isenabled()
gc.disable()
try:
    import argparse
    import contextlib
    import importlib
    import json
    import math
    import os
    import sys
    import time
    from typing import TYPE_CHECKING

    # Before the first numpy import (see above), and overriding any
    # exported value, which would bring the busy-waiting worker back.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    import numpy as np

    from .admissible import (DEFAULT_SEED, AdmissibleTuple, ParameterError,
                             choose_b, compute_W, dense_tuple,
                             make_sieve_params, standard_tuple)
    from .primes import build_prime_table
    from .serialize import config_hash, dumps

    if TYPE_CHECKING:
        from .sieve import SumReport

    gc.freeze()  # after the eager imports (see above)
finally:
    if _GC_WAS_ENABLED:
        gc.enable()

# Names from the modules that only some ops use, each with its module.  A
# handler binds its op's names into this module's globals with _load before
# it runs, so a run imports only those modules; reading a name as an
# attribute of recurgaps.cli binds it too (PEP 562 __getattr__).  _load never
# rebinds a bound name, and the handlers look each name up when they call
# it, so a name patched on this module is the one that runs.
_LAZY = {
    "consecutive_filter": "cluster", "detector_sum": "cluster",
    "scan_clusters": "cluster",
    "BoxSet": "dynamics", "Cube": "dynamics", "KroneckerSystem": "dynamics",
    "khintchine_set": "dynamics",
    "shifted_prime_recurrence_set": "dynamics",
    "weighted_correlation_sum": "dynamics",
    "RationalPoint": "expsum", "classify_arc": "expsum",
    "expsum_discrepancy": "expsum", "expsum_main_term": "expsum",
    "minor_arc_scan": "expsum", "prime_expsum": "expsum",
    "weighted_expsum": "expsum",
    "omega_sum": "sieve", "weighted_prime_sum": "sieve",
    "default_test_function": "testfn", "piecewise_test_function": "testfn",
}


def _load(module: str) -> None:
    """Import recurgaps.<module> and bind its names of _LAZY not yet bound."""
    mod = importlib.import_module(f".{module}", __package__)
    for name, home in _LAZY.items():
        if home == module:
            globals().setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_LAZY[name])
    return globals()[name]


# Built-in settings, in the order the config echo lists them.
DEFAULTS = {
    "n": 10 ** 6, "theta": 0.1, "k": 2, "w": 5, "w0": 1, "b": None,
    "eps": 0.01, "m": 1, "consecutive": False, "system": "g=4",
    "set": "0", "f_spec": "default", "h": None, "tuple_style": "standard",
    "out": None, "seed": DEFAULT_SEED,
    "timing": False,
}

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither nan nor infinite."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text!r}")
    return val


def _int_field(text: str, what: str) -> int:
    """int(text), or a ParameterError naming the flag or key `what`."""
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"{what} must be an integer, got {text!r}") from None


def _float_field(text: str, what: str) -> float:
    """A finite float(text), or a ParameterError naming `what`."""
    try:
        return _finite_float(text)
    except argparse.ArgumentTypeError as exc:
        raise ParameterError(f"{what} {exc}") from None


# Each flag --<key> (underscores as dashes), in --help order, with its
# argparse options.  A config value is read by the same entry, so a file
# sets only what the flag accepts; only the keys of DEFAULTS have one, so
# --threads and the op flags after it are flags only.
_SWITCH = {"action": "store_const", "const": True}
_FLAGS = {
    "n": {"type": int}, "theta": {"type": _finite_float}, "k": {"type": int},
    "w": {"type": int}, "w0": {"type": int}, "b": {"type": int},
    "h": {"help": "explicit shifts, comma separated"},
    "tuple_style": {"choices": ("standard", "dense")},
    "eps": {"type": _finite_float}, "m": {"type": int},
    "consecutive": _SWITCH, "system": {}, "set": {}, "f_spec": {}, "out": {},
    # accepted for compatibility with scripts that pass --threads 1
    "threads": {"type": int, "choices": (1,),
                "help": "runs are single-threaded; only 1 is accepted"},
    "seed": {"type": int}, "timing": _SWITCH,
    "op": {"required": True, "choices": ("prime", "main-term", "weighted",
                                         "discrepancy", "classify", "minor-scan")},
    "a": {"type": int, "default": 1}, "q": {"type": int, "default": 1},
    "theta_offset": {"type": float, "default": 0.0},
    "d_mod": {"type": int, "default": 1}, "b_res": {"type": int, "default": 1},
    "i": {"type": int, "default": 0}, "delta": {"type": float, "default": 0.0},
    "grid": {"type": int, "default": 41},
    "alpha": {"type": _finite_float, "default": 0.0},
    "alphas": {"default": "0.6180339887498949"},
    "pmax": {"type": int}, "nmax": {"type": int},
    "weighted": {"action": "store_true",
                 "help": "emit the weighted correlation sums instead of sets"},
    "csv": {"help": "also write an n,primes,width summary"},
}


def _config_value(key: str, val: str):
    """The config value val of key, read as the flag --<key> reads it."""
    opts, what = _FLAGS[key], f"config key {key!r}"
    switch = opts is _SWITCH
    read = {int: _int_field, _finite_float: _float_field}.get(opts.get("type"))
    value = read(val, what) if read else val.lower() if switch else val
    choices = _TRUE + _FALSE if switch else opts.get("choices", ())
    if choices and value not in choices:
        raise ParameterError(f"{what} must be one of "
                             f"{'/'.join(map(str, choices))}, got {val!r}")
    return value in _TRUE if switch else value


def _open(path: str, flag: str, mode: str = "r"):
    """open(path, mode), or a ParameterError naming the flag that gave path."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ParameterError(
            f"{flag} {path!r}: {exc.strerror or exc}") from None


def _read_config_file(path: str) -> dict:
    out = {}
    with _open(path, "--config") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(f"bad config line (need key = value): {line!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            val = val.strip()
            if key not in DEFAULTS:
                raise ParameterError(f"unknown config key {key!r}")
            out[key] = _config_value(key, val)
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """flags > config file > builtin defaults."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(_read_config_file(args.config))
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["subcommand"] = args.subcommand
    return cfg


def parse_system(spec: str) -> KroneckerSystem:
    _load("dynamics")
    fields = {}
    for part in spec.split(","):
        if not part:
            continue
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in ("g", "d", "gamma0", "kappa"):
            raise ParameterError(
                f"unknown --system key {key!r}; use g, d, gamma0 or kappa")
        fields[key] = val.strip()
    g = _int_field(fields.get("g", "1"), "--system g")
    if g < 1:
        raise ParameterError(f"group order must be >= 1, got g={g}")
    d = _int_field(fields.get("d", "0"), "--system d")
    gamma0 = _int_field(fields.get("gamma0", str(1 % g)), "--system gamma0")
    kap = fields.get("kappa", "sqrt_primes")
    if kap == "sqrt_primes":
        return KroneckerSystem.with_sqrt_kappa(g=g, d=d, gamma0=gamma0)
    kappa = tuple(_float_field(x, "--system kappa") % 1.0
                  for x in kap.split(":"))
    return KroneckerSystem(g=g, d=d, gamma0=gamma0 % g, kappa=kappa)


def parse_set(spec: str, sys_: KroneckerSystem) -> BoxSet:
    _load("dynamics")
    if spec == "all":
        return BoxSet.whole_space(sys_)
    if spec in ("empty", "none"):
        return BoxSet.empty(sys_)
    pieces = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        gamma = _int_field(parts[0], "--set gamma")
        if sys_.d == 0:
            if len(parts) > 1:
                raise ParameterError(
                    f"piece {chunk!r} has torus data but the system has d=0")
            pieces.append((gamma, Cube((), 1.0)))
        else:
            if len(parts) != 3:
                raise ParameterError(
                    f"piece {chunk!r} must be gamma:c1,..,cd:side for d={sys_.d}")
            corner = tuple(_float_field(x, "--set corner")
                           for x in parts[1].split(","))
            side = _float_field(parts[2], "--set side")
            pieces.append((gamma, Cube(corner, side)))
    return BoxSet(g=sys_.g, d=sys_.d, pieces=tuple(pieces))


def _build_tuple(cfg: dict) -> AdmissibleTuple:
    if cfg.get("h"):
        return AdmissibleTuple(tuple(_int_field(x, "--h shift")
                                     for x in str(cfg["h"]).split(",")))
    if cfg["tuple_style"] == "dense":
        return dense_tuple(cfg["k"], cfg["w0"])
    return standard_tuple(cfg["k"], cfg["w0"])


def _build_params(cfg: dict):
    return make_sieve_params(N=cfg["n"], h=_build_tuple(cfg), theta=cfg["theta"],
                             w=cfg["w"], W0=cfg["w0"], b=cfg["b"],
                             consecutive=cfg["consecutive"])


def _build_F(cfg: dict, k: int):
    _load("testfn")
    if cfg["f_spec"] == "default":
        return default_test_function(k)
    try:
        spec = json.loads(cfg["f_spec"])
    except json.JSONDecodeError as exc:
        raise ParameterError(f"--f-spec must be JSON: {exc}") from None
    return piecewise_test_function(k, spec)


class _Emitter:
    # the output path has no effect on computed values, so it stays out of
    # the reproducibility echo/hash
    def __init__(self, cfg: dict, stream):
        self.cfg = {k: v for k, v in cfg.items() if k != "out"}
        self.hash = config_hash(self.cfg)
        self.stream = stream
        self.timing = cfg.get("timing", False)
        self.restart_clock()

    def restart_clock(self) -> None:
        """Start the next report's wall_ms from now."""
        self._t0 = time.perf_counter()

    def emit(self, record: dict) -> None:
        line = dict(record)
        line["config_hash"] = self.hash
        line["config"] = self.cfg
        self.stream.write(dumps(line) + "\n")

    def emit_report(self, rep: SumReport) -> None:
        wall = (time.perf_counter() - self._t0) * 1000.0 if self.timing else None
        self.restart_clock()
        self.emit({"op": rep.op, "measured": rep.measured,
                   "predicted": rep.predicted, "ratio": rep.ratio,
                   "count": rep.count, "bound": rep.bound,
                   "wall_ms": wall, "params": rep.params})


def _cmd_tuple(cfg: dict, em: _Emitter, table, args) -> int:
    tup = _build_tuple(cfg)
    W = compute_W(cfg["w"], cfg["w0"])
    b, forced = choose_b(tup, cfg["w"], cfg["w0"], consecutive=cfg["consecutive"])
    em.emit({"op": "tuple", "h": list(tup.h), "W": W, "b": b,
             "forced": [list(x) for x in forced]})
    return 0


def _cmd_sums(cfg: dict, em: _Emitter, table, args) -> int:
    _load("sieve")
    p = _build_params(cfg)
    F = _build_F(cfg, p.k)
    t = table(p.top)
    em.emit_report(omega_sum(p, F))
    for i in range(p.k + 1):
        em.emit_report(weighted_prime_sum(p, F, i, t))
    return 0


def _cmd_expsum(cfg: dict, em: _Emitter, table, args) -> int:
    _load("expsum")
    op = args.op
    if op == "classify":
        label = classify_arc(args.alpha, cfg["n"])
        em.emit({"op": "classify_arc", "alpha": args.alpha, "kind": label.kind,
                 "a": label.a, "q": label.q, "P": label.P, "Q": label.Q})
        return 0
    if op in ("discrepancy", "prime", "main-term") and cfg["n"] < 1:
        # the sums refuse x < 1 too, but prime and discrepancy build a table first
        raise ParameterError(f"--n must be >= 1, got {cfg['n']}")
    if op == "discrepancy":
        val = expsum_discrepancy(args.q, args.delta, cfg["n"], args.grid,
                                 table(2 * cfg["n"]))
        em.emit({"op": "expsum_discrepancy", "q": args.q, "delta": args.delta,
                 "x": cfg["n"], "grid": args.grid, "value": val,
                 "semantics": "grid lower bound"})
        return 0
    # minor-scan reads none of --a, --q and --theta-offset
    pt = (RationalPoint(args.a, args.q, args.theta_offset)
          if op in ("prime", "main-term", "weighted") else None)
    if op in ("prime", "main-term"):
        x, D, b = cfg["n"], args.d_mod, args.b_res
        val = (prime_expsum(x, D, b, pt, table(2 * x)) if op == "prime"
               else expsum_main_term(x, D, b, pt))  # main-term reads no window
        em.emit({"op": "prime_expsum" if op == "prime" else "expsum_main_term",
                 "x": x, "D": D, "b": b, "a": pt.a, "q": pt.q,
                 "theta_offset": pt.theta, "value": val})
        return 0
    p = _build_params(cfg)  # weighted or minor-scan
    if not 0 <= args.i <= p.k:
        raise ParameterError(f"--i must be in 0..{p.k}, got {args.i}")
    F = _build_F(cfg, p.k)
    if op == "weighted":
        em.emit_report(weighted_expsum(p, F, args.i, pt, table(p.top)))
        return 0
    alphas = [_float_field(x, "--alphas entry") for x in args.alphas.split(",")]
    for rec in minor_arc_scan(p, F, args.i, alphas, table(p.top)):
        em.emit({"op": "minor_arc_scan", **rec})
    return 0


def _cmd_recur(cfg: dict, em: _Emitter, table, args) -> int:
    _load("dynamics")
    for flag in ("pmax", "nmax"):
        bound = getattr(args, flag)
        if bound is not None and bound < 1:
            raise ParameterError(f"--{flag} must be >= 1, got {bound}")
    sys_ = parse_system(cfg["system"])
    A = parse_set(cfg["set"], sys_)
    if args.weighted:
        p = _build_params(cfg)
        F = _build_F(cfg, p.k)
        t = table(p.top)
        for i in range(p.k + 1):
            em.emit_report(weighted_correlation_sum(
                p, F, sys_, A, i, cfg["eps"], t))
        return 0
    if args.pmax is not None:
        ps = shifted_prime_recurrence_set(sys_, A, cfg["eps"], args.pmax,
                                          table(args.pmax))
        em.emit({"op": "shifted_prime_recurrence_set", "eps": cfg["eps"],
                 "pmax": args.pmax, "count": len(ps),
                 "primes": [int(x) for x in ps]})
    else:
        nmax = args.nmax if args.nmax is not None else 10 ** 4
        ns = khintchine_set(sys_, A, cfg["eps"], nmax)
        gaps = np.diff(ns) if len(ns) > 1 else np.array([0])
        em.emit({"op": "khintchine_set", "eps": cfg["eps"], "nmax": nmax,
                 "count": len(ns), "max_gap": int(gaps.max()),
                 "values": [int(x) for x in ns]})
    return 0


def _cmd_cluster(cfg: dict, em: _Emitter, table, args) -> int:
    _load("cluster")
    sys_ = parse_system(cfg["system"])
    A = parse_set(cfg["set"], sys_)
    p = _build_params(cfg)
    F = _build_F(cfg, p.k)
    t = table(p.top)
    # opened first, so that a bad path is refused before any record
    with (_open(args.csv, "--csv", "w") if args.csv
          else contextlib.nullcontext()) as csv:
        em.emit_report(detector_sum(p, F, sys_, A, cfg["eps"], cfg["m"], t))
        reports = scan_clusters(p, sys_, A, cfg["eps"], cfg["m"], t)
        reports = consecutive_filter(reports, p, t)
        for rep in reports:
            em.emit({"op": "cluster", **rep.as_dict()})
        em.emit({"op": "cluster_summary", "clusters": len(reports),
                 "max_width": max((r.width for r in reports), default=0)})
        if csv:
            csv.write("n,primes,width,consecutive\n")
            for rep in reports:
                csv.write("%d,%s,%d,%s\n" % (
                    rep.n, ";".join(str(q) for q in rep.primes), rep.width,
                    rep.consecutive))
    return 0


def _cmd_verify(cfg: dict, em: _Emitter, table, args) -> int:
    from . import acceptance  # the suite's import cost is paid by verify only
    results = acceptance.run_all(seed=cfg["seed"])
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if (r.passed and r.runtime_ok) else "FAIL"
        if status == "FAIL":
            failed += 1
        print(f"[{status}] {r.num:>2}  {r.name:<{width}}  ({r.elapsed_s:.1f}s)",
              file=sys.stderr)
        em.emit(r.record())
    print(f"{len(results) - failed}/{len(results)} checks passed",
          file=sys.stderr)
    return 1 if failed else 0


# Each subcommand's handler, help and flags (keys of _FLAGS), in --help
# order; every subcommand also takes --out, --threads, --seed and --timing.
_PIPELINE = {"n", "theta", "k", "w", "w0", "b", "h", "tuple_style", "f_spec"}
_COMMANDS = {
    "tuple": (_cmd_tuple, "admissible tuple, W, and residue b",
              {"k", "w", "w0", "h", "tuple_style", "consecutive"}),
    "sums": (_cmd_sums, "progression sums vs main terms", _PIPELINE),
    "expsum": (_cmd_expsum, "exponential sums and arcs",
               _PIPELINE | {"op", "a", "q", "theta_offset", "d_mod", "b_res",
                            "i", "delta", "grid", "alpha", "alphas"}),
    "recur": (_cmd_recur, "return sets: integers or shifted primes",
              _PIPELINE | {"eps", "system", "set", "pmax", "nmax", "weighted"}),
    "cluster": (_cmd_cluster, "detector sum and direct cluster scan",
                _PIPELINE | {"eps", "m", "consecutive", "system", "set", "csv"}),
    "verify": (_cmd_verify, "run the built-in verification suite", set()),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The CLI's parser, for the command line argv.

    Every subcommand is registered with its name and help, but only those
    that argv names get their arguments, or all of them when it names none
    (or is None): adding all six subcommands' arguments took several ms of
    a short run.  The subcommand a command line runs is one of its tokens,
    and the others are never parsed, so the parser reads argv as the full
    one does, help and error messages included.
    """
    ap = argparse.ArgumentParser(
        prog="recurgaps",
        description="Prime clusters with recurrent shifts on explicit "
                    "rotation systems: sieve sums, exponential sums, exact "
                    "correlations, and cluster scans.")
    ap.add_argument("--config", help="key = value file; flags override it")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    parsers = {name: sub.add_parser(name, help=text)
               for name, (_, text, _) in _COMMANDS.items()}
    wanted = [name for name in parsers if name in (argv or ())] or parsers
    for name in wanted:
        keys = _COMMANDS[name][2] | {"out", "threads", "seed", "timing"}
        for key, opts in _FLAGS.items():
            if key in keys:
                parsers[name].add_argument("--" + key.replace("_", "-"), **opts)

    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        cfg = _resolve(args)
        out = _open(cfg["out"], "--out", "w") if cfg.get("out") else sys.stdout
        try:
            em = _Emitter(cfg, out)

            def table(top: int):
                """The base primes of a window whose last value is top."""
                t = build_prime_table(math.isqrt(top) + 1)
                em.restart_clock()  # wall_ms never counts the table build
                return t

            return _COMMANDS[args.subcommand][0](cfg, em, table, args)
        finally:
            if cfg.get("out"):
                out.close()
    except ValueError as exc:  # ParameterError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 -- report, then fail hard
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
