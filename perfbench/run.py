"""recurgaps benchmark: fixed CLI workloads, timed end to end, traced by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each repetition starts the CLI
(``src/recurgaps``) as a fresh single-threaded child process, one at a time,
and repeats until ``--seconds`` have passed (at least MIN_REPS times).  Every
repetition's stdout is checked against a reference taken from the source
before any optimisation (``refs.json``, written by ``make_refs.py``).

``--trace 0`` reports end-to-end figures: the median wall time, child CPU
time and set-up time (child start to the return of the run's first
prime-table build) of a run's repetitions, each scaled to a fixed machine
speed, and their median peak RSS.  The machine is shared, and other
tenants' load slows a whole repetition, CPU time included, by up to 1.9x,
in phases that last from seconds to minutes.  So before and after every
repetition the benchmark times a fixed reference workload (``calibrate``)
in its own process, and multiplies the repetition's times by CAL_REF_S
over the mean of those two calibrations.  A repetition that is slower
because the program does more work reads slower; one that is slower
because the machine is reads about the same.  The unscaled medians are
printed on the summary line as ``raw_wall_s``, ``raw_cpu_s`` and
``raw_setup_s``.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer figures of the fastest traced repetition (see ``child.py``), plus
the tracing overhead.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it gives every figure, including ``fail_frac``, by name and unit.

The seed picks one of VARIANTS input variants per workload (seed modulo
VARIANTS); seed 0 is the canonical configuration.  Variants differ in N
or the discrepancy window, never in regime, and each has its own reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs.json"
VARIANTS = 10
MIN_REPS = 3
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s

# Each command is the paper-scale one (sums N=4e6, discrepancy x=1e6,
# cluster N=4e6) cut to a quarter or a half with the same regime, so that a
# repetition takes 1.5-3 s and a run holds a dozen of them.


def _sums_k1(v: int) -> list[str]:
    return ["sums", "--n", str(1_000_000 + 500 * v), "--k", "1",
            "--h", "0,2", "--w", "2", "--theta", "0.24"]


def _expsum_discrepancy(v: int) -> list[str]:
    delta = "1e-6" if v == 0 else repr(1e-6 * (1 + v / 10))
    return ["expsum", "--op", "discrepancy", "--q", "4", "--delta", delta,
            "--grid", "41", "--n", str(250_000 + 250 * v)]


def _cluster_torus(v: int) -> list[str]:
    return ["cluster", "--n", str(2_000_000 + 1_000 * v), "--k", "5",
            "--tuple-style", "dense", "--w", "5", "--w0", "4",
            "--system", "g=4,d=1", "--set", "0:0.0:0.5", "--eps", "0.01",
            "--m", "1"]


WORKLOADS = {
    "sums-k1": _sums_k1,
    "expsum-discrepancy": _expsum_discrepancy,
    "cluster-torus": _cluster_torus,
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB"}
# Metrics scaled to the reference machine speed; the others are as read.
SCALED = ("wall_s", "cpu_s", "setup_s")

PER_LAYER = {
    "primes.table_build_s": "s", "primes.table_limit": "count",
    "primes.table_bytes": "bytes",
    "sieve.kernel_s": "s",
    "accumulate.reduce_s": "s", "accumulate.calls": "count",
    "accumulate.terms": "count",
    "accumulate.ns_per_term": "ns",
    "expsum.geometric_phase_s": "s", "expsum.geometric_phase_calls": "count",
    "expsum.geometric_phase_terms": "count",
    "expsum.prime_expsum_s": "s", "expsum.prime_expsum_calls": "count",
    "dynamics.correlation_calls": "count", "dynamics.correlation_s": "s",
    "cluster.detector_s": "s", "cluster.kernel_s": "s", "cluster.scan_s": "s",
    "cluster.filter_s": "s", "cluster.reports": "count",
    "serialize.dumps_s": "s", "serialize.records": "count",
    "serialize.bytes": "bytes",
    "cli.import_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def cli_args(workload: str, seed: int) -> list[str]:
    return WORKLOADS[workload](seed % VARIANTS) + ["--threads", "1"]


# -- machine speed ----------------------------------------------------------

# About the fastest calibrate() reads on a 2-vCPU Xeon VM at 2.1 GHz
# (Python 3.11.7, numpy 2.4.6); scaled times read as if measured on that
# machine when its neighbours are quiet.
CAL_REF_S = 0.18
_CAL_LOOP = 700_000
_CAL_PHASES = np.arange(200_000, dtype=np.int64)


def calibrate() -> float:
    """Seconds a fixed reference workload takes on this machine now.

    Half of it is an interpreted float loop, like the package's pure-Python
    reductions and per-element calls; half is numpy complex exponentials,
    like its vectorised kernels.  It never changes with the package.
    """
    t0 = time.perf_counter()
    x = 0.1
    for _ in range(_CAL_LOOP):
        y = x * 1.0000001 + 0.5
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        x = hi - (y - (hi - x)) if hi < 1e6 else 0.1
    for _ in range(10):
        complex(np.sum(np.exp(2j * np.pi * ((_CAL_PHASES * 0.123456) % 1.0))))
    return time.perf_counter() - t0


# -- output check -----------------------------------------------------------

def _canon(value) -> str:
    """Comparable text of one parsed JSON value.

    Ints, strings, bools, nulls and list shapes are kept exactly; floats
    are compared at 12 significant digits, so a change to a longer float
    format is not a mismatch.  Key order is ignored.
    """
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, list):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    return "{" + ",".join(json.dumps(k) + ":" + _canon(value[k])
                          for k in sorted(value)) + "}"


def _reject_constant(name: str):
    raise ValueError(f"invalid JSON constant {name}")


def digest(raw: bytes) -> dict:
    """Byte digest and value digest of a JSONL output.

    Raises ValueError when a line is not valid JSON (bare nan/inf included).
    """
    canon = hashlib.sha256()
    lines = raw.decode().splitlines()
    for line in lines:
        canon.update(_canon(json.loads(
            line, parse_constant=_reject_constant)).encode() + b"\n")
    return {"lines": len(lines), "bytes": len(raw),
            "raw_sha256": hashlib.sha256(raw).hexdigest(),
            "canon_sha256": canon.hexdigest()}


def check_output(raw: bytes, ref: dict) -> tuple[bool, bool]:
    """(values match the reference, bytes are identical to it)."""
    if hashlib.sha256(raw).hexdigest() == ref["raw_sha256"]:
        return True, True  # the reference lines were parsed when it was made
    try:
        return digest(raw)["canon_sha256"] == ref["canon_sha256"], False
    except ValueError:  # also covers UnicodeDecodeError
        return False, False


# -- one repetition ---------------------------------------------------------

def run_child(root: Path, work: Path, args: list[str], traced: bool,
              timeout: float) -> dict:
    """Run the CLI once in a fresh process; wall, CPU, RSS, set-up, output."""
    out_path, err_path = work / "stdout.jsonl", work / "stderr.txt"
    report_path = work / "report.json"
    report_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(HERE / "child.py"), str(report_path),
           "1" if traced else "0", *args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out, stderr=err)
        code, rusage = _wait(proc, timeout)
        wall = time.monotonic() - t0
    # wait4 gives this child's own rusage: its user+sys time (the
    # RUSAGE_CHILDREN delta) and its own peak RSS, not the peak of all
    # children reaped so far.
    rep = {"code": code, "wall_s": wall,
           "cpu_s": rusage.ru_utime + rusage.ru_stime,
           "peak_rss_mb": rusage.ru_maxrss / 1024.0,
           "stderr": err_path.read_text(errors="replace")[-2000:],
           "stdout": out_path.read_bytes()}
    if report_path.exists():
        report = json.loads(report_path.read_text())
        if report["setup_at"] is not None:
            rep["setup_s"] = report["setup_at"] - t0
        rep["layers"] = report.get("metrics")
        rep["absent"] = report.get("absent", [])
    return rep


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap proc with wait4, killing it if it outlives timeout seconds."""
    old = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


# -- a run ------------------------------------------------------------------

def measure(root: Path, workload: str, seed: int, seconds: float,
            traced: bool, ref: dict, log) -> dict:
    args = cli_args(workload, seed)
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        work = Path(tmp)
        # Compile the package's bytecode and page numpy in before timing:
        # a user's repeated runs find both cached.
        subprocess.run([sys.executable, "-c", "import recurgaps.cli"],
                       cwd=root, check=True, timeout=120,
                       env=dict(os.environ, PYTHONPATH=str(root / "src")))
        deadline = start + RUN_LIMIT_S
        plain, traced_reps = [], []
        cal = calibrate()

        def repetition(traced_rep: bool) -> dict:
            nonlocal cal
            rep = run_child(root, work, args, traced_rep,
                            deadline - time.monotonic())
            before, cal = cal, calibrate()
            rep["scale"] = CAL_REF_S / ((before + cal) / 2)
            return rep

        while True:
            t_iter = time.monotonic()
            plain.append(repetition(False))
            if traced:
                traced_reps.append(repetition(True))
            now = time.monotonic()
            if len(plain) >= MIN_REPS and now - start >= seconds:
                break
            if now + (now - t_iter) > deadline:
                break  # another repetition would overrun the time limit

    for rep in plain + traced_reps:
        rep["ok"], rep["same_bytes"] = False, False
        if rep["code"] == 0 and "setup_s" in rep:
            rep["ok"], rep["same_bytes"] = check_output(rep["stdout"], ref)
        if not rep["ok"]:
            log(f"repetition failed (exit {rep['code']}):\n{rep['stderr']}")
    for plain_rep, traced_rep in zip(plain, traced_reps):
        if traced_rep["ok"] and traced_rep["stdout"] != plain_rep["stdout"]:
            log("a traced run printed other bytes than the untraced run")
            traced_rep["ok"] = False
    attempted = len(plain) + len(traced_reps)
    failed = sum(not r["ok"] for r in plain + traced_reps)
    good = [r for r in plain if r["ok"]]
    end_to_end, raw = {}, {}
    for k in END_TO_END:
        values = [r[k] for r in good]
        raw[k] = statistics.median(values) if good else 0.0
        if k in SCALED:
            values = [r[k] * r["scale"] for r in good]
        end_to_end[k] = statistics.median(values) if good else 0.0
    result = {"attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted,
              "bytes_identical": all(r["same_bytes"] for r in plain + traced_reps),
              "reps": len(plain), "end_to_end": end_to_end,
              "raw": {"raw_" + k: raw[k] for k in SCALED},
              "scale": statistics.median(r["scale"] for r in plain)}
    if traced:
        result.update(_layers(plain, traced_reps, log))
    return result


def _layers(plain: list[dict], traced: list[dict], log) -> dict:
    """Per-layer figures of the fastest traced repetition.

    Counts must repeat exactly across the traced repetitions.  The tracing
    overhead is the median scaled wall-time difference between each traced
    repetition and the untraced one just before it.
    """
    overhead = statistics.median(
        [t["wall_s"] * t["scale"] - p["wall_s"] * p["scale"]
         for p, t in zip(plain, traced)])
    reps = [r for r in traced if r["ok"]]
    if not reps:
        return {"layers": {}, "absent": sorted(PER_LAYER),
                "counts_repeat": False}
    repeat = True
    for name, unit in PER_LAYER.items():
        if unit not in ("s", "ns") and name in reps[0]["layers"]:
            values = [r["layers"][name] for r in reps]
            if len(set(values)) > 1:
                log(f"count {name} differs between traced runs: {values}")
                repeat = False
    fastest = min(reps, key=lambda r: r["wall_s"])
    layers = dict(fastest["layers"])
    layers["trace.overhead_s"] = overhead
    absent = sorted({a for r in reps for a in r["absent"]})
    return {"layers": layers, "absent": absent, "counts_repeat": repeat}


def load_ref(workload: str, seed: int) -> dict:
    refs = json.loads(REFS.read_text())
    return refs[workload][seed % VARIANTS]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    if opts.workload not in WORKLOADS:
        ap.error(f"unknown workload {opts.workload!r}; choose one of "
                 + ", ".join(WORKLOADS))
    root = Path.cwd()
    if not (root / "src" / "recurgaps" / "cli.py").is_file():
        print(f"error: no recurgaps source under {root / 'src'}; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2

    def log(msg):
        print(msg, file=sys.stderr)

    traced = opts.trace == 1
    res = measure(root, opts.workload, opts.seed, opts.seconds, traced,
                  load_ref(opts.workload, opts.seed), log)
    end_to_end = {k: {"value": v, "unit": END_TO_END[k]}
                  for k, v in res["end_to_end"].items()}
    layers = {k: {"value": res["layers"].get(k, 0.0), "unit": u}
              for k, u in PER_LAYER.items()} if traced else {}
    # Every figure by name and unit, for people; the last line is the result.
    print(json.dumps({
        "workload": opts.workload, "seed": opts.seed,
        "args": cli_args(opts.workload, opts.seed),
        "repetitions": res["reps"], "bytes_identical": res["bytes_identical"],
        "speed_scale": res["scale"],
        **{k: {"value": v, "unit": "s"} for k, v in res["raw"].items()},
        "fail_frac": {"value": res["fail_frac"], "unit": "ratio"},
        **({"counts_repeat": res["counts_repeat"], "absent": res["absent"]}
           if traced else {}),
        **end_to_end, **layers}))
    metrics = layers if traced else end_to_end
    correct = res["failed"] == 0 and (not traced or res["counts_repeat"])
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
