import ast
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import recurgaps
from recurgaps import acceptance, cli, primes, sieve
from recurgaps.admissible import DEFAULT_SEED
from recurgaps.cli import main, parse_set, parse_system
from recurgaps.primes import PrimeTable, build_prime_table
from recurgaps.serialize import NonFiniteError, config_hash, dumps
from test_expsum import _run_probe, _simd_masks


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines_of(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_tuple_golden(capsys):
    code, out, _ = run_cli(["tuple", "--k", "2", "--w", "5", "--w0", "1"], capsys)
    assert code == 0
    rec = lines_of(out)[0]
    assert rec["h"] == [0, 6, 12]
    assert rec["W"] == 30
    assert rec["b"] == 1


def test_tuple_consecutive(capsys):
    code, out, _ = run_cli(["tuple", "--h", "0,4", "--w", "11", "--w0", "4",
                            "--consecutive"], capsys)
    assert code == 0
    rec = lines_of(out)[0]
    assert rec["forced"] == [[1, 5], [2, 7], [3, 11]]
    assert (rec["b"] + 1) % 5 == 0


def test_sums_line_shape(capsys):
    code, out, _ = run_cli(["sums", "--n", "50000", "--k", "1", "--w", "5",
                            "--theta", "0.1"], capsys)
    assert code == 0
    recs = lines_of(out)
    assert [r["op"] for r in recs] == ["omega_sum", "weighted_prime_sum",
                                       "weighted_prime_sum"]
    for r in recs:
        assert r["wall_ms"] is None
        assert r["count"] > 0
        assert r["params"]["R"] >= 2
        assert "config_hash" in r


def test_config_hash_recomputable(capsys):
    code, out, _ = run_cli(["sums", "--n", "50000", "--k", "1"], capsys)
    rec = lines_of(out)[0]
    assert rec["config_hash"] == config_hash(rec["config"])


def test_recur_congruence_oracle(capsys):
    code, out, _ = run_cli(["recur", "--system", "g=4", "--set", "0",
                            "--eps", "0.01", "--pmax", "1000"], capsys)
    assert code == 0
    rec = lines_of(out)[0]
    sieve = [True] * 1001
    sieve[0] = sieve[1] = False
    for p in range(2, 33):
        if sieve[p]:
            for q in range(p * p, 1001, p):
                sieve[q] = False
    oracle = [p for p in range(2, 1001) if sieve[p] and p % 4 == 1]
    assert rec["primes"] == oracle


def test_recur_khintchine(capsys):
    code, out, _ = run_cli(["recur", "--system", "g=4", "--set", "0",
                            "--eps", "0.01", "--nmax", "100"], capsys)
    rec = lines_of(out)[0]
    assert rec["values"] == list(range(0, 101, 4))
    assert rec["max_gap"] == 4


def test_cluster_subcommand(tmp_path, capsys):
    csv = tmp_path / "clusters.csv"
    code, out, _ = run_cli(["cluster", "--n", "100000", "--k", "5",
                            "--tuple-style", "dense", "--w", "5", "--w0", "4",
                            "--system", "g=4", "--set", "0", "--eps", "0.01",
                            "--m", "1", "--csv", str(csv)], capsys)
    assert code == 0
    recs = lines_of(out)
    assert recs[0]["op"] == "detector_sum"
    assert recs[-1]["op"] == "cluster_summary"
    assert recs[-1]["clusters"] >= 1
    body = csv.read_text().strip().splitlines()
    assert body[0] == "n,primes,width,consecutive"
    assert len(body) == recs[-1]["clusters"] + 1


def test_expsum_classify(capsys):
    code, out, _ = run_cli(["expsum", "--op", "classify", "--alpha", "0.5",
                            "--n", "1000000"], capsys)
    rec = lines_of(out)[0]
    assert rec["kind"] == "major" and rec["q"] == 2


def test_expsum_classify_at_large_n(capsys):
    # a float convergent scan found no fraction for this alpha at N = 1e9
    code, out, _ = run_cli(["expsum", "--op", "classify", "--alpha",
                            "0.9486494471372439", "--n", "1000000000"], capsys)
    assert code == 0
    rec = lines_of(out)[0]
    assert (rec["kind"], rec["a"], rec["q"]) == ("minor", 106806266, 112587707)


def test_expsum_prime_and_main_term(capsys):
    code, out, _ = run_cli(["expsum", "--op", "prime", "--n", "10000",
                            "--d-mod", "3", "--b-res", "1", "--a", "1",
                            "--q", "4"], capsys)
    assert code == 0
    rec = lines_of(out)[0]
    assert rec["op"] == "prime_expsum"
    code, out, _ = run_cli(["expsum", "--op", "main-term", "--n", "10000",
                            "--d-mod", "3", "--b-res", "1", "--a", "1",
                            "--q", "4"], capsys)
    rec = lines_of(out)[0]
    assert rec["op"] == "expsum_main_term"


def test_minor_scan_ignores_the_rational_point_flags(capsys):
    # minor-scan reads none of --a, --q and --theta-offset, so --q 0 is
    # ignored there; prime reads --q and still refuses it
    args = ["expsum", "--op", "minor-scan", "--n", "50000", "--k", "1",
            "--h", "0,2", "--w", "2", "--theta", "0.24"]
    _, plain, _ = run_cli(args, capsys)
    code, out, _ = run_cli(args + ["--q", "0"], capsys)
    assert code == 0
    assert out == plain
    code, out, err = run_cli(["expsum", "--op", "prime", "--n", "100",
                              "--q", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "need 1 <= a <= q, got a=1, q=0" in err


def test_exit_code_validation_error(capsys):
    code, _, err = run_cli(["sums", "--n", "100"], capsys)
    assert code == 2
    assert "degenerates" in err


@pytest.mark.parametrize("op,offset", [("prime", "inf"), ("main-term", "nan")])
def test_exit_code_non_finite_theta_offset(op, offset, capsys):
    code, out, err = run_cli(["expsum", "--op", op, "--n", "1000", "--a", "1",
                              "--q", "3", "--theta-offset", offset], capsys)
    assert code == 2
    assert out == ""
    assert "theta offset must be finite" in err


@pytest.mark.parametrize("args,flag", [
    (["sums", "--n", "50000", "--theta", "nan"], "--theta"),
    (["recur", "--eps", "inf", "--nmax", "10"], "--eps"),
    (["cluster", "--n", "100000", "--eps=-inf"], "--eps"),
    (["expsum", "--op", "classify", "--alpha", "nan"], "--alpha"),
])
def test_exit_code_non_finite_flag(args, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}: must be a finite number" in captured.err


@pytest.mark.parametrize("line,message", [
    ("theta = nan", "config key 'theta' must be a finite number, got 'nan'"),
    ("eps = inf", "config key 'eps' must be a finite number, got 'inf'"),
    ("n = abc", "config key 'n' must be an integer, got 'abc'"),
    ("consecutive = maybe", "config key 'consecutive' must be one of"),
    ("timing = 2", "config key 'timing' must be one of"),
    ("tuple_style = bogus",
     "config key 'tuple_style' must be one of standard/dense, got 'bogus'"),
])
def test_exit_code_bad_config_value(tmp_path, line, message, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 50000\nk = 1\n{line}\n")
    code, out, err = run_cli(["--config", str(cfg), "sums"], capsys)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("key", [key for key, opts in cli._FLAGS.items()
                                 if key in cli.DEFAULTS
                                 and ("type" in opts or "choices" in opts)])
def test_config_refuses_what_its_flag_refuses(key, tmp_path, capsys):
    # a config value is read by the flag's own entry of _FLAGS
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--" + key.replace("_", "-"), "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = bogus\n")
    code, out, err = run_cli(["--config", str(cfg), "cluster"], capsys)
    assert code == 2
    assert out == ""
    assert f"error: config key {key!r} must be" in err


def test_config_booleans_accept_both_spellings(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for value, want in (("Yes", True), ("off", False), ("1", True), ("NO", False)):
        cfg.write_text(f"consecutive = {value}\n")
        assert cli._read_config_file(str(cfg)) == {"consecutive": want}


@pytest.mark.parametrize("args,message", [
    (["recur", "--system", "g=0", "--nmax", "10"], "group order must be >= 1"),
    (["recur", "--system", "g=-3,d=1", "--nmax", "10"], "group order must be >= 1"),
    (["sums", "--n", "50000", "--k", "1", "--f-spec", "[1]"],
     "factor spec must be a list of [edge, [coefficients]] pairs"),
    (["sums", "--n", "50000", "--k", "1", "--f-spec", '[[0.5, "x"]]'],
     "factor spec must be a list of [edge, [coefficients]] pairs"),
    (["sums", "--n", "50000", "--k", "1", "--f-spec", "[[NaN, [1]]]"],
     "factor spec numbers must be finite"),
    (["recur", "--system", "g=abc", "--nmax", "10"],
     "--system g must be an integer, got 'abc'"),
    (["recur", "--system", "g=4,d=1,kappa=0.5:nan", "--nmax", "10"],
     "--system kappa must be a finite number, got 'nan'"),
    (["recur", "--system", "g=4", "--set", "x", "--nmax", "10"],
     "--set gamma must be an integer, got 'x'"),
    (["recur", "--system", "g=1,d=1", "--set", "0:0.1:abc", "--nmax", "10"],
     "--set side must be a finite number, got 'abc'"),
    (["sums", "--n", "50000", "--h", "0,x"],
     "--h shift must be an integer, got 'x'"),
    (["expsum", "--op", "minor-scan", "--n", "20000", "--alphas", "nan"],
     "--alphas entry must be a finite number, got 'nan'"),
    (["expsum", "--op", "weighted", "--n", "50000", "--k", "1", "--i", "5"],
     "--i must be in 0..1, got 5"),
    (["expsum", "--op", "minor-scan", "--n", "50000", "--k", "1", "--i", "-1"],
     "--i must be in 0..1, got -1"),
    (["recur", "--nmax", "-5"], "--nmax must be >= 1, got -5"),
    (["recur", "--pmax", "0"], "--pmax must be >= 1, got 0"),
    (["expsum", "--op", "main-term", "--d-mod", "-3", "--b-res", "1",
      "--q", "4"], "modulus D must be positive, got -3"),
    (["expsum", "--op", "main-term", "--d-mod", "0", "--b-res", "1",
      "--q", "4"], "modulus D must be positive, got 0"),
    (["recur", "--nmax", "4194305"], "--nmax 4194305 exceeds the bound 2^22"),
    (["expsum", "--op", "discrepancy", "--n", "-5"], "--n must be >= 1, got -5"),
    (["expsum", "--op", "prime", "--n", "-5"], "--n must be >= 1, got -5"),
    (["expsum", "--op", "prime", "--n", "0"], "--n must be >= 1, got 0"),
    (["expsum", "--op", "main-term", "--n", "-3"], "--n must be >= 1, got -3"),
    (["expsum", "--op", "discrepancy", "--n", "100", "--delta", "1e308"],
     "delta=1e+308 is too large: the grid's span 2 delta overflows"),
    (["expsum", "--op", "prime", "--n", "100", "--theta-offset", "1e300"],
     "theta offset=1e+300 is too large: the phase split needs"),
    (["expsum", "--op", "discrepancy", "--n", "100", "--delta", "1e300"],
     "delta=1e+300 is too large: the phase split needs"),
    (["expsum", "--op", "main-term", "--q", "3037000500"],
     "q=3037000500 exceeds isqrt(2^63 - 1) = 3037000499"),
    (["expsum", "--op", "discrepancy", "--n", "100", "--q", "3037000500"],
     "q=3037000500 exceeds isqrt(2^63 - 1) = 3037000499"),
    # its int64 phases overflowed and gave a wrong sum
    (["expsum", "--op", "prime", "--n", "60000000", "--a", "1000000000038",
      "--q", "1000000000039"], "q=1000000000039 exceeds isqrt(2^63 - 1)"),
    (["tuple", "--h", "0,2", "--w", "2", "--w0", "3"],
     "assumption (II) violated: W0=3 does not divide h in [2]"),
    # an explicit b does not skip the w rule
    (["sums", "--n", "100000", "--k", "1", "--h", "0,14", "--w", "5",
      "--theta", "0.2", "--b", "17"],
     "w=5 too small: 14-0 has a prime factor > w"),
    # a D above the cap would be trial-divided for hours
    (["expsum", "--op", "main-term", "--n", "100", "--d-mod",
      "1000000000000000003", "--q", "1"],
     "D=1000000000000000003 exceeds isqrt(2^63 - 1) = 3037000499"),
    (["expsum", "--op", "main-term", "--d-mod", "3037000500"],
     "D=3037000500 exceeds isqrt(2^63 - 1) = 3037000499"),
    (["expsum", "--op", "discrepancy", "--n", "100", "--q", "1000003",
      "--grid", "3"], "lower q (--q) or the theta grid (--grid)"),
])
def test_exit_code_malformed_system_and_factor_spec(args, message, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert message in err


def test_non_finite_term_exits_1(capsys):
    # f(0) = 1e100 makes every Omega term (f(0)^2)^2 = inf: the sum refuses
    # it before any record is written
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(
            ["expsum", "--op", "weighted", "--n", "50000", "--k", "1", "--h",
             "0,2", "--w", "2", "--theta", "0.24", "--f-spec",
             "[[0.5, [1e100, -2e100]]]"], capsys)
    assert code == 1
    assert out == ""
    assert "ArithmeticError" in err and "nan or infinite" in err


_CLUSTER = ["cluster", "--n", "100000", "--system", "g=4", "--set", "0",
            "--w0", "4", "--tuple-style", "dense", "--k", "1"]


@pytest.mark.parametrize("args,named", [
    (["tuple", "--out", "{missing}/x.jsonl"], "--out"),
    (["--config", "{missing}.cfg", "tuple"], "--config"),
    (_CLUSTER + ["--csv", "{missing}/x.csv"], "--csv"),
    (["sums", "--n", "100000", "--f-spec", "notjson"], "--f-spec"),
    (["recur", "--system", "g=4,gama0=2", "--nmax", "10"],
     "unknown --system key 'gama0'"),
    (_CLUSTER + ["--eps", "-1"], "eps must be positive, got -1.0"),
    (["recur", "--weighted", "--n", "50000", "--k", "1", "--w0", "4",
      "--system", "g=4", "--set", "0", "--eps", "0"],
     "eps must be positive, got 0.0"),
    # an explicit kappa at the default d = 0 is not dropped
    (["recur", "--system", "g=4,kappa=0.3", "--set", "0", "--nmax", "10"],
     "kappa has 1 coordinates, expected d=0"),
    (["recur", "--system", "g=4,d=-1", "--nmax", "10"],
     "torus dimension must be >= 0, got -1"),
])
def test_bad_file_flag_spec_or_eps_exits_2_naming_it(args, named, tmp_path,
                                                     capsys):
    missing = str(tmp_path / "missing")
    code, out, err = run_cli([a.replace("{missing}", missing) for a in args],
                             capsys)
    assert code == 2
    assert out == ""
    assert named in err
    assert "internal error" not in err


# Inputs that once ran for minutes, or were refused with a message naming
# no rule, each in a fresh interpreter under a time cap
@pytest.mark.parametrize("args,named", [
    (["tuple", "--k", "10000"], "52-shift limit"),
    (["tuple", "--k", "300"], "52-shift limit"),
    (["tuple", "--k", "2147483648", "--w0", "10"], "52-shift limit"),
    (["sums", "--n", "1000000", "--k", "100000", "--w0", "7"],
     "52-shift limit"),
    (["tuple", "--w", "100000"], "63-bit modulus cap"),
    (["tuple", "--w", "10000000"], "63-bit modulus cap"),
    (["sums", "--n", "1000000", "--w", "1" + "0" * 30, "--h", "0"],
     "63-bit modulus cap 2^63 - 1 at w = <31 digits>"),
])
def test_extreme_tuple_and_w_exit_2_at_once_naming_the_rule(args, named):
    env = dict(os.environ,
               PYTHONPATH=str(Path(recurgaps.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "recurgaps.cli", *args],
                          env=env, capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and named in done.stderr
    assert done.stderr.count("\n") == 1 and len(done.stderr) < 300


def test_q_cap_accepts_the_largest_q_with_exact_phases(capsys):
    q = 3037000499  # isqrt(2^63 - 1)
    values = {}
    for a in (1, q - 1):
        code, out, err = run_cli(["expsum", "--op", "prime", "--n", "1000",
                                  "--a", str(a), "--q", str(q)], capsys)
        assert code == 0, err
        values[a] = complex(*lines_of(out)[0]["value"])
    assert values[q - 1] == pytest.approx(values[1].conjugate(), rel=1e-9)
    code, out, err = run_cli(["expsum", "--op", "main-term", "--n", "1000",
                              "--q", str(q)], capsys)
    assert code == 0, err


def test_exit_code_group_divisibility(capsys):
    code, _, err = run_cli(["cluster", "--n", "100000", "--k", "2", "--w", "5",
                            "--w0", "1", "--system", "g=4", "--set", "0"],
                           capsys)
    assert code == 2
    assert "group order" in err


def test_threads_flag_accepts_only_one(tmp_path, capsys):
    # runs are single-threaded; --threads 1 is kept for scripts that pass it
    args = ["sums", "--n", "50000", "--k", "2", "--w", "5"]
    _, plain, _ = run_cli(args, capsys)
    code, out, _ = run_cli(args + ["--threads", "1"], capsys)
    assert code == 0
    assert out == plain
    for bad in ("2", "0"):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--threads", bad])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "argument --threads: invalid choice" in captured.err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 2\n")
    code, out, err = run_cli(["--config", str(cfg)] + args, capsys)
    assert code == 2
    assert out == ""
    assert "unknown config key 'threads'" in err


# sha256 of the stdout these commands gave before progression sums moved
# from pure-Python expansions to one streaming math.fsum and before the
# wall_ms clock restart (the first two), or before the weighted sums
# shared one prime-shift kernel (the rest); the bytes without --timing
# must not change
GOLDEN_STDOUT = [
    ("sums",
     ["sums", "--n", "50000", "--k", "1", "--h", "0,2", "--w", "2",
      "--theta", "0.24"],
     "7329614190ce4566dbf94b08268403c54065793c381c3627230671dc9074ef51"),
    ("expsum",
     ["expsum", "--op", "weighted", "--n", "50000", "--k", "1", "--h", "0,2",
      "--w", "2", "--theta", "0.24", "--a", "1", "--q", "3",
      "--theta-offset", "0.01"],
     "21fc179a2572a1f61b898a47807c92995afaf9140ab849330125ea7c68b83b99"),
    ("expsum-weighted-q1",
     ["expsum", "--op", "weighted", "--n", "50000", "--k", "1", "--h", "0,2",
      "--w", "2", "--theta", "0.24", "--q", "1"],
     "d5b39e708d74c618d83d4cc29c5ade3bda5792d8c07425f2145045092b6b4d82"),
    ("expsum-minor-scan",
     ["expsum", "--op", "minor-scan", "--n", "50000", "--k", "2", "--w", "5"],
     "d2ec6e9b511fc909cf2aed2df073efd55092132b2ad215743e6c865f8df21244"),
    ("recur-weighted-cyclic",
     ["recur", "--weighted", "--n", "100000", "--k", "1", "--h", "0,4",
      "--w", "2", "--w0", "4", "--theta", "0.2", "--system", "g=4"],
     "f9f56cfecbae43a538134f5c8fe329cf771d69cff8ec449927629aef90eadfba"),
    ("recur-weighted-torus",
     ["recur", "--weighted", "--n", "50000", "--k", "1", "--h", "0,4",
      "--w", "2", "--w0", "4", "--theta", "0.2", "--system", "g=4,d=1",
      "--set", "0:0.0:0.5"],
     "5f0bf62b5a924f374c20aedb01be723a638ebea922288575a896950eef27dab4"),
    ("recur-nmax-torus",
     ["recur", "--nmax", "3000", "--system", "g=4,d=1", "--set", "0:0.0:0.5"],
     "386d1b77ea9d5acefc3b6db31ac0b18e028f5679e175534d7535c60a8f4cf93f"),
    ("recur-pmax-cyclic",
     ["recur", "--pmax", "100000", "--system", "g=4", "--set", "0"],
     "431577069f0b9c1bbcd91a49f57b6d9c1131f36c9cf89c13684109a1944f1437"),
    # recorded before these ops stopped reading a table over their window
    ("expsum-prime-d-mod",
     ["expsum", "--op", "prime", "--n", "1000000", "--d-mod", "3",
      "--b-res", "1", "--a", "1", "--q", "4"],
     "df7e66a7e028da2788dcd62b30ca3206c12053316499ee20253e4c98f83a2043"),
    ("expsum-prime-theta",
     ["expsum", "--op", "prime", "--n", "250000", "--a", "1", "--q", "4",
      "--theta-offset", "0.001"],
     "38ddd22544d3643ced5f1b72408ce95e217cb5f332c7bf46cffb5c9cadf86092"),
    ("expsum-main-term",
     ["expsum", "--op", "main-term", "--n", "1000000", "--a", "1", "--q", "3",
      "--theta-offset", "1e-6"],
     "b71a54da048353e40c6c34f110c6fcaefbf669834cee2cfb2d005dfef9649961"),
    ("expsum-discrepancy",
     ["expsum", "--op", "discrepancy", "--q", "4", "--delta", "1e-6",
      "--grid", "5", "--n", "250000"],
     "1b6b25a0448a497b11dcc429d6544bfcc8c8884f81bbf804208eaaf940d2c163"),
    ("expsum-discrepancy-segments",
     ["expsum", "--op", "discrepancy", "--q", "3", "--delta", "1e-5",
      "--grid", "3", "--n", "1000000"],
     "b61b93c3c76348e84c3d51f9a6c94d839db0ef2bb15e622a8697a9fda2f3d19e"),
    ("recur-pmax-torus",
     ["recur", "--pmax", "300000", "--system", "g=4,d=1", "--set",
      "0:0.0:0.5"],
     "4015bdfac1b19d55125da7a33290b05280abc62556893a207beb20f92a6d045b"),
    ("cluster-consecutive",
     ["cluster", "--n", "100000", "--h", "0,4", "--w", "11", "--w0", "4",
      "--consecutive", "--system", "g=4", "--set", "0", "--eps", "0.01",
      "--m", "1"],
     "edb2f8d982cea2ed4a6564d9c5826ca89b1796cc06449f7e42c53e24591756a8"),
]


@pytest.mark.parametrize("args,digest", [g[1:] for g in GOLDEN_STDOUT],
                         ids=[g[0] for g in GOLDEN_STDOUT])
def test_stdout_without_timing_unchanged(args, digest, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    # config_hash is hashlib's SHA-256 of the canonical config, whichever
    # implementation computes it
    for rec in lines_of(out):
        canon = dumps(rec["config"], sort_keys=True).encode()
        assert (rec["config_hash"] == config_hash(rec["config"])
                == hashlib.sha256(canon).hexdigest()[:16])


# Each golden command, and the two weighted prime sums of the sums-k1 config
# at N = 1e6 to the last bit, in a fresh interpreter: np.log differs in the
# last bit between numpy's SIMD paths, and the bytes must not
_SIMD_PROBE = """
import contextlib, hashlib, io
from recurgaps.admissible import make_sieve_params
from recurgaps.cli import main
from recurgaps.sieve import weighted_prime_sum
from recurgaps.testfn import default_test_function

for args, digest in GOLDEN:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(args) == 0, args
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, args
p = make_sieve_params(N=10 ** 6, h=(0, 2), theta=0.24, w=2)
F = default_test_function(1)
got = [weighted_prime_sum(p, F, i).measured.hex() for i in (0, 1)]
assert got == ["0x1.5c252a15e4568p+15", "0x1.5bda733ae72b0p+15"], got
print("ok")
"""


@pytest.mark.parametrize("mask", _simd_masks())
def test_stdout_is_the_same_at_every_simd_level(mask):
    golden = [g[1:] for g in GOLDEN_STDOUT]
    _run_probe(f"GOLDEN = {golden!r}\n" + _SIMD_PROBE, mask)


# sha256 of each --help text at 80 columns, recorded with Python 3.11 while
# the parser still gave every subcommand its arguments whichever one ran
GOLDEN_HELP = {
    "": "0f02edd68ae921bfe43185808b6f675a52584ff7354ad07a66abfaa0499582a1",
    "tuple": "d69d695d8e258ebec0f0271dc884e78ee3e824cf601529be66544e5674cbd324",
    "sums": "d8d2edb02685c542549b03d55f464e1e0d5e102b597132e750f12fcf1a2fcc29",
    "expsum": "f9c66c98c3858fc5fbe314567d1830e089df1f34a7fd89814068df274ffb822c",
    "recur": "840ee050fc1952d517355f8896be6bd747c42267e7d9b5b46b9e0ff7daf49b17",
    "cluster": "1040d45eabc627844f3da94f4ac9639a354a8559dfd13d174101a1ac2b58e4b0",
    "verify": "7f60bd6be97cc9bd5754a7fee66e198377471423252c21f09d55fa04b01c1e36",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out help differently in each "
                           "Python version; the digests are 3.11's")
@pytest.mark.parametrize("subcommand,digest", GOLDEN_HELP.items(),
                         ids=[k or "top" for k in GOLDEN_HELP])
def test_help_text_unchanged(subcommand, digest, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--help"] if subcommand else ["--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["--bogus", "sums"], ["sums", "--bogus"],
    ["sums", "--op", "prime"], ["sums", "--th", "0.2"], ["sums", "--n", "x"],
    ["sums", "--threads", "2"], ["expsum"], ["expsum", "--op", "nope"],
    ["tuple", "--n", "5"], ["recur", "--csv", "x"], ["verify", "--n", "3"],
    ["tuple", "sums"], ["sums", "tuple"], ["--config", "sums", "tuple", "--m"],
    ["--", "cluster", "--pmax", "3"],
] + [[op, "--help"] for op in GOLDEN_HELP if op])
def test_parser_for_argv_reads_it_as_the_full_parser(argv, monkeypatch,
                                                     capsys):
    # the parser built for argv adds only the subcommands argv names
    monkeypatch.setenv("COLUMNS", "80")
    seen = []
    for parser in (cli.build_parser(), cli.build_parser(argv)):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        seen.append((exc.value.code, capsys.readouterr()))
    assert seen[0][0] == (0 if "--help" in argv else 2)
    assert seen[0] == seen[1]


def test_timing_excludes_table_build(monkeypatch, capsys):
    delay_s = 1.0
    build = cli.build_prime_table

    def slow_build(limit):
        time.sleep(delay_s)
        return build(limit)

    monkeypatch.setattr(cli, "build_prime_table", slow_build)
    code, out, _ = run_cli(["sums", "--n", "50000", "--k", "1", "--h", "0,2",
                            "--w", "2", "--theta", "0.24", "--timing"], capsys)
    assert code == 0
    walls = [r["wall_ms"] for r in lines_of(out)]
    assert len(walls) == 3
    assert all(0.0 < w < delay_s * 1000.0 for w in walls)


# Each op's command and the last value `top` of the window it sieves (0 for
# the ops that sieve none); it may ask for a table up to isqrt(top) + 1.
# verify too builds only the base primes of its widest window.
_WINDOWS = {
    "sums": (["sums", "--n", "50000", "--k", "1", "--h", "0,2", "--w", "2",
              "--theta", "0.24"], 100002),
    "weighted": (["expsum", "--op", "weighted", "--n", "50000", "--k", "2",
                  "--w", "5", "--q", "3", "--theta-offset", "0.001"], 100012),
    "minor-scan": (["expsum", "--op", "minor-scan", "--n", "50000", "--k", "2",
                    "--w", "5"], 100012),
    "recur-weighted": (["recur", "--weighted", "--n", "50000", "--k", "1",
                        "--h", "0,4", "--w", "2", "--w0", "4", "--theta",
                        "0.2", "--system", "g=4"], 100004),
    "prime": (["expsum", "--op", "prime", "--n", "50000", "--d-mod", "3",
               "--a", "1", "--q", "4", "--theta-offset", "0.001"], 100000),
    "main-term": (["expsum", "--op", "main-term", "--n", "50000", "--a", "1",
                   "--q", "3", "--theta-offset", "1e-6"], 0),
    "discrepancy-q": (["expsum", "--op", "discrepancy", "--n", "50000", "--q",
                       "400", "--grid", "3", "--delta", "1e-6"], 100000),
    "discrepancy": (["expsum", "--op", "discrepancy", "--n", "50000", "--q",
                     "4", "--grid", "3"], 100000),
    "classify": (["expsum", "--op", "classify", "--alpha", "0.5", "--n",
                  "50000"], 0),
    "recur-pmax": (["recur", "--pmax", "100000", "--system", "g=4,d=1",
                    "--set", "0:0.0:0.5"], 100000),
    "recur-nmax": (["recur", "--nmax", "1000", "--system", "g=4", "--set",
                    "0"], 0),
    "cluster": (["cluster", "--n", "50000", "--k", "5", "--tuple-style",
                 "dense", "--w", "5", "--w0", "4", "--system", "g=4", "--set",
                 "0"], 100036),
    "cluster-consecutive": (["cluster", "--n", "50000", "--h", "0,4", "--w",
                             "11", "--w0", "4", "--consecutive", "--system",
                             "g=4", "--set", "0"], 100004),
    "tuple": (["tuple", "--k", "2"], 0),
}


def _record_table_limits(monkeypatch):
    """Record the limit of every table asked for: the CLI's own call and
    each walk's (``primes.base_primes``) alike."""
    limits = []
    build = primes.build_prime_table

    def recording_build(limit):
        limits.append(limit)
        return build(limit)

    monkeypatch.setattr(cli, "build_prime_table", recording_build)
    monkeypatch.setattr(primes, "build_prime_table", recording_build)
    return limits


@pytest.mark.parametrize("args,top", _WINDOWS.values(), ids=_WINDOWS.keys())
def test_progression_sums_request_only_base_primes(args, top, monkeypatch,
                                                   capsys):
    limits = _record_table_limits(monkeypatch)
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and lines_of(out)
    assert max(limits, default=0) <= math.isqrt(top) + 1


@pytest.mark.parametrize("args", [a for a, _ in _WINDOWS.values()],
                         ids=_WINDOWS.keys())
def test_no_op_reads_the_least_prime_factors(args, monkeypatch, capsys):
    # an op reads only its table's primes (main-term, which needed mobius(q)
    # from spf, builds none), so a table without spf gives the same bytes
    _, want, _ = run_cli(args, capsys)

    def primes_only(limit):
        t = build_prime_table(limit)
        return PrimeTable(limit=t.limit, spf=np.zeros(0, dtype=np.uint32),
                          primes=t.primes)

    build_prime_table.cache_clear()
    monkeypatch.setattr(primes, "build_prime_table", primes_only)
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    assert out == want


@pytest.mark.parametrize("args,top", _WINDOWS.values(), ids=_WINDOWS.keys())
def test_the_op_reads_the_table_the_cli_built(args, top, capsys):
    # the CLI builds the table before the op starts, and the op's walks
    # read that one from the cache; an op that sieves no window builds none
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    info = build_prime_table.cache_info()
    assert info.misses == (1 if top else 0)


@pytest.mark.parametrize("args", [
    ["expsum", "--op", "prime", "--n", "70000000"],
    ["expsum", "--op", "discrepancy", "--n", "70000000"],
    ["recur", "--pmax", "140000000"],
    ["cluster", "--n", "70000000", "--k", "5", "--tuple-style", "dense",
     "--w", "5", "--w0", "4", "--system", "g=4"],
], ids=["prime", "discrepancy", "recur-pmax", "cluster"])
def test_held_window_above_budget_exits_2_before_sieving(args, monkeypatch,
                                                         capsys):
    limits = _record_table_limits(monkeypatch)
    monkeypatch.setattr(
        "recurgaps.primes.ap_primality",
        lambda *a: pytest.fail("sieved a window above the budget"))
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert "budget 2^27" in err
    assert max(limits) < 20_000


def test_over_budget_discrepancy_exits_2_before_sieving(monkeypatch, capsys):
    # at least 2,498,139 primes in [2^26 - 1, 2^27 - 2] already break the
    # budget at phi(1000) = 400 values of a and 41 theta points
    monkeypatch.setattr(
        "recurgaps.expsum.primes_in",
        lambda *a: pytest.fail("sieved the window of a refused scan"))
    code, out, err = run_cli(["expsum", "--op", "discrepancy", "--n",
                              "67108863", "--q", "1000", "--grid", "41",
                              "--delta", "1e-6"], capsys)
    assert code == 2
    assert out == ""
    assert "lower q (--q) or the theta grid (--grid)" in err


# each op's sums of Omega-weighted terms, more than one record apiece
_ONE_TABLE_OPS = {
    "sums": ["sums", "--n", "50000", "--k", "1", "--h", "0,2", "--w", "2",
             "--theta", "0.24"],
    "recur-weighted": ["recur", "--weighted", "--n", "50000", "--k", "1",
                       "--h", "0,4", "--w", "2", "--w0", "4", "--theta", "0.2",
                       "--system", "g=4"],
    "minor-scan": ["expsum", "--op", "minor-scan", "--n", "50000", "--k", "1",
                   "--h", "0,2", "--w", "2", "--theta", "0.24", "--alphas",
                   "0.6180339887498949,0.41421356237309515"],
}


@pytest.mark.parametrize("args", _ONE_TABLE_OPS.values(),
                         ids=_ONE_TABLE_OPS.keys())
def test_each_op_builds_one_omega_table(args, monkeypatch, capsys):
    builds = []
    kernel = sieve.omega_kernel

    def counted(*a):
        builds.append(a)
        return kernel(*a)

    monkeypatch.setattr(sieve, "omega_kernel", counted)
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    assert len(lines_of(out)) > 1
    assert len(builds) == 1


@pytest.mark.parametrize("n,budget", [(50_000, 1000),
                                      (10 ** 9, None)])  # 5e8 points, 3.7 GiB
def test_omega_table_over_budget_exits_2_before_the_kernel(n, budget,
                                                           monkeypatch, capsys):
    if budget is not None:  # N = 5e4 needs P = 3 * 5 * 7 * 11 = 1155 points
        monkeypatch.setattr(sieve, "OMEGA_TABLE_BUDGET", budget)
    monkeypatch.setattr(sieve, "omega_kernel",
                        lambda *a: pytest.fail("built an over-budget table"))
    code, out, err = run_cli(["sums", "--n", str(n), "--k", "0", "--h", "0",
                              "--w", "2", "--theta", "0.24"], capsys)
    assert code == 2
    assert out == ""
    assert "--n" in err and "--theta" in err


def test_repeat_run_byte_identity(tmp_path, capsys):
    paths = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.jsonl"
        code, _, _ = run_cli(["cluster", "--n", "100000", "--k", "5",
                              "--tuple-style", "dense", "--w", "5", "--w0", "4",
                              "--system", "g=4", "--set", "0",
                              "--out", str(path)], capsys)
        assert code == 0
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 50000\nk = 1\nw = 5\ntheta = 0.1\n")
    code, out, _ = run_cli(["--config", str(cfg), "sums"], capsys)
    assert code == 0
    assert lines_of(out)[0]["params"]["N"] == 50000
    code, out, _ = run_cli(["--config", str(cfg), "sums", "--n", "60000"],
                           capsys)
    assert lines_of(out)[0]["params"]["N"] == 60000


def test_parse_system_and_set():
    sys_ = parse_system("g=4")
    assert sys_.g == 4 and sys_.d == 0
    sys_ = parse_system("g=1,d=2,kappa=sqrt_primes")
    assert sys_.d == 2
    assert sys_.kappa[0] == pytest.approx(math.sqrt(2) - 1)
    sys_ = parse_system("g=2,d=1,kappa=0.37,gamma0=1")
    A = parse_set("0:0.1:0.25;1:0.6:0.25", sys_)
    assert len(A.pieces) == 2
    full = parse_set("all", sys_)
    assert sum(c.volume() for _, c in full.pieces) == 2.0


def test_serializer_formats():
    s = dumps({"a": 1.0 / 3.0, "z": complex(1, -2), "n": 7, "s": "x",
               "v": [1.5, None]})
    assert s == '{"a": 0.333333333333, "z": [1, -2], "n": 7, "s": "x", "v": [1.5, null]}'


@pytest.mark.parametrize("value,text", [
    (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    (complex(1.0, float("nan")), "[1, nan]"),
    (complex(float("inf"), 0.0), "[inf, 0]"),
])
def test_serializer_rejects_non_finite(value, text):
    with pytest.raises(NonFiniteError, match=f"field 'ratio' is {re.escape(text)}"):
        dumps({"op": "x", "params": {"N": 1}, "ratio": value})
    with pytest.raises(NonFiniteError, match="field 'v'"):
        dumps({"v": [1.0, value]})


def test_non_finite_result_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "prime_expsum", lambda *a: complex(float("nan"), 0.0))
    code, out, err = run_cli(["expsum", "--op", "prime", "--n", "1000",
                              "--a", "1", "--q", "4"], capsys)
    assert code == 1
    assert out == ""
    assert "NonFiniteError" in err and "'value'" in err


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


STRICT_JSON_RUNS = [
    ["tuple", "--k", "2", "--w", "5", "--w0", "1"],
    ["sums", "--n", "50000", "--k", "1", "--h", "0,2", "--w", "2",
     "--theta", "0.24"],
    ["expsum", "--op", "classify", "--alpha", "0.5", "--n", "1000000"],
    ["expsum", "--op", "prime", "--n", "10000", "--a", "1", "--q", "3",
     "--theta-offset", "1e-6"],
    ["expsum", "--op", "main-term", "--n", "10000", "--a", "1", "--q", "3",
     "--theta-offset", "1e-6"],
    ["expsum", "--op", "weighted", "--n", "50000", "--k", "1", "--h", "0,2",
     "--w", "2", "--theta", "0.24", "--a", "1", "--q", "2",
     "--theta-offset", "0.01"],
    ["expsum", "--op", "discrepancy", "--q", "3", "--delta", "1e-5",
     "--grid", "3", "--n", "10000"],
    ["recur", "--system", "g=4", "--set", "0", "--eps", "0.01",
     "--pmax", "1000"],
    ["recur", "--system", "g=4", "--set", "0", "--eps", "0.01",
     "--nmax", "100"],
    ["recur", "--weighted", "--n", "50000", "--k", "1", "--h", "0,4",
     "--w", "5", "--w0", "4", "--theta", "0.24", "--system", "g=4,d=1",
     "--set", "0:0.0:0.5", "--eps", "0.01"],
    ["expsum", "--op", "minor-scan", "--n", "50000", "--k", "1", "--h", "0,2",
     "--w", "2", "--theta", "0.24", "--alphas", "0.6180339887498949,0.41"],
    ["cluster", "--n", "100000", "--k", "5", "--tuple-style", "dense",
     "--w", "5", "--w0", "4", "--system", "g=4", "--set", "0",
     "--eps", "0.01", "--m", "1"],
]


@pytest.mark.parametrize("args", STRICT_JSON_RUNS,
                         ids=["-".join(a[:3]) for a in STRICT_JSON_RUNS])
def test_every_stdout_line_is_json(args, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines
    for line in lines:
        json.loads(line, parse_constant=_reject_constant)


_LEAN_PROBE = """
import contextlib, gc, io, json, os, sys

# start from an empty youngest generation, so that no collection the
# probe's own imports made due is charged to the import of cli
gc.collect()
collections = []
gc.callbacks.append(lambda phase, info: phase == "start"
                    and collections.append(info["generation"]))
import recurgaps.cli as cli

def report(stage):
    print(json.dumps({"stage": stage,
                      "threads": len(os.listdir("/proc/self/task")),
                      "frozen": gc.get_freeze_count(),
                      "gc_enabled": gc.isenabled(),
                      "collections": len(collections),
                      "loaded": sorted(m for m in sys.modules
                                       if m.startswith("recurgaps.")
                                       or m in ("concurrent.futures",
                                                "_hashlib"))}))

report("import")
for args in map(json.loads, sys.argv[1:]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0
    report(args[0])
"""

_needs_proc = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(),
    reason="needs /proc to count the process's threads")


def _lean_probe(*runs, pycache=None):
    """The probe's report after the import and after each CLI run, all in
    one fresh process, as a CLI run is; OPENBLAS_NUM_THREADS is dropped from
    its environment, since importing cli here set it for this process.
    With pycache, the package's bytecode is read from and written to that
    directory."""
    src = str(Path(recurgaps.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if pycache is not None:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(pycache)
    done = subprocess.run(
        [sys.executable, "-c", _LEAN_PROBE, *map(json.dumps, runs)], env=env,
        capture_output=True, text=True, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


@_needs_proc
def test_cli_import_leaves_verify_suite_and_thread_pool_unloaded():
    stages = {r["stage"]: r for r in _lean_probe(
        ["sums", "--n", "20000", "--k", "1", "--h", "0,2", "--w", "2",
         "--theta", "0.24"],
        ["expsum", "--op", "discrepancy", "--q", "4", "--delta", "1e-6",
         "--grid", "5", "--n", "10000"])}
    assert stages["import"]["threads"] == 1  # no BLAS worker thread
    assert stages["import"]["frozen"] > 0  # the imports' objects are frozen
    assert stages["import"]["loaded"] == [
        "recurgaps.admissible", "recurgaps.cli", "recurgaps.primes",
        "recurgaps.serialize"]
    assert stages["sums"]["loaded"] == sorted(
        stages["import"]["loaded"]
        + ["recurgaps.accumulate", "recurgaps.sieve", "recurgaps.testfn"])
    assert "recurgaps.expsum" in stages["expsum"]["loaded"]
    for absent in ("recurgaps.acceptance", "recurgaps.cluster",
                   "recurgaps.dynamics", "concurrent.futures"):
        assert absent not in stages["expsum"]["loaded"]
    for stage in ("sums", "expsum"):  # config_hash loads no OpenSSL
        assert "_hashlib" not in stages[stage]["loaded"]


@_needs_proc
def test_cli_import_runs_no_collection_and_leaves_the_collector_on(tmp_path):
    # Compiling cli.py from source can start a collection before cli's
    # first statement runs, so the probe runs twice on one bytecode cache
    # and the second run, which reads cli's bytecode as an installed
    # package does, is the one checked.
    _lean_probe(pycache=tmp_path)
    after = _lean_probe(pycache=tmp_path)[0]
    assert after["stage"] == "import"
    assert after["collections"] == 0
    assert after["gc_enabled"] is True
    assert after["frozen"] > 0


_GC_STATE_PROBE = """
import gc, json, sys
seen = []
for enabled in (True, False):
    for fail in (False, True):
        (gc.enable if enabled else gc.disable)()
        sys.modules.pop("recurgaps.cli", None)
        if fail:  # the eager import of serialize raises ImportError
            sys.modules["recurgaps.serialize"] = None
        try:
            import recurgaps.cli
            raised = False
        except ImportError:
            raised = True
        sys.modules.pop("recurgaps.serialize", None)
        seen.append([enabled, raised, gc.isenabled()])
print(json.dumps(seen))
"""


def test_cli_import_leaves_the_collector_as_it_found_it():
    # also when one of cli's eager imports raises
    src = str(Path(recurgaps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _GC_STATE_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [[True, False, True], [True, True, True],
                                       [False, False, False],
                                       [False, True, False]]


# The runs that sum over no progression: every op but sums, expsum
# --op weighted|minor-scan, recur --weighted and cluster.
LEAN_RUNS = [a for a in STRICT_JSON_RUNS
             if not {"sums", "weighted", "minor-scan", "--weighted",
                     "cluster"} & set(a)]


@_needs_proc
@pytest.mark.parametrize("args", LEAN_RUNS,
                         ids=["-".join(a[:3]) for a in LEAN_RUNS])
def test_op_without_a_progression_sum_leaves_sieve_and_testfn_unloaded(args):
    after = _lean_probe(args)[-1]
    assert after["stage"] == args[0]
    for absent in ("recurgaps.sieve", "recurgaps.testfn"):
        assert absent not in after["loaded"]


def test_deferred_names_are_their_modules_own():
    for name, module in cli._LAZY.items():
        home = importlib.import_module(f"recurgaps.{module}")
        assert getattr(cli, name) is getattr(home, name)
    with pytest.raises(AttributeError, match="no_such_op"):
        cli.no_such_op


def test_no_module_imports_a_private_name_from_another():
    # a helper used across modules is public in the module that defines it
    leaks = []
    for path in sorted(Path(recurgaps.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                leaks += [f"{path.name}:{node.lineno} {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert leaks == []


def test_verify_emits_strict_json_and_exits_1_on_a_failing_check(
        monkeypatch, capsys):
    stubs = [
        acceptance.CriterionResult(num=1, name="stub pass", passed=True,
                                   budget_s=10.0, elapsed_s=0.5,
                                   details={"ratio": 1.25}),
        acceptance.CriterionResult(num=2, name="stub fail", passed=False,
                                   budget_s=10.0, elapsed_s=0.5),
    ]
    calls = []

    def run_all(seed=DEFAULT_SEED):
        calls.append(seed)
        return stubs

    monkeypatch.setattr(acceptance, "run_all", run_all)
    code, out, err = run_cli(["verify"], capsys)
    assert code == 1
    assert calls == [DEFAULT_SEED]
    recs = [json.loads(line, parse_constant=_reject_constant)
            for line in out.splitlines()]
    assert [(r["criterion"], r["passed"]) for r in recs] == [(1, True),
                                                            (2, False)]
    assert all(r["config"]["seed"] == DEFAULT_SEED for r in recs)
    assert "1/2 checks passed" in err
