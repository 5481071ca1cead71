#!/usr/bin/env python3
"""Self-tests of the simulator benchmark.

    python3 simbench/selftest.py

Run from the root of a checkout; it builds what it needs through run.py.
Checks, in order:
  1. every workload, traced and untraced, prints exactly the metrics
     BENCHMARK.json names, with the units it gives;
  2. a cell forced to fail through SweepOptions::preRunHook
     (--fail-bench) raises failed_frac and makes the run fail;
  3. the same seed gives the same digest and another seed a different
     one;
  4. the *_err_pp metrics agree with the geomeans bench_fig5_traffic and
     bench_fig7_speedup print for the reference grid.
Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
# Every workload simbench knows; BENCHMARK.json lists a subset.
WORKLOADS = ["hit_path", "miss_path", "ref_grid"]


def simbench(bdir, *args):
    """Run simbench briefly; return (exit code, human lines, result)."""
    cmd = [os.path.join(bdir, "simbench"), "--seconds", "0.1", *args]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       env=run.clean_env(), timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, json.loads(lines[-1])


def printed(lines, name):
    """The value the human-readable part prints for metric @name."""
    for line in lines:
        parts = line.split()
        if len(parts) >= 2 and parts[0] == name:
            return parts[1]
    raise AssertionError("metric %s not printed" % name)


def check(cond, what):
    if not cond:
        sys.exit("FAIL: " + what)
    print("ok:", what)


def test_metric_set(bdir):
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for w in WORKLOADS:
            code, lines, res = simbench(bdir, "--workload", w, "--seed", "1",
                                        "--trace", trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(code == 0 and res["correct"] and res["failed"] == 0,
                  "%s --trace %s runs clean" % (w, trace))
            check(got == want, "%s --trace %s prints the %s metrics of "
                  "BENCHMARK.json" % (w, trace, key))
            for name in want:
                printed(lines, name)


def test_forced_failure(bdir):
    code, lines, res = simbench(bdir, "--workload", "hit_path", "--seed", "1",
                                "--trace", "0", "--fail-bench", "swaptions")
    check(code != 0 and not res["correct"], "a forced failure fails the run")
    check(res["failed"] == 3, "the three swaptions cells count as failed")
    check(float(printed(lines, "failed_frac")) > 0, "failed_frac rises")


def test_seeds(bdir):
    digests = []
    for seed in ("0", "0", "7"):
        _, lines, _ = simbench(bdir, "--workload", "hit_path", "--seed", seed,
                               "--trace", "0")
        digests.append(printed(lines, "digest"))
    check(digests[0] == digests[1], "the same seed gives the same digest")
    check(digests[0] != digests[2], "a held-out seed gives other streams")


def figure(bdir, name):
    env = dict(run.clean_env(), D2M_QUIET="1", D2M_JOBS="4")
    p = subprocess.run([os.path.join(bdir, name)], capture_output=True,
                       text=True, env=env, timeout=900)
    check(p.returncode == 0, "%s runs clean" % name)
    return p.stdout


def test_accuracy(bdir):
    run.build(("reference_figs",))
    _, lines, res = simbench(bdir, "--workload", "ref_grid", "--seed", "0",
                             "--trace", "0")
    err = {k: v["value"] for k, v in res["metrics"].items()}
    fig7 = figure(bdir, "bench_fig7_speedup")
    fig5 = figure(bdir, "bench_fig5_traffic")
    gain = float(re.search(r"D2M-NS-R\s+all\s+([-+0-9.]+)%", fig7).group(1))
    lat = float(re.search(r"miss latency, D2M-NS-R vs Base-2L: [0-9.]+x "
                          r"\(([-+0-9]+)%\)", fig7).group(1))
    traffic = float(re.search(r"ALL\s+[0-9.]+x \(([-+0-9]+)%\)",
                              fig5).group(1))
    # The figures round to 0.1 and 1 percentage point.
    check(abs(err["fig7_err_pp"] - abs(gain - 8.5)) <= 0.05 + 1e-9,
          "fig7_err_pp matches bench_fig7_speedup (%+.1f%%)" % gain)
    check(abs(err["misslat_err_pp"] - abs(lat + 30)) <= 0.5 + 1e-9,
          "misslat_err_pp matches bench_fig7_speedup (%+.0f%%)" % lat)
    check(abs(err["fig5_err_pp"] - abs(traffic + 70)) <= 0.5 + 1e-9,
          "fig5_err_pp matches bench_fig5_traffic (%+.0f%%)" % traffic)


def main():
    bdir = run.build()
    test_metric_set(bdir)
    test_forced_failure(bdir)
    test_seeds(bdir)
    test_accuracy(bdir)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
