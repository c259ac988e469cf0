"""Steadiness evidence: two sets of benchmark runs of the same code.

    python3 bench/steady.py

Each set runs ``run.py`` ten times on every workload of BENCHMARK.json,
with a fresh seed for every run (the first is ``FIRST_SEED``).  The two
sets take turns run by run, each going first every other time.  For each
workload and end-to-end metric the script prints, per set, the median and
quartiles (``statistics.quantiles`` with n=4) and the spread (quartile
distance over the median), whether the spread stays within the metric's
bound, and whether the two sets' medians differ by no more than the bound,
in either direction, since both sets run the same code.  It also compares
the share of failed jobs between the sets.  The raw results go to
``bench/work/steady.json``.  The exit code is 0 only if every check holds.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
FIRST_SEED = 500


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "wall_s": wall}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results = {w: [[] for _ in range(SETS)] for w in names}
    seed = FIRST_SEED
    # The sets take turns, run by run, and the one that goes first
    # alternates, so that a drift of the machine's speed over the minutes
    # the sets take falls on both alike.
    for i in range(RUNS):
        for s in (range(SETS) if i % 2 == 0 else reversed(range(SETS))):
            for w in names:
                res = run_once(w, seed, spec["run_seconds"])
                results[w][s].append({"seed": seed, **res})
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"set {s} {w} seed {seed}: {vals} failed {res['failed']}/"
                      f"{res['attempted']} ({res['wall_s']:.1f} s)", flush=True)
                seed += 1
    (HERE / "work").mkdir(exist_ok=True)
    (HERE / "work" / "steady.json").write_text(json.dumps(results, indent=1))

    ok = True
    print()
    print(f"{'workload':15s} {'metric':12s} {'set':>3s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}  verdict")
    for w in names:
        shares = {s: (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for s, runs in enumerate(results[w])}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = None
            for s, runs in enumerate(results[w]):
                st = summary([r["metrics"][name]["value"] for r in runs])
                within = st["spread"] <= bound
                verdicts = ["spread ok" if within else "SPREAD TOO WIDE"]
                ok &= within
                if first is None:
                    first = st["median"]
                else:
                    change = (st["median"] - first) / first
                    agree = abs(change) <= bound
                    verdicts.append(f"median {change:+.1%} vs set 0: "
                                    + ("agrees" if agree else "DISAGREES"))
                    ok &= agree
                print(f"{w:15s} {name:12s} {s:3d} {st['median']:10.4f} {st['q1']:10.4f} "
                      f"{st['q3']:10.4f} {st['spread']:7.1%} {bound:6.2f}  "
                      + "; ".join(verdicts))
        rates = {s: f / a for s, (f, a) in shares.items()}
        same = len(set(rates.values())) == 1
        ok &= same
        print(f"{w:15s} failed share per set: "
              + ", ".join(f"{f}/{a}" for f, a in shares.values())
              + (" (equal)" if same else " (DIFFERENT)"))
    print("all sets agree within the bounds" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
