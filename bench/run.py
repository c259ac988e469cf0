"""Benchmark of ``repblock blockdiag`` on seeded invariant-SDP workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script writes the workload's input
files under ``bench/work/NAME/``, then starts ``job.py`` in a fresh
process with BLAS held to one thread and ``src`` on the path, which runs
whole rounds of the workload's jobs for about ``S`` seconds.  After that
process has ended, every job's output is checked against computations
made here (``checks.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` jobs, and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
the two times are means over the run's rounds (see ``round_mean``).  With ``--trace 1`` the process
runs one plain round and one traced round instead; the metrics are the
per-layer ones, taken from the traced round, and the lines before the
result give the self time per layer and the tracing overhead.

Exit codes: 0 with a result; 2 when the program or an input is missing;
3 when the measured process fails or overruns.
"""

from __future__ import annotations

import os

# Hold BLAS to one thread before numpy loads, here and in the child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150


def fail(code, message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def prepare(workload, seed, workdir):
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    jobs = workloads.build(workload, seed)
    # the program's seed differs per job but not per round
    descs = [job.write(workdir, seed * 16 + k) for k, job in enumerate(jobs)]
    (workdir / "jobs.json").write_text(json.dumps(descs, indent=1))
    return jobs


def measure(workdir, seconds, trace):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "job.py"), "--jobs", str(workdir / "jobs.json"),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, f"measured process overran {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(3, f"measured process exited with code {proc.returncode}")
    return json.loads(out.read_text())


def check_all(jobs, result, seed):
    """Check every attempted job; returns (attempted, failed, wrong)."""
    by_name = {job.name: job for job in jobs}
    rng = np.random.default_rng([seed, 0xC4EC])
    attempted = failed = wrong = 0
    for rnd in result["rounds"]:
        for rec in rnd["jobs"]:
            attempted += 1
            problems = checks.check_attempt(by_name[rec["name"]], rec, rng)
            if problems:
                failed += 1
                wrong += bool(rec.get("ok"))
                print(f"FAILED {rec['tag']}: " + "; ".join(problems))
    return attempted, failed, wrong


def round_mean(rounds, key):
    """Total time over the run's rounds divided by their number.

    The machine switches between a fast and a slow state that often spans
    whole rounds, so per-round times are bimodal and a median over a dozen
    rounds flips between the two modes from run to run.  The total moves
    smoothly with the share of the run spent in the slow state.
    """
    return sum(r[key] for r in rounds) / len(rounds)


def report_rounds(result):
    for rnd in result["rounds"]:
        jobs = ", ".join(f"{j['name']} {j.get('setup_s', 0):.3f}+{j.get('solve_s', 0):.3f} s"
                         for j in rnd["jobs"])
        kind = "traced" if rnd["traced"] else "plain"
        print(f"round {rnd['index']} ({kind}): setup {rnd['setup_s']:.4f} s, "
              f"solve {rnd['solve_s']:.4f} s  [{jobs}]")


def report_trace(result):
    plain, traced = result["rounds"]
    base = plain["setup_s"] + plain["solve_s"]
    total = traced["setup_s"] + traced["solve_s"]
    selfs, inclusive = result["self_times"], result["inclusive_times"]
    print(f"  {'span (traced round)':24s} {'self':>10s}   {'inclusive':>10s}")
    layers = {}
    for name, t in selfs.items():
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + t
    for name, t in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  {name:24s} {t:10.4f} s {inclusive.get(name, 0.0):10.4f} s")
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  layer {layer:18s} {t:10.4f} s  {100 * t / total:5.1f}%")
    print(f"sum of self times {sum(selfs.values()):.4f} s; traced setup+solve {total:.4f} s")
    print(f"tracing overhead: traced {total:.4f} s - untraced {base:.4f} s = "
          f"{total - base:+.4f} s ({100 * (total - base) / base:+.1f}%)")
    cost = result["spans"] * result["span_cost_s"]
    print(f"tracer's own cost, calibrated on a no-op: {result['spans']} spans x "
          f"{1e6 * result['span_cost_s']:.2f} us = {cost:.4f} s ({100 * cost / total:.1f}%); "
          "the difference above also holds the machine's drift between the two rounds")


def main(argv=None):
    ap = argparse.ArgumentParser(description="blockdiag benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repblock" / "__init__.py").is_file():
        fail(2, f"the program's sources are missing under {ROOT / 'src'}")
    end_to_end, per_layer = metric_specs()
    workdir = HERE / "work" / args.workload
    jobs = prepare(args.workload, args.seed, workdir)
    result = measure(workdir, args.seconds, args.trace)

    report_rounds(result)
    attempted, failed, wrong = check_all(jobs, result, args.seed)
    if args.trace:
        report_trace(result)
        values, units = result["layers"], per_layer
    else:
        plain = result["rounds"]
        values = {"setup_s": round_mean(plain, "setup_s"),
                  "solve_s": round_mean(plain, "solve_s"),
                  "peak_rss_mb": result["peak_rss_mb"]}
        units = end_to_end
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:30s} {m['value']:.6g} {m['unit']}")
    print(f"jobs attempted {attempted}, failed {failed}; BLAS threads {BLAS_THREADS}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
