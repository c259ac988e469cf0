"""The measured process: runs a workload's ``blockdiag`` jobs in rounds.

``run.py`` starts this script in a fresh interpreter, with BLAS held to
one thread and the repository's ``src`` on ``PYTHONPATH``, after it has
written every input file.  Each job goes through the public functions
``repblock blockdiag`` uses, with the command's default settings:

* set-up: read the three files, ``parse_sdp``, ``parse_group_spec`` (which
  builds the stabilizer chain) and ``parse_rep_spec`` (which checks the
  generator images);
* solve: ``decompose``, ``block_diagonalize_sdp`` and writing the block
  files and ``manifest.json`` with ``format_sdp``.

Set-up and solve are timed apart.  A round runs every job once; rounds
repeat while another one fits in ``--seconds`` (the first always runs).
A set-up shorter than ``SETUP_MIN_S`` is repeated within its round until
the repeats have taken that long; the job's set-up time is their total over
their number, so that no reported time is too short to measure steadily.  The peak resident
set is read after the last round, before anything is checked.

With ``--trace`` the process runs one plain round, then one round with the
tracer installed, and writes the spans next to its result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

cli = importlib.import_module("repblock.cli")
formats = importlib.import_module("repblock.formats")
decompose_mod = importlib.import_module("repblock.decompose")
sdp_mod = importlib.import_module("repblock.sdp")
perm_mod = importlib.import_module("repblock.perm")

from tracing import Tracer, layer_metrics, span_cost  # noqa: E402  (the benchmark's own module)

SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 50


def set_up(job, span):
    with span("formats.parse"):
        texts = [Path(job[k]).read_text() for k in ("sdp", "group", "rep")]
    prob = formats.parse_sdp(texts[0])
    group = formats.parse_group_spec(texts[1])
    rep = formats.parse_rep_spec(texts[2], group, prob.field)
    if rep.dim != prob.n:
        raise ValueError(f"SDP size {prob.n} does not match representation "
                         f"dimension {rep.dim}")
    return prob, rep


def solve(job, prob, rep, outdir, span):
    config = decompose_mod.DecomposeConfig()
    rng = np.random.default_rng(job["seed"])
    decomp = decompose_mod.decompose(rep, config, rng=rng)
    blocked = sdp_mod.block_diagonalize_sdp(
        decomp, prob, symmetrize_first=job["symmetrize"], tol=1e-6,
        config=config.projection, rng=rng, threads=1)
    with span("formats.write"):
        write_blocks(blocked, prob, outdir)
    return decomp


def write_blocks(blocked, prob, outdir):
    """What ``repblock blockdiag --out DIR`` writes.

    A copy of the writing part of ``cli.cmd_blockdiag``, kept apart so that
    set-up and solve can be timed separately; ``check_selftest.py`` asserts
    that both write the same files.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    meta = []
    for k, comp in enumerate(blocked.components):
        name = f"block_{k:03d}.sdp"
        sub = sdp_mod.SdpProblem(c=comp.c_block, a=comp.a_blocks, b=blocked.b,
                                 field=blocked.field)
        (outdir / name).write_text(formats.format_sdp(sub))
        meta.append({"file": name, "dimension": comp.dimension,
                     "multiplicity": comp.multiplicity, "size": comp.multiplicity,
                     "field": blocked.field, "residual": float(comp.residual)})
    manifest = {"schema_version": cli.SCHEMA_VERSION, "field": blocked.field,
                "n": prob.n, "m": prob.m, "b": [float(v) for v in blocked.b],
                "worst_residual": float(blocked.residual), "blocks": meta}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def run_job(job, tag, workdir, tracer):
    """Set up and solve one job; returns its timings and what the checks need."""
    span = tracer.span if tracer else nullcontext_span
    rec = {"name": job["name"], "tag": tag, "ok": False}
    try:
        repeats, spent = 0, 0.0
        while True:
            with span("bench.setup"):
                t0 = time.perf_counter()
                prob, rep = set_up(job, span)
                spent += time.perf_counter() - t0
            repeats += 1
            if tracer or spent >= SETUP_MIN_S or repeats >= SETUP_MAX_REPEATS:
                break
            del prob, rep
        rec["setup_s"] = spent / repeats
        rec["setup_repeats"] = repeats
        outdir = workdir / f"{tag}.blocks"
        with span("bench.solve"):
            t0 = time.perf_counter()
            decomp = solve(job, prob, rep, outdir, span)
            rec["solve_s"] = time.perf_counter() - t0
    except Exception as exc:  # a failed job is counted, the round goes on
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec, None
    np.save(workdir / f"{tag}.U.npy", decomp.U)
    rec.update(ok=True, U=str(workdir / f"{tag}.U.npy"), blocks=str(outdir),
               attempts=decomp.attempts,
               components=[[c.dimension, c.multiplicity, c.real_type]
                           for c in decomp.components])
    group = rep.group if isinstance(rep.group, perm_mod.PermutationGroup) else None
    return rec, group


def nullcontext_span(name):
    return nullcontext()


def run_round(jobs, index, workdir, tracer=None):
    recs, groups = [], []
    for job in jobs:
        rec, group = run_job(job, f"r{index}-{job['name']}", workdir, tracer)
        recs.append(rec)
        if group is not None:
            groups.append(group)
    total = {k: sum(r.get(k, 0.0) for r in recs) for k in ("setup_s", "solve_s")}
    return {"index": index, "traced": tracer is not None, **total, "jobs": recs}, groups


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", required=True, help="jobs.json written by run.py")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="result JSON to write")
    args = ap.parse_args(argv)

    jobs = json.loads(Path(args.jobs).read_text())
    workdir = Path(args.jobs).parent
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rec, _ = run_round(jobs, len(rounds), workdir)
        rounds.append(rec)
        now = time.perf_counter()
        # no round is started that would end after --seconds
        if args.trace or now - start + (now - t0) > args.seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"rounds": rounds, "peak_rss_mb": peak_kib / 1024.0}

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            rec, groups = run_round(jobs, len(rounds), workdir, tracer)
        finally:
            tracer.uninstall()
        rounds.append(rec)
        times, _ = tracer.buckets()
        result["layers"] = layer_metrics(tracer, groups)
        result["self_times"] = dict(sorted(times.items()))
        result["inclusive_times"] = dict(sorted(tracer.inclusive_times().items()))
        result["spans"] = len(tracer.spans)
        result["span_cost_s"] = span_cost()
        trace_path = workdir / "trace.json"
        tracer.dump(trace_path, {"round": rec["index"]})
        result["trace_file"] = str(trace_path)

    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
