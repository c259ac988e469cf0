"""The benchmark uses the package by name; what it uses must keep working.

Its traced mode wraps package functions by name, ``layer_metrics`` reads
the stabilizer chain's transversal words, and ``bench/job.py`` calls the
functions ``repblock blockdiag`` uses, with their keyword arguments.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import equivalence_pass_order, regular_rep, symmetric

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("modname,attr,span", tracing.TARGETS, ids=str)
def test_trace_target_resolves(modname, attr, span):
    # import_module, not getattr on the package: ``repblock.decompose`` as a
    # package attribute is the function, not the module
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{modname}.{attr} is not callable"


def test_formats_module_has_parsers_and_writers():
    fmt = importlib.import_module(tracing.FORMATS_MODULE)
    names = [k for k, v in vars(fmt).items()
             if callable(v) and getattr(v, "__module__", None) == tracing.FORMATS_MODULE]
    assert any(k.startswith("parse_") for k in names)
    assert any(k.startswith("format_") for k in names)


def test_layer_metrics_reads_the_chain():
    group = symmetric(5)
    metrics = tracing.layer_metrics(tracing.Tracer(), [group])
    assert metrics["perm.max_word_len"] >= 1
    assert metrics["perm.transversal_total"] == sum(len(t) for t in group.transversals)


def test_layer_metrics_builds_an_unread_chain(chain_builds):
    # a job whose representation never reads the chain hands layer_metrics an
    # unbuilt group: the perm metrics build it and read what a built one gives
    built, unread = symmetric(6), symmetric(6)
    built.order()
    assert chain_builds == [6]
    perm_metrics = [{k: v for k, v in tracing.layer_metrics(tracing.Tracer(), [g]).items()
                     if k.startswith("perm.")} for g in (built, unread)]
    assert chain_builds == [6, 6]
    assert perm_metrics[0] == perm_metrics[1]
    assert perm_metrics[0]["perm.transversal_total"] == 6 + 5 + 4 + 3 + 2


def test_traced_decompose_counts_pairs_and_one_verification():
    # decompose.equivalence_calls and decompose.equivalence_yield count the
    # equivalence_test spans, decompose.verify_s times verify_decomposition:
    # one call per (candidate, class lead) pair, one verification per run
    from repblock import decompose

    tracer = tracing.Tracer()
    tracer.install()
    try:
        d = decompose(regular_rep(symmetric(4)), rng=np.random.default_rng(3))
    finally:
        tracer.uninstall()
    assert d.attempts == 1
    clusters, pairs, equivalent = equivalence_pass_order(d)
    assert (clusters, equivalent) == (10, 5)  # S4 irreps 1, 1, 2, 3, 3, each M = D
    _, calls = tracer.buckets()
    assert calls["decompose.equivalence"] == pairs == d.pairs_tested
    assert calls["decompose.verify"] == 1
    metrics = tracing.layer_metrics(tracer, [])
    assert metrics["decompose.equivalence_calls"] == pairs
    assert metrics["decompose.equivalence_yield"] == equivalent / pairs


def test_bench_selftest_passes():
    # among the self-tests, one runs a job through bench/job.py and through
    # ``repblock blockdiag`` and compares the files they write
    proc = subprocess.run([sys.executable, str(BENCH / "check_selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "11/11 self-tests passed" in proc.stdout, proc.stdout


def test_traced_real_decompose_projects_two_samples_and_classifies_once():
    # O(3)^(x2) over R has no index action: each attempt makes two
    # commutant.project spans and one decompose.classify span, and no
    # projection runs inside classification
    from repblock import decompose, defining_rep, orthogonal_group, tensor

    o3 = defining_rep(orthogonal_group(3))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        d = decompose(tensor(o3, o3), rng=np.random.default_rng(0))
    finally:
        tracer.uninstall()
    _, calls = tracer.buckets()
    assert calls["commutant.project"] == 2 * d.attempts
    assert calls["decompose.classify"] == d.attempts
    names = [span[0] for span in tracer.spans]
    for k, (name, _, _, parent) in enumerate(tracer.spans):
        if name == "commutant.project":
            while parent >= 0:
                assert names[parent] != "decompose.classify", k
                parent = tracer.spans[parent][3]
