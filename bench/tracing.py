"""Spans and counts recorded around the public functions of ``repblock``.

The tracer wraps functions and methods from the outside: it looks each
module up in ``sys.modules`` (the package attribute ``repblock.decompose``
is the function, not the module) and rebinds every name that refers to a
wrapped function, so calls made through ``from .x import y`` bindings are
seen too.  Nothing under ``src/`` changes.  Spans and counts stay in memory
until :meth:`Tracer.dump`.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span, or -1.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans add up
to the durations of the root spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute or "Class.method", span name).  The name's prefix is
# the layer the span's self time is charged to.
TARGETS = (
    ("repblock.perm", "PermutationGroup.__init__", "perm.chain_build"),
    ("repblock.reps", "rep_from_generator_images", "reps.hom_check"),
    ("repblock.reps", "Representation.image", "reps.image"),
    ("repblock.compact", "haar_unitary", "compact.haar"),
    ("repblock.compact", "haar_orthogonal", "compact.haar"),
    ("repblock.commutant", "sample_commutant", "commutant.project"),
    ("repblock.commutant", "project_linear", "commutant.project"),
    ("repblock.sdp", "symmetrize_matrix", "commutant.symmetrize"),
    ("repblock.decompose", "decompose", "decompose.driver"),
    ("repblock.decompose", "eigsplit", "decompose.eigsplit"),
    ("repblock.decompose", "equivalence_test", "decompose.equivalence"),
    ("repblock.decompose", "classify_real_type", "decompose.classify"),
    ("repblock.decompose", "verify_decomposition", "decompose.verify"),
    ("repblock.sdp", "block_diagonalize_sdp", "sdp.extract"),
)
FORMATS_MODULE = "repblock.formats"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.maxima = {}
        self._undo = []

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def observe_max(self, key, value):
        value = float(value)
        # NaN must show, so it replaces any finite maximum
        if key not in self.maxima or not value <= self.maxima[key]:
            self.maxima[key] = value

    def wrap(self, name, fn, observe=None, outermost=False):
        """A wrapper of ``fn`` that records one span per call.

        With ``outermost`` a call made directly inside a span of the same
        name runs unrecorded, so the nested images combinators ask for do
        not count.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, out)
            return out

        return wrapper

    # -- installing and removing the wrappers ------------------------------

    def install(self):
        targets = list(TARGETS)
        fmt = sys.modules[FORMATS_MODULE]
        for attr, obj in sorted(vars(fmt).items()):
            if callable(obj) and getattr(obj, "__module__", None) == FORMATS_MODULE:
                if attr.startswith("parse_"):
                    targets.append((FORMATS_MODULE, attr, "formats.parse"))
                elif attr.startswith("format_"):
                    targets.append((FORMATS_MODULE, attr, "formats.write"))
        for modname, attr, name in targets:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._rebind(cls, meth, orig, self._wrapper(name, orig))
            else:
                orig = getattr(module, attr)
                new = self._wrapper(name, orig)
                for mod in _package_modules():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._rebind(mod, key, orig, new)

    def _wrapper(self, name, fn):
        return self.wrap(name, fn, observe=_OBSERVERS.get(name),
                         outermost=(name == "reps.image"))

    def _rebind(self, owner, key, orig, new):
        setattr(owner, key, new)
        self._undo.append((owner, key, orig))

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- reading the trace ---------------------------------------------------

    def self_times(self):
        """Self time of every span, in span order."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def inclusive_times(self):
        """Duration per span name, leaving out spans nested in one of the same name."""
        out = Counter()
        for name, start, end, parent in self.spans:
            if parent < 0 or self.spans[parent][0] != name:
                out[name] += end - start
        return out

    def buckets(self):
        """Self time and call count per bucket.

        A bucket is the span name, except that images evaluated by the
        homomorphism check are charged to ``reps.hom_check``: they are
        set-up work, while ``reps.image`` counts the images solving asks for.
        """
        own = self.self_times()
        times, calls = Counter(), Counter()
        for (name, _, _, parent), t in zip(self.spans, own):
            if name == "reps.image" and parent >= 0 and self.spans[parent][0] == "reps.hom_check":
                name = "reps.hom_check"
            times[name] += t
            calls[name] += 1
        return times, calls

    def dump(self, path, extra=None):
        doc = {"fields": ["name", "start", "end", "parent"], "spans": self.spans,
               "counts": dict(self.counts), "maxima": self.maxima, **(extra or {})}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def span_cost(calls=20000):
    """Seconds one recorded span adds to a call, measured on a no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t1 = time.perf_counter()
    for _ in range(calls):
        noop()
    t2 = time.perf_counter()
    return max(0.0, (t1 - t0) - (t2 - t1)) / calls


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "repblock" or k.startswith("repblock."))]


def _observe_equivalence(tracer, witness):
    if witness is not None:
        tracer.counts["decompose.equivalent_pairs"] += 1


def _observe_sample(tracer, sample):
    if hasattr(sample, "residual"):
        tracer.observe_max("commutant.residual_max", sample.residual)


def _observe_decompose(tracer, decomp):
    tracer.counts["decompose.attempts"] += decomp.attempts


def _observe_blocked(tracer, blocked):
    tracer.observe_max("sdp.residual_max", blocked.residual)


_OBSERVERS = {
    "decompose.equivalence": _observe_equivalence,
    "commutant.project": _observe_sample,
    "decompose.driver": _observe_decompose,
    "sdp.extract": _observe_blocked,
}


def layer_metrics(tracer, groups):
    """The per-layer metrics of BENCHMARK.json from one traced round.

    ``groups`` are the permutation groups the round's jobs set up (compact
    jobs contribute none).
    """
    times, calls = tracer.buckets()
    words = [len(w) for g in groups for level in g.transversal_words for w in level.values()]
    eq_calls = calls["decompose.equivalence"]
    return {
        "perm.chain_build_s": times["perm.chain_build"],
        "perm.max_word_len": max(words, default=0),
        "perm.transversal_total": sum(len(t) for g in groups for t in g.transversals),
        "formats.parse_s": times["formats.parse"],
        "formats.write_s": times["formats.write"],
        "reps.hom_check_s": times["reps.hom_check"],
        "reps.image_calls": calls["reps.image"],
        "reps.image_s": times["reps.image"],
        "compact.haar_draws": calls["compact.haar"],
        "compact.haar_s": times["compact.haar"],
        "commutant.project_calls": calls["commutant.project"],
        "commutant.project_s": times["commutant.project"],
        "commutant.symmetrize_s": times["commutant.symmetrize"],
        "commutant.residual_max": tracer.maxima.get("commutant.residual_max", 0.0),
        "decompose.equivalence_calls": eq_calls,
        "decompose.equivalence_s": times["decompose.equivalence"],
        "decompose.equivalence_yield": (tracer.counts["decompose.equivalent_pairs"] / eq_calls
                                        if eq_calls else 0.0),
        "decompose.classify_calls": calls["decompose.classify"],
        "decompose.classify_s": times["decompose.classify"],
        "decompose.eigsplit_s": times["decompose.eigsplit"],
        "decompose.verify_s": times["decompose.verify"],
        "decompose.attempts": tracer.counts["decompose.attempts"],
        "sdp.extract_s": times["sdp.extract"],
        "sdp.residual_max": tracer.maxima.get("sdp.residual_max", 0.0),
    }
