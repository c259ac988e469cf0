"""Seeded inputs of the two benchmark workloads.

Every workload is a list of ``blockdiag`` jobs.  A job is an SDP file, a
group spec and a representation spec, written here before the measured
process starts, together with the reference data the checks compare the
program's output against.  This module never imports ``repblock``: the
inputs and the expected answers are built from the combinatorics alone.

The same ``seed`` gives byte-identical files.  Group generators are fixed;
the seed picks the Cayley-graph connection set, the objective and right
hand side coefficients, the Terwilliger noise and the program's own seed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import numpy as np

WORKLOADS = ("regular-s5xc2", "sdp-images")

# Relative size of the noise added to the Terwilliger data, large enough
# that the unsymmetrized data fail the program's 1e-6 invariance check.
TERWILLIGER_NOISE = 1e-4


@dataclass
class Job:
    """One ``blockdiag`` invocation and what its output must equal."""

    name: str
    field: str
    mats: list                  # C, A_1, ..., A_m as dense arrays
    b: np.ndarray
    group_spec: dict
    rep_spec: dict
    symmetrize: bool = False
    expect: dict = field(default_factory=dict)
    # For finite groups: generator images of the representation, used to
    # check the block pattern of U rho U^dag.  For compact groups: the
    # group ("unitary" / "orthogonal", d) and tensor power, so the checks
    # draw their own Haar samples.
    gen_images: list | None = None
    compact: tuple | None = None
    # The data the blocks must reassemble to; defaults to ``mats``.
    target: list | None = None

    def write(self, workdir: Path, seed: int) -> dict:
        """Write the three input files; returns the job's descriptor."""
        paths = {kind: str(workdir / f"{self.name}.{kind}") for kind in ("sdp", "group", "rep")}
        Path(paths["sdp"]).write_text(format_sdp(self.mats, self.b, self.field))
        Path(paths["group"]).write_text(json.dumps(self.group_spec) + "\n")
        Path(paths["rep"]).write_text(json.dumps(self.rep_spec) + "\n")
        return {"name": self.name, "symmetrize": self.symmetrize,
                "seed": seed, **paths}


# ---------------------------------------------------------------------------
# SDP text, written independently of the program's own writer
# ---------------------------------------------------------------------------

def format_sdp(mats, b, field) -> str:
    n = mats[0].shape[0]
    out = [f"{n} {len(mats) - 1} {field}"]
    iu, ju = np.triu_indices(n)
    for k, mat in enumerate(mats):
        vals = mat[iu, ju]
        nz = np.nonzero(vals)[0]
        if field == "complex":
            out.extend(f"MATRIX {k} {iu[p]} {ju[p]} {vals[p].real:.17g} {vals[p].imag:.17g}"
                       for p in nz)
        else:
            out.extend(f"MATRIX {k} {iu[p]} {ju[p]} {vals[p]:.17g}" for p in nz)
    out.append("B" + "".join(f" {v:.17g}" for v in b))
    return "\n".join(out) + "\n"


def perm_matrix(images) -> np.ndarray:
    """Matrix of a permutation in the program's convention: (g(k), k) = 1."""
    n = len(images)
    m = np.zeros((n, n))
    m[np.asarray(images), np.arange(n)] = 1.0
    return m


def _images_json(m) -> list:
    return [[int(v) for v in row] for row in m]


# ---------------------------------------------------------------------------
# regular-s5xc2
# ---------------------------------------------------------------------------

def s5xc2_elements():
    """Elements (p, c) of S5 x C2 in a fixed order, and their index map."""
    elems = [(p, c) for p in itertools.permutations(range(5)) for c in (0, 1)]
    return elems, {e: i for i, e in enumerate(elems)}


def s5xc2_mul(x, y):
    (p, c), (q, d) = x, y
    return tuple(p[k] for k in q), (c + d) % 2


def regular_s5xc2(rng) -> list:
    elems, index = s5xc2_elements()
    ident = (tuple(range(5)), 0)
    gens = [((1, 0, 2, 3, 4), 0), ((1, 2, 3, 4, 0), 0), (ident[0], 1)]
    # left multiplication x -> g x, so right multiplication preserves it
    gen_perms = [[index[s5xc2_mul(g, x)] for x in elems] for g in gens]

    # symmetric connection set of a Cayley graph, without the identity
    picks = rng.choice(np.arange(1, len(elems)), size=5, replace=False)
    conn = set()
    for k in picks:
        s = elems[int(k)]
        inv = tuple(np.argsort(s[0]).tolist()), s[1]
        conn.update((s, inv))
    n = len(elems)
    adj = np.zeros((n, n), dtype=complex)
    for i, x in enumerate(elems):
        for s in conn:
            adj[i, index[s5xc2_mul(x, s)]] = 1.0
    mats = [np.ones((n, n), dtype=complex), np.eye(n, dtype=complex), adj]
    return [Job(
        name="s5xc2-regular", field="complex", mats=mats, b=np.array([1.0, 0.0]),
        group_spec={"degree": n, "generators": gen_perms},
        rep_spec={"kind": "natural"},
        expect={"kind": "regular", "order": n,
                "classes": count_conjugacy_classes(elems, index)},
        gen_images=[perm_matrix(p).astype(complex) for p in gen_perms])]


def count_conjugacy_classes(elems, index) -> int:
    """Brute force: orbits of the group acting on itself by conjugation."""
    inv = [None] * len(elems)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if s5xc2_mul(x, y) == elems[0]:
                inv[i] = j
                break
    seen = set()
    classes = 0
    for x in elems:
        if x in seen:
            continue
        classes += 1
        for g, gi in zip(elems, inv):
            seen.add(s5xc2_mul(s5xc2_mul(g, x), elems[gi]))
    return classes


# ---------------------------------------------------------------------------
# the compact job of sdp-images
# ---------------------------------------------------------------------------

def tensor_permutation(d: int, k: int, sigma) -> np.ndarray:
    """Operator permuting the k tensor factors of (C^d)^(x k) by sigma."""
    n = d ** k
    m = np.zeros((n, n))
    for idx in itertools.product(range(d), repeat=k):
        src = np.ravel_multi_index(idx, (d,) * k)
        dst = np.ravel_multi_index(tuple(idx[sigma[a]] for a in range(k)), (d,) * k)
        m[dst, src] = 1.0
    return m


def _combination(rng, ops):
    coeffs = rng.uniform(0.5, 1.5, size=len(ops))
    return sum(c * op for c, op in zip(coeffs, ops))


def u3_power3(rng) -> Job:
    """U(3)^(x3) with the S3 permutation operators, symmetrized (P + P^T)."""
    ops = {}
    for s in itertools.permutations(range(3)):
        p = tensor_permutation(3, 3, s)
        key = min(tuple(s), tuple(np.argsort(s).tolist()))
        ops[key] = p + p.T
    u3 = [ops[k].astype(complex) for k in sorted(ops)]
    return Job(name="u3-power3", field="complex", mats=[_combination(rng, u3)] + u3,
               b=rng.uniform(-1, 1, size=len(u3)),
               group_spec={"compact": "unitary", "dimension": 3},
               rep_spec={"kind": "power", "k": 3, "inner": {"kind": "defining"}},
               expect={"kind": "exact", "dm": [[1, 1], [8, 2], [10, 1]]},
               compact=("unitary", 3, 3))


# ---------------------------------------------------------------------------
# sdp-images
# ---------------------------------------------------------------------------

def _induced(gen_points, points, action):
    """Permutation images of generators acting on ``points``."""
    index = {p: i for i, p in enumerate(points)}
    return [[index[action(g, p)] for p in points] for g in gen_points]


def terwilliger_labels(q: int = 8) -> np.ndarray:
    """Orbital label of every pair (x, y) of {0,1}^q under S_q.

    The orbit of (x, y) is fixed by (|x|, |y|, |x and y|); the label
    merges (i, j, t) with (j, i, t), which symmetrizes the orbitals.
    """
    pop = np.array([bin(x).count("1") for x in range(2 ** q)])
    x = np.arange(2 ** q)
    i, j = pop[:, None], pop[None, :]
    t = pop[x[:, None] & x[None, :]]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    keys = lo * (q + 1) ** 2 + hi * (q + 1) + t
    _, labels = np.unique(keys, return_inverse=True)
    return labels.reshape(2 ** q, 2 ** q)


def orbital_average(mat, labels) -> np.ndarray:
    """Entrywise average of ``mat`` over each orbital (the group average)."""
    flat = labels.ravel()
    sums = np.bincount(flat, weights=mat.ravel())
    counts = np.bincount(flat)
    return (sums / counts)[labels]


def terwilliger(rng) -> Job:
    q = 8
    gens = [(1, 0) + tuple(range(2, q)), tuple(range(1, q)) + (0,)]

    def act(g, x):  # bit k of x moves to bit g(k)
        return sum(1 << g[k] for k in range(q) if x >> k & 1)

    gen_perms = _induced(gens, range(2 ** q), act)
    images = [perm_matrix(p) for p in gen_perms]
    labels = terwilliger_labels(q)
    nlab = int(labels.max()) + 1
    mats = []
    for k in range(nlab):
        exact = (labels == k).astype(float)
        noise = np.triu(rng.standard_normal(exact.shape) * TERWILLIGER_NOISE * exact)
        noisy = exact + noise + np.triu(noise, 1).T
        mats.append(noisy)
    target = [orbital_average(m, labels) for m in mats]
    dm = [[comb(q, k) - (comb(q, k - 1) if k else 0), q + 1 - 2 * k]
          for k in range(q // 2 + 1)]
    return Job(
        name="terwilliger-s8", field="real", mats=mats,
        b=rng.uniform(-1, 1, size=nlab - 1),
        group_spec={"degree": q, "generators": [list(g) for g in gens]},
        rep_spec={"kind": "generator-images",
                  "images": [_images_json(m) for m in images]},
        symmetrize=True,
        expect={"kind": "exact", "dm": dm, "real_type": "real"},
        gen_images=images, target=target)


def kneser() -> Job:
    v = 14
    gens = [(1, 0) + tuple(range(2, v)), tuple(range(1, v)) + (0,)]
    pairs = list(itertools.combinations(range(v), 2))
    gen_perms = _induced(gens, pairs, lambda g, p: tuple(sorted((g[p[0]], g[p[1]]))))
    images = [perm_matrix(p) for p in gen_perms]
    n = len(pairs)
    adj = np.array([[float(not set(a) & set(b)) for b in pairs] for a in pairs])
    mats = [np.ones((n, n)), np.eye(n), adj]
    return Job(
        name="kneser-14-2", field="real", mats=mats, b=np.array([1.0, 0.0]),
        group_spec={"degree": v, "generators": [list(g) for g in gens]},
        rep_spec={"kind": "generator-images",
                  "images": [_images_json(m) for m in images]},
        expect={"kind": "exact", "dm": [[1, 1], [13, 1], [77, 1]],
                "real_type": "real"},
        gen_images=images)


def sdp_images(rng) -> list:
    # U(3)^(x3) keeps the compact layer (Haar draws, nu-round averaging)
    # measured; it is about 5% of a round.
    return [terwilliger(rng), kneser(), u3_power3(rng)]


_BUILDERS = {
    "regular-s5xc2": regular_s5xc2,
    "sdp-images": sdp_images,
}


def build(workload: str, seed: int) -> list:
    """The jobs of one workload, with inputs drawn from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng)
