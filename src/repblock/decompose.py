"""Decomposition of a representation into irreducible subrepresentations.

The pipeline reduces the problem to three steps operating on commutant
samples:

1. eigendecompose a generic Hermitian commutant sample and split the
   spectrum into eigenvalue clusters; each cluster's eigenspace carries
   one irreducible subrepresentation,
2. decide equivalence of two subrepresentation bases U1, U2 from a second,
   independent commutant sample Y: the matrix F = U1 Y U2^dag is (with
   probability one) either negligible, in which case the two are
   inequivalent, or a scalar multiple of a unitary intertwiner,
3. group the bases in one pass in eigenvalue order: each basis is tested
   against the lead (first member) of every class found so far, joins the
   one class it matches, rewritten in that lead's basis so equal irreps
   have entrywise equal images, or starts a new class.

The intertwiners are not probed on group elements: verification checks
every component's repeated-block pattern on random elements, and a wrong
grouping or alignment fails there.

The assembled change of basis puts group images into block-diagonal form
with each isotypic component a multiplicity-fold repetition of one irrep
block, and puts invariant matrices into blocks of size multiplicity x
multiplicity tensored with the identity.

All genericity assumptions hold with probability one but can fail
numerically; such failures raise :class:`ResampleNeeded` internally and
the driver restarts with fresh samples up to ``_MAX_RESAMPLES`` times.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import accumulate

import numpy as np

from .commutant import (CommutantSample, ProjectionConfig, _check_tol,
                        project_linear, sample_commutant)
from .reps import Representation

REAL_TYPES = ("real", "complex", "quaternionic", "not_applicable")

_GAP_TOL = 1e-6        # eigenvalue clusters split at gaps above this (relative to the spectral range)
_ZERO_TOL = 1e-6       # |F| below this (relative to |Y|) means inequivalent
_WITNESS_TOL = 1e-3    # acceptance band for the scaled-unitary check of a candidate intertwiner
_MAX_RESAMPLES = 3     # full restarts allowed on genericity failures
_VERIFY_TRIALS = 20    # random elements checked before a decomposition is returned
_CLASSIFY_SAMPLES = 8
_CLASSIFY_SV_CUTOFF = 1e-6
# real dimension of the commutant of an irreducible real representation
_REAL_TYPE_WEIGHT = {"real": 1, "complex": 2, "quaternionic": 4}


class ResampleNeeded(Exception):
    """A genericity assumption failed; retry with fresh samples."""


class DecompositionError(RuntimeError):
    """Decomposition failed even after exhausting the resample budget."""


@dataclass(frozen=True)
class DecomposeConfig:
    block_tol: float | None = None  # verification tolerance; None = 1e-8 finite, 1e-6 compact
    projection: ProjectionConfig = dataclass_field(default_factory=ProjectionConfig)

    def __post_init__(self):
        if self.block_tol is not None:
            _check_tol(self.block_tol, "block_tol")


@dataclass
class SubrepBasis:
    """Orthonormal row basis of one eigenvalue cluster's eigenspace."""

    rows: np.ndarray
    eigenvalue: float

    @property
    def dim(self) -> int:
        return self.rows.shape[0]


@dataclass
class EquivalenceWitness:
    """Intertwiner evidence that two subrepresentations are equivalent.

    ``F`` maps the second basis to the first; ``alpha`` is its spectral
    norm, the scale at which F becomes unitary.
    """

    F: np.ndarray
    alpha: float

    @property
    def transform(self) -> np.ndarray:
        # Unitary polar factor of F: equals F/alpha up to the noise in F,
        # but exactly unitary, so harmonized bases stay orthonormal.
        w, _, vh = np.linalg.svd(self.F)
        return w @ vh


@dataclass
class IsotypicComponent:
    """All copies of one irrep, expressed in a common basis.

    ``basis`` has ``multiplicity`` consecutive groups of ``dimension``
    rows; with that layout a commuting matrix restricted to the component
    reads as an M x M matrix tensored with the D x D identity.
    """

    dimension: int
    multiplicity: int
    basis: np.ndarray
    real_type: str = "not_applicable"
    eigenvalues: tuple = ()

    @property
    def size(self) -> int:
        return self.dimension * self.multiplicity


def isotypic_components(u, parts) -> list:
    """The components over consecutive blocks of D M rows of ``u``, one per
    (D, M, fields) of ``parts``, ``fields`` a dict of its other attributes."""
    offsets = accumulate((d * m for d, m, _ in parts), initial=0)
    return [IsotypicComponent(d, m, u[lo:lo + d * m], **fields)
            for (d, m, fields), lo in zip(parts, offsets)]


@dataclass
class VerificationReport:
    trials: int
    tolerance: float
    unitarity_residual: float
    max_off_component: float
    component_residuals: tuple
    dims_ok: bool
    passed: bool
    failures: tuple


@dataclass
class IrrepDecomposition:
    """Change of basis U with the ordered isotypic components it exposes."""

    U: np.ndarray
    components: list
    diagnostics: VerificationReport | None
    rep: Representation | None = None
    attempts: int = 1
    # equivalence pass of the attempt that succeeded: eigenvalue clusters,
    # (candidate, class lead) pairs tested, and pairs found equivalent
    clusters: int = 0
    pairs_tested: int = 0
    pairs_equivalent: int = 0

    @property
    def multiplicities(self):
        return [c.multiplicity for c in self.components]

    def dm_multiset(self):
        return sorted((c.dimension, c.multiplicity) for c in self.components)

    @property
    def offsets(self) -> list:
        """Row offsets of the components in U, and the total: component k
        holds rows offsets[k]:offsets[k + 1]."""
        return list(accumulate((c.size for c in self.components), initial=0))


def eigsplit(xbar: CommutantSample):
    """Split a commutant sample's eigenbasis into eigenvalue clusters.

    Eigenvalues are sorted ascending and clusters break at every gap
    larger than ``_GAP_TOL`` times the spectral range.  A cluster whose
    internal spread exceeds a tenth of that threshold is neither clearly
    degenerate nor clearly split, which violates the genericity
    assumption; that raises :class:`ResampleNeeded`.
    """
    x = np.asarray(xbar.matrix if isinstance(xbar, CommutantSample) else xbar)
    evals, evecs = np.linalg.eigh(x)
    span = float(evals[-1] - evals[0])
    # The additive term keeps the threshold above eigenvalue roundoff even
    # when the whole spectrum collapses to one point (span ~ eps), where a
    # purely relative threshold would shatter the noise into fake clusters.
    scale = max(1.0, abs(float(evals[0])), abs(float(evals[-1])))
    threshold = _GAP_TOL * span + 1e3 * np.finfo(float).eps * scale

    clusters = []
    start = 0
    for i in range(len(evals) - 1):
        if evals[i + 1] - evals[i] > threshold:
            clusters.append((start, i + 1))
            start = i + 1
    clusters.append((start, len(evals)))

    out = []
    for lo, hi in clusters:
        spread = float(evals[hi - 1] - evals[lo])
        if spread > threshold / 10:
            raise ResampleNeeded(
                f"ambiguous eigenvalue cluster: spread {spread:.3e} vs gap threshold "
                f"{threshold:.3e}")
        q, _ = np.linalg.qr(evecs[:, lo:hi])
        out.append(SubrepBasis(rows=q.conj().T, eigenvalue=float(np.mean(evals[lo:hi]))))
    return out


def equivalence_test(b1: SubrepBasis, b2: SubrepBasis, y_b2: np.ndarray, y_norm: float):
    """Decide whether two subrepresentation bases carry equivalent irreps.

    ``y_b2`` is Y b2^dag, the n x dim(b2) strip of a second commutant
    sample Y, independent of the sample the bases came from, applied to
    the second basis; ``y_norm`` is the Frobenius norm of Y.  The witness
    is F = b1 Y b2^dag = b1 y_b2.  Returns an :class:`EquivalenceWitness`
    or None (inequivalent).  A candidate witness that is neither
    negligible nor within ``_WITNESS_TOL`` of a scaled unitary means the
    eigenspaces were not clean irrep copies; that raises
    :class:`ResampleNeeded`.  Whether the witness intertwines is left to
    :func:`verify_decomposition`.
    """
    if b1.dim != b2.dim:
        return None
    f = b1.rows @ y_b2
    if np.linalg.norm(f) <= _ZERO_TOL * y_norm:
        return None

    alpha = float(np.linalg.norm(f, 2))
    a = f / alpha
    k = b1.dim
    unit_resid = np.linalg.norm(a.conj().T @ a - np.eye(k)) / max(1.0, np.sqrt(k))
    if not unit_resid <= _WITNESS_TOL:
        raise ResampleNeeded(
            f"candidate intertwiner is not a scaled unitary (residual {unit_resid:.3e})")
    return EquivalenceWitness(F=f, alpha=alpha)


def harmonize(b2: SubrepBasis, witness: EquivalenceWitness) -> SubrepBasis:
    """Rewrite ``b2`` so its subrepresentation matches the witness target.

    The new basis is A b2 with A the unitary carried by the witness, so
    the transported images equal the first basis's images and row
    orthonormality is preserved exactly.
    """
    return SubrepBasis(rows=witness.transform @ b2.rows, eigenvalue=b2.eigenvalue)


def classify_real_type(rep: Representation, components, rng=None,
                       config: DecomposeConfig | None = None) -> list:
    """Division-algebra type of each real isotypic component's irrep.

    Measures the dimension of the commutant algebra of one irrep copy:
    generic (full, non-symmetric) Gaussian matrices are projected onto the
    commutant of the whole representation and compressed to the copy's
    basis B as B P(X) B^T, and the rank of their span is taken.  The
    compression maps the commutant onto the copy's commutant, so dimension
    1, 2 or 4 corresponds to real, complex or quaternionic type.  Symmetric
    seeds would not do: the symmetric part of the commutant is
    one-dimensional for all three types.  The projected seeds are shared
    by all components.
    """
    if rep.field != "real":
        raise ValueError("real-type classification applies to real representations")
    if rng is None:
        rng = np.random.default_rng()
    cfg = config or DecomposeConfig()
    projected = [project_linear(rep, rng.standard_normal((rep.dim, rep.dim)),
                                cfg.projection, rng)
                 for _ in range(_CLASSIFY_SAMPLES)]
    mapping = {1: "real", 2: "complex", 4: "quaternionic"}
    types = []
    for component in components:
        block = np.ascontiguousarray(component.basis[:component.dimension])
        rows = [(block @ p @ block.T).reshape(-1) for p in projected]
        svals = np.linalg.svd(np.array(rows), compute_uv=False)
        if svals[0] == 0:
            raise ResampleNeeded("all classification samples projected to zero")
        rank = int(np.sum(svals > _CLASSIFY_SV_CUTOFF * svals[0]))
        if rank not in mapping:
            raise ResampleNeeded(f"commutant dimension estimate {rank} is not 1, 2 or 4")
        types.append(mapping[rank])
    return types


def verify_decomposition(rep: Representation, decomp: IrrepDecomposition,
                         trials: int = 50, tol: float | None = None,
                         rng=None) -> VerificationReport:
    """Check a decomposition against random group elements.

    For each trial the conjugated image U rho_g U^dag is compared against
    the claimed pattern: zero off the component blocks, and each component
    an M-fold repetition of a single D x D block.  The basis is applied
    once per trial, G = rho_g U^dag, and component k is read from its
    column strip G_k: its block is U_k G_k, and its leak is bounded from
    above (see below) without forming the n x n conjugation.  Norms are
    relative to the Frobenius norm of rho_g.  A NaN residual fails its check.

    For a representation with an index action the commutant dimension is
    also checked exactly: the number of orbitals must equal sum e M^2, with
    e = 1 over C and e = 1, 2, 4 for real, complex, quaternionic type over R.
    """
    if tol is None:
        tol = 1e-8 if rep.is_finite else 1e-6
    _check_tol(tol, "tol")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if rng is None:
        rng = np.random.default_rng()
    u = decomp.U
    n = rep.dim
    action = rep.index_action
    failures = []

    offsets = decomp.offsets
    dims_ok = offsets[-1] == n and u.shape == (n, n)
    if not dims_ok:
        failures.append("component sizes do not add up to the dimension")

    unit_resid = float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
    if not unit_resid <= tol * n:
        failures.append(f"basis is not unitary (residual {unit_resid:.3e})")

    if action is not None:
        orbitals = len(action.orbitals()[1])
        weight = _REAL_TYPE_WEIGHT if rep.field == "real" else {}
        claimed = sum(weight.get(c.real_type, 1) * c.multiplicity ** 2
                      for c in decomp.components)
        if claimed != orbitals:
            failures.append(f"commutant dimension {claimed} claimed by the components "
                            f"differs from the {orbitals} orbitals")

    # np.maximum keeps a NaN residual, where max() would drop it
    max_off = 0.0
    comp_resid = [0.0] * len(decomp.components)
    if dims_ok:
        v = np.ascontiguousarray(u.conj().T)
        # Leak of strip k.  The dense strip U G_k holds the block
        # S_k = U_k G_k on component k and L_k = U_rest G_k off it.  With
        # V = U^dag and VU = I + E, |E|_2 <= r_U (the unitarity residual),
        # V U G_k = V_k S_k + V_rest L_k gives V_rest L_k = (G_k - V_k S_k)
        # + E G_k, and no singular value of V is below sqrt(1 - r_U).  So
        # |L_k| <= (|G_k - V_k S_k| + r_U |G_k|) / sqrt(1 - r_U) for any
        # basis: the gate fails closed (inf once r_U >= 1, NaN propagates),
        # and for a unitary U the bound equals |L_k| to about 1e-13.
        with np.errstate(divide="ignore"):
            gain = 1.0 / np.sqrt(np.maximum(np.float64(1.0 - unit_resid), 0.0))
        buf = np.empty_like(v)
        for _ in range(trials):
            g = rep.random_element(rng)
            if action is None:
                img = rep.image(g)
                nrm = float(np.linalg.norm(img))
                gv = img @ v
            else:  # rho_g V gathers the rows of V; |rho_g|_F = sqrt(n)
                nrm = np.sqrt(n)
                gv = np.take(v, np.argsort(action.element(g)), axis=0, out=buf)
            col_norms = np.linalg.norm(gv, axis=0)
            leak_sq = 0.0
            for ci, comp in enumerate(decomp.components):
                lo, hi = offsets[ci], offsets[ci + 1]
                strip = gv[:, lo:hi]
                sub = u[lo:hi] @ strip
                resid = v[:, lo:hi] @ sub
                resid -= strip
                leak_sq += ((np.linalg.norm(resid)
                             + unit_resid * np.linalg.norm(col_norms[lo:hi])) * gain) ** 2
                # the copy residual: subtract the mean copy from each diagonal block
                d, m = comp.dimension, comp.multiplicity
                copies = sub.reshape(m, d, m, d)
                diag = np.arange(m)
                copies[diag, :, diag, :] -= np.trace(copies, axis1=0, axis2=2) / m
                comp_resid[ci] = float(np.maximum(comp_resid[ci], np.linalg.norm(sub) / nrm))
            max_off = float(np.maximum(max_off, np.sqrt(leak_sq) / nrm))
        if not max_off <= tol:
            failures.append(f"off-component leakage {max_off:.3e} above {tol:.1e}")
        worst_comp = float(np.max(comp_resid, initial=0.0))
        if not worst_comp <= tol:
            failures.append(f"component copy structure off by {worst_comp:.3e}")

    return VerificationReport(
        trials=trials, tolerance=tol, unitarity_residual=unit_resid,
        max_off_component=max_off, component_residuals=tuple(comp_resid),
        dims_ok=dims_ok, passed=not failures, failures=tuple(failures))


def _decompose_once(rep, cfg, streams, attempt):
    # five streams, the third unused: a stream's seed depends on its spawn
    # position, so dropping one would change the output of every seed
    s_xbar, s_xprime, _, s_classify, s_verify = streams

    xbar = sample_commutant(rep, cfg.projection, s_xbar)
    bases = eigsplit(xbar)
    xprime = sample_commutant(rep, cfg.projection, s_xprime)

    # Y Q^dag once, Q stacking the bases: a test reads its candidate's
    # column strip instead of multiplying Y again
    y = xprime.matrix
    yq = y @ np.vstack([b.rows for b in bases]).conj().T
    y_norm = float(np.linalg.norm(y))
    offsets = np.cumsum([0] + [b.dim for b in bases])

    classes = []  # each a list of bases: the lead, then members harmonized to it
    pairs_tested = pairs_equivalent = 0
    for b, lo in zip(bases, offsets):
        matches = []
        for members in classes:
            w = equivalence_test(members[0], b, yq[:, lo:lo + b.dim], y_norm)
            pairs_tested += 1
            if w is not None:
                matches.append((members, w))
        pairs_equivalent += len(matches)
        if len(matches) > 1:
            raise ResampleNeeded(
                f"a subrepresentation is equivalent to the leads of {len(matches)} classes")
        if matches:
            members, w = matches[0]
            members.append(harmonize(b, w))
        else:
            classes.append([b])

    # canonical order: big irreps first, then high multiplicity, then by the
    # leading eigenvalue of the sample that produced the component
    classes.sort(key=lambda members: (-members[0].dim, -len(members), members[0].eigenvalue))
    u = np.vstack([m.rows for members in classes for m in members])
    components = isotypic_components(u, [
        (members[0].dim, len(members), {"eigenvalues": tuple(m.eigenvalue for m in members)})
        for members in classes])

    if rep.field == "real":
        types = classify_real_type(rep, components, s_classify, cfg)
        for comp, real_type in zip(components, types):
            comp.real_type = real_type

    decomp = IrrepDecomposition(
        U=u, components=components, diagnostics=None, rep=rep, attempts=attempt + 1,
        clusters=len(bases), pairs_tested=pairs_tested, pairs_equivalent=pairs_equivalent)

    report = verify_decomposition(rep, decomp, trials=_VERIFY_TRIALS,
                                  tol=cfg.block_tol, rng=s_verify)
    decomp.diagnostics = report
    if not report.passed:
        raise ResampleNeeded("verification failed: " + "; ".join(report.failures))
    return decomp


def decompose(rep: Representation, config: DecomposeConfig | None = None,
              rng=None) -> IrrepDecomposition:
    """Decompose a representation into ordered isotypic components.

    Runs the sample / split / group pipeline, restarting with fresh
    samples when a genericity assumption fails, up to
    ``_MAX_RESAMPLES`` restarts.  The returned object carries the
    unitary change of basis, the (dimension, multiplicity) structure,
    real-field type labels, and the verification report.
    """
    cfg = config or DecomposeConfig()
    if rng is None:
        rng = np.random.default_rng()
    reasons = []
    for attempt in range(_MAX_RESAMPLES + 1):
        streams = rng.spawn(5)
        try:
            return _decompose_once(rep, cfg, streams, attempt)
        except ResampleNeeded as exc:
            reasons.append(str(exc))
    raise DecompositionError(
        f"gave up after {len(reasons)} attempts: "
        + "; ".join(f"attempt {k}: {r}" for k, r in enumerate(reasons, 1)))
