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
every component's repeated-block pattern, on the generators of a finite
group and on d rho of Lie-algebra generators of a compact one, and a wrong
grouping or alignment fails there.

The assembled change of basis puts group images into block-diagonal form
with each isotypic component a multiplicity-fold repetition of one irrep
block, and puts invariant matrices into blocks of size multiplicity x
multiplicity tensored with the identity.

A permutation action over C runs in real arithmetic when every constituent
is of real type.  Its images are real, Hom_C = Hom_R (x) C, and an irrep of
real type stays irreducible over C, so the decomposition of its real twin
(the same index action over R) is then one over C.  The real commutant is
the sum of M_M_i(K_i), K_i = R, C or H, with the transpose as its
involution.  The transpose permutes the orbitals, so its trace on the
commutant is the number s of self-paired orbitals (O^T = O), and it equals
dim Sym - dim Skew = sum_real M - 2 sum_quaternionic M (the Frobenius-Schur
count).  A generic symmetric sample has one eigenvalue cluster per copy,
sum M in all: so clusters = s exactly when no component is of complex or
quaternionic type.  The twin is sampled only when r <= s^2, as the real
route has r = sum M^2 <= (sum M)^2 = s^2, and kept only when the clusters of
its first sample number s; otherwise that split is dropped, and the complex
route draws what it draws without the twin.  A type other than real
then read from the twin is a genericity failure.

All genericity assumptions hold with probability one but can fail
numerically; such failures raise :class:`ResampleNeeded` internally and
the driver restarts with fresh samples up to ``_MAX_RESAMPLES`` times.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from .commutant import (CommutantSample, ProjectionConfig, _check_tol, _pow2_scale,
                        sample_commutant)
from .compact import lie_generators
from .reps import Representation

REAL_TYPES = ("real", "complex", "quaternionic", "not_applicable")

_GAP_TOL = 1e-6        # eigenvalue clusters split at gaps above this (relative to the spectral range)
_ZERO_TOL = 1e-6       # |F| below this (relative to |Y|) means inequivalent
_WITNESS_TOL = 1e-3    # acceptance band for the scaled-unitary check of a candidate intertwiner
_MAX_RESAMPLES = 3     # full restarts allowed on genericity failures
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

    ``F`` maps the second basis to the first.  One SVD of F, made on first
    use, gives ``alpha``, its spectral norm, the scale at which F becomes
    unitary, and ``transform``, its unitary polar factor: F/alpha up to the
    noise in F, but exactly unitary, so harmonized bases stay orthonormal.
    """

    F: np.ndarray

    @cached_property
    def _svd(self):
        return np.linalg.svd(self.F)

    @property
    def alpha(self) -> float:
        return float(self._svd[1][0])

    @property
    def transform(self) -> np.ndarray:
        w, _, vh = self._svd
        return w @ vh

    @property
    def unit_residual(self) -> float:
        """||A^dag A - I||_F / max(1, sqrt k), A = F / alpha, from F's singular values."""
        s = self._svd[1]
        return float(np.linalg.norm((s / s[0]) ** 2 - 1) / max(1.0, np.sqrt(len(s))))


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
    """Change of basis U with the ordered isotypic components it exposes.

    Over C, U may be real-valued (in complex128): a permutation action whose
    components are all of real type is decomposed in real arithmetic, and
    ``arithmetic`` says so.
    """

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
    arithmetic: str = ""  # the field the samples were drawn over, and why
    projection: str = ""  # the first sample's averaging path (CommutantSample.path)
    restarts: tuple = ()  # why each attempt before the one that succeeded restarted

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
    Each basis is eigh's eigenvectors as rows, orthonormal already: a QR
    would only flip their signs, which no decision and no block reads.
    """
    x = np.asarray(xbar.matrix if isinstance(xbar, CommutantSample) else xbar)
    evals, evecs = np.linalg.eigh(x)
    vh = evecs.conj().T
    span = float(evals[-1] - evals[0])
    # The additive term keeps the threshold above eigenvalue roundoff even
    # when the whole spectrum collapses to one point (span ~ eps), where a
    # purely relative threshold would shatter the noise into fake clusters.
    scale = max(1.0, abs(float(evals[0])), abs(float(evals[-1])))
    threshold = _GAP_TOL * span + 1e3 * np.finfo(float).eps * scale
    gaps = np.flatnonzero(np.diff(evals) > threshold) + 1
    cuts = [0, *gaps.tolist(), len(evals)]
    out = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        spread = float(evals[hi - 1] - evals[lo])
        if spread > threshold / 10:
            raise ResampleNeeded(
                f"ambiguous eigenvalue cluster: spread {spread:.3e} vs gap threshold "
                f"{threshold:.3e}")
        out.append(SubrepBasis(rows=vh[lo:hi], eigenvalue=float(np.mean(evals[lo:hi]))))
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

    witness = EquivalenceWitness(F=f)
    if not witness.unit_residual <= _WITNESS_TOL:
        raise ResampleNeeded("candidate intertwiner is not a scaled unitary "
                             f"(residual {witness.unit_residual:.3e})")
    return witness


def harmonize(b2: SubrepBasis, witness: EquivalenceWitness) -> SubrepBasis:
    """Rewrite ``b2`` so its subrepresentation matches the witness target.

    The new basis is A b2 with A the unitary carried by the witness, so
    the transported images equal the first basis's images and row
    orthonormality is preserved exactly.
    """
    return SubrepBasis(rows=witness.transform @ b2.rows, eigenvalue=b2.eigenvalue)


def classify_real_type(rep: Representation, components, samples) -> list:
    """Division-algebra type of each real isotypic component's irrep.

    Nothing is projected or drawn.  The two ``samples`` are the whole
    projected seeds X of the decomposition (``CommutantSample.whole``), each
    compressed to the component's lead copy B as C = B X B^T.  The rank of
    {I, C, C', CC'} is the dimension e = 1, 2 or 4 of the copy's commutant
    E, a division algebra: real, complex or quaternionic type.

    Proof: X = S + A, S the Hermitian sample and A the projection of its
    seed's antisymmetric part, independent of S and so of the bases.
    Compression maps the commutant onto E, so B S B^T is a real scalar (as
    E's symmetric elements are) and a = B A B^T a nondegenerate Gaussian on
    Im E.  So span{I, C, C', CC'} = span{1, a, a', aa'} is R, C (a != 0) or
    H (aa' = -a.a' + a x a', and a x a' != 0 is outside span{1, a, a'}).
    The same compressions span each E, which real SDP blocks of complex and
    quaternionic type need.

    An index action whose M^2 add up to its r orbitals reads no sample: once
    verification checks every image is U^T (+_i I_M_i (x) B_i) U, the
    commutant holds the r-dimensional algebra U^T (+_i X_i (x) I_D_i) U, X_i
    real, so equals it, and every type is real.
    """
    if rep.field != "real":
        raise ValueError("real-type classification applies to real representations")
    action = rep.index_action
    if action and sum(c.multiplicity ** 2 for c in components) == len(action.orbitals()[1]):
        return ["real"] * len(components)
    mapping = {e: name for name, e in _REAL_TYPE_WEIGHT.items()}
    types = []
    for component in components:
        block = component.basis[:component.dimension]
        # each scaled by a power of two first, so no square overflows
        c, c2 = (y / _pow2_scale(y) for y in (block @ x @ block.T for x in samples))
        rows = np.stack([np.eye(len(block)), c, c2, c @ c2]).reshape(4, -1)
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        if not np.all((0 < norms) & (norms < np.inf)):  # NaN fails too
            raise ResampleNeeded(f"classification samples compressed to norms {norms.ravel()}")
        svals = np.linalg.svd(rows / norms, compute_uv=False)
        rank = int(np.sum(svals > _CLASSIFY_SV_CUTOFF * svals[0]))
        if rank not in mapping:
            raise ResampleNeeded(f"commutant dimension estimate {rank} is not 1, 2 or 4")
        types.append(mapping[rank])
    return types


# a non-finite basis gives NaN residuals (inf * 0), which the gates refuse, not a warning
@np.errstate(invalid="ignore", over="ignore")
def verify_decomposition(rep: Representation, decomp: IrrepDecomposition,
                         tol: float | None = None) -> VerificationReport:
    """Check a decomposition on the generators of the group or of its Lie algebra.

    For each checked image rho_g the conjugation U rho_g U^dag is compared
    against the claimed pattern: zero off the component blocks, and each
    component an M-fold repetition of a single D x D block.  The basis is
    applied once per image, G = rho_g U^dag, and component k is read from
    its column strip G_k: its block is U_k G_k, and its leak is bounded from
    above (see below) without forming the n x n conjugation.  Norms are
    relative to the Frobenius norm of rho_g.  A NaN residual fails its check.

    A finite representation is checked on its generators' images (index
    arrays for an index action), exactly: the matrices U^dag (+_i I_M_i (x)
    B_i) U form a *-algebra, and every image the library forms is a product
    of the generators' images and their inverses (the chain and the
    combinators follow words over the generators).  So if U is unitary and
    every generator's image lies in the algebra, every image does; a
    generator residual eps bounds that of a word of length L by about L eps.
    That the chain's evaluation of generator images is a homomorphism is
    checked exactly when the representation is built
    (:func:`~repblock.reps.rep_from_generator_images`), not here.

    A compact group is checked alike on the dense d rho(Z) of the generators
    Z of its Lie algebra (:func:`~repblock.compact.lie_generators`), and on
    O(d) on a reflection's image: the *-algebra then holds d rho of their
    commutators, so of the whole Lie algebra, and every exp(d rho(Z)) =
    rho(exp Z), which make up U(d) or SO(d).  A d rho(Z) of 0 is skipped.
    The report's ``trials`` counts the generators, or the Lie-algebra
    elements and reflection, given to the check.

    For an index action the commutant dimension is also checked exactly: the
    number r of orbitals must equal sum e M^2, with e = 1 over C and e = 1, 2, 4
    for real, complex, quaternionic type over R.  If sum M^2 = r, the pattern
    check proves every type real (:func:`classify_real_type` reads them so).
    Without an index action there is no such count: a component split into two
    components of one irrep passes, and only the equivalence pass decides M.
    """
    if tol is None:
        tol = 1e-8 if rep.is_finite else 1e-6
    _check_tol(tol, "tol")
    u = decomp.U
    n = rep.dim
    action = rep.index_action
    if action is not None:
        images, trials = action.generators, len(action.generators)
    elif rep.is_finite:
        gens = rep.group.generators
        images, trials = (rep.image(x) for x in gens), len(gens)
    else:
        group = rep.group
        lie = lie_generators(group)
        reflection = ([rep.image(np.diag([-1.0] + [1.0] * (group.dim - 1)))]
                      if group.kind == "orthogonal" else [])
        images, trials = chain(map(rep.lie_image, lie), reflection), len(lie) + len(reflection)
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
        for img in images:
            if action is None:
                nrm = float(np.linalg.norm(img))
                if nrm == 0 and not rep.is_finite:  # d rho(Z) = 0
                    continue
                gv = img @ v
            else:  # rho_g V gathers the rows of V; |rho_g|_F = sqrt(n)
                nrm = np.sqrt(n)
                gv = np.take(v, np.argsort(img), axis=0, out=buf)
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


def _real_twin(rep):
    """The real twin of a complex representation with an index action and
    its s self-paired orbitals, when its r orbitals are at most s^2 (else
    None, and s = 0 when there is no index action over C)."""
    action = rep.index_action
    if rep.field != "complex" or action is None:
        return None, 0
    ids, counts = action.orbitals()
    k, l = action.representatives()
    s = int(np.count_nonzero(ids[l * rep.dim + k] == np.arange(len(counts))))
    if len(counts) > s * s:
        return None, s
    return Representation(rep.group, rep.dim, "real", None, rep.name, action), s


def _decompose_once(rep, cfg, streams, attempt):
    # the last two streams are unused, and spawned so that later attempts keep their seeds
    s_xbar, s_xprime, _, _ = streams

    target, arithmetic = rep, rep.field
    twin, s = _real_twin(rep)
    if twin is not None:
        # from a copy, so that the complex route draws what it draws without the twin
        xbar = sample_commutant(twin, cfg.projection, copy.deepcopy(s_xbar))
        bases = eigsplit(xbar)
        if len(bases) == s:
            target = twin
            arithmetic = f"real: every component of real type, {s} self-paired orbitals"
    if target is rep:
        xbar = sample_commutant(rep, cfg.projection, s_xbar)
        bases = eigsplit(xbar)
    # once read, each Hermitian sample gives way to its whole element (None over C)
    xbar, projection = xbar.whole, xbar.path
    xprime = sample_commutant(target, cfg.projection, s_xprime)
    classes, pairs_tested, pairs_equivalent = _equivalence_pass(bases, xprime.matrix)
    xprime = xprime.whole

    # canonical order: big irreps first, then high multiplicity, then by the
    # leading eigenvalue of the sample that produced the component
    classes.sort(key=lambda members: (-members[0].dim, -len(members), members[0].eigenvalue))
    u = np.vstack([m.rows for members in classes for m in members])
    parts = [(members[0].dim, len(members), {"eigenvalues": tuple(m.eigenvalue for m in members)})
             for members in classes]
    components = isotypic_components(u, parts)

    if target.field == "real":
        types = classify_real_type(target, components, (xbar, xprime))
        if target is not rep and types != ["real"] * len(types):
            raise ResampleNeeded(f"{len(bases)} clusters over R, but the types read {types}")
        for comp, real_type in zip(components, types):
            comp.real_type = real_type

    decomp = IrrepDecomposition(
        U=u, components=components, diagnostics=None, rep=target, attempts=attempt + 1,
        clusters=len(bases), pairs_tested=pairs_tested, pairs_equivalent=pairs_equivalent,
        arithmetic=arithmetic, projection=projection)

    report = verify_decomposition(target, decomp, tol=cfg.block_tol)
    decomp.diagnostics = report
    if not report.passed:
        raise ResampleNeeded("verification failed: " + "; ".join(report.failures))
    if target is not rep:  # the twin's verified basis, as the complex one
        decomp.U = u.astype(np.complex128)
        decomp.components, decomp.rep = isotypic_components(decomp.U, parts), rep
    return decomp


def _equivalence_pass(bases, y):
    """The bases in classes by the second sample Y, each the lead and then its
    members harmonized to it; and the pairs tested and found equivalent."""
    # Y Q^dag once, over the bases that follow one of their dimension (no other
    # meets a lead it could match): a test reads its candidate's column strip
    dims = [b.dim for b in bases]
    later = [k for k, d in enumerate(dims) if dims.index(d) < k]
    cols = dict(zip(later, accumulate((dims[k] for k in later), initial=0)))
    yq = y @ np.vstack([bases[k].rows for k in later]).conj().T if later else None
    y_norm = float(np.linalg.norm(y))

    classes = []
    pairs_tested = pairs_equivalent = 0
    for k, b in enumerate(bases):
        strip = yq[:, cols[k]:cols[k] + b.dim] if k in cols else None
        matches = []
        for members in classes:
            w = equivalence_test(members[0], b, strip, y_norm)
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
    return classes, pairs_tested, pairs_equivalent


def decompose(rep: Representation, config: DecomposeConfig | None = None,
              rng=None) -> IrrepDecomposition:
    """Decompose a representation into ordered isotypic components.

    Runs the sample / split / group pipeline, restarting with fresh
    samples when a genericity assumption fails, up to
    ``_MAX_RESAMPLES`` restarts.  The returned object carries the
    unitary change of basis, the (dimension, multiplicity) structure,
    real-field type labels, the verification report and the restart reasons.
    """
    cfg = config or DecomposeConfig()
    if rng is None:
        rng = np.random.default_rng()
    reasons = []
    for attempt in range(_MAX_RESAMPLES + 1):
        streams = rng.spawn(4)
        try:
            decomp = _decompose_once(rep, cfg, streams, attempt)
        except ResampleNeeded as exc:
            reasons.append(str(exc))
        else:
            decomp.restarts = tuple(reasons)
            return decomp
    raise DecompositionError(
        f"gave up after {len(reasons)} attempts: "
        + "; ".join(f"attempt {k}: {r}" for k, r in enumerate(reasons, 1)))
