"""Command-line interface.

Commands
--------
decompose GROUP REP          print the isotypic structure of a representation
blockdiag SDP GROUP REP      rewrite invariant SDP data into per-component blocks
verify GROUP REP BASIS       re-check an emitted change-of-basis file
sample-group SPEC COUNT      draw group elements (diagnostics)

One ``--seed`` determines every random draw a command makes; the seed is
split into independent labeled substreams per pipeline stage, so e.g. the
two commutant samples the decomposer compares are never correlated.
Every value flag can also be set through an environment variable with the
``REPBLOCK_`` prefix (``REPBLOCK_SEED``, ``REPBLOCK_TOL``, ...); explicit
flags win over the environment.

Exit codes: 0 success, 2 spec/parse error, 3 decomposition failure,
4 invariance check failure, 5 verification failure.  ``sample-group`` and
``--emit-basis`` write as they go; a closed output pipe ends ``repblock``
silently by SIGPIPE (status 141 in a POSIX shell) where the platform has it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import sys
from pathlib import Path

import numpy as np

from .commutant import ProjectionConfig, ProjectionError
from .decompose import (DecomposeConfig, DecompositionError, decompose,
                        verify_decomposition)
from .formats import (SpecFormatError, basis_lines, format_rows, format_sdp,
                      parse_basis, parse_group_spec, parse_inline_group,
                      parse_rep_spec, parse_sdp)
from .perm import PermutationGroup
from .sdp import DEFAULT_INVARIANCE_TOL, NotInvariantError, SdpProblem, block_diagonalize_sdp

ENV_PREFIX = "REPBLOCK_"
SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_DECOMPOSE = 3
EXIT_INVARIANCE = 4
EXIT_VERIFY = 5

_INLINE_GROUP = re.compile(r"^(unitary|orthogonal):\d+$")


def _env(name, default, cast=str, choices=None):
    """A flag's default from the environment; argparse checks no default's choices."""
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return default
    try:
        value = cast(raw)
        if choices is None or value in choices:
            return value
    except ValueError:
        pass
    raise SpecFormatError(f"invalid {ENV_PREFIX}{name}={raw!r}")


def non_negative(raw):
    """An integer >= 0, as numpy takes a seed; argparse names it in its error."""
    if int(raw) < 0:
        raise ValueError(raw)
    return int(raw)


def _build_parser():
    fields, formats = ("real", "complex"), ("text", "structured")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=non_negative, default=_env("SEED", 0, non_negative),
                        help="seed for all randomized behavior (default 0)")
    common.add_argument("--field", choices=fields,
                        default=_env("FIELD", "complex", str, fields),
                        help="scalar field of the representation (default complex)")
    common.add_argument("--commutation-tol", type=float,
                        default=_env("COMMUTATION_TOL", 1e-8, float),
                        help="largest relative commutator accepted from compact projection; "
                             "the Casimir path bounds it through the spectral gap")
    common.add_argument("--tol", type=float, default=_env("TOL", None, float),
                        help="verification / invariance tolerance override")
    common.add_argument("--format", choices=formats,
                        default=_env("FORMAT", "text", str, formats),
                        help="output format (structured = versioned JSON)")
    common.add_argument("-v", "--verbose", action="count", default=0)

    parser = argparse.ArgumentParser(
        prog="repblock",
        description="decompose representations and block-diagonalize invariant SDPs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[common],
                       help="decompose a representation into isotypic components")
    p.add_argument("group_spec", help="group spec file")
    p.add_argument("rep_spec", help="representation spec file")
    p.add_argument("--emit-basis", metavar="PATH", default=None,
                   help="write the change-of-basis matrix to PATH")

    p = sub.add_parser("blockdiag", parents=[common],
                       help="block-diagonalize invariant SDP data")
    p.add_argument("sdp", help="SDP data file")
    p.add_argument("group_spec")
    p.add_argument("rep_spec")
    p.add_argument("--symmetrize", action="store_true",
                   default=_env("SYMMETRIZE", "0", str, ("0", "1")) == "1",
                   help="group-average the data before extraction")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="output directory (default: <sdp>.blocks)")

    p = sub.add_parser("verify", parents=[common],
                       help="verify an emitted basis against its representation")
    p.add_argument("group_spec")
    p.add_argument("rep_spec")
    p.add_argument("basis", help="basis file written by decompose --emit-basis")

    p = sub.add_parser("sample-group", parents=[common],
                       help="sample group elements")
    p.add_argument("spec", help="group spec file, or inline 'unitary:<d>' / 'orthogonal:<d>'")
    p.add_argument("count", type=int)

    return parser


def _read(path):
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc.strerror or exc}")


def _load_group(path):
    return parse_group_spec(_read(path))


def _load_rep(group_path, rep_path, field):
    group = _load_group(group_path)
    return parse_rep_spec(_read(rep_path), group, field)


def _decompose_config(args):
    proj = ProjectionConfig(commutation_tol=args.commutation_tol)
    return DecomposeConfig(projection=proj, block_tol=args.tol)


def _report_doc(command, args, extra):
    doc = {"schema_version": SCHEMA_VERSION, "command": command,
           "seed": args.seed, "field": args.field}
    doc.update(extra)
    return doc


def _diag_doc(report):
    return {
        "trials": report.trials,
        "tolerance": float(report.tolerance),
        "unitarity_residual": float(report.unitarity_residual),
        "max_off_component": float(report.max_off_component),
        "component_residuals": [float(r) for r in report.component_residuals],
        "passed": bool(report.passed),
        "failures": list(report.failures),
    }


def _group_label(group, chain=False):
    """One-line description; ``chain`` adds the stabilizer chain's size."""
    if isinstance(group, PermutationGroup):
        label = f"permutation group, degree {group.degree}, order {group.order()}"
        if chain:
            label += (f", base length {len(group.base)}, "
                      f"{group.strong_generator_count} strong generators")
        return label
    return f"{group.kind} group, dimension {group.dim}"


def _note(args, message):
    if args.verbose:
        print(f"# {message}", file=sys.stderr)


def _note_decomposition(args, decomp):
    _note(args, f"decomposed in {decomp.attempts} attempt(s); "
                f"projection: {decomp.projection}")
    if decomp.restarts:
        _note(args, "restarted after " + "; ".join(
            f"attempt {k}: {reason}" for k, reason in enumerate(decomp.restarts, 1)))
    _note(args, f"{decomp.clusters} eigenvalue clusters; {decomp.pairs_tested} candidate "
                f"pairs tested, {decomp.pairs_equivalent} equivalent")
    _note(args, f"arithmetic: {decomp.arithmetic}")


def cmd_decompose(args) -> int:
    rep = _load_rep(args.group_spec, args.rep_spec, args.field)
    if args.verbose:  # the label reads the stabilizer chain, which may not be built yet
        _note(args, f"{_group_label(rep.group, chain=True)}; representation dimension {rep.dim}")
    rng = np.random.default_rng(args.seed)
    decomp = decompose(rep, _decompose_config(args), rng=rng)
    _note_decomposition(args, decomp)

    if args.emit_basis:
        with open(args.emit_basis, "w") as out:
            out.writelines(basis_lines(decomp, args.field))

    if args.format == "structured":
        doc = _report_doc("decompose", args, {
            "n": rep.dim,
            "attempts": decomp.attempts,
            "components": [
                {"dimension": c.dimension, "multiplicity": c.multiplicity,
                 "real_type": c.real_type, "residual": float(resid)}
                for c, resid in zip(decomp.components,
                                    decomp.diagnostics.component_residuals)],
            "diagnostics": _diag_doc(decomp.diagnostics),
        })
        print(json.dumps(doc, indent=2))
    else:
        print(f"representation: n={rep.dim}, field={args.field} ({_group_label(rep.group)})")
        print(f"components ({len(decomp.components)}, canonical order):")
        for c, resid in zip(decomp.components, decomp.diagnostics.component_residuals):
            print(f"  D={c.dimension} M={c.multiplicity} type={c.real_type} "
                  f"residual={resid:.3e}")
        r = decomp.diagnostics
        print(f"unitarity residual: {r.unitarity_residual:.3e}")
        print(f"max off-component residual: {r.max_off_component:.3e}")
        print(f"max component structure residual: "
              f"{max(r.component_residuals, default=0.0):.3e}")
        print(f"attempts: {decomp.attempts}")
        if args.emit_basis:
            print(f"basis written to {args.emit_basis}")
    return EXIT_OK


def cmd_blockdiag(args) -> int:
    prob = parse_sdp(_read(args.sdp))
    group = _load_group(args.group_spec)
    rep = parse_rep_spec(_read(args.rep_spec), group, prob.field)
    if rep.dim != prob.n:
        raise SpecFormatError(
            f"SDP size {prob.n} does not match representation dimension {rep.dim}")

    if args.verbose:
        _note(args, f"{_group_label(rep.group, chain=True)}; SDP n={prob.n}, m={prob.m}, "
                    f"field {prob.field}")
    rng = np.random.default_rng(args.seed)
    config = _decompose_config(args)
    decomp = decompose(rep, config, rng=rng)
    _note_decomposition(args, decomp)

    tol = args.tol if args.tol is not None else DEFAULT_INVARIANCE_TOL
    try:
        blocked = block_diagonalize_sdp(
            decomp, prob, symmetrize_first=args.symmetrize, tol=tol,
            config=config.projection)
    except NotInvariantError as exc:
        print(f"invariance check failed: {exc}\n"
              "(re-run with --symmetrize to project the data first)", file=sys.stderr)
        return EXIT_INVARIANCE
    _note(args, f"extraction: {blocked.extraction}")

    outdir = Path(args.out) if args.out else Path(str(args.sdp) + ".blocks")
    outdir.mkdir(parents=True, exist_ok=True)
    blocks_meta = []
    for k, comp in enumerate(blocked.components):
        name = f"block_{k:03d}.sdp"
        sub = SdpProblem(c=comp.c_block, a=comp.a_blocks, b=blocked.b,
                         field=blocked.field)
        (outdir / name).write_text(format_sdp(sub))
        blocks_meta.append({
            "file": name,
            "dimension": comp.dimension,
            "multiplicity": comp.multiplicity,
            "size": comp.multiplicity,
            "field": blocked.field,
            "residual": float(comp.residual),
        })
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "field": blocked.field,
        "n": prob.n,
        "m": prob.m,
        "b": [float(v) for v in blocked.b],
        "worst_residual": float(blocked.residual),
        "blocks": blocks_meta,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n")

    if args.format == "structured":
        doc = _report_doc("blockdiag", args, {"out": str(outdir), **manifest})
        doc["field"] = blocked.field
        print(json.dumps(doc, indent=2))
    else:
        sizes = [c.multiplicity for c in blocked.components]
        print(f"block-diagonalized: n={prob.n}, m={prob.m} -> "
              f"{len(sizes)} blocks of sizes {sizes}")
        print(f"worst residual: {blocked.residual:.3e}")
        print(f"wrote {len(sizes)} block files and manifest.json to {outdir}")
    return EXIT_OK


def cmd_verify(args) -> int:
    basis_field, decomp = parse_basis(_read(args.basis))
    group = _load_group(args.group_spec)
    rep = parse_rep_spec(_read(args.rep_spec), group, basis_field)
    if rep.dim != decomp.U.shape[0]:
        raise SpecFormatError(
            f"basis size {decomp.U.shape[0]} does not match representation "
            f"dimension {rep.dim}")

    report = verify_decomposition(rep, decomp, tol=args.tol)
    if args.format == "structured":
        doc = _report_doc("verify", args, {
            "n": rep.dim,
            "components": [
                {"dimension": c.dimension, "multiplicity": c.multiplicity,
                 "real_type": c.real_type}
                for c in decomp.components],
            "diagnostics": _diag_doc(report),
        })
        doc["field"] = basis_field
        print(json.dumps(doc, indent=2))
    else:
        checked = f"{report.trials} generators" if rep.is_finite else (
            f"{report.trials} Lie-algebra elements" if rep.group.kind == "unitary"
            else f"{report.trials - 1} Lie-algebra elements and a reflection")
        print(f"verifying basis against n={rep.dim}, field={basis_field}, "
              f"{checked}, tolerance {report.tolerance:.1e}")
        print(f"unitarity residual:        {report.unitarity_residual:.3e}")
        print(f"max off-component:         {report.max_off_component:.3e}")
        for i, r in enumerate(report.component_residuals):
            c = decomp.components[i]
            print(f"component {i} (D={c.dimension} M={c.multiplicity}): {r:.3e}")
        print("PASS" if report.passed else "FAIL: " + "; ".join(report.failures))
    return EXIT_OK if report.passed else EXIT_VERIFY


def _sample_doc(group, u):
    """One sample as the structured format lists it."""
    if isinstance(group, PermutationGroup):
        return list(u.images)
    return (np.stack([u.real, u.imag], -1) if group.kind == "unitary" else u).tolist()


def _indented(x, pad="    "):
    """``json.dumps(x, indent=2)`` of nested lists of ints and finite floats at the
    indent ``pad``, without the indented encoder's reference cycle per call."""
    if not isinstance(x, list):
        return repr(x)
    if not x:
        return "[]"
    inner = pad + "  "
    return "[\n" + ",\n".join(inner + _indented(v, inner) for v in x) + "\n" + pad + "]"


def cmd_sample_group(args) -> int:
    if _INLINE_GROUP.match(args.spec):
        group = parse_inline_group(args.spec)
    else:
        group = _load_group(args.spec)
    if args.count < 0:
        raise SpecFormatError("count must be >= 0")

    # each draw is printed as it is drawn; the pieces make json.dumps(doc, indent=2)
    rng = np.random.default_rng(args.seed)
    compact = not isinstance(group, PermutationGroup)
    structured = args.format == "structured"
    if structured:
        head = json.dumps(_report_doc("sample-group", args, {
            "spec": args.spec, "count": args.count, "samples": []}), indent=2)
        sys.stdout.write(head[:-len("]\n}")])  # ends in '"samples": ['
    worst = 0.0
    for k in range(args.count):
        u = group.sample(rng)
        if compact:
            worst = max(worst, float(np.linalg.norm(u.conj().T @ u - np.eye(group.dim))))
        if structured:
            sys.stdout.write(("," if k else "") + "\n    " + _indented(_sample_doc(group, u)))
        elif compact:
            print(f"SAMPLE {k}")
            for line in format_rows(u, "complex" if group.kind == "unitary" else "real"):
                print(line)
        else:
            print(json.dumps(list(u.images)))

    if structured:
        tail = f',\n  "max_unitarity_residual": {json.dumps(worst)}' if compact else ""
        sys.stdout.write(("\n  ]" if args.count else "]") + tail + "\n}\n")
    elif compact and args.count:
        print(f"# max unitarity residual: {worst:.3e}")
    return EXIT_OK


_COMMANDS = {
    "decompose": cmd_decompose,
    "blockdiag": cmd_blockdiag,
    "verify": cmd_verify,
    "sample-group": cmd_sample_group,
}


def main(argv=None) -> int:
    try:
        parser = _build_parser()
    except SpecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except SpecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (DecompositionError, ProjectionError) as exc:
        print(f"decomposition failed: {exc}", file=sys.stderr)
        return EXIT_DECOMPOSE
    except NotInvariantError as exc:
        print(f"invariance check failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANCE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


def entrypoint():
    if hasattr(signal, "SIGPIPE"):  # a closed output pipe ends the process quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
