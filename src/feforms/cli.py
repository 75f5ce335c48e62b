"""Command-line entry point.

Verbs: dims, describe, unisolvence, complex, homotopy, table1, dof-counts,
project, verify-all.  Exit status 0 on all-pass, 1 on any failed check,
2 on usage errors or unreadable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from feforms import complexes, dofs, mesh_assembly, spaces, tables
from feforms.complexes import certificates_to_jsonl, summary_tsv
from feforms.forms import form_from_string
from feforms.spaces import FAMILIES, make_spec


def _add_spec_args(p, names=("family", "n", "r", "k")):
    for name in names:
        if name == "family":
            p.add_argument("--family", required=True, choices=FAMILIES)
        else:
            p.add_argument(f"--{name}", required=True, type=int)


def _add_out_args(p, with_format=False):
    p.add_argument("--out", help="write the report to this path")
    if with_format:
        p.add_argument("--format", choices=("json", "tsv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feforms",
        description="Construct finite element differential form families "
                    "and verify their algebraic properties exactly.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("dims", help="dimension of one family member")
    _add_spec_args(p)

    p = sub.add_parser("describe", help="basis listing as JSON")
    _add_spec_args(p)
    _add_out_args(p)

    p = sub.add_parser("unisolvence", help="DOF count and matrix check")
    _add_spec_args(p)
    _add_out_args(p)

    p = sub.add_parser("complex", help="subcomplex and exactness certificates")
    _add_spec_args(p, ("family", "n", "r"))
    _add_out_args(p, with_format=True)

    p = sub.add_parser("homotopy", help="contraction/derivative identity")
    _add_spec_args(p, ("n", "r", "k"))
    _add_out_args(p, with_format=True)

    p = sub.add_parser("table1", help="reproduce the box-family dimension tables")
    _add_out_args(p, with_format=True)

    p = sub.add_parser("dof-counts", help="per-face-dimension DOF counts")
    _add_spec_args(p)
    _add_out_args(p)

    p = sub.add_parser("project", help="project a form onto an assembled space")
    _add_spec_args(p, ("family", "r", "k"))
    p.add_argument("--mesh", required=True, help="mesh JSON path")
    p.add_argument("--form", required=True,
                   help="form in canonical text syntax, e.g. '1/1 x1 dx2'")
    _add_out_args(p)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    p.add_argument("--out", help="directory for certificate reports",
                   default="reports")
    return parser


def _write(path, text: str) -> None:
    """Write a report; an unwritable path is bad input, not a crash."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(doc, args) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    if getattr(args, "out", None):
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def _certs_exit(certs, args) -> int:
    for cert in certs:
        sys.stdout.write(f"{cert.claim}  {json.dumps(cert.params, sort_keys=True)}"
                         f"  {cert.verdict}\n")
    if getattr(args, "out", None):
        _write(args.out, summary_tsv(certs) if args.format == "tsv"
               else certificates_to_jsonl(certs))
    ok = all(c.passed for c in certs)
    sys.stdout.write("all checks passed\n" if ok else "FAILURES detected\n")
    return 0 if ok else 1


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.verb == "dims":
        spec = make_spec(args.family, args.n, args.r, args.k)
        sys.stdout.write(f"{spaces.dimension(spec)}\n")
        return 0

    if args.verb == "describe":
        spec = make_spec(args.family, args.n, args.r, args.k)
        _emit(spaces.describe(spec), args)
        return 0

    if args.verb == "unisolvence":
        spec = make_spec(args.family, args.n, args.r, args.k)
        report = dofs.unisolvence_check(spec)
        _emit(report, args)
        return 0 if report["count_ok"] and report["determinant_nonzero"] else 1

    if args.verb == "complex":
        certs = [complexes.check_complex(args.family, args.n, args.r)]
        if args.family in ("P", "Pminus"):
            certs.append(complexes.check_exactness(args.family, args.n, args.r))
            certs.append(complexes.check_exactness("koszul", args.n, args.r))
        return _certs_exit(certs, args)

    if args.verb == "homotopy":
        cert = complexes.check_homotopy(args.n, args.r, args.k)
        return _certs_exit([cert], args)

    if args.verb == "table1":
        certs = tables.table1_certificates()
        sys.stdout.write(tables.render_tables(certs))
        return _certs_exit(certs, args)

    if args.verb == "dof-counts":
        spec = make_spec(args.family, args.n, args.r, args.k)
        faces = dofs.reference_faces(spec.element, spec.n)
        rows = []
        for entry in dofs.per_face_counts(spec):
            count = sum(1 for f in faces if f.dim == entry["d"])
            rows.append(dict(entry, faces=count,
                             subtotal=count * entry["count_per_face"]))
        total = sum(row["subtotal"] for row in rows)
        dim = spaces.basis_for(spec).dim
        sys.stdout.write(f"{'d':>2} {'faces':>6} {'per-face':>9} {'subtotal':>9}\n")
        for row in rows:
            sys.stdout.write(f"{row['d']:>2} {row['faces']:>6} "
                             f"{row['count_per_face']:>9} {row['subtotal']:>9}\n")
        sys.stdout.write(f"total {total}  dim {dim}\n")
        if getattr(args, "out", None):
            _emit({"spec": spec.as_dict(), "rows": rows,
                   "total": total, "dim": dim}, args)
        return 0 if total == dim else 1

    if args.verb == "project":
        try:
            mesh = mesh_assembly.read_mesh(args.mesh)
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"error: cannot read mesh: {exc}\n")
            return 2
        space = mesh_assembly.assemble(mesh, args.family, args.r, args.k)
        u = form_from_string(args.form, mesh.n, args.k)
        pieces = space.project(u)
        _emit({"spec": space.spec.as_dict(),
               "mesh": mesh.to_json_dict(),
               "projection": mesh_assembly.pieces_to_json_dict(pieces)}, args)
        return 0

    if args.verb == "verify-all":
        from feforms.verify import full_suite
        outdir = args.out
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot write {outdir}: {exc.strerror}") from exc
        certs = full_suite()
        _write(os.path.join(outdir, "certificates.jsonl"), certificates_to_jsonl(certs))
        _write(os.path.join(outdir, "summary.tsv"), summary_tsv(certs))
        npass = sum(1 for c in certs if c.passed)
        sys.stdout.write(f"{npass}/{len(certs)} certificates passed; "
                         f"reports in {outdir}\n")
        return 0 if npass == len(certs) else 1

    raise AssertionError(f"unhandled verb {args.verb!r}")


def main() -> None:
    try:
        code = run()
    except (mesh_assembly.MeshError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
