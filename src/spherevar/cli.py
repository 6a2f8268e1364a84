"""Command-line interface: catalog | spectrum | verify | index | certificate.

Configuration precedence: command-line flags > key=value config file >
built-in defaults. Exit codes: 0 success / all checks pass, 1 verification
failure, 2 usage or configuration error (an unreadable input or unwritable
output file included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple

import numpy as np

from .catalog import CATALOG, build_by_name
from .certificates import (
    DEFAULT_CERTIFICATE_K,
    ORTHOGONALITY_TOL,
    build_certificate,
    el_soufi_lower_bound_check,
    threshold,
)
from .errors import (
    ContractError,
    MeshError,
    ParameterError,
    SolverError,
    UnsupportedSurfaceError,
)
from .mesh import mesh_size, read_off
from .operators import (
    first_nonzero_cluster,
    laplace_pencil,
    solve_smallest_eigenpairs,
    write_spectrum_csv,
)
from .secondvar import (
    DEFAULT_INDEX_DELTA,
    area_jacobi_matrix,
    ejiri_micallef_r,
    energy_quadratic_matrix,
    negative_index_count,
)
from .verify import DEFAULT_VERIFY_TOL, run_verification

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class Option(NamedTuple):
    """One setting: flag --key (with - for _), type, default and help."""

    key: str
    type: callable
    default: object
    help: str


def nonnegative_int(text):
    """int(text), raising ValueError on a negative value (numpy seeds are >= 0)."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


_SURFACE = (Option("surface", str, "clifford-torus", "catalog name or mesh file path"),
            Option("n", int, None, "ambient sphere dimension"),
            Option("res", int, None, "mesh resolution (catalog semantics)"))
_K = Option("k", int, DEFAULT_CERTIFICATE_K, "number of eigenpairs")
_SEED = Option("seed", nonnegative_int, 0, "seed of the Lanczos start vectors")
_OUT = Option("out", str, None, "output JSON path (default: stdout)")

# the settings each command reads, in --help order
OPTIONS = {
    "catalog": (),
    "spectrum": _SURFACE + (_K, _SEED, Option("out", str, "spectrum.csv", "output CSV path")),
    "verify": _SURFACE + (_SEED, Option("tol", float, DEFAULT_VERIFY_TOL,
                                        "discretization tolerance"), _OUT),
    "index": _SURFACE + (Option("delta", float, DEFAULT_INDEX_DELTA,
                                "negative-eigenvalue separation"), _SEED, _OUT),
    "certificate": _SURFACE + (_K, _SEED, _OUT),
}


def load_config_file(path, command):
    """Parse a flat key=value config file of the settings the command reads."""
    options = {o.key: o for o in OPTIONS[command]}
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in options:
            raise ParameterError(f"{path}:{lineno}: config key {key!r} is not read "
                                 f"by spherevar {command}")
        try:
            values[key] = options[key].type(val.strip())
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def resolve_config(args):
    """Merge flags over config file over defaults into one namespace dict."""
    cfg = {o.key: o.default for o in OPTIONS[args.command]}
    if getattr(args, "config", None):
        cfg.update(load_config_file(args.config, args.command))
    for key in cfg:
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
    return cfg


def build_surface(cfg):
    """Build a catalog surface or load a mesh file, per the surface value."""
    name = cfg["surface"]
    if os.path.sep in name or name.endswith(".off") or os.path.isfile(name):
        if cfg["res"] is not None:
            raise ParameterError(f"--res {cfg['res']} does not apply to mesh file {name!r}")
        mesh = read_off(name)
        if cfg["n"] is not None and cfg["n"] != mesh.n:
            raise ParameterError(
                f"--n {cfg['n']} conflicts with mesh file dimension n={mesh.n}")
        return mesh
    return build_by_name(name, n=cfg["n"], res=cfg["res"])


def check_output_path(path):
    """Raise ParameterError unless ``path`` can be written as a file: its
    directory exists and the path is not a directory itself."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ParameterError(f"cannot write {path!r}: {directory!r} is not a directory")
    if os.path.isdir(path):
        raise ParameterError(f"cannot write {path!r}: it is a directory")


def _write_json(report, out):
    text = json.dumps(report, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_catalog(cfg):
    for entry in CATALOG.values():
        print(f"{entry.name}")
        print(f"  {entry.description}")
        known = []
        if entry.area is not None:
            known.append(f"area={entry.area:.6f}")
        if entry.lambda1 is not None:
            known.append(f"lambda1={entry.lambda1} (mult {entry.lambda1_multiplicity})")
        if entry.normsq_A is not None:
            known.append(f"|A|^2={entry.normsq_A}")
        if entry.expected_index_area is not None:
            known.append(f"ind_A={entry.expected_index_area}")
        if entry.expected_index_energy is not None:
            known.append(f"ind_E={entry.expected_index_energy}")
        known.append(f"in_geodesic_s2={entry.in_geodesic_s2}")
        print("  known: " + ", ".join(known))
        print(f"  provenance: {entry.provenance}")
    return EXIT_OK


def cmd_spectrum(cfg):
    mesh = build_surface(cfg)
    spectrum = solve_smallest_eigenpairs(laplace_pencil(mesh), k=cfg["k"], seed=cfg["seed"])
    write_spectrum_csv(spectrum, cfg["out"])
    first = first_nonzero_cluster(spectrum.values)
    print(f"surface={mesh.name} n={mesh.n} V={mesh.num_vertices} h={mesh_size(mesh):.4f}")
    print(f"wrote {spectrum.values.size} eigenpairs to {cfg['out']}")
    if first is None:
        print("no whole nonzero eigenvalue cluster resolved; increase k")
        return EXIT_OK
    lam1 = float(np.mean(spectrum.values[first]))
    print(f"lambda1 = {lam1:.6f} (multiplicity {len(first)})")
    if mesh.n >= 3:
        thr = threshold(mesh.n)
        rel = "<" if lam1 < thr else ">="
        print(f"threshold (n-2)/(2n) = {thr:.6f}; lambda1 {rel} threshold")
    else:
        print(f"threshold (n-2)/(2n) needs n >= 3, not n = {mesh.n}")
    return EXIT_OK


def cmd_verify(cfg):
    mesh = build_surface(cfg)
    report = run_verification(mesh, tol=cfg["tol"], seed=cfg["seed"])
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status:4s} {c.name:28s} err={c.error:.3e} tol={c.tolerance:.3e} "
              f"[{c.provenance}]")
    _write_json(report.to_dict(), cfg["out"])
    if not report.passed:
        names = ", ".join(c.name for c in report.failures)
        print(f"verification FAILED: {names}", file=sys.stderr)
        return EXIT_VERIFICATION
    print("verification passed")
    return EXIT_OK


def _index_count(matrix, cfg, label, pencil):
    """Count, print and report the negative directions of one pencil."""
    result = negative_index_count(matrix, delta=cfg["delta"], seed=cfg["seed"])
    values = (f"values from shift-invert Lanczos at +delta on {result.lanczos_factor} of "
              "Q - delta M" if result.lanczos_factor else
              "no eigenvalue below +delta, so no Lanczos run")
    print(f"{label}: {result.count} "
          f"(negatives {np.round(result.negatives, 4).tolist()})")
    return result.count, {
        "count": result.count,
        "negatives": [float(v) for v in result.negatives],
        "near_zero": [float(v) for v in result.near_zero],
        "provenance": f"inertia of Q + delta M on the {pencil}, from a multifrontal "
                      "LDL^T (Cholesky or Bunch-Kaufman per dense front of the "
                      f"nested-dissection tree); {values}, "
                      "cross-checked against the dense-front inertia of Q - delta M "
                      "and Q + delta M",
    }


def cmd_index(cfg):
    mesh = build_surface(cfg)
    report = {
        "surface": mesh.name,
        "n": mesh.n,
        "num_vertices": mesh.num_vertices,
        "mesh_size": mesh_size(mesh),
        "delta": cfg["delta"],
        "counts": {},
    }

    energy_count, report["counts"]["energy"] = _index_count(
        energy_quadratic_matrix(mesh), cfg, "energy index", "frame-coordinate energy pencil")

    evals, negdef, claim_valid = el_soufi_lower_bound_check(mesh)
    lower = mesh.n + 1
    report["el_soufi"] = {
        "moebius_energy_matrix_eigenvalues": [float(v) for v in evals],
        "negative_definite": negdef,
        "claim_valid": claim_valid,
        "lower_bound": lower if claim_valid else None,
        "provenance": "energy form on the Moebius-field span",
    }
    if claim_valid:
        ok = negdef and energy_count >= lower
        print(f"lower bound ind_E >= {lower}: "
              f"{'pass' if ok else 'FAIL'} (Moebius span negative definite: {negdef})")
        report["el_soufi"]["pass"] = ok
    else:
        print("lower bound not claimed (surface lies in a geodesic S^2)")

    area_count = None
    try:
        area_count, report["counts"]["area_jacobi"] = _index_count(
            area_jacobi_matrix(mesh), cfg, "area Jacobi index",
            "scalar Jacobi pencil with analytic |A|^2")
    except UnsupportedSurfaceError as exc:
        report["counts"]["area_jacobi"] = {"skipped": str(exc)}
        print(f"area Jacobi index skipped: {exc}")

    if area_count is not None and mesh.genus is not None:
        r = ejiri_micallef_r(mesh.genus, 0)
        ok = energy_count <= area_count <= energy_count + r.value
        report["bracket"] = {
            "ind_E": energy_count,
            "ind_A": area_count,
            "r": r.value,
            "cases": list(r.cases),
            "pass": ok,
            "provenance": "index gap bound r(genus, branch points)",
        }
        print(f"bracket ind_E <= ind_A <= ind_E + r(g={mesh.genus}, b=0): "
              f"{energy_count} <= {area_count} <= {energy_count + r.value} "
              f"-> {'pass' if ok else 'FAIL'}")

    _write_json(report, cfg["out"])
    return EXIT_OK


def cmd_certificate(cfg):
    mesh = build_surface(cfg)
    report = build_certificate(mesh, k=cfg["k"], seed=cfg["seed"])
    payload = report.to_dict()
    payload["tolerances"] = {
        "orthogonality_residual": ORTHOGONALITY_TOL,
        "provenance": "projection coefficients from the Moebius Gram system",
    }
    print(f"surface={report.surface} lambda1={report.lambda1:.6f} "
          f"(mult {report.multiplicity}) threshold={report.threshold:.6f}")
    print(f"hypothesis lambda1 < threshold: {report.hypothesis_met}")
    print(f"selected i0={report.i0}, D2E on projected field = {report.d2e_value:.6f}, "
          f"verdict: {report.verdict}")
    print(f"max orthogonality residual = {float(np.max(report.orthogonality_residuals)):.3e}")
    _write_json(payload, cfg["out"])
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spherevar",
        description="Second-variation toolkit for minimal surfaces in round spheres")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "catalog": (cmd_catalog, "list catalog surfaces with known data"),
        "spectrum": (cmd_spectrum, "solve the Laplace spectrum, write CSV"),
        "verify": (cmd_verify, "run the identity verification battery"),
        "index": (cmd_index, "count negative directions of the quadratic forms"),
        "certificate": (cmd_certificate, "run the certificate pipeline"),
    }
    for name, (fn, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        for o in OPTIONS[name]:
            p.add_argument("--" + o.key.replace("_", "-"), dest=o.key, type=o.type,
                           help=o.help + ("" if o.default is None else f" (default {o.default})"))
        if OPTIONS[name]:
            p.add_argument("--config", help="key=value config file")
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        if cfg.get("out") is not None:
            check_output_path(cfg["out"])   # before any work
        return args.func(cfg)
    except (ParameterError, UnsupportedSurfaceError, MeshError, OSError) as exc:
        # inputs are read into ParameterError: an OSError is an --out that
        # passed check_output_path and still could not be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, ContractError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
