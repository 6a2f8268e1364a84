"""The three benchmark workloads: meshes to build and tasks with answer checks.

A workload is a set of meshes built through the ``catalog`` builders (the
set-up, which includes ``validate_mesh``) and a list of tasks run on them in
sequence. Each task returns an ``Outcome``: whether every exactly-known
answer held, and the worst error/tolerance over the outputs that have a
known reference (1.0 is the failure line). Tolerances are the ones the
acceptance tests use.

Functions are looked up on their module at call time (``secondvar.x``, not a
bound name), so the tracer's rebinding takes effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spherevar import catalog, certificates, secondvar, verify

DELTA = 0.1                # negative_index_count default cut-off
EIG_TOL = 0.02             # |lambda - exact| and Jacobi-eigenvalue tolerance
ORTHOGONALITY_TOL = 1e-8   # certificate projection residual
DECOMPOSITION_TOL = 0.02   # relative three-term decomposition error
MISMATCH_ERR = 1e6         # err_ratio of an output with no like-for-like reference


@dataclass
class Outcome:
    ok: bool
    err_ratio: float | None   # None when the task raised
    detail: str


# -- set-up -------------------------------------------------------------------

# (key, catalog name, n, res)
MESHES = {
    "index": [
        ("torus64", "clifford-torus", 3, 64),
        ("torus128", "clifford-torus", 3, 128),
        ("sphere5", "equatorial-sphere", 3, 5),
    ],
    "verify": [
        ("torus64", "clifford-torus", 3, 64),
        ("sphere4", "equatorial-sphere", 3, 4),
        ("torus64-s5", "product-torus", 5, 64),
    ],
    "fine-mesh": [
        ("torus256", "clifford-torus", 3, 256),
        ("torus128-s5", "product-torus", 5, 128),
        ("sphere6", "equatorial-sphere", 3, 6),
    ],
}


def build_meshes(workload):
    """Build the workload's meshes through the catalog (includes validate_mesh)."""
    return {key: catalog.build_by_name(name, n=n, res=res)
            for key, name, n, res in MESHES[workload]}


# -- tasks --------------------------------------------------------------------

def _jacobi_err(negatives, exact):
    """Worst |mu - exact| / EIG_TOL; MISMATCH_ERR when the counts differ."""
    negatives = np.sort(np.asarray(negatives, dtype=float))
    if negatives.size != len(exact):
        return MISMATCH_ERR
    return float(np.max(np.abs(negatives - np.asarray(exact)))) / EIG_TOL


def index_torus(mesh, seed):
    """``spherevar index`` on a Clifford torus: counts 4/5, El Soufi, bracket."""
    energy = secondvar.negative_index_count(
        secondvar.energy_quadratic_matrix(mesh), delta=DELTA, seed=seed)
    _, negdef, claim_valid = certificates.el_soufi_lower_bound_check(mesh)
    area = secondvar.negative_index_count(
        secondvar.area_jacobi_matrix(mesh), delta=DELTA, seed=seed)
    r = secondvar.ejiri_micallef_r(mesh.genus, 0).value
    # area Jacobi eigenvalues: constants at 0 - 2 - |A|^2 = -4, the
    # lambda = 2 cluster (multiplicity 4) at 2 - 2 - 2 = -2
    err = _jacobi_err(area.negatives, [-4.0, -2.0, -2.0, -2.0, -2.0])
    ok = (energy.count == 4 and area.count == 5 and negdef and claim_valid
          and r == 2 and energy.count <= area.count <= energy.count + r
          and err <= 1.0)
    return Outcome(ok, err, f"ind_E={energy.count} ind_A={area.count} r={r} "
                            f"negdef={negdef} claim={claim_valid}")


def area_index_sphere(mesh, seed):
    """Area index of the equatorial sphere: 1, the constants at 0 - 2 = -2."""
    area = secondvar.negative_index_count(
        secondvar.area_jacobi_matrix(mesh), delta=DELTA, seed=seed)
    err = _jacobi_err(area.negatives, [-2.0])
    return Outcome(area.count == 1 and err <= 1.0, err, f"ind_A={area.count}")


def verification(mesh, seed):
    """The full identity battery; every check must pass."""
    report = verify.run_verification(mesh, seed=seed)
    err = max(c.error / c.tolerance for c in report.checks)
    failed = [c.name for c in report.failures]
    return Outcome(report.passed and err <= 1.0, err,
                   f"{len(report.checks)} checks, failed={failed}")


def certificate(mesh, seed):
    """Certificate plumbing: lambda1 = 2 (x4), orthogonality, decomposition."""
    cert = certificates.build_certificate(mesh, k=8, seed=seed)
    lam_err = abs(cert.lambda1 - 2.0) / EIG_TOL
    orth_err = float(np.max(cert.orthogonality_residuals)) / ORTHOGONALITY_TOL
    dec_err = (abs(cert.d2e_value - cert.decomposition_value)
               / max(abs(cert.d2e_value), 1e-12)) / DECOMPOSITION_TOL
    err = max(lam_err, orth_err, dec_err)
    ok = cert.multiplicity == 4 and err <= 1.0
    return Outcome(ok, err, f"lambda1={cert.lambda1:.6f} x{cert.multiplicity} "
                            f"orth={orth_err * ORTHOGONALITY_TOL:.1e} "
                            f"verdict={cert.verdict}")


# (task name, mesh key, task function)
TASKS = {
    "index": [
        ("index-torus64", "torus64", index_torus),
        ("index-torus128", "torus128", index_torus),
        ("area-index-sphere5", "sphere5", area_index_sphere),
    ],
    "verify": [
        ("verify-torus64", "torus64", verification),
        ("verify-sphere4", "sphere4", verification),
        ("verify-torus64-s5", "torus64-s5", verification),
    ],
    "fine-mesh": [
        ("certificate-torus256", "torus256", certificate),
        ("certificate-torus128-s5", "torus128-s5", certificate),
        ("area-index-sphere6", "sphere6", area_index_sphere),
    ],
}
