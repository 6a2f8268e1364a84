"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The lines are written straight to the real stdout so they appear in the
pytest log regardless of capture settings. Tolerances are pinned; every
number cites its oracle in the adjacent comment.
"""

import sys

import numpy as np
import pytest
from covered_torus import covered_clifford_torus
from identity_reference import field_norm, identity_matrices_reference
from jittered import jitter_vertices

from spherevar.catalog import (
    build_clifford_torus,
    build_equatorial_sphere,
    minimality_residual,
)
from spherevar.certificates import (
    build_certificate,
    threshold,
    threshold_chain_check,
)
from spherevar.cli import EXIT_VERIFICATION, main as cli_main
from spherevar.mesh import write_off
from spherevar.mobius import (
    moebius_basis,
    moebius_field,
    pointwise_identity_report,
    split_tangent_normal,
    sum_normal_sq,
)
from spherevar.operators import (
    assemble_mass,
    assemble_stiffness,
    eigen_clusters,
    integrate,
    laplace_pencil,
    solve_smallest_eigenpairs,
    vertex_weights,
)
from spherevar.sampling import (
    random_bandlimited_field,
    random_polynomial_scalar,
    random_unit_direction,
)
from spherevar.secondvar import (
    area_jacobi_matrix,
    ejiri_micallef_r,
    energy_form_coordinate,
    energy_form_covariant,
    energy_quadratic_matrix,
    negative_index_count,
)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    # let the pass/fail lines through pytest's output capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        sys.__stdout__.write(line + "\n")
    assert ok, line


@pytest.fixture(scope="module")
def clifford128():
    return build_clifford_torus(128)


@pytest.fixture(scope="module")
def clifford64_spectrum_acc(clifford64):
    return solve_smallest_eigenpairs(laplace_pencil(clifford64), k=12, seed=0)


def test_criterion_1_spectrum_fidelity(clifford64_spectrum_acc, sphere4_spectrum):
    # oracles: flat-torus spectrum 2(j^2+k^2); spherical harmonics k(k+1)
    tc = eigen_clusters(clifford64_spectrum_acc.values)
    ts = eigen_clusters(sphere4_spectrum.values)
    lam_t = float(np.mean(clifford64_spectrum_acc.values[tc[1]]))
    lam_s = float(np.mean(sphere4_spectrum.values[ts[1]]))
    ok = (abs(lam_t - 2.0) <= 0.02 and len(tc[1]) == 4
          and abs(lam_s - 2.0) <= 0.02 and len(ts[1]) == 3)
    report(1, "spectrum-fidelity", ok,
           f"torus lambda1={lam_t:.4f} x{len(tc[1])}, sphere lambda1={lam_s:.4f} x{len(ts[1])}")


def test_criterion_2_index_counts(clifford64, clifford128, sphere4):
    counts = {}
    counts["area/torus/64"] = negative_index_count(area_jacobi_matrix(clifford64)).count
    counts["area/torus/128"] = negative_index_count(area_jacobi_matrix(clifford128)).count
    counts["energy/torus/64"] = negative_index_count(energy_quadratic_matrix(clifford64)).count
    counts["energy/torus/128"] = negative_index_count(energy_quadratic_matrix(clifford128)).count
    counts["area/sphere/4"] = negative_index_count(area_jacobi_matrix(sphere4)).count
    counts["area/sphere/5"] = negative_index_count(
        area_jacobi_matrix(build_equatorial_sphere(3, 5))).count
    ok = (counts["area/torus/64"] == counts["area/torus/128"] == 5
          and counts["energy/torus/64"] == counts["energy/torus/128"] == 4
          and counts["area/sphere/4"] == counts["area/sphere/5"] == 1)
    report(2, "index-counts", ok, str(counts))


def test_criterion_3_moebius_identities(clifford64, sphere4):
    worst_alg = worst_sum = worst_d2e = 0.0
    for mesh in (clifford64, sphere4):
        n = mesh.n
        pw = pointwise_identity_report(mesh)
        worst_alg = max(worst_alg, pw["norm_sq"])
        s = sum_normal_sq(mesh)
        worst_sum = max(worst_sum, float(np.max(np.abs(s - (n - 2)))) / (n - 2))
        rng = np.random.default_rng(0)
        dirs = [np.eye(n + 1)[i] for i in range(n + 1)]
        dirs += [random_unit_direction(rng, n + 1) for _ in range(20)]
        for v in dirs:
            xi = moebius_field(mesh, v)
            split = split_tangent_normal(mesh, xi)
            nm = integrate(mesh, np.einsum("vd,vd->v", split.normal, split.normal))
            d2e = energy_form_coordinate(mesh, xi)
            # scale floor 1% of ||xi||^2 covers directions with zero normal mass
            total = integrate(mesh, np.einsum("vd,vd->v", xi, xi))
            worst_d2e = max(worst_d2e, abs(d2e + 2.0 * nm) / max(nm, 0.01 * total))
    ok = worst_alg <= 1e-12 and worst_sum <= 0.02 and worst_d2e <= 0.02
    report(3, "moebius-identities", ok,
           f"alg={worst_alg:.1e} sum={worst_sum:.1e} d2e={worst_d2e:.1e}")


def _form_equivalence_error(mesh, num=50, seed=0):
    rng = np.random.default_rng(seed)
    S, M = assemble_stiffness(mesh), assemble_mass(mesh)
    worst = 0.0
    for _ in range(num):
        X = random_bandlimited_field(mesh, rng)
        coord = energy_form_coordinate(mesh, X)
        cov = energy_form_covariant(mesh, X)
        scale = float(np.einsum("vd,vd->", X, S @ X)
                      + np.einsum("vd,vd->", X, M @ X))
        worst = max(worst, abs(coord - cov) / scale)
    return worst


def test_criterion_4_form_equivalence(clifford64, clifford128):
    e64 = _form_equivalence_error(clifford64)
    e128 = _form_equivalence_error(clifford128)
    ratio = e128 / e64
    # error must at least halve (with 50% slack) under mesh refinement
    ok = e64 <= 0.02 and e128 <= 0.02 and ratio <= 0.75
    report(4, "form-equivalence", ok,
           f"err64={e64:.2e} err128={e128:.2e} ratio={ratio:.3f}")


def test_criterion_5_prop1_identity(clifford64, clifford64_spectrum_acc, sphere4,
                                    sphere4_spectrum):
    from spherevar.certificates import prop1_sum

    worst = 0.0
    for mesh, spectrum in ((clifford64, clifford64_spectrum_acc), (sphere4, sphere4_spectrum)):
        rng = np.random.default_rng(0)
        area = integrate(mesh, 1.0)
        fields = [random_polynomial_scalar(mesh, rng) for _ in range(50)]
        fields += list(spectrum.fields[:, spectrum.values <= 6.1].T)
        for f in fields:
            lhs, rhs = prop1_sum(mesh, f)
            worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + area))
    ok = worst <= 0.02
    report(5, "prop1-identity", ok, f"worst={worst:.2e}")


def test_criterion_6_proof_identities(clifford64, clifford64_spectrum_acc):
    # eigenvalue identities checked in cross-multiplied form on the integrals
    # contracted for each eigenfunction; no lambda = 4 denominator appears
    mesh = clifford64
    basis = moebius_basis(mesh)
    w = vertex_weights(mesh)
    values, fields, _ = clifford64_spectrum_acc
    levels = (values > 1.0) & (values < 6.0)
    assert np.count_nonzero(levels) == 8   # the lambda = 2 and lambda = 4 levels
    rng = np.random.default_rng(0)
    worst = 0.0
    for lam, f in zip(values[levels], fields[:, levels].T):
        matrices = identity_matrices_reference(mesh, f)
        for t in range(20):
            a = rng.standard_normal(4)
            i = t % 4
            L, T, D = (X[i] @ a for X in matrices)
            combo = np.einsum("j,jvd->vd", a, basis)
            scale = field_norm(w, basis[i]) * field_norm(w, combo)
            worst = max(worst, abs((4 - lam) * L + 2 * T) / scale)
            worst = max(worst, abs(-2 * D + 2 * T) / scale)
    ok = worst <= 0.02
    report(6, "proof-identities", ok, f"worst={worst:.2e} over {levels.sum()} eigenpairs")


def test_criterion_7_certificate_plumbing(clifford64):
    cert = build_certificate(clifford64, k=8, seed=0)
    res_ok = float(np.max(cert.orthogonality_residuals)) <= 1e-8
    dec_err = abs(cert.d2e_value - cert.decomposition_value) / max(abs(cert.d2e_value), 1e-12)
    scale = float(np.sum(np.abs(cert.d2e_canonical)) + np.sum(cert.normal_mass))
    pig_err = abs(cert.pigeonhole_sum) / scale
    thr_ok = threshold(3) == 1.0 / 6.0
    chain_ok = threshold_chain_check(3)
    ok = res_ok and dec_err <= 0.02 and pig_err <= 0.02 and thr_ok and chain_ok
    report(7, "certificate-plumbing", ok,
           f"maxres={np.max(cert.orthogonality_residuals):.1e} "
           f"decomp={dec_err:.1e} pigeonhole={pig_err:.1e} "
           f"chain={'exact' if chain_ok else 'broken'}")


def test_criterion_8_index_bracket(clifford64):
    ind_e = negative_index_count(energy_quadratic_matrix(clifford64)).count
    ind_a = negative_index_count(area_jacobi_matrix(clifford64)).count
    r = ejiri_micallef_r(1, 0).value
    cases_ok = (ejiri_micallef_r(0, 0).value == 0 and ejiri_micallef_r(3, 0).value == 12)
    ok = (ind_e, ind_a, r) == (4, 5, 2) and ind_e <= ind_a <= ind_e + r and cases_ok
    report(8, "index-bracket", ok,
           f"{ind_e} <= {ind_a} <= {ind_e + r}; r(0,0)=0, r(3,0)=12: {cases_ok}")


def test_criterion_9_negative_control(tmp_path, sphere2):
    jittered = jitter_vertices(sphere2, 0.05, seed=1)
    residual = minimality_residual(jittered)
    path = tmp_path / "jittered.off"
    write_off(jittered, path)
    exit_code = cli_main(["verify", "--surface", str(path)])
    ok = residual > 0.5 and exit_code == EXIT_VERIFICATION
    report(9, "negative-control", ok,
           f"residual={residual:.3f} verify-exit={exit_code}")


def test_criterion_10_hypothesis_met_certificate():
    # oracle: the 4-fold cover of the Clifford torus is a minimal immersion
    # with lambda1 = 2/4^2 = 1/8 (multiplicity 2), below threshold(3) = 1/6;
    # G_0 and G_1 tie by symmetry, so i0 is not pinned
    certs = [build_certificate(covered_clifford_torus(r), k=8, seed=0) for r in (32, 64)]
    lam_err = [abs(c.lambda1 - 0.125) for c in certs]
    mu = [c.d2e_value for c in certs]
    ok = (max(lam_err) <= 1e-3 and lam_err[0] >= 3.0 * lam_err[1]
          and abs(mu[1] - mu[0]) < 0.01 * abs(mu[1]))
    details = []
    for c in certs:
        dec_err = abs(c.d2e_value - c.decomposition_value) / abs(c.d2e_value)
        scale = float(np.sum(np.abs(c.d2e_canonical)) + np.sum(c.normal_mass))
        pig_err = abs(c.pigeonhole_sum) / scale
        ok = (ok and c.multiplicity == 2 and c.hypothesis_met and c.verdict == "negative"
              and c.proposition_applicable
              and float(np.max(c.orthogonality_residuals)) <= 1e-8
              and dec_err <= 0.02 and pig_err <= 0.02)
        details.append(f"lambda1={c.lambda1:.6f} x{c.multiplicity} mu*={c.d2e_value:.6f} "
                       f"{c.verdict} pigeonhole={pig_err:.1e}")
    report(10, "hypothesis-met-certificate", ok, "; ".join(details))
