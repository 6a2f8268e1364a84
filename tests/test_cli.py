"""CLI contract: subcommands, config precedence, exit codes, file outputs."""

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from covered_torus import covered_clifford_torus
from hypothesis import given, settings
from hypothesis import strategies as st
from jittered import jitter_vertices
from test_operators import eigsh_at_one_iteration

from spherevar.catalog import build_clifford_torus, build_equatorial_sphere
from spherevar.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    build_parser,
    load_config_file,
    main,
)
from spherevar.errors import ParameterError
from spherevar.mesh import SurfaceMesh, read_off, write_off
from spherevar.verify import run_verification


def run(args):
    return main(args)


def test_catalog_lists_surfaces(capsys):
    assert run(["catalog"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "clifford-torus" in out
    assert "equatorial-sphere" in out
    assert "provenance" in out


def test_spectrum_writes_csv(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code = run(["spectrum", "--surface", "clifford-torus", "--res", "16",
                "--k", "6", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "index,lambda,residual"
    assert len(lines) == 7
    stdout = capsys.readouterr().out
    assert "lambda1" in stdout and "threshold" in stdout


# k must lie in 1..V-1; the Clifford torus at res 16 has V = 256 vertices
@pytest.mark.parametrize("command", ["spectrum", "verify", "certificate"])
@pytest.mark.parametrize("k", ["0", "256"])
def test_k_out_of_range_is_usage_error(tmp_path, command, k):
    assert run([command, "--surface", "clifford-torus", "--res", "16", "--k", k,
                "--out", str(tmp_path / "out")]) == EXIT_USAGE


@pytest.mark.parametrize("delta", ["-0.1", "0"])
def test_index_nonpositive_delta_is_usage_error(delta):
    assert run(["index", "--surface", "clifford-torus", "--res", "16",
                "--delta", delta]) == EXIT_USAGE


@pytest.mark.parametrize("delta", ["inf", "nan"])
def test_index_nonfinite_delta_is_usage_error(delta):
    assert run(["index", "--surface", "clifford-torus", "--res", "16",
                "--delta", delta]) == EXIT_USAGE


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_verify_tol_not_positive_and_finite_is_usage_error(tmp_path, tol):
    out = tmp_path / "verify.json"
    assert run(["verify", "--surface", "clifford-torus", "--res", "8", "--tol", tol,
                "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
def test_certificate_nonfinite_synthetic_lambda_is_usage_error(tmp_path, lam):
    # certificate takes no --synthetic-lambda: any value, finite or not, is refused
    out = tmp_path / "certificate.json"
    assert run(["certificate", "--surface", "clifford-torus", "--res", "16",
                "--synthetic-lambda", lam, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_unknown_surface_is_usage_error():
    assert run(["spectrum", "--surface", "nonexistent-surface"]) == EXIT_USAGE


def test_verify_passes_on_clifford(tmp_path):
    out = tmp_path / "verify.json"
    code = run(["verify", "--surface", "clifford-torus", "--res", "64",
                "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert all("provenance" in c and "tolerance" in c for c in payload["checks"])


def test_verify_matches_run_verification(tmp_path, clifford64):
    # verify reports what run_verification does, every eigenfunction below
    # the cap included
    out = tmp_path / "verify.json"
    run(["verify", "--surface", "clifford-torus", "--res", "64", "--out", str(out)])
    expected = json.loads(json.dumps(run_verification(clifford64, seed=0).to_dict()))
    assert json.loads(out.read_text())["checks"] == expected["checks"]


def test_verify_passes_on_a_mesh_off_the_sphere_by_rounding(tmp_path, capsys):
    # validate_mesh accepts vertices up to 1e-12 off the unit sphere; the
    # norm identity compares |xi_i|^2 with its exact value for such vertices,
    # not with 1 - x_i^2, which differs from it by x_i^2 (|x|^2 - 1)
    sphere = build_equatorial_sphere(3, 3)
    path = tmp_path / "scaled.off"
    write_off(SurfaceMesh(n=3, vertices=(1.0 + 0.9e-12) * sphere.vertices,
                          faces=sphere.faces), path)
    assert run(["verify", "--surface", str(path), "--out", str(tmp_path / "v.json")]) == EXIT_OK
    assert "PASS moebius-norm-identity" in capsys.readouterr().out


def test_verify_fails_on_jittered_mesh(tmp_path, sphere2):
    path = tmp_path / "jittered.off"
    write_off(jitter_vertices(sphere2, 0.05, seed=1), path)
    assert run(["verify", "--surface", str(path)]) == EXIT_VERIFICATION


def test_mesh_file_is_reported_by_its_name(tmp_path, sphere2):
    path = tmp_path / "jittered.off"
    out = tmp_path / "index.json"
    write_off(jitter_vertices(sphere2, 0.05, seed=1), path)
    assert run(["index", "--surface", str(path), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["surface"] == "jittered"


@pytest.mark.parametrize("command", ["spectrum", "verify", "index", "certificate"])
@pytest.mark.parametrize("flag, value", [("--res", "64"), ("--n", "4")])
def test_catalog_flag_with_mesh_file_is_usage_error(tmp_path, capsys, clifford16, command,
                                                    flag, value):
    # a mesh file fixes its own resolution and dimension: neither is ignored
    path = tmp_path / "t16.off"
    write_off(clifford16, path)
    out = tmp_path / "out.file"
    assert run([command, "--surface", str(path), flag, value, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {flag} {value} ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "verify", "index", "certificate"])
def test_invalid_off_mesh_is_usage_error(tmp_path, clifford16, command):
    # a mesh read from a file is validated: vertices off the unit sphere, a
    # single flipped face and a vertex no face uses each end in MeshError,
    # not in a singular factor, counts or a verdict
    flipped = clifford16.faces.copy()
    flipped[0] = flipped[0, ::-1]
    unused = np.vstack([clifford16.vertices, [[1.0, 0.0, 0.0, 0.0]]])
    out = tmp_path / "out.file"
    for name, mesh in (("scaled", SurfaceMesh(n=3, vertices=1.3 * clifford16.vertices,
                                              faces=clifford16.faces)),
                       ("flipped", SurfaceMesh(n=3, vertices=clifford16.vertices,
                                               faces=flipped)),
                       ("unused", SurfaceMesh(n=3, vertices=unused, faces=clifford16.faces))):
        path = tmp_path / f"{name}.off"
        write_off(mesh, path)
        assert run([command, "--surface", str(path), "--out", str(out)]) == EXIT_USAGE, name
    assert not out.exists()


OFF_EDITS = ["reversed", "duplicated", "dropped", "collapsed", "off-sphere", "nan", "inf",
             "out-of-range"]


def edited_off(lines, edit, at):
    """The lines of an nOFF file with one adversarial edit at the face or
    vertex ``at`` (modulo their count): a face reversed, duplicated,
    dropped, collapsed onto an edge or given an index out of range, or a
    vertex scaled 1e-9 off the sphere or given a NaN or infinite coordinate."""
    dim, nv, nf = (int(t) for t in lines[1].split()[:3])
    verts, faces = lines[2:2 + nv], lines[2 + nv:2 + nv + nf]
    if edit in ("off-sphere", "nan", "inf"):
        x = np.array(verts[at % nv].split(), dtype=float)
        if edit == "off-sphere":
            x *= 1.0 + 1e-9
        else:
            x[at % dim] = float(edit)
        verts[at % nv] = " ".join(f"{c:.17g}" for c in x)
    else:
        f = at % nf
        _, a, b, c = faces[f].split()
        if edit == "duplicated":
            faces.append(faces[f])
        elif edit == "dropped":
            del faces[f]
        else:
            faces[f] = {"reversed": f"3 {c} {b} {a}", "collapsed": f"3 {a} {a} {c}",
                        "out-of-range": f"3 {a} {b} {nv}"}[edit]
    return [lines[0], f"{dim} {nv} {len(faces)} 0", *verts, *faces]


@pytest.fixture(scope="module")
def clifford16_off(tmp_path_factory):
    path = tmp_path_factory.mktemp("off") / "clifford16.off"
    write_off(build_clifford_torus(16), path)
    return path.read_text().splitlines()


@pytest.mark.parametrize("edit", OFF_EDITS)
@settings(max_examples=10, deadline=None)
@given(at=st.integers(min_value=0, max_value=10 ** 6))
def test_adversarial_off_edit_is_usage_error(clifford16_off, tmp_path_factory, edit, at):
    # each edit breaks validate_mesh, so verify ends in one error line, exit 2
    path = tmp_path_factory.mktemp("edited") / f"{edit}.off"
    path.write_text("\n".join(edited_off(clifford16_off, edit, at)) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run(["verify", "--surface", str(path)]) == EXIT_USAGE
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("eps", [1e-3, 1e-12])
def test_sliver_triangle_fails_only_the_minimality_gate(tmp_path, eps):
    # the third vertex c of face 0 moved to mid + eps (c - mid), mid the
    # midpoint of the opposite edge, and pushed back onto the sphere: the
    # mesh stays valid, verify stops at its minimality gate, and every other
    # command runs to the end
    mesh = build_clifford_torus(16)
    vertices = np.array(mesh.vertices)
    a, b, c = mesh.faces[0]
    mid = 0.5 * (vertices[a] + vertices[b])
    moved = mid + eps * (vertices[c] - mid)
    vertices[c] = moved / np.linalg.norm(moved)
    path = tmp_path / "sliver.off"
    write_off(SurfaceMesh(n=3, vertices=vertices, faces=mesh.faces, genus=1), path)
    out = tmp_path / "verify.json"
    assert run(["verify", "--surface", str(path), "--out", str(out)]) == EXIT_VERIFICATION
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks if not c["pass"]] == ["minimality-gate"]
    for command in ("index", "certificate", "spectrum"):
        assert run([command, "--surface", str(path),
                    "--out", str(tmp_path / f"{command}.out")]) == EXIT_OK


@pytest.mark.parametrize("comment", ["indented", "tab-indented", "after-counts"])
def test_off_comments_run_from_hash_to_line_end(clifford16_off, tmp_path, comment):
    # a comment may start anywhere on a line, not only in its first column
    lines = list(clifford16_off)
    if comment == "after-counts":
        lines[1] += "  # dim, vertices, faces, edges"
    else:
        lines.insert(2, {"indented": "   # vertices", "tab-indented": "\t# vertices"}[comment])
    plain, commented = tmp_path / "plain.off", tmp_path / "commented.off"
    plain.write_text("\n".join(clifford16_off) + "\n")
    commented.write_text("\n".join(lines) + "\n")
    expected, mesh = read_off(plain), read_off(commented)
    assert np.array_equal(mesh.vertices, expected.vertices)
    assert np.array_equal(mesh.faces, expected.faces)


@pytest.mark.parametrize("command", ["spectrum", "verify", "index", "certificate"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command, via):
    # numpy takes no negative seed: the option rejects it before any work
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -1\n")
    seed = ["--seed", "-1"] if via == "flag" else ["--config", str(cfg)]
    out = tmp_path / "out.file"
    assert run([command, "--res", "8", *seed, "--out", str(out)]) == EXIT_USAGE
    assert "-1" in capsys.readouterr().err
    assert not out.exists()


_TETRAHEDRON = ["1 0 0 0", "0 1 0 0", "0 0 1 0", "0 0 0 1"]
_TETRAHEDRON_FACES = ["3 0 1 2", "3 0 2 3", "3 0 3 1", "3 1 3 2"]


@pytest.mark.parametrize("text", [
    "nOFF\n4 4\n" + "\n".join(_TETRAHEDRON + _TETRAHEDRON_FACES),
    "nOFF\n4 4 4 0\n" + "\n".join(["1 0 0 0", "0 1 x 0"] + _TETRAHEDRON[2:]
                                      + _TETRAHEDRON_FACES),
    "nOFF\n4 4 4 0\n" + "\n".join(["1 0 0 0", "0 1 0"] + _TETRAHEDRON[2:]
                                      + _TETRAHEDRON_FACES),
    "nOFF\n",
], ids=["two-number-counts", "non-numeric-coordinate", "ragged-vertex-rows", "header-only"])
def test_malformed_off_file_is_usage_error(tmp_path, text):
    path = tmp_path / "malformed.off"
    path.write_text(text)
    assert run(["index", "--surface", str(path)]) == EXIT_USAGE


@pytest.mark.parametrize("case", ["missing-mesh", "directory-mesh", "binary-mesh",
                                  "spectrum-out", "index-out"])
def test_unreadable_or_unwritable_file_is_usage_error(tmp_path, capsys, case):
    # one "error:" line and exit 2, not a traceback
    binary = tmp_path / "binary.off"
    binary.write_bytes(bytes(range(256)))
    torus = ["--surface", "clifford-torus", "--res", "8", "--out"]
    args = {
        "missing-mesh": ["index", "--surface", str(tmp_path / "missing.off")],
        "directory-mesh": ["index", "--surface", str(tmp_path)],
        "binary-mesh": ["index", "--surface", str(binary)],
        "spectrum-out": ["spectrum", *torus, str(tmp_path / "missing" / "s.csv")],
        "index-out": ["index", *torus, str(tmp_path / "missing" / "s.json")],
    }[case]
    assert run(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("case", ["index-missing-dir", "index-out-is-a-dir",
                                  "certificate-missing-dir", "spectrum-default-is-a-dir"])
def test_unwritable_out_fails_before_the_work(tmp_path, monkeypatch, capsys, case):
    # the output path is checked before the surface is built: nothing is
    # computed or printed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spectrum.csv").mkdir()
    torus = ["--surface", "clifford-torus", "--res", "8"]
    args = {
        "index-missing-dir": ["index", *torus, "--out", str(tmp_path / "missing" / "s.json")],
        "index-out-is-a-dir": ["index", *torus, "--out", str(tmp_path)],
        "certificate-missing-dir": ["certificate", *torus, "--out", "missing/c.json"],
        "spectrum-default-is-a-dir": ["spectrum", *torus],
    }[case]
    assert run(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# each of these solves missed a copy of a multiple eigenvalue, or left a
# pair unconverged, and is completed by a deflated search
@pytest.mark.parametrize("surface, k, seed", [
    (["--surface", "clifford-torus", "--res", "16"], "7", "6"),
    (["--surface", "equatorial-sphere", "--res", "3"], "9", "1"),
    (["--surface", "product-torus", "--n", "5", "--res", "16"], "7", "6"),
], ids=["clifford-torus", "equatorial-sphere", "product-torus"])
def test_spectrum_recovers_pairs_lanczos_missed(tmp_path, capsys, surface, k, seed):
    out = tmp_path / "spec.csv"
    assert run(["spectrum", *surface, "--k", k, "--seed", seed, "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == int(k) + 1
    assert "lambda1 = " in capsys.readouterr().out


@pytest.mark.parametrize("command", ["index", "spectrum"])
def test_arpack_failure_is_a_numerical_failure(tmp_path, capsys, monkeypatch, command):
    eigsh_at_one_iteration(monkeypatch)
    out = tmp_path / "out.file"
    assert run([command, "--surface", "clifford-torus", "--res", "8",
                "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: eigensolver at shift ") and err.count("\n") == 1
    assert not out.exists()


def test_lambda1_cluster_cut_by_k_is_not_reported(tmp_path, capsys):
    # k = 3 holds 0 and two of the four copies of lambda1 = 2 on the torus
    torus = ["--surface", "clifford-torus", "--res", "32", "--k", "3"]
    assert run(["spectrum", *torus, "--out", str(tmp_path / "s.csv")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "increase k" in out and "lambda1 =" not in out
    assert run(["certificate", *torus, "--out", str(tmp_path / "c.json")]) == EXIT_NUMERICAL
    assert "k too small" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_spectrum_threshold_needs_n_at_least_3(tmp_path, capsys):
    assert run(["spectrum", "--surface", "equatorial-sphere", "--n", "2", "--res", "2",
                "--out", str(tmp_path / "s.csv")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "threshold (n-2)/(2n) needs n >= 3" in out and "nan" not in out


def test_index_report(tmp_path):
    out = tmp_path / "index.json"
    code = run(["index", "--surface", "clifford-torus", "--res", "32",
                "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["counts"]["energy"]["count"] == 4
    assert payload["counts"]["area_jacobi"]["count"] == 5
    assert payload["bracket"]["pass"] is True
    assert payload["el_soufi"]["negative_definite"] is True
    # the provenance names the factor Lanczos solved with
    counts = payload["counts"]
    assert "on the kept dense-front LDL^T of Q - delta M" in counts["energy"]["provenance"]
    assert "on a SuperLU factor of Q - delta M" in counts["area_jacobi"]["provenance"]


def test_certificate_report(tmp_path):
    out = tmp_path / "cert.json"
    code = run(["certificate", "--surface", "clifford-torus", "--res", "16",
                "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["hypothesis_met"] is False
    assert max(payload["orthogonality_residuals"]) <= 1e-8


def test_certificate_meets_the_hypothesis_on_the_covered_torus(tmp_path):
    # the 4-fold cover of the Clifford torus has lambda1 = 1/8 < 1/6
    path = tmp_path / "cover.off"
    out = tmp_path / "cert.json"
    write_off(covered_clifford_torus(32), path)
    assert run(["certificate", "--surface", str(path), "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["hypothesis_met"] is True
    assert payload["verdict"] == "negative"


def test_certificate_on_geodesic_sphere_is_usage_error():
    assert run(["certificate", "--surface", "equatorial-sphere",
                "--res", "2"]) == EXIT_USAGE


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("surface = clifford-torus\nres = 16\nk = 5\n# comment\n")
    out = tmp_path / "spec.csv"
    code = run(["spectrum", "--config", str(cfg), "--k", "7", "--out", str(out)])
    assert code == EXIT_OK
    # flag k=7 overrides config k=5
    assert len(out.read_text().splitlines()) == 8


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("resolution = 16\n")
    with pytest.raises(ParameterError):
        load_config_file(bad, "spectrum")
    bad.write_text("just a line\n")
    with pytest.raises(ParameterError):
        load_config_file(bad, "spectrum")
    assert run(["spectrum", "--config", str(tmp_path / "missing.cfg")]) == EXIT_USAGE


def test_usage_error_exit_code():
    assert run(["frobnicate"]) == EXIT_USAGE


# the flags each command reads, in --help order; every one also takes --config
READS = {
    "catalog": [],
    "spectrum": ["surface", "n", "res", "k", "seed", "out"],
    "verify": ["surface", "n", "res", "seed", "tol", "out"],
    "index": ["surface", "n", "res", "delta", "seed", "out"],
    "certificate": ["surface", "n", "res", "k", "seed", "out"],
}
FLAG_VALUES = {"surface": "clifford-torus", "n": "3", "res": "16", "k": "6",
               "delta": "0.1", "seed": "0", "tol": "0.02", "out": "out.json",
               "synthetic-lambda": "0.1", "config": "run.cfg"}
UNREAD_FLAGS = [(command, flag) for command, reads in READS.items()
                for flag in FLAG_VALUES
                if flag not in reads and (flag != "config" or not reads)]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS,
                         ids=[f"{c}-{f}" for c, f in UNREAD_FLAGS])
def test_unread_flag_is_usage_error(capsys, command, flag):
    assert run([command, f"--{flag}", FLAG_VALUES[flag]]) == EXIT_USAGE
    assert f"--{flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [("spectrum", "delta"), ("verify", "synthetic_lambda"),
                                          ("verify", "k"), ("index", "k"), ("certificate", "tol"),
                                          ("certificate", "synthetic_lambda")])
def test_unread_config_key_is_usage_error(tmp_path, capsys, command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1\n")
    assert run([command, "--config", str(cfg)]) == EXIT_USAGE
    assert repr(key) in capsys.readouterr().err


def _readme_flags():
    """The per-command flag lists of the README's CLI section."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return {m.group(1): re.findall(r"`(--[a-z-]+)`", m.group(2))
            for m in re.finditer(r"^- `([a-z]+)`: (.*(?:\n  .*)*)", section, re.MULTILINE)}


def test_readme_flag_lists_match_the_parser():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    taken = {name: [s for a in p._actions for s in a.option_strings if s.startswith("--")
                    and s != "--help"]
             for name, p in subparsers.items()}
    assert _readme_flags() == taken
    assert taken == {name: [f"--{f}" for f in reads] + (["--config"] if reads else [])
                     for name, reads in READS.items()}
