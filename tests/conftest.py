"""Shared fixtures: catalog meshes and eigensolves are expensive, so they are
built once per session and reused across test modules."""

import numpy as np
import pytest

from spherevar.catalog import build_clifford_torus, build_equatorial_sphere, build_product_torus
from spherevar.operators import laplace_pencil, solve_smallest_eigenpairs


@pytest.fixture(scope="session")
def sphere4():
    return build_equatorial_sphere(3, 4)


@pytest.fixture(scope="session")
def sphere2():
    return build_equatorial_sphere(3, 2)


@pytest.fixture(scope="session")
def clifford64():
    return build_clifford_torus(64)


@pytest.fixture(scope="session")
def clifford16():
    return build_clifford_torus(16)


@pytest.fixture(scope="session")
def torus_s4():
    return build_product_torus(32, n=4)


@pytest.fixture(scope="session")
def clifford64_spectrum(clifford64):
    return solve_smallest_eigenpairs(laplace_pencil(clifford64), k=12, seed=0)


@pytest.fixture(scope="session")
def sphere4_spectrum(sphere4):
    return solve_smallest_eigenpairs(laplace_pencil(sphere4), k=10, seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
