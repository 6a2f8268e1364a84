"""Shared fixtures: catalog meshes and eigensolves are expensive, so they are
built once per session and reused across test modules."""

import numpy as np
import pytest

from spherevar.catalog import build_clifford_torus, build_equatorial_sphere, build_product_torus
from spherevar.operators import dissection_order, solve_smallest_eigenpairs
from spherevar.secondvar import form_operators


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
    return build_product_torus(2, 32, n=4)


@pytest.fixture(scope="session")
def clifford64_ops(clifford64):
    return form_operators(clifford64)


@pytest.fixture(scope="session")
def sphere4_ops(sphere4):
    return form_operators(sphere4)


@pytest.fixture(scope="session")
def clifford64_pairs(clifford64, clifford64_ops):
    return solve_smallest_eigenpairs(clifford64_ops.S, clifford64_ops.M, k=12,
                                     order=dissection_order(clifford64), seed=0)


@pytest.fixture(scope="session")
def sphere4_pairs(sphere4, sphere4_ops):
    return solve_smallest_eigenpairs(sphere4_ops.S, sphere4_ops.M, k=10,
                                     order=dissection_order(sphere4), seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
