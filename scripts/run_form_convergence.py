#!/usr/bin/env python3
"""Measure convergence of the coordinate-vs-covariant energy form agreement.

The two discretizations of the same quadratic form differ only by
discretization error; their worst relative disagreement on random
band-limited fields should shrink roughly quadratically in h.
"""

import argparse
import sys

import numpy as np

from spherevar.catalog import build_clifford_torus
from spherevar.mesh import mesh_size
from spherevar.verify import form_equivalence_error


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolutions", type=int, nargs="+", default=[16, 32, 64, 128])
    ap.add_argument("--num-fields", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    prev = None
    print(f"{'res':>5} {'h':>8} {'worst rel err':>14} {'ratio':>7}")
    for res in args.resolutions:
        mesh = build_clifford_torus(res)
        err = form_equivalence_error(mesh, np.random.default_rng(args.seed), args.num_fields)
        ratio = "" if prev is None else f"{err / prev:7.3f}"
        print(f"{res:>5} {mesh_size(mesh):>8.4f} {err:>14.3e} {ratio:>7}")
        prev = err
    return 0


if __name__ == "__main__":
    sys.exit(main())
