"""Second-variation toolkit for minimal surfaces in round spheres."""

from .catalog import (
    CATALOG,
    build_by_name,
    build_clifford_torus,
    build_equatorial_sphere,
    build_product_torus,
    minimality_residual,
)
from .certificates import (
    CertificateReport,
    build_certificate,
    el_soufi_lower_bound_check,
    prop1_sum,
    threshold,
    threshold_chain_check,
)
from .errors import (
    ContractError,
    MeshError,
    ParameterError,
    SolverError,
    SphereVarError,
    UnsupportedSurfaceError,
)
from .mesh import SurfaceMesh, read_off, validate_mesh, write_off
from .mobius import (
    SplitField,
    moebius_field,
    moebius_gram,
    pointwise_identity_report,
    project_orthogonal_to_moebius,
    split_tangent_normal,
)
from .operators import (
    Pencil,
    Spectrum,
    assemble_mass,
    assemble_stiffness,
    count_eigenvalues_below,
    dissection_tree,
    integrate,
    laplace_pencil,
    nested_dissection,
    solve_smallest_eigenpairs,
)
from .secondvar import (
    area_jacobi_form,
    area_jacobi_matrix,
    ejiri_micallef_r,
    energy_form_coordinate,
    energy_form_covariant,
    energy_quadratic_matrix,
    negative_index_count,
)

__version__ = "0.1.0"
