"""einpoly: exact lattice-polytope analysis of the algebraic Einstein
equation on compact homogeneous spaces with multiplicity-free isotropy.

From the combinatorial spectral data of such a space (module dimensions,
Killing coefficients, symmetric bracket constants, structural flags) the
package constructs the moment/weight polytope, the complex of flat
directions at infinity, the minimal compactification and its normalized
volume, Bernstein/Delannoy solution-count bounds, the marked-face census
with singularity verdicts, and exact solution counts for d <= 3.
"""

__version__ = "0.1.0"

from .exact import ZPoly, det, lattice_index, resultant, sturm_count, zpoly
from .polytope import (
    Face,
    LatticePolytope,
    hull,
    is_cross_polytope,
    is_pyramid,
    permutohedron,
    standard_simplex,
)
from .homspace import (
    HomSpaceData,
    SchemaError,
    catalog_names,
    jordan_product,
    jordan_space,
    kaehler_b2_polytope,
    load_catalog,
    parse,
    product_of_irreducibles,
    weight_polytope,
)
from .curvature import (
    LaurentPoly,
    moment,
    monomial_substitute,
    newton_polytope,
    restrict_to_face,
    ricci_components,
    scalar_curvature,
)
from .infinity import (
    FlatComplex,
    b2_exponent,
    delta_min,
    flat_complex,
    flat_vertex_criterion,
)
from .faces import (
    ChartSubstitution,
    boundary_jacobian,
    curve_singular,
    localize,
    marked_census,
    parallelogram_singular,
)
from .solver import (
    SolutionSet,
    count_complex,
    delannoy,
    legendre_at_3,
    real_positive,
)
from .report import analyze
