"""Graph-property analytics and the paper's comparison tables.

* :mod:`repro.analysis.decompose` — the product-decomposition distance
  engine: exact diameter / average distance / full distance histogram of
  any Cartesian-product family by factor-histogram convolution.
* :mod:`repro.analysis.metrics` — exact diameters (product decomposition,
  vertex-transitive single-BFS, pooled bit-parallel all-sources sweep),
  average distance, regularity.
* :mod:`repro.analysis.formulas` — closed-form property formulas for the
  four families of Figure 1.
* :mod:`repro.analysis.compare` — the Figure 1 and Figure 2 table builders
  (experiments E1 and E2).
"""

from repro.analysis.bisection import (
    BisectionReport,
    bisection_report,
    cube_cut_width,
    kernighan_lin_upper_bound,
    spectral_lower_bound,
)
from repro.analysis.compare import (
    Cell,
    figure1_table,
    figure2_table,
    render_table,
)
from repro.analysis.decompose import (
    convolve_pair_histograms,
    factor_pair_histogram,
    leaf_factors,
    product_average_distance,
    product_diameter,
    product_pair_histogram,
)
from repro.analysis.distance_stats import (
    DistanceProfile,
    distance_profile,
    pair_distance_counts,
    profile_table,
)
from repro.analysis.formulas import (
    FamilyFormulas,
    butterfly_formulas,
    hyperbutterfly_formulas,
    hypercube_formulas,
    hyperdebruijn_formulas,
)
from repro.analysis.metrics import (
    average_distance,
    degree_profile,
    exact_diameter,
)

__all__ = [
    "convolve_pair_histograms",
    "factor_pair_histogram",
    "leaf_factors",
    "product_average_distance",
    "product_diameter",
    "product_pair_histogram",
    "exact_diameter",
    "average_distance",
    "degree_profile",
    "FamilyFormulas",
    "hypercube_formulas",
    "butterfly_formulas",
    "hyperdebruijn_formulas",
    "hyperbutterfly_formulas",
    "Cell",
    "figure1_table",
    "figure2_table",
    "render_table",
    "BisectionReport",
    "bisection_report",
    "cube_cut_width",
    "spectral_lower_bound",
    "kernighan_lin_upper_bound",
    "DistanceProfile",
    "distance_profile",
    "pair_distance_counts",
    "profile_table",
]
