"""Tight-cycle factor machinery for k-uniform hypergraphs.

The package is organized around one pipeline: represent a k-uniform
hypergraph, put a balanced perfect fractional matching on it, walk it with
an (L, omega)-random walk, grow absorbers and path covers out of the walks,
and stitch everything into edge-disjoint tight-cycle factors.

Modules
-------
hypergraph   k-uniform hypergraphs, codegree/neighborhood queries, regularity
tightpaths   tight paths/cycles, cycle factors, k-set type classification
fractional   perfect fractional matchings, redistribution, sparsification
walks        (L, omega)-random walks: law, sampler, exact tuple marginals
absorbing    x-absorbers, blocks, absorbing structures, Hall matchings
cover        fractional cycle decompositions and path-cover extraction
assemble     connectors, the layer transform, factor packing
bruteforce   exhaustive reference oracles (reg_k, Hamilton search, ...)
cli          command-line front end
"""

from .hypergraph import (
    Hypergraph,
    RegularityReport,
    complete_hypergraph,
    degree_transfer_check,
    parse_hypergraph,
    format_hypergraph,
)
from .tightpaths import (
    TightPath,
    TightCycle,
    CycleFactor,
    PathCollection,
    is_tight_path,
    is_tight_cycle,
    classify,
    verify_factor_copy,
)
from .fractional import (
    EdgeWeighting,
    uniform_weighting,
    redistribute_pfm,
    balancedness,
    pfm_lp,
    sparsify_intersecting,
)
from .walks import (
    WalkState,
    transition_dist,
    sample_walk,
    tuple_marginal_oracle,
    self_avoiding_rate,
)
from .absorbing import (
    Absorber,
    Block,
    AbsorbingStructure,
    enumerate_absorbers,
    build_absorbing_structure,
    disjoint_perfect_matchings,
    absorb,
)
from .cover import (
    fractional_cycle_decomposition,
    extract_cycle_collections,
)
from .assemble import (
    LayerPlan,
    Profile,
    build_reservoir,
    connect,
    layer_transform,
    pack_factors,
)
from .bruteforce import (
    RegKResult,
    reg_k,
    hamilton_exists,
    walk_distribution,
    validate_packing,
)

__version__ = "0.1.0"
