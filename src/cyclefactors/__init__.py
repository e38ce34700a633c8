"""Tight-cycle factor machinery for k-uniform hypergraphs.

The package is organized around one pipeline, ``decompose``: weigh a
k-uniform hypergraph by a perfect fractional matching, sparsify a reserve
out of it by those weights, cover the rest by a fractional decomposition
into tight cycles, extract edge-disjoint cycle collections from that cover,
and connect each collection's paths, through the reserve and the edges no
collection uses, into one of the edge-disjoint tight-cycle factors.

Modules
-------
hypergraph   k-uniform hypergraphs, codegree/neighborhood queries, regularity
tightpaths   tight paths/cycles, cycle factors, k-set type classification
fractional   perfect fractional matchings, redistribution, sparsification
walks        (L, omega)-random walks: law, sampler, exact tuple marginals
absorbing    x-absorbers as 2k-tuples, edge-disjoint perfect matchings
cover        fractional cycle decompositions and path-cover extraction
assemble     connectors, the layer transform, factor packing
bruteforce   exhaustive reference oracles (reg_k, walk laws, packings)
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
    transition_dist,
    sample_walk,
    sample_walks,
    tuple_marginal_oracle,
)
from .absorbing import (
    enumerate_absorbers,
    disjoint_perfect_matchings,
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
    walk_distribution,
    validate_packing,
)

__version__ = "0.1.0"
