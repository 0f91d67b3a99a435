"""Unique sink orientations of cubes, seen through their tile sets.

An orientation of the k-cube assigns each edge a direction; it is a
unique sink orientation when every non-empty face has exactly one sink.
Each such orientation corresponds to a set of 2^k pairwise compatible
tiles, words over the digits 0..3, and that tile view is what the
rewriting rules, the transforms, and the samplers in this package
operate on.

The modules split as follows:

- cube: vertices, edges, faces, orientations, the unique sink checks
- pairwise: the vertex pair test and the face-sink recursion, which is
  the one unique-sink verdict of orientations and tilings
- tiling: tile packing, adjacency, tile sets, the orientation bijection
- rewrite: rewriting rules (one type; a simple rule has one column),
  validity, application
- transform: products, facets, mirrors, swaps, phases, hypervertices
- enumeration: exhaustive streams, counting, the seeded flip walk
- formats: the line-based text forms used by the command line driver
- errors: the exception hierarchy and the categories the CLI prints

Importing the package does not import numpy.  The numpy routes import
it on first use, through ``_lazy``: the pair test, the block text codec
and label packing from dimension 5 up, vertex tables from dimension 6 up,
the face-sink recursion above dimension 8, the rewrite splice from 128
input tiles, the phase kernel, the facet join and the flip walk's random
words.
"""

from types import ModuleType as _ModuleType

from .cube import (
    Edge,
    Face,
    Orientation,
    PartialOrientation,
    canonical_orientation,
    combine,
    edge_at,
    flip_edges,
    flippable_edges,
    is_uso,
    neighbor,
    unique_sink,
    vertex_bits,
    vertex_from_bits,
)
from .enumeration import (
    ChainState,
    EnumerationReport,
    MAX_BRUTE_DIM,
    MAX_JOIN_DIM,
    MAX_SAMPLE_DIM,
    RNG_ALGORITHM,
    SplitMix64,
    count_usos,
    enumerate_brute,
    enumerate_join,
    markov_walk,
    sample_markov,
)
from .errors import (
    DimensionError,
    EnumerationLimitError,
    FormatError,
    HypervertexError,
    InternalError,
    InvalidRuleError,
    LabellingError,
    NotATilingError,
    NotAnUsoError,
    PhaseSelectionError,
    UsoError,
)
from .formats import (
    MAX_FORMAT_DIM,
    read_labels,
    read_orientation,
    read_rule,
    read_tiling,
    write_labels,
    write_orientation,
    write_rule,
    write_tiling,
)
from .rewrite import (
    GeneralizedRule,
    NAMED_RULE_KINDS,
    SimpleRule,
    apply_generalized,
    apply_simple,
    as_generalized,
    frame_tiles,
    named_rule,
    product_labelling,
    product_rule,
    universality_rule,
    validate_generalized,
    validate_simple,
)
from .tiling import (
    PartialTileSet,
    TileSet,
    bow,
    canonical_tiles,
    gk_adjacent,
    is_tiling,
    tile_of,
    tile_pack,
    tile_unpack,
    tiles_from_uso,
    tiling_defect,
    twins,
    uso_from_tiles,
)
from .transform import (
    PHASE_DIM_CAP,
    HypervertexWitness,
    PhasePartition,
    facet,
    flip_dimension,
    hypervertex_check,
    hypervertex_replace,
    inherited,
    mirror,
    partial_swap,
    phase_flip,
    phase_swap,
    phases,
    product,
)

__version__ = "0.1.0"

# every public name imported above
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
