"""Exact cell structure and decision-boundary topology of ReLU networks."""

from .signs import cube_closure, product
from .model import (
    AffineLayer,
    ModelFormatError,
    ReluNetwork,
    node_map_value_matrix,
    random_init,
    read_model,
    write_model,
)
from .builder import (
    ArchitectureUnsupported,
    DegenerateNetwork,
    DuplicateMismatch,
    LayerBuildState,
    build_complex,
    extend_layer,
    first_layer_vertices,
)
from .topology import (
    BettiReport,
    BoundaryInconsistent,
    ChainComplexGF2,
    ClosureViolation,
    CubicalComplex,
    assemble,
    betti_gf2,
    boundary_matrices,
    compactify,
    decision_boundary,
    gf2_rank,
    render_db_svg,
)
from .oracle import SampleGrid, sample_region_signs

__version__ = "0.1.0"
