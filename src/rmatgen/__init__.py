"""Fast R-MAT random graph generation via precomputed recursion-path fragments.

The generator draws whole fragments of the R-MAT recursion from an alias
table instead of descending one level at a time, giving amortized constant
work per edge.  Deterministic keyed random streams make parallel and
partitioned generation reproducible and communication-free.

Typical use:

    from rmatgen import validate, build_variable_table, GenConfig, generate

    params = validate(0.57, 0.19, 0.19, 0.05, k=20)
    table = build_variable_table(params, 8191)
    edges = generate(GenConfig(params=params, table=table,
                               edge_count=10**6, seed=1))
"""

from .alias import AliasTable, build_alias
from .generator import (
    DEFAULT_BLOCK_SIZE,
    Edge,
    GenConfig,
    GenResult,
    emit_block,
    generate,
    generate_result,
    generate_stream,
    naive_edge,
    naive_edges,
)
from .params import (
    GRAPH500,
    MAX_K,
    BadExponent,
    NegativeOrZeroWeight,
    RmatParams,
    SumOutOfTolerance,
    entropy,
    speedup_bound,
    validate,
)
from .partition import (
    MAX_PLAN_TILES,
    MAX_TILE_BITS,
    PartitionPlan,
    PlanTooLarge,
    TileCount,
    default_plan,
    generate_part,
    generate_part_stream,
    plan_tiles,
    split_quadrant_counts,
)
from .postprocess import (
    ScrambleKey,
    dedup_local,
    dedup_stream,
    make_scramble_key,
    scramble,
    scramble_edges,
    to_undirected,
)
from .stats import (
    MAX_ENUM_K,
    CellHistogram,
    ChiSquareResult,
    DegreeStats,
    KTooLargeForEnumeration,
    SampleTooSmall,
    cell_histogram,
    chi_square,
    chi_square_quantile,
    degree_stats,
    exact_cell_probs,
    pool_small_cells,
)
from .table import (
    DEFAULT_DEPTH_CAP,
    MAX_FIXED_DEPTH,
    MAX_TABLE_ENTRIES,
    DepthOutOfRange,
    FragmentTable,
    NoiseOutOfRange,
    PathEntry,
    SizeLimitTooSmall,
    TableModelMismatch,
    TableStats,
    TableTooLarge,
    build_fixed_table,
    build_variable_table,
    dump_table,
    perturb_table,
    table_stats,
)

__version__ = "0.1.0"

__all__ = [
    "AliasTable", "build_alias",
    "DEFAULT_BLOCK_SIZE", "Edge", "GenConfig", "GenResult", "emit_block",
    "generate", "generate_result", "generate_stream", "naive_edge", "naive_edges",
    "GRAPH500", "MAX_K", "BadExponent", "NegativeOrZeroWeight", "RmatParams",
    "SumOutOfTolerance", "entropy", "speedup_bound", "validate",
    "MAX_PLAN_TILES", "MAX_TILE_BITS", "PartitionPlan", "PlanTooLarge", "TileCount",
    "default_plan", "generate_part", "generate_part_stream", "plan_tiles",
    "split_quadrant_counts",
    "ScrambleKey", "dedup_local", "dedup_stream", "make_scramble_key", "scramble",
    "scramble_edges", "to_undirected",
    "MAX_ENUM_K", "CellHistogram", "ChiSquareResult", "DegreeStats",
    "KTooLargeForEnumeration", "SampleTooSmall", "cell_histogram",
    "chi_square", "chi_square_quantile", "degree_stats", "exact_cell_probs",
    "pool_small_cells",
    "DEFAULT_DEPTH_CAP", "MAX_FIXED_DEPTH", "MAX_TABLE_ENTRIES", "DepthOutOfRange",
    "FragmentTable", "NoiseOutOfRange", "PathEntry", "SizeLimitTooSmall",
    "TableModelMismatch", "TableStats", "TableTooLarge", "build_fixed_table",
    "build_variable_table", "dump_table", "perturb_table", "table_stats",
    "__version__",
]
