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

The package resolves each public name on first use (PEP 562): importing
it, or a module of it such as `rmatgen.cli`, loads only the modules that
are used.
"""

import importlib

__version__ = "0.1.0"

#: Every public name, by the module that defines it.
_PUBLIC = {
    "alias": ("AliasTable", "build_alias"),
    "generator": ("DEFAULT_BLOCK_SIZE", "Edge", "GenConfig", "GenResult", "emit_block",
        "generate", "generate_result", "generate_stream", "naive_edge", "naive_edges"),
    "params": ("GRAPH500", "MAX_K", "BadExponent", "NegativeOrZeroWeight", "RmatParams",
        "SumOutOfTolerance", "entropy", "speedup_bound", "validate"),
    "partition": ("MAX_PLAN_TILES", "MAX_TILE_BITS", "PartitionPlan", "PlanTooLarge",
        "TileCount", "default_plan", "generate_part", "generate_part_stream", "plan_tiles",
        "split_quadrant_counts"),
    "postprocess": ("ScrambleKey", "dedup_local", "dedup_stream", "make_scramble_key",
        "scramble", "scramble_edges", "to_undirected"),
    "stats": ("MAX_ENUM_K", "CellHistogram", "ChiSquareResult", "DegreeStats",
        "KTooLargeForEnumeration", "SampleTooSmall", "cell_histogram", "chi_square",
        "chi_square_quantile", "degree_stats", "exact_cell_probs", "pool_small_cells"),
    "table": ("DEFAULT_DEPTH_CAP", "MAX_FIXED_DEPTH", "MAX_TABLE_ENTRIES", "DepthOutOfRange",
        "FragmentTable", "NoiseOutOfRange", "PathEntry", "SizeLimitTooSmall",
        "TableModelMismatch", "TableStats", "TableTooLarge", "build_fixed_table",
        "build_variable_table", "dump_table", "perturb_table", "table_stats"),
}
_MODULE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_MODULE, "__version__"]


def __getattr__(name: str):
    try:
        module = _MODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
