"""
Amortized constant work per edge
================================

The naive generator draws one uniform per recursion level, so an edge
costs k draws.  The fragment sampler draws whole multi-level fragments
and reuses leftover bits, so an edge costs about k / E[depth] draws.
That figure is the algorithmic story; wall-clock throughput also depends
on the emission kernel.  Variable-depth tables go through the word-stream
kernel, which packs fragments into 64-bit words and cuts each edge as one
k-bit window.  Uniform-depth tables use a periodic fixed-depth kernel that
is faster still in this numpy implementation.  The CLI exposes the same
sweep as `rmat bench-tablesize`.
"""

import time

from rmatgen import (
    GRAPH500,
    GenConfig,
    build_fixed_table,
    build_variable_table,
    generate_result,
    naive_edges,
    table_stats,
    validate,
)

k = 30
m = 10**6
params = validate(*GRAPH500, k)


def rate(fn):
    fn()  # warm up
    t0 = time.perf_counter()
    fn()
    return m / (time.perf_counter() - t0)


naive_rate = rate(lambda: naive_edges(params, k, m, 1))
print(f"naive oracle: {naive_rate / 1e6:6.2f}M edges/s ({k} draws per edge)\n")

print("table          entries  draws/edge  edges/s    vs naive")
for kind, arg in [("fixed", 4), ("fixed", 8), ("variable", 1021), ("variable", 8191)]:
    if kind == "fixed":
        table = build_fixed_table(params, arg)
        label = f"fixed l={arg}"
    else:
        table = build_variable_table(params, arg)
        label = f"variable {arg}"
    config = GenConfig(params=params, table=table, edge_count=m, seed=1)
    r = rate(lambda: generate_result(config))
    spe = generate_result(config).samples_consumed / m
    print(f"{label:14s} {len(table):7d}  {spe:10.3f}  {r / 1e6:6.2f}M  {r / naive_rate:7.2f}x")

print("\ndeeper tables always cut draws per edge (k / E[depth]); the")
print("uniform-depth rows ride the fixed-depth kernel and the variable")
print(f"rows the word-stream kernel (variable 8191 expects "
      f"{k / table_stats(table).expected_depth:.3f} draws/edge)")
