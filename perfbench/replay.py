"""Traced replay of `rmat generate`, layer by layer.

The replay calls the library's public functions in the order
`cli.run_generate` uses them, with the configuration the CLI's own parser
resolves, and wraps each call in a span named `<module>.<call>`.  Its
output file must hash to the same digest as the CLI's, which ties the
per-layer numbers to the program the end-to-end numbers measure.  After
the path, diagnostic calls measure what the path cannot: the alias build
alone, every block on its own, the bare Philox draw, the naive oracle, the
two-worker pool and the CLI's write.

Spans live in memory and are returned for the results file.  A layer the
workload's path never calls reports 0.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from rmatgen import (
    DEFAULT_BLOCK_SIZE,
    GenConfig,
    build_alias,
    build_fixed_table,
    build_variable_table,
    default_plan,
    dedup_local,
    emit_block,
    generate_part,
    generate_result,
    make_scramble_key,
    plan_tiles,
    scramble_edges,
    to_undirected,
    validate,
)
from rmatgen import cli
from rmatgen.cli import RunConfig

from checker import digest
from workloads import Workload, cli_argv, run_config

#: In-process `cli.main` pairs (with -o, then --format none) behind cli.write_s.
WRITE_PAIRS = 2
#: Words per random_raw call when timing the bare Philox draw.
DRAW_CHUNK = 1 << 18


class Tracer:
    """Spans with name, start, end and parent, kept in memory."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
               "name": name, "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def children_seconds(self, parent: int) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] == parent)

    def export(self) -> dict:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return {"trace_id": self.trace_id, "spans": [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans
        ]}


def build_table(rc: RunConfig, params):
    if rc.kind == "fixed":
        return build_fixed_table(params, rc.depth)
    return build_variable_table(params, rc.size, depth_cap=rc.depth_cap)


def write_edges(path: Path, fmt: str, edges: np.ndarray) -> None:
    """The CLI's documented output formats: LE uint64 pairs, or 'u v' lines."""
    with open(path, "wb") as f:
        if fmt == "binary":
            edges.astype("<u8", copy=False).tofile(f)
        else:
            np.savetxt(f, edges, fmt="%d")


def _replay_path(tr: Tracer, rc: RunConfig, out: Path) -> dict:
    """The calls run_generate makes, in its order; returns what later steps need."""
    ctx: dict = {}
    with tr.span("cli.run_generate") as root:
        params = validate(rc.a, rc.b, rc.c, rc.d, rc.k)
        with tr.span("table.build"):
            table = build_table(rc, params)
        if rc.tiles is not None:
            plan = default_plan(rc.k, rc.tiles, rc.m, rc.seed, rc.parts)
            with tr.span("partition.generate_part"):
                edges, tiles, samples = generate_part(plan, params, table, rc.part)
            ctx.update(plan=plan, tiles=tiles)
        else:
            gc = GenConfig(params=params, table=table, edge_count=rc.m, seed=rc.seed,
                           block_size=DEFAULT_BLOCK_SIZE, threads=1)
            with tr.span("generator.generate_result"):
                res = generate_result(gc)
            edges, samples = res.edges, res.samples_consumed
            ctx.update(gen_config=gc)
        ctx.update(params=params, table=table, samples=samples, generated=len(edges),
                   emitted=edges)
        if rc.undirected:
            with tr.span("postprocess.undirected"):
                edges = to_undirected(edges)
        if rc.dedup:
            with tr.span("postprocess.dedup"):
                before = len(edges)
                edges = dedup_local(edges)
            ctx["dedup_kept_ratio"] = len(edges) / before
        if rc.scramble:
            with tr.span("postprocess.scramble"):
                edges = scramble_edges(edges, make_scramble_key(rc.seed, rc.k))
        with tr.span("cli.write"):
            write_edges(out, rc.fmt, edges)
    ctx["root"] = root["id"]
    return ctx


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Replay(NamedTuple):
    metrics: dict[str, float]  # every per-layer metric except cli.overhead_s
    spans: dict
    digest: str
    problems: list[str]
    layers_s: float  # sum of the layer spans on run_generate's path


def traced_replay(w: Workload, seed: int, work: Path, naive_rate: float) -> Replay:
    """Replay one workload's path, then its diagnostics, under one tracer."""
    rc = run_config(w, seed)
    tr = Tracer(f"{w.name}/seed={seed}")
    problems: list[str] = []
    out = work / f"replay.{w.fmt}"
    ctx = _replay_path(tr, rc, out)
    out_digest = digest(out.read_bytes())
    out.unlink()
    params, table, emitted = ctx["params"], ctx["table"], ctx.pop("emitted")
    path_s = tr.seconds("cli.run_generate")
    layers_s = tr.children_seconds(ctx["root"])

    m: dict[str, float] = {}
    m["table.build_s"] = tr.seconds("table.build")
    m["table.entries"] = len(table)
    m["table.mean_depth"] = table.mean_depth
    with tr.span("diagnostics"):
        with tr.span("alias.build"):
            build_alias(table.probs)

        emit_s = tr.seconds("generator.generate_result")
        m["generator.emit_s"] = emit_s
        m["generator.block_p50_ms"] = m["generator.block_p90_ms"] = 0.0
        m["generator.vs_naive"] = m["generator.pool_speedup"] = 0.0
        if "gen_config" in ctx:
            gc = ctx["gen_config"]
            B = gc.block_size
            for b in range((rc.m + B - 1) // B):
                count = min(B, rc.m - b * B)
                with tr.span("generator.emit_block"):
                    block = emit_block(table, rc.k, count, (rc.seed, b))
                if not np.array_equal(block, emitted[b * B : b * B + count]):
                    problems.append(f"emit_block({b}) differs from generate_result")
            ms = [1e3 * s for s in tr.durations("generator.emit_block")]
            m["generator.block_p50_ms"] = statistics.median(ms)
            m["generator.block_p90_ms"] = (
                statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
            )
            m["generator.vs_naive"] = rc.m / emit_s / naive_rate
            # Compare by digest so one copy of the edges is alive at a time.
            one_worker = digest(emitted)
            del emitted
            with tr.span("generator.pool2"):
                pooled = generate_result(GenConfig(
                    params=params, table=table, edge_count=rc.m, seed=rc.seed,
                    block_size=gc.block_size, threads=2))
            if digest(pooled.edges) != one_worker:
                problems.append("2-worker generate_result differs from 1 worker")
            del pooled
            m["generator.pool_speedup"] = emit_s / tr.seconds("generator.pool2")

        samples = ctx["samples"]
        inner_bits = rc.k - (rc.tiles or 0)
        m["generator.samples_per_edge"] = samples / ctx["generated"]
        m["generator.ideal_samples_per_edge"] = inner_bits / table.mean_depth
        m["generator.naive_edges_per_s"] = naive_rate
        bits = np.random.Philox(abs(seed))
        with tr.span("rng.draw"):
            for lo in range(0, samples, DRAW_CHUNK):
                bits.random_raw(min(DRAW_CHUNK, samples - lo))

        for key in ("partition.plan_s", "partition.fill_s", "partition.per_tile_us",
                    "partition.tiles", "partition.empty_tiles", "partition.max_tile_edges"):
            m[key] = 0.0
        if "plan" in ctx:
            with tr.span("partition.plan_tiles"):
                tiles = plan_tiles(ctx["plan"], params, rc.part)
            if tiles != ctx["tiles"]:
                problems.append("plan_tiles differs from generate_part's tiles")
            counts = [t.count for t in tiles]
            plan_s = tr.seconds("partition.plan_tiles")
            fill_s = tr.seconds("partition.generate_part") - plan_s
            m["partition.plan_s"] = plan_s
            m["partition.fill_s"] = fill_s
            m["partition.per_tile_us"] = 1e6 * fill_s / len(tiles)
            m["partition.tiles"] = len(tiles)
            m["partition.empty_tiles"] = counts.count(0)
            m["partition.max_tile_edges"] = max(counts)
    m["rng.draw_s"] = tr.seconds("rng.draw")
    m["alias.build_s"] = tr.seconds("alias.build")

    m["postprocess.undirected_s"] = tr.seconds("postprocess.undirected")
    m["postprocess.dedup_s"] = tr.seconds("postprocess.dedup")
    m["postprocess.scramble_s"] = tr.seconds("postprocess.scramble")
    m["postprocess.dedup_kept_ratio"] = ctx.get("dedup_kept_ratio", 0.0)

    # The CLI's own write: cli.main with -o minus cli.main with --format none,
    # in alternating order, median over the pairs.
    main_out = work / f"main.{w.fmt}"
    diffs = []
    with tr.span("untraced"):
        for i in range(WRITE_PAIRS):
            order = ("out", "none") if i % 2 == 0 else ("none", "out")
            walls = {}
            for kind in order:
                argv = cli_argv(w, seed, str(main_out) if kind == "out" else None)
                with tr.span(f"cli.main.{kind}") as s:
                    code = _quiet_main(argv)
                walls[kind] = s["end"] - s["start"]
                if code != 0:
                    problems.append(f"in-process cli.main {kind} exited {code}")
            diffs.append(walls["out"] - walls["none"])
    m["cli.write_s"] = statistics.median(diffs)
    m["cli.bytes_written"] = os.path.getsize(main_out)
    if digest(main_out.read_bytes()) != out_digest:
        problems.append("in-process cli.main output differs from the replay's")
    main_out.unlink()
    m["trace.overhead_s"] = path_s - statistics.median(tr.durations("cli.main.out"))
    return Replay(m, tr.export(), out_digest, problems, layers_s)
