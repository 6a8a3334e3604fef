"""Command-line front end.

Subcommands:

  generate    write an edge list (binary, text, or none for a timed dry run)
  verify      chi-square the generator's cell counts against the model
  table-dump  print the fragment table, one entry per line

`generate --format none` prints edges_per_sec= and samples_per_edge=
without writing, so a sweep over table sizes or thread counts is a shell
loop over it; perfbench/ is the harness whose timings count.

Exit codes: 0 on success, 1 when `verify` reports a failing verdict, 2 on
configuration or I/O errors.  Output files are written to a temp path and
renamed into place, so a failed run leaves no partial file behind.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .generator import DEFAULT_BLOCK_SIZE, GenConfig, generate_result
from .params import GRAPH500, RmatParams, validate
from .partition import default_plan, generate_part
from .postprocess import dedup_local, make_scramble_key, scramble_edges, to_undirected
from .stats import MAX_ENUM_K, cell_histogram, chi_square, exact_cell_probs, pool_small_cells
from .table import (
    DEFAULT_DEPTH_CAP,
    FragmentTable,
    build_fixed_table,
    build_variable_table,
    dump_table,
    perturb_table,
)

#: Default thread count when --threads is absent.
THREADS_ENV = "RMAT_THREADS"


class InvalidConfig(ValueError):
    """Mutually inconsistent or out-of-range command-line options."""


@dataclass(frozen=True)
class RunConfig:
    """Validated options for one CLI invocation."""

    subcommand: str
    a: float
    b: float
    c: float
    d: float
    k: int
    m: int
    seed: int
    kind: str  # fixed | variable
    depth: int | None
    size: int | None
    depth_cap: int
    undirected: bool
    scramble: bool
    dedup: bool
    tiles: int | None
    parts: int | None
    part: int | None
    out: str | None
    fmt: str  # binary | text | none
    threads: int
    noise: float = 0.0


def _default_threads() -> int:
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise InvalidConfig(f"{THREADS_ENV}={raw!r} is not an integer")
    if n < 1:
        raise InvalidConfig(f"{THREADS_ENV} must be >= 1, got {n}")
    return n


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    """Cross-field validation that argparse cannot express."""
    kind = getattr(ns, "table", "variable")
    depth = getattr(ns, "depth", None)
    size = getattr(ns, "size", None)
    if kind == "fixed":
        if depth is None:
            raise InvalidConfig("--table fixed requires --depth")
        if size is not None:
            raise InvalidConfig("--size applies only to --table variable")
    else:
        if depth is not None:
            raise InvalidConfig("--depth applies only to --table fixed")
        if size is None:
            size = 8191

    tiles = getattr(ns, "tiles", None)
    parts = getattr(ns, "parts", None)
    part = getattr(ns, "part", None)
    if part is not None and (parts is None or tiles is None):
        raise InvalidConfig("--part requires --parts and --tiles")
    if parts is not None and tiles is None:
        raise InvalidConfig("--parts requires --tiles")
    if tiles is not None:
        parts = 1 if parts is None else parts
        part = 0 if part is None else part
        if parts < 1:
            raise InvalidConfig(f"--parts must be >= 1, got {parts}")
        if not 0 <= part < parts:
            raise InvalidConfig(f"--part must be in [0, {parts}), got {part}")

    # Only subcommands with --threads read the environment; table-dump runs none.
    threads = getattr(ns, "threads", 1)
    if threads is None:
        threads = _default_threads()
    if threads < 1:
        raise InvalidConfig(f"--threads must be >= 1, got {threads}")

    fmt = getattr(ns, "format", "binary")
    out = getattr(ns, "out", None)
    if ns.subcommand == "generate":
        if fmt == "none" and out is not None:
            raise InvalidConfig("--format none writes nothing; drop -o")
        if fmt != "none" and out is None:
            raise InvalidConfig(f"--format {fmt} requires -o PATH")

    return RunConfig(
        subcommand=ns.subcommand,
        a=ns.a, b=ns.b, c=ns.c, d=ns.d,
        k=ns.k, m=getattr(ns, "m", 0), seed=ns.seed,
        kind=kind, depth=depth, size=size,
        depth_cap=getattr(ns, "depth_cap", DEFAULT_DEPTH_CAP),
        undirected=getattr(ns, "undirected", False),
        scramble=getattr(ns, "scramble", False),
        dedup=getattr(ns, "dedup", False),
        tiles=tiles, parts=parts, part=part,
        out=out, fmt=fmt, threads=threads,
        noise=getattr(ns, "noise", 0.0),
    )


def _build_table(config: RunConfig, params: RmatParams) -> FragmentTable:
    if config.kind == "fixed":
        return build_fixed_table(params, config.depth)
    return build_variable_table(params, config.size, depth_cap=config.depth_cap)


def _write_file(path: str, write_body) -> None:
    """Write via a temp file and atomic rename; no partial file on failure."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            write_body(f)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _text_block(edges: np.ndarray) -> np.ndarray:
    """What `np.savetxt(f, edges, fmt="%d")` writes for a non-empty (n, 2) block, as uint8.

    Digits go right-aligned into a (W+1, 2n) uint8 matrix, one column per
    id, W being the digit count of the block's largest id.  Row W holds the
    ' ' or '\n' after each id.  Masking off each id's leading zeros and
    reading the matrix column by column gives the lines.
    """
    top = int(edges.max())
    width = len(str(top))
    x = edges.astype(np.uint32 if top < 1 << 32 else np.uint64).ravel()
    digits = np.empty((width + 1, x.size), dtype=np.uint8)
    digits[width, 0::2] = ord(" ")
    digits[width, 1::2] = ord("\n")
    lead = np.full(x.size, width - 1, dtype=np.uint8)  # row of each id's first digit
    q = np.empty_like(x)
    for j in range(width - 1, -1, -1):
        np.floor_divide(x, 10, out=q)
        np.subtract(x, q * 10, out=x)  # x % 10; np.remainder measured several times slower
        np.add(x, ord("0"), out=digits[j], casting="unsafe")
        x, q = q, x
        if j:
            lead -= x > 0
    keep = np.arange(width + 1, dtype=np.uint8)[:, None] >= lead
    return digits.T[keep.T]


def _write_edges(path: str, fmt: str, edges: np.ndarray) -> None:
    if fmt == "binary":
        # Consecutive (u, v) records of two 64-bit little-endian uints.
        _write_file(path, lambda f: edges.astype("<u8", copy=False).tofile(f))
        return

    def write_lines(f) -> None:
        # 'u v' lines, formatted one block at a time so memory stays O(block).
        for lo in range(0, len(edges), DEFAULT_BLOCK_SIZE):
            f.write(_text_block(edges[lo : lo + DEFAULT_BLOCK_SIZE]))

    _write_file(path, write_lines)


def _write_text(path: str | None, lines: list[str]) -> None:
    body = "".join(line + "\n" for line in lines)
    if path is None:
        sys.stdout.write(body)
    else:
        _write_file(path, lambda f: f.write(body.encode()))


def run_generate(config: RunConfig) -> int:
    params = validate(config.a, config.b, config.c, config.d, config.k)
    if config.undirected and params.b != params.c:
        print(
            f"warning: --undirected with b={params.b!r} != c={params.c!r}; "
            "mirroring skews the marginals unless b == c",
            file=sys.stderr,
        )
    table = _build_table(config, params)

    # seconds= covers tile planning, edge generation and postprocessing;
    # table construction is outside it, and write_seconds= times the file
    # write.
    t0 = time.perf_counter()
    if config.tiles is not None:
        plan = default_plan(config.k, config.tiles, config.m, config.seed, config.parts)
        edges, _, samples = generate_part(plan, params, table, config.part,
                                          threads=config.threads)
    else:
        res = generate_result(
            GenConfig(
                params=params,
                table=table,
                edge_count=config.m,
                seed=config.seed,
                block_size=DEFAULT_BLOCK_SIZE,
                threads=config.threads,
            )
        )
        edges, samples = res.edges, res.samples_consumed
    generated = len(edges)
    if config.undirected:
        edges = to_undirected(edges)
    if config.dedup:
        edges = dedup_local(edges)
    if config.scramble:
        edges = scramble_edges(edges, make_scramble_key(config.seed, config.k))
    elapsed = max(time.perf_counter() - t0, 1e-9)

    t1 = time.perf_counter()
    if config.fmt != "none":
        _write_edges(config.out, config.fmt, edges)
    write_s = time.perf_counter() - t1
    print(
        f"edges={len(edges)} seconds={elapsed:.3f} "
        f"edges_per_sec={generated / elapsed:.0f} samples={samples} "
        f"samples_per_edge={samples / max(generated, 1):.4f} "
        f"write_seconds={write_s:.3f}"
    )
    return 0


def run_verify(config: RunConfig) -> int:
    params = validate(config.a, config.b, config.c, config.d, config.k)
    if config.k > MAX_ENUM_K:
        raise InvalidConfig(f"verify enumerates 4^k cells; k must be <= {MAX_ENUM_K}")
    table = _build_table(config, params)
    if config.noise:
        # Inject a controlled table defect; verify should then report fail.
        table = perturb_table(table, config.noise, config.seed)
    res = generate_result(
        GenConfig(
            params=params,
            table=table,
            edge_count=config.m,
            seed=config.seed,
            threads=config.threads,
        )
    )
    hist = cell_histogram(res.edges, config.k)
    probs = exact_cell_probs(params, config.k)
    counts = hist.counts
    if hist.total * float(probs.min()) < 5.0:
        # Pool cells too rare for the classical validity rule (skewed models).
        probs, counts = pool_small_cells(probs, counts)
    result = chi_square(counts, probs)
    verdict = "pass" if result.passed else "fail"
    print(
        f"statistic={result.statistic:.6f} dof={result.dof} "
        f"threshold={result.threshold:.6f} verdict={verdict}"
    )
    return 0 if result.passed else 1


def run_table_dump(config: RunConfig) -> int:
    params = validate(config.a, config.b, config.c, config.d, config.k)
    table = _build_table(config, params)
    _write_text(config.out, list(dump_table(table)))
    return 0


_HANDLERS = {
    "generate": run_generate,
    "verify": run_verify,
    "table-dump": run_table_dump,
}


def _add_model_args(p: argparse.ArgumentParser, need_m: bool) -> None:
    p.add_argument("-a", type=float, default=GRAPH500[0], help="quadrant probability a")
    p.add_argument("-b", type=float, default=GRAPH500[1], help="quadrant probability b")
    p.add_argument("-c", type=float, default=GRAPH500[2], help="quadrant probability c")
    p.add_argument("-d", type=float, default=GRAPH500[3], help="quadrant probability d")
    p.add_argument("-k", type=int, required=need_m, default=1,
                   help="index bits; the graph has 2^k nodes")
    if need_m:
        p.add_argument("-m", type=int, required=True, help="number of edges")
    p.add_argument("--seed", type=int, default=1, help="master seed")


def _add_table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--table", choices=("fixed", "variable"), default="variable",
                   help="fragment table kind (default: variable)")
    p.add_argument("--depth", type=int, help="fragment depth for fixed tables")
    p.add_argument("--size", type=int,
                   help="entry budget for variable tables (default: 8191)")
    p.add_argument("--depth-cap", type=int, default=DEFAULT_DEPTH_CAP, dest="depth_cap",
                   help="maximum fragment depth for variable tables")


def _add_threads_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=None,
                   help=f"threads filling edge blocks or tile batches, at most one "
                        f"per core (default: ${THREADS_ENV} or 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmat", description="R-MAT graph generation via fragment sampling"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("generate", help="generate an edge list")
    _add_model_args(g, need_m=True)
    _add_table_args(g)
    _add_threads_arg(g)
    g.add_argument("--undirected", action="store_true",
                   help="canonicalize each edge to (max, min)")
    g.add_argument("--scramble", action="store_true",
                   help="apply the seeded node-ID permutation")
    g.add_argument("--dedup", action="store_true",
                   help="drop duplicate edges, keeping first occurrences")
    g.add_argument("--tiles", type=int,
                   help="partitioned mode: split the matrix into 2^t x 2^t tiles")
    g.add_argument("--parts", type=int, help="number of parts owning tile rows")
    g.add_argument("--part", type=int, help="which part to generate (0-based)")
    g.add_argument("-o", dest="out", help="output path")
    g.add_argument("--format", choices=("binary", "text", "none"), default="binary",
                   help="binary: u,v pairs of 64-bit LE uints; text: 'u v' lines; "
                        "none: generate and time only")

    v = sub.add_parser("verify", help="chi-square generated cells against the model")
    _add_model_args(v, need_m=True)
    _add_table_args(v)
    _add_threads_arg(v)
    v.add_argument("--noise", type=float, default=0.0,
                   help="perturb table probabilities by this factor before "
                        "generating; nonzero values should make verify fail")

    td = sub.add_parser("table-dump", help="print fragment table entries")
    _add_model_args(td, need_m=False)
    _add_table_args(td)
    td.add_argument("-o", dest="out", help="output path (default: stdout)")

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        config = config_from_args(ns)
        return _HANDLERS[config.subcommand](config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # Exit 1 is verify's failing verdict, so running out of memory
        # must not fall through to the interpreter's default.
        print("error: out of memory; lower -m, or split the run with --tiles "
              "and --parts", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
