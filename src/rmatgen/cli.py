"""Command-line front end.

Subcommands:

  generate    write an edge list (binary, text, or none for a timed dry run)
  verify      chi-square the generator's cell counts against the model
  table-dump  print the fragment table, one entry per line

`generate --format none` prints edges_per_sec= and samples_per_edge=
without writing, so a sweep over table sizes or thread counts is a shell
loop over it; perfbench/ is the harness whose timings count.

`generate` makes one stream of units of edges: blocks from
`generate_stream`, or, on a tiled run, batches of the part's tiles from
`generate_part_stream`.  It appends each unit to a temp file as it
arrives, so memory holds a bounded window of units, not -m edges.
Postprocessing is one chain over the units, each stage on when its
option is: --undirected maps each unit through to_undirected, --dedup
runs postprocess.dedup_stream over the whole stream, which hands back
the kept edges a block at a time, and --scramble maps what is left.
--dedup is global, and its memory grows with the edges it holds, so
DEDUP_BYTES_PER_EDGE times them is checked against physical memory
before the table is built: all -m edges, or, on one part of a tiled
run, which is planned first, the edges of its tiles.
The temp file is renamed into place last, so a failed run leaves no
file.  -o through a symlink renames onto the file the link names, and
the link stays; an existing -o that is not a regular file, such as a
FIFO or a device, is opened and written in place, with no temp file.

A run imports the partition module only when it is tiled, postprocess
only for the options that use it, and stats only for `verify`.  Exit
codes: 0 on success, 1 for a failing `verify` verdict, 2 on any error.
`main()` without arguments, the entry of the `rmat` script and of
`python -m rmatgen.cli`, flushes stdout and stderr and ends the process
with os._exit, skipping the interpreter's teardown; `main(argv)`
returns the code.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .generator import DEFAULT_BLOCK_SIZE, GenConfig, generate_stream
from .params import GRAPH500, RmatParams, validate
from .table import (
    DEFAULT_DEPTH_CAP,
    FragmentTable,
    build_fixed_table,
    build_variable_table,
    dump_table,
    perturb_table,
)


class InvalidConfig(ValueError):
    """Mutually inconsistent or out-of-range command-line options."""


class DedupTooLarge(ValueError):
    """`generate --dedup` would need more memory than the machine has."""


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


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


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    """Cross-field validation that argparse cannot express."""
    kind = getattr(ns, "table", "variable")
    depth = getattr(ns, "depth", None)
    size = getattr(ns, "size", None)
    depth_cap = getattr(ns, "depth_cap", None)
    if kind == "fixed":
        if depth is None:
            raise InvalidConfig("--table fixed requires --depth")
        if size is not None:
            raise InvalidConfig("--size applies only to --table variable")
        if depth_cap is not None:
            raise InvalidConfig("--depth-cap applies only to --table variable")
    else:
        if depth is not None:
            raise InvalidConfig("--depth applies only to --table fixed")
        if size is None:
            size = 8191
    if depth_cap is None:
        depth_cap = DEFAULT_DEPTH_CAP

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

    threads = getattr(ns, "threads", 1)
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
        depth_cap=depth_cap,
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
    """Write via a temp file and atomic rename; no partial file on failure.

    The rename lands on the file a symlink names, so the link stays.  An
    existing path that is not a regular file, such as a FIFO or a device,
    is opened and written in place: a rename would replace it.
    """
    if os.path.islink(path):
        path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as f:
            write_body(f)
        return
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


def _append_edges(f, fmt: str, edges: np.ndarray) -> None:
    if fmt == "binary":
        # Consecutive (u, v) records of two 64-bit little-endian uints,
        # written from the array's buffer: ndarray.tofile asks for a file
        # position, which a FIFO does not have.
        f.write(np.ascontiguousarray(edges, dtype="<u8"))
        return
    # 'u v' lines, formatted one block at a time so memory stays O(block).
    for lo in range(0, len(edges), DEFAULT_BLOCK_SIZE):
        f.write(_text_block(edges[lo : lo + DEFAULT_BLOCK_SIZE]))


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
    # write_seconds= sums the time inside the file writes, and seconds= is the
    # rest from tile planning on (generation and postprocessing, which without
    # --dedup interleave with the writes unit by unit); table build is outside.
    t0 = time.perf_counter()
    tiles = None
    if config.tiles is not None:
        from .partition import _plan_cells, default_plan, generate_part_stream

        plan = default_plan(config.k, config.tiles, config.m, config.seed, config.parts)
        tiles = _plan_cells(plan, params, config.part)
    if config.dedup:
        from .postprocess import DEDUP_BYTES_PER_EDGE, dedup_stream

        held = config.m if tiles is None else int(tiles.count.sum())
        need, have = held * DEDUP_BYTES_PER_EDGE, _physical_memory()
        if need > have:
            raise DedupTooLarge(
                f"--dedup holds every edge, about {need} bytes for {held} edges, "
                f"more than the {have} bytes of physical memory; lower -m"
                + ("" if tiles is None else " or run more --parts")
            )
    t1 = time.perf_counter()
    table = _build_table(config, params)
    t0 += time.perf_counter() - t1

    if tiles is not None:
        units = generate_part_stream(plan, params, table, config.part, config.threads, tiles)
    else:
        units = generate_stream(GenConfig(params=params, table=table, edge_count=config.m,
                                          seed=config.seed, threads=config.threads))
    if config.undirected:
        from .postprocess import to_undirected

        units = ((to_undirected(e), used) for e, used in units)
    if config.dedup:
        units = dedup_stream(units, held, config.k, config.k)
    if config.scramble:
        from .postprocess import make_scramble_key, scramble_edges

        key = make_scramble_key(config.seed, config.k)
        units = ((scramble_edges(e, key), used) for e, used in units)
    samples = written = write_s = 0

    def drain(f) -> None:
        nonlocal written, samples, write_s
        for edges, used in units:
            written += len(edges)
            samples += used
            if f is not None:
                t1 = time.perf_counter()
                _append_edges(f, config.fmt, edges)
                write_s += time.perf_counter() - t1

    if config.fmt == "none":
        drain(None)
    else:
        _write_file(config.out, drain)
    elapsed = max(time.perf_counter() - t0 - write_s, 1e-9)
    generated = held if config.dedup else written  # undirected and scramble keep every edge
    print(
        f"edges={written} seconds={elapsed:.3f} "
        f"edges_per_sec={generated / elapsed:.0f} samples={samples} "
        f"samples_per_edge={samples / max(generated, 1):.4f} "
        f"write_seconds={write_s:.3f}"
    )
    return 0


def run_verify(config: RunConfig) -> int:
    from .stats import (
        MAX_ENUM_K,
        MIN_EXPECTED,
        _cells,
        chi_square,
        exact_cell_probs,
        pool_small_cells,
    )

    params = validate(config.a, config.b, config.c, config.d, config.k)
    if config.k > MAX_ENUM_K:
        raise InvalidConfig(f"verify enumerates 4^k cells; k must be <= {MAX_ENUM_K}")
    table = _build_table(config, params)
    if config.noise:
        # Inject a controlled table defect; verify should then report fail.
        table = perturb_table(table, config.noise, config.seed)
    gen_config = GenConfig(params=params, table=table, edge_count=config.m,
                           seed=config.seed, threads=config.threads)
    # np.add.at per unit keeps memory flat in -m at O(unit) work, not a bincount's O(4^k).
    counts = np.zeros(4**config.k, dtype=np.int64)
    for edges, _ in generate_stream(gen_config):
        np.add.at(counts, _cells(edges, config.k), 1)
    probs = exact_cell_probs(params, config.k)
    if config.m * float(probs.min()) < MIN_EXPECTED:
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
    p.add_argument("--depth-cap", type=int, dest="depth_cap",
                   help="maximum fragment depth for variable tables "
                        f"(default: {DEFAULT_DEPTH_CAP})")


def _add_threads_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=1,
                   help="threads filling edge blocks or tile batches, at most one "
                        "per core (default: 1)")


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
    """Run one command and return its exit code.

    Called without argv, as the `rmat` script and `python -m rmatgen.cli`
    call it, it reads sys.argv, and the process ends here once stdout and
    stderr are flushed: os._exit skips the interpreter's teardown, which
    frees every module and object one by one for nothing.  Usage errors
    still exit 2 through argparse's SystemExit.
    """
    code = _run(argv)
    if argv is None:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    return code


def _run(argv: list[str] | None) -> int:
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
    main()
