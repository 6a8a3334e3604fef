"""The benchmark's workloads: `rmat generate` command lines and their configs.

Each workload is one fixed command line; the seed is its only input that
varies.  The same argument list drives the child process of an end-to-end
run and, parsed by the CLI's own parser, the traced replay, so both always
agree on table size, depth cap and every other default the CLI fills in.
"""

from __future__ import annotations

from dataclasses import dataclass

from rmatgen.cli import RunConfig, build_parser, config_from_args


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # `generate` options other than --seed, --format and -o
    fmt: str  # binary | text
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bulk-var",
            ("-k", "20", "-m", "8388608"),
            "binary",
            "Graph500-shaped bulk run on the default variable table; the general "
            "emission kernel is about 90% of the wall",
        ),
        Workload(
            "tiled-part",
            ("-k", "20", "-m", "4194304", "--tiles", "8", "--parts", "4", "--part", "0"),
            "binary",
            "communication-free path: part 0 of 4 owns 16384 tiles, so per-tile "
            "overhead and plan_tiles dominate",
        ),
        Workload(
            "dedup-text",
            ("-k", "16", "-m", "1000000", "--table", "fixed", "--depth", "8",
             "--undirected", "--scramble", "--dedup"),
            "text",
            "fixed table and text output: dedup and the text write dominate, "
            "emission is small",
        ),
    )
}


def cli_argv(w: Workload, seed: int, out: str | None) -> list[str]:
    """Arguments after `rmat`; out=None selects the --format none dry run."""
    tail = ["--format", "none"] if out is None else ["--format", w.fmt, "-o", out]
    return ["generate", *w.args, "--seed", str(seed), *tail]


def run_config(w: Workload, seed: int) -> RunConfig:
    """The validated configuration the CLI resolves the workload to."""
    return config_from_args(build_parser().parse_args(cli_argv(w, seed, "-")))
