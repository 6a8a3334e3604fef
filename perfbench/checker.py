"""Output checks for `rmat generate` runs, and the tally behind error_rate.

`check_output` inspects one output file's bytes and returns the problems
it found; an empty list means the output passed.  `failed_runs` turns a
workload's runs into failures: a run fails when it exits non-zero, when
its output check finds a problem, or when its output digest differs from
the digest most of its runs produced.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from rmatgen import chi_square, exact_cell_probs, pool_small_cells, validate
from rmatgen.cli import RunConfig

#: Top recursion levels whose 4^L cell histogram is chi-squared on bulk runs.
CHI_LEVELS = 4
#: Significance of that test.  Each seed is tested once, so a strict level
#: keeps false alarms out of error_rate while a biased kernel still fails:
#: 8.4 M edges resolve cell frequencies to well under 1%.
CHI_ALPHA = 1e-6


@dataclass(frozen=True)
class Expect:
    """What a workload's output must satisfy beyond ids below 2^k."""

    edges: int | None = None  # generated count, when postprocessing keeps all
    chi_square: bool = False
    tile_rows: tuple[int, int] | None = None  # half-open range of owned tile rows
    distinct: bool = False


@dataclass
class RunRecord:
    exit_code: int
    digest: str | None
    problems: list[str] = field(default_factory=list)


def digest(raw) -> str:
    """blake2b of a bytes-like object, e.g. file bytes or a contiguous array."""
    return hashlib.blake2b(raw).hexdigest()


def parse_edges(raw: bytes, fmt: str) -> np.ndarray:
    if fmt == "binary":
        return np.frombuffer(raw, dtype="<u8").reshape(-1, 2)
    return np.array(raw.split(), dtype=np.uint64).reshape(-1, 2)


def check_output(
    rc: RunConfig, raw: bytes, reported: int | None, expect: Expect
) -> list[str]:
    """Problems found in one output; `reported` is the CLI's edges= count."""
    if reported is None:
        return ["no edges= count in the CLI summary line"]
    if rc.fmt == "binary":
        if len(raw) != 16 * reported:
            return [f"{len(raw)} bytes for {reported} edges"]
    else:
        lines = raw.count(b"\n")
        if lines != reported:
            return [f"{lines} lines for {reported} edges"]
        if len(raw.split()) != 2 * lines:
            return ["a line does not hold exactly two ids"]
    try:
        edges = parse_edges(raw, rc.fmt)
    except (ValueError, OverflowError) as exc:
        return [f"unparsable id: {exc}"]
    problems = []
    if expect.edges is not None and reported != expect.edges:
        problems.append(f"{reported} edges, expected {expect.edges}")
    if len(edges) and int(edges.max()) >> rc.k:
        problems.append(f"id {int(edges.max())} is not below 2^{rc.k}")
        return problems

    if expect.chi_square:
        shift = np.uint64(rc.k - CHI_LEVELS)
        cells = ((edges[:, 0] >> shift) << np.uint64(CHI_LEVELS)) | (edges[:, 1] >> shift)
        counts = np.bincount(cells.astype(np.intp), minlength=4**CHI_LEVELS)
        probs = exact_cell_probs(validate(rc.a, rc.b, rc.c, rc.d, CHI_LEVELS), CHI_LEVELS)
        if len(edges) * float(probs.min()) < 5.0:
            probs, counts = pool_small_cells(probs, counts)
        result = chi_square(counts, probs, alpha=CHI_ALPHA)
        if not result.passed:
            problems.append(
                f"top-{CHI_LEVELS}-level chi-square {result.statistic:.1f} "
                f">= {result.threshold:.1f} (dof {result.dof})"
            )
    if expect.tile_rows is not None:
        lo, hi = expect.tile_rows
        rows = edges[:, 0] >> np.uint64(rc.k - rc.tiles)
        if len(rows) and (int(rows.min()) < lo or int(rows.max()) >= hi):
            problems.append(f"an edge lies outside tile rows [{lo}, {hi})")
    if expect.distinct:
        keys = np.unique(edges, axis=0) if 2 * rc.k > 64 else np.unique(
            (edges[:, 0] << np.uint64(rc.k)) | edges[:, 1]
        )
        if len(keys) != len(edges):
            problems.append(f"{len(edges) - len(keys)} repeated rows")
    return problems


def failed_runs(records: list[RunRecord]) -> list[tuple[int, str]]:
    """(run index, reason) for every failed run of one workload and seed."""
    digests = Counter(r.digest for r in records if r.digest is not None)
    majority = digests.most_common(1)[0][0] if digests else None
    failures = []
    for i, r in enumerate(records):
        if r.exit_code != 0:
            failures.append((i, "; ".join([f"exit code {r.exit_code}", *r.problems])))
        elif r.problems:
            failures.append((i, "; ".join(r.problems)))
        elif r.digest != majority:
            failures.append((i, "output digest differs from the other runs"))
    return failures
