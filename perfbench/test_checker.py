"""Self-tests of the output checker: corrupted outputs must count as failed runs.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rmatgen import naive_edges, validate  # noqa: E402
from rmatgen.cli import main  # noqa: E402

from checker import Expect, RunRecord, check_output, digest, failed_runs  # noqa: E402
from workloads import WORKLOADS, cli_argv, run_config  # noqa: E402

SEED = 5
#: Small edge counts keep each CLI run well under a second.
SMALL_M = 200_000


def small_run(tmp_path: Path, name: str):
    """Run a workload's command line at SMALL_M edges through the real CLI."""
    args = list(WORKLOADS[name].args)
    args[args.index("-m") + 1] = str(SMALL_M)
    w = dataclasses.replace(WORKLOADS[name], args=tuple(args))
    out = tmp_path / f"out.{w.fmt}"
    assert main(cli_argv(w, SEED, str(out))) == 0
    return run_config(w, SEED), out.read_bytes()


def reported(raw: bytes, fmt: str) -> int:
    return len(raw) // 16 if fmt == "binary" else raw.count(b"\n")


def tally(rc, outputs: list[bytes], expect: Expect) -> int:
    records = [RunRecord(0, digest(raw), check_output(rc, raw, reported(raw, rc.fmt), expect))
               for raw in outputs]
    return len(failed_runs(records))


def test_id_at_two_to_the_k_counts_as_failed(tmp_path):
    rc, raw = small_run(tmp_path, "bulk-var")
    expect = Expect(edges=SMALL_M, chi_square=True)
    assert check_output(rc, raw, SMALL_M, expect) == []
    edges = np.frombuffer(raw, dtype="<u8").copy()
    edges[12345] = 1 << rc.k
    bad = edges.tobytes()
    assert any("not below 2^20" in p for p in check_output(rc, bad, SMALL_M, expect))
    assert tally(rc, [raw, raw, bad], expect) == 1


def test_repeated_row_in_dedup_text_counts_as_failed(tmp_path):
    rc, raw = small_run(tmp_path, "dedup-text")
    expect = Expect(distinct=True)
    lines = raw.splitlines(keepends=True)
    assert check_output(rc, raw, len(lines), expect) == []
    bad = b"".join(lines[:-1] + [lines[0]])
    assert any("repeated" in p for p in check_output(rc, bad, len(lines), expect))
    assert tally(rc, [raw, bad, raw], expect) == 1


def test_wrong_model_fails_chi_square(tmp_path):
    rc, _ = small_run(tmp_path, "bulk-var")
    uniform = validate(0.25, 0.25, 0.25, 0.25, rc.k)
    raw = naive_edges(uniform, rc.k, SMALL_M, SEED).astype("<u8").tobytes()
    problems = check_output(rc, raw, SMALL_M, Expect(edges=SMALL_M, chi_square=True))
    assert any("chi-square" in p for p in problems)


def test_digest_outlier_and_exit_code_count_as_failed():
    records = [RunRecord(0, "a"), RunRecord(0, "b"), RunRecord(0, "a"), RunRecord(2, None)]
    assert [i for i, _ in failed_runs(records)] == [1, 3]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_parse_with_the_cli_parser(name):
    rc = run_config(WORKLOADS[name], SEED)
    assert rc.seed == SEED and rc.fmt == WORKLOADS[name].fmt
