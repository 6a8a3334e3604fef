"""Shared fixtures and the acceptance-criterion reporting hook."""

import functools
import sys

import numpy as np
import pytest

from rmatgen import build_fixed_table, build_variable_table, validate

UNIFORM = (0.25, 0.25, 0.25, 0.25)
SKEWED = (0.9, 0.025, 0.025, 0.05)

# Criterion results collected by tests/test_acceptance.py; printed as one
# line each in the terminal summary so every run shows the full scorecard.
_criterion_lines: list[tuple[int, str]] = []


def record_criterion(number: int, passed: bool, detail: str, skipped: bool = False) -> None:
    status = "SKIP" if skipped else ("PASS" if passed else "FAIL")
    _criterion_lines.append((number, f"CRITERION {number}: {status} - {detail}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_criterion_lines):
            terminalreporter.write_line(line)


@functools.lru_cache(maxsize=None)
def params_for(quads: tuple, k: int):
    return validate(*quads, k)


@functools.lru_cache(maxsize=None)
def fixed_table(quads: tuple, k: int, depth: int):
    return build_fixed_table(params_for(quads, k), depth)


@functools.lru_cache(maxsize=None)
def variable_table(quads: tuple, k: int, size: int):
    return build_variable_table(params_for(quads, k), size)


def alias_sample(table, uniform_draw):
    """Resolve one draw (index_part, fraction_part) of an alias table to an entry index.

    The float form of the kernels' integer `_select`, for the scalar
    reference emitter and the alias tests.  Accepts scalars or
    equal-shaped arrays and is branch-free either way: returns index_part
    where fraction_part < threshold[index_part], else alias[index_part].
    """
    idx, frac = uniform_draw
    idx = np.asarray(idx, dtype=np.int64)
    out = np.where(np.asarray(frac) < table.threshold[idx], idx, table.alias[idx])
    if out.ndim == 0:
        return int(out)
    return out


@pytest.fixture(scope="session")
def g500_k4():
    return params_for((0.57, 0.19, 0.19, 0.05), 4)


@pytest.fixture(scope="session")
def g500_k20():
    return params_for((0.57, 0.19, 0.19, 0.05), 20)


def spy_dedup_sorts(monkeypatch) -> list[str]:
    """Names of the np.argsort / np.lexsort calls rmatgen.postprocess makes from here on.

    Its packed branch sorts keys in place with ndarray.sort and calls neither.
    """
    calls = []
    for name in ("argsort", "lexsort"):
        def spy(*a, _real=getattr(np, name), _name=name, **kw):
            if sys._getframe(1).f_globals["__name__"] == "rmatgen.postprocess":
                calls.append(_name)
            return _real(*a, **kw)

        monkeypatch.setattr(np, name, spy)
    return calls
