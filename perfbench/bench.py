"""End-to-end runs of `rmat generate` and the traced run; see run.py."""

from __future__ import annotations

import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from rmatgen import default_plan, naive_edges, plan_tiles, validate

from checker import Expect, RunRecord, check_output, digest, failed_runs
from replay import build_table, traced_replay
from workloads import cli_argv, run_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The `rmat` console script, spelled out so the checkout's source is used.
ENTRY = "import sys; from rmatgen.cli import main; sys.exit(main())"
#: Every workload runs the CLI at least this often, however short --seconds is.
MIN_RUNS = 3
#: naive_edges timing, the base of generator.vs_naive.
NAIVE_EDGES = 1 << 19
NAIVE_REPS = 3
CHILD_TIMEOUT = 120.0
#: Size of the calibration kernel's parts.  On the 2-core host used to
#: build this benchmark the numpy import takes about 0.2 s, the others
#: 0.01-0.08 s each.
CAL_LOOP = 400_000
CAL_WORDS = 1 << 21
CAL_PAIRS = 1 << 15
CAL_LINES = 1 << 15


def host_record(naive_rate: float) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    llc = "unknown"
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in caches.glob("index*")]
        llc = max(levels)[1] if levels else llc
    except (OSError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "llc_size": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "naive_edges_per_s": naive_rate,
        "naive_edges": NAIVE_EDGES,
    }


def naive_rate(rc) -> float:
    """Median naive_edges rate at the workload's k and quadrants."""
    params = validate(rc.a, rc.b, rc.c, rc.d, rc.k)
    times = []
    for _ in range(NAIVE_REPS):
        t0 = time.perf_counter()
        naive_edges(params, rc.k, NAIVE_EDGES, rc.seed)
        times.append(time.perf_counter() - t0)
    return NAIVE_EDGES / statistics.median(times)


def calibrate() -> float:
    """Seconds this host takes for a fixed mix of the program's kinds of work.

    The shared host's speed drifts by tens of percent within seconds and
    over minutes.  Timed before and after every CLI run, this kernel
    tracks that drift: a CLI wall divided by the kernel's mean time around
    it varies far less between runs than the wall itself.  Its parts stand
    for what the workloads spend their time on: a fresh interpreter
    importing numpy (every CLI run starts so), interpreter loops (per-tile
    emission), bulk random draws and sorts (emission, scramble), sorting
    structured rows (dedup) and `np.savetxt` formatting (the text write).
    It runs only Python and numpy, never rmatgen, so a change to the
    program cannot move it.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    tally: dict[int, int] = {}
    for i in range(CAL_LOOP):
        tally[i & 1023] = tally.get(i & 1023, 0) + i
    words = np.random.Philox(0).random_raw(CAL_WORDS)
    np.sort(words)
    pairs = (words[:CAL_PAIRS * 2] >> np.uint64(44)).reshape(-1, 2)
    np.unique(pairs.view([("u", "<u8"), ("v", "<u8")]).ravel(), return_index=True)
    np.savetxt(io.StringIO(), pairs[:CAL_LINES], fmt="%d")
    return time.perf_counter() - t0


def setup_once(rc):
    """Time the work before the first edge: table build, plus plan_tiles when tiled."""
    params = validate(rc.a, rc.b, rc.c, rc.d, rc.k)
    t0 = time.perf_counter()
    build_table(rc, params)
    plan = tiles = None
    if rc.tiles is not None:
        plan = default_plan(rc.k, rc.tiles, rc.m, rc.seed, rc.parts)
        tiles = plan_tiles(plan, params, rc.part)
    return time.perf_counter() - t0, plan, tiles


def expectations(rc, plan, tiles):
    """What the checker demands of this configuration's output."""
    if rc.tiles is not None:
        return Expect(edges=sum(t.count for t in tiles), tile_rows=plan.owner_rows[rc.part])
    plain = not (rc.undirected or rc.scramble or rc.dedup)
    return Expect(edges=None if rc.dedup else rc.m, chi_square=plain, distinct=rc.dedup)


def spawn_cli(argv: list[str], log: Path) -> tuple[int, float, float, str]:
    """Run `rmat <argv>` in a fresh interpreter: (exit code, wall s, peak RSS MB, stdout)."""
    env = dict(os.environ)
    env.pop("RMAT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    launched = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), str(CHILD_TIMEOUT), str(log),
         sys.executable, "-c", ENTRY, *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    )
    r = json.loads(launched.stdout)
    return r["exit_code"], r["wall_s"], r["peak_rss_mb"], log.read_text(errors="replace")


def cli_run(w, rc, expect, work: Path, checked: dict):
    """One checked CLI run: (RunRecord, wall s, peak RSS MB).

    checked maps (digest, reported count) to the problems found, so output
    bytes already checked in this run are not checked again.
    """
    out = work / f"cli.{w.fmt}"
    code, wall, rss, stdout = spawn_cli(cli_argv(w, rc.seed, str(out)), work / "cli.log")
    record = RunRecord(exit_code=code, digest=None)
    if code == 0:
        found = re.search(r"^edges=(\d+) ", stdout, re.M)
        reported = int(found.group(1)) if found else None
        raw = out.read_bytes()
        record.digest = digest(raw)
        key = (record.digest, reported)
        if key not in checked:
            checked[key] = check_output(rc, raw, reported, expect)
        record.problems = list(checked[key])
        del raw
    else:
        record.problems = [stdout.strip()[-500:]]
    out.unlink(missing_ok=True)
    return record, wall, rss


def end_to_end(w, seed: int, seconds: int, work: Path) -> dict:
    rc = run_config(w, seed)
    setup_s, plan, tiles = setup_once(rc)
    expect = expectations(rc, plan, tiles)
    generated = expect.edges if expect.edges is not None else rc.m
    host = host_record(naive_rate(rc))

    # One set-up per CLI run, so both sample the same stretch of host load.
    # The calibration kernel runs before the first CLI run and after every
    # one, so cals[i] and cals[i + 1] bracket run i.
    calibrate()  # warm-up: the first call pays page faults the rest do not
    setups, records, walls, rss, checked = [setup_s], [], [], [], {}
    cals = [calibrate()]
    t_end = time.perf_counter() + seconds
    while len(records) < MIN_RUNS or time.perf_counter() < t_end:
        setups.append(setup_once(rc)[0])
        record, wall, peak = cli_run(w, rc, expect, work, checked)
        records.append(record)
        walls.append(wall)
        rss.append(peak)
        cals.append(calibrate())
    failures = failed_runs(records)
    around = [(a + b) / 2 for a, b in zip(cals, cals[1:])]
    metrics = {
        "edges_per_cal": statistics.median(generated * c / s for s, c in zip(walls, around)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    return {
        "workload": w.name, "seed": seed, "trace": 0, "host": host,
        "argv": ["rmat", *cli_argv(w, seed, "OUT")], "generated_edges": generated,
        "runs": [{"wall_s": s, "cal_s": c, "peak_rss_mb": r, **vars(rec)}
                 for s, c, r, rec in zip(walls, around, rss, records)],
        "setup_reps_s": setups, "cal_reps_s": cals,
        "failures": failures, "attempted": len(records), "failed": len(failures),
        "metrics": metrics,
        "unscaled": {"edges_per_s": (statistics.median(generated / s for s in walls), "edges/s"),
                     "cal_s": (statistics.median(cals), "s")},
    }


def traced(w, seed: int, work: Path) -> dict:
    rc = run_config(w, seed)
    _, plan, tiles = setup_once(rc)
    expect = expectations(rc, plan, tiles)
    rate = naive_rate(rc)
    # Untraced CLI runs before and after the replay bracket its host load.
    checked: dict = {}
    first, wall0, _ = cli_run(w, rc, expect, work, checked)
    replay = traced_replay(w, seed, work, rate)
    second, wall1, _ = cli_run(w, rc, expect, work, checked)
    metrics = dict(replay.metrics)
    metrics["cli.overhead_s"] = (wall0 + wall1) / 2 - replay.layers_s
    failures = failed_runs([first, second])
    problems = list(replay.problems)
    if replay.digest != first.digest:
        problems.append("replay digest differs from the CLI run's")
    if problems:
        failures.append((2, "; ".join(problems)))
    return {
        "workload": w.name, "seed": seed, "trace": 1, "host": host_record(rate),
        "argv": ["rmat", *cli_argv(w, seed, "OUT")], "cli_walls_s": [wall0, wall1],
        "cli_runs": [vars(first), vars(second)], "replay_digest": replay.digest,
        "failures": failures, "attempted": 3, "failed": len(failures),
        "metrics": metrics, "trace_spans": replay.spans,
    }
