import concurrent.futures
import hashlib
import io
import os
import re
import stat
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from rmatgen import (
    DEFAULT_BLOCK_SIZE,
    GRAPH500,
    GenConfig,
    build_variable_table,
    dedup_local,
    default_plan,
    dump_table,
    generate_part,
    generate_result,
    make_scramble_key,
    plan_tiles,
    scramble_edges,
    to_undirected,
    validate,
)
import rmatgen.cli as cli_mod
import rmatgen.generator as generator
import rmatgen.partition as partition_mod
import rmatgen.postprocess as postprocess_mod
import rmatgen
from rmatgen.cli import _write_file, main
from conftest import SKEWED, spy_dedup_sorts

#: Commands each -o test runs, with a small output.
SMALL_OUTPUTS = [["generate", "-k", "8", "-m", "10"],
                 ["table-dump", "-k", "4", "--table", "fixed", "--depth", "2"]]

SUMMARY_RE = re.compile(
    r"edges=(\d+) seconds=\d+\.\d{3} edges_per_sec=\d+ "
    r"samples=(\d+) samples_per_edge=\d+\.\d{4}"
)
VERIFY_RE = re.compile(
    r"statistic=\d+\.\d{6} dof=(\d+) threshold=\d+\.\d{6} verdict=(pass|fail)"
)


def read_binary(path):
    return np.fromfile(path, dtype="<u8").reshape(-1, 2)


def gen(tmp_path, name, *extra):
    path = tmp_path / name
    rc = main(["generate", "-k", "8", "-m", "1000", "--seed", "5",
               "-o", str(path), *extra])
    assert rc == 0
    return path


# ------------------------------------------------------------------ generate


def test_generate_binary_file_and_summary(tmp_path, capsys):
    path = gen(tmp_path, "edges.bin")
    assert os.path.getsize(path) == 1000 * 16
    out = capsys.readouterr().out
    match = SUMMARY_RE.search(out)
    assert match and match.group(1) == "1000"
    assert re.search(r"samples_per_edge=\d+\.\d{4} write_seconds=\d+\.\d{3}\n$", out)


def test_generate_binary_deterministic(tmp_path):
    a = gen(tmp_path, "a.bin")
    b = gen(tmp_path, "b.bin")
    assert a.read_bytes() == b.read_bytes()


def test_generate_text_matches_binary(tmp_path):
    binary = gen(tmp_path, "e.bin")
    text = gen(tmp_path, "e.txt", "--format", "text")
    from_text = np.loadtxt(text, dtype=np.uint64).reshape(-1, 2)
    assert np.array_equal(from_text, read_binary(binary))


def savetxt_bytes(edges):
    buf = io.BytesIO()
    np.savetxt(buf, edges, fmt="%d")
    return buf.getvalue()


def decimal_boundaries():
    vals = [v for j in range(1, 19) for v in (10**j - 1, 10**j)] + [0, 2**64 - 1]
    vals = np.array(vals, dtype=np.uint64)
    return np.stack([vals, vals[::-1]], axis=1)


def mixed_widths(rows):
    # Ids of 1 to 12 digits; the widest sits in the last row, so the last
    # block is wider than the ones before it.
    rng = np.random.default_rng(rows)
    edges = rng.integers(0, 10 ** rng.integers(1, 12, size=(rows, 2)), dtype=np.uint64)
    edges[-1, 1] = 10**12 - 1
    return edges


TEXT_CASES = {
    "one_row": np.array([[3, 14]], dtype=np.uint64),
    **{
        f"pow2_k{k}": np.array([[0, 2**k - 1], [2**k - 1, 0], [2**k - 1, 2**k - 1]],
                               dtype=np.uint64)
        for k in (1, 16, 32, 33, 62)
    },
    "decimal_boundaries": decimal_boundaries(),
    **{f"rows_block{d:+d}": mixed_widths(DEFAULT_BLOCK_SIZE + d) for d in (-1, 0, 1)},
}


@pytest.mark.parametrize("name", TEXT_CASES)
def test_text_write_matches_savetxt(tmp_path, name):
    edges = TEXT_CASES[name]
    path = tmp_path / "e.txt"
    _write_file(str(path), lambda f: cli_mod._append_edges(f, "text", edges))
    assert path.read_bytes() == savetxt_bytes(edges)


def test_text_write_empty_is_zero_bytes(tmp_path):
    path = tmp_path / "e.txt"
    empty = np.empty((0, 2), dtype=np.uint64)
    _write_file(str(path), lambda f: cli_mod._append_edges(f, "text", empty))
    assert path.read_bytes() == b"" == savetxt_bytes(empty)
    rc = main(["generate", "-k", "4", "-m", "0", "--dedup", "--format", "text",
               "-o", str(tmp_path / "m0.txt")])
    assert rc == 0
    assert (tmp_path / "m0.txt").read_bytes() == b""


def test_generate_text_bytes_pinned(tmp_path):
    # Digest of the output written before dedup and the text write were
    # vectorized; undirected, scramble and dedup all feed into it.
    path = tmp_path / "pin.txt"
    rc = main(["generate", "-k", "16", "-m", "20000", "--table", "fixed", "--depth", "8",
               "--undirected", "--scramble", "--dedup", "--format", "text", "-o", str(path)])
    assert rc == 0
    got = hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
    assert got == "0179ef54f79bb5a58d0db2c1f7ea4834"


def test_generate_format_none_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["generate", "-k", "6", "-m", "100", "--format", "none"])
    assert rc == 0
    assert SUMMARY_RE.search(capsys.readouterr().out)
    assert list(tmp_path.iterdir()) == []


def test_generate_undirected_canonicalizes(tmp_path):
    path = gen(tmp_path, "u.bin", "--undirected")
    edges = read_binary(path)
    assert np.all(edges[:, 0] >= edges[:, 1])


def test_generate_undirected_warns_on_asymmetric_model(capsys):
    rc = main(["generate", "-k", "4", "-m", "10", "--format", "none",
               "-a", "0.5", "-b", "0.3", "-c", "0.1", "-d", "0.1",
               "--undirected"])
    assert rc == 0
    assert "mirroring" in capsys.readouterr().err


def test_generate_dedup_drops_duplicates(tmp_path, capsys):
    path = tmp_path / "d.bin"
    rc = main(["generate", "-k", "4", "-m", "5000", "--seed", "3",
               "--dedup", "-o", str(path)])
    assert rc == 0
    edges = read_binary(path)
    assert len(edges) < 5000  # 256 cells cannot hold 5000 distinct edges
    cells = (edges[:, 0] << np.uint64(4)) | edges[:, 1]
    assert len(np.unique(cells)) == len(cells)
    match = SUMMARY_RE.search(capsys.readouterr().out)
    assert int(match.group(1)) == len(edges)


def test_generate_scramble_permutes_ids(tmp_path):
    plain = read_binary(gen(tmp_path, "p.bin"))
    scrambled = read_binary(gen(tmp_path, "s.bin", "--scramble"))
    assert len(scrambled) == len(plain)
    assert int(scrambled.max()) < 1 << 8
    assert not np.array_equal(scrambled, plain)


def test_generate_partitioned_parts_sum_to_whole(tmp_path):
    whole = gen(tmp_path, "w.bin", "--tiles", "2")
    pieces = []
    for i in range(4):
        path = gen(tmp_path, f"part{i}.bin", "--tiles", "2",
                   "--parts", "4", "--part", str(i))
        pieces.append(read_binary(path))
    merged = np.concatenate(pieces)
    assert len(merged) == 1000
    pack = lambda e: np.sort((e[:, 0] << np.uint64(8)) | e[:, 1])
    assert np.array_equal(pack(merged), pack(read_binary(whole)))


def test_generate_part_without_rows_at_t0_writes_nothing(tmp_path, capsys):
    # One tile row for two parts: part 1 owns none, so it makes no edge.
    rc = main(["generate", "-k", "20", "-m", "100", "--tiles", "0", "--parts", "2",
               "--part", "1", "-o", str(tmp_path / "x.bin")])
    assert rc == 0
    assert SUMMARY_RE.search(capsys.readouterr().out).groups() == ("0", "0")
    assert (tmp_path / "x.bin").read_bytes() == b""


def test_generate_thread_count_does_not_change_output(tmp_path):
    one = gen(tmp_path, "t1.bin", "--threads", "1")
    four = gen(tmp_path, "t4.bin", "--threads", "4")
    assert one.read_bytes() == four.read_bytes()


def test_generate_tiled_thread_count_does_not_change_output(tmp_path, capsys, monkeypatch):
    # Part 1 of this plan holds about 144k edges in 3 tile batches, and
    # reporting 2 cores lets a 1-core host run 2 threads too.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pools = []

    class Recorder(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    runs = []
    for threads in ("1", "2"):
        path = tmp_path / f"t{threads}.bin"
        rc = main(["generate", "-k", "12", "-m", "600000", "--seed", "5", "--tiles", "3",
                   "--parts", "2", "--part", "1", "--threads", threads, "-o", str(path)])
        assert rc == 0
        samples = SUMMARY_RE.search(capsys.readouterr().out).group(2)
        runs.append((path.read_bytes(), samples))
    assert pools == [2]
    assert len(runs[0][0]) > 2 * DEFAULT_BLOCK_SIZE * 16
    assert runs[0] == runs[1]


# -------------------------------------------------------------------- verify


def test_verify_passes_on_healthy_table(capsys):
    rc = main(["verify", "-k", "4", "-m", "200000", "--seed", "9",
               "--size", "1021"])
    out = capsys.readouterr().out
    match = VERIFY_RE.search(out)
    assert rc == 0 and match and match.group(2) == "pass"


def test_verify_fails_on_perturbed_table(capsys):
    rc = main(["verify", "-k", "4", "-m", "200000", "--seed", "9",
               "--size", "1021", "--noise", "0.5"])
    match = VERIFY_RE.search(capsys.readouterr().out)
    assert rc == 1 and match and match.group(2) == "fail"


def test_verify_rejects_out_of_range_noise(capsys):
    rc = main(["verify", "-k", "4", "-m", "1000", "--noise", "1.5"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_verify_perturbed_table_keeps_its_model(capsys):
    # perturb_table carries the table's model over, so verify's verdict is
    # a fail (exit 1), not a model mismatch (exit 2).
    rc = main(["verify", "-k", "4", "-m", "200000", "--seed", "9",
               "--size", "1021", "--noise", "0.3"])
    match = VERIFY_RE.search(capsys.readouterr().out)
    assert rc == 1 and match and match.group(2) == "fail"


def test_verify_without_edges_exits_2(capsys):
    assert main(["verify", "-k", "4", "-m", "0"]) == 2
    assert "pooling all 256 cells still cannot reach 5.0 expected" in capsys.readouterr().err


def test_verify_peak_memory_flat_in_m(capsys):
    # verify sums one histogram unit by unit: 16 blocks must peak within
    # 1.25x of 4 blocks.
    peaks = [traced_peak(["verify", "-k", "4", "-m", str(n * DEFAULT_BLOCK_SIZE),
                          "--threads", "1"]) for n in (4, 16)]
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_verify_rejects_unenumerable_k(capsys):
    rc = main(["verify", "-k", "20", "-m", "1000"])
    assert rc == 2
    assert "k must be" in capsys.readouterr().err


# --------------------------------------------------------------- table dump


def test_table_dump_matches_library(capsys):
    rc = main(["table-dump", "-k", "4", "--size", "253"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    table = build_variable_table(validate(0.57, 0.19, 0.19, 0.05, 4), 253)
    assert out == list(dump_table(table))


# ------------------------------------------------------------ configuration


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "-k", "4", "-m", "10", "--format", "none", "--table", "fixed"],
        ["generate", "-k", "4", "-m", "10", "--format", "none", "--depth", "3"],
        ["generate", "-k", "4", "-m", "10", "--format", "none",
         "--table", "fixed", "--depth", "2", "--size", "100"],
        ["generate", "-k", "4", "-m", "10", "--format", "none",
         "--tiles", "2", "--part", "0"],
        ["generate", "-k", "4", "-m", "10", "--format", "none", "--parts", "2"],
        ["generate", "-k", "4", "-m", "10", "--format", "none",
         "--tiles", "1", "--parts", "2", "--part", "5"],
        ["generate", "-k", "4", "-m", "10", "--format", "none",
         "--tiles", "1", "--parts", "0"],
        ["generate", "-k", "4", "-m", "10", "--format", "none", "--threads", "0"],
        ["generate", "-k", "4", "-m", "-1", "--format", "none"],
        ["generate", "-k", "0", "-m", "10", "--format", "none"],
        ["generate", "-k", "63", "-m", "10", "--format", "none"],
        ["generate", "-k", "4", "-m", "10"],
        ["generate", "-k", "4", "-m", "10", "--format", "none", "-o", "x.bin"],
        ["generate", "-k", "10", "-m", "1000", "--table", "fixed", "--depth", "4",
         "--depth-cap", "3", "--format", "none"],
        ["verify", "-k", "4", "-m", "1000", "--table", "fixed", "--depth", "2",
         "--depth-cap", "3"],
    ],
)
def test_inconsistent_options_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("table", [["--table", "fixed", "--depth", "12"],
                                   ["--size", str(1 << 40)]], ids=["depth", "size"])
def test_oversized_table_exits_2_before_building(tmp_path, capsys, table):
    t0 = time.perf_counter()
    rc = main(["generate", "-k", "20", "-m", "10", *table, "-o", str(tmp_path / "x.bin")])
    assert rc == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_oversized_plan_exits_2_before_planning(tmp_path, capsys):
    t0 = time.perf_counter()
    rc = main(["generate", "-k", "30", "-m", "10", "--tiles", "16", "-o", str(tmp_path / "x.bin")])
    assert rc == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("error: plan lists")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tiles", [[], ["--tiles", "2"]], ids=["untiled", "tiled"])
def test_dedup_beyond_memory_exits_2_before_generating(tmp_path, capsys, monkeypatch, tiles):
    def unreachable(*args, **kwargs):
        raise AssertionError("generated edges")

    # Each name is patched where it lives: cli imports the tiled and dedup ones when it runs.
    for mod, name in ((cli_mod, "generate_stream"), (partition_mod, "generate_part_stream"),
                      (postprocess_mod, "dedup_stream")):
        monkeypatch.setattr(mod, name, unreachable)
    monkeypatch.setattr(cli_mod, "_physical_memory",
                        lambda: 1000 * postprocess_mod.DEDUP_BYTES_PER_EDGE - 1)
    rc = main(["generate", "-k", "8", "-m", "1000", "--dedup", *tiles, "-o", str(tmp_path / "x.bin")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --dedup holds")
    assert list(tmp_path.iterdir()) == []
    assert issubclass(cli_mod.DedupTooLarge, ValueError)


def test_dedup_within_memory_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(cli_mod, "_physical_memory",
                        lambda: 1000 * postprocess_mod.DEDUP_BYTES_PER_EDGE)
    rc = main(["generate", "-k", "8", "-m", "1000", "--dedup", "-o", str(tmp_path / "x.bin")])
    assert rc == 0
    assert 0 < len(read_binary(tmp_path / "x.bin")) <= 1000


@pytest.mark.parametrize("spare,rc", [(0, 0), (-1, 2)], ids=["fits", "short"])
def test_dedup_bound_counts_the_part_edges(tmp_path, capsys, monkeypatch, spare, rc):
    # Part 1 of 2 holds the bottom tile row, about a quarter of -m.  Memory
    # for its edges but not for all -m is enough, and the part is planned once.
    argv = ["-k", "8", "-m", "1000", "--tiles", "2", "--parts", "2", "--part", "1"]
    plan = default_plan(8, 2, 1000, 1, parts=2)
    held = sum(tc.count for tc in plan_tiles(plan, validate(*GRAPH500, k=8), 1))
    assert 0 < held < 500
    monkeypatch.setattr(cli_mod, "_physical_memory",
                        lambda: held * postprocess_mod.DEDUP_BYTES_PER_EDGE + spare)
    planned = []
    plan_cells = partition_mod._plan_cells
    monkeypatch.setattr(partition_mod, "_plan_cells",
                        lambda *a: planned.append(a) or plan_cells(*a))
    path = tmp_path / "x.bin"
    assert main(["generate", *argv, "--dedup", "-o", str(path)]) == rc
    assert len(planned) == 1
    if rc:
        assert capsys.readouterr().err.startswith("error: --dedup holds")
        assert list(tmp_path.iterdir()) == []
    else:
        assert 0 < len(read_binary(path)) <= held


def test_physical_memory_is_positive():
    assert cli_mod._physical_memory() > 0


def test_missing_required_option_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "-k", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", ["bench-tablesize", "bench-threads"])
def test_retired_sweep_is_usage_error(name, capsys):
    # A sweep is a shell loop over `generate --format none`.
    with pytest.raises(SystemExit) as exc:
        main([name, "-k", "4", "-m", "100"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["lots", "0"])
def test_threads_env_is_not_read(tmp_path, monkeypatch, value):
    # The environment sets nothing: --threads alone picks the thread count.
    explicit = gen(tmp_path, "flag.bin", "--threads", "1")
    monkeypatch.setenv("RMAT_THREADS", value)
    assert gen(tmp_path, "env.bin").read_bytes() == explicit.read_bytes()


# ----------------------------------------------------------------- file I/O


def test_write_file_leaves_no_partial_file(tmp_path):
    target = tmp_path / "out.bin"

    def body(f):
        f.write(b"partial")
        raise RuntimeError("disk on fire")

    with pytest.raises(RuntimeError):
        _write_file(str(target), body)
    assert list(tmp_path.iterdir()) == []


def test_generate_into_missing_directory_exits_2(tmp_path, capsys):
    rc = main(["generate", "-k", "4", "-m", "10",
               "-o", str(tmp_path / "no" / "such" / "dir" / "x.bin")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd", SMALL_OUTPUTS, ids=["generate", "table-dump"])
def test_output_through_a_symlink_writes_its_target(tmp_path, cmd):
    # The temp file is renamed over the link's target, so the link stays.
    target = tmp_path / "T"
    target.write_bytes(b"old bytes")
    link = tmp_path / "L"
    link.symlink_to(target)
    assert main([*cmd, "-o", str(link)]) == 0
    assert main([*cmd, "-o", str(tmp_path / "want")]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == (tmp_path / "want").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["L", "T", "want"]


@pytest.mark.parametrize("cmd", SMALL_OUTPUTS, ids=["generate", "table-dump"])
def test_output_to_a_fifo_is_written_in_place(tmp_path, cmd):
    # A FIFO is opened and written, not replaced by a renamed file.  The
    # read end is open before the run, so the run never waits for a reader.
    assert main([*cmd, "-o", str(tmp_path / "want")]) == 0
    fifo = tmp_path / "F"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    os.set_blocking(fd, True)
    got = []

    def read():
        with os.fdopen(fd, "rb") as f:
            got.append(f.read())

    assert main([*cmd, "-o", str(fifo)]) == 0
    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == [(tmp_path / "want").read_bytes()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "want"]


def _python(code, *args):
    """`python -c code args` with this package importable; its completed process."""
    src = os.path.dirname(os.path.dirname(rmatgen.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_loads_only_what_every_run_uses():
    # Tiling, postprocessing, verify's statistics and the thread pool load
    # when a run uses them; every public name resolves on first use.
    run = _python(
        "import sys, rmatgen.cli\n"
        "lazy = ('rmatgen.stats', 'rmatgen.partition', 'rmatgen.postprocess',\n"
        "        'concurrent.futures')\n"
        "print([m for m in lazy if m in sys.modules])\n"
        "import rmatgen\n"
        "names = {}\n"
        "exec('from rmatgen import *', names)\n"
        "print([n for n in rmatgen.__all__\n"
        "       if n not in names or names[n] is not getattr(rmatgen, n)])\n"
        "print(hasattr(rmatgen, 'no_such_name'))\n"
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "[]", "False"]


@pytest.mark.parametrize("argv,code,stream,text", [
    (["generate", "-k", "8", "-m", "100", "--format", "none"], 0, "stdout", "edges=100 "),
    (["verify", "-k", "4", "-m", "200000", "--seed", "9", "--size", "1021", "--noise", "0.5"],
     1, "stdout", "verdict=fail"),
    (["generate", "-k", "8", "-m", "100", "--format", "text"], 2, "stderr",
     "error: --format text requires -o PATH"),
    (["generate", "-k", "8"], 2, "stderr", "required: -m"),
], ids=["generate", "failing-verify", "bad-config", "usage"])
def test_main_without_argv_flushes_and_keeps_exit_codes(argv, code, stream, text):
    # The script entry reads sys.argv and ends the process itself; what it
    # printed still reaches the pipe.
    run = _python("from rmatgen.cli import main; main(); print('not reached')", *argv)
    assert run.returncode == code
    assert text in getattr(run, stream)
    assert "not reached" not in run.stdout


def test_main_with_argv_returns():
    run = _python("from rmatgen.cli import main\n"
                  "print('returned', main(['generate', '-k', '8', '-m', '10', '--format', 'none']),"
                  " main(['generate', '-k', '8', '-m', '10', '--format', 'text']))")
    assert run.returncode == 0
    assert run.stdout.splitlines()[-1] == "returned 0 2"


@pytest.mark.parametrize("tiles", [[], ["--tiles", "2"]], ids=["untiled", "tiled"])
def test_generate_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, tiles):
    # --dedup gathers every edge; the kernel runs out of memory while it does.
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(generator, "_emit_words", exhausted)
    rc = main(["generate", "-k", "4", "-m", "10", "--dedup", *tiles,
               "-o", str(tmp_path / "x.bin")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: out of memory")
    assert list(tmp_path.iterdir()) == []


def test_generate_streamed_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    emit = generator._emit

    def failing(comp, k, counts, streams):
        if streams.payload[0] == 0:
            raise MemoryError
        return emit(comp, k, counts, streams)

    monkeypatch.setattr(generator, "_emit", failing)
    rc = main(["generate", "-k", "4", "-m", "10", "-o", str(tmp_path / "x.bin")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: out of memory")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_generate_out_of_memory_in_a_thread_exits_2(tmp_path, capsys, monkeypatch, threads):
    # Block 3 of 5 fails, inside the thread pool at 2 threads.  At 1
    # thread blocks 0-2 are already in the temp file by then.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    emit = generator._emit

    def failing(comp, k, counts, streams):
        if streams.payload[0] == 3:
            raise MemoryError
        return emit(comp, k, counts, streams)

    monkeypatch.setattr(generator, "_emit", failing)
    rc = main(["generate", "-k", "8", "-m", str(4 * DEFAULT_BLOCK_SIZE + 1),
               "--threads", threads, "-o", str(tmp_path / "x.bin")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: out of memory")
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------- streaming


STREAM_PARAMS = validate(*GRAPH500, k=16)


def library_edges(tiles, threads, dedup):
    table = build_variable_table(STREAM_PARAMS, 8191)
    if tiles:
        plan = default_plan(16, 2, 300_000, 5)
        edges = generate_part(plan, STREAM_PARAMS, table, threads=threads)[0]
    else:
        config = GenConfig(params=STREAM_PARAMS, table=table, seed=5, threads=threads,
                           edge_count=3 * DEFAULT_BLOCK_SIZE + 123)
        edges = generate_result(config).edges
    edges = to_undirected(edges)
    if dedup:
        edges = dedup_local(edges)
    return scramble_edges(edges, make_scramble_key(5, 16))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("fmt", ["binary", "text"])
@pytest.mark.parametrize("tiles,dedup",
                         [(False, False), (True, False), (False, True), (True, True)],
                         ids=["untiled", "tiled", "untiled-dedup", "tiled-dedup"])
def test_streamed_file_matches_library_arrays(tmp_path, monkeypatch, tiles, dedup, fmt, threads):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    if tiles:  # the largest tile holds more than a block, so it is cut into pieces
        counts = [tc.count for tc in plan_tiles(default_plan(16, 2, 300_000, 5), STREAM_PARAMS)]
        assert max(counts) > DEFAULT_BLOCK_SIZE
    path = tmp_path / "e.out"
    ref = library_edges(tiles, int(threads), dedup)
    size = ["-m", "300000", "--tiles", "2"] if tiles else ["-m", str(3 * DEFAULT_BLOCK_SIZE + 123)]
    rc = main(["generate", "-k", "16", *size, "--seed", "5", "--undirected", "--scramble",
               *(["--dedup"] if dedup else []), "--threads", threads, "--format", fmt,
               "-o", str(path)])
    assert rc == 0
    want = savetxt_bytes(ref) if fmt == "text" else ref.astype("<u8").tobytes()
    assert path.read_bytes() == want


@pytest.mark.parametrize(
    "k,quads,undirected,sort",
    [
        (16, GRAPH500, False, None),  # 2k + 18 index bits fit one word
        (16, GRAPH500, True, None),
        (30, SKEWED, False, "argsort"),  # 60 key bits, but not with the index;
        (30, SKEWED, True, "argsort"),  # a skewed model repeats edges among 2^60 cells
        (40, SKEWED, True, "lexsort"),  # the edges themselves are gathered
    ],
    ids=["k16-directed", "k16-undirected", "k30-directed", "k30-undirected", "k40-undirected"],
)
@pytest.mark.parametrize("fmt", ["binary", "text"])
def test_dedup_matches_library_dedup(tmp_path, capsys, monkeypatch, k, quads, undirected,
                                     sort, fmt):
    params = validate(*quads, k=k)
    m = 3 * DEFAULT_BLOCK_SIZE + 123
    config = GenConfig(params=params, table=build_variable_table(params, 8191),
                       edge_count=m, seed=5)
    result = generate_result(config)
    edges = to_undirected(result.edges) if undirected else result.edges
    ref = scramble_edges(dedup_local(edges), make_scramble_key(5, k))
    assert len(ref) < m
    calls = spy_dedup_sorts(monkeypatch)  # not the table build's lexsort
    path = tmp_path / "d.out"
    quad_args = [arg for q, x in zip("abcd", quads) for arg in (f"-{q}", repr(x))]
    rc = main(["generate", "-k", str(k), "-m", str(m), "--seed", "5", *quad_args,
               *(["--undirected"] if undirected else []), "--scramble", "--dedup",
               "--format", fmt, "-o", str(path)])
    assert rc == 0
    assert calls == ([] if sort is None else [sort])
    want = savetxt_bytes(ref) if fmt == "text" else ref.astype("<u8").tobytes()
    assert path.read_bytes() == want
    match = SUMMARY_RE.search(capsys.readouterr().out)
    assert (int(match.group(1)), int(match.group(2))) == (len(ref), result.samples_consumed)


def traced_peak(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("extra", [[], ["--undirected", "--scramble", "--format", "text"],
                                   ["--tiles", "0"]],
                         ids=["binary", "text", "tiles0"])
def test_generate_peak_memory_flat_in_m(tmp_path, extra):
    # 16 blocks must peak within 1.25x of 4 blocks: the CLI holds a window
    # of units, not the whole edge list, also when all of it is one tile.
    peaks = []
    for n in (4, 16):
        peaks.append(traced_peak(["generate", "-k", "16", "-m", str(n * DEFAULT_BLOCK_SIZE),
                                  "--threads", "1", *extra, "-o", str(tmp_path / f"{n}.out")]))
    assert peaks[1] <= 1.25 * peaks[0], peaks
