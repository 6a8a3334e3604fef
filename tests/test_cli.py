import hashlib
import io
import os
import re

import numpy as np
import pytest

from rmatgen import DEFAULT_BLOCK_SIZE, build_variable_table, dump_table, validate
import rmatgen.cli as cli_mod
import rmatgen.generator as generator
from rmatgen.cli import _write_file, main

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
    cli_mod._write_edges(str(path), "text", edges)
    assert path.read_bytes() == savetxt_bytes(edges)


def test_text_write_empty_is_zero_bytes(tmp_path):
    path = tmp_path / "e.txt"
    cli_mod._write_edges(str(path), "text", np.empty((0, 2), dtype=np.uint64))
    assert path.read_bytes() == b"" == savetxt_bytes(np.empty((0, 2), dtype=np.uint64))
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


def test_generate_thread_count_does_not_change_output(tmp_path):
    one = gen(tmp_path, "t1.bin", "--threads", "1")
    four = gen(tmp_path, "t4.bin", "--threads", "4")
    assert one.read_bytes() == four.read_bytes()


def test_generate_tiled_thread_count_does_not_change_output(tmp_path, capsys, monkeypatch):
    # Part 1 of this plan holds about 144k edges in 3 tile batches, and
    # reporting 2 cores lets a 1-core host run 2 threads too.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pools = []

    class Recorder(generator.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(generator, "ThreadPoolExecutor", Recorder)
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
    ],
)
def test_inconsistent_options_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


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


def test_threads_env_sets_default(tmp_path, monkeypatch):
    monkeypatch.setenv("RMAT_THREADS", "2")
    via_env = gen(tmp_path, "env.bin")
    monkeypatch.delenv("RMAT_THREADS")
    explicit = gen(tmp_path, "flag.bin", "--threads", "2")
    assert via_env.read_bytes() == explicit.read_bytes()


def test_threads_env_rejected_when_invalid(capsys, monkeypatch):
    monkeypatch.setenv("RMAT_THREADS", "0")
    assert main(["generate", "-k", "4", "-m", "10", "--format", "none"]) == 2
    monkeypatch.setenv("RMAT_THREADS", "lots")
    assert main(["generate", "-k", "4", "-m", "10", "--format", "none"]) == 2
    assert "not an integer" in capsys.readouterr().err


def test_threads_env_ignored_without_threads_option(capsys, monkeypatch):
    monkeypatch.setenv("RMAT_THREADS", "0")
    assert main(["table-dump", "-k", "2", "--table", "fixed", "--depth", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_flag_overrides_threads_env(monkeypatch):
    monkeypatch.setenv("RMAT_THREADS", "0")
    rc = main(["generate", "-k", "4", "-m", "10", "--format", "none",
               "--threads", "1"])
    assert rc == 0


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


def test_generate_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    def exhausted(config):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "generate_result", exhausted)
    rc = main(["generate", "-k", "4", "-m", "10", "-o", str(tmp_path / "x.bin")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: out of memory")
    assert list(tmp_path.iterdir()) == []


def test_generate_out_of_memory_in_a_thread_exits_2(tmp_path, capsys, monkeypatch):
    # Block 3 of 5 fails inside the thread pool; the error reaches main.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    emit = generator._emit

    def failing(comp, k, count, stream):
        if stream.key[1] == 3:
            raise MemoryError
        return emit(comp, k, count, stream)

    monkeypatch.setattr(generator, "_emit", failing)
    rc = main(["generate", "-k", "8", "-m", str(4 * DEFAULT_BLOCK_SIZE + 1),
               "--threads", "2", "-o", str(tmp_path / "x.bin")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: out of memory")
    assert list(tmp_path.iterdir()) == []
