"""The same-bytes matrix (tests/bytes_matrix.py) digests its outputs reproducibly."""

from bytes_matrix import block_runs, run_matrix


def test_tiny_matrix_twice_same_digest(tmp_path):
    first = run_matrix(tmp_path / "a", tiny=True)
    second = run_matrix(tmp_path / "b", tiny=True)
    assert first[0] > 0
    assert first == second


def test_tiny_block_runs_twice_same_digest(tmp_path):
    first = run_matrix(tmp_path / "a", tiny=True, runs=block_runs)
    second = run_matrix(tmp_path / "b", tiny=True, runs=block_runs)
    assert first[0] == 3 + 3 * 6  # 3 windows; per run a report, 3 checkpoints, 2 score logs
    assert first == second
