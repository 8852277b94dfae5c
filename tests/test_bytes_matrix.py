"""The same-bytes matrix (tests/bytes_matrix.py) digests its outputs reproducibly."""

from bytes_matrix import run_matrix


def test_tiny_matrix_twice_same_digest(tmp_path):
    first = run_matrix(tmp_path / "a", tiny=True)
    second = run_matrix(tmp_path / "b", tiny=True)
    assert first[0] > 0
    assert first == second
