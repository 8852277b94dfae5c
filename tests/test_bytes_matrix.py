"""The same-bytes matrix (tests/bytes_matrix.py) digests its outputs reproducibly."""

import hashlib
import sys

import bytes_matrix
from bytes_matrix import block_runs, held_runs, run_matrix, tree_digest, tree_files


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


def test_tiny_held_runs_twice_same_digest(tmp_path):
    first = run_matrix(tmp_path / "a", tiny=True, runs=held_runs)
    second = run_matrix(tmp_path / "b", tiny=True, runs=held_runs)
    # 3 windows; per loop a report, 3 checkpoints, 2 score logs and eval.txt;
    # the train run's checkpoint and metrics.csv
    assert first[0] == 3 + 2 * 7 + 2
    assert first == second
    train = tmp_path / "a" / "runs" / "train-fm-held"
    assert sorted(p.name for p in train.iterdir()) == ["manifest.json", "metrics.csv",
                                                       "model.ckpt"]
    evals = sorted((tmp_path / "a").rglob("eval.txt"))
    assert len(evals) == 2
    for path in evals:
        assert path.read_text(encoding="utf-8").startswith("n=300\n")


def test_tree_digest_hashes_tree_files(tmp_path):
    (tmp_path / "runs" / "a").mkdir(parents=True)
    (tmp_path / "runs" / "a" / "report.csv").write_bytes(b"v,auc\n1,0.5\n")
    (tmp_path / "runs" / "a" / "manifest.json").write_text("{}")
    (tmp_path / "data.csv").write_bytes(b"y\n1\n")
    files = tree_files(tmp_path)
    assert [rel for rel, _ in files] == ["data.csv", "runs/a/report.csv"]
    assert files[0][1] == hashlib.sha256(b"y\n1\n").hexdigest()
    h = hashlib.sha256()
    for rel, digest in files:
        h.update(f"{rel}\0{digest}\n".encode())
    assert tree_digest(tmp_path) == (2, h.hexdigest())


def test_main_prints_digests_and_lists_files_on_stderr(monkeypatch, capsys):
    def writes(name, body):
        def runs(root, tiny):
            root.mkdir(parents=True)
            (root / "report.csv").write_bytes(body)
            return []
        runs.__name__ = name
        return runs

    bodies = {"matrix_runs": b"a\n", "block_runs": b"b\n", "held_runs": b"c\n"}
    for name, body in bodies.items():
        monkeypatch.setattr(bytes_matrix, name, writes(name, body))
    monkeypatch.setattr(sys, "argv", ["bytes_matrix.py", "--tiny"])
    assert bytes_matrix._main() == 0
    out, err = capsys.readouterr()
    files = {name: hashlib.sha256(body).hexdigest() for name, body in bodies.items()}
    trees = [hashlib.sha256(f"report.csv\0{d}\n".encode()).hexdigest()
             for d in files.values()]
    assert out.splitlines() == [f"1 {t}" for t in trees]
    assert err.splitlines() == [f"  {d} {name}/report.csv" for name, d in files.items()]
