"""Run a fixed matrix of CLI runs and hash every output file.

    python tests/bytes_matrix.py [--tiny]

prints three lines ``<n_files> <sha256>``, one for the matrix, one for the
row-block runs and one for the held-row runs: the number of output files
and one sha256 over their relative paths and bytes, ``manifest.json``
excluded (it holds wall-clock).
A change that keeps training, inference and every writer bitwise the same
prints the same lines before and after. Each line is followed on stderr by
one indented ``<sha256> <path>`` line per output file, so a diff of two
trees' listings names the files whose bytes moved. The hash is not a golden
value: it depends on the BLAS build, so compare two trees on one machine.

Run it also with BLAS pinned below the CPU count (``OPENBLAS_NUM_THREADS=1``
on two or more CPUs). Then the ``sweep-alpha`` runs and the static ``loop``
runs, whose baseline and current arms are two phases, train their per-loss
phases in forked worker processes; the digests must not move.

The matrix: every model kind x {adam, sgd} x {ce, reloop, kd} x {static,
continual cold, continual warm} ``loop`` runs; static, continual-cold and
continual-warm ``sweep-alpha`` at alphas 0,0.3,1 per kind; and per kind one
``--shuffle false`` static reloop run and one continual sgd kd run at lr
0.05. The full size trains on 3 windows x 900 rows (6 fields x 128 buckets);
``--tiny`` keeps the matrix and shrinks the data and the models.

A 900-row window is scored in one row block. The row-block runs reach the
multi-block path: a continual reloop ``loop`` per kind with a perceptron
branch (mlp, deepfm, dcn) over 3 windows x 3092 rows, which every version
scores in blocks of 1024, 1024 and 1044 rows, at both sizes.

The held-row runs reach the paths of models that hold only the table rows
their data touch, which a 768-feature matrix run may never take: over 8 x
16384 buckets (2^17 features) and 3 windows of 3092 rows (300 with
``--tiny``), a cold fm and a warm deepfm continual reloop ``loop``, each
followed by an ``eval`` of its last checkpoint on the last window, whose
printed lines are written to ``eval.txt`` in the run's directory; and a cold
fm ``train`` on the first window with ``--valid`` the second, which moves
the trained model to the validation rows to score them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from reloop.cli import main  # noqa: E402
from reloop.models import MODEL_KINDS  # noqa: E402

_SIZES = {
    False: dict(rows=900, fields=6, buckets=128, epochs=2, batch=64, embed=4, mlp="8,4"),
    True: dict(rows=300, fields=3, buckets=16, epochs=1, batch=64, embed=2, mlp="3"),
}

_MODES = (("static", False), ("continual", False), ("continual", True))
_BLOCK_ROWS = 3092  # rows per window of the row-block runs
_HELD_BUCKETS = 16384  # per field of the held-row runs, 8 fields


def _gen_data(data: Path, rows: int, s: dict) -> list[str]:
    return ["gen-data", "--out", str(data), "--rows", str(rows),
            "--fields", str(s["fields"]), "--buckets", str(s["buckets"]),
            "--windows", "3", "--drift", "0.2", "--seed", "7"]


def _run(root: Path, s: dict, command, name, mode, warm, *extra) -> list[str]:
    """One loop or sweep-alpha run over ``root``'s data, writing under ``root``."""
    data = root / "data"
    inputs = {"static": ["--data", str(data / "window_000.csv")],
              "continual": ["--windows", str(data / "window_*.csv")]}
    out = root / "runs" / f"{command}-{name}-{mode}-{'warm' if warm else 'cold'}"
    return [command, "--mode", mode, *inputs[mode],
            "--warm-start", str(warm).lower(), "--out", str(out), *_train_flags(s), *extra]


def _train_flags(s: dict) -> list[str]:
    """The size, training and seed flags every run of size ``s`` shares."""
    return ["--buckets", str(s["buckets"]), "--epochs", str(s["epochs"]),
            "--batch-size", str(s["batch"]), "--embed-dim", str(s["embed"]),
            "--mlp-widths", s["mlp"], "--seed", "3"]


def matrix_runs(root: Path, tiny: bool = False) -> list[list[str]]:
    """The CLI argument lists of the matrix, gen-data first."""
    s = _SIZES[tiny]
    runs = [_gen_data(root / "data", s["rows"], s)]

    def run(*args):
        runs.append(_run(root, s, *args))

    for kind in MODEL_KINDS:
        for opt in ("adam", "sgd"):
            for loss in ("ce", "reloop", "kd"):
                for mode, warm in _MODES:
                    run("loop", f"{kind}-{opt}-{loss}", mode, warm,
                        "--model", kind, "--optimizer", opt, "--loss", loss)
        for mode, warm in _MODES:
            run("sweep-alpha", kind, mode, warm, "--model", kind, "--alphas", "0,0.3,1")
        run("loop", f"{kind}-noshuffle", "static", False, "--model", kind,
            "--loss", "reloop", "--shuffle", "false")
        run("loop", f"{kind}-sgd-lr", "continual", False, "--model", kind,
            "--optimizer", "sgd", "--loss", "kd", "--lr", "0.05")
    return runs


def block_runs(root: Path, tiny: bool = False) -> list[list[str]]:
    """The CLI argument lists of the row-block runs, gen-data first."""
    s = _SIZES[tiny]
    return [_gen_data(root / "data", _BLOCK_ROWS, s)] + [
        _run(root, s, "loop", f"{kind}-blocks", "continual", False,
             "--model", kind, "--loss", "reloop")
        for kind in ("mlp", "deepfm", "dcn")
    ]


def held_runs(root: Path, tiny: bool = False) -> list:
    """The CLI argument lists of the held-row runs, gen-data first; each
    ``eval`` is an (argument list, path) pair, the path taking what it prints."""
    s = dict(_SIZES[tiny], fields=8, buckets=_HELD_BUCKETS)
    data = root / "data"
    runs = [_gen_data(data, 300 if tiny else _BLOCK_ROWS, s)]
    for kind, warm in (("fm", False), ("deepfm", True)):
        loop = _run(root, s, "loop", f"{kind}-held", "continual", warm,
                    "--model", kind, "--loss", "reloop")
        out = Path(loop[loop.index("--out") + 1])
        runs += [loop, (["eval", "--data", str(data / "window_002.csv"),
                         "--checkpoint", str(out / "checkpoints" / "v003.ckpt"),
                         "--buckets", str(_HELD_BUCKETS)], out / "eval.txt")]
    runs.append(["train", "--data", str(data / "window_000.csv"),
                 "--valid", str(data / "window_001.csv"),
                 "--out", str(root / "runs" / "train-fm-held"), "--model", "fm",
                 *_train_flags(s)])
    return runs


def tree_files(root: Path) -> list[tuple[str, str]]:
    """(relative path, sha256 of the bytes) of each output file in path
    order, manifests excluded."""
    return [(p.relative_to(root).as_posix(), hashlib.sha256(p.read_bytes()).hexdigest())
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"]


def tree_digest(root: Path) -> tuple[int, str]:
    """(file count, sha256 over ``tree_files``' relative paths and hashes)."""
    files = tree_files(root)
    h = hashlib.sha256()
    for rel, digest in files:
        h.update(f"{rel}\0{digest}\n".encode())
    return len(files), h.hexdigest()


def run_matrix(root: Path, tiny: bool = False, runs=matrix_runs) -> tuple[int, str]:
    """Run ``runs`` (``matrix_runs``, ``block_runs`` or ``held_runs``) under
    ``root`` and digest its outputs. A run given as (argument list, path)
    writes what it prints to the path."""
    for run in runs(root, tiny):
        argv, printed = run if isinstance(run, tuple) else (run, None)
        if printed is None:
            code = main(argv)
        else:
            with contextlib.redirect_stdout(io.StringIO()) as text:
                code = main(argv)
            printed.write_text(text.getvalue(), encoding="utf-8")
        if code != 0:
            raise RuntimeError(f"reloop {' '.join(argv)} exited {code}")
    return tree_digest(root)


def _main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tiny", action="store_true", help="small data and models")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for runs in (matrix_runs, block_runs, held_runs):
            root = Path(tmp) / runs.__name__
            n, digest = run_matrix(root, args.tiny, runs)
            print(n, digest, flush=True)
            for rel, file_digest in tree_files(root):
                print(f"  {file_digest} {runs.__name__}/{rel}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(_main())
