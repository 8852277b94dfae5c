"""The package is its modules: ``import reloop`` defines ``__version__`` only."""

import os
import subprocess
import sys
from pathlib import Path

import reloop


def test_import_reloop_imports_no_module():
    """Names are imported from the module that defines them, so the package
    imports none of its modules, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(reloop.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, reloop; print(sorted(m for m in sys.modules if m.startswith('reloop.')))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert reloop.__version__
