"""The narrative demos run and print exactly the pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import lipcert

# SHA-256 of the eight demos' stdout, concatenated in file-name order.
PINNED_DEMO_DIGEST = "118cff7e124105884b93bd43bc121ddf3b092287ab08cc2e0595c4da4b324cf9"


def test_demo_output_pinned():
    root = Path(__file__).parent.parent
    demos = sorted((root / "demos").glob("*.py"))
    assert len(demos) == 8
    env = {**os.environ, "PYTHONPATH": str(Path(lipcert.__file__).parent.parent)}
    digest = hashlib.sha256()
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)], capture_output=True, cwd=root, env=env, timeout=120
        )
        assert proc.returncode == 0, (demo.name, proc.stderr.decode()[-2000:])
        digest.update(proc.stdout)
    assert digest.hexdigest() == PINNED_DEMO_DIGEST
