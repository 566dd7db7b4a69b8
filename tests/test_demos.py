"""The demo scripts print exactly what they printed when their digests were recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_squarefree_algebra.py": "b32d9f28d032d8813b394bec1786b73ce805dd78eb5936310dd1c3d7453722d2",
    "02_tableaux_and_schur.py": "5652649c09f774874846c85fbd5a21b46c575339270b0334edb83fc5dcb406b8",
    "03_standard_monomials.py": "b24bbc61363577b9cbe07090e932c1812ff8e0d5bd7d761d7e2f8a01f0ddb55a",
    "04_straightening.py": "da78bf448327abfd725753c8a51b8d9b67bd6eced83669ebcdc2bf0ab1681521",
    "05_character_verification.py": "fb425e3ba8ff5fa6c474703bee58b669aa3a9b341163ccb49ed350cbbc0a9254",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_pinned(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        cwd=ROOT,
        env=env,
        check=True,
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
