"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rho2v


@pytest.fixture
def fresh_python():
    """Run python with the given arguments in a new interpreter that imports
    rho2v from the same sources as this one; returns the CompletedProcess.

    A test of what an import loads needs a new interpreter: in this one the
    other tests have already imported every rho2v module."""
    src = str(Path(rho2v.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)

    return run
