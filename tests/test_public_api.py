"""Every exported name resolves, so a deletion cannot leave a stale export behind; importing sets the BLAS thread default."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import liemeasure

MODULES = sorted(m.name for m in pkgutil.iter_modules(liemeasure.__path__) if not m.name.startswith("_"))


@pytest.mark.parametrize("module", ["liemeasure"] + [f"liemeasure.{name}" for name in MODULES])
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_import_defaults_openblas_to_one_thread(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.pathsep.join([str(Path(liemeasure.__file__).parents[1]), env.get("PYTHONPATH", "")])
    code = "import liemeasure, os, sys; sys.stdout.write(os.environ['OPENBLAS_NUM_THREADS'])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == expected
