"""Suite-wide test settings.

Hypothesis draws the same examples on every run, so a property test that
passes once passes every time.  ``--hypothesis-profile=default`` on the
pytest command line restores random exploration.
"""

import importlib.util
import os
import sys
from pathlib import Path

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def child_env() -> dict:
    """``os.environ`` for a child interpreter that imports the ``cpamm`` this
    one imported: its directory goes first on ``PYTHONPATH``.  So a run on an
    installed package tests that package in child processes too, even where
    a checkout's ``src`` is still on disk."""
    import cpamm

    home = str(Path(cpamm.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=home + (os.pathsep + path if path else ""))


def bench_inputs():
    """``bench/inputs.py``, the benchmark's seeded inputs, as a module."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    # Registered while it runs, as its dataclasses look their module up.
    sys.modules[spec.name] = inputs
    try:
        spec.loader.exec_module(inputs)
    finally:
        del sys.modules[spec.name]
    return inputs
