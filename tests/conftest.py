"""Child interpreters started by the tests (the CLI, reproducibility
probes) import the same tripowmin as the tests themselves, also from a
checkout that is not installed."""

import os
from pathlib import Path

import pytest

import tripowmin

_SRC = str(Path(tripowmin.__file__).resolve().parent.parent)


@pytest.fixture(autouse=True)
def _children_import_this_tripowmin(monkeypatch):
    paths = [_SRC, os.environ.get("PYTHONPATH", "")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
