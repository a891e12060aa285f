"""Fixtures shared by the test modules."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def no_blas(monkeypatch):
    """Make numpy's BLAS and LAPACK entry points raise: np.dot,
    np.tensordot, np.einsum, np.polyfit and every function of np.linalg.
    np.polyfit is refused by name: its module binds lstsq and inv when
    numpy is imported, so the np.linalg patches never reach it."""
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"BLAS or LAPACK call: numpy.{name}")
        return call

    for name in ("dot", "tensordot", "einsum", "polyfit"):
        monkeypatch.setattr(np, name, refuse(name))
    for name in np.linalg.__all__:
        value = getattr(np.linalg, name)
        if callable(value) and not isinstance(value, type):
            monkeypatch.setattr(np.linalg, name, refuse(f"linalg.{name}"))
