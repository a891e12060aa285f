"""Fixtures shared by the test modules."""

from __future__ import annotations

import numpy as np
import pytest


def _refuse_lapack(monkeypatch, kind):
    """Make np.polyfit and every function of np.linalg raise, naming
    kind. np.polyfit is refused by name: its module binds lstsq and inv
    when numpy is imported, so the np.linalg patches never reach it."""
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{kind} call: numpy.{name}")
        return call

    monkeypatch.setattr(np, "polyfit", refuse("polyfit"))
    for name in np.linalg.__all__:
        value = getattr(np.linalg, name)
        if callable(value) and not isinstance(value, type):
            monkeypatch.setattr(np.linalg, name, refuse(f"linalg.{name}"))
    return refuse


@pytest.fixture
def no_blas(monkeypatch):
    """Make numpy's BLAS and LAPACK entry points raise: np.dot,
    np.tensordot, np.einsum, np.polyfit and every function of np.linalg."""
    refuse = _refuse_lapack(monkeypatch, "BLAS or LAPACK")
    for name in ("dot", "tensordot", "einsum"):
        monkeypatch.setattr(np, name, refuse(name))


@pytest.fixture
def no_lapack(monkeypatch):
    """Make np.polyfit and every function of np.linalg raise; matmul and
    the other BLAS products stay allowed."""
    _refuse_lapack(monkeypatch, "LAPACK")
