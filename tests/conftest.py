from functools import partial

import pytest

import odds_nls.linalg as linalg


@pytest.fixture
def short_gmres(monkeypatch):
    """GMRES gives up after two restart cycles of four iterations."""
    monkeypatch.setattr(linalg, "MAX_KRYLOV", 4)
    monkeypatch.setattr(linalg, "MAX_RESTARTS", 2)


@pytest.fixture
def hopeless_solves(monkeypatch, short_gmres):
    """Every solve given no options misses its target and gives up.

    The default residual target becomes an unreachable 1e-30, so the LU
    solution of each step fails its check and the short GMRES fails too.
    """
    monkeypatch.setattr(linalg, "SolverOptions",
                        partial(linalg.SolverOptions, residual_tol=1e-30))
