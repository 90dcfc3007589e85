import sys

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import lorstab.fem
from lorstab.config import ScenarioConfig
from lorstab.stability import _TOL_SOLVER
from lorstab.surfaces import GraphSurface, build_graph, build_slice

# a config's defaults, for the library calls a test makes below the config layer
DEFAULTS = ScenarioConfig("slice", 1, 1.0)


def solve(pair, **keys):
    """``first_eigenvalue_meanzero`` at the tolerance ``analyze`` solves to
    and the config's default ``seed``; ``keys`` replace either or set
    ``maxiter``."""
    return lorstab.fem.first_eigenvalue_meanzero(pair, **{"tol": _TOL_SOLVER, "seed": DEFAULTS.seed, **keys})


@pytest.fixture(scope="session")
def slice_mesh():
    """Shared factory for meshed slices, cached by (s0, level)."""
    cache = {}

    def get(s0: float = 1.0, level: int = 4) -> GraphSurface:
        key = (s0, level)
        if key not in cache:
            cache[key] = build_slice(s0, level=level)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def graph_mesh():
    """Shared factory for perturbed graphs, cached by (s0, perturbations, level)."""
    cache = {}

    def get(s0=1.0, perturbations=((2, 0, 0.05),), level=4) -> GraphSurface:
        key = (s0, tuple(perturbations), level)
        if key not in cache:
            cache[key] = build_graph(s0, perturbations=perturbations, level=level)
        return cache[key]

    return get


class FactorLog(list):
    """The LU factors made through ``lorstab.fem.splu``, in order."""

    def held(self) -> list[int]:
        """Indices of the factors that something besides this log still refers to."""
        probe = [object()]
        free = sys.getrefcount(probe[0])
        return [i for i in range(len(self)) if sys.getrefcount(self[i]) > free]


@pytest.fixture
def factors(monkeypatch) -> FactorLog:
    """Record every LU factor the solver makes."""
    log = FactorLog()

    def recording(*args, **kwargs):
        log.append(splu(*args, **kwargs))
        return log[-1]

    monkeypatch.setattr(lorstab.fem, "splu", recording)
    return log


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_shape(rng, n):
    """A random symmetric (n, n) shape operator."""
    m = rng.uniform(-3.0, 3.0, size=(n, n))
    return (m + m.T) / 2.0
