import functools

import numpy as np
import pytest

import permdeg as pd
from permdeg.solver import cover_sets


@functools.lru_cache(maxsize=None)
def group_for(expr: str) -> pd.FiniteGroup:
    return pd.build(pd.parse_group_expr(expr))


def table_array(G: pd.FiniteGroup) -> np.ndarray:
    """G's table as an int64 array formed from ``G.table``: the tests'
    numpy references read this, not the package's byte view ``G.mult``."""
    return np.array(G.table, dtype=np.int64)


def mu_of(expr: str) -> int:
    return pd.mu_exact(group_for(expr)).mu


def lattice_covers(lat, indices=None) -> list[int]:
    """``cover_sets`` of the lattice subgroups at ``indices`` (all of them
    by default) against the lattice's minimal normals."""
    subs = lat.subgroups
    if indices is None:
        indices = range(len(subs))
    return cover_sets([subs[i].bits for i in lat.minimal_normals],
                      [subs[i].bits for i in indices])


@pytest.fixture(scope="session")
def catalog48():
    return pd.catalog(48)


@pytest.fixture(scope="session")
def catalog64():
    return pd.catalog(64)
