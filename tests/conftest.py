import functools

import pytest

import permdeg as pd
from permdeg.solver import cover_sets


@functools.lru_cache(maxsize=None)
def group_for(expr: str) -> pd.FiniteGroup:
    return pd.build(pd.parse_group_expr(expr))


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
