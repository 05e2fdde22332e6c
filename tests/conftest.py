import functools

import pytest

import permdeg as pd


@functools.lru_cache(maxsize=None)
def group_for(expr: str) -> pd.FiniteGroup:
    return pd.build(pd.parse_group_expr(expr))


def mu_of(expr: str) -> int:
    return pd.mu_exact(group_for(expr)).mu


@pytest.fixture(scope="session")
def catalog48():
    return pd.catalog(48)


@pytest.fixture(scope="session")
def catalog64():
    return pd.catalog(64)
