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


# sd-files that load_semidirect or semidirect_product refuse, each with
# the message it is refused with
SD_FILE_REFUSALS = [
    ("G C4\nH C2\nh 1 0 3 2 1\n", "malformed generator line: 'h 1 0 3 2 1'"),
    ("G C4\nH C2\nk 1 : 0 3 2 1\n", "unrecognized sd-file line: 'k 1 : 0 3 2 1'"),
    ("G C4\nH C2\nh 2 : 0 3 2 1\n", "generator index 2 out of range for H"),
    ("G C4\nH C2\nh 1 : 0 3 2\n", "automorphism for h=1 must list 4 images"),
    # an h 0 line replaces the identity's automorphism
    ("G C3\nH C2\nh 0 : 0 2 1\nh 1 : 0 2 1\n",
     "action of the identity of H is not the identity map"),
    # g -> 2g listed for both 1 and 3 of C4, where 3 = 1 + 2 must act as
    # g -> 2 * 4 g = 3g
    ("G C5\nH C4\nh 1 : 0 2 4 1 3\nh 3 : 0 2 4 1 3\n",
     "action is not a homomorphism at pair (1, 2)"),
]
SD_FILE_REFUSAL_IDS = ["no-colon", "unrecognized-line", "index-out-of-range",
                       "wrong-image-count", "identity-moves", "not-homomorphism"]


@pytest.fixture
def no_cayley_walk(monkeypatch):
    """Fail the test if a table is walked from left maps
    (``groups._cayley_table``): a refused action must be refused before
    its product's table is formed."""
    def walk(lefts):
        raise AssertionError("a table was walked")

    monkeypatch.setattr(pd.groups, "_cayley_table", walk)


@pytest.fixture(scope="session")
def catalog48():
    return pd.catalog(48)


@pytest.fixture(scope="session")
def catalog64():
    return pd.catalog(64)
