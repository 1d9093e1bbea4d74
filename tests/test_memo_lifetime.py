"""Every per-call recursion memoizes through a ``functools.cache`` made inside
its call, so each cache dies with the call that made it.  A cache hoisted to
module scope or onto a method would keep every structure's tuples alive
across calls; it shows here as a wrapper or cache entry that outlives the
call."""
import functools
import gc

import pytest

from hybridkit.coalgebras import enumerate_generated_covers, generated_tree_depth
from hybridkit.comonads import ComonadKind, find_cokleisli_morphism
from hybridkit.games import back_and_forth_rank
from hybridkit.scott import characteristic_formula, scott_formula, scott_type
from hybridkit.semantics import gaifman_relativize

from fixtures import C3, PATH3, PATH4, STAR3

CALLS = {
    "characteristic_formula": lambda a, b: characteristic_formula(a, 2, True),
    "scott_formula": lambda a, b: scott_formula(a, 2),
    "scott_type": lambda a, b: scott_type(a, 2),
    "back_and_forth_rank": lambda a, b: back_and_forth_rank(a, b, 2),
    "find_cokleisli_morphism": lambda a, b: find_cokleisli_morphism(
        a, b, ComonadKind.HYBRID, 2
    ),
    "gaifman_relativize": lambda a, b: gaifman_relativize(
        characteristic_formula(a, 2), 1, a.signature
    ),
    "generated_tree_depth": lambda a, b: generated_tree_depth(a),
    "enumerate_generated_covers": lambda a, b: list(enumerate_generated_covers(a)),
}


def _live_caches() -> tuple[int, int]:
    """The live ``functools.cache`` wrappers and the entries they hold."""
    gc.collect()
    wrappers = [
        o for o in gc.get_objects() if isinstance(o, functools._lru_cache_wrapper)
    ]
    return len(wrappers), sum(w.cache_info().currsize for w in wrappers)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_no_cache_outlives_its_call(name):
    call = CALLS[name]
    call(PATH3, C3)  # settles whatever a first call sets up once
    before = _live_caches()
    call(PATH4, STAR3)
    assert _live_caches() == before
