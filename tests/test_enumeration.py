'''Enumeration counts against brute force, both modes.'''

import re

import pytest

import bruteforce as bf
from finspec import kernels
from finspec.enumeration import (MAX_POINTS, STREAMS, check_args, count_posets,
                                 enumerate_posets)
from finspec.errors import InputError, ResourceLimitError
from finspec.poset import Poset


def test_labeled_stream_matches_relation_filter():
    # the oracle enumerates every relation and keeps the partial orders
    for n in range(5):
        stream = {bf.rel_of_rows(p.up) for p in enumerate_posets(n, 'labeled')}
        oracle = set(bf.all_labeled_orders(n))
        assert stream == oracle


def test_labeled_counts():
    assert [count_posets(n, 'labeled') for n in range(6)] == [1, 1, 3, 19, 219, 4231]


def test_unlabeled_counts():
    # OEIS A000112 through 7 points
    assert [count_posets(n) for n in range(8)] == [1, 1, 2, 5, 16, 63, 318, 2045]


def test_maximal_point_growth_matches_every_extension():
    # growing by every one-point extension, not only by maximal points,
    # yields the same representatives in the same order
    for n in range(7):
        assert kernels.unlabeled_reps(n) == bf.reps_by_every_extension(
            n, kernels.canonical_key)


def test_each_level_makes_about_one_canonical_search_per_class(monkeypatch):
    # twin pruning and the new point's invariant leave about one extension
    # per class to search: 429 searches for the 406 classes up to 6 points
    # and 2,636 for the 2,451 up to 7, where searching every down-set of
    # every representative made 939 and 6,378.  From an empty cache
    calls = []
    search = kernels.canonical_key
    monkeypatch.setattr(kernels, 'canonical_key',
                        lambda rows: calls.append(rows) or search(rows))
    kernels.unlabeled_reps.cache_clear()
    assert len(kernels.unlabeled_reps(6)) == 318
    assert len(calls) <= 429
    assert len(kernels.unlabeled_reps(7)) == 2045
    assert len(calls) <= 2636


def test_unlabeled_reps_are_canonical_and_sorted():
    for n in range(6):
        reps = list(enumerate_posets(n))
        rows_list = [p.up for p in reps]
        assert rows_list == sorted(rows_list)
        for p in reps:
            assert p.canonical_rows == p.up


def test_unlabeled_equals_labeled_modulo_canonical_form():
    for n in range(5):
        from_labeled = {kernels.canonical_key(p.up)
                        for p in enumerate_posets(n, 'labeled')}
        from_reps = {p.up for p in enumerate_posets(n)}
        assert from_labeled == from_reps


def test_unlabeled_counts_by_greedy_isomorphism_filter():
    # independent of canonical forms: keep a poset only if no kept one
    # is isomorphic to it under some permutation
    for n in range(5):
        kept = []
        for p in enumerate_posets(n, 'labeled'):
            if not any(bf.isomorphic_by_search(p.up, q) for q in kept):
                kept.append(p.up)
        assert len(kept) == count_posets(n)


def test_orbit_sizes_sum_to_labeled_count():
    # sum over classes of n! / |Aut| is the labeled count
    import math
    n = 5
    total = 0
    for p in enumerate_posets(n):
        total += math.factorial(n) // bf.automorphism_count(p.up)
    assert total == count_posets(n, 'labeled')


def test_caps_and_argument_validation():
    assert MAX_POINTS == {'labeled': 6, 'unlabeled': 8}
    assert MAX_POINTS == {mode: cap for mode, (_, cap) in STREAMS.items()}
    for mode, cap in MAX_POINTS.items():
        with pytest.raises(ResourceLimitError, match='%s enumeration capped at %d'
                           % (mode, cap)):
            list(enumerate_posets(cap + 1, mode))
        with pytest.raises(ResourceLimitError):
            count_posets(cap + 1, mode)
        with pytest.raises(ResourceLimitError):
            check_args(cap + 1, mode)
        check_args(cap, mode)
    with pytest.raises(InputError):
        count_posets(-1)
    with pytest.raises(InputError):
        count_posets(3, 'shuffled')
    with pytest.raises(InputError) as exc:
        check_args(3, 'shuffled')
    assert set(STREAMS) <= set(re.findall(r'\w+', str(exc.value)))


def test_streams_yield_posets():
    for p in enumerate_posets(3):
        assert isinstance(p, Poset)
        assert p.n == 3
