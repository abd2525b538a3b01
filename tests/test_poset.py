'''Poset behavior: closures, topology readings, structure predicates.'''

import pickle
import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from finspec import kernels
from finspec.enumeration import check_args
from finspec.errors import InputError, PreconditionError
from finspec.fixtures import a2, antichain, chain_poset, c2, d4, l3, m3, v3
from finspec.lattice import Lattice, LatticeIdeal
from finspec.poset import DOWNSET_CAP, MonotoneMap, Poset, are_isomorphic
from finspec.reports import sweep


def test_constructor_rejects_bad_input():
    with pytest.raises(InputError):
        Poset(-1)
    with pytest.raises(InputError):
        Poset('3')
    with pytest.raises(InputError):
        Poset(3, [(0,)])
    with pytest.raises(InputError):
        Poset(3, [(0, 'x')])
    with pytest.raises(InputError):
        Poset(3, [(0, 3)])
    with pytest.raises(InputError):
        Poset(2, [(0, 1), (1, 0)])


def _require_member(ideal, a):
    # membership answers instead of raising, so turn a refusal into the error
    if a not in ideal:
        raise InputError('%r is not a member of %r' % (a, ideal))


@pytest.mark.parametrize('call', [
    pytest.param(lambda: Poset(True), id='Poset(True)'),
    pytest.param(lambda: Poset(False), id='Poset(False)'),
    pytest.param(lambda: Poset(2, [(0, True)]), id='Poset(2, [(0, True)])'),
    pytest.param(lambda: Poset(2).leq(True, 0), id='Poset(2).leq(True, 0)'),
    pytest.param(lambda: Poset(2).up_closure([True]), id='Poset(2).up_closure([True])'),
    pytest.param(lambda: Lattice(True), id='Lattice(True)'),
    pytest.param(lambda: m3().label(True), id='m3().label(True)'),
    pytest.param(lambda: m3().meet(0, True), id='m3().meet(0, True)'),
    pytest.param(lambda: Lattice(2, [(0, 1)], bottom=False, top=True),
                 id='Lattice(2, [(0, 1)], bottom=False, top=True)'),
    pytest.param(lambda: LatticeIdeal(m3(), [False]), id='LatticeIdeal(m3(), [False])'),
    pytest.param(lambda: _require_member(LatticeIdeal(m3(), [0, 1]), True),
                 id='True in LatticeIdeal(m3(), [0, 1])'),
    pytest.param(lambda: check_args(True, 'unlabeled'), id='check_args(True, unlabeled)'),
    pytest.param(lambda: sweep(True), id='sweep(True)'),
    pytest.param(lambda: sweep(1, jobs=True), id='sweep(1, jobs=True)'),
])
def test_bools_are_neither_sizes_nor_indices(call):
    # Python counts True and False as the ints 1 and 0
    with pytest.raises(InputError):
        call()


def test_constructor_closes_relation():
    p = Poset(3, [(0, 1), (1, 2)])
    assert p.leq(0, 2)
    assert not p.leq(2, 0)
    assert p.covers() == [(0, 1), (1, 2)]


def test_covers_of_diamond():
    assert sorted(d4().covers()) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_closures_on_v3():
    p = v3()
    assert p.up_closure({0}) == {0, 2}
    assert p.down_closure({2}) == {0, 1, 2}
    assert p.up_closure(set()) == set()
    assert p.minimal_points() == {0, 1}
    assert p.maximal_points() == {2}


def test_dual_swaps_closures():
    p = v3()
    q = p.dual()
    assert q.down_closure({0}) == p.up_closure({0})
    assert q.minimal_points() == p.maximal_points()
    assert q.dual() == p
    # one dual object per poset, and the dual of the dual is the poset
    assert p.dual() is q and q.dual() is p
    assert (q.up, q.down) == (p.down, p.up)


def test_open_closed_aliases():
    p = v3()
    assert p.is_open({0, 1})
    assert p.is_open(set())
    assert not p.is_open({2})
    assert p.is_closed({2})
    assert p.is_clopen(set()) and p.is_clopen({0, 1, 2})
    assert not p.is_clopen({0})


def test_interior_and_regularize():
    p = v3()
    assert p.interior({0, 2}) == {0}
    assert p.regularize({0}) == {0}
    # a dense down-set regularizes to the whole space
    assert p.regularize({0, 1}) == {0, 1, 2}
    with pytest.raises(PreconditionError):
        p.regularize({2})


def test_density():
    p = v3()
    assert p.is_dense({0, 1})
    assert not p.is_dense({0})
    assert p.is_dense({0, 1, 2})


def test_patch_topology_trivializes():
    # the generated patch family is literally the powerset; the package
    # predicates must agree with that fixpoint computation everywhere
    for n in range(5):
        for rows in kernels.labeled_stream(n):
            p = Poset.from_up_rows(rows)
            family = bf.patch_family(rows)
            assert family == set(range(1 << n))
            for s in range(1 << n):
                assert p.is_patch_open_mask(s)
                assert p.is_patch_closed_mask(s)
                assert p.patch_closure_mask(s) == s


def test_constructible_algebra_trivializes():
    for n in range(5):
        for rows in kernels.labeled_stream(n):
            p = Poset.from_up_rows(rows)
            assert bf.constructible_family(rows) == set(range(1 << n))
            assert all(p.is_constructible_mask(s) for s in range(1 << n))


def test_upset_masks_are_the_sorted_complements_of_the_downset_masks():
    # the up-sets come from the dual's down-sets; the reference takes the
    # complement of each down-set and sorts them
    rows_of = [rows for n in range(5) for rows in kernels.labeled_stream(n)]
    rows_of += [rows for n in range(7) for rows in kernels.unlabeled_reps(n)]
    for rows in rows_of:
        p = Poset.from_up_rows(rows)
        want = tuple(sorted(p.full ^ d for d in p.downset_masks_all))
        assert p.upset_masks_all == want
        assert p.upset_masks_all is p.dual().downset_masks_all


def test_compactness_is_computed_from_patch_closure():
    for rows in kernels.labeled_stream(4):
        p = Poset.from_up_rows(rows)
        for s in range(1 << 4):
            assert p.is_compact_mask(s) == p.is_patch_closed_mask(
                p.down_closure_mask(s))
            assert p.is_compact_mask(s)


def test_structure_predicates_on_fixtures():
    p = v3()
    assert p.is_root_system() and not p.is_forest()
    assert not p.is_confluent() and p.confluence_witness() == (2, 0, 1)
    assert not p.is_inv_normal() and p.is_normal()
    assert not p.is_stranded()

    q = l3()
    assert q.is_forest() and not q.is_root_system()
    assert q.is_confluent() and q.is_inv_normal() and not q.is_normal()

    r = d4()
    assert not r.is_root_system() and not r.is_forest()
    assert r.is_confluent() and r.is_inv_normal() and r.is_normal()

    assert antichain(3).is_stranded()
    assert chain_poset(4).is_stranded()
    two_chains = Poset(4, [(0, 1), (2, 3)])
    assert two_chains.is_stranded()


def test_forest_and_root_autoduality():
    for rows in kernels.labeled_stream(4):
        p = Poset.from_up_rows(rows)
        assert p.is_root_system() == p.dual().is_forest()
        assert p.is_normal() == p.dual().is_inv_normal()


def test_stranded_means_both_forest_and_root_plus_confluent_parts():
    for rows in kernels.labeled_stream(4):
        p = Poset.from_up_rows(rows)
        if p.is_stranded():
            assert p.is_forest() and p.is_root_system()


def test_min_point_maps():
    assert v3().min_point_map() is None
    assert l3().min_point_map() == (0, 0, 0)
    assert l3().max_point_map() is None
    assert v3().max_point_map() == (2, 2, 2)
    assert d4().min_point_map() == (0, 0, 0, 0)


def test_retractions():
    assert v3().retraction('to_min') is None
    r = l3().retraction('to_min')
    assert r is not None and r.assignment == (0, 0, 0)
    assert r.target_points == (0,)
    r = v3().retraction('to_max')
    assert r is not None and r.assignment == (0, 0, 0)
    with pytest.raises(InputError):
        v3().retraction('sideways')


def test_induced_subposet():
    p = v3()
    sub, carrier = p.induced({0, 2})
    assert carrier == (0, 2)
    assert sub == chain_poset(2)
    sub, carrier = p.induced({0, 1})
    assert sub == antichain(2)


def test_induced_and_relative_extrema_match_definitions():
    for n in range(5):
        for rows in kernels.labeled_stream(n):
            p = Poset.from_up_rows(rows)
            for mask in range(p.full + 1):
                members = [i for i in range(n) if mask >> i & 1]
                sub, carrier = p.induced(members)
                assert carrier == tuple(members)
                for a, i in enumerate(members):
                    for b, j in enumerate(members):
                        assert sub.leq(a, b) == p.leq(i, j)
                assert p.relative_max_mask(mask) == sum(
                    1 << i for i in members
                    if not any(j != i and p.leq(i, j) for j in members))
                assert p.relative_min_mask(mask) == sum(
                    1 << i for i in members
                    if not any(j != i and p.leq(j, i) for j in members))


def test_monotone_map_checks():
    p, q = v3(), a2()
    with pytest.raises(InputError):
        MonotoneMap(p, q, (0, 1))
    with pytest.raises(InputError):
        MonotoneMap(p, q, (0, 1, 5))
    bad = MonotoneMap(p, q, (0, 1, 0))
    assert not bad.is_monotone()
    collapse = MonotoneMap(p, q, (0, 0, 0))
    assert collapse.is_monotone() and collapse.is_continuous()
    ident = MonotoneMap(p, p, (0, 1, 2))
    assert ident.is_monotone() and ident.is_continuous()


def test_canonical_agrees_with_permutation_search():
    reps = []
    for rows in kernels.labeled_stream(3):
        p = Poset.from_up_rows(rows)
        for q in reps:
            assert are_isomorphic(p, q) == bf.isomorphic_by_search(p.up, q.up)
        reps.append(p)


def test_canonical_is_idempotent():
    for rows in kernels.labeled_stream(4):
        p = Poset.from_up_rows(rows)
        c = p.canonical()
        assert c.canonical() == c
        assert are_isomorphic(p, c)


def test_pickle_round_trip():
    p = d4()
    q = pickle.loads(pickle.dumps(p))
    assert q == p and q.covers() == p.covers()


def test_hash_and_equality():
    assert v3() == v3()
    assert hash(v3()) == hash(v3())
    assert v3() != l3()
    assert len({v3(), v3(), l3()}) == 2


def test_mask_set_round_trip():
    p = d4()
    for s in range(1 << 4):
        assert p.mask_of(p.set_of(s)) == s
    with pytest.raises(InputError):
        p.mask_of([9])


@st.composite
def random_poset(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, max(0, n - 1)), st.integers(0, max(0, n - 1))),
        max_size=10))
    pairs = [(i, j) for i, j in pairs if i != j]
    rel = bf.closure_pairs(n, pairs)
    if any((j, i) in rel for i, j in rel if i != j):
        return draw(st.just(None))
    return Poset(n, pairs)


@settings(max_examples=120, deadline=None)
@given(random_poset())
def test_closure_operators_are_closures(p):
    if p is None:
        return
    for s in range(min(64, 1 << p.n)):
        up = p.up_closure_mask(s)
        assert up & s == s
        assert p.up_closure_mask(up) == up
        dn = p.down_closure_mask(s)
        assert p.down_closure_mask(dn) == dn
        assert p.interior_mask(s) & ~s == 0


@settings(max_examples=120, deadline=None)
@given(random_poset())
def test_canonical_stable_under_hypothesis_relabel(p):
    if p is None or p.n > 5:
        return
    perm = list(range(p.n))[::-1]
    moved = [0] * p.n
    for i in range(p.n):
        for j in range(p.n):
            if p.up[i] >> j & 1:
                moved[perm[i]] |= 1 << perm[j]
    assert Poset.from_up_rows(moved).canonical() == p.canonical()


def _warshall_reference(n, pairs):
    '''Up rows by Warshall's closure, or the InputError text naming the
    first pair on a cycle, as the antisymmetry scan finds it.'''
    rows = [1 << i for i in range(n)]
    for i, j in pairs:
        rows[i] |= 1 << j
    rows = kernels.transitive_closure(rows)
    bad = kernels.antisymmetry_violation(rows)
    if bad is not None:
        return 'not a partial order: %d and %d sit on a cycle' % bad
    return tuple(rows)


@st.composite
def random_relation(draw):
    'Any relation on up to 10 points: self-pairs, repeated pairs and cycles too.'
    n = draw(st.integers(min_value=0, max_value=10))
    if n == 0:
        return 0, []
    point = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(point, point), max_size=30))
    if draw(st.booleans()):
        # most random relations on many pairs have a cycle, so half the
        # draws are oriented along a random order and stay acyclic
        order = draw(st.permutations(range(n)))
        pairs = [(i, j) if order[i] <= order[j] else (j, i) for i, j in pairs]
    # repeat some pairs, in any order
    return n, pairs + draw(st.lists(st.sampled_from(pairs), max_size=5) if pairs
                           else st.just([]))


@settings(max_examples=300, deadline=None)
@given(random_relation())
def test_topological_build_matches_warshall(relation):
    n, pairs = relation
    expected = _warshall_reference(n, pairs)
    if isinstance(expected, str):
        with pytest.raises(InputError) as caught:
            Poset(n, pairs)
        assert str(caught.value) == expected
        assert kernels.order_rows(n, pairs) is None
        return
    p = Poset(n, pairs)
    assert p.up == expected
    assert p.down == tuple(kernels.transpose(p.up))


def test_a_cycle_names_the_first_pair_the_closure_relates_both_ways():
    # the cycle 0 -> 3 -> 1 -> 4 -> 0 names (0, 1), a pair no entry lists
    with pytest.raises(InputError, match=r'^not a partial order: 0 and 1 sit on a cycle$'):
        Poset(5, [(2, 3), (0, 3), (3, 1), (1, 4), (4, 0)])
    # an acyclic prefix does not hide the cycle behind it
    with pytest.raises(InputError, match=r'^not a partial order: 2 and 3 sit on a cycle$'):
        Poset(5, [(0, 1), (1, 2), (4, 2), (2, 3), (3, 4)])


def test_the_longest_chain_builds_within_a_second_of_cpu():
    # every CLI input path has a stated bound: one topological pass builds
    # both row sets of a DOWNSET_CAP-point chain
    start = time.process_time()
    p = chain_poset(DOWNSET_CAP)
    seconds = time.process_time() - start
    assert seconds < 1.0
    assert p.up[0] == p.full and p.down[-1] == p.full
