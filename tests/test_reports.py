'''Report layer: frozen verdicts, hypothesis gating, sweeps.'''

import gc
import pickle
import weakref

import pytest

import bruteforce as bf
from finspec import cli, duality, kernels
from finspec.enumeration import enumerate_posets
from finspec.errors import InputError, PreconditionError, ResourceLimitError
from finspec.fixtures import a2, antichain, c2, chain_poset, d4, l3, v3
from finspec.poset import Poset, are_isomorphic
from finspec import reports
from finspec.reports import (MAX_JOBS, PROFILE_FLAGS, REGISTRY, THEOREMS, Condition,
                             ConditionReport, classify, collapse_report,
                             constructible_closures, generic_complement,
                             heyting_report, inverse_closure_is_patch,
                             pc_space_report, qccl_stone_report,
                             root_forest_report, stone_report, sweep,
                             theorem_report)


def each_poset(max_points):
    for n in range(max_points + 1):
        for rows in kernels.unlabeled_reps(n):
            yield Poset.from_up_rows(rows)


def test_stone_report_on_v3_all_false():
    # the smallest non-Stone space fails every reading at once
    rep = stone_report(v3())
    assert rep.verdicts == {
        'lattice_stone': False,
        'closures_open': False,
        'confluent': False,
        'unique_min_below': False,
        'min_map_spectral': False,
        'min_retraction': False,
    }
    assert rep.agreement and not rep.all_true
    assert rep.witness == frozenset({0})


def test_unique_min_below_reads_its_own_scan(monkeypatch):
    # the reading's verdict comes from its witness scan, not from
    # is_inv_normal, which min_map_spectral and min_retraction also reach
    want = []
    for poset in each_poset(5):
        pts = range(poset.n)
        minimal = [m for m in pts if not any(poset.leq(y, m) for y in pts if y != m)]
        witness = next((x for x in pts
                        if sum(poset.leq(m, x) for m in minimal) != 1), None)
        assert poset.is_inv_normal() == (witness is None)
        want.append((poset, (witness is None, witness)))
    assert {verdict for _, (verdict, _) in want} == {True, False}

    def refuse(self):
        raise AssertionError('unique_min_below called is_inv_normal')
    monkeypatch.setattr(Poset, 'is_inv_normal', refuse)
    for poset, got in want:
        assert reports.unique_min_below(poset, None) == got


def test_each_condition_carries_its_own_witness():
    rep = stone_report(v3())
    assert {c.label: c.witness for c in rep.conditions} == {
        'lattice_stone': None,
        'closures_open': frozenset({0}),
        'confluent': (2, 0, 1),
        'unique_min_below': 2,
        'min_map_spectral': None,
        'min_retraction': None,
    }
    # the report's witness is the first one in condition order
    assert rep.witness == rep.conditions[1].witness
    with pytest.raises(TypeError):
        ConditionReport('demo', (), witness=0)


def test_reports_survive_pickling():
    rep = stone_report(v3())
    again = pickle.loads(pickle.dumps(rep))
    assert again == rep and again.witness == rep.witness
    assert again.conditions[2] == Condition('confluent', False, '', (2, 0, 1))


def test_stone_report_on_chain_all_true():
    rep = stone_report(chain_poset(3))
    assert rep.all_true and rep.agreement
    assert rep.witness is None


def test_qccl_report_on_l3_all_false():
    rep = qccl_stone_report(l3())
    assert rep.verdicts == {
        'upset_lattice_stone': False,
        'inverse_closures_clopen': False,
        'normal_and_upset_lattice_pc': False,
        'normal_and_max_patch_closed': False,
    }
    assert rep.agreement and not rep.all_true
    assert rep.witness == frozenset({1})


def test_pc_and_heyting_always_true_small():
    # open-set lattices of finite spaces are Heyting, hence pseudocomplemented
    for p in each_poset(4):
        assert pc_space_report(p).all_true
        assert heyting_report(p).all_true


def test_powerset_readings_match_set_family_scans():
    posets = [Poset.from_up_rows(rows) for n in range(5)
              for rows in kernels.labeled_stream(n)]
    posets += list(each_poset(6))
    for p in posets:
        for q in (p, p.dual()):
            assert constructible_closures(q, None) == bf.constructible_closures_by_scan(q.up)
            assert inverse_closure_is_patch(q, None) == \
                bf.inverse_closure_is_patch_by_scan(q.up)


def test_heyting_report_keeps_no_subset_tables():
    # the powerset readings build their closure tables per call; the report
    # cache keeps the poset alive, so a table kept on it would stay too
    heyting_report.cache_clear()
    p = chain_poset(7)
    assert heyting_report(p).all_true
    # the up-set masks are the dual's down-set masks, kept by the dual alone
    assert sorted(vars(p)) == ['_constructible_blocks', '_dual', 'down',
                               'downset_masks_all', 'full', 'n', 'up']
    assert sorted(vars(p.dual())) == ['_dual', 'down', 'downset_masks_all', 'full',
                                      'n', 'up']
    for q in (p, p.dual()):
        for value in vars(q).values():
            assert not isinstance(value, (tuple, list)) or len(value) < 1 << p.n


def _fails_when(modulus, residue):
    'A mask predicate that fails exactly on the masks congruent to residue.'
    return lambda self, mask: mask % modulus != residue


# Each reading that scans a family of sets, its set-by-set reference,
# whether it holds on every finite poset, and the Poset methods replaced
# to make it fail on some sets
SET_SCAN_READINGS = (
    (reports.closed_subspaces_pc, bf.closed_subspaces_pc_one_by_one, True, {}),
    (reports.closures_constructible, bf.closures_constructible_one_by_one, True,
     {'is_constructible_mask': _fails_when(3, 1)}),
    (reports.regularizations_compact_open, bf.regularizations_compact_open_one_by_one, True,
     {'is_compact_mask': _fails_when(5, 3)}),
    (reports.closures_open, bf.closures_open_one_by_one, False,
     {'is_down_set_mask': _fails_when(7, 2)}),
    (reports.downclosures_open, bf.downclosures_open_one_by_one, True,
     {'is_down_set_mask': _fails_when(7, 2)}),
    (reports.downclosures_clopen, bf.downclosures_clopen_one_by_one, False,
     {'is_clopen_mask': _fails_when(7, 3)}),
    (reports.inverse_closure_is_patch, bf.inverse_closure_is_patch_one_by_one, True,
     {'patch_closure_mask': lambda self, mask: mask if mask % 7 != 5 else -1}),
    (reports.max_sets_patch_closed, bf.max_sets_patch_closed_one_by_one, True,
     {'is_patch_closed_mask': _fails_when(5, 2)}),
    (reports.min_sets_compact, bf.min_sets_compact_one_by_one, True,
     {'is_compact_mask': _fails_when(5, 3)}),
)


def _subspace_inputs(classes, labeled):
    'Every class up to classes points with its dual, then every labeled poset.'
    for p in each_poset(classes):
        yield p
        yield p.dual()
    for n in range(labeled + 1):
        yield from enumerate_posets(n, 'labeled')


def test_subspace_readings_match_one_set_at_a_time():
    for p in _subspace_inputs(6, 4):
        for reading, reference, always, _ in SET_SCAN_READINGS:
            got = reading(p, None)
            assert got == reference(p)
            assert got == (True, None) or not always


def test_subspace_readings_name_the_first_failing_set(monkeypatch):
    # most readings hold on every finite poset, so the predicates are made
    # to fail on some sets: the shared tests must still name the same culprit
    class Verdict:
        def __init__(self, all_true):
            self.all_true = all_true

    # isomorphism-invariant, so the subspaces' numbering cannot matter
    monkeypatch.setattr(reports, 'pc_space_report', lambda q: Verdict(
        q.n < 2 or q.maximal_mask.bit_count() != 1))
    seen = [set() for _ in SET_SCAN_READINGS]
    for p in _subspace_inputs(5, 4):
        for (reading, reference, _, broken), got in zip(SET_SCAN_READINGS, seen):
            with monkeypatch.context() as patched:
                for name, method in broken.items():
                    patched.setattr(Poset, name, method)
                want = reference(p)
                assert reading(p, None) == want
            got.add(want)
    # each reading holds on some inputs and names several culprits on others
    assert all(len(got) > 5 and (True, None) in got for got in seen)


def test_closed_subspaces_are_renumbered_in_a_linear_extension():
    for p in each_poset(5):
        masks = []
        for c, sub in reports.closed_subspaces(p):
            masks.append(c)
            assert are_isomorphic(sub, p.induced_mask(c)[0])
            if c == p.full:
                # the whole space keeps the poset's numbering, on a copy
                assert sub == p and sub is not p
            else:
                assert all(row & ((1 << k) - 1) == 0 for k, row in enumerate(sub.up))
        assert masks == list(p.upset_masks_all)


def test_isomorphic_closed_subspaces_share_one_pc_space_report():
    # three disjoint 2-chains: each up-set takes nothing, the top or the
    # whole of each chain, so its 27 closed subspaces fall in 10 classes
    p = Poset(6, [(0, 1), (2, 3), (4, 5)])
    classes = {p.induced_mask(c)[0].canonical_rows for c in p.upset_masks_all}
    assert (len(p.upset_masks_all), len(classes)) == (27, 10)
    pc_space_report.cache_clear()
    heyting_report.cache_clear()
    assert heyting_report(p).all_true
    assert pc_space_report.cache_info().misses == 10


def test_subspace_readings_test_each_distinct_set_once(monkeypatch):
    # every down-set is regularized, but a closure or regularization that
    # several down-sets share is tested once
    calls = {name: [] for name in ('is_constructible_mask', 'regularize_mask',
                                   'is_compact_mask')}
    for name, log in calls.items():
        def logged(self, mask, _log=log, _test=getattr(Poset, name)):
            _log.append(mask)
            return _test(self, mask)
        monkeypatch.setattr(Poset, name, logged)
    shared = 0
    for p in each_poset(5):
        downsets = p.downset_masks_all
        closures = {p.up_closure_mask(d) for d in downsets}
        regular = {p.regularize_mask(d) for d in downsets}
        for log in calls.values():
            log.clear()
        assert reports.closures_constructible(p, None) == (True, None)
        assert reports.regularizations_compact_open(p, None) == (True, None)
        assert sorted(calls['is_constructible_mask']) == sorted(closures)
        assert calls['regularize_mask'] == list(downsets)
        assert sorted(calls['is_compact_mask']) == sorted(regular)
        shared += len(closures) < len(downsets) and len(regular) < len(downsets)
    assert shared > 0


def test_collapse_gating_on_v3():
    '''A failed hypothesis leaves verdicts mixed but agreement vacuous.'''
    rep = collapse_report(v3(), 'min_side')
    assert rep.hypotheses == (('collapse', False),)
    assert not rep.hypothesis_satisfied
    assert rep.verdicts == {
        'boolean_space': False,
        'downset_lattice_stone': False,
        'esakia': True,
        'pc_space': True,
        'min_points_patch_closed': True,
    }
    assert rep.agreement
    assert not rep.all_true


def test_collapse_all_true_on_antichains():
    for p in (a2(), chain_poset(1), antichain(3)):
        for direction in ('min_side', 'max_side'):
            rep = collapse_report(p, direction)
            assert rep.hypothesis_satisfied
            assert rep.all_true and rep.agreement


def test_collapse_direction_validated():
    with pytest.raises(InputError):
        collapse_report(v3(), 'sideways')


def test_root_forest_hypotheses():
    assert root_forest_report(v3()).hypothesis_map == {
        'root_side': True, 'forest_side': False}
    assert root_forest_report(l3()).hypothesis_map == {
        'root_side': False, 'forest_side': True}
    assert root_forest_report(d4()).hypothesis_map == {
        'root_side': False, 'forest_side': False}
    # at this scale both sides hold outright whenever they apply
    for p in each_poset(4):
        rep = root_forest_report(p)
        assert rep.agreement and rep.all_true


def test_condition_lookup():
    rep = stone_report(v3())
    assert rep.condition('lattice_stone') is False
    with pytest.raises(InputError):
        rep.condition('no_such_reading')


def test_gating_semantics_direct():
    # ungated false condition breaks agreement; gated one does not
    conditions = (Condition('a.x', True, 'a'), Condition('b.y', False, 'b'))
    gated = ConditionReport('demo', conditions, (('a', True), ('b', False)))
    assert gated.agreement and not gated.all_true
    assert not gated.hypothesis_satisfied
    open_rep = ConditionReport('demo', conditions, (('a', True), ('b', True)))
    assert not open_rep.agreement
    assert open_rep.hypothesis_satisfied


def test_generic_complement_frozen():
    assert generic_complement(v3(), {0}) == frozenset({1})
    assert generic_complement(v3(), frozenset()) == frozenset({0, 1, 2})
    assert generic_complement(v3(), {0, 1}) == frozenset()


def test_generic_complement_needs_down_set():
    with pytest.raises(PreconditionError):
        generic_complement(v3(), {2})


def test_generic_complement_properties():
    '''Disjoint from U, dense union, minimal points split exactly.'''
    for p in each_poset(4):
        for u_mask in p.downset_masks_all:
            u = p.set_of(u_mask)
            v = generic_complement(p, u)
            assert v is not None
            v_mask = p.mask_of(v)
            assert u_mask & v_mask == 0
            assert p.is_down_set_mask(v_mask)
            assert p.is_dense_mask(u_mask | v_mask)
            mins = p.minimal_mask
            assert (u_mask & mins) | (v_mask & mins) == mins


def test_classify_frozen_profiles():
    assert PROFILE_FLAGS == ('boolean', 'heyting', 'stone', 'pseudocomplemented',
                             'root_system', 'forest', 'stranded', 'confluent',
                             'inv_normal', 'normal')
    assert classify(v3()).as_dict() == {
        'boolean': False, 'heyting': True, 'stone': False,
        'pseudocomplemented': True, 'root_system': True, 'forest': False,
        'stranded': False, 'confluent': False, 'inv_normal': False,
        'normal': True}
    assert classify(l3()).as_dict() == {
        'boolean': False, 'heyting': True, 'stone': True,
        'pseudocomplemented': True, 'root_system': False, 'forest': True,
        'stranded': False, 'confluent': True, 'inv_normal': True,
        'normal': False}
    assert classify(d4()).as_dict() == {
        'boolean': False, 'heyting': True, 'stone': True,
        'pseudocomplemented': True, 'root_system': False, 'forest': False,
        'stranded': False, 'confluent': True, 'inv_normal': True,
        'normal': True}
    assert all(classify(a2()).as_dict().values())
    profile = classify(c2()).as_dict()
    assert not profile.pop('boolean')
    assert all(profile.values())


def test_theorem_report_dispatch():
    for name in THEOREMS:
        assert theorem_report(v3(), name).theorem == name
    with pytest.raises(InputError):
        theorem_report(v3(), 'fermat')


def test_sweep_counts_and_first_failures():
    summary = sweep(3)
    assert [(r.n, r.count, r.disagreements) for r in summary.rows] == [
        (0, 1, 0), (1, 1, 0), (2, 2, 0), (3, 5, 0)]
    assert summary.total_posets == 9
    assert summary.total_disagreements == 0
    assert all(count == 0 for _, count in summary.theorem_disagreements)
    first_stone = summary.first_failure('stone')
    assert (first_stone.n, first_stone.index) == (3, 4)
    assert are_isomorphic(Poset(first_stone.n, first_stone.covers), v3())
    first_normal = summary.first_failure('normal')
    assert are_isomorphic(Poset(first_normal.n, first_normal.covers), l3())
    assert summary.first_failure('heyting') is None
    assert {f.flag for f in summary.first_failures} <= set(PROFILE_FLAGS)


def test_sweep_parallel_is_identical():
    assert sweep(4, jobs=2) == sweep(4)


def test_sweep_validates_arguments():
    with pytest.raises(InputError):
        sweep(3, jobs=0)
    with pytest.raises(InputError):
        sweep(3, mode='bogus')
    with pytest.raises(ResourceLimitError):
        sweep(99)


def test_sweep_refuses_jobs_past_the_cap_before_any_pool(monkeypatch, capsys):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError('no worker pool may start')

    monkeypatch.setattr(multiprocessing, 'Pool', no_pool)
    with pytest.raises(ResourceLimitError, match='MAX_JOBS'):
        sweep(0, jobs=MAX_JOBS + 1)
    assert cli.main(['sweep', '0', '--jobs', '100000']) == 3
    assert 'capped at %d (MAX_JOBS)' % MAX_JOBS in capsys.readouterr().err
    with pytest.raises(AssertionError, match='no worker pool'):
        sweep(0, jobs=MAX_JOBS)


REPORT_CACHES = (pc_space_report, stone_report, qccl_stone_report, heyting_report,
                 root_forest_report, collapse_report)


def _clear_report_caches():
    for fn in REPORT_CACHES:
        fn.cache_clear()


def test_only_quoted_reports_keep_every_poset():
    # readings quote pc-space and heyting on posets swept before, so those
    # two caches keep every swept poset; the other four keep the last 128
    _clear_report_caches()
    sweep(4, 'labeled')
    for fn in (stone_report, qccl_stone_report, root_forest_report, collapse_report):
        assert fn.cache_info().currsize <= 128
    swept = [poset for n in range(5) for poset in enumerate_posets(n, 'labeled')]
    assert len(swept) == 243
    for fn in (pc_space_report, heyting_report):
        before = fn.cache_info()
        for poset in swept:
            fn(poset)
        assert fn.cache_info().misses == before.misses
        assert fn.cache_info().hits == before.hits + len(swept)


def _cache_counts():
    return [(info.hits, info.misses) for info in (
        fn.cache_info() for fn in REPORT_CACHES + (duality._downset_lattice_cached,))]


def test_no_swept_poset_outlives_its_sweep(monkeypatch):
    # the sweep streams each level and the caches key by rows, so once
    # the sweeps end nothing holds a swept poset or its dual; the two
    # point at each other, so only the collector frees them
    refs = []
    stream = reports.enumerate_posets

    def watched(n, mode='unlabeled'):
        for poset in stream(n, mode):
            refs.extend((weakref.ref(poset), weakref.ref(poset.dual())))
            yield poset

    monkeypatch.setattr(reports, 'enumerate_posets', watched)
    sweep(4, 'labeled')
    sweep(5)
    sweep(3, 'labeled', jobs=2)
    gc.collect()
    assert len(refs) == 2 * (243 + 88 + 24)
    assert [ref() for ref in refs if ref() is not None] == []


def test_report_and_lattice_caches_are_keyed_by_rows():
    p = Poset(4, [(0, 2), (1, 2), (1, 3)])
    copy = Poset.from_up_rows(p.up)
    _clear_report_caches()
    duality._downset_lattice_cached.cache_clear()
    assert _cache_counts() == [(0, 0)] * 7
    lattice = duality.downset_lattice(p)
    reports_of_p = [theorem_report(p, theorem) for theorem in THEOREMS]
    before = _cache_counts()
    assert duality.downset_lattice(copy) is lattice
    assert [theorem_report(copy, theorem) for theorem in THEOREMS] == reports_of_p
    # one more hit on each cache, collapse_report's once per side; no miss
    after = _cache_counts()
    assert [hits for hits, _ in after] == [
        hits + gained for (hits, _), gained in zip(before, (1, 1, 1, 1, 1, 2, 1))]
    assert [misses for _, misses in after] == [misses for _, misses in before]
    # the two sides of collapse_report are cached apart
    assert collapse_report(copy, 'min_side') is not collapse_report(copy, 'max_side')
    for fn in REPORT_CACHES + (duality._downset_lattice_cached,):
        fn.cache_clear()
        info = fn.cache_info()
        assert (info.hits, info.misses, info.currsize, info.elements) == (0, 0, 0, 0)


# (flag, n, index, covers) of each first failure and (hits, misses) of the
# six report caches, then the lattice cache, after a sweep from cold caches
FIRST_FAILURES_6 = (
    ('boolean', 2, 1, ((1, 0),)), ('confluent', 3, 4, ((0, 2), (1, 2))),
    ('forest', 3, 4, ((0, 2), (1, 2))), ('inv_normal', 3, 4, ((0, 2), (1, 2))),
    ('normal', 3, 2, ((2, 0), (2, 1))), ('root_system', 3, 2, ((2, 0), (2, 1))),
    ('stone', 3, 4, ((0, 2), (1, 2))), ('stranded', 3, 2, ((2, 0), (2, 1))))
FIRST_FAILURES_LABELED_4 = (
    ('boolean', 2, 1, ((1, 0),)), ('confluent', 3, 6, ((0, 2), (1, 2))),
    ('forest', 3, 6, ((0, 2), (1, 2))), ('inv_normal', 3, 6, ((0, 2), (1, 2))),
    ('normal', 3, 3, ((2, 0), (2, 1))), ('root_system', 3, 3, ((2, 0), (2, 1))),
    ('stone', 3, 6, ((0, 2), (1, 2))), ('stranded', 3, 3, ((2, 0), (2, 1))))
CACHE_COUNTS_6 = [(11811, 784), (0, 406), (0, 406), (1291, 739), (0, 406), (0, 812),
                  (2769, 784)]
CACHE_COUNTS_LABELED_4 = [(2275, 243), (0, 243), (0, 243), (972, 243), (0, 243),
                          (0, 486), (1458, 243)]


@pytest.mark.parametrize('args, firsts, counts', [
    ((6,), FIRST_FAILURES_6, CACHE_COUNTS_6),
    ((4, 'labeled'), FIRST_FAILURES_LABELED_4, CACHE_COUNTS_LABELED_4),
])
def test_streamed_sweep_names_the_same_first_failures(args, firsts, counts):
    for jobs in (1, 2):
        _clear_report_caches()
        duality._downset_lattice_cached.cache_clear()
        summary = sweep(*args, jobs=jobs)
        assert [tuple(item) for item in summary.first_failures] == list(firsts)
        if jobs == 1:
            assert _cache_counts() == counts


def test_flipped_reading_is_counted_as_a_disagreement(monkeypatch, capsys):
    # stone has no hypotheses, so one negated reading breaks every poset
    entry = REGISTRY['stone']
    label, group, reading = entry.readings[2]

    def negated(poset, lattice):
        holds, witness = reading(poset, lattice)
        return not holds, witness

    readings = entry.readings[:2] + ((label, group, negated),) + entry.readings[3:]
    monkeypatch.setitem(REGISTRY, 'stone', entry._replace(readings=readings))
    _clear_report_caches()
    try:
        summary = sweep(3)
        assert dict(summary.theorem_disagreements) == {
            theorem: 9 if theorem == 'stone' else 0 for theorem in THEOREMS}
        assert [row.disagreements for row in summary.rows] == [1, 1, 2, 5]
        assert cli.main(['sweep', '3']) == 1
        assert cli.main(['report', 'stone', 'v3']) == 1
        assert 'agreement: NO' in capsys.readouterr().out
    finally:
        _clear_report_caches()


def test_equal_witness_free_reports_are_one_shared_object():
    # two labelings of the 3-chain are different posets with equal reports
    first, second = Poset(3, [(0, 1), (1, 2)]), Poset(3, [(2, 1), (1, 0)])
    assert first != second
    for theorem in THEOREMS:
        one, two = theorem_report(first, theorem), theorem_report(second, theorem)
        assert one.witness is None
        assert one is two
        assert all(a is b for a, b in zip(one.conditions, two.conditions))


def test_report_with_a_witness_is_not_pooled():
    rep = stone_report(v3())
    assert rep.witness is not None
    assert rep not in reports._REPORTS


def test_labeled_sweep_pools_only_a_few_witness_free_records():
    sweep(4, 'labeled')
    table = reports._REPORTS
    assert all(key is value for key, value in table.items())
    assert all(rep.witness is None for rep in table)
    assert len(table) < 200
