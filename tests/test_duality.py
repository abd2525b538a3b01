'''Both directions of the finite duality and their failure modes.'''

import pickle

import pytest

from finspec import duality, kernels, reports
from finspec.duality import (ENVELOPE_MAX_POINTS, Isomorphism,
                             boolean_envelope, d_map, downset_lattice,
                             poset_roundtrip, qccl_lattice, spec_poset,
                             stone_roundtrip)
from finspec.errors import InputError, ResourceLimitError
from finspec.fixtures import a2, antichain, bool_lattice, c2, chain_lattice, \
    chain_poset, l3, m3, n5, v3
from finspec.lattice import Lattice, SetLabels
from finspec.poset import DOWNSET_CAP, Poset, are_isomorphic
from test_lattice import _empty_pool, _record_table_builds


def test_downset_lattice_of_v3():
    lat = downset_lattice(v3())
    assert lat.n == 5
    assert v3().downset_masks_all == (0b000, 0b001, 0b010, 0b011, 0b111)
    assert lat.label(3) == '{0,1}'
    assert lat.bottom == 0 and lat.top == 4


def test_set_labels_are_formatted_when_read():
    # a lattice of sets keeps its member masks, not one string per element
    masks = v3().downset_masks_all
    lat = duality.inclusion_lattice(masks)
    assert lat.labels == SetLabels(masks) and lat.labels.masks is masks
    assert list(lat.labels) == ['{}', '{0}', '{1}', '{0,1}', '{0,1,2}']
    assert lat.dual().labels == lat.labels
    assert pickle.loads(pickle.dumps(lat)).labels == lat.labels
    with pytest.raises(InputError, match='need 4 labels, got 5'):
        Lattice(4, [(0, 1), (1, 2), (2, 3)], labels=lat.labels)


def test_inclusion_lattice_refuses_repeated_or_unsorted_sets():
    # element 1 and 2 would each lie below the other
    with pytest.raises(InputError, match='distinct and ascending: 1 follows 1$'):
        duality.inclusion_lattice([0, 1, 1, 3])
    with pytest.raises(InputError, match='distinct and ascending: 1 follows 2$'):
        duality.inclusion_lattice((0, 2, 1, 3))
    lat = duality.inclusion_lattice((0, 1, 2, 3))
    assert lat.n == 4 and lat.meet(1, 2) == 0 and lat.join(1, 2) == 3


def test_downset_lattice_is_cached():
    assert downset_lattice(v3()) is downset_lattice(v3())


def test_qccl_is_dual_of_downsets():
    # exhibit the isomorphism instead of searching for one: complementation
    # maps element i of the down-set lattice to an element of the up-set
    # lattice, reversing order, so it must match the dual exactly
    for n in range(6):
        for rows in kernels.unlabeled_reps(n):
            p = Poset.from_up_rows(rows)
            up = qccl_lattice(p)
            down = downset_lattice(p)
            position = {m: i for i, m in enumerate(p.upset_masks_all)}
            send = [position[p.full ^ m] for m in p.downset_masks_all]
            assert sorted(send) == list(range(up.n))
            for a in range(down.n):
                for b in range(down.n):
                    assert down.leq(a, b) == up.leq(send[b], send[a])


def test_qccl_lattice_is_the_dual_downset_lattice():
    for n in range(6):
        for rows in kernels.unlabeled_reps(n):
            p = Poset.from_up_rows(rows)
            assert qccl_lattice(p) is downset_lattice(p.dual())


def test_labeled_sweep_builds_each_lattice_once(monkeypatch):
    # from an empty pool, the labeled sweep validates each order of sets
    # once, however many labelings carry it, and returns each lattice (its
    # order and its labels) once, since the down-set lattice cache keeps
    # them all
    _empty_pool()
    validated, returned = [], []
    adopt, of_sets = Lattice._adopt, duality.inclusion_lattice

    def counting(self, *args):
        adopt(self, *args)
        validated.append(self.up)

    def recording(masks):
        lattice = of_sets(masks)
        returned.append((lattice.up, lattice.labels))
        return lattice

    monkeypatch.setattr(Lattice, '_adopt', counting)
    monkeypatch.setattr(duality, 'inclusion_lattice', recording)
    reports.sweep(4, mode='labeled')
    assert returned and len(set(returned)) == len(returned)
    assert len(set(validated)) == len(validated)
    assert set(validated) == {up for up, _ in returned}
    assert (len(validated), len(returned)) == (72, 243)


def _classes_and_relabelings(points):
    'Every class up to points points, its dual, and a relabeled copy of each.'
    for n in range(points + 1):
        for rows in kernels.unlabeled_reps(n):
            poset = Poset.from_up_rows(rows)
            for each in (poset, poset.dual()):
                yield each
                yield Poset.from_up_rows(kernels.relabel(each.up, range(n - 1, -1, -1)))


def _order_data(lat):
    'Every table and verdict a lattice reads off its order.'
    return (lat.up, lat.down, lat.bottom, lat.top, lat._meet, lat._pseudocomplements,
            lat.heyting_witness(), lat.is_distributive(), lat.is_stone(), lat.is_boolean())


def test_lattices_of_sets_with_equal_rows_share_exact_order_data(monkeypatch):
    # a second family of sets with the same inclusion order, each set moved
    # up one point, gets the first lattice's tables and verdicts and keeps
    # its own labels; what it computes after that stays its own, and a
    # join it reads builds no join table
    _empty_pool()
    given = _record_table_builds(monkeypatch)
    shared = 0
    for poset in _classes_and_relabelings(5):
        for masks in (poset.downset_masks_all, poset.upset_masks_all):
            lat = duality.inclusion_lattice(masks)
            assert lat.labels.masks is masks
            fresh = _order_data(Lattice.from_up_rows(lat.up))
            assert _order_data(lat) == fresh
            # one of the two was copied from the other when their rows agree
            shared += downset_lattice(poset)._meet is lat._meet
            moved = tuple(s << 1 for s in masks)
            twin = duality.inclusion_lattice(moved)
            assert twin.labels.masks is moved and lat.labels.masks is masks
            assert twin.up is lat.up and twin._meet is lat._meet
            assert twin._pseudocomplements is lat._pseudocomplements
            assert _order_data(twin) == fresh
            assert twin.join(twin.bottom, twin.top) == twin.top
            assert twin.implication(twin.top, twin.bottom) == twin.bottom
            assert '_implications' in vars(twin) and '_implications' not in vars(lat)
            assert lat.n == 1 or lat.up not in given
            del lat, twin
    assert shared > 100


def test_an_order_no_lattice_holds_is_validated_again(monkeypatch):
    validated = []
    build = kernels.meet_table
    monkeypatch.setattr(kernels, 'meet_table',
                        lambda *args: validated.append(args) or build(*args))
    masks = Poset(3, [(0, 2), (1, 2)]).downset_masks_all
    _empty_pool()
    first = duality.inclusion_lattice(masks)
    second = downset_lattice(v3())
    assert second == first and second._meet is first._meet
    assert len(validated) == 1
    # neither held: the cache cleared and no reference left
    del first, second
    _empty_pool()
    again = duality.inclusion_lattice(masks)
    assert len(validated) == 2 and validated[-1] == (again.down,)


def test_the_pool_keeps_an_order_while_any_lattice_holds_it(monkeypatch):
    validated = _record_table_builds(monkeypatch)
    _empty_pool()
    # a transient copy dies while the validated lattice lives in the cache
    held = downset_lattice(antichain(3))
    assert len(validated) == 1
    bool_lattice(3)
    again = bool_lattice(3)
    assert len(validated) == 1 and again._meet is held._meet
    del held, again
    _empty_pool()
    # the validated lattice dies while a copy lives
    masks = Poset(3, [(0, 2), (1, 2)]).downset_masks_all
    first = duality.inclusion_lattice(masks)
    copy = duality.inclusion_lattice(tuple(s << 1 for s in masks))
    assert len(validated) == 2
    del first
    third = duality.inclusion_lattice(masks)
    assert len(validated) == 2 and third._meet is copy._meet
    del copy, third
    _empty_pool()


def _cold_sweeps(cache):
    'sweep(5) and sweep(4, labeled) from empty caches, and the lattice misses.'
    for fn in (reports.pc_space_report, reports.stone_report,
               reports.qccl_stone_report, reports.heyting_report,
               reports.root_forest_report, reports.collapse_report, cache):
        fn.cache_clear()
    summaries = reports.sweep(5), reports.sweep(4, 'labeled')
    return summaries, cache.cache_info().misses


def test_sweeps_that_evict_lattices_agree(monkeypatch):
    # a budget of 64 elements evicts all the way through both sweeps: the
    # summaries stay the same, the cache never holds more and misses more
    cache = duality._downset_lattice_cached
    summaries, misses = _cold_sweeps(cache)
    held = []

    def watched(poset):
        lattice = cache(poset)
        held.append(cache.cache_info().elements)
        return lattice

    monkeypatch.setattr(duality, 'LATTICE_CACHE_ELEMENTS', 64)
    monkeypatch.setattr(duality, '_downset_lattice_cached', watched)
    small_summaries, small_misses = _cold_sweeps(cache)
    assert small_summaries == summaries
    assert held and max(held) <= 64
    assert small_misses > misses


def test_upset_masks_complement_downset_masks():
    p = v3()
    assert set(p.upset_masks_all) == {p.full ^ d for d in p.downset_masks_all}


def test_spec_of_downsets_recovers_the_poset():
    for n in range(6):
        for rows in kernels.unlabeled_reps(n):
            p = Poset.from_up_rows(rows)
            back = spec_poset(downset_lattice(p))
            assert back.n == p.n
            assert poset_roundtrip(p)


def test_poset_roundtrip_matches_the_canonical_form_route():
    for poset in _classes_and_relabelings(6):
        assert poset_roundtrip(poset)
        assert poset.isomorphic_to(spec_poset(downset_lattice(poset)))


def test_poset_roundtrip_of_long_chains_needs_no_canonical_form(monkeypatch):
    # a chain of 17 points is past the canonical search's node budget
    def refuse(*args):
        raise AssertionError('canonical form searched for')

    monkeypatch.setattr(kernels, 'canonical_key', refuse)
    assert poset_roundtrip(chain_poset(17))
    assert poset_roundtrip(chain_poset(64))


def test_poset_roundtrip_fails_on_a_faulty_prime_layer(monkeypatch):
    posets = [Poset.from_up_rows(rows) for n in range(1, 5)
              for rows in kernels.unlabeled_reps(n)]
    prime_ideals = Lattice.prime_ideals
    monkeypatch.setattr(Lattice, 'prime_ideals', lambda lat: prime_ideals(lat)[:-1])
    assert not any(poset_roundtrip(poset) for poset in posets)
    monkeypatch.setattr(Lattice, 'prime_ideals', prime_ideals)
    # the right ideals under a spectrum that forgets their order
    spectrum = duality._spectrum
    monkeypatch.setattr(duality, '_spectrum', lambda primes: Poset(len(primes)))
    assert [poset_roundtrip(poset) for poset in posets] == [
        poset.up == Poset(poset.n).up for poset in posets]
    monkeypatch.setattr(duality, '_spectrum', spectrum)
    assert all(poset_roundtrip(poset) for poset in posets)


def test_spec_of_nondistributive_lattices():
    assert spec_poset(m3()).n == 0
    got = spec_poset(n5())
    assert are_isomorphic(got, antichain(2))


def test_d_map_is_a_bounded_lattice_homomorphism():
    for n in range(5):
        for rows in kernels.unlabeled_reps(n):
            lat = downset_lattice(Poset.from_up_rows(rows))
            primes = lat.prime_ideals()
            assert d_map(lat, lat.bottom) == frozenset()
            assert d_map(lat, lat.top) == frozenset(range(len(primes)))
            for a in range(lat.n):
                for b in range(lat.n):
                    da, db = d_map(lat, a), d_map(lat, b)
                    assert d_map(lat, lat.meet(a, b)) == da & db
                    assert d_map(lat, lat.join(a, b)) == da | db


def test_stone_roundtrip_succeeds_exactly_when_distributive():
    cases = [m3(), n5(), chain_lattice(1), chain_lattice(4), bool_lattice(3)]
    for n in range(5):
        for rows in kernels.unlabeled_reps(n):
            cases.append(downset_lattice(Poset.from_up_rows(rows)))
    for lat in cases:
        iso = stone_roundtrip(lat)
        assert (iso is not None) == lat.is_distributive()


def test_stone_roundtrip_really_is_an_isomorphism():
    lat = downset_lattice(d4_poset())
    iso = stone_roundtrip(lat)
    assert iso is not None
    other = iso.target
    for a in range(lat.n):
        assert iso.backward[iso.forward[a]] == a
        for b in range(lat.n):
            assert lat.leq(a, b) == other.leq(iso.forward[a], iso.forward[b])


def test_stone_roundtrip_finds_the_prime_ideals_once(monkeypatch):
    calls = []
    prime_element_mask = kernels.prime_element_mask

    def counting(*args):
        calls.append(args)
        return prime_element_mask(*args)

    monkeypatch.setattr(kernels, 'prime_element_mask', counting)
    assert stone_roundtrip(bool_lattice(3)) is not None
    assert len(calls) == 1


def d4_poset():
    return Poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_isomorphism_validates_on_construction():
    p = c2()
    with pytest.raises(InputError):
        Isomorphism(p, p, (0, 0), (0, 1))
    with pytest.raises(InputError):
        Isomorphism(p, p.dual(), (0, 1), (0, 1))
    ok = Isomorphism(p, p, (0, 1), (0, 1))
    assert ok.forward == (0, 1)


def test_boolean_envelope_of_chain():
    envelope, embedding = boolean_envelope(c2())
    assert envelope.n == 4
    assert envelope.is_boolean()
    assert embedding == (0, 1, 3)
    lat = downset_lattice(c2())
    # embedding preserves bounds, meets and joins
    assert embedding[lat.bottom] == envelope.bottom
    assert embedding[lat.top] == envelope.top
    for a in range(lat.n):
        for b in range(lat.n):
            assert embedding[lat.meet(a, b)] == envelope.meet(
                embedding[a], embedding[b])
            assert embedding[lat.join(a, b)] == envelope.join(
                embedding[a], embedding[b])


def test_boolean_envelope_of_antichain_is_the_downset_lattice():
    envelope, embedding = boolean_envelope(a2())
    lat = downset_lattice(a2())
    assert envelope.n == lat.n
    assert list(embedding) == list(range(lat.n))
    assert are_isomorphic(envelope.order_poset(), lat.order_poset())


def test_powersets_share_one_builder():
    # bool<k>, the envelope of k points and the down-sets of a k-antichain
    # are one powerset, with the same numbering and labels
    for k in range(5):
        built = [bool_lattice(k), boolean_envelope(antichain(k))[0],
                 downset_lattice(antichain(k))]
        for lat in built:
            assert lat == built[0]
            assert [lat.label(a) for a in range(lat.n)] == [
                '{%s}' % ','.join(str(i) for i in range(k) if s >> i & 1)
                for s in range(1 << k)]


def test_envelope_bounds_preserved_everywhere():
    for n in range(5):
        for rows in kernels.unlabeled_reps(n):
            p = Poset.from_up_rows(rows)
            envelope, embedding = boolean_envelope(p)
            lat = downset_lattice(p)
            assert embedding[lat.bottom] == envelope.bottom
            assert embedding[lat.top] == envelope.top


def test_caps():
    # the largest powerset within DOWNSET_CAP
    assert 2 ** ENVELOPE_MAX_POINTS <= DOWNSET_CAP < 2 ** (ENVELOPE_MAX_POINTS + 1)
    with pytest.raises(ResourceLimitError):
        downset_lattice(antichain(13))
    with pytest.raises(ResourceLimitError):
        boolean_envelope(antichain(ENVELOPE_MAX_POINTS + 1))


def test_spec_numbering_is_by_ascending_member_mask():
    lat = downset_lattice(l3())
    primes = lat.prime_ideals()
    masks = [ideal.mask for ideal in primes]
    assert masks == sorted(masks)
