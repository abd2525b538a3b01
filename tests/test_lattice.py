'''Lattice structure: meets, joins, derived algebra, ideals.'''

import gc
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import bruteforce as bf
from finspec import cli, duality, kernels, lattice as lattice_module
from finspec.duality import downset_lattice, inclusion_lattice
from finspec.errors import InputError, PreconditionError, ResourceLimitError
from finspec.fixtures import (antichain, bool_lattice, chain_lattice, chain_poset, d4,
                               l3, m3, n5, v3)
from finspec.lattice import Lattice, LatticeIdeal
from finspec.poset import DOWNSET_CAP, Poset, check_size
from finspec.reports import (THEOREMS, classify, collapse_report, heyting_report,
                             pc_space_report, qccl_stone_report, root_forest_report,
                             stone_report, sweep, theorem_report)


def test_constructor_rejects_non_lattices():
    with pytest.raises(InputError):
        Lattice(0)
    with pytest.raises(InputError):
        # two maximal points, no top
        Lattice(3, [(0, 1), (0, 2)])
    with pytest.raises(InputError):
        # bounded but the middle pairs have no meet
        Lattice(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                    (3, 5), (4, 5)])
    with pytest.raises(InputError):
        Lattice(2, [(0, 1)], bottom=1)
    with pytest.raises(InputError):
        Lattice(2, [(0, 1)], top=0)


def test_meet_join_on_m3():
    lat = m3()
    assert lat.bottom == 0 and lat.top == 4
    assert lat.meet(1, 2) == 0
    assert lat.join(1, 2) == 4
    assert lat.meet(1, 4) == 1
    assert lat.join(0, 3) == 3
    assert lat.meet(2, 2) == 2


def test_meet_join_against_scan_oracle():
    for lat in (m3(), n5(), chain_lattice(4), bool_lattice(3),
                downset_lattice(v3())):
        n = lat.n
        for a in range(n):
            for b in range(n):
                lower = [x for x in range(n)
                         if lat.leq(x, a) and lat.leq(x, b)]
                best = max((x for x in lower
                            if all(lat.leq(y, x) for y in lower)), default=None)
                assert lat.meet(a, b) == best


def test_distributivity():
    assert chain_lattice(5).is_distributive()
    assert bool_lattice(3).is_distributive()
    for lat in (m3(), n5()):
        assert not lat.is_distributive()
        a, b, c = lat.distributivity_witness()
        left = lat.meet(a, lat.join(b, c))
        right = lat.join(lat.meet(a, b), lat.meet(a, c))
        assert left != right


def test_pseudocomplements_match_scan():
    for lat in (m3(), n5(), chain_lattice(4), bool_lattice(2),
                downset_lattice(v3()), downset_lattice(l3())):
        for a in range(lat.n):
            assert lat.pseudocomplement(a) == bf.pseudocomplement_by_scan(lat, a)


def test_pseudocomplemented_flags():
    assert not m3().is_pseudocomplemented()
    assert n5().is_pseudocomplemented()
    assert chain_lattice(4).is_pseudocomplemented()
    assert downset_lattice(v3()).is_pseudocomplemented()


def test_stone_flags():
    assert chain_lattice(4).is_stone()
    assert bool_lattice(3).is_stone()
    assert not m3().is_stone()
    assert not downset_lattice(v3()).is_stone()
    assert downset_lattice(l3()).is_stone()


def test_implications_match_scan():
    for lat in (m3(), n5(), chain_lattice(3), downset_lattice(v3())):
        for a in range(lat.n):
            for b in range(lat.n):
                assert lat.implication(a, b) == bf.implication_by_scan(lat, a, b)


def test_heyting_flags():
    assert chain_lattice(4).is_heyting()
    assert bool_lattice(2).is_heyting()
    assert not m3().is_heyting()
    assert not n5().is_heyting()
    assert downset_lattice(v3()).is_heyting()


def test_boolean_flags():
    assert bool_lattice(0).is_boolean()
    assert bool_lattice(3).is_boolean()
    assert chain_lattice(1).is_boolean()
    assert chain_lattice(2).is_boolean()
    assert not chain_lattice(3).is_boolean()
    assert not m3().is_boolean()  # complemented but not distributive
    assert not n5().is_boolean()


def test_join_irreducibles():
    assert downset_lattice(v3()).join_irreducibles() == [1, 2, 4]
    assert m3().join_irreducibles() == [1, 2, 3]
    assert chain_lattice(4).join_irreducibles() == [1, 2, 3]


def test_ideal_validation():
    lat = m3()
    with pytest.raises(InputError):
        LatticeIdeal(lat, [])
    with pytest.raises(InputError):
        LatticeIdeal(lat, [1])  # bottom missing: not down-closed
    with pytest.raises(InputError):
        LatticeIdeal(lat, [0, 1, 2])  # 1 v 2 = top absent
    ideal = LatticeIdeal(lat, [0, 1])
    # proper, but 2 ^ 3 = 0 falls inside, so not prime; M3 has none
    assert ideal.is_proper() and not ideal.is_prime()
    assert not LatticeIdeal(lat, range(5)).is_proper()
    chain = chain_lattice(3)
    assert LatticeIdeal(chain, [0]).is_prime()
    assert LatticeIdeal(bool_lattice(2), [0, 1]).is_prime()
    assert not LatticeIdeal(bool_lattice(2), [0]).is_prime()


def test_prime_ideals_match_subset_filter():
    lattices = [m3(), n5(), chain_lattice(1), chain_lattice(4),
                bool_lattice(2), bool_lattice(3)]
    for n in range(5):
        for rows in kernels.labeled_stream(n):
            from finspec.poset import Poset
            lattices.append(downset_lattice(Poset.from_up_rows(rows)))
    for lat in lattices:
        got = sorted(ideal.mask for ideal in lat.prime_ideals())
        assert got == sorted(bf.prime_ideals_by_filter(lat))


def test_prime_ideal_routes_agree_when_distributive():
    from finspec.poset import Poset
    for n in range(5):
        for rows in kernels.labeled_stream(n):
            lat = downset_lattice(Poset.from_up_rows(rows))
            scan = sorted(ideal.mask for ideal in lat.prime_ideals())
            via_ji = sorted(ideal.mask
                            for ideal in lat.prime_ideals_via_irreducibles())
            assert scan == via_ji


def test_n5_prime_ideals_make_an_antichain():
    lat = n5()
    masks = [ideal.mask for ideal in lat.prime_ideals()]
    assert masks == [0b00101, 0b01011]
    first, second = lat.prime_ideals()
    assert first.mask & ~second.mask != 0
    assert second.mask & ~first.mask != 0


def test_minimal_primes_and_coprimality():
    low = downset_lattice(v3())
    witness = low.non_coprime_witness()
    assert witness is not None
    first, second = witness
    assert {first.mask, second.mask} == {0b00011, 0b00101}
    assert not low.minimal_primes_coprime()

    assert downset_lattice(l3()).minimal_primes_coprime()
    assert bool_lattice(2).minimal_primes_coprime()


def test_lattice_size_cap():
    # refused before any table is built; DOWNSET_CAP also keeps every
    # table entry inside two bytes
    with pytest.raises(ResourceLimitError, match='lattice size capped at %d'
                       % DOWNSET_CAP):
        Lattice.from_up_rows([1] * (DOWNSET_CAP + 1))
    # and before the order is closed: the relation is never read
    def relation():
        raise AssertionError('the relation was read')
        yield

    with pytest.raises(ResourceLimitError, match='got %d' % (DOWNSET_CAP + 1)):
        Lattice(DOWNSET_CAP + 1, relation())


def test_inclusion_lattice_refuses_before_the_pair_loop(monkeypatch):
    def pair_loop(masks):
        raise AssertionError('inclusion_rows ran')

    monkeypatch.setattr(kernels, 'inclusion_rows', pair_loop)
    with pytest.raises(ResourceLimitError, match='got %d' % (DOWNSET_CAP + 1)):
        inclusion_lattice(range(DOWNSET_CAP + 1))


def test_each_way_into_a_lattice_checks_the_cap_once(monkeypatch):
    rows, covers = m3().up, m3().order_poset().covers()
    checked = []

    def counted(kind, size):
        checked.append(size)
        check_size(kind, size)

    monkeypatch.setattr(lattice_module, 'check_size', counted)
    monkeypatch.setattr(duality, 'check_size', counted)
    Lattice.from_up_rows(rows)
    assert checked == [5]
    Lattice(5, covers)
    assert checked == [5, 5]
    inclusion_lattice((0, 1, 2, 3))
    assert checked == [5, 5, 4]


def test_fixture_sizes_below_range_are_refused_as_input():
    # Poset and Lattice refuse them; the fixtures repeat no check
    for build, k in ((chain_poset, -1), (antichain, -1), (chain_lattice, 0),
                     (bool_lattice, -1)):
        with pytest.raises(InputError):
            build(k)


def test_m3_has_no_prime_ideals():
    assert m3().prime_ideals() == []
    assert m3().minimal_prime_ideals() == []
    assert m3().minimal_primes_coprime()  # vacuously


def test_labels():
    lat = Lattice(2, [(0, 1)], labels=('bot', 'top'))
    assert lat.label(0) == 'bot' and lat.label(1) == 'top'
    assert chain_lattice(2).label(1) == '1'
    down = downset_lattice(v3())
    assert down.label(0) == '{}'
    assert down.label(down.top) == '{0,1,2}'


def test_dual_lattice():
    lat = n5()
    dual = lat.dual()
    assert dual.bottom == lat.top and dual.top == lat.bottom
    assert dual.meet(1, 2) == lat.join(1, 2)
    assert dual.dual() == lat


def test_pickle_round_trip():
    lat = downset_lattice(v3())
    back = pickle.loads(pickle.dumps(lat))
    assert back == lat
    assert back.label(1) == lat.label(1)


def test_residuation_law_on_heyting_cases():
    for lat in (chain_lattice(4), bool_lattice(2), downset_lattice(v3())):
        for a in range(lat.n):
            arrow_bottom = lat.implication(a, lat.bottom)
            assert arrow_bottom == lat.pseudocomplement(a)
            for b in range(lat.n):
                arrow = lat.implication(a, b)
                for x in range(lat.n):
                    assert lat.leq(x, arrow) == lat.leq(lat.meet(a, x), b)


# ----------------------------------------------------------------------
# table-driven predicates against pair-set scans


def _renumbered(rel, perm):
    return {(perm[i], perm[j]) for i, j in rel}


def _out_of_order(lat):
    'Whether the numbering is no linear extension: some j > i lies below i.'
    return any(row >> i + 1 for i, row in enumerate(lat.down))


def _product_rel(left, right):
    'Order of the product lattice on pairs (x, y) numbered x * right.n + y.'
    k = right.n
    return {(x * k + y, x2 * k + y2)
            for x in range(left.n) for y in range(k)
            for x2 in range(left.n) for y2 in range(k)
            if left.leq(x, x2) and right.leq(y, y2)}


def _table_cases():
    '''Orders as (n, rel): down-set lattices, then M3, N5 and B2 products as
    built and renumbered; the B2 ones are the renumbered Heyting cases.'''
    for n in range(5):
        for rows in kernels.labeled_stream(n):
            lat = downset_lattice(Poset.from_up_rows(rows))
            yield lat.n, bf.rel_of_rows(lat.up)
    rng = random.Random(4)
    for base in (m3(), n5(), bool_lattice(2)):
        for chain in (chain_lattice(1), chain_lattice(2), chain_lattice(3)):
            rel = _product_rel(base, chain)
            size = base.n * chain.n
            yield size, rel
            for _ in range(3):
                perm = list(range(size))
                rng.shuffle(perm)
                yield size, _renumbered(rel, perm)


def _assert_implications_match_scan(lat):
    '''Every a -> b equals the pair scan, and the Heyting witness is the
    first gap of the implication table in row-major order.'''
    n = lat.n
    want = bf.implication_table_by_scan(lat)
    assert [[lat.implication(a, b) for b in range(n)] for a in range(n)] == want
    assert lat.implication_table() == want
    first_gap = next((divmod(i, n) for i, got in enumerate(lat._implications)
                      if got < 0), None)
    assert lat.heyting_witness() == first_gap
    assert lat.is_heyting() == (first_gap is None)


def test_table_predicates_match_pair_scans():
    renumbered_kinds = set()
    for n, rel in _table_cases():
        lat = Lattice(n, sorted(rel))
        if _out_of_order(lat):
            renumbered_kinds.add(lat.is_heyting())
        meet, join = bf.bound_tables(n, rel)
        assert lat.distributivity_witness() == bf.first_distributivity_failure(meet, join)
        _assert_implications_match_scan(lat)
    # numberings that are no linear extension ran on Heyting lattices and on others
    assert renumbered_kinds == {True, False}


def _closure_system_cases(rng, count):
    '''Orders as (n, rel): random intersection-closed families on up to 6
    points plus the full set, ordered by inclusion, each as built and renumbered.'''
    for _ in range(count):
        k = rng.randint(1, 6)
        full = (1 << k) - 1
        family = {full} | {rng.randrange(1 << k) for _ in range(rng.randint(1, 4 * k))}
        while True:
            grown = family | {s & t for s in family for t in family}
            if grown == family:
                break
            family = grown
        sets_ = sorted(family)
        n = len(sets_)
        rel = {(i, j) for i in range(n) for j in range(n) if sets_[i] & ~sets_[j] == 0}
        perm = list(range(n))
        rng.shuffle(perm)
        yield n, rel
        yield n, _renumbered(rel, perm)


def test_heyting_witness_matches_scan_on_closure_systems():
    # the kernel reads the meet table and the order; the scan tests every
    # x for every pair, so the two share nothing but the lattice
    failures = 0
    renumbered_kinds = set()
    for n, rel in _closure_system_cases(random.Random(12), 150):
        assert n <= 64
        lat = Lattice(n, sorted(rel))
        failures += not lat.is_heyting()
        if _out_of_order(lat):
            renumbered_kinds.add(lat.is_heyting())
        _assert_implications_match_scan(lat)
    assert failures > 0 and renumbered_kinds == {True, False}


def _bounded_orders():
    '''Orders as (n, rel): a fresh bottom and top around every labeled order
    on up to 4 points, each as built and renumbered; many are not lattices.'''
    rng = random.Random(5)
    for k in range(5):
        for rows in kernels.labeled_stream(k):
            n = k + 2
            rel = {(i + 1, j + 1) for i, j in bf.rel_of_rows(rows)}
            rel |= {(0, x) for x in range(n)} | {(x, n - 1) for x in range(n)}
            perm = list(range(n))
            rng.shuffle(perm)
            yield n, rel
            yield n, _renumbered(rel, perm)


def _bounded_lattices():
    'The lattices among _bounded_orders.'
    for n, order in _bounded_orders():
        if bf.first_missing_bound(n, order) is None:
            yield Lattice(n, sorted(order))


def _empty_pool():
    '''Clear the down-set lattice cache and the report caches, then
    collect, so no lattice of sets that earlier work left alive shares
    its tables and verdicts with the next one built.'''
    for fn in (pc_space_report, stone_report, qccl_stone_report, heyting_report,
               root_forest_report, collapse_report, duality._downset_lattice_cached):
        fn.cache_clear()
    gc.collect()
    assert not duality._orders


def _record_lattices(monkeypatch):
    '''The list of every lattice built from here on: each one validated
    (Lattice._adopt), and each one inclusion_lattice returns, since a copy
    of a live lattice's order skips _adopt.'''
    built = []
    adopt, of_sets = Lattice._adopt, duality.inclusion_lattice

    def recording(self, *args):
        adopt(self, *args)
        built.append(self)

    def returned(masks):
        lattice = of_sets(masks)
        built.append(lattice)
        return lattice

    monkeypatch.setattr(Lattice, '_adopt', recording)
    monkeypatch.setattr(duality, 'inclusion_lattice', returned)
    return built


def _record_table_builds(monkeypatch):
    '''The rows, as tuples, that each kernels.meet_table call receives from
    here on: a lattice's down rows build its meet table, its up rows a
    join table.'''
    given = []
    build = kernels.meet_table
    monkeypatch.setattr(kernels, 'meet_table',
                        lambda rows: given.append(tuple(rows)) or build(rows))
    return given


def _join_tables_built(lattices, given):
    '''The lattices of two or more elements whose up rows some recorded
    meet_table call received; one element's up and down rows are equal.'''
    ups = set(given)
    return [lat for lat in lattices if lat.n > 1 and lat.up in ups]


def _class_lattices(points):
    '''Down-set and up-set lattices of every class up to points points,
    built from an empty pool: distributive, and Stone on some classes
    only.'''
    _empty_pool()
    for n in range(points + 1):
        for rows in kernels.unlabeled_reps(n):
            poset = Poset.from_up_rows(rows)
            yield inclusion_lattice(poset.downset_masks_all)
            yield inclusion_lattice(poset.upset_masks_all)


def test_joins_match_the_bound_scan():
    # join() looks up the up row of common upper bounds; the oracle scans
    # the common upper bounds of each pair in the bare relation for a least
    # one.  Renumbered and non-distributive lattices included
    lattices = [Lattice(n, sorted(rel)) for n, rel in _table_cases()]
    lattices += _bounded_lattices()
    assert any(not lat.is_distributive() for lat in lattices)
    assert any(_out_of_order(lat) for lat in lattices)
    for lat in lattices:
        join = bf.bound_tables(lat.n, bf.rel_of_rows(lat.up))[1]
        assert [[lat.join(a, b) for b in range(lat.n)] for a in range(lat.n)] == join


def test_scan_past_256_elements_builds_no_join_table(monkeypatch):
    # the scan reads one-byte tables: it refuses a larger lattice before it
    # builds a join table, and caches no witness.  On m3 the recorder sees
    # the one join table the scan builds
    small, large = m3(), (bool_lattice(9), chain_lattice(257))
    given = _record_table_builds(monkeypatch)
    for lat in large:
        with pytest.raises(ResourceLimitError, match='^distributivity scan reads one-byte '
                           'tables, at most 256 elements; got %d$' % lat.n):
            lat.distributivity_witness()
        assert '_distributive_witness' not in vars(lat)
    assert given == []
    assert small.distributivity_witness() is not None and given == [small.up]


def test_constructor_names_first_missing_bound():
    rejected = 0
    for n, order in _bounded_orders():
        want = bf.first_missing_bound(n, order)
        if want is None:
            assert Lattice(n, sorted(order)).n == n
            continue
        rejected += 1
        with pytest.raises(InputError) as exc:
            Lattice(n, sorted(order))
        assert str(exc.value) == 'not a lattice: %d and %d have no %s' % want
    assert rejected > 0
    # 1 and 2 lack both bounds, over 3, 4 and under 5, 6: the meet is named
    crown = [(3, 1), (3, 2), (4, 1), (4, 2), (1, 5), (1, 6), (2, 5), (2, 6)]
    crown += [(0, x) for x in range(8)] + [(x, 7) for x in range(8)]
    assert bf.first_missing_bound(8, bf.closure_pairs(8, crown)) == (1, 2, 'meet')
    with pytest.raises(InputError, match='^not a lattice: 1 and 2 have no meet$'):
        Lattice(8, crown)


def _stone_by_joins(lat, pseudocomplements):
    'Every a* v a** is the top, read through Lattice.join.'
    return None not in pseudocomplements and all(
        lat.join(p, pseudocomplements[p]) == lat.top for p in pseudocomplements)


def test_pseudocomplements_of_bounded_orders_match_scan():
    # the same bounded orders: the atom route of pseudocomplement_vector
    # against a scan, on lattices that are neither distributive nor
    # pseudocomplemented as well as on those that are; and Stone's law on
    # the up rows against Lattice.join, which test_joins_match_the_bound_scan
    # checks, there and on the down-set and up-set lattices of the classes
    kinds = set()
    for lat in _bounded_lattices():
        want = [bf.pseudocomplement_by_scan(lat, a) for a in range(lat.n)]
        got = kernels.pseudocomplement_vector(lat.down, lat.up, lat.bottom)
        assert got == [-1 if x is None else x for x in want]
        stone = _stone_by_joins(lat, want)
        assert lat.is_stone() == stone
        kinds.add((lat.is_distributive(), None not in want, stone))
    assert kinds == {(True, True, True), (True, True, False), (False, True, True),
                     (False, True, False), (False, False, False)}
    stones = set()
    for lat in _class_lattices(6):
        stone = _stone_by_joins(lat, [lat.pseudocomplement(a) for a in range(lat.n)])
        assert lat.is_stone() == stone
        stones.add(stone)
    assert stones == {True, False}


def test_ideal_layer_of_bounded_orders_matches_scans():
    # the ideal layer and Birkhoff's test read the order rows; the oracles
    # scan every subset, the join table and every triple, on lattices that
    # are not distributive as well as on those that are
    distributive = no_primes = not_join_prime = 0
    for lat in _bounded_lattices():
        primes = bf.prime_ideals_by_filter(lat)
        assert [ideal.mask for ideal in lat.prime_ideals()] == primes
        irreducibles = lat.join_irreducibles()
        assert irreducibles == bf.join_irreducibles_by_scan(lat)
        assert ([LatticeIdeal(lat, bf.members(row)).is_prime() for row in lat.down]
                == [row in primes for row in lat.down])
        want = bf.non_coprime_pair_by_scan(lat)
        got = lat.non_coprime_witness()
        assert (None if got is None else (got[0].mask, got[1].mask)) == want
        assert lat.minimal_primes_coprime() == (want is None)
        meet, join = bf.bound_tables(lat.n, bf.rel_of_rows(lat.up))
        scan = bf.first_distributivity_failure(meet, join)
        assert lat.is_distributive() == (scan is None)
        distributive += scan is None
        no_primes += not primes
        failing = [j for j in irreducibles if not bf.is_join_prime_by_scan(lat, j)]
        assert (kernels.join_prime_witness(irreducibles, lat.down, lat.up)
                == (failing or [None])[0])
        if failing:
            not_join_prime += 1
            with pytest.raises(PreconditionError,
                               match='^join-irreducible %d is not join-prime;' % failing[0]):
                lat.prime_ideals_via_irreducibles()
        else:
            assert [ideal.mask for ideal in lat.prime_ideals_via_irreducibles()] == primes
    assert distributive and no_primes and not_join_prime
    for lat in _class_lattices(6):
        scan = bf.first_distributivity_failure(bf.meet_table(lat), bf.join_table(lat))
        assert lat.is_distributive() == (scan is None)


def test_prime_ideals_via_irreducibles_needs_join_prime_irreducibles():
    # 1 <= 2 v 3 in M3 and 3 <= 1 v 2 in N5, so the elements not above them
    # form no ideal; the error names the route's precondition, not the input
    for lat, j in ((m3(), 1), (n5(), 3)):
        with pytest.raises(PreconditionError) as exc:
            lat.prime_ideals_via_irreducibles()
        assert str(exc.value) == (
            'join-irreducible %d is not join-prime; the prime ideals via '
            'join-irreducibles need every join-irreducible join-prime, as in a '
            'distributive lattice' % j)


def test_spectrum_never_builds_a_join_table(monkeypatch):
    # prime ideals, ideal checks, join-irreducibles and the coprimality of
    # the minimal primes read the order rows
    lat = n5()
    given = _record_table_builds(monkeypatch)
    assert duality.spec_poset(lat).n == 2
    assert all(ideal.is_prime() for ideal in lat.prime_ideals())
    assert lat.join_irreducibles() == [1, 2, 3]
    assert lat.minimal_primes_coprime()
    assert _join_tables_built([lat], given) == []


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_relations_build_or_raise_input_error(data):
    # most relations drawn here are no order or no lattice; each must build
    # or raise InputError, and on the lattices that build, a member list is
    # accepted exactly when its set is an ideal of the subset scan
    n = data.draw(st.integers(0, 6), label='n')
    point = st.integers(0, n - 1) if n else st.integers(-1, 1)
    pairs = data.draw(st.lists(st.tuples(point, point), max_size=2 * n), label='pairs')
    if data.draw(st.booleans(), label='stray pair'):
        pairs.append(data.draw(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1))))
    if n and data.draw(st.booleans(), label='bounds'):
        pairs += [(0, x) for x in range(n)] + [(x, n - 1) for x in range(n)]
    try:
        assert Poset(n, pairs).n == n
    except InputError:
        pass
    try:
        lat = Lattice(n, pairs)
    except InputError:
        return
    ideals = bf.ideals_by_filter(lat)
    # free lists, with repeats and out-of-range entries, and the members of
    # uniformly drawn subsets, a few of which are ideals
    lists = st.one_of(st.lists(st.integers(-1, n), max_size=n + 2),
                      st.integers(0, lat.full).map(bf.members))
    for members in data.draw(st.lists(lists, min_size=4, max_size=8), label='lists'):
        mask = sum({1 << m for m in members if 0 <= m < n})
        if all(0 <= m < n for m in members) and mask in ideals:
            assert LatticeIdeal(lat, members).mask == mask
        else:
            with pytest.raises(InputError):
                LatticeIdeal(lat, members)


def test_subspace_lattices_never_build_a_join_table(monkeypatch):
    # the pc-space reports of heyting's closed subspaces read pseudocomplements
    # only, so their lattices stop at the meet table validation built
    _empty_pool()
    built = _record_lattices(monkeypatch)
    given = _record_table_builds(monkeypatch)
    poset = Poset(6, [(0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5)])
    assert heyting_report(poset).all_true
    subspaces = [lat for lat in built if lat is not downset_lattice(poset)]
    assert len(subspaces) > 10
    assert _join_tables_built(subspaces, given) == []


def test_lattice_keeps_its_operation_tables(monkeypatch):
    # a fresh down-set lattice, so no other test has filled its caches:
    # after every verdict it keeps its order, the flat n*n meet table its
    # validation built, its lower covers and the verdicts, and no join
    # table.  A join read keeps nothing; the triple scan builds a join
    # table for itself and keeps only its witness; the order poset comes
    # only when asked for.  From an empty pool, so no live lattice of the
    # same order lends its verdicts
    _empty_pool()
    given = _record_table_builds(monkeypatch)
    lat = inclusion_lattice(Poset(4).downset_masks_all)
    assert given == [lat.down]
    assert lat.is_distributive() and lat.is_heyting() and lat.is_stone()
    assert lat.is_pseudocomplemented() and lat.is_boolean()
    verdicts = [
        '_heyting_witness', '_join_prime_witness', '_lower_covers', '_meet',
        '_pseudocomplements', 'bottom', 'down', 'full', 'labels', 'n', 'top', 'up']
    assert sorted(vars(lat)) == verdicts
    assert len(lat._meet) == lat.n * lat.n == 256
    assert lat._meet.typecode == 'B'
    # element i is the set with mask i
    assert lat.join(1, 2) == 3
    assert sorted(vars(lat)) == verdicts and given == [lat.down]
    assert lat.distributivity_witness() is None
    assert given == [lat.down, lat.up]
    verdicts.append('_distributive_witness')
    assert sorted(vars(lat)) == sorted(verdicts)
    # the implication table is built by the first implication call only
    assert lat.implication(1, 2) == 2 + 4 + 8
    assert sorted(vars(lat)) == sorted(verdicts + ['_implications'])
    assert len(lat._implications) == 256
    order = lat.order_poset()
    assert lat.order_poset() is order and order.down is lat.down
    assert '_order_poset' in vars(lat)


def test_one_lower_covers_walk_per_lattice(monkeypatch):
    # Birkhoff's test, the Heyting pass, the implication table and both
    # prime routes read the covers of one walk
    walks = []
    walk = kernels.lower_covers
    monkeypatch.setattr(kernels, 'lower_covers', lambda down: walks.append(down) or walk(down))
    for lat in (m3(), n5(), chain_lattice(5), Lattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)])):
        del walks[:]
        lat.is_distributive()
        lat.is_heyting()
        lat.implication(0, 0)
        lat.join_irreducibles()
        if lat.is_distributive():
            lat.prime_ideals_via_irreducibles()
        assert walks == [lat.down]


def test_one_table_build_per_lattice(monkeypatch):
    # validation builds the meet table; classify, every verdict and every
    # join read no join table, and only the triple scan builds one, once
    _empty_pool()
    built = _record_table_builds(monkeypatch)
    poset = Poset(4, [(0, 2), (1, 2), (1, 3)])
    lat = downset_lattice(poset)
    assert built == [lat.down]
    assert classify(poset).stone == lat.is_stone()
    assert lat.is_distributive() and not lat.is_boolean()
    assert lat.join(0, 0) == 0
    for a in range(lat.n):
        for b in range(lat.n):
            assert lat.leq(lat.meet(a, b), a) and lat.leq(a, lat.join(a, b))
    assert built == [lat.down]
    assert lat.distributivity_witness() is None
    assert lat.distributivity_witness() is None
    assert built == [lat.down, lat.up]
    assert downset_lattice(poset) is lat
    assert len(built) == 2


def test_one_implication_pass_per_lattice(monkeypatch, capsys):
    # pc-table and all n*n implication calls read one table built by one
    # kernel call (the parent called the kernel once per pair)
    built = []
    build = kernels.implication_index
    monkeypatch.setattr(kernels, 'implication_index',
                        lambda *args: built.append(args) or build(*args))
    assert cli.main(['pc-table', 'm3', '--json']) == 0
    assert '"implication"' in capsys.readouterr().out
    assert len(built) == 1
    lat = m3()
    for a in range(lat.n):
        for b in range(lat.n):
            lat.implication(a, b)
    assert len(built) == 2


def test_verdicts_never_build_the_implication_table(monkeypatch):
    # the pc-space, Stone and Heyting readings stand on their own: none of
    # them may go through the implication table
    def refuse(*args):
        raise AssertionError('implication table built on the verdict path')

    monkeypatch.setattr(kernels, 'implication_index', refuse)
    reports = (pc_space_report, stone_report, heyting_report)
    duality._downset_lattice_cached.cache_clear()
    for report in reports:
        report.cache_clear()
    try:
        for poset in (v3(), l3(), d4(), Poset(3), Poset(4, [(0, 2), (1, 2), (1, 3)])):
            profile = classify(poset)
            lat = downset_lattice(poset)
            assert lat.is_pseudocomplemented() == profile.pseudocomplemented
            assert lat.is_stone() == profile.stone
            assert lat.is_heyting() == profile.heyting
            for report in reports:
                assert report(poset).agreement
        # (pseudocomplemented, Stone, Heyting)
        for lat, want in ((m3(), (False, False, False)), (n5(), (True, True, False)),
                          (bool_lattice(3), (True, True, True)),
                          (chain_lattice(4), (True, True, True))):
            assert (lat.is_pseudocomplemented(), lat.is_stone(), lat.is_heyting()) == want
    finally:
        duality._downset_lattice_cached.cache_clear()
        for report in reports:
            report.cache_clear()


def test_verdicts_never_build_a_join_table(monkeypatch, capsys):
    # every lattice verdict reads the order rows or the meet table; only
    # the triple scan builds a join table.  Every lattice is recorded as it
    # is built, so this covers those the down-set lattice cache holds and
    # those check builds
    built = _record_lattices(monkeypatch)
    given = _record_table_builds(monkeypatch)
    caches = (pc_space_report, stone_report, qccl_stone_report, heyting_report,
              root_forest_report, collapse_report, duality._downset_lattice_cached)
    _empty_pool()
    try:
        sweep(4)
        for poset in (v3(), l3(), d4()):
            for theorem in THEOREMS:
                theorem_report(poset, theorem)
        held = [downset_lattice(Poset.from_up_rows(rows))
                for n in range(5) for rows in kernels.unlabeled_reps(n)]
        assert all(any(lat is other for other in built) for lat in held)
        assert _join_tables_built(built, given) == []
        for name in ('m3', 'n5', 'bool3', 'bool9'):
            assert cli.main(['check', name]) == 0
        capsys.readouterr()
        assert {lat.n for lat in built} >= {5, 8, 512}
        assert _join_tables_built(built, given) == []
    finally:
        for fn in caches:
            fn.cache_clear()
