'''Kernel correctness against oracles.'''

import random
from array import array
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import bruteforce as bf
from finspec import kernels
from finspec.duality import downset_lattice
from finspec.errors import ResourceLimitError
from finspec.lattice import Lattice
from finspec.poset import Poset, are_isomorphic
from test_fileio import random_posets
from test_lattice import _record_table_builds, _table_cases


def test_transitive_closure_matches_pair_oracle():
    cases = [(3, [(0, 1), (1, 2)]),
             (4, [(0, 1), (1, 2), (2, 3)]),
             (5, [(0, 2), (1, 2), (2, 3), (2, 4)]),
             (4, [])]
    for n, pairs in cases:
        rows = [1 << i for i in range(n)]
        for i, j in pairs:
            rows[i] |= 1 << j
        got = kernels.transitive_closure(rows)
        assert bf.rel_of_rows(got) == bf.closure_pairs(n, pairs)


def test_antisymmetry_violation():
    assert kernels.antisymmetry_violation([0b11, 0b11]) == (0, 1)
    assert kernels.antisymmetry_violation([0b01, 0b10]) is None
    assert kernels.antisymmetry_violation([]) is None


def test_transpose_involution():
    rows = [0b00111, 0b00010, 0b11100, 0b01000, 0b11000]
    assert kernels.transpose(kernels.transpose(rows)) == rows


def test_downsets_match_subset_filter():
    for n in range(5):
        for rows in kernels.labeled_stream(n):
            assert kernels.downset_masks(list(rows)) == sorted(
                bf.downsets_by_filter(rows))


def test_downsets_cap():
    anti = [1 << i for i in range(13)]
    with pytest.raises(ResourceLimitError):
        kernels.downset_masks(anti, 4096)
    assert len(kernels.downset_masks(anti)) == 1 << 13


def _renumbered_by_pairs(rows, order):
    'Rows of the points of order, point k being order[k], read off the pair set.'
    rel = {(i, j) for i, row in enumerate(rows) for j in bf.members(row)}
    return [sum(1 << b for b in range(len(order)) if (a, order[b]) in rel)
            for a in order]


def test_relabel_matches_renumbering_by_pairs():
    # every ordering of every subset up to 4 points, every permutation at 5
    for n in range(6):
        lengths = range(n + 1) if n <= 4 else (n,)
        for rows in kernels.unlabeled_reps(n):
            for length in lengths:
                for order in permutations(range(n), length):
                    assert kernels.relabel(rows, order) == _renumbered_by_pairs(rows, order)


def _inclusion_rows_by_pairs(masks):
    'Up and down rows of masks under inclusion, from every pair of sets.'
    pairs = [(i, j) for i, s in enumerate(masks) for j, t in enumerate(masks)
             if set(bf.members(s)) <= set(bf.members(t))]
    up = bf.rows_of_rel(len(masks), pairs)
    down = bf.rows_of_rel(len(masks), [(j, i) for i, j in pairs])
    return list(up), list(down)


def _check_inclusion_rows(masks):
    'Both passes and the one inclusion_rows picks match the pairwise scan.'
    want = _inclusion_rows_by_pairs(masks)
    assert kernels._inclusion_by_columns(masks) == want
    assert kernels._inclusion_by_pairs(masks) == want
    assert kernels.inclusion_rows(masks) == want


def test_inclusion_rows_match_pairwise_subset_scan(monkeypatch):
    # the down-sets and up-sets of every class, and the prime ideals that
    # _spectrum and minimal_prime_ideals order, of its down-set lattice and
    # of the lattices of _table_cases, some of them not distributive; the
    # down-set families take the column pass and the prime families the
    # pair loop
    families = []
    for n in range(7):
        for rows in kernels.unlabeled_reps(n):
            poset = Poset.from_up_rows(rows)
            families += [poset.downset_masks_all, poset.upset_masks_all,
                         [ideal.mask for ideal in downset_lattice(poset).prime_ideals()]]
    for n, rel in _table_cases():
        families.append([ideal.mask for ideal in Lattice(n, sorted(rel)).prime_ideals()])
    for masks in families:
        _check_inclusion_rows(masks)
    picked = set()
    for name in ('_inclusion_by_columns', '_inclusion_by_pairs'):
        run = getattr(kernels, name)
        monkeypatch.setattr(kernels, name,
                            lambda masks, run=run, name=name: picked.add(name) or run(masks))
    for masks in families:
        kernels.inclusion_rows(masks)
    assert picked == {'_inclusion_by_columns', '_inclusion_by_pairs'}


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, (1 << 10) - 1), max_size=40))
@example({0, 1, 3})  # fewer sets than points: the pair loop
@example(set(range(16)))  # more: the column pass
def test_inclusion_rows_of_drawn_families(family):
    _check_inclusion_rows(sorted(family))


def test_canonical_key_constant_under_relabeling():
    from itertools import permutations
    for rows in kernels.labeled_stream(4):
        base = kernels.canonical_key(rows)
        n = len(rows)
        for perm in permutations(range(n)):
            moved = [0] * n
            for i in range(n):
                for j in range(n):
                    if rows[i] >> j & 1:
                        moved[perm[i]] |= 1 << perm[j]
            assert kernels.canonical_key(tuple(moved)) == base


def test_canonical_key_separates_nonisomorphic():
    seen = {}
    for rows in kernels.labeled_stream(4):
        key = kernels.canonical_key(rows)
        if key in seen:
            assert bf.isomorphic_by_search(seen[key], rows)
        else:
            for other_key, other in seen.items():
                assert not bf.isomorphic_by_search(other, rows)
            seen[key] = rows
    assert len(seen) == 16


# OEIS A001035: labeled partial orders on n points
LABELED_COUNTS = [1, 1, 3, 19, 219, 4231]


def test_labeled_counts():
    assert [sum(1 for _ in kernels.labeled_stream(n))
            for n in range(6)] == LABELED_COUNTS


def test_labeled_stream_is_duplicate_free():
    for n in range(5):
        stream = list(kernels.labeled_stream(n))
        assert len(set(stream)) == len(stream) == LABELED_COUNTS[n]


def test_subset_closures_match_closure_masks():
    posets = [Poset.from_up_rows(rows) for n in range(5)
              for rows in kernels.labeled_stream(n)]
    posets += [Poset.from_up_rows(rows) for n in range(7)
               for rows in kernels.unlabeled_reps(n)]
    for p in posets:
        ups, downs = kernels.subset_closures(p.up), kernels.subset_closures(p.down)
        assert len(ups) == len(downs) == 1 << p.n
        for s in range(1 << p.n):
            assert ups[s] == p.up_closure_mask(s)
            assert downs[s] == p.down_closure_mask(s)


def _cover_lists(covers):
    return [list(below) for below in kernels.cover_lists(covers)]


def _covers_by_triples(rows):
    'Per point j, the points i it covers: i < j with nothing strictly between.'
    n = len(rows)
    rel = bf.rel_of_rows(rows)
    return [[i for i in range(n) if i != j and (i, j) in rel
             and not any((i, k) in rel and (k, j) in rel
                         for k in range(n) if k not in (i, j))]
            for j in range(n)]


def test_lower_covers_match_covering_pairs():
    # every labeled order up to 4 points, so every numbering; every class
    # up to 6 points in its own numbering, reversed and shuffled, since
    # the walk visits the highest-numbered point first
    rng = random.Random(3)
    cases = [rows for n in range(5) for rows in kernels.labeled_stream(n)]
    for n in range(7):
        for rows in kernels.unlabeled_reps(n):
            perm = list(range(n))
            rng.shuffle(perm)
            cases += [rows, _relabel(rows, perm), _relabel(rows, perm[::-1]),
                      _relabel(rows, range(n - 1, -1, -1))]
    for rows in cases:
        covers = kernels.lower_covers(Poset.from_up_rows(rows).down)
        assert _cover_lists(covers) == _covers_by_triples(rows)


def test_lower_covers_of_long_chains():
    # a chain of 600 points numbered upwards, downwards and shuffled: each
    # point covers the one just below it
    rng = random.Random(5)
    k = 600
    for perm in (list(range(k)), list(range(k - 1, -1, -1)), rng.sample(range(k), k)):
        down = kernels.transpose(_relabel(_chain(k), perm))
        covers = _cover_lists(kernels.lower_covers(down))
        assert covers[perm[0]] == []
        assert all(covers[perm[i]] == [perm[i - 1]] for i in range(1, k))


def test_lattice_helper_values_on_diamond():
    # B2: bottom 0, atoms 1 and 2, top 3
    down = [0b0001, 0b0011, 0b0101, 0b1111]
    up = [0b1111, 0b1010, 0b1100, 0b1000]
    assert kernels.pseudocomplement_vector(down, up, 0) == [3, 2, 1, 0]
    assert kernels.prime_element_mask(down, up) == 0b0110
    meet = kernels.meet_table(down)[0]
    # flat n*n table, entry a*n + b holding a -> b: (not a) | b on two atoms
    covers = kernels.lower_covers(down)
    assert _cover_lists(covers) == [[], [0], [0], [1, 2]]
    table = kernels.implication_index(meet, down, covers)
    assert table[1 * 4 + 2] == 2
    assert table.tolist() == [3, 3, 3, 3,
                              2, 3, 2, 3,
                              1, 1, 3, 3,
                              0, 1, 2, 3]
    assert kernels.distributive_witness(meet, up) is None
    assert kernels.heyting_witness(meet, down, covers) is None


def test_meet_table_on_down_and_up_rows():
    # B2 again: full tables on a lattice; up rows give the join table
    down = [0b0001, 0b0011, 0b0101, 0b1111]
    up = [0b1111, 0b1010, 0b1100, 0b1000]
    (meet, missing), (join, no_join) = kernels.meet_table(down), kernels.meet_table(up)
    assert missing is None and no_join is None
    # flat n*n tables, entry a*n + b
    assert meet.tolist() == [0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 2, 2, 0, 1, 2, 3]
    assert join.tolist() == [0, 1, 2, 3, 1, 1, 3, 3, 2, 3, 2, 3, 3, 3, 3, 3]
    # one byte per entry up to 256 elements, two bytes above
    for k, code in ((256, 'B'), (257, 'H')):
        chain_down = [(2 << i) - 1 for i in range(k)]
        chain_up = [((1 << k) - 1) ^ ((1 << i) - 1) for i in range(k)]
        (meet, missing), (join, no_join) = (kernels.meet_table(chain_down),
                                            kernels.meet_table(chain_up))
        assert missing is None and no_join is None
        assert meet.typecode == join.typecode == code
        assert len(meet) == len(join) == k * k
        assert (meet[(k - 1) * k + k - 2], join[(k - 1) * k + k - 2]) == (k - 2, k - 1)
    # 0 under 1 and 2: every meet exists, 1 and 2 have no join
    lam_down, lam_up = [0b001, 0b011, 0b101], [0b111, 0b010, 0b100]
    # 0 and 1 under 2: every join exists, 0 and 1 have no meet
    vee_down, vee_up = [0b001, 0b010, 0b111], [0b101, 0b110, 0b100]
    assert kernels.meet_table(lam_down)[1] is None
    assert kernels.meet_table(lam_up) == (None, (1, 2))
    assert kernels.meet_table(vee_down) == (None, (0, 1))
    assert kernels.meet_table(vee_up)[1] is None


def test_lattice_helpers_on_any_numbering():
    # permute the diamond out of linear-extension order; expectations
    # derive from the canonical copy through the permutation itself
    base_down = [0b0001, 0b0011, 0b0101, 0b1111]
    base_up = [0b1111, 0b1010, 0b1100, 0b1000]
    perm = [3, 0, 2, 1]  # canonical index -> shuffled index
    n = 4
    down = [0] * n
    up = [0] * n
    for a in range(n):
        for b in range(n):
            if base_down[a] >> b & 1:
                down[perm[a]] |= 1 << perm[b]
            if base_up[a] >> b & 1:
                up[perm[a]] |= 1 << perm[b]
    base_pc = kernels.pseudocomplement_vector(base_down, base_up, 0)
    want = [0] * n
    for a in range(n):
        want[perm[a]] = perm[base_pc[a]]
    assert kernels.pseudocomplement_vector(down, up, perm[0]) == want
    meet = kernels.meet_table(down)[0]
    assert kernels.distributive_witness(meet, up) is None
    assert kernels.heyting_witness(meet, down, kernels.lower_covers(down)) is None
    assert kernels.prime_element_mask(down, up) == sum(
        1 << perm[i] for i in range(n)
        if kernels.prime_element_mask(base_down, base_up) >> i & 1)


@settings(max_examples=10, deadline=None)
@given(random_posets(max_points=8), st.randoms(use_true_random=False))
def test_renumbering_commutes_with_lattice_kernels(poset, rng):
    # down-set lattices come numbered in a linear extension; renaming
    # element a to perm[a] must rename every kernel result the same way
    lat = downset_lattice(poset)
    n = lat.n
    perm = rng.sample(range(n), n)

    def moved(rows):
        out = [0] * n
        for a, row in enumerate(rows):
            for b in kernels.bit_indices(row):
                out[perm[a]] |= 1 << perm[b]
        return out

    def mapped(table):
        out = [-1] * (n * n)
        for i, got in enumerate(table):
            a, b = divmod(i, n)
            out[perm[a] * n + perm[b]] = -1 if got < 0 else perm[got]
        return out

    base_meet, base_join = kernels.meet_table(lat.down)[0], kernels.meet_table(lat.up)[0]
    down, up = moved(lat.down), moved(lat.up)
    (meet, missing), (join, no_join) = kernels.meet_table(down), kernels.meet_table(up)
    assert missing is None and no_join is None
    assert meet.tolist() == mapped(base_meet)
    assert join.tolist() == mapped(base_join)
    base_pc = kernels.pseudocomplement_vector(lat.down, lat.up, lat.bottom)
    want_pc = [0] * n
    for a, got in enumerate(base_pc):
        want_pc[perm[a]] = perm[got]
    assert kernels.pseudocomplement_vector(down, up, perm[lat.bottom]) == want_pc
    assert (kernels.implication_index(meet, down, kernels.lower_covers(down)).tolist()
            == mapped(kernels.implication_index(base_meet, lat.down, lat._lower_covers)))
    assert kernels.prime_element_mask(down, up) == sum(
        1 << perm[x]
        for x in kernels.bit_indices(kernels.prime_element_mask(lat.down, lat.up)))


def test_distributive_witness_on_byte_and_wide_tables(monkeypatch):
    # a 'B' meet table takes the translate scan, over a join table built
    # from the up rows, which must name the oracle's first failing triple;
    # an 'H' copy of the same table is refused before any join table
    failures = 0
    given = _record_table_builds(monkeypatch)
    for n, rel in _table_cases():
        lat = Lattice(n, sorted(rel))
        want = bf.first_distributivity_failure(*bf.bound_tables(n, rel))
        failures += want is not None
        assert lat._meet.typecode == 'B'
        del given[:]
        assert kernels.distributive_witness(lat._meet, lat.up) == want
        assert given == [lat.up]
        with pytest.raises(ResourceLimitError, match='one-byte tables'):
            kernels.distributive_witness(array('H', lat._meet), lat.up)
        assert given == [lat.up]
    assert failures > 0


def test_kernels_work_past_64_points():
    rows = [1 << i for i in range(70)]
    assert kernels.transitive_closure(rows) == rows
    assert len(kernels.canonical_key(rows)) == 70


def _relabel(rows, perm):
    'Rows of the same order with point i renamed perm[i].'
    moved = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bf.members(row):
            moved[perm[i]] |= 1 << perm[j]
    return tuple(moved)


def _disjoint_sum(*parts):
    'Rows of the disjoint sum of the given row tuples, in order.'
    out = []
    for rows in parts:
        shift = len(out)
        out.extend(row << shift for row in rows)
    return tuple(out)


def _chain(length):
    return tuple(((1 << length) - 1) ^ ((1 << i) - 1) for i in range(length))


def _antichain(size):
    return tuple(1 << i for i in range(size))


@st.composite
def _relabeled_orders(draw):
    '''A partial order, or a sum of two or three equal copies of one, and
    a relabeling of it; at most 12 points, where every such sum stays far
    inside the search budget.'''
    copies = draw(st.integers(1, 3))
    size = draw(st.integers(0, (8, 5, 4)[copies - 1]))
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)
             if draw(st.booleans())]
    part = bf.rows_of_rel(size, bf.closure_pairs(size, pairs))
    rows = _disjoint_sum(*[part] * copies)
    return rows, draw(st.permutations(range(len(rows))))


@settings(deadline=None)
@given(_relabeled_orders())
def test_canonical_key_is_the_least_staircase_string(case):
    rows, perm = case
    key = kernels.canonical_key(rows)
    assert kernels.canonical_key(_relabel(rows, perm)) == key
    if len(rows) <= 5:
        assert key == bf.least_staircase_rows(rows)


def test_seeded_key_of_every_extension_is_the_least_staircase_string():
    # canonical_key seeds its search with the input's own numbering, which
    # for a one-point extension of a representative is the parent's
    # canonical order with the new point last.  Against the scan of every
    # permutation: every placement of the new point on every class up to
    # 4 points, and every extension of a class on 5 points that
    # unlabeled_reps(6) searches.  Every extension by a maximal point of a
    # class on 5 points, against the key of the same order under other
    # numberings, whatever seed they give (the scan takes 7 s on all 766)
    rng = random.Random(11)
    for n in range(5):
        for rows in kernels.unlabeled_reps(n):
            for a_mask, b_mask in kernels._extension_pairs(list(rows)):
                grown = tuple(kernels._extend(list(rows), a_mask, b_mask))
                assert kernels.canonical_key(grown) == bf.least_staircase_rows(grown)
    for rows in kernels.unlabeled_reps(5):
        searched = set(kernels._maximal_extensions(rows))
        for a_mask in kernels.downset_masks(rows):
            grown = tuple(kernels._extend(list(rows), a_mask, 0))
            key = kernels.canonical_key(grown)
            if a_mask in searched:
                assert key == bf.least_staircase_rows(grown)
            for perm in (rng.sample(range(6), 6), range(5, -1, -1)):
                assert kernels.canonical_key(_relabel(grown, perm)) == key


def test_canonical_key_on_symmetric_sums():
    # disjoint chains and antichain-plus-chain sums; each key is invariant
    # under relabeling and is itself canonical
    rng = random.Random(7)
    cases = [_disjoint_sum(*[_chain(2)] * k) for k in range(1, 7)]
    cases += [_disjoint_sum(*[_chain(3)] * k) for k in range(1, 5)]
    cases += [_disjoint_sum(_antichain(a), _chain(c))
              for a in (1, 4, 8) for c in (1, 3, 6)]
    for rows in cases:
        key = kernels.canonical_key(rows)
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        assert kernels.canonical_key(_relabel(rows, perm)) == key
        assert kernels.canonical_key(key) == key
        assert sorted(map(int.bit_count, key)) == sorted(
            map(int.bit_count, rows))


def test_canonical_search_budget():
    # ten disjoint 2-chains need far more nodes than the budget allows
    poset = Poset.from_up_rows(_disjoint_sum(*[_chain(2)] * 10))
    with pytest.raises(ResourceLimitError,
                       match='capped at %d nodes' % kernels.CANON_NODE_BUDGET):
        are_isomorphic(poset, poset.dual())


def test_canonical_search_point_cap():
    # the search recurses once per point; past the cap it refuses up front
    # instead of overflowing the interpreter's stack
    assert len(kernels.canonical_key(_antichain(kernels.CANON_MAX_POINTS))) \
        == kernels.CANON_MAX_POINTS
    with pytest.raises(ResourceLimitError,
                       match='capped at %d points' % kernels.CANON_MAX_POINTS):
        are_isomorphic(Poset(1100), Poset(1100))
