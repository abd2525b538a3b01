'''Kernel correctness against oracles, and lane agreement.'''

import pytest

import bruteforce as bf
from finspec import _bits_py as pure
from finspec import kernels
from finspec.errors import ResourceLimitError
from finspec.fixtures import chain_lattice, m3, n5

# The lane-agreement tests take the `fast` fixture from conftest.py, which
# compiles the shipped _fastbits.c for the session.


def test_transitive_closure_matches_pair_oracle():
    cases = [(3, [(0, 1), (1, 2)]),
             (4, [(0, 1), (1, 2), (2, 3)]),
             (5, [(0, 2), (1, 2), (2, 3), (2, 4)]),
             (4, [])]
    for n, pairs in cases:
        rows = [1 << i for i in range(n)]
        for i, j in pairs:
            rows[i] |= 1 << j
        got = pure.transitive_closure(rows)
        assert bf.rel_of_rows(got) == bf.closure_pairs(n, pairs)


def test_antisymmetry_violation():
    assert pure.antisymmetry_violation([0b11, 0b11]) == (0, 1)
    assert pure.antisymmetry_violation([0b01, 0b10]) is None
    assert pure.antisymmetry_violation([]) is None


def test_transpose_involution():
    rows = [0b00111, 0b00010, 0b11100, 0b01000, 0b11000]
    assert pure.transpose(pure.transpose(rows)) == rows


def test_downsets_match_subset_filter():
    for n in range(5):
        for rows in pure.labeled_stream(n):
            assert pure.downset_masks(list(rows)) == sorted(
                bf.downsets_by_filter(rows))


def test_downsets_cap():
    anti = [1 << i for i in range(13)]
    with pytest.raises(ResourceLimitError):
        pure.downset_masks(anti, 4096)
    assert len(pure.downset_masks(anti)) == 1 << 13


def test_canonical_key_constant_under_relabeling():
    from itertools import permutations
    for rows in pure.labeled_stream(4):
        base = pure.canonical_key(rows)
        n = len(rows)
        for perm in permutations(range(n)):
            moved = [0] * n
            for i in range(n):
                for j in range(n):
                    if rows[i] >> j & 1:
                        moved[perm[i]] |= 1 << perm[j]
            assert pure.canonical_key(tuple(moved)) == base


def test_canonical_key_separates_nonisomorphic():
    seen = {}
    for rows in pure.labeled_stream(4):
        key = pure.canonical_key(rows)
        if key in seen:
            assert bf.isomorphic_by_search(seen[key], rows)
        else:
            for other_key, other in seen.items():
                assert not bf.isomorphic_by_search(other, rows)
            seen[key] = rows
    assert len(seen) == 16


def test_labeled_counts():
    assert [pure.count_labeled(n) for n in range(6)] == [1, 1, 3, 19, 219, 4231]


def test_labeled_stream_is_duplicate_free():
    for n in range(5):
        seen = set(pure.labeled_stream(n))
        assert len(seen) == pure.count_labeled(n)


def test_lattice_helper_values_on_diamond():
    # B2: bottom 0, atoms 1 and 2, top 3
    down = [0b0001, 0b0011, 0b0101, 0b1111]
    up = [0b1111, 0b1010, 0b1100, 0b1000]
    assert pure.pseudocomplement_vector(down, None, 0) == [3, 2, 1, 0]
    assert pure.implication_index(down, None, 1, 2) == 2
    assert pure.prime_element_mask(down, None) == 0b0110
    assert pure.distributive_witness(down, up, None) is None


def test_operation_tables():
    # B2 again: full tables on a lattice
    down = [0b0001, 0b0011, 0b0101, 0b1111]
    up = [0b1111, 0b1010, 0b1100, 0b1000]
    meet, join, missing = pure.operation_tables(down, up, None)
    assert missing is None
    assert meet == [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    assert join == [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]]
    assert pure.operation_tables(down, up, [0, 1, 2, 3]) == (meet, join, None)
    # 0 under 1 and 2: every meet exists, 1 and 2 have no join
    lam_down, lam_up = [0b001, 0b011, 0b101], [0b111, 0b010, 0b100]
    # 0 and 1 under 2: every join exists, 0 and 1 have no meet
    vee_down, vee_up = [0b001, 0b010, 0b111], [0b101, 0b110, 0b100]
    for pos in (None, [0, 1, 2]):
        assert pure.operation_tables(lam_down, lam_up, pos) == (None, None, (1, 2, 'join'))
        assert pure.operation_tables(vee_down, vee_up, pos) == (None, None, (0, 1, 'meet'))


def test_lattice_helpers_respect_rank_positions():
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
    pos = [0] * n
    for a in range(n):
        pos[perm[a]] = a
    base_pc = pure.pseudocomplement_vector(base_down, None, 0)
    want = [0] * n
    for a in range(n):
        want[perm[a]] = perm[base_pc[a]]
    assert pure.pseudocomplement_vector(down, pos, perm[0]) == want
    assert pure.distributive_witness(down, up, pos) is None
    assert pure.prime_element_mask(down, pos) == sum(
        1 << perm[i] for i in range(n) if pure.prime_element_mask(base_down, None) >> i & 1)


def test_lanes_agree_exhaustively(fast):
    for n in range(6):
        for rows in pure.labeled_stream(n):
            r = list(rows)
            assert fast.transitive_closure(r) == pure.transitive_closure(r)
            assert fast.downset_masks(r) == pure.downset_masks(r)
            assert fast.canonical_key(rows) == pure.canonical_key(rows)
            assert list(fast._extension_pairs(r)) == list(pure._extension_pairs(r))


def test_lanes_agree_on_enumeration(fast):
    for n in range(6):
        assert fast.count_labeled(n) == pure.count_labeled(n)
        assert fast.unlabeled_reps(n) == pure.unlabeled_reps(n)
    assert list(fast.labeled_stream(4)) == list(pure.labeled_stream(4))


def _product_rows(left, right):
    'Up rows of the product order, numbered x * right.n + y, a linear extension.'
    k = right.n
    return [sum(1 << (x2 * k + y2) for x2 in range(left.n) for y2 in range(k)
                if left.up[x] >> x2 & 1 and right.up[y] >> y2 & 1)
            for x in range(left.n) for y in range(k)]


def _helper_lattices():
    'Down and up rows of the down-set lattices on up to 4 points, then M3, N5 products.'
    for n in range(5):
        for rows in pure.labeled_stream(n):
            dsets = pure.downset_masks(list(rows))
            down = [sum(1 << j for j, e in enumerate(dsets) if e & ~d == 0)
                    for d in dsets]
            up = [sum(1 << j for j, e in enumerate(dsets) if d & ~e == 0)
                  for d in dsets]
            yield down, up
    # not distributive, so both lanes must name the same witness triple
    for base in (m3(), n5()):
        for chain in (chain_lattice(1), chain_lattice(2), chain_lattice(3)):
            up = _product_rows(base, chain)
            yield pure.transpose(up), up


def test_lanes_agree_on_lattice_helpers(fast):
    witnesses = 0
    for down, up in _helper_lattices():
        m = len(down)
        assert (fast.pseudocomplement_vector(down, None, 0)
                == pure.pseudocomplement_vector(down, None, 0))
        assert (fast.prime_element_mask(down, None)
                == pure.prime_element_mask(down, None))
        got = fast.distributive_witness(down, up, None)
        assert got == pure.distributive_witness(down, up, None)
        witnesses += got is not None
        for a in range(m):
            for b in range(m):
                assert (fast.implication_index(down, None, a, b)
                        == pure.implication_index(down, None, a, b))
    assert witnesses == 6


def test_fast_lane_cap_message_matches(fast):
    anti = [1 << i for i in range(13)]
    with pytest.raises(ResourceLimitError) as pure_exc:
        pure.downset_masks(anti, 4096)
    with pytest.raises(ResourceLimitError) as fast_exc:
        fast.downset_masks(anti, 4096)
    assert str(pure_exc.value) == str(fast_exc.value)


def test_wrapper_routes_by_size():
    rows = [1 << i for i in range(70)]
    # 70 points exceed the compiled word size; must still work
    assert kernels.transitive_closure(rows) == rows
    assert len(kernels.canonical_key(rows)) == 70
