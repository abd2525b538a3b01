'''Brute-force oracles, implemented as differently as possible.

Everything here works on sets of pairs or explicit subset scans, never
on the bitmask kernels under test, so a shared bug cannot hide.  Sizes
are tiny by construction; nothing here is meant to be fast.

The last section is the exception: it holds the set-by-set readings
that finspec.reports runs over a family of sets.  They call the same
Poset predicates as the readings there but share nothing between sets,
so a test can patch a predicate and check that both loops name the same
culprit.
'''

from itertools import combinations, permutations


def closure_pairs(n, pairs):
    'Reflexive-transitive closure as a set of (i, j) pairs.'
    rel = {(i, i) for i in range(n)} | {tuple(p) for p in pairs}
    while True:
        extra = {(i, l) for i, j in rel for k, l in rel if j == k} - rel
        if not extra:
            return rel
        rel |= extra


def is_partial_order(n, rel):
    if any((i, i) not in rel for i in range(n)):
        return False
    if any((j, i) in rel for i, j in rel if i != j):
        return False
    return all((i, l) in rel
               for i, j in rel for k, l in rel if j == k)


def all_labeled_orders(n):
    'Every partial order on n points by filtering all candidate relations.'
    strict = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = []
    for r in range(len(strict) + 1):
        for chosen in combinations(strict, r):
            rel = {(i, i) for i in range(n)} | set(chosen)
            if is_partial_order(n, rel):
                found.append(frozenset(rel))
    return found

def rel_of_rows(rows):
    return frozenset((i, j) for i, row in enumerate(rows)
                     for j in range(len(rows)) if row >> j & 1)


def rows_of_rel(n, rel):
    rows = [0] * n
    for i, j in rel:
        rows[i] |= 1 << j
    return tuple(rows)


def isomorphic_by_search(rows_a, rows_b):
    'Isomorphism by trying every permutation.'
    n = len(rows_a)
    if n != len(rows_b):
        return False
    rel_a = rel_of_rows(rows_a)
    rel_b = rel_of_rows(rows_b)
    for perm in permutations(range(n)):
        if all(((perm[i], perm[j]) in rel_b) == ((i, j) in rel_a)
               for i in range(n) for j in range(n)):
            return True
    return False


def automorphism_count(rows):
    n = len(rows)
    rel = rel_of_rows(rows)
    return sum(1 for perm in permutations(range(n))
               if all(((perm[i], perm[j]) in rel) == ((i, j) in rel)
                      for i in range(n) for j in range(n)))


def subsets(n):
    return range(1 << n)


def members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def downsets_by_filter(rows):
    'Down-closed subsets found by scanning every subset.'
    n = len(rows)
    cols = [sum(1 << i for i in range(n) if rows[i] >> j & 1)
            for j in range(n)]
    out = []
    for s in subsets(n):
        if all(cols[j] & ~s == 0 for j in members(s)):
            out.append(s)
    return out


def patch_family(rows):
    '''Topology generated by the down-sets and their complements.

    Finite unions of finite intersections of subbasis members, grown to
    a fixpoint.  On a finite poset this reaches the full powerset, which
    is exactly the trivialization the package claims.
    '''
    n = len(rows)
    full = (1 << n) - 1
    subbasis = set(downsets_by_filter(rows))
    subbasis |= {full ^ d for d in subbasis}
    family = set(subbasis) | {0, full}
    while True:
        grown = set(family)
        for a in family:
            for b in family:
                grown.add(a & b)
                grown.add(a | b)
        if grown == family:
            return family
        family = grown


def constructible_family(rows):
    'Boolean algebra generated by the down-sets, grown to a fixpoint.'
    n = len(rows)
    full = (1 << n) - 1
    family = set(downsets_by_filter(rows))
    while True:
        grown = set(family)
        for a in family:
            grown.add(full ^ a)
            for b in family:
                grown.add(a & b)
                grown.add(a | b)
        if grown == family:
            return family
        family = grown


# ----------------------------------------------------------------------
# lattice-side oracles, driven by a meet/join table


def meet_table(lattice):
    return [[lattice.meet(a, b) for b in range(lattice.n)]
            for a in range(lattice.n)]


def join_table(lattice):
    return [[lattice.join(a, b) for b in range(lattice.n)]
            for a in range(lattice.n)]


def ideals_by_filter(lattice):
    'Nonempty, down-closed, join-closed subsets found by subset scan.'
    n = lattice.n
    joins = join_table(lattice)
    out = []
    for s in subsets(n):
        if s == 0:
            continue
        ok = True
        for a in members(s):
            for b in range(n):
                if lattice.leq(b, a) and not s >> b & 1:
                    ok = False
                    break
            if not ok:
                break
            for b in members(s):
                if not s >> joins[a][b] & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(s)
    return out


def prime_ideals_by_filter(lattice):
    'Proper ideals whose complement is closed under meet.'
    n = lattice.n
    meets = meet_table(lattice)
    full = (1 << n) - 1
    out = []
    for s in ideals_by_filter(lattice):
        if s == full:
            continue
        outside = members(full ^ s)
        if all(not s >> meets[a][b] & 1 for a in outside for b in outside):
            out.append(s)
    return out


def join_irreducibles_by_scan(lattice):
    'Non-bottom elements that no join of two smaller ones reaches, by join-table scan.'
    joins = join_table(lattice)
    out = []
    for j in range(lattice.n):
        if j == lattice.bottom:
            continue
        strict = [a for a in range(lattice.n) if a != j and lattice.leq(a, j)]
        if all(joins[a][b] != j for a in strict for b in strict):
            out.append(j)
    return out


def is_join_prime_by_scan(lattice, j):
    'Whether j is no bottom and j <= a v b forces j <= a or j <= b.'
    joins = join_table(lattice)
    r = range(lattice.n)
    return j != lattice.bottom and all(
        lattice.leq(j, a) or lattice.leq(j, b)
        for a in r for b in r if lattice.leq(j, joins[a][b]))


def non_coprime_pair_by_scan(lattice):
    '''First pair of distinct minimal prime ideals, as masks ascending,
    holding no two members that join to the top; None when every pair does.'''
    joins = join_table(lattice)
    primes = prime_ideals_by_filter(lattice)
    minimal = [p for p in primes if not any(q != p and q & ~p == 0 for q in primes)]
    for i, p in enumerate(minimal):
        for q in minimal[i + 1:]:
            if not any(joins[a][b] == lattice.top for a in members(p) for b in members(q)):
                return p, q
    return None


def pseudocomplement_by_scan(lattice, a):
    'Greatest element meeting a at bottom, by scanning all elements.'
    meets = meet_table(lattice)
    disjoint = [x for x in range(lattice.n)
                if meets[a][x] == lattice.bottom]
    for x in disjoint:
        if all(lattice.leq(y, x) for y in disjoint):
            return x
    return None


def implication_by_scan(lattice, a, b, meets=None):
    'Greatest x with meet(a, x) <= b, by scanning; meets may pass a meet_table.'
    if meets is None:
        meets = meet_table(lattice)
    below = [x for x in range(lattice.n)
             if lattice.leq(meets[a][x], b)]
    for x in below:
        if all(lattice.leq(y, x) for y in below):
            return x
    return None


def implication_table_by_scan(lattice):
    'Rows of implication_by_scan over every pair (a, b), None where absent.'
    meets = meet_table(lattice)
    r = range(lattice.n)
    return [[implication_by_scan(lattice, a, b, meets) for b in r] for a in r]


# ----------------------------------------------------------------------
# bound tables of a bare order, from pair sets alone


def bound_tables(n, rel):
    '''Meet and join tables of the order rel, a set of (i, j) pairs for i <= j.

    Each entry scans the common lower (upper) bounds for one that sits
    above (below) all the others; None where the pair has no such bound.
    '''
    def extremum(cands, above):
        for x in cands:
            if all(((y, x) if above else (x, y)) in rel for y in cands):
                return x
        return None

    meet = [[extremum([x for x in range(n) if (x, a) in rel and (x, b) in rel], True)
             for b in range(n)] for a in range(n)]
    join = [[extremum([x for x in range(n) if (a, x) in rel and (b, x) in rel], False)
             for b in range(n)] for a in range(n)]
    return meet, join


def first_missing_bound(n, rel):
    'First pair a < b, in row order, lacking a meet (checked first) or a join.'
    meet, join = bound_tables(n, rel)
    for a in range(n):
        for b in range(a + 1, n):
            if meet[a][b] is None:
                return a, b, 'meet'
            if join[a][b] is None:
                return a, b, 'join'
    return None


def first_distributivity_failure(meet, join):
    'First (a, b, c) with c >= b where a ^ (b v c) and (a ^ b) v (a ^ c) differ.'
    n = len(meet)
    for a in range(n):
        for b in range(n):
            for c in range(b, n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return a, b, c
    return None


def least_staircase_rows(rows):
    '''Relabeling with the least staircase string, by scanning every permutation.

    The string lists, for k = 0..n-1, whether each earlier point lies
    below the k-th one and then whether the k-th lies below each earlier
    one.  Returns the relabeled rows of the least string.
    '''
    n = len(rows)
    rel = rel_of_rows(rows)
    best = None
    for perm in permutations(range(n)):
        string = []
        for k in range(n):
            string += [(perm[u], perm[k]) in rel for u in range(k)]
            string += [(perm[k], perm[u]) in rel for u in range(k)]
        if best is None or string < best[0]:
            best = (string, perm)
    perm = best[1]
    return rows_of_rel(n, {(i, j) for i in range(n) for j in range(n)
                           if (perm[i], perm[j]) in rel})


def reps_by_every_extension(n, key):
    '''Class representatives on n points, grown by every one-point extension.

    Each class on k points gains a point k above a set A and below a
    disjoint set B, for every pair of subsets that keeps the relation
    transitive; key canonicalizes the extended rows.  Ascending.
    '''
    level = {()}
    for k in range(n):
        grown = set()
        for rows in level:
            for a in subsets(k):
                for b in subsets(k):
                    if a & b:
                        continue
                    ext = [rows[i] | (1 << k if a >> i & 1 else 0)
                           for i in range(k)] + [1 << k | b]
                    if all(ext[j] & ~ext[i] == 0
                           for i in range(k + 1) for j in members(ext[i])):
                        grown.add(key(tuple(ext)))
        level = grown
    return tuple(sorted(level))


# ----------------------------------------------------------------------
# the powerset readings of the Heyting theorem, by explicit set families


def _least_member_above(family, mask):
    'Intersection of every set of family that contains mask.'
    out = -1
    for t in family:
        if mask & ~t == 0:
            out &= t
    return out


def constructible_closures_by_scan(rows):
    '''(holds, witness) of "every constructible set has a constructible
    up-closure": the first failing subset as a frozenset, or None.'''
    n = len(rows)
    rel = rel_of_rows(rows)
    family = constructible_family(rows)
    for s in subsets(n):
        closure = sum(1 << j for j in range(n)
                      if any((i, j) in rel for i in members(s)))
        if s in family and closure not in family:
            return False, frozenset(members(s))
    return True, None


def inverse_closure_is_patch_by_scan(rows):
    '''(holds, witness) of "the inverse-space closure of every subset is the
    patch closure of its down-closure".

    The inverse space's closed sets are the down-sets, so its closure is
    the least down-set containing the subset; the patch closure is the
    least complement of a patch-open set containing its argument.
    '''
    n = len(rows)
    full = (1 << n) - 1
    downsets = downsets_by_filter(rows)
    patch_closed = [full ^ o for o in patch_family(rows)]
    for s in subsets(n):
        closure = _least_member_above(downsets, s)
        if closure != _least_member_above(patch_closed, closure):
            return False, frozenset(members(s))
    return True, None


# ----------------------------------------------------------------------
# set-by-set readings: one closed subspace or one set at a time, no memo


def closed_subspaces_pc_one_by_one(poset):
    '''(holds, witness) of closed_subspaces_pc: pc_space_report quoted on
    each closed subspace as induced_mask numbers it, ascending.'''
    from finspec import reports
    for c in poset.upset_masks_all:
        if not reports.pc_space_report(poset.induced_mask(c)[0]).all_true:
            return False, poset.set_of(c)
    return True, None


def closures_constructible_one_by_one(poset):
    'The up-closure of each down-set, tested for constructibility one at a time.'
    for d in poset.downset_masks_all:
        if not poset.is_constructible_mask(poset.up_closure_mask(d)):
            return False, poset.set_of(d)
    return True, None


def regularizations_compact_open_one_by_one(poset):
    'The regularization of each down-set, tested for compact openness one at a time.'
    for d in poset.downset_masks_all:
        r = poset.regularize_mask(d)
        if not (poset.is_down_set_mask(r) and poset.is_compact_mask(r)):
            return False, poset.set_of(d)
    return True, None


def closures_open_one_by_one(poset):
    'The up-closure of each down-set, tested for openness one at a time.'
    for d in poset.downset_masks_all:
        if not poset.is_down_set_mask(poset.up_closure_mask(d)):
            return False, poset.set_of(d)
    return True, None


def downclosures_open_one_by_one(poset):
    'The down-closure of each up-set, tested for openness one at a time.'
    for c in poset.upset_masks_all:
        if not poset.is_down_set_mask(poset.down_closure_mask(c)):
            return False, poset.set_of(c)
    return True, None


def downclosures_clopen_one_by_one(poset):
    'The down-closure of each up-set, tested for clopenness one at a time.'
    for c in poset.upset_masks_all:
        if not poset.is_clopen_mask(poset.down_closure_mask(c)):
            return False, poset.set_of(c)
    return True, None


def inverse_closure_is_patch_one_by_one(poset):
    'The down-closure of each subset, compared with its patch closure one at a time.'
    for s in range(1 << poset.n):
        d = poset.down_closure_mask(s)
        if d != poset.patch_closure_mask(d):
            return False, poset.set_of(s)
    return True, None


def max_sets_patch_closed_one_by_one(poset):
    'The maximal points of each down-set, tested for patch-closedness one at a time.'
    for d in poset.downset_masks_all:
        if not poset.is_patch_closed_mask(poset.relative_max_mask(d)):
            return False, poset.set_of(d)
    return True, None


def min_sets_compact_one_by_one(poset):
    'The minimal points of each up-set, tested for compactness one at a time.'
    for c in poset.upset_masks_all:
        if not poset.is_compact_mask(poset.relative_min_mask(c)):
            return False, poset.set_of(c)
    return True, None
