'''Bit-twiddled kernels behind every poset, lattice and enumeration.

A relation on n points is a list or tuple of n int bitmasks; row i has
bit j set when i <= j.  Python ints are unbounded, so every kernel works
at any size; the callers' caps bound the work, and canonical_key carries
its own node budget.

order_rows builds the up and down rows of the order that a list of
pairs generates in one topological pass (Kahn, "Topological sorting of
large networks", CACM 1962), one OR per pair on each side, and returns
None on a cycle.  Only then do transitive_closure (Warshall) and
antisymmetry_violation run, to name the first pair on the cycle.

Lattice helpers take `down` rows (bit j of row i set when j <= i) in any
numbering.  Every set whose greatest element they look for is down-closed,
and a down-closed set has a greatest element exactly when it is that
element's down-set.  Down rows are distinct, so one dict {down[x]: x} per
call answers each lookup, and up rows find least elements the same way.

Meet and join come from the order alone.  meet_table reads the meet
off down rows as a flat n*n table, entry a*n + b for the pair (a, b),
and names the first pair without a meet; a finite bounded poset in which
every pair has a meet is a lattice, so that one table validates.  Given
up rows it reads the join table instead, the dual's meet table; only
the triple scan builds one, and only for as long as it runs.  Every
other join is one lookup: the common upper bounds of a and b are the up
row of a v b.

Distributivity has two readings.  join_prime_witness is Birkhoff's
test on the order rows: a finite lattice is distributive exactly when
every join-irreducible is join-prime, one set lookup per
join-irreducible once lower_covers has found them.
distributive_witness is the triple scan over the meet table and a join
table it builds from the up rows.  It reads one-byte tables only (up to
256 elements, 256**3 triples), a row at a time inside bytes.translate,
a few C-level calls per row; its witness is still the first failing
(a, b, c >= b), since both sides of the law are symmetric in b and c.
Given a two-byte meet table it raises ResourceLimitError before it
builds the join table.

One candidate-set pass, _candidate_tops, reads the meet table, the
order and the lower covers, never the join table, for every a -> b
(greatest x, a ^ x <= b).  A lattice walks its lower covers once and
hands them to the pass and to its join-irreducibles.
heyting_witness stops at the first row missing one; implication_index
keeps all as a flat n*n table, 0.34-0.40 s of CPU on the 1,024-element
bool10 (Python 3.11, one 2-core x86 host).

relabel renumbers a relation by a list of its points, for induced
subposets, canonical forms and isomorphism checks; inclusion_rows gives
the inclusion order of ascending sets, by membership columns or by pairs
of sets, whichever costs less, for every lattice of sets and the prime
spectrum.

subset_closures tabulates the up- or down-closure of all 2**n subsets,
one OR per entry, for the readings that scan the powerset.
'''

from array import array
from functools import lru_cache

from .errors import ResourceLimitError


def backend():
    'Name of the kernel lane: always the pure Python one.'
    return 'pure'


def bit_indices(mask):
    'Indices of the set bits of mask, ascending.'
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def order_rows(n, pairs):
    '''Up and down rows of the order the pairs (i, j), i <= j, generate on
    n points, or None when they close a cycle; the pairs are in range.

    One topological pass (Kahn's algorithm) orders the points, then the
    up rows fill in reverse topological order and the down rows in
    topological order, one OR per pair on each side.  Self-pairs add
    nothing and a repeated pair only repeats its OR.
    '''
    above = [[] for _ in range(n)]
    indegree = [0] * n
    for i, j in pairs:
        if i != j:
            above[i].append(j)
            indegree[j] += 1
    order = [i for i in range(n) if not indegree[i]]
    # the loop reads each point appended behind it
    for i in order:
        for j in above[i]:
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) < n:
        return None
    up = [1 << i for i in range(n)]
    down = up[:]
    for i in reversed(order):
        row = up[i]
        for j in above[i]:
            row |= up[j]
        up[i] = row
    # every point below i comes before it, so down[i] is whole when read
    for i in order:
        row = down[i]
        for j in above[i]:
            down[j] |= row
    return up, down


def transitive_closure(rows):
    'Warshall closure of a reflexive relation held as row masks.'
    n = len(rows)
    out = list(rows)
    for k in range(n):
        bk = 1 << k
        rk = out[k]
        for i in range(n):
            if out[i] & bk:
                out[i] |= rk
    return out


def antisymmetry_violation(rows):
    'First pair (i, j) related both ways with i < j, or None.'
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i] >> j & 1 and rows[j] >> i & 1:
                return i, j
    return None


def transpose(rows):
    'Column masks of a relation: bit i of entry j says i <= j.'
    n = len(rows)
    cols = [0] * n
    for i in range(n):
        row = rows[i]
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return cols


def relabel(rows, order):
    '''Rows of the points in order, renumbered so point k is order[k].

    order lists distinct points; bits of points it leaves out are
    dropped, so a subset of the points gives the induced relation.
    '''
    # bit of each listed point in the new numbering
    position = [0] * len(rows)
    kept = 0
    for k, i in enumerate(order):
        position[i] = 1 << k
        kept |= 1 << i
    out = []
    for i in order:
        row = 0
        rest = rows[i] & kept
        while rest:
            low = rest & -rest
            row |= position[low.bit_length() - 1]
            rest ^= low
        out.append(row)
    return out


def inclusion_rows(masks):
    '''Up and down rows of the strictly ascending sets masks[i] under inclusion.

    Two passes give the same rows at different costs.  The column pass
    costs sets x distinct columns, and its columns are at most the points
    the sets span; the pair loop costs sets**2 / 2.  So the column pass
    runs when the sets outnumber the points they span, as the down-sets
    of a poset do, and the pair loop otherwise, as on a prime spectrum:
    one prime per point of the poset, over every element of its lattice.
    '''
    if len(masks) > max(masks, default=0).bit_length():
        return _inclusion_by_columns(masks)
    return _inclusion_by_pairs(masks)


def _inclusion_by_columns(masks):
    '''inclusion_rows by membership columns.

    One pass lists, for each point, the sets that hold it: its column.
    The sets above masks[i] are those holding each of its points, the
    AND of their columns; the sets below it are those missing every
    point it misses, the AND of the other columns' complements.  Points
    with equal columns count once.
    '''
    full = (1 << len(masks)) - 1
    columns = {}
    bit = 1
    for s in masks:
        while s:
            low = s & -s
            columns[low] = columns.get(low, 0) | bit
            s ^= low
        bit <<= 1
    table = [(column, full ^ column) for column in set(columns.values())]
    up = []
    down = []
    bit = 1
    for _ in masks:
        above = below = full
        for column, rest in table:
            if column & bit:
                above &= column
            else:
                below &= rest
        up.append(above)
        down.append(below)
        bit <<= 1
    return up, down


def _inclusion_by_pairs(masks):
    '''inclusion_rows by comparing pairs of sets.

    The masks ascend, so a set can lie inside another only if it comes
    first, and one pass over the pairs i <= j fills both row lists.
    '''
    n = len(masks)
    up = [0] * n
    down = [0] * n
    bits = [1 << j for j in range(n)]
    for i, s in enumerate(masks):
        bit = bits[i]
        row = 0
        for j, t in enumerate(masks[i:], i):
            if s | t == t:
                row |= bits[j]
                down[j] |= bit
        up[i] = row
    return up, down


def downset_masks(rows, cap=None):
    'Every down-closed subset as a mask, ascending; cap guards blowup.'
    n = len(rows)
    cols = transpose(rows)
    order = sorted(range(n), key=lambda i: (cols[i].bit_count(), i))
    sets_ = [0]
    for v in order:
        need = cols[v] ^ 1 << v
        grown = [d | 1 << v for d in sets_ if need & ~d == 0]
        sets_.extend(grown)
        if cap is not None and len(sets_) > cap:
            raise ResourceLimitError(
                'more than %d down-sets on %d points' % (cap, n))
    sets_.sort()
    return sets_


# Most search nodes one canonical_key call may visit.  No key built by
# unlabeled_reps(8) needs more than 896 (measured over all 20,856), so
# the sweeps stay far inside it; input past it exits 3 instead of running
# on for minutes.
CANON_NODE_BUDGET = 100000
# Most points canonical_key takes.  Its search recurses once per point,
# so this stays well below the interpreter's default recursion limit of
# 1000, with room for the callers' frames.
CANON_MAX_POINTS = 512


def canonical_key(rows):
    '''Relabeling of rows minimizing the staircase-read relation matrix.

    The bit string compared lists, for k = 0..n-1, the column entries
    M[0][k]..M[k-1][k] and then the row entries M[k][0]..M[k][k-1].
    Minimizing that string over all n! relabelings is a canonical form;
    reading the matrix in growing-submatrix order makes prefixes known
    after k assignments, so the search prunes hard.

    Each node carries a flag saying whether its prefix equals the best
    string's prefix.  Only then can a candidate lose, and one integer
    comparison with best[k] decides it; below a strictly smaller prefix
    every candidate is kept, and the first leaf reached there becomes
    the new best, so the flag is set again after each child returns.

    The best string starts as the input's own numbering, the seed, so
    candidates are pruned against it from the root on.  The seed is no
    leaf of the search: the first leaf whose string equals it becomes the
    best leaf, the automorphism from the input's numbering to that leaf
    is recorded, and no subtree is skipped on its account.  Every
    numbering reaching the least string gives the same rows, so the seed
    changes only how much of the tree is searched, never the key.  For a
    one-point extension built by unlabeled_reps the seed is the parent's
    canonical order with the new point last, often the answer or close
    to it: through 7 points the searches visit 140,744 nodes, against
    218,383 unseeded.

    Interchangeable points (identical rows and columns once the diagonal
    is cleared) are swapped by an automorphism, so only one of them is
    tried per node; without this an antichain costs n! steps.  Larger
    symmetries are pruned by the automorphisms the search finds (McKay &
    Piperno, "Practical graph isomorphism, II", JSC 2014, section 3):
    two leaves with equal strings differ by one, which is recorded.  A
    candidate in the orbit of an already tried one, under the recorded
    automorphisms fixing the prefix pointwise, opens a subtree of the
    same strings and is skipped; the orbits are recomputed at a node
    only when an automorphism has come in since.  The new automorphism
    also maps the subtree holding the best leaf onto the current one,
    so the search returns straight to the node where the two paths part.

    Inputs of more than CANON_MAX_POINTS points raise ResourceLimitError
    at once.  The search visits at most CANON_NODE_BUDGET nodes and raises
    ResourceLimitError past it.  Six disjoint 2-chains take 2,190 nodes
    (about 0.01 s), seven 14,143, and eight exceed the budget.  Ties the
    automorphisms cannot explain are still refuted one by one: a chain
    of m points costs 2^m nodes, so chains of 17 points or more exceed
    the budget too.  Returns the relabeled row masks.
    '''
    n = len(rows)
    if n <= 1:
        return tuple(rows)
    if n > CANON_MAX_POINTS:
        raise ResourceLimitError('canonical form search capped at %d points (%d given)'
                                 % (CANON_MAX_POINTS, n))
    cols = transpose(rows)
    sigs = [(rows[v] ^ 1 << v, cols[v] ^ 1 << v) for v in range(n)]
    # candidates with few points above tend to open minimal rows
    order = sorted(range(n), key=lambda v: (rows[v].bit_count(),
                                            cols[v].bit_count(), v))
    steps = [0] * n
    assign = []
    used = [False] * n
    # the input's own numbering seeds the best string, so candidates are
    # pruned against it from the root on; best_perm stays None until a
    # leaf reaches a string at most the seed's
    best = []
    for k in range(n):
        above = below = 0
        for u in range(k):
            above = above << 1 | (cols[k] >> u & 1)
            below = below << 1 | (rows[k] >> u & 1)
        best.append(above << k | below)
    best_perm = None
    identity = list(range(n))
    autos = []  # image lists of the automorphisms found
    nodes = 0

    def orbit_ids():
        'Orbit label per point under the automorphisms fixing the prefix.'
        gens = [g for g in autos if all(g[u] == u for u in assign)]
        if not gens:
            return None
        ids = list(range(n))

        def find(x):
            while ids[x] != x:
                ids[x] = ids[ids[x]]
                x = ids[x]
            return x

        for g in gens:
            for x in range(n):
                a, b = find(x), find(g[x])
                if a != b:
                    ids[max(a, b)] = min(a, b)
        return [find(x) for x in range(n)]

    def rec(eq):
        # eq: steps[:k] equals best[:k]; returns the depth to resume at
        nonlocal best, best_perm, nodes
        nodes += 1
        if nodes > CANON_NODE_BUDGET:
            raise ResourceLimitError(
                'canonical form search capped at %d nodes (%d points)'
                % (CANON_NODE_BUDGET, n))
        k = len(assign)
        if k == n:
            if not eq or best_perm is None:
                # a smaller string, or the first leaf repeating the seed's,
                # which then maps the input's numbering onto this leaf
                if eq and assign != identity:
                    autos.append(assign[:])
                best = steps[:]
                best_perm = assign[:]
                return n
            image = [0] * n
            for i in range(n):
                image[best_perm[i]] = assign[i]
            autos.append(image)
            # the automorphism fixes the prefix shared with the best leaf
            # and maps the subtree holding that leaf onto this one, so
            # everything below the shared prefix is known already
            split = 0
            while best_perm[split] == assign[split]:
                split += 1
            return split
        tried = set()
        tried_points = []
        seen_autos = 0
        stale = False
        ids = None
        for v in order:
            if used[v]:
                continue
            sig = sigs[v]
            if sig in tried:
                continue
            if stale:
                stale = False
                ids = orbit_ids()
                if ids is not None:
                    tried_ids = {ids[u] for u in tried_points}
            if ids is not None:
                if ids[v] in tried_ids:
                    continue
                tried_ids.add(ids[v])
            tried.add(sig)
            tried_points.append(v)
            col, row = cols[v], rows[v]
            above = below = 0
            for u in assign:
                above = above << 1 | (col >> u & 1)
                below = below << 1 | (row >> u & 1)
            val = above << k | below
            if eq:
                top = best[k]
                if val > top:
                    continue
                child_eq = val == top
            else:
                child_eq = False
            steps[k] = val
            used[v] = True
            assign.append(v)
            back = rec(child_eq)
            assign.pop()
            used[v] = False
            if back < k:
                return back
            eq = True
            if len(autos) != seen_autos:
                seen_autos = len(autos)
                stale = True
        return n

    rec(True)
    return tuple(relabel(rows, best_perm))


def _extension_pairs(rows):
    '''Yield (A, B) mask pairs describing how one extra point can sit.

    A is the strict down-set and B the strict up-set of the new point;
    A must be down-closed, B up-closed, and every member of A must lie
    strictly below every member of B already.  Each extended order on
    k+1 points arises from exactly one pair, so the labeled stream
    built on this is duplicate-free.
    '''
    k = len(rows)
    full = (1 << k) - 1
    strict = [rows[i] ^ 1 << i for i in range(k)]
    dsets = downset_masks(rows)
    usets = [full ^ d for d in dsets]
    usets.sort()
    for a_mask in dsets:
        common = full
        rest = a_mask
        while rest:
            low = rest & -rest
            common &= strict[low.bit_length() - 1]
            rest ^= low
        for b_mask in usets:
            if b_mask & ~common:
                continue
            yield a_mask, b_mask


def _extend(rows, a_mask, b_mask):
    k = len(rows)
    bit = 1 << k
    out = [rows[i] | (bit if a_mask >> i & 1 else 0) for i in range(k)]
    out.append(bit | b_mask)
    return out


def labeled_stream(n):
    'Every partial order on 0..n-1 exactly once, depth-first extension order.'

    def rec(rows):
        if len(rows) == n:
            yield tuple(rows)
            return
        for a_mask, b_mask in _extension_pairs(rows):
            yield from rec(_extend(rows, a_mask, b_mask))

    yield from rec([])


def _maximal_extensions(rows):
    '''The down-sets of rows that unlabeled_reps extends by a maximal point.

    Those holding the lowest-numbered members of each twin class, and
    above which the new point's invariant is at least that of every old
    maximal point outside the down-set.
    '''
    k = len(rows)
    cols = transpose(rows)
    size = [col.bit_count() for col in cols]
    weight = [sum(size[y] for y in bit_indices(col)) for col in cols]
    classes = {}
    for x in range(k):
        classes.setdefault((rows[x] ^ 1 << x, cols[x] ^ 1 << x), []).append(x)
    # (a twin, the twin just before it): a kept down-set holding the one
    # holds the other
    twins = [(1 << x, 1 << w) for members in classes.values()
             for w, x in zip(members, members[1:])]
    tops = sorted(((size[x], weight[x], 1 << x) for x in range(k) if rows[x] == 1 << x),
                  reverse=True)
    for down in downset_masks(rows):
        if any(down & bit and not down & before for bit, before in twins):
            continue
        # the old maximal point of greatest invariant outside down
        rival = next(((top_size, top_weight) for top_size, top_weight, bit in tops
                      if not down & bit), (0, 0))
        count = down.bit_count() + 1
        if rival > (count, count + sum(size[y] for y in bit_indices(down))):
            continue
        yield down


@lru_cache(maxsize=None)
def unlabeled_reps(n):
    '''Canonical representative rows of every isomorphism class, ascending.

    Level n grows from level n - 1 by maximal points: every poset on n
    points is one on n - 1 points plus a maximal point, so each
    representative is extended by a new point above some of its
    down-sets, and canonical_key names the class of each extension.  Two
    exact filters leave about one search per class, 429 for the 406
    classes up to 6 points and 20,856 for the 19,450 up to 8, where one
    search per down-set made 939 and 54,724:

    - twins, points with equal strict up rows and equal strict down
      rows, are swapped by an automorphism of the parent, and that maps
      a down-set to one giving an isomorphic extension.  So of each orbit
      of the twin swaps only the down-set holding the lowest-numbered
      members of each twin class is extended;
    - the invariant of a point x is (|down-set of x|, the sum of
      |down-set of y| over y <= x), which an isomorphism keeps.  A new
      maximal point changes no old point's down-set, so the old maximal
      points outside the down-set keep the invariants computed once per
      parent, and an extension is dropped when one of them has a larger
      invariant than the new point.  Every class on n points is some
      class on n - 1 points plus a maximal point m of greatest invariant,
      and the twin image of that extension keeps m's invariant, so every
      class is still reached.

    The `seen` set and the sort make the result the same whichever
    extensions of a class are searched.  Each search is seeded with the
    extension's own numbering, the parent's canonical order with the new
    point last.  The cache keeps each level, so each is built once per
    process, and hands the same tuple of row tuples to every caller.
    '''
    if n == 0:
        return ((),)
    seen = set()
    for rows in unlabeled_reps(n - 1):
        for a_mask in _maximal_extensions(rows):
            seen.add(canonical_key(tuple(_extend(rows, a_mask, 0))))
    return tuple(sorted(seen))


def pseudocomplement_vector(down, up, bottom):
    '''Per element, the greatest disjoint partner, or -1 when absent.

    a ^ x is the bottom exactly when no atom lies below both, so the
    partners of a are the elements above none of the atoms t <= a: the
    complement of the union of up[t] over those atoms.
    '''
    n = len(down)
    full = (1 << n) - 1
    index = {row: x for x, row in enumerate(down)}
    bot = 1 << bottom
    atoms = 0
    for t, row in enumerate(down):
        if row ^ 1 << t == bot:
            atoms |= 1 << t
    out = []
    for row in down:
        above = 0
        rest = row & atoms
        while rest:
            low = rest & -rest
            above |= up[low.bit_length() - 1]
            rest ^= low
        # the disjoint partners are down-closed
        out.append(index.get(full & ~above, -1))
    return out


def prime_element_mask(down, up):
    '''Mask of elements x whose principal down-set is a proper prime ideal.

    Every ideal and every filter of a finite lattice is principal
    (Davey & Priestley, Introduction to Lattices and Order, 2002, ch. 2).
    A proper ideal is prime exactly when its complement is a filter, so
    down[x] is prime exactly when the elements outside it are some
    element's up row: one set lookup per element.  The top's complement
    is empty and no up row is, so the top is never prime.
    '''
    full = (1 << len(down)) - 1
    filters = set(up)
    out = 0
    for x, row in enumerate(down):
        if full & ~row in filters:
            out |= 1 << x
    return out


def meet_table(down):
    '''Meet table read off down rows, as (table, missing).

    table is a flat array of n*n entries, meet(a, b) at a*n + b, with
    typecode 'B' up to 256 elements and 'H' above, and missing is None.
    When some pair has no meet, returns (None, (a, b)) instead, for the
    first such pair a < b in row order.  Up rows give the join table.
    '''
    n = len(down)
    code = 'B' if n <= 256 else 'H'
    meet = array(code, [0]) * (n * n)
    # the common lower bounds are down-closed, so the meet is the element
    # whose own down-set they are, if any
    get = {row: x for x, row in enumerate(down)}.get
    for a in range(n):
        da = down[a]
        # the meets of a with a..n-1 fill row a from the diagonal on and,
        # the meet being symmetric, column a from the diagonal down
        got = [get(da & db, -1) for db in down[a:]]
        if -1 in got:
            return None, (a, a + got.index(-1))
        got = array(code, got)
        start = a * n + a
        meet[start:start + n - a] = got
        meet[start::n] = got
    return meet, None


def distributive_witness(meet, up):
    '''First triple (a, b, c), c >= b, breaking meet-over-join distributivity.

    Tests a ^ (b v c) == (a ^ b) v (a ^ c) for every triple, in the
    order a, then b, then c from b up; None when every triple holds.

    The meet table must be one-byte ('B', n <= 256); any other raises
    ResourceLimitError before the join table is built from the up rows.
    The tables are scanned a row at a time inside bytes.translate.  For a
    fixed a, translating the whole join table through meet row a gives
    a ^ (b v c) at b*n + c, and translating meet row a through join row
    a ^ b, for each b, gives (a ^ b) v (a ^ c) at the same place;
    translate wants a 256-byte table, so each row is padded with zeros.
    Both sides are symmetric in b and c, so the first row-major mismatch
    (b, c) has c >= b: a mismatch with c < b would repeat at (c, b),
    earlier.  That is the triple the loop order above finds first.
    '''
    n = len(up)
    if meet.typecode != 'B':
        raise ResourceLimitError('distributivity scan reads one-byte tables, '
                                 'at most 256 elements; got %d' % n)
    pad = bytes(256 - n)
    meets, joins = meet.tobytes(), meet_table(up)[0].tobytes()
    join_rows = [joins[x * n:x * n + n] + pad for x in range(n)]
    for a in range(n):
        meet_a = meets[a * n:a * n + n]
        left = joins.translate(meet_a + pad)
        right = b''.join([meet_a.translate(join_rows[m]) for m in meet_a])
        if left != right:
            i = next(i for i in range(n * n) if left[i] != right[i])
            return (a, *divmod(i, n))
    return None


def lower_covers(down):
    '''The lower covers of every element, packed in one array.

    Entry b of the array is where the covers of b start and entry b + 1
    where they end, so b covers packed[packed[b]:packed[b + 1]],
    ascending; cover_lists unpacks them.  One byte an entry where that
    holds them all, else two or four, for a lattice keeps its covers as
    long as it lives.

    The covers of b are the maximal elements of its strict down-set.  The
    walk visits the highest-numbered element x left, clears what lies
    strictly below x from the covers and all of down[x] from what is left
    to visit: whatever lies below a cleared element lies below x too.  In
    a linear extension x is maximal among what is left, so the walk visits
    the covers only, one step per cover; visiting every strict lower
    bound took n**2/2 steps on a chain.  Any numbering gives the same
    covers, with more steps.
    '''
    n = len(down)
    starts = [n + 1]
    flat = []
    for b, row in enumerate(down):
        covers = rest = row ^ 1 << b
        while rest:
            x = rest.bit_length() - 1
            below = down[x]
            covers &= ~(below ^ 1 << x)
            rest &= ~below
        flat += bit_indices(covers)
        starts.append(n + 1 + len(flat))
    size = starts[-1]
    return array('B' if size < 1 << 8 else 'H' if size < 1 << 16 else 'i', starts + flat)


def cover_lists(covers):
    'The lower covers that lower_covers packed, one array per element.'
    return [covers[covers[b]:covers[b + 1]] for b in range(covers[0] - 1)]


def join_prime_witness(irreducibles, down, up):
    '''First of the join-irreducibles that is not join-prime, or None.

    irreducibles lists the elements covering exactly one other, as
    lower_covers finds them.  j is join-prime (j <= a v b forces j <= a
    or j <= b) exactly when the elements not above it are closed under
    joins, that is, form an ideal; they are down-closed and hold the
    bottom, and an ideal of a finite lattice is some element's down row.
    So each join-irreducible costs one set lookup.  A finite lattice is
    distributive exactly when this returns None (Birkhoff; Davey &
    Priestley, Introduction to Lattices and Order, 2002, ch. 5).
    '''
    full = (1 << len(down)) - 1
    ideals = set(down)
    return next((j for j in irreducibles if full & ~up[j] not in ideals), None)


def subset_closures(rows):
    '''Closure of every subset under rows, as a list of 2**n masks.

    Entry s is the union of rows[i] over the bits i of s: the up-closure
    of s for up rows, the down-closure for down rows.  The table grows
    one row at a time, table += [m | row for m in table], so each entry
    costs one OR.  It holds 2**n ints; callers keep it only while they
    scan the powerset.
    '''
    table = [0]
    for row in rows:
        table += [m | row for m in table]
    return table


def _candidate_tops(meet, down, covers):
    '''Per element a, yield (row, tops) from one candidate-set pass.

    covers are the lower covers, packed as lower_covers packs them.

    row is meet row a; tops maps each b <= a, in walk order, to the
    greatest element of C_b = {x : a ^ x <= b}, or -1 if it has none.
    C_b = C_{a ^ b} for every b, since a ^ x <= b exactly when
    a ^ x <= a ^ b: the definition of the meet, not distributivity.
    The walk takes the elements by down-set size, so each lower cover c
    of b comes before b, and C_b is the group {x : a ^ x = b} with C_c
    for each lower cover c.  The group of b is nonempty exactly when
    b <= a (a ^ b = b), so the walk skips the empty ones.  C_b is
    down-closed, so its greatest element is the one whose down-set it is.
    '''
    n = len(down)
    lowers = cover_lists(covers)
    index = {row: x for x, row in enumerate(down)}
    walk = sorted(range(n), key=lambda x: down[x].bit_count())
    bits = [1 << x for x in range(n)]
    for a in range(n):
        row = meet[a * n:a * n + n]
        cand = [0] * n
        for m, bit in zip(row, bits):
            cand[m] |= bit
        tops = {}
        # cand[b] holds the group of b until the walk reaches b, then C_b
        for b in walk:
            c = cand[b]
            if not c:
                continue
            for lower in lowers[b]:
                c |= cand[lower]
            cand[b] = c
            tops[b] = index.get(c, -1)
        yield row, tops


def heyting_witness(meet, down, covers):
    'First pair (a, b), row-major, with no greatest x such that a ^ x <= b, or None.'
    for a, (row, tops) in enumerate(_candidate_tops(meet, down, covers)):
        if -1 in tops.values():
            return a, next(b for b, m in enumerate(row) if tops[m] < 0)
    return None


def implication_index(meet, down, covers):
    '''Flat n*n array('i') of a -> b at a*n + b, -1 where it is absent.

    One candidate-set pass: per row, O(n) plus one OR per lower cover.
    '''
    table = array('i')
    for row, tops in _candidate_tops(meet, down, covers):
        table.extend([tops[m] for m in row])
    return table
