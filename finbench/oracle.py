'''Expected values for the benchmark, computed apart from finspec.

Nothing here imports finspec.  Sweep payloads are checked against
published poset counts (OEIS A000112 unlabeled, A001035 labeled; see
Brinkmann & McKay, "Posets on up to 16 points", Order 2002) and against
closed forms for the class counts.  Single structures are checked
against subset scans and definitions on small bitmask relations.

A poset here is (n, rows) with rows[i] the bitmask of the points above
or equal to i, as produced by closure().  A lattice is a poset with a
least and a greatest element; meets and joins are found by scanning
bounds, never by trusting a construction.
'''

from math import comb, factorial

# posets on n points, n = 0, 1, 2, ...
POSETS = {
    'unlabeled': (1, 1, 2, 5, 16, 63, 318, 2045, 16999),      # A000112
    'labeled': (1, 1, 3, 19, 219, 4231, 130023, 6129859),     # A001035
}

FLAGS = ('boolean', 'heyting', 'stone', 'pseudocomplemented', 'root_system',
         'forest', 'stranded', 'confluent', 'inv_normal', 'normal')

THEOREMS = ('pc-space', 'stone', 'qccl-stone', 'heyting', 'root-forest',
            'collapse-min', 'collapse-max')


# ----------------------------------------------------------------------
# closed forms for the sweep class counts


def euler_transform(b, n_max):
    'Multisets of parts, b[k] kinds of part of size k (b[0] unused).'
    c = [0] + [sum(d * b[d] for d in range(1, k + 1) if k % d == 0)
               for k in range(1, n_max + 1)]
    a = [1]
    for n in range(1, n_max + 1):
        a.append(sum(c[k] * a[n - k] for k in range(1, n + 1)) // n)
    return a


def exp_transform(b, n_max):
    'Sets of labeled parts, b[k] structures on a labeled part of size k.'
    a = [1]
    for n in range(1, n_max + 1):
        a.append(sum(comb(n - 1, k - 1) * b[k] * a[n - k]
                     for k in range(1, n + 1)))
    return a


def class_counts(mode, n_max):
    '''Per size n <= n_max, how many posets have each profile flag.

    boolean: only the antichain.  heyting, pseudocomplemented: every
    finite distributive lattice is Heyting.  forest, root_system: rooted
    forests, A000081(n+1) unlabeled and (n+1)^(n-1) labeled.  stranded:
    sums of chains, the partition numbers and A000262.  stone, confluent,
    inv_normal, normal: sums of components with a least (or greatest)
    element, and a component with a least element on k points is any
    poset on k-1 points with a bottom added.
    '''
    counts = POSETS[mode]
    if n_max >= len(counts):
        raise ValueError('no published count past %d points' % (len(counts) - 1))
    if mode == 'unlabeled':
        forests = [1]
        for n in range(1, n_max + 1):
            forests.append(euler_transform([0] + forests[:n], n)[n])
        stranded = euler_transform([0] + [1] * n_max, n_max)
        rooted = euler_transform([0] + [counts[k - 1] for k in range(1, n_max + 1)],
                                 n_max)
    else:
        forests = [1] + [(n + 1) ** (n - 1) for n in range(1, n_max + 1)]
        stranded = exp_transform([0] + [factorial(k) for k in range(1, n_max + 1)],
                                 n_max)
        rooted = exp_transform([0] + [k * counts[k - 1] for k in range(1, n_max + 1)],
                               n_max)
    out = []
    for n in range(n_max + 1):
        out.append({
            'boolean': 1, 'heyting': counts[n], 'pseudocomplemented': counts[n],
            'forest': forests[n], 'root_system': forests[n],
            'stranded': stranded[n], 'stone': rooted[n], 'confluent': rooted[n],
            'inv_normal': rooted[n], 'normal': rooted[n],
        })
    return out


# ----------------------------------------------------------------------
# relations as bitmask rows


def closure(n, pairs):
    'Reflexive-transitive closure of the pairs as row masks, or None on a cycle.'
    rows = [1 << i for i in range(n)]
    for i, j in pairs:
        rows[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = rows[i]
            for j in range(n):
                if rows[i] >> j & 1:
                    grown |= rows[j]
            if grown != rows[i]:
                rows[i] = grown
                changed = True
    for i in range(n):
        for j in range(n):
            if i != j and rows[i] >> j & 1 and rows[j] >> i & 1:
                return None
    return tuple(rows)


def columns(rows):
    'Row masks of the converse relation: bit i of entry j when i <= j.'
    n = len(rows)
    return tuple(sum(1 << i for i in range(n) if rows[i] >> j & 1)
                 for j in range(n))


def covers(rows):
    'Pairs (i, j) with j immediately above i.'
    n = len(rows)
    out = set()
    for i in range(n):
        for j in range(n):
            if i != j and rows[i] >> j & 1 and not any(
                    k not in (i, j) and rows[i] >> k & 1 and rows[k] >> j & 1
                    for k in range(n)):
                out.add((i, j))
    return out


def downsets(rows):
    'Every down-closed subset, by scanning all subsets.'
    below = columns(rows)
    n = len(rows)
    return [s for s in range(1 << n)
            if all(below[x] & ~s == 0 for x in range(n) if s >> x & 1)]


def interior(below, mask):
    'Largest down-set inside mask: the points whose down-set, below[x], is inside.'
    return sum(1 << x for x, down in enumerate(below) if down & ~mask == 0)


def set_mask(label):
    'Mask of a "{0,2}" element label.'
    inner = label.strip()[1:-1]
    return sum(1 << int(part) for part in inner.split(',') if part)


# ----------------------------------------------------------------------
# order-side flags, by definition


def _chain(rows, members):
    return all(rows[a] >> b & 1 or rows[b] >> a & 1
               for a in members for b in members)


def _points(mask, n):
    return [x for x in range(n) if mask >> x & 1]


def order_flags(rows):
    n = len(rows)
    below = columns(rows)
    minimal = [x for x in range(n) if below[x] == 1 << x]
    maximal = [x for x in range(n) if rows[x] == 1 << x]
    components = []
    seen = set()
    for x in range(n):
        if x in seen:
            continue
        comp, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for z in range(n):
                if z not in comp and (rows[y] >> z & 1 or rows[z] >> y & 1):
                    comp.add(z)
                    todo.append(z)
        seen |= comp
        components.append(comp)
    confluent = all(below[y] & below[z]
                    for x in range(n)
                    for y in _points(below[x], n) for z in _points(below[x], n))
    return {
        'root_system': all(_chain(rows, _points(rows[x], n)) for x in range(n)),
        'forest': all(_chain(rows, _points(below[x], n)) for x in range(n)),
        'stranded': all(_chain(rows, comp) for comp in components),
        'confluent': confluent,
        'inv_normal': all(sum(1 for m in minimal if below[x] >> m & 1) == 1
                          for x in range(n)),
        'normal': all(sum(1 for m in maximal if rows[x] >> m & 1) == 1
                      for x in range(n)),
    }


def open_set_flags(rows):
    '''Lattice-side flags of the down-set lattice, ordered by inclusion.

    Meet and join of down-sets are intersection and union, and the
    largest down-set X with D & X inside E is the interior of ~D | E, so
    pseudocomplements and implications always exist: the lattice is
    Heyting and pseudocomplemented.  Stone and boolean are checked on
    every down-set.
    '''
    full = (1 << len(rows)) - 1
    below = columns(rows)
    downs = downsets(rows)
    known = set(downs)
    pc = {d: interior(below, full & ~d) for d in downs}
    return {
        'heyting': True,
        'pseudocomplemented': True,
        'stone': all(pc[d] | pc[pc[d]] == full for d in downs),
        'boolean': all((full & ~d) in known for d in downs),
    }


def profile(rows):
    'All ten profile flags of a poset.'
    flags = order_flags(rows)
    flags.update(open_set_flags(rows))
    return flags


def is_antichain(rows):
    return all(row == 1 << i for i, row in enumerate(rows))


# ----------------------------------------------------------------------
# lattices given by an order, by scanning bounds


class ScanLattice:
    'Meet and join tables of an order that must be a lattice.'

    def __init__(self, rows):
        n = len(rows)
        self.n = n
        self.rows = rows
        self.bottom = next(i for i in range(n) if rows[i] == (1 << n) - 1)
        self.top = next(i for i in range(n)
                        if all(rows[x] >> i & 1 for x in range(n)))
        self.meet = [[self._bound(a, b, lower=True) for b in range(n)]
                     for a in range(n)]
        self.join = [[self._bound(a, b, lower=False) for b in range(n)]
                     for a in range(n)]

    def leq(self, a, b):
        return bool(self.rows[a] >> b & 1)

    def _bound(self, a, b, lower):
        if lower:
            common = [x for x in range(self.n) if self.leq(x, a) and self.leq(x, b)]
            best = [x for x in common if all(self.leq(y, x) for y in common)]
        else:
            common = [x for x in range(self.n) if self.leq(a, x) and self.leq(b, x)]
            best = [x for x in common if all(self.leq(x, y) for y in common)]
        if len(best) != 1:
            raise ValueError('not a lattice: %d and %d' % (a, b))
        return best[0]

    def _greatest(self, candidates):
        best = [x for x in candidates if all(self.leq(y, x) for y in candidates)]
        return best[0] if best else None

    def pseudocomplement(self, a):
        return self._greatest([x for x in range(self.n)
                               if self.meet[a][x] == self.bottom])

    def implication(self, a, b):
        return self._greatest([x for x in range(self.n)
                               if self.leq(self.meet[a][x], b)])

    def distributive(self):
        m, j = self.meet, self.join
        r = range(self.n)
        return all(m[a][j[b][c]] == j[m[a][b]][m[a][c]] for a in r for b in r for c in r)

    def flags(self):
        pcs = [self.pseudocomplement(a) for a in range(self.n)]
        pc_ok = all(p is not None for p in pcs)
        distributive = self.distributive()
        return {
            'distributive': distributive,
            'pseudocomplemented': pc_ok,
            'stone': pc_ok and all(self.join[pcs[a]][pcs[pcs[a]]] == self.top
                                   for a in range(self.n)),
            'heyting': all(self.implication(a, b) is not None
                           for a in range(self.n) for b in range(self.n)),
            'boolean': distributive and all(
                any(self.meet[a][b] == self.bottom and self.join[a][b] == self.top
                    for b in range(self.n)) for a in range(self.n)),
        }

    def prime_ideal_count(self):
        'Proper principal ideals whose complement is closed under meet.'
        count = 0
        for x in range(self.n):
            if x == self.top:
                continue
            outside = [a for a in range(self.n) if not self.leq(a, x)]
            if all(not self.leq(self.meet[a][b], x) for a in outside for b in outside):
                count += 1
        return count


def product_order(first, second):
    'Row masks of the product order, element (a, b) numbered a * len(second) + b.'
    m = len(second)
    rows = []
    for a in range(len(first)):
        for b in range(m):
            rows.append(sum(1 << (c * m + d) for c in range(len(first))
                            for d in range(m)
                            if first[a] >> c & 1 and second[b] >> d & 1))
    return tuple(rows)


def relabel(rows, perm):
    'The same order with point i renamed perm[i].'
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        out[perm[i]] = sum(1 << perm[j] for j in range(len(rows)) if row >> j & 1)
    return tuple(out)
