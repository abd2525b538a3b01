'''Finite posets read as spectral spaces.

Orientation is fixed once for the whole package: the specialization
order is <=, so open sets are exactly the down-sets, closed sets are the
up-sets, and closed points sit on top.  The inverse space is the order
dual; nothing else ever flips the reading.

Points are 0..n-1 and the relation is held as immutable row bitmasks.
Point sets cross the API as plain iterables of indices and come back as
frozensets; mask-level twins of the hot operations are exposed with a
_mask suffix for the report loops.

Poset(n, pairs) takes its up and down rows from one topological pass
over the pairs (kernels.order_rows), linear in the pairs apart from the
ORs of the rows.  Warshall's closure and the antisymmetry scan run only
on a relation with a cycle, to name its first pair.  A poset built from
rows transposes them on the first read of down.

Poset is the one owner of order-derived mask data: the down-set masks
and DOWNSET_CAP, the bound on how many down-sets a poset may have.  The
up-set masks are the down-set masks of the dual, kept by the dual alone.
Every lattice on down-sets or up-sets is built from these masks.
'''

from functools import cached_property

from . import kernels
from .errors import InputError, PreconditionError, ResourceLimitError

DOWNSET_CAP = 4096


def check_size(kind, size):
    'ResourceLimitError for a poset or lattice of more than DOWNSET_CAP points or elements.'
    if size > DOWNSET_CAP:
        raise ResourceLimitError('%s size capped at %d (DOWNSET_CAP), got %d'
                                 % (kind, DOWNSET_CAP, size))


def is_int(value):
    'An int but not a bool: Python counts True and False as the ints 1 and 0.'
    return isinstance(value, int) and not isinstance(value, bool)


class Poset:
    'Immutable finite poset; accepts covering pairs or any relation pairs.'

    def __init__(self, n, relation=()):
        if not is_int(n) or n < 0:
            raise InputError('poset size must be a non-negative int, got %r' % (n,))
        pairs = []
        for pair in relation:
            try:
                i, j = pair
            except (TypeError, ValueError):
                raise InputError('relation entries must be index pairs, got %r'
                                 % (pair,)) from None
            if not (is_int(i) and is_int(j)):
                raise InputError('relation entries must be index pairs, got %r' % (pair,))
            if not (0 <= i < n and 0 <= j < n):
                raise InputError('pair (%d, %d) out of range for %d points' % (i, j, n))
            # a tuple or list pair is kept as it is, so parsed pairs are
            # not copied; only this call reads it
            pairs.append(pair if type(pair) in (tuple, list) else (i, j))
        rows = kernels.order_rows(n, pairs)
        if rows is None:
            raise InputError('not a partial order: %d and %d sit on a cycle'
                             % _cycle_pair(n, pairs))
        self.n = n
        self.up = tuple(rows[0])
        self.down = tuple(rows[1])
        self.full = (1 << n) - 1

    @classmethod
    def from_up_rows(cls, rows):
        'Trusted constructor from already closed, already checked row masks.'
        self = object.__new__(cls)
        self.n = len(rows)
        self.up = tuple(rows)
        self.full = (1 << self.n) - 1
        return self

    def __reduce__(self):
        return (Poset.from_up_rows, (self.up,))

    def __eq__(self, other):
        return isinstance(other, Poset) and self.up == other.up

    def __hash__(self):
        return hash(('poset', self.up))

    def __repr__(self):
        return 'Poset(%d, %r)' % (self.n, self.covers())

    @cached_property
    def down(self):
        return tuple(kernels.transpose(self.up))

    def leq(self, i, j):
        self._index(i)
        self._index(j)
        return bool(self.up[i] >> j & 1)

    def _index(self, i):
        if not (is_int(i) and 0 <= i < self.n):
            raise InputError('point %r out of range for %d points' % (i, self.n))

    def mask_of(self, points):
        'Validated bitmask of an iterable of point indices.'
        mask = 0
        for p in points:
            self._index(p)
            mask |= 1 << p
        return mask

    def set_of(self, mask):
        return frozenset(kernels.bit_indices(mask))

    def covers(self):
        'Covering pairs (i, j) with j immediately above i, ascending.'
        below = kernels.cover_lists(kernels.lower_covers(self.down))
        return sorted((i, j) for j in range(self.n) for i in below[j])

    # ------------------------------------------------------------------
    # closures, extremal points, topology

    def up_closure_mask(self, mask):
        out = 0
        rest = mask
        while rest:
            low = rest & -rest
            out |= self.up[low.bit_length() - 1]
            rest ^= low
        return out

    def down_closure_mask(self, mask):
        out = 0
        rest = mask
        while rest:
            low = rest & -rest
            out |= self.down[low.bit_length() - 1]
            rest ^= low
        return out

    def up_closure(self, points):
        'All specializations: every point above the given ones, plus them.'
        return self.set_of(self.up_closure_mask(self.mask_of(points)))

    def down_closure(self, points):
        'All generalizations: points below the given ones, plus them.'
        return self.set_of(self.down_closure_mask(self.mask_of(points)))

    @cached_property
    def minimal_mask(self):
        return self.relative_min_mask(self.full)

    @cached_property
    def maximal_mask(self):
        return self.relative_max_mask(self.full)

    def relative_max_mask(self, mask):
        'Maximal points of the subspace carried by mask.'
        return _extremal_mask(self.up, mask)

    def relative_min_mask(self, mask):
        'Minimal points of the subspace carried by mask.'
        return _extremal_mask(self.down, mask)

    def minimal_points(self):
        return self.set_of(self.minimal_mask)

    def maximal_points(self):
        return self.set_of(self.maximal_mask)

    def dual(self):
        'Order dual, which is the inverse spectral space; one object per poset.'
        return self._dual

    @cached_property
    def _dual(self):
        dual = Poset.from_up_rows(self.down)
        # the dual of the dual is this poset, whose rows are its down rows
        dual.__dict__.update(_dual=self, down=self.up)
        return dual

    def is_down_set_mask(self, mask):
        return self.down_closure_mask(mask) == mask

    def is_up_set_mask(self, mask):
        return self.up_closure_mask(mask) == mask

    def is_down_set(self, points):
        return self.is_down_set_mask(self.mask_of(points))

    def is_up_set(self, points):
        return self.is_up_set_mask(self.mask_of(points))

    # open means down-set and closed means up-set, by the fixed orientation
    is_open = is_down_set
    is_closed = is_up_set

    def is_clopen_mask(self, mask):
        return self.is_down_set_mask(mask) and self.is_up_set_mask(mask)

    def is_clopen(self, points):
        return self.is_clopen_mask(self.mask_of(points))

    def interior_mask(self, mask):
        out = 0
        for i in range(self.n):
            if self.down[i] & ~mask == 0:
                out |= 1 << i
        return out

    def interior(self, points):
        'Largest down-set inside the given set.'
        return self.set_of(self.interior_mask(self.mask_of(points)))

    def regularize_mask(self, mask):
        if not self.is_down_set_mask(mask):
            raise PreconditionError('regularize needs a down-set')
        return self.interior_mask(self.up_closure_mask(mask))

    def regularize(self, points):
        'Interior of the closure of a down-set, the double pseudocomplement.'
        return self.set_of(self.regularize_mask(self.mask_of(points)))

    def is_dense_mask(self, mask):
        return self.up_closure_mask(mask) == self.full

    def is_dense(self, points):
        return self.is_dense_mask(self.mask_of(points))

    # ------------------------------------------------------------------
    # patch topology and constructible sets
    #
    # The patch topology is generated by the down-sets together with the
    # up-sets.  The least patch neighborhood of x is therefore
    # down(x) & up(x), and the constructible algebra is generated by the
    # down-sets, whose membership signature at x is determined by down(x).
    # Both families trivialize on a finite poset, but the predicates below
    # compute the defining conditions literally instead of returning a
    # constant, and the tests pin the trivialization.

    def patch_neighborhood_mask(self, x):
        self._index(x)
        return self.down[x] & self.up[x]

    def is_patch_open_mask(self, mask):
        down, up = self.down, self.up
        rest = mask
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            if down[x] & up[x] & ~mask:
                return False
            rest ^= low
        return True

    def is_patch_closed_mask(self, mask):
        return self.is_patch_open_mask(self.full & ~mask)

    def patch_closure_mask(self, mask):
        down, up = self.down, self.up
        out = 0
        for x in range(self.n):
            if down[x] & up[x] & mask:
                out |= 1 << x
        return out

    @cached_property
    def _constructible_blocks(self):
        'Atoms of the algebra generated by the down-sets: equal-signature classes.'
        by_sig = {}
        for x in range(self.n):
            by_sig.setdefault(self.down[x], 0)
            by_sig[self.down[x]] |= 1 << x
        return tuple(sorted(by_sig.values()))

    def is_constructible_mask(self, mask):
        for block in self._constructible_blocks:
            inter = mask & block
            if inter and inter != block:
                return False
        return True

    def is_compact_mask(self, mask):
        'Compact iff the down-closure is patch closed.'
        return self.is_patch_closed_mask(self.down_closure_mask(mask))

    # ------------------------------------------------------------------
    # structure predicates

    def _is_chain_mask(self, mask):
        rest = mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            if mask & ~(self.up[i] | self.down[i]):
                return False
            rest ^= low
        return True

    def is_root_system(self):
        'Every up-set of a point is a chain.'
        return all(self._is_chain_mask(self.up[i]) for i in range(self.n))

    def is_forest(self):
        'Every down-set of a point is a chain.'
        return all(self._is_chain_mask(self.down[i]) for i in range(self.n))

    def is_stranded(self):
        'The whole poset is a disjoint sum of chains.'
        seen = 0
        for i in range(self.n):
            if seen >> i & 1:
                continue
            comp = 1 << i
            while True:
                grown = comp
                rest = comp
                while rest:
                    low = rest & -rest
                    j = low.bit_length() - 1
                    grown |= self.up[j] | self.down[j]
                    rest ^= low
                if grown == comp:
                    break
                comp = grown
            if not self._is_chain_mask(comp):
                return False
            seen |= comp
        return True

    def confluence_witness(self):
        'Triple (x, y, z) with y, z below x but no common lower bound, or None.'
        for x in range(self.n):
            below = kernels.bit_indices(self.down[x])
            for ai in range(len(below)):
                da = self.down[below[ai]]
                for bi in range(ai + 1, len(below)):
                    if da & self.down[below[bi]] == 0:
                        return x, below[ai], below[bi]
        return None

    def is_confluent(self):
        'Any two points below a common point have a common lower bound.'
        return self.confluence_witness() is None

    def is_inv_normal(self):
        'Exactly one minimal point below every point.'
        return all((self.down[x] & self.minimal_mask).bit_count() == 1
                   for x in range(self.n))

    def is_normal(self):
        'Exactly one maximal point above every point.'
        return all((self.up[x] & self.maximal_mask).bit_count() == 1
                   for x in range(self.n))

    # ------------------------------------------------------------------
    # subspaces, maps, retractions

    def induced(self, points):
        'Subposet on the given points plus the sorted carrier tuple.'
        return self.induced_mask(self.mask_of(points))

    def induced_mask(self, carrier_mask):
        carrier = tuple(kernels.bit_indices(carrier_mask))
        return self.induced_order(carrier), carrier

    def induced_order(self, order):
        '''Subposet on the points of order, numbered as order lists them:
        its point k is order[k] (kernels.relabel).

        induced and induced_mask number the carrier ascending; any other
        order gives an isomorphic copy with other up rows.  Like the
        _mask twins it trusts its argument: distinct points of this poset.
        '''
        return Poset.from_up_rows(kernels.relabel(self.up, order))

    def min_point_map(self):
        'x -> its unique minimal point, or None when some x has several.'
        if not self.is_inv_normal():
            return None
        return tuple((self.down[x] & self.minimal_mask).bit_length() - 1
                     for x in range(self.n))

    def max_point_map(self):
        if not self.is_normal():
            return None
        return tuple((self.up[x] & self.maximal_mask).bit_length() - 1
                     for x in range(self.n))

    def retraction(self, kind):
        '''Continuous retraction onto the extremal antichain, or None.

        The target carries the subspace topology of an antichain, where
        every subset is open; the generic continuity check covers that
        because every subset of an antichain is a down-set.
        '''
        if kind == 'to_min':
            assignment = self.min_point_map()
            extremal = self.minimal_mask
        elif kind == 'to_max':
            assignment = self.max_point_map()
            extremal = self.maximal_mask
        else:
            raise InputError('unknown retraction kind %r' % (kind,))
        if assignment is None:
            return None
        target, carrier = self.induced(self.set_of(extremal))
        index = {p: a for a, p in enumerate(carrier)}
        fmap = MonotoneMap(self, target, tuple(index[p] for p in assignment),
                           target_points=carrier)
        if not (fmap.is_monotone() and fmap.is_continuous()):
            return None
        return fmap

    @cached_property
    def downset_masks_all(self):
        'Every down-set as a mask, ascending; more than DOWNSET_CAP raises.'
        return tuple(kernels.downset_masks(self.up, DOWNSET_CAP))

    @property
    def upset_masks_all(self):
        'Every up-set as a mask, ascending: the down-sets of the dual.'
        return self.dual().downset_masks_all

    @cached_property
    def canonical_rows(self):
        return kernels.canonical_key(self.up)

    def canonical(self):
        'Relabeled copy in canonical form.'
        return Poset.from_up_rows(self.canonical_rows)

    def isomorphic_to(self, other):
        if not isinstance(other, Poset):
            raise InputError('isomorphic_to expects a Poset')
        return self.n == other.n and self.canonical_rows == other.canonical_rows


def _cycle_pair(n, pairs):
    '''First pair (i, j), i < j, that the cyclic relation pairs relates both
    ways: Warshall's closure and the antisymmetry scan, run only to name it.'''
    rows = [1 << i for i in range(n)]
    for i, j in pairs:
        rows[i] |= 1 << j
    return kernels.antisymmetry_violation(kernels.transitive_closure(rows))


def _extremal_mask(rows, mask):
    'Points of mask whose row meets mask in the point alone.'
    out = 0
    rest = mask
    while rest:
        low = rest & -rest
        if rows[low.bit_length() - 1] & mask == low:
            out |= low
        rest ^= low
    return out


def are_isomorphic(first, second):
    'Isomorphism test through the shared canonical form.'
    return first.isomorphic_to(second)


class MonotoneMap:
    'Total map between posets held as an assignment tuple over the source.'

    def __init__(self, source, target, assignment, target_points=None):
        if len(assignment) != source.n:
            raise InputError('assignment must cover all %d source points' % source.n)
        for value in assignment:
            target._index(value)
        self.source = source
        self.target = target
        self.assignment = tuple(assignment)
        # original indices behind the target, when the target is a subspace
        self.target_points = target_points

    def __call__(self, i):
        self.source._index(i)
        return self.assignment[i]

    def __eq__(self, other):
        return (isinstance(other, MonotoneMap)
                and self.source == other.source
                and self.target == other.target
                and self.assignment == other.assignment)

    def __repr__(self):
        return 'MonotoneMap(%r)' % (self.assignment,)

    def is_monotone(self):
        src, tgt, f = self.source, self.target, self.assignment
        for i in range(src.n):
            rest = src.up[i]
            while rest:
                low = rest & -rest
                if not tgt.up[f[i]] >> f[low.bit_length() - 1] & 1:
                    return False
                rest ^= low
        return True

    def is_continuous(self):
        'Preimage of every open set of the target is open in the source.'
        src, tgt, f = self.source, self.target, self.assignment
        for open_mask in tgt.downset_masks_all:
            pre = 0
            for i in range(src.n):
                if open_mask >> f[i] & 1:
                    pre |= 1 << i
            if not src.is_down_set_mask(pre):
                return False
        return True
