'''Finite bounded lattices specified by their order alone.

The constructor takes the up and down rows of its order from Poset,
which builds both in one topological pass over the pairs
(kernels.order_rows), so nothing is transposed; Warshall's closure runs
only to name a cycle.  It locates bottom and top, and validates by
building the meet table from the order: a finite bounded poset in which
every pair has a meet is a lattice, so the meet table validates alone.
Only when validation fails is the join table built, as the meet table of
the dual order, to name the first pair that lacks either bound.  The
meet table is the one operation table a lattice keeps, and the Heyting
check reads it.  A join is read off the up rows: the common upper bounds
of a and b are the up row of a v b, so join() finds the element with
that row.  is_distributive is Birkhoff's test on the order rows: every
join-irreducible is join-prime, one set lookup each
(kernels.join_prime_witness).  is_stone reads a* v a** = 1 off the up
rows: a join is the top exactly when the top is the only common upper
bound, one AND per element.  The pseudocomplements and is_boolean read
the order masks too, by their definitions in terms of the order.  So
every verdict runs at any size the cap admits.

Every table and verdict is a function of the up rows alone; __eq__
compares nothing else.  So among the lattices of sets that
duality.inclusion_lattice builds, validation runs only for an order
that no live lattice of sets holds; otherwise the new lattice takes the
validated one's tables and verdicts so far, and keeps its own labels.

distributivity_witness is a reading of its own: the triple scan over
the meet table and a join table that kernels.distributive_witness
builds for the scan alone.  The scan reads one-byte tables, so past 256
elements it is refused before that join table is built.  Neither
distributivity reading is derived from the other.  The implications
come from the candidate-set pass over the meet table that the Heyting
check runs: the whole a -> b table is built in one pass the first time
implication is asked for, and never on the verdict path.

The ideal layer reads the order rows too.  Every ideal and every filter
of a finite lattice is principal, so a set of elements is an ideal
exactly when it is some element's down row, and a proper ideal is prime
exactly when its complement is some element's up row.  An element is
join-irreducible exactly when it covers one other, so join_irreducibles
reads the lower covers, which each lattice walks once and hands to the
Heyting pass too.  Two ideals with greatest elements p and q hold a
pair joining to the top exactly when p v q is the top, which the
coprimality check reads off the up rows as is_stone does, one AND per
pair of minimal primes.  The second prime route takes the elements not
above each join-irreducible j; they form an ideal exactly when j is
join-prime, and PreconditionError names the first j that is not,
through the same kernels.join_prime_witness as is_distributive.
A lattice has at most DOWNSET_CAP elements, checked once on each way in
before any super-linear step.  Absent values (a pseudocomplement or
implication that does not exist) come back as None, never as an error.
'''

from functools import cached_property

from . import kernels
from .errors import InputError, PreconditionError
from .poset import Poset, check_size, is_int


class SetLabels:
    '''The labels {i,j,...} of a lattice of sets, element a being the set
    masks[a]; a label is formatted when it is read, not when the lattice
    is built, since only the tables and diagrams ever read one.'''

    __slots__ = ('masks',)

    def __init__(self, masks):
        self.masks = tuple(masks)

    def __len__(self):
        return len(self.masks)

    def __getitem__(self, a):
        return '{%s}' % ','.join(map(str, kernels.bit_indices(self.masks[a])))

    def __eq__(self, other):
        return isinstance(other, SetLabels) and self.masks == other.masks

    def __hash__(self):
        return hash(self.masks)


class Lattice:
    'Immutable finite bounded lattice on elements 0..n-1.'

    def __init__(self, n, relation=(), bottom=None, top=None, labels=None):
        if not is_int(n) or n < 1:
            raise InputError('a bounded lattice needs at least one element')
        check_size('lattice', n)  # before the order rows, n bits each
        order = Poset(n, relation)  # up and down rows from one pass
        self._adopt(order.up, order.down, bottom, top, labels)

    @classmethod
    def from_up_rows(cls, rows, labels=None):
        'Constructor from closed row masks; still validates lattice-ness.'
        check_size('lattice', len(rows))  # before the transpose
        return cls._from_rows(rows, kernels.transpose(rows), labels)

    @classmethod
    def _from_rows(cls, up, down, labels):
        'From closed up rows and their transpose, down, of a size already checked.'
        self = object.__new__(cls)
        if not up:
            raise InputError('a bounded lattice needs at least one element')
        self._adopt(up, down, None, None, labels)
        return self

    def _adopt(self, up, down, bottom, top, labels):
        n = len(up)
        self.n = n
        self.up = tuple(up)
        self.down = tuple(down)
        self.full = (1 << n) - 1
        if labels is not None and len(labels) != n:
            raise InputError('need %d labels, got %d' % (n, len(labels)))
        if labels is not None and not isinstance(labels, SetLabels):
            labels = tuple(labels)
        self.labels = labels

        found_bottom = found_top = None
        for i in range(n):
            if self.up[i] == self.full:
                found_bottom = i
            if self.down[i] == self.full:
                found_top = i
        if found_bottom is None:
            raise InputError('not a lattice: no bottom element')
        if found_top is None:
            raise InputError('not a lattice: no top element')
        if bottom is not None and not (is_int(bottom) and bottom == found_bottom):
            raise InputError('declared bottom %r but the least element is %d'
                             % (bottom, found_bottom))
        if top is not None and not (is_int(top) and top == found_top):
            raise InputError('declared top %r but the greatest element is %d'
                             % (top, found_top))
        self.bottom = found_bottom
        self.top = found_top

        self._meet, missing = kernels.meet_table(self.down)
        if missing is not None:
            # a bounded poset with every join has every meet, so some pair
            # lacks a join too; name whichever pair comes first
            _, no_join = kernels.meet_table(self.up)
            if no_join < missing:
                raise InputError('not a lattice: %d and %d have no join' % no_join)
            raise InputError('not a lattice: %d and %d have no meet' % missing)

    def __reduce__(self):
        return (Lattice.from_up_rows, (self.up, self.labels))

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.up == other.up

    def __hash__(self):
        return hash(('lattice', self.up))

    def __repr__(self):
        return 'Lattice(%d, %r)' % (self.n, self.order_poset().covers())

    def _index(self, a):
        if not (is_int(a) and 0 <= a < self.n):
            raise InputError('element %r out of range for %d elements' % (a, self.n))

    def label(self, a):
        self._index(a)
        return str(a) if self.labels is None else self.labels[a]

    def order_poset(self):
        'The order reduct as a plain poset, built on first use.'
        return self._order_poset

    @cached_property
    def _order_poset(self):
        order = Poset.from_up_rows(self.up)
        order.down = self.down  # shared, not transposed again
        return order

    def leq(self, a, b):
        self._index(a)
        self._index(b)
        return bool(self.up[a] >> b & 1)

    def meet(self, a, b):
        self._index(a)
        self._index(b)
        return self._meet[a * self.n + b]

    def join(self, a, b):
        self._index(a)
        self._index(b)
        # the common upper bounds form the up row of the join
        return self.up.index(self.up[a] & self.up[b])

    def dual(self):
        'Order dual; swaps meet with join and bottom with top.'
        return Lattice._from_rows(self.down, self.up, self.labels)

    # ------------------------------------------------------------------
    # derived algebraic structure

    @cached_property
    def _lower_covers(self):
        # one walk per lattice, for the join-irreducibles and the Heyting pass
        return kernels.lower_covers(self.down)

    @cached_property
    def _join_prime_witness(self):
        return kernels.join_prime_witness(self.join_irreducibles(), self.down, self.up)

    def is_distributive(self):
        'Every join-irreducible is join-prime (Birkhoff), read off the order rows.'
        return self._join_prime_witness is None

    @cached_property
    def _distributive_witness(self):
        return kernels.distributive_witness(self._meet, self.up)

    def distributivity_witness(self):
        '''Triple (a, b, c) with a ^ (b v c) != (a ^ b) v (a ^ c), or None.

        The triple scan, a reading apart from is_distributive; past 256
        elements it raises ResourceLimitError before a join table is built.
        '''
        return self._distributive_witness

    @cached_property
    def _pseudocomplements(self):
        return tuple(kernels.pseudocomplement_vector(self.down, self.up, self.bottom))

    def pseudocomplement(self, a):
        'Greatest element meeting a at bottom, or None when there is none.'
        self._index(a)
        got = self._pseudocomplements[a]
        return None if got < 0 else got

    def is_pseudocomplemented(self):
        return all(got >= 0 for got in self._pseudocomplements)

    def is_stone(self):
        'Pseudocomplemented and every a* v a** reaches the top.'
        if not self.is_pseudocomplemented():
            return False
        # a join is the top exactly when the top is the only common upper bound
        pc, up, top = self._pseudocomplements, self.up, 1 << self.top
        return all(up[p] & up[pc[p]] == top for p in pc)

    @cached_property
    def _implications(self):
        return kernels.implication_index(self._meet, self.down, self._lower_covers)

    def implication(self, a, b):
        'Greatest x with meet(a, x) <= b, or None; the relative pseudocomplement.'
        self._index(a)
        self._index(b)
        got = self._implications[a * self.n + b]
        return None if got < 0 else got

    def implication_table(self):
        'Rows of a -> b for every pair, None where the implication is absent.'
        table, n = self._implications, self.n
        # index -1 lands on the trailing None; the rows share these ints
        value = list(range(n)) + [None]
        return [[value[got] for got in table[a * n:a * n + n]] for a in range(n)]

    @cached_property
    def _heyting_witness(self):
        return kernels.heyting_witness(self._meet, self.down, self._lower_covers)

    def is_heyting(self):
        return self._heyting_witness is None

    def heyting_witness(self):
        'First pair (a, b) with no implication a -> b, or None.'
        return self._heyting_witness

    def is_boolean(self):
        'Distributive, and every element has a complement.'
        if not self.is_distributive():
            return False
        bot = 1 << self.bottom
        topmask = 1 << self.top
        for a in range(self.n):
            if not any(self.down[a] & self.down[b] == bot
                       and self.up[a] & self.up[b] == topmask
                       for b in range(self.n)):
                return False
        return True

    def join_irreducibles(self):
        'Elements that are no join of two smaller ones: those covering exactly one.'
        return [j for j, covers in enumerate(kernels.cover_lists(self._lower_covers))
                if len(covers) == 1]

    # ------------------------------------------------------------------
    # ideals

    def prime_ideals(self):
        '''Proper prime ideals, ascending by member mask.

        Every ideal of a finite lattice is principal, so the scan walks
        principal down-sets and keeps the prime ones.
        '''
        mask = kernels.prime_element_mask(self.down, self.up)
        ideals = []
        rest = mask
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            ideals.append(LatticeIdeal(self, self.order_poset().set_of(self.down[x])))
            rest ^= low
        ideals.sort(key=lambda ideal: ideal.mask)
        return ideals

    def prime_ideals_via_irreducibles(self):
        '''Second route: the avoided-element ideals of the join-irreducibles.

        The elements not above j form an ideal exactly when j is
        join-prime, as every join-irreducible of a distributive lattice
        is; PreconditionError names the first join-irreducible that is not.
        '''
        irreducibles = self.join_irreducibles()
        failing = kernels.join_prime_witness(irreducibles, self.down, self.up)
        if failing is not None:
            raise PreconditionError(
                'join-irreducible %d is not join-prime; the prime ideals via '
                'join-irreducibles need every join-irreducible join-prime, '
                'as in a distributive lattice' % failing)
        ideals = [LatticeIdeal(self, self.order_poset().set_of(self.full & ~self.up[j]))
                  for j in irreducibles]
        ideals.sort(key=lambda ideal: ideal.mask)
        return ideals

    def minimal_prime_ideals(self):
        'Prime ideals containing no other prime, ascending by member mask.'
        primes = self.prime_ideals()
        _, down = kernels.inclusion_rows([ideal.mask for ideal in primes])
        return [ideal for i, ideal in enumerate(primes) if down[i] == 1 << i]

    def non_coprime_witness(self):
        'Pair of distinct minimal primes with no join reaching top, or None.'
        up, top = self.up, 1 << self.top
        minimal = self.minimal_prime_ideals()
        for i, first in enumerate(minimal):
            for second in minimal[i + 1:]:
                # every join of their members lies below the join of their
                # tops, which is the top exactly when the top alone is above both
                if up[first.top] & up[second.top] != top:
                    return first, second
        return None

    def minimal_primes_coprime(self):
        'Every two distinct minimal primes contain a pair joining to top.'
        return self.non_coprime_witness() is None


class LatticeIdeal:
    'Nonempty, down-closed, join-closed subset of a lattice: the down row of its top.'

    def __init__(self, lattice, members):
        mask = lattice.order_poset().mask_of(members)
        if mask == 0:
            raise InputError('an ideal cannot be empty')
        if lattice.order_poset().down_closure_mask(mask) != mask:
            raise InputError('ideal members must be down-closed')
        try:
            self.top = lattice.down.index(mask)
        except ValueError:
            raise InputError('ideal members must be closed under join') from None
        self.lattice = lattice
        self.mask = mask
        self.members = frozenset(kernels.bit_indices(mask))

    def __contains__(self, a):
        return is_int(a) and 0 <= a < self.lattice.n and self.mask >> a & 1

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return (isinstance(other, LatticeIdeal)
                and self.lattice == other.lattice and self.mask == other.mask)

    def __hash__(self):
        return hash(('ideal', self.lattice.up, self.mask))

    def __repr__(self):
        return 'LatticeIdeal(%r)' % (sorted(self.members),)

    def is_proper(self):
        return self.mask != self.lattice.full

    def is_prime(self):
        'Proper, and the elements outside form a filter: the up row of some element.'
        return self.is_proper() and self.lattice.full & ~self.mask in self.lattice.up
