'''Finite Stone duality, both directions.

A poset yields its lattice of down-sets; a lattice yields its poset of
proper prime ideals ordered by inclusion.  On the distributive side the
two trips compose to isomorphisms, and both round trips verify that
instead of assuming it: each builds the canonical comparison map and
checks it with Isomorphism.  stone_roundtrip hands back None, and
poset_roundtrip False, whenever that map fails to be an isomorphism.

The up-set lattice (the closed constructible sets) is the down-set
lattice of the order dual, so both come from the one cached builder and
read their member masks from Poset, which also holds DOWNSET_CAP.  That
cache, from rows_cache, keys each lattice by the poset's rows, never by
the poset, and drops its least recently used lattices once the lattices
it holds pass LATTICE_CACHE_ELEMENTS elements in all.  The report caches
of finspec.reports come from rows_cache too.

Beside that cache, inclusion_lattice pools the order data of every
lattice of sets by its up rows, which fix every table and verdict of a
Lattice but not its labels.  The pool holds a weak reference to each
lattice it validated, and every copy it hands out holds its original,
so an entry lasts exactly as long as some lattice with those rows and
the pool needs no bound of its own.  While it lasts, the next lattice
with those rows takes the original's rows, meet table and verdicts so
far and keeps its own labels; otherwise it is built and validated in
full.  The keys are exact rows, not canonical forms: a relabeled
order is another key, and no reading moves to an isomorphic copy.  The
cache still weighs each lattice by its elements, shared tables or not,
so LATTICE_CACHE_ELEMENTS now over-counts the memory it holds.

Numbering is deterministic everywhere: down-sets, up-sets and prime
ideals are sorted ascending by member mask, which is also a linear
extension of inclusion.
'''

import _weakref
import functools
from collections import namedtuple
from types import SimpleNamespace

from . import kernels
from .errors import InputError, ResourceLimitError
from .lattice import Lattice, SetLabels
from .poset import DOWNSET_CAP, Poset, check_size

# the most points whose powerset, of 2**n elements, fits in DOWNSET_CAP
ENVELOPE_MAX_POINTS = DOWNSET_CAP.bit_length() - 1
# the down-set lattice cache holds at most this many elements, summed
# over its lattices: 16 lattices of DOWNSET_CAP elements
LATTICE_CACHE_ELEMENTS = 16 * DOWNSET_CAP


def inclusion_lattice(masks):
    '''Sets under inclusion, element i being masks[i]; builds every lattice of sets.

    The masks must be strictly ascending, so that the sets are distinct
    and the numbering is a linear extension of inclusion; any other
    order raises InputError.  More than DOWNSET_CAP masks raise
    ResourceLimitError before inclusion_rows runs.  Validation runs only
    when no lattice of sets with the same up rows is alive (the pool of
    the module docstring); the lattice returned always carries these
    masks as its labels.
    '''
    check_size('lattice', len(masks))
    last = -1
    for s in masks:
        if s <= last:
            raise InputError('the sets of an inclusion lattice must be distinct '
                             'and ascending: %d follows %d' % (s, last))
        last = s
    up, down = kernels.inclusion_rows(masks)
    rows = tuple(up)
    entry = _orders.get(rows)
    live = None if entry is None else entry()
    if live is None:
        lattice = Lattice._from_rows(rows, down, SetLabels(masks))
        entry = _orders[rows] = _Entry(lattice, _forget)
        entry.rows = rows
        return lattice
    # the original's rows, tables and verdicts so far, in a dict of this
    # lattice's own, so what either computes later stays its own; the copy
    # holds the original, which keeps the pool's entry
    lattice = object.__new__(Lattice)
    lattice.__dict__.update(vars(live), labels=SetLabels(masks), _original=live)
    return lattice


class _Entry(_weakref.ref):
    '''A weak reference to the lattice of sets validated with the rows it
    is filed under in _orders.  _weakref is loaded at interpreter start;
    importing weakref would add about 1 ms to the CLI's cold start.'''
    __slots__ = ('rows',)


# up rows -> the _Entry of the lattice of sets validated with them
_orders = {}


def _forget(entry):
    'Drop a freed lattice from the pool: no lattice with its rows is left.'
    del _orders[entry.rows]


def rows_cache(bound, weight=lambda value: 1):
    '''Decorator: fn's results by the rows of the poset they are for,
    least recently used first out.

    Posets compare equal exactly when their rows do, so a key of rows
    hits and misses where the poset would, but holds no poset: once no
    caller holds a poset, it goes, and every set it has cached with it.
    Further arguments join the key.  The entries held never weigh more
    than bound() in all, read at each miss; an entry weighs 1 unless
    weight is given, and one heavier than the bound is evicted as it
    comes in.  cache_info and cache_clear stand in for an lru_cache's.
    A closure, not an instance's __call__, since a sweep makes some
    hundred thousand calls.
    '''
    def decorate(fn):
        held = {}
        hits = misses = elements = 0

        def cached(poset, *args):
            nonlocal hits, misses, elements
            key = (poset.up, *args) if args else poset.up
            value = held.pop(key, None)
            if value is not None:
                hits += 1
                held[key] = value  # the dict keeps insertion order: now the newest
                return value
            misses += 1
            value = held[key] = fn(poset, *args)
            elements += weight(value)
            most = bound()
            while elements > most:
                elements -= weight(held.pop(next(iter(held))))
            return value

        def cache_info():
            'Hits, misses, the entries held now and their weight, elements.'
            return SimpleNamespace(hits=hits, misses=misses, currsize=len(held),
                                   elements=elements)

        def cache_clear():
            nonlocal hits, misses, elements
            held.clear()
            hits = misses = elements = 0

        cached.cache_info, cached.cache_clear = cache_info, cache_clear
        return functools.update_wrapper(cached, fn)
    return decorate


# a lattice weighs its elements: its tables grow with their square, so a
# count of entries would not bound its memory
@rows_cache(lambda: LATTICE_CACHE_ELEMENTS, weight=lambda lattice: lattice.n)
def _downset_lattice_cached(poset):
    return inclusion_lattice(poset.downset_masks_all)


def downset_lattice(poset):
    'Down-sets by inclusion; element i holds poset.downset_masks_all[i].'
    return _downset_lattice_cached(poset)


def qccl_lattice(poset):
    '''Lattice of up-sets (the closed constructible sets) ordered by inclusion.

    It is the down-set lattice of the dual, so it shares that cache;
    element i holds poset.upset_masks_all[i].
    '''
    return downset_lattice(poset.dual())


def spec_poset(lattice):
    'Poset of proper prime ideals under inclusion, ascending by member mask.'
    return _spectrum(lattice.prime_ideals())


def _spectrum(primes):
    'Poset of the given prime ideals under inclusion, in their ascending order.'
    return Poset.from_up_rows(kernels.inclusion_rows([ideal.mask for ideal in primes])[0])


def d_map(lattice, a):
    'Point set of spec_poset supporting a: the primes that avoid a.'
    lattice._index(a)
    return frozenset(i for i, ideal in enumerate(lattice.prime_ideals())
                     if a not in ideal)


class Isomorphism(namedtuple('Isomorphism', 'source target forward backward')):
    'Mutually inverse order-preserving assignments between two structures.'
    __slots__ = ()

    def __new__(cls, source, target, forward, backward):
        if len(forward) != source.n or len(backward) != target.n:
            raise InputError('isomorphism assignments must be total')
        for a in range(source.n):
            if backward[forward[a]] != a:
                raise InputError('assignments are not mutually inverse')
        for b in range(target.n):
            if forward[backward[b]] != b:
                raise InputError('assignments are not mutually inverse')
        if kernels.relabel(source.up, backward) != list(target.up):
            raise InputError('assignment does not preserve the order both ways')
        return super().__new__(cls, source, target, forward, backward)


def _isomorphism(source, target, forward):
    'Isomorphism of source onto target sending a to forward[a], or None.'
    if len(set(forward)) != source.n or target.n != source.n:
        return None
    backward = [0] * target.n
    for a, b in enumerate(forward):
        backward[b] = a
    try:
        return Isomorphism(source, target, tuple(forward), tuple(backward))
    except InputError:
        return None


def stone_roundtrip(lattice):
    '''Isomorphism of L onto the down-set lattice of its prime spectrum, or None.

    The comparison map sends a to the set of primes avoiding a.  It is an
    isomorphism exactly for the distributive lattices, which the caller
    can cross-check against is_distributive.
    '''
    primes = lattice.prime_ideals()
    spectrum = _spectrum(primes)
    target = downset_lattice(spectrum)
    index = {mask: i for i, mask in enumerate(spectrum.downset_masks_all)}
    forward = []
    for a in range(lattice.n):
        image = 0
        for i, ideal in enumerate(primes):
            if not ideal.mask >> a & 1:
                image |= 1 << i
        forward.append(index[image])
    return _isomorphism(lattice, target, forward)


def poset_roundtrip(poset):
    '''Does P come back from the prime spectrum of its down-set lattice?

    The comparison map sends a point x to the prime ideal of the
    down-sets that miss it.  True exactly when every such ideal is among
    the lattice's prime ideals and the map is an isomorphism of P onto
    their spectrum; no canonical form is searched for.
    '''
    primes = downset_lattice(poset).prime_ideals()
    index = {ideal.mask: i for i, ideal in enumerate(primes)}
    forward = []
    for x in range(poset.n):
        missing = 0
        for a, members in enumerate(poset.downset_masks_all):
            if not members >> x & 1:
                missing |= 1 << a
        if missing not in index:
            return False
        forward.append(index[missing])
    return _isomorphism(poset, _spectrum(primes), forward) is not None


def check_envelope(n):
    'ResourceLimitError for a powerset of more than ENVELOPE_MAX_POINTS points.'
    if n > ENVELOPE_MAX_POINTS:
        raise ResourceLimitError('boolean envelope capped at %d points (ENVELOPE_MAX_POINTS), '
                                 'got %d' % (ENVELOPE_MAX_POINTS, n))


def boolean_envelope(poset):
    '''Powerset lattice of the carrier plus the down-set lattice embedding.

    At finite scale the enveloping Boolean algebra of the down-set
    lattice is the full powerset; the returned tuple maps down-set
    lattice elements to powerset elements.
    '''
    check_envelope(poset.n)
    envelope = inclusion_lattice(range(1 << poset.n))
    embedding = poset.downset_masks_all
    return envelope, embedding
