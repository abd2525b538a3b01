'''Cross-layer identities: the order side against the down-set lattice.

Element a of downset_lattice(P) holds the down-set masks[a] of P, so
each lattice operation has a reading on P's masks.  Every identity runs
on every class of up to 6 points, over all down-sets d and e, and each
side is computed by its own code path: the lattice side through the
Lattice API, the order side through Poset's mask methods.  A test
collects every mismatch and reports how many there were.
'''

from functools import lru_cache

from finspec import kernels
from finspec.duality import downset_lattice
from finspec.poset import Poset

MAX_POINTS = 6


@lru_cache(maxsize=None)
def _posets():
    'Every class up to MAX_POINTS points.'
    return tuple(Poset.from_up_rows(rows) for n in range(MAX_POINTS + 1)
                 for rows in kernels.unlabeled_reps(n))


def _cases():
    '''Per class up to MAX_POINTS points: (poset, its down-set lattice, masks).
    Each lattice comes from the down-set lattice cache when asked for, so
    this module keeps none alive from one test to the next.'''
    for poset in _posets():
        yield poset, downset_lattice(poset), poset.downset_masks_all


def _pairs():
    'Per pair of down-sets (d, e) of each class: (poset, lattice, masks, a, b).'
    for poset, lat, masks in _cases():
        for a in range(lat.n):
            for b in range(lat.n):
                yield poset, lat, masks, a, b


def _report(bad, checks):
    assert checks > 0
    assert not bad, '%d of %d checks failed, first %r' % (len(bad), checks, bad[0])


def test_pseudocomplement_is_the_complement_of_the_up_closure():
    # d* is the largest down-set disjoint from d: everything not above d
    bad, checks = [], 0
    for poset, lat, masks in _cases():
        for a, d in enumerate(masks):
            checks += 1
            want = poset.full & ~poset.up_closure_mask(d)
            got = lat.pseudocomplement(a)
            if got is None or masks[got] != want:
                bad.append((poset.up, d, want, got))
    _report(bad, checks)


def test_regularization_is_the_double_pseudocomplement():
    bad, checks = [], 0
    for poset, lat, masks in _cases():
        for a, d in enumerate(masks):
            checks += 1
            want = masks[lat.pseudocomplement(lat.pseudocomplement(a))]
            got = poset.regularize_mask(d)
            if got != want:
                bad.append((poset.up, d, want, got))
    _report(bad, checks)


def test_meet_and_join_are_intersection_and_union():
    bad, checks = [], 0
    for poset, lat, masks, a, b in _pairs():
        checks += 2
        if masks[lat.meet(a, b)] != masks[a] & masks[b]:
            bad.append(('meet', poset.up, masks[a], masks[b]))
        if masks[lat.join(a, b)] != masks[a] | masks[b]:
            bad.append(('join', poset.up, masks[a], masks[b]))
    _report(bad, checks)


def test_implication_is_the_interior_of_the_relative_complement():
    # d -> e is the largest down-set x with d & x inside e
    bad, checks = [], 0
    for poset, lat, masks, a, b in _pairs():
        checks += 1
        d, e = masks[a], masks[b]
        want = poset.interior_mask(poset.full & (~d | e))
        got = lat.implication(a, b)
        if got is None or masks[got] != want:
            bad.append((poset.up, d, e, want, got))
    _report(bad, checks)


def test_join_irreducibles_are_the_principal_down_sets():
    bad, checks = [], 0
    for poset, lat, masks in _cases():
        checks += 1
        got = sorted(masks[j] for j in lat.join_irreducibles())
        if got != sorted(poset.down):
            bad.append((poset.up, got))
    _report(bad, checks)


def test_prime_ideal_tops_are_the_complements_of_principal_up_sets():
    # Birkhoff: the proper prime ideals of the down-set lattice are the
    # principal ideals of the down-sets avoiding one point x, one per point;
    # both prime routes are checked, each on its own
    bad, checks = [], 0
    for poset, lat, masks in _cases():
        want = sorted(poset.full & ~row for row in poset.up)
        for route in (lat.prime_ideals, lat.prime_ideals_via_irreducibles):
            checks += 1
            got = sorted(masks[ideal.top] for ideal in route())
            if got != want:
                bad.append((route.__name__, poset.up, got))
    _report(bad, checks)
