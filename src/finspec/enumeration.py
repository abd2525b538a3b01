'''Exhaustive generation of finite posets.

STREAMS is the one table of enumeration modes: per mode, a generator of
row tuples and the largest size it serves.  Labeled mode streams every
partial order on {0..n-1} exactly once, in a fixed depth-first extension
order.  Unlabeled mode yields one canonical representative per
isomorphism class, ascending in the canonical key, so the delivered
order never depends on how the work was split up.  Its levels grow by
maximal points: every poset on n points is one on n - 1 points plus a
maximal point, so each class on n - 1 points is extended by a new
maximal point above some of its down-sets, about one canonical search
per class (kernels.unlabeled_reps says which), and the results are
deduplicated by canonical key.

Labeled mode stops at 6 points, since 7 points already have 6,129,859
labeled orders; unlabeled mode reaches 8 points (16,999 classes).
'''

from . import kernels
from .errors import InputError, ResourceLimitError
from .poset import Poset, is_int

# the generators look the kernels up at call time, so a wrapper bound
# over kernels.labeled_stream or kernels.unlabeled_reps sees every call
STREAMS = {
    'labeled': (lambda n: kernels.labeled_stream(n), 6),
    'unlabeled': (lambda n: kernels.unlabeled_reps(n), 8),
}

MAX_POINTS = {mode: cap for mode, (_, cap) in STREAMS.items()}


def check_args(n, mode):
    "InputError for a bad size or mode, ResourceLimitError past the mode's cap."
    if not is_int(n) or n < 0:
        raise InputError('size must be a non-negative int, got %r' % (n,))
    if mode not in STREAMS:
        raise InputError('mode must be one of %s, got %r' % (', '.join(STREAMS), mode))
    if n > MAX_POINTS[mode]:
        raise ResourceLimitError('%s enumeration capped at %d points, asked for %d'
                                 % (mode, MAX_POINTS[mode], n))


def enumerate_posets(n, mode='unlabeled'):
    'Stream the posets on n points, once per labeling or once per class.'
    check_args(n, mode)
    return (Poset.from_up_rows(rows) for rows in STREAMS[mode][0](n))


def count_posets(n, mode='unlabeled'):
    'Number of posets the matching stream delivers, by draining it.'
    check_args(n, mode)
    return sum(1 for _ in STREAMS[mode][0](n))
