'''Exhaustive generation of finite posets.

Labeled mode streams every partial order on {0..n-1} exactly once, in a
fixed depth-first extension order.  Unlabeled mode yields one canonical
representative per isomorphism class, ascending in the canonical key, so
the delivered order never depends on how the work was split up.  Its
levels grow by maximal points: every poset on n points is one on n - 1
points plus a maximal point, so each class on n - 1 points is extended
once per down-set and the results are deduplicated by canonical key.

MAX_POINTS caps each mode.  Labeled mode stops at 6 points, since 7
points already have 6,129,859 labeled orders; unlabeled mode reaches 8
points (16,999 classes).
'''

from . import kernels
from .errors import InputError, ResourceLimitError
from .poset import Poset

MAX_POINTS = {'labeled': 6, 'unlabeled': 8}

MODES = ('labeled', 'unlabeled')


def check_args(n, mode):
    "InputError for a bad size or mode, ResourceLimitError past the mode's cap."
    if not isinstance(n, int) or n < 0:
        raise InputError('size must be a non-negative int, got %r' % (n,))
    if mode not in MODES:
        raise InputError('mode must be labeled or unlabeled, got %r' % (mode,))
    if n > MAX_POINTS[mode]:
        raise ResourceLimitError('%s enumeration capped at %d points, asked for %d'
                                 % (mode, MAX_POINTS[mode], n))


def enumerate_posets(n, mode='unlabeled'):
    'Stream the posets on n points, once per labeling or once per class.'
    check_args(n, mode)
    if mode == 'labeled':
        source = kernels.labeled_stream(n)
    else:
        source = kernels.unlabeled_reps(n)
    return (Poset.from_up_rows(rows) for rows in source)


def count_posets(n, mode='unlabeled'):
    'Number of posets the matching stream would deliver.'
    check_args(n, mode)
    if mode == 'labeled':
        return kernels.count_labeled(n)
    return len(kernels.unlabeled_reps(n))
