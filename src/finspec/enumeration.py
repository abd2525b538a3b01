'''Exhaustive generation of finite posets.

Labeled mode streams every partial order on {0..n-1} exactly once, in a
fixed depth-first extension order.  Unlabeled mode yields one canonical
representative per isomorphism class, ascending in the canonical key, so
the delivered order never depends on how the work was split up.
'''

from . import kernels
from .errors import InputError, ResourceLimitError
from .poset import Poset

MAX_POINTS = 7

MODES = ('labeled', 'unlabeled')


def _check_args(n, mode, max_points):
    limit = MAX_POINTS if max_points is None else max_points
    if not isinstance(n, int) or n < 0:
        raise InputError('size must be a non-negative int, got %r' % (n,))
    if mode not in MODES:
        raise InputError('mode must be labeled or unlabeled, got %r' % (mode,))
    if n > limit:
        raise ResourceLimitError('enumeration capped at %d points, asked for %d'
                                 % (limit, n))


def enumerate_posets(n, mode='unlabeled', max_points=None):
    'Stream the posets on n points, once per labeling or once per class.'
    _check_args(n, mode, max_points)
    if mode == 'labeled':
        source = kernels.labeled_stream(n)
    else:
        source = kernels.unlabeled_reps(n)
    return (Poset.from_up_rows(rows) for rows in source)


def count_posets(n, mode='unlabeled', max_points=None):
    'Number of posets the matching stream would deliver.'
    _check_args(n, mode, max_points)
    if mode == 'labeled':
        return kernels.count_labeled(n)
    return len(kernels.unlabeled_reps(n))
