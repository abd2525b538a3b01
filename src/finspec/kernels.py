'''Kernel lane selection.

The compiled lane (finspec._fastbits, Cython over uint64 masks) mirrors
_bits_py for structures of at most 64 points and is picked at import when
the extension built.  Set FINSPEC_PURE=1 to force the pure lane.  Every
function falls back per call when a structure is too wide for uint64.
The compiled lane is frozen at its shipped C, so the kernels it lacks
(operation_tables, heyting_witness and the meet and join lookups) run on
the pure lane at every size.
'''

import os

from . import _bits_py as pure

_fast = None
if os.environ.get('FINSPEC_PURE') != '1':
    try:
        from . import _fastbits as _fast
    except ImportError:
        _fast = None

WORD = 64

# kernels with no compiled twin are the pure functions themselves
bit_indices = pure.bit_indices
meet_index = pure.meet_index
join_index = pure.join_index
operation_tables = pure.operation_tables
heyting_witness = pure.heyting_witness


def backend():
    'Name of the lane picked at import.'
    return 'pure' if _fast is None else 'compiled'


def _lane(n):
    if _fast is not None and n <= WORD:
        return _fast
    return pure


def transitive_closure(rows):
    return _lane(len(rows)).transitive_closure(list(rows))


def antisymmetry_violation(rows):
    return pure.antisymmetry_violation(rows)


def transpose(rows):
    return pure.transpose(rows)


def downset_masks(rows, cap=None):
    return _lane(len(rows)).downset_masks(list(rows), cap)


def canonical_key(rows):
    return _lane(len(rows)).canonical_key(tuple(rows))


def labeled_stream(n):
    return _lane(n).labeled_stream(n)


def count_labeled(n):
    return _lane(n).count_labeled(n)


def unlabeled_reps(n):
    return _lane(n).unlabeled_reps(n)


def pseudocomplement_vector(down, pos, bottom):
    if pos is None:
        return _lane(len(down)).pseudocomplement_vector(list(down), None, bottom)
    return pure.pseudocomplement_vector(down, pos, bottom)


def implication_index(down, pos, a, b):
    if pos is None:
        return _lane(len(down)).implication_index(list(down), None, a, b)
    return pure.implication_index(down, pos, a, b)


def prime_element_mask(down, pos):
    if pos is None:
        return _lane(len(down)).prime_element_mask(list(down), None)
    return pure.prime_element_mask(down, pos)


def distributive_witness(down, up, pos):
    if pos is None:
        return _lane(len(down)).distributive_witness(list(down), list(up), None)
    return pure.distributive_witness(down, up, pos)
