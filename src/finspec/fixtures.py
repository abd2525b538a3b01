'''Named structures used by tests, docs and the command line.

Poset fixtures: v3 (two minimal points under one top), l3 (one bottom
under two maximal points), c2 (two-point chain), a2 (two-point
antichain), d4 (diamond).  Lattice fixtures: m3 and n5, the two minimal
non-distributive lattices, plus the chain<k> and bool<k> families, which
are lattices too; chain_poset(k) has no built-in name.  Poset, Lattice
and boolean_envelope check every size; the fixtures repeat no check.
'''

import re

from .duality import ENVELOPE_MAX_POINTS, boolean_envelope
from .errors import InputError, ResourceLimitError
from .lattice import Lattice
from .poset import DOWNSET_CAP, Poset


def v3():
    return Poset(3, [(0, 2), (1, 2)])


def l3():
    return Poset(3, [(0, 1), (0, 2)])


def c2():
    return chain_poset(2)


def a2():
    return antichain(2)


def d4():
    return Poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def chain_poset(k):
    return Poset(k, [(i, i + 1) for i in range(k - 1)])


def antichain(k):
    return Poset(k)


def m3():
    return Lattice(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def n5():
    return Lattice(5, [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)])


def chain_lattice(k):
    return Lattice(k, [(i, i + 1) for i in range(k - 1)])


def bool_lattice(k):
    'Powerset of k atoms ordered by inclusion, elements numbered by mask.'
    return boolean_envelope(antichain(k))[0]


# the poset built-ins; every other one, chain<k> included, is a lattice
POSETS = {'v3': v3, 'l3': l3, 'c2': c2, 'a2': a2, 'd4': d4}
_PLAIN = dict(POSETS, m3=m3, n5=n5)


def builtin(name):
    'Resolve a fixture name like v3, m3, chain4 or bool3.'
    key = name.lower()
    if key in _PLAIN:
        return _PLAIN[key]()
    got = re.fullmatch(r'(chain|bool)(\d+)', key)
    if got:
        family, digits = got.groups()
        digits = digits.lstrip('0') or '0'
        cap, cap_name = ((DOWNSET_CAP, 'DOWNSET_CAP') if family == 'chain'
                         else (ENVELOPE_MAX_POINTS, 'ENVELOPE_MAX_POINTS'))
        # a k with more digits than its cap is past it: refused before int()
        # reads it, as int() refuses more than 4,300 digits with a ValueError
        if len(digits) > len(str(cap)):
            raise ResourceLimitError('%s<k> capped at k = %d (%s), got a %d-digit k'
                                     % (family, cap, cap_name, len(digits)))
        k = int(digits)
        return chain_lattice(k) if family == 'chain' else bool_lattice(k)
    raise InputError('unknown builtin structure %r' % (name,))


def builtin_names():
    return sorted(_PLAIN) + ['chain<k>', 'bool<k>']
