'''Reading and writing posets and lattices.

Text format, one structure per file::

    # two bottoms under a shared top
    poset 3
    0 < 2
    1 < 2

The header names the kind (poset or lattice) and the point count; every
other line is a relation pair, a comment, or blank.  Lattice files may
also declare the expected bounds::

    lattice 4
    0 < 1
    0 < 2
    1 < 3
    2 < 3
    bottom 0
    top 3

The declared bounds are checked against the ones derived from the
order, so a stale header fails loudly instead of shifting meaning.
A size above DOWNSET_CAP is refused as soon as it is read, before any
point is built.

One pass goes from file to order.  read_path reads a first chunk of
FIRST_READ_BYTES and reads on toward MAX_INPUT_BYTES only when that
chunk comes back full, so at most MAX_INPUT_BYTES + 1 bytes are read
and a longer file is refused.  The parsed pairs go to Poset or Lattice,
which build the up and down rows in one topological pass
(kernels.order_rows); Warshall's closure runs only to name a cycle.

JSON carries the same data with an explicit kind discriminator::

    {"kind": "poset", "size": 3, "less_than": [[0, 2], [1, 2]]}

DOT output draws the covering relation only, bottom-to-top, which is
the usual way to draw a Hasse diagram.
'''

import json
import re

from .errors import InputError, ResourceLimitError
from .lattice import Lattice
from .poset import Poset, check_size, is_int

_HEADER = re.compile(r'^(poset|lattice)\s+(\d+)$')
_PAIR = re.compile(r'^(\d+)\s*<\s*(\d+)$')
_BOUND = re.compile(r'^(bottom|top)\s+(\d+)$')


def _number(digits, lineno):
    'The int a digit run spells; Python refuses to convert very long ones.'
    try:
        return int(digits)
    except ValueError:
        raise InputError('line %d: a %d-digit number is too long to read'
                         % (lineno, len(digits))) from None


def parse_text(text):
    'Parse the text format into a Poset or a Lattice, per its header.'
    kind = None
    size = 0
    pairs = []
    bounds = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split('#', 1)[0].strip()
        if not line:
            continue
        # pair lines dominate, so they are tried first; before the header
        # one falls through to the header error below
        m = _PAIR.match(line)
        if m and kind is not None:
            i, j = _number(m.group(1), lineno), _number(m.group(2), lineno)
            if not (i < size and j < size):
                raise InputError('line %d: pair (%d, %d) out of range for '
                                 '%d points' % (lineno, i, j, size))
            pairs.append((i, j))
            continue
        m = _HEADER.match(line)
        if m:
            if kind is not None:
                raise InputError('line %d: second header' % lineno)
            kind, size = m.group(1), _number(m.group(2), lineno)
            check_size(kind, size)
            continue
        if kind is None:
            raise InputError('line %d: expected a "poset N" or "lattice N" '
                             'header before %r' % (lineno, line))
        m = _BOUND.match(line)
        if m:
            if kind != 'lattice':
                raise InputError('line %d: %s declarations belong to '
                                 'lattice files' % (lineno, m.group(1)))
            if m.group(1) in bounds:
                raise InputError('line %d: duplicate %s declaration'
                                 % (lineno, m.group(1)))
            value = _number(m.group(2), lineno)
            if value >= size:
                raise InputError('line %d: %s %s out of range for %d points'
                                 % (lineno, m.group(1), m.group(2), size))
            bounds[m.group(1)] = value
            continue
        raise InputError('line %d: cannot parse %r' % (lineno, line))
    if kind is None:
        raise InputError('missing "poset N" or "lattice N" header')
    if kind == 'poset':
        return Poset(size, pairs)
    return Lattice(size, pairs, bottom=bounds.get('bottom'),
                   top=bounds.get('top'))


def _require(obj, key, types):
    if key not in obj:
        raise InputError('json object is missing %r' % key)
    value = obj[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise InputError('json field %r has the wrong type' % key)
    return value


def from_json_obj(obj):
    'Decode one structure from a parsed json object.'
    if not isinstance(obj, dict):
        raise InputError('json input must be an object')
    kind = _require(obj, 'kind', str)
    if kind not in ('poset', 'lattice'):
        raise InputError('json kind must be "poset" or "lattice", got %r' % kind)
    size = _require(obj, 'size', int)
    check_size(kind, size)
    pairs = _require(obj, 'less_than', list)
    for entry in pairs:
        if not (isinstance(entry, list) and len(entry) == 2
                and is_int(entry[0]) and is_int(entry[1])):
            raise InputError('less_than entries must be [i, j] pairs, got %r'
                             % (entry,))
    if kind == 'poset':
        for key in ('bottom', 'top'):
            if key in obj:
                raise InputError('json field %r belongs to lattices' % key)
        return Poset(size, pairs)
    bottom = obj.get('bottom')
    top = obj.get('top')
    for key, value in (('bottom', bottom), ('top', top)):
        if value is not None and not is_int(value):
            raise InputError('json field %r has the wrong type' % key)
    return Lattice(size, pairs, bottom=bottom, top=top)


def parse_json(text):
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, a number too long for int() to convert, or
        # nesting deeper than the interpreter's recursion limit
        raise InputError('invalid json: %s' % exc) from None
    return from_json_obj(obj)


def parse(text):
    'Parse either format; json when the first character is a brace.'
    if text.lstrip()[:1] == '{':
        return parse_json(text)
    return parse_text(text)


# The most bytes read from one file.  The writers list covering pairs
# only, and an order on DOWNSET_CAP = 4096 points has at most 4096**2 / 4
# of them (a covering graph has no triangle, so Mantel's bound holds):
# 48 MiB as "i < j" lines, 56 MiB as json pairs.  A longer file exits 3
# after at most MAX_INPUT_BYTES + 1 bytes, instead of being read whole,
# which for /dev/zero would never end.
MAX_INPUT_BYTES = 64 << 20
# The first read.  read(k) allocates k bytes before it reads, so asking
# for the whole cap at once would map and free 64 MiB for every file;
# read(k) comes back short only at the end of the file, so only a full
# first chunk reads on toward the cap.
FIRST_READ_BYTES = 64 << 10


def read_path(path):
    """The structure in the file at path, which must be UTF-8 and at most
    MAX_INPUT_BYTES long."""
    try:
        with open(path, 'rb') as handle:
            first = min(FIRST_READ_BYTES, MAX_INPUT_BYTES + 1)
            data = handle.read(first)
            if len(data) == first:
                data += handle.read(MAX_INPUT_BYTES + 1 - first)
    except OSError as exc:
        raise InputError('cannot read %s: %s' % (path, exc.strerror)) from None
    if len(data) > MAX_INPUT_BYTES:
        raise ResourceLimitError('%s is larger than MAX_INPUT_BYTES (%d bytes)'
                                 % (path, MAX_INPUT_BYTES))
    try:
        text = data.decode('utf-8')
    except UnicodeDecodeError as exc:
        raise InputError('%s is not UTF-8: byte 0x%02x at offset %d'
                         % (path, data[exc.start], exc.start)) from None
    # universal newlines, as a text-mode read gives them
    return parse(text.replace('\r\n', '\n').replace('\r', '\n'))


# ----------------------------------------------------------------------
# writers


def poset_to_text(poset):
    'Text form listing the covering pairs; closure restores the rest.'
    lines = ['poset %d' % poset.n]
    lines.extend('%d < %d' % pair for pair in poset.covers())
    return '\n'.join(lines) + '\n'


def lattice_to_text(lattice):
    lines = ['lattice %d' % lattice.n]
    lines.extend('%d < %d' % pair for pair in lattice.order_poset().covers())
    lines.append('bottom %d' % lattice.bottom)
    lines.append('top %d' % lattice.top)
    return '\n'.join(lines) + '\n'


def to_json_obj(structure):
    if isinstance(structure, Lattice):
        return {'kind': 'lattice', 'size': structure.n,
                'less_than': [list(pair)
                              for pair in structure.order_poset().covers()],
                'bottom': structure.bottom, 'top': structure.top}
    if isinstance(structure, Poset):
        return {'kind': 'poset', 'size': structure.n,
                'less_than': [list(pair) for pair in structure.covers()]}
    raise InputError('expected a Poset or a Lattice, got %r' % (structure,))


def to_json(structure):
    return json.dumps(to_json_obj(structure), sort_keys=True) + '\n'


def _dot_quote(label):
    return '"%s"' % str(label).replace('\\', '\\\\').replace('"', '\\"')


def to_dot(structure):
    'Hasse diagram in DOT, drawn upward so maximal points end up on top.'
    if isinstance(structure, Lattice):
        covers = structure.order_poset().covers()
        labels = [structure.label(a) for a in range(structure.n)]
        size = structure.n
    elif isinstance(structure, Poset):
        covers = structure.covers()
        labels = [str(x) for x in range(structure.n)]
        size = structure.n
    else:
        raise InputError('expected a Poset or a Lattice, got %r' % (structure,))
    lines = ['digraph finspec {', '  rankdir=BT;']
    for x in range(size):
        lines.append('  %d [label=%s];' % (x, _dot_quote(labels[x])))
    for low, high in covers:
        lines.append('  %d -> %d;' % (low, high))
    lines.append('}')
    return '\n'.join(lines) + '\n'
