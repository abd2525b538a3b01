'''Text, json and dot serialization round trips and rejection paths.'''

import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from finspec import fileio
from finspec.duality import downset_lattice
from finspec.errors import InputError
from finspec.fileio import (lattice_to_text, parse, parse_json, parse_text,
                            poset_to_text, read_path, to_dot, to_json,
                            to_json_obj)
from finspec.fixtures import antichain, m3, n5, v3
from finspec.lattice import Lattice
from finspec.poset import Poset


def test_poset_text_round_trip():
    text = poset_to_text(v3())
    assert text == 'poset 3\n0 < 2\n1 < 2\n'
    assert parse_text(text) == v3()


def test_lattice_text_round_trip():
    text = lattice_to_text(m3())
    assert text.startswith('lattice 5\n')
    assert 'bottom 0\ntop 4\n' in text
    assert parse_text(text) == m3()


def test_empty_poset_round_trip():
    assert parse_text(poset_to_text(Poset(0))).n == 0


def test_text_comments_and_spacing():
    parsed = parse_text('# heading\n\nposet 3  # inline\n 0<2 \n1 < 2\n')
    assert parsed == v3()


def test_text_redundant_pairs_collapse():
    # the full relation parses to the same order as the covers alone
    assert parse_text('poset 3\n0 < 2\n1 < 2\n0 < 2\n') == v3()


def test_text_error_positions():
    with pytest.raises(InputError, match='line 2: second header'):
        parse_text('poset 2\nposet 2\n')
    with pytest.raises(InputError, match='line 1: expected a "poset N"'):
        parse_text('0 < 1\n')
    with pytest.raises(InputError, match="line 2: cannot parse '0 >= 1'"):
        parse_text('poset 2\n0 >= 1\n')
    with pytest.raises(InputError, match=r'line 3: pair \(1, 2\) out of range'):
        parse_text('poset 2\n0 < 1\n1 < 2\n')
    with pytest.raises(InputError, match='missing "poset N" or "lattice N"'):
        parse_text('# nothing here\n')


def test_text_bound_declarations():
    with pytest.raises(InputError, match='line 2: bottom declarations belong'):
        parse_text('poset 2\nbottom 0\n')
    with pytest.raises(InputError, match='line 4: duplicate top'):
        parse_text('lattice 2\n0 < 1\ntop 1\ntop 1\n')
    with pytest.raises(InputError, match='line 3: top 5 out of range'):
        parse_text('lattice 2\n0 < 1\ntop 5\n')
    with pytest.raises(InputError, match='declared bottom 1 but'):
        parse_text('lattice 2\n0 < 1\nbottom 1\n')


def test_json_round_trips():
    for structure in (v3(), m3(), n5(), downset_lattice(v3())):
        assert parse_json(to_json(structure)) == structure
    assert to_json(v3()) == \
        '{"kind": "poset", "less_than": [[0, 2], [1, 2]], "size": 3}\n'


def test_json_rejections():
    with pytest.raises(InputError, match='invalid json'):
        parse_json('{not json')
    with pytest.raises(InputError, match='must be an object'):
        parse_json('[1, 2]')
    with pytest.raises(InputError, match="missing 'kind'"):
        parse_json('{"size": 1, "less_than": []}')
    with pytest.raises(InputError, match='kind must be "poset" or "lattice"'):
        parse_json('{"kind": "graph", "size": 1, "less_than": []}')
    with pytest.raises(InputError, match="'size' has the wrong type"):
        parse_json('{"kind": "poset", "size": "three", "less_than": []}')
    with pytest.raises(InputError, match=r'must be \[i, j\] pairs'):
        parse_json('{"kind": "poset", "size": 2, "less_than": [[0, 1, 2]]}')
    with pytest.raises(InputError, match="'bottom' belongs to lattices"):
        parse_json('{"kind": "poset", "size": 1, "less_than": [], "bottom": 0}')
    with pytest.raises(InputError, match="'top' has the wrong type"):
        parse_json('{"kind": "lattice", "size": 1, "less_than": [], "top": "t"}')
    with pytest.raises(InputError):
        to_json_obj('not a structure')


def test_json_rejects_bools_for_ints():
    with pytest.raises(InputError, match="'size' has the wrong type"):
        parse_json('{"kind": "poset", "size": true, "less_than": []}')
    with pytest.raises(InputError, match=r'must be \[i, j\] pairs'):
        parse_json('{"kind": "poset", "size": 2, "less_than": [[false, true]]}')
    with pytest.raises(InputError, match="'bottom' has the wrong type"):
        parse_json('{"kind": "lattice", "size": 1, "less_than": [], "bottom": false}')
    with pytest.raises(InputError, match="'top' has the wrong type"):
        parse_json('{"kind": "lattice", "size": 2, "less_than": [[0, 1]], "top": true}')


def test_numbers_too_long_to_convert_are_input_errors():
    # int() refuses more than 4,300 digits; the parsers say so as bad input
    digits = '1' + '0' * 5000
    with pytest.raises(InputError, match='^line 1: a 5001-digit number is too long'):
        parse_text('poset %s\n' % digits)
    with pytest.raises(InputError, match='^line 2: a 5001-digit number is too long'):
        parse_text('poset 2\n0 < %s\n' % digits)
    with pytest.raises(InputError, match='^line 3: a 5001-digit number is too long'):
        parse_text('lattice 2\n0 < 1\ntop %s\n' % digits)
    with pytest.raises(InputError, match='^invalid json: .*5001 digits'):
        parse_json('{"kind": "poset", "size": %s, "less_than": []}' % digits)


def test_parse_sniffs_format():
    assert parse('  {"kind": "poset", "size": 1, "less_than": []}').n == 1
    assert parse('poset 1\n').n == 1


def test_read_path(tmp_path):
    target = tmp_path / 'shape.txt'
    target.write_text(poset_to_text(v3()), encoding='utf-8')
    assert read_path(str(target)) == v3()
    with pytest.raises(InputError, match='cannot read'):
        read_path(str(tmp_path / 'absent.txt'))


def test_reading_a_small_file_allocates_no_buffer_the_size_of_the_cap(tmp_path):
    target = tmp_path / 'shape.txt'
    target.write_text(poset_to_text(v3()), encoding='utf-8')
    read_path(str(target))  # imports and compiled patterns come before the trace
    tracemalloc.start()
    try:
        assert read_path(str(target)) == v3()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_file_past_the_first_chunk_reads_whole(tmp_path, monkeypatch):
    # every pair of K(100, 100) is a cover, so the text lists 10,000 pairs
    wide = Poset(200, [(i, j) for i in range(100) for j in range(100, 200)])
    text = poset_to_text(wide)
    assert fileio.FIRST_READ_BYTES < len(text) < fileio.MAX_INPUT_BYTES
    for name, body in (('wide.txt', text), ('wide.json', to_json(wide))):
        target = tmp_path / name
        target.write_text(body, encoding='utf-8')
        # a cap of exactly the file's length still reads it whole
        monkeypatch.setattr(fileio, 'MAX_INPUT_BYTES', len(body))
        assert read_path(str(target)) == wide


def test_dot_output_golden():
    assert to_dot(downset_lattice(v3())) == (
        'digraph finspec {\n'
        '  rankdir=BT;\n'
        '  0 [label="{}"];\n'
        '  1 [label="{0}"];\n'
        '  2 [label="{1}"];\n'
        '  3 [label="{0,1}"];\n'
        '  4 [label="{0,1,2}"];\n'
        '  0 -> 1;\n'
        '  0 -> 2;\n'
        '  1 -> 3;\n'
        '  2 -> 3;\n'
        '  3 -> 4;\n'
        '}\n')


def test_dot_quotes_labels():
    lat = Lattice(2, [(0, 1)], labels=('say "hi"', 'x\\y'))
    out = to_dot(lat)
    assert '[label="say \\"hi\\""]' in out
    assert '[label="x\\\\y"]' in out
    with pytest.raises(InputError):
        to_dot(42)


@st.composite
def random_posets(draw, max_points=8):
    'A random order on up to max_points points, acyclic by construction.'
    n = draw(st.integers(0, max_points))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # few pairs leave wide orders, whose down-set lattices reach 2**n elements
    kept = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else ()
    # relabel, so the order is not always a sub-order of 0 < 1 < ... < n-1
    perm = draw(st.permutations(range(n)))
    return Poset(n, [(perm[i], perm[j]) for i, j in kept])


def renumbered(lattice, perm):
    'The same lattice with element a renamed perm[a].'
    rows = [0] * lattice.n
    for a, row in enumerate(lattice.up):
        for b in range(lattice.n):
            if row >> b & 1:
                rows[perm[a]] |= 1 << perm[b]
    return Lattice.from_up_rows(rows)


def covering_pairs(up):
    'Pairs a < b with nothing strictly between, straight from the up rows.'
    n = len(up)
    above = [row & ~(1 << a) for a, row in enumerate(up)]
    below = [sum(1 << c for c in range(n) if c != b and up[c] >> b & 1) for b in range(n)]
    return {(a, b) for a in range(n) for b in range(n)
            if above[a] >> b & 1 and above[a] & below[b] == 0}


def dot_edges(text):
    return {(int(a), int(b)) for a, b in re.findall(r'^  (\d+) -> (\d+);$', text, re.M)}


@settings(max_examples=60, deadline=None)
@given(random_posets())
def test_random_posets_round_trip_through_text_and_json(poset):
    for text in (poset_to_text(poset), to_json(poset)):
        assert parse(text) == poset
    assert dot_edges(to_dot(poset)) == covering_pairs(poset.up)


@settings(max_examples=10, deadline=None)
@given(random_posets(max_points=8), st.randoms(use_true_random=False))
@example(antichain(8), random.Random(0))
def test_renumbered_downset_lattices_round_trip(poset, rng):
    lattice = downset_lattice(poset)
    moved = renumbered(lattice, rng.sample(range(lattice.n), lattice.n))
    for text in (lattice_to_text(moved), to_json(moved)):
        back = parse(text)
        assert isinstance(back, Lattice)
        assert (back.up, back.bottom, back.top) == (moved.up, moved.bottom, moved.top)
    assert dot_edges(to_dot(moved)) == covering_pairs(moved.up)
