'''Text, json and dot serialization round trips and rejection paths.'''

import pytest

from finspec.duality import downset_lattice
from finspec.errors import InputError
from finspec.fileio import (lattice_to_text, parse, parse_json, parse_text,
                            poset_to_text, read_path, to_dot, to_json,
                            to_json_obj)
from finspec.fixtures import m3, n5, v3
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
