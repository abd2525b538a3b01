'''Command-line behavior: outputs, exit codes, determinism.'''

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from finspec.cli import main
from finspec.fileio import lattice_to_text, poset_to_text
from finspec.duality import ENVELOPE_MAX_POINTS, downset_lattice
from finspec.enumeration import STREAMS
from finspec.fixtures import antichain, chain_poset, v3
from finspec.poset import DOWNSET_CAP
from finspec.reports import PROFILE_FLAGS, classify


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_poset_text(capsys):
    code, out, err = run(capsys, 'check', 'v3')
    assert code == 0 and err == ''
    lines = out.splitlines()
    assert lines[0] == 'poset with 3 points'
    assert '  stone                false' in lines
    assert '  heyting              true' in lines
    assert len(lines) == 1 + len(PROFILE_FLAGS)


def test_check_lattice_text(capsys):
    code, out, _ = run(capsys, 'check', 'm3')
    assert code == 0
    assert out.splitlines()[0] == 'lattice with 5 elements'
    assert '  pseudocomplemented   false' in out
    assert '  distributive         false' in out


def test_check_json_matches_classify(capsys):
    code, out, _ = run(capsys, 'check', 'v3', '--json')
    assert code == 0
    payload = json.loads(out)
    assert payload['schema'] == 1
    assert payload['kind'] == 'poset' and payload['size'] == 3
    assert payload['profile'] == classify(v3()).as_dict()


def test_report_text(capsys):
    code, out, _ = run(capsys, 'report', 'stone', 'v3')
    # a uniform disagreement-free failure still exits zero
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == 'theorem stone on 3 points'
    assert '  lattice_stone                      false' in lines
    assert 'agreement: yes' in lines
    assert 'witness: [0]' in lines


def test_report_json(capsys):
    code, out, _ = run(capsys, 'report', 'qccl-stone', 'l3', '--json')
    assert code == 0
    payload = json.loads(out)
    assert payload['schema'] == 1
    assert payload['agreement'] is True
    assert payload['all_true'] is False
    assert payload['witness'] == [1]
    assert {c['label']: c['holds'] for c in payload['conditions']} == {
        'upset_lattice_stone': False,
        'inverse_closures_clopen': False,
        'normal_and_upset_lattice_pc': False,
        'normal_and_max_patch_closed': False,
    }


def test_report_hypotheses_shown(capsys):
    _, out, _ = run(capsys, 'report', 'root-forest', 'v3')
    assert '  hypothesis root_side                true' in out
    assert '  hypothesis forest_side              false' in out


def test_report_rejects_lattice(capsys):
    code, out, err = run(capsys, 'report', 'stone', 'm3')
    assert code == 2 and out == ''
    assert 'report works on a poset, not a lattice' in err


def test_chain_and_bool_builtins_are_lattices(capsys):
    # poset-only subcommands refuse them and name the poset built-ins
    for argv in (('report', 'stone', 'chain4'), ('downsets', 'bool2'),
                 ('envelope', 'chain3')):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ''
        assert ('%s works on a poset, not a lattice (poset built-ins: '
                'v3, l3, c2, a2, d4)' % argv[0]) in err
    for argv in (('check', 'chain4'), ('pc-table', 'bool2'), ('spec', 'chain4'),
                 ('dot', 'bool2')):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and err == ''


def test_pc_table(capsys):
    code, out, _ = run(capsys, 'pc-table', 'v3')
    assert code == 0
    assert out.splitlines()[0] == 'pseudocomplements:'
    assert '  {0}    * = {1}' in out
    assert 'implications a -> b (rows a, columns b):' in out
    # bottom row of the table: x -> b recovers b
    assert '  {0,1,2}  {}       {0}      {1}      {0,1}    {0,1,2}' in out


def test_pc_table_shows_gaps(capsys):
    # m3 has no pseudocomplements at all apart from the bounds
    code, out, _ = run(capsys, 'pc-table', 'm3')
    assert code == 0
    assert '* = -' in out


def test_pc_table_on_256_elements(capsys):
    # bool8 read off its labels: a -> b is (not a) | b and a* is not a, an
    # O(n^2) check that shares nothing with the kernel
    code, out, _ = run(capsys, 'pc-table', 'bool8', '--json')
    assert code == 0
    got = json.loads(out)
    masks = [sum(1 << int(i) for i in label.strip('{}').split(',') if i)
             for label in got['elements']]
    index = {mask: i for i, mask in enumerate(masks)}
    assert len(index) == 256
    full = 255
    assert got['pseudocomplement'] == [index[full & ~a] for a in masks]
    assert got['implication'] == [[index[(full & ~a) | b] for b in masks] for a in masks]


def test_spec_recovers_poset(capsys):
    code, out, _ = run(capsys, 'spec', 'v3')
    assert code == 0
    assert out == 'poset 3\n0 < 2\n1 < 2\n'


def test_spec_of_m3_is_empty(capsys):
    code, out, _ = run(capsys, 'spec', 'm3')
    assert code == 0
    assert out == 'poset 0\n'


def test_downsets_text_and_misuse(capsys):
    code, out, _ = run(capsys, 'downsets', 'v3')
    assert code == 0
    assert out.startswith('lattice 5\n')
    assert 'bottom 0\ntop 4\n' in out
    code, _, err = run(capsys, 'downsets', 'm3')
    assert code == 2 and 'works on a poset' in err


def test_envelope_text(capsys):
    code, out, _ = run(capsys, 'envelope', 'c2')
    assert code == 0
    assert out.startswith('lattice 4\n')
    assert '# embed 0 -> 0\n# embed 1 -> 1\n# embed 2 -> 3\n' in out


def test_envelope_json(capsys):
    code, out, _ = run(capsys, 'envelope', 'c2', '--json')
    assert code == 0
    payload = json.loads(out)
    assert payload['schema'] == 1
    assert payload['size'] == 4
    assert payload['embedding'] == [0, 1, 3]


def test_dot_subcommand(capsys):
    code, out, _ = run(capsys, 'dot', 'v3')
    assert code == 0
    assert out.startswith('digraph finspec {')
    assert '  0 -> 2;' in out


def test_sweep_text(capsys):
    code, out, _ = run(capsys, 'sweep', '3')
    assert code == 0
    assert '  n=3: 5 posets, 0 disagreements' in out
    assert 'total: 9 posets, 0 disagreements' in out
    assert 'first counterexamples in canonical order:' in out
    assert '  not stone              n=3 #4 covers 0<2, 1<2' in out


def test_sweep_json(capsys):
    code, out, _ = run(capsys, 'sweep', '3', '--json')
    assert code == 0
    payload = json.loads(out)
    assert payload['schema'] == 1
    assert payload['totals'] == {'posets': 9, 'disagreements': 0}
    assert payload['rows'][3]['count'] == 5
    flags = {item['flag']: item for item in payload['first_failures']}
    assert flags['stone']['covers'] == [[0, 2], [1, 2]]


def test_sweep_jobs_byte_identical(capsys):
    _, text_one, _ = run(capsys, 'sweep', '4')
    _, text_two, _ = run(capsys, 'sweep', '4', '--jobs', '2')
    assert text_one == text_two
    _, json_one, _ = run(capsys, 'sweep', '4', '--json')
    _, json_two, _ = run(capsys, 'sweep', '4', '--jobs', '3', '--json')
    assert json_one == json_two


@pytest.mark.parametrize('argv, digest', [
    (['sweep', '6'], 'e8cefdfbca1b099c57044fc3772f022a5ce9ffa92215fbeb5e8fa845a6059d3a'),
    (['sweep', '4', '--mode', 'labeled'],
     '945152591b9385599c888875abb2b304315f41e3cfbbc906e5d4e9a699f310c4'),
])
def test_sweep_json_is_byte_identical_to_pinned_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv, '--json')
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_eight_point_antichain(capsys, tmp_path):
    # 256 down-sets: the largest lattice on one-byte tables
    points = tmp_path / 'a8.txt'
    points.write_text(poset_to_text(antichain(8)), encoding='utf-8')
    code, out, _ = run(capsys, 'check', str(points), '--json')
    assert code == 0
    profile = json.loads(out)['profile']
    assert profile['boolean'] and profile['heyting'] and profile['stone']
    lattice = tmp_path / 'd8.txt'
    lattice.write_text(lattice_to_text(downset_lattice(antichain(8))),
                       encoding='utf-8')
    code, out, _ = run(capsys, 'check', str(lattice), '--json')
    assert code == 0
    payload = json.loads(out)
    assert payload['size'] == 256
    assert all(payload['profile'].values()), payload['profile']


def test_resolution_prefers_files(capsys, tmp_path):
    target = tmp_path / 'v3'
    target.write_text('poset 1\n', encoding='utf-8')
    code, out, _ = run(capsys, 'check', str(target))
    assert code == 0
    assert out.splitlines()[0] == 'poset with 1 points'


def test_unknown_input(capsys):
    code, _, err = run(capsys, 'check', 'nosuch')
    assert code == 2
    assert "no file or built-in structure named 'nosuch'" in err
    assert 'chain<k>' in err


def test_bad_file_reports_line(capsys, tmp_path):
    target = tmp_path / 'bad.txt'
    target.write_text('poset 2\n0 ~ 1\n', encoding='utf-8')
    code, _, err = run(capsys, 'check', str(target))
    assert code == 2 and 'line 2' in err


@pytest.mark.parametrize('payload', [
    '{"kind": "poset", "size": true, "less_than": []}',
    '{"kind": "poset", "size": 2, "less_than": [[false, true]]}',
    '{"kind": "lattice", "size": 1, "less_than": [], "bottom": false}',
    '{"kind": "lattice", "size": 2, "less_than": [[0, 1]], "top": true}',
], ids=['size', 'less_than', 'bottom', 'top'])
def test_json_bool_for_int_exits_two(capsys, tmp_path, payload):
    target = tmp_path / 'bool.json'
    target.write_text(payload, encoding='utf-8')
    code, out, err = run(capsys, 'check', str(target))
    assert code == 2 and out == ''
    assert 'wrong type' in err or 'pairs' in err


@pytest.mark.parametrize('text', [
    'poset 1%05000d\n' % 0,
    'poset 2\n0 < 1%05000d\n' % 0,
    '{"kind": "poset", "size": 1%05000d, "less_than": []}' % 0,
], ids=['header', 'pair', 'json-size'])
def test_numbers_too_long_to_convert_exit_two(capsys, tmp_path, text):
    target = tmp_path / 'long.txt'
    target.write_text(text, encoding='utf-8')
    code, out, err = run(capsys, 'check', str(target))
    assert code == 2 and out == ''
    assert err.startswith('finspec: error: ') and '5001' in err


@pytest.mark.parametrize('text', [
    'poset 1000000000\n',
    'lattice 1000000000\n0 < 1\n',
    '{"kind": "poset", "size": 1000000000, "less_than": []}',
    '{"kind": "lattice", "size": 1000000000, "less_than": [[0, 1]]}',
], ids=['poset-header', 'lattice-header', 'poset-json', 'lattice-json'])
def test_oversized_input_exits_three_at_once(capsys, tmp_path, text):
    target = tmp_path / 'huge.txt'
    target.write_text(text, encoding='utf-8')
    start = time.perf_counter()
    code, out, err = run(capsys, 'check', str(target))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ''
    assert 'size capped at %d (DOWNSET_CAP), got 1000000000' % DOWNSET_CAP in err


def test_resource_limits_exit_three(capsys, tmp_path):
    code, _, err = run(capsys, 'check', 'bool13')
    assert code == 3 and 'resource limit' in err
    wide = tmp_path / 'wide.txt'
    wide.write_text(poset_to_text(antichain(14)), encoding='utf-8')
    code, _, err = run(capsys, 'downsets', str(wide))
    assert code == 3 and 'resource limit' in err
    # few down-sets, but the heyting readings scan all 2^n subsets
    long = tmp_path / 'long.txt'
    long.write_text(poset_to_text(chain_poset(ENVELOPE_MAX_POINTS + 1)),
                    encoding='utf-8')
    code, _, err = run(capsys, 'report', 'root-forest', str(long))
    assert code == 3 and 'resource limit' in err
    # 6,129,859 labeled orders on 7 points: refused before any work
    code, _, err = run(capsys, 'sweep', '7', '--mode', 'labeled')
    assert code == 3 and 'labeled enumeration capped at 6 points' in err
    code, _, err = run(capsys, 'sweep', '9')
    assert code == 3 and 'unlabeled enumeration capped at 8 points' in err


def test_sweep_mode_outside_the_stream_table_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(['sweep', '3', '--mode', 'shuffled'])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'shuffled'" in err
    for mode in STREAMS:
        assert repr(mode) in err


SRC = str(Path(__file__).resolve().parents[1] / 'src')

IN_ONE_PROCESS = '''
import contextlib, io, json, sys
sys.path.insert(0, %r)
from finspec import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({'runs': runs, 'builds': cli._parser.cache_info().misses}))
''' % SRC


def test_one_parser_serves_every_call_in_a_process():
    argvs = [['check', 'v3', '--json'],
             ['sweep', 'three'],
             ['report', 'stone', 'v3'],
             ['check', 'm3']]
    alone = []
    for argv in argvs:
        done = subprocess.run([sys.executable, '-m', 'finspec.cli', *argv],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=SRC))
        alone.append([done.returncode, done.stdout, done.stderr])
    done = subprocess.run([sys.executable, '-c', IN_ONE_PROCESS, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    together = json.loads(done.stdout)
    assert together['runs'] == alone
    assert [code for code, _, _ in alone] == [0, 2, 0, 0]
    assert together['builds'] == 1


def test_deeply_nested_json_exits_two(tmp_path):
    # json.loads raises RecursionError past the interpreter's recursion limit
    target = tmp_path / 'deep.json'
    target.write_text('{"kind": ' + '[' * 100000 + ']' * 100000 + '}',
                      encoding='utf-8')
    done = subprocess.run([sys.executable, '-m', 'finspec.cli', 'check', str(target)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 2 and done.stdout == ''
    assert done.stderr.startswith('finspec: error: invalid json')
    assert 'Traceback' not in done.stderr


IMPORT_PATH = '''
import json, sys
import finspec.cli
imported = sorted(sys.modules)
finspec.cli.main(['check', 'm3', '--json'])
print(json.dumps([imported, sorted(sys.modules)]))
'''


def test_import_path_leaves_out_dataclasses_and_shutil():
    # module names only: the records are named tuples, and the help
    # formatter reads the terminal width without shutil
    done = subprocess.run([sys.executable, '-S', '-c', IMPORT_PATH],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    imported, after_main = json.loads(done.stdout.splitlines()[-1])
    assert 'finspec.cli' in imported
    for name in ('dataclasses', 'inspect', 'ast', 'dis'):
        assert name not in imported
    assert 'shutil' not in after_main


def test_help_wraps_at_the_terminal_width():
    # COLUMNS sets the width, as it would for argparse's own formatter
    wanted = {'--help': ('check', 'report', 'pc-table', 'spec', 'downsets',
                         'envelope', 'sweep', 'dot'),
              'sweep': ('max_points', '--mode', '--jobs', '--json')}
    texts = {}
    for columns in (60, 100):
        for first, names in wanted.items():
            argv = [first] if first == '--help' else [first, '--help']
            done = subprocess.run([sys.executable, '-m', 'finspec.cli', *argv],
                                  capture_output=True, text=True, timeout=60,
                                  env=dict(os.environ, PYTHONPATH=SRC,
                                           COLUMNS=str(columns)))
            assert done.returncode == 0, done.stderr
            for name in names:
                assert name in done.stdout
            # argparse never breaks a word, so the one line allowed past
            # the width holds a single word: the choices in the usage line
            for line in done.stdout.splitlines():
                assert len(line) <= columns - 2 or len(line.split()) == 1
            texts[columns, first] = done.stdout
    for first in wanted:
        assert texts[60, first] != texts[100, first]
