'''Command-line behavior: outputs, exit codes, determinism.'''

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from finspec import fileio, kernels, reports
from finspec.cli import main, parse_args
from finspec.fileio import lattice_to_text, poset_to_text
from finspec.duality import ENVELOPE_MAX_POINTS, downset_lattice
from finspec.enumeration import STREAMS
from finspec.errors import AgreementError, ResourceLimitError
from finspec.fixtures import antichain, bool_lattice, chain_poset, v3
from finspec.lattice import Lattice
from finspec.poset import DOWNSET_CAP
from finspec.reports import PROFILE_FLAGS, classify
from test_lattice import _record_table_builds


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
    assert [line.split()[0] for line in out.splitlines()[1:]] == [
        'distributive', 'pseudocomplemented', 'stone', 'heyting', 'boolean']


def test_check_on_a_lattice_enforces_the_flag_implications(capsys, monkeypatch):
    # check and classify read one function for the lattice flags, so a
    # boolean lattice that is not stone fails both the same way
    monkeypatch.setattr(Lattice, 'is_stone', lambda self: False)
    code, out, err = run(capsys, 'check', 'bool3')
    assert code == 1 and out == ''
    assert err.startswith('finspec: agreement failure: '
                          'boolean lattice must be heyting and stone: Lattice(8, ')
    with pytest.raises(AgreementError, match='boolean lattice must be heyting and stone'):
        classify(antichain(2))


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
    # leading zeros do not count towards the digit cap
    for argv in (('check', 'chain4'), ('pc-table', 'bool2'), ('spec', 'chain4'),
                 ('dot', 'bool2'), ('check', 'chain' + '0' * 5000 + '4')):
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
    # --dot wins, as for spec and downsets
    assert run(capsys, 'envelope', 'c2', '--json', '--dot') == run(capsys, 'envelope', 'c2', '--dot')


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


def test_non_utf8_file_exits_two_naming_the_byte(capsys, tmp_path):
    target = tmp_path / 'latin1.txt'
    target.write_bytes(b'poset 2\n0 < 1 # caf\xe9\n')
    code, out, err = run(capsys, 'check', str(target))
    assert code == 2 and out == ''
    assert err == 'finspec: error: %s is not UTF-8: byte 0xe9 at offset 19\n' % target


def test_input_past_the_byte_cap_exits_three(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, 'MAX_INPUT_BYTES', 4096)
    text = 'poset 2\n0 < 1\n'
    target = tmp_path / 'padded.txt'
    target.write_text(text + '#' * (4096 - len(text)), encoding='utf-8')
    code, out, err = run(capsys, 'check', str(target))
    assert code == 0 and out.startswith('poset with 2 points') and err == ''
    target.write_text(text + '#' * (4097 - len(text)), encoding='utf-8')
    code, out, err = run(capsys, 'check', str(target))
    assert code == 3 and out == ''
    assert err == ('finspec: resource limit: %s is larger than MAX_INPUT_BYTES '
                   '(4096 bytes)\n' % target)


def test_input_past_a_cap_above_the_first_chunk_exits_three(capsys, tmp_path, monkeypatch):
    # the first chunk comes back full, so the read goes on toward the cap
    cap = fileio.FIRST_READ_BYTES + 4096
    monkeypatch.setattr(fileio, 'MAX_INPUT_BYTES', cap)
    text = 'poset 2\n0 < 1\n'
    target = tmp_path / 'padded.txt'
    target.write_text(text + '#' * (cap - len(text)), encoding='utf-8')
    code, out, err = run(capsys, 'check', str(target))
    assert code == 0 and out.startswith('poset with 2 points') and err == ''
    target.write_text(text + '#' * (cap + 1 - len(text)), encoding='utf-8')
    code, out, err = run(capsys, 'check', str(target))
    assert code == 3 and out == ''
    assert err == ('finspec: resource limit: %s is larger than MAX_INPUT_BYTES '
                   '(%d bytes)\n' % (target, cap))


ENDLESS_INPUT = '''
import resource, sys
# a read without a bound runs into this limit instead of the host's memory
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from finspec.cli import main
sys.exit(main(['check', '/dev/zero']))
'''


@pytest.mark.skipif(not os.path.exists('/dev/zero'), reason='no /dev/zero')
def test_endless_file_exits_three_at_the_real_cap():
    done = subprocess.run([sys.executable, '-c', ENDLESS_INPUT],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 3 and done.stdout == ''
    assert done.stderr == ('finspec: resource limit: /dev/zero is larger than '
                           'MAX_INPUT_BYTES (%d bytes)\n' % fileio.MAX_INPUT_BYTES)


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


@pytest.mark.parametrize('name, cap', [
    ('chain4097', 'lattice size capped at 4096 (DOWNSET_CAP), got 4097'),
    ('chain' + '9' * 5000, 'chain<k> capped at k = 4096 (DOWNSET_CAP), got a 5000-digit k'),
    ('bool13', 'boolean envelope capped at 12 points (ENVELOPE_MAX_POINTS), got 13'),
    ('bool' + '9' * 5000,
     'bool<k> capped at k = 12 (ENVELOPE_MAX_POINTS), got a 5000-digit k'),
], ids=['chain4097', 'chain-5000-digits', 'bool13', 'bool-5000-digits'])
def test_builtin_sizes_past_the_caps_exit_three_at_once(capsys, name, cap):
    # refused before the chain's order is closed, and before int() reads
    # a k it would refuse with a ValueError
    start = time.perf_counter()
    code, out, err = run(capsys, 'check', name)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ''
    assert err == 'finspec: resource limit: %s\n' % cap


def test_distributivity_scan_past_the_work_budget_is_refused(capsys, monkeypatch):
    # bool8 has 256 elements, the most the scan's one-byte tables hold: the
    # triple scan runs, on a join table built from the up rows for it alone.
    # check reads Birkhoff's test, not the scan, and builds no join table
    lat = bool_lattice(8)
    given = _record_table_builds(monkeypatch)
    code, out, err = run(capsys, 'check', 'bool8')
    assert code == 0 and '  distributive         true' in out and err == ''
    assert lat.up not in given
    assert lat.distributivity_witness() is None
    assert given[-1] == lat.up


def test_default_work_budget_refuses_bool9_without_a_scan(capsys, monkeypatch):
    # check bool9 reads every verdict off the order rows and the meet
    # table: it prints the Boolean profile within 5 s of CPU (about 0.2 s
    # on a 2-core x86_64 host) and never runs the triple scan, which
    # refuses 512 elements before the join table is built
    scans = []
    scan = kernels.distributive_witness
    monkeypatch.setattr(kernels, 'distributive_witness',
                        lambda *args: scans.append(args) or scan(*args))
    given = _record_table_builds(monkeypatch)
    start = time.process_time()
    code, out, err = run(capsys, 'check', 'bool9')
    assert time.process_time() - start < 5.0
    assert code == 0 and err == '' and scans == []
    assert out.splitlines() == ['lattice with 512 elements'] + [
        '  %-20s true' % flag
        for flag in ('distributive', 'pseudocomplemented', 'stone', 'heyting', 'boolean')]
    lat = bool_lattice(9)
    assert lat.up not in given
    with pytest.raises(ResourceLimitError, match='^distributivity scan reads one-byte '
                       'tables, at most 256 elements; got 512$'):
        lat.distributivity_witness()
    assert scans == [(lat._meet, lat.up)] and lat.up not in given


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
    assert ('boolean envelope capped at %d points (ENVELOPE_MAX_POINTS), got %d'
            % (ENVELOPE_MAX_POINTS, ENVELOPE_MAX_POINTS + 1)) in err
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
import contextlib, copy, io, json, sys
sys.path.insert(0, %r)
from finspec import cli
table = copy.deepcopy(cli.COMMANDS)
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({'runs': runs, 'table_unchanged': cli.COMMANDS == table}))
''' % SRC


def test_one_parser_serves_every_call_in_a_process():
    # the table is only read: calls in one process match fresh processes
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
    assert together['table_unchanged']


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
    # module names only: the records are named tuples and the arguments
    # are read from the command table; argparse, and shutil behind it, is
    # imported only to print help or a usage error
    done = subprocess.run([sys.executable, '-S', '-c', IMPORT_PATH],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode == 0, done.stderr
    imported, after_main = json.loads(done.stdout.splitlines()[-1])
    assert 'finspec.cli' in imported
    for name in ('dataclasses', 'inspect', 'ast', 'dis'):
        assert name not in imported
    for name in ('shutil', 'argparse', 'gettext', 'locale'):
        assert name not in after_main


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


# ----------------------------------------------------------------------
# the command table against the argparse parser it replaced


def argparse_reference():
    'The argparse parser the command table replaced, kept to pin its language.'
    def formatter(prog):
        return argparse.HelpFormatter(prog, width=int(os.environ['COLUMNS']) - 2)

    parser = argparse.ArgumentParser(
        prog='finspec',
        description='Finite spectral spaces as posets: classification, '
                    'theorem cross-checks, duality, and sweeps.',
        formatter_class=formatter)
    sub = parser.add_subparsers(dest='subcommand', required=True)

    def add(name, help_text, with_input=True):
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        if with_input:
            p.add_argument('input',
                           help='file path or built-in name (v3, m3, chain4...)')
        return p

    p = add('check', 'classification profile of a poset or lattice')
    p.add_argument('--json', action='store_true')

    p = add('report', 'one cross-validation report', with_input=False)
    p.add_argument('theorem', choices=reports.THEOREMS)
    p.add_argument('input')
    p.add_argument('--json', action='store_true')

    p = add('pc-table', 'pseudocomplement and implication tables')
    p.add_argument('--json', action='store_true')

    for name, help_text in (('spec', 'prime spectrum poset of a lattice'),
                            ('downsets', 'down-set lattice of a poset'),
                            ('envelope', 'powerset envelope of a poset')):
        p = add(name, help_text)
        p.add_argument('--json', action='store_true')
        p.add_argument('--dot', action='store_true')

    p = add('sweep', 'exhaustive agreement sweep', with_input=False)
    p.add_argument('max_points', type=int)
    p.add_argument('--mode', choices=tuple(STREAMS), default='unlabeled')
    p.add_argument('--jobs', type=int, default=1)
    p.add_argument('--json', action='store_true')

    add('dot', 'Hasse diagram in DOT')
    return parser


def outcome(parse, argv):
    'The values parse returns, or its exit code, with what it printed.'
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.fixture
def reference(request, monkeypatch):
    'The reference parser at COLUMNS 80, or at the width a test passes in.'
    monkeypatch.setenv('COLUMNS', str(getattr(request, 'param', 80)))
    return lambda argv: vars(argparse_reference().parse_args(argv))


ACCEPTED = [
    ['check', 'v3'],
    ['check', '--json', 'v3'],
    ['check', 'v3', '--json'],
    ['check', 'v3', '--j'],                       # a prefix naming one flag
    ['check', 'v3', '--json', '--json'],
    ['check', '--', '--json'],                    # '--' ends the options
    ['check', 'v3', '--'],
    ['check', '--', 'v3'],
    ['report', 'stone', 'v3'],
    ['report', '--json', 'stone', 'v3'],
    ['report', 'stone', '--json', 'v3'],          # between the positionals
    ['report', 'collapse-max', 'd4', '--js'],
    ['pc-table', 'm3', '--json'],
    ['spec', '--dot', 'm3', '--json'],
    ['spec', 'm3', '--do'],
    ['downsets', 'v3', '--dot'],
    ['envelope', '--js', 'c2'],
    ['dot', 'v3'],
    ['sweep', '3'],
    ['sweep', '-1'],                              # a negative number is a value
    ['sweep', '3', '--jobs', '-2'],
    ['sweep', '--mode', 'labeled', '3'],
    ['sweep', '3', '--mode=labeled'],
    ['sweep', '--mo=labeled', '3', '--jobs', '2'],
    ['sweep', '3', '--m', 'labeled'],
    ['sweep', '3', '--jobs', '2', '--jobs=3'],    # the last one counts
    ['sweep', '3', '--mode', 'labeled', '--mode', 'unlabeled'],
    ['sweep', '--json', '3', '--jo', '2'],
    ['sweep', '--', '3'],
    ['sweep', '3', '--jobs=+4'],
]


@pytest.mark.parametrize('argv', ACCEPTED, ids=' '.join)
def test_table_parses_as_argparse_did(reference, argv):
    values, out, err = outcome(parse_args, argv)
    assert (out, err) == ('', '')
    assert values == reference(argv)


SUBCOMMANDS = ("'check', 'report', 'pc-table', 'spec', 'downsets', "
               "'envelope', 'sweep', 'dot'")
THEOREM_CHOICES = ("'pc-space', 'stone', 'qccl-stone', 'heyting', 'root-forest', "
                   "'collapse-min', 'collapse-max'")

# the last line of stderr, as argparse printed it on Python 3.11
REFUSED = [
    ([], 'finspec: error: the following arguments are required: subcommand'),
    (['--'], 'finspec: error: the following arguments are required: subcommand'),
    (['nosuch', 'v3'], "finspec: error: argument subcommand: invalid choice: "
                       "'nosuch' (choose from %s)" % SUBCOMMANDS),
    (['--', 'check', 'v3'], "finspec: error: argument subcommand: invalid choice: "
                            "'--' (choose from %s)" % SUBCOMMANDS),
    (['--json', 'check', 'v3'], 'finspec: error: unrecognized arguments: --json'),
    (['check'], 'finspec check: error: the following arguments are required: input'),
    (['check', 'v3', 'extra'], 'finspec: error: unrecognized arguments: extra'),
    (['check', 'v3', '--dot'], 'finspec: error: unrecognized arguments: --dot'),
    (['dot', 'v3', '--json'], 'finspec: error: unrecognized arguments: --json'),
    (['check', 'v3', '-x'], 'finspec: error: unrecognized arguments: -x'),
    (['check', 'v3', '--json=yes'],
     "finspec check: error: argument --json: ignored explicit argument 'yes'"),
    (['report'], 'finspec report: error: the following arguments are required: '
                 'theorem, input'),
    (['report', 'stone'],
     'finspec report: error: the following arguments are required: input'),
    (['report', 'nope', 'v3'], "finspec report: error: argument theorem: invalid "
                               "choice: 'nope' (choose from %s)" % THEOREM_CHOICES),
    (['report', 'v3', 'stone'], "finspec report: error: argument theorem: invalid "
                                "choice: 'v3' (choose from %s)" % THEOREM_CHOICES),
    (['sweep'], 'finspec sweep: error: the following arguments are required: max_points'),
    (['sweep', 'three'], "finspec sweep: error: argument max_points: invalid int "
                         "value: 'three'"),
    (['sweep', '-1.5'], "finspec sweep: error: argument max_points: invalid int "
                        "value: '-1.5'"),
    (['sweep', '3', '--mode', 'shuffled'],
     "finspec sweep: error: argument --mode: invalid choice: 'shuffled' (choose "
     "from 'labeled', 'unlabeled')"),
    (['sweep', '3', '--mode'], 'finspec sweep: error: argument --mode: expected one argument'),
    (['sweep', '3', '--mode', '--json'],
     'finspec sweep: error: argument --mode: expected one argument'),
    (['sweep', '3', '--jobs', 'two'],
     "finspec sweep: error: argument --jobs: invalid int value: 'two'"),
    (['sweep', '3', '--jobs='], "finspec sweep: error: argument --jobs: invalid int value: ''"),
    (['sweep', '3', '--j', '2'],
     'finspec sweep: error: ambiguous option: --j could match --jobs, --json'),
    (['sweep', '--j=2', 'three'],                 # ambiguity is found first
     'finspec sweep: error: ambiguous option: --j=2 could match --jobs, --json'),
    (['sweep', '3', '--', '--json'], 'finspec: error: unrecognized arguments: --json'),
    (['spec', 'v3', '--help=x'],
     "finspec spec: error: argument -h/--help: ignored explicit argument 'x'"),
    (['spec', 'v3', '-hx'],
     "finspec spec: error: argument -h/--help: ignored explicit argument 'x'"),
]


@pytest.mark.parametrize('argv, last_line', REFUSED, ids=[' '.join(a) or '(none)' for a, _ in REFUSED])
def test_table_refuses_as_argparse_did(reference, argv, last_line):
    code, out, err = outcome(parse_args, argv)
    assert code == 2 and out == ''
    assert err.splitlines()[-1] == last_line
    assert err.startswith('usage: finspec')
    assert outcome(reference, argv) == (code, out, err)


HELP_ARGVS = [
    ['-h'], ['--help'], ['--he'], ['-x', '--help', 'check'],
    ['check', '-h'], ['report', '--help'], ['pc-table', '-hh'], ['spec', '--h'],
    ['downsets', 'v3', '-h'], ['envelope', '--dot', '--help'], ['dot', '-h', 'v3'],
    ['sweep', '3', '--mode', 'labeled', '--help'],
]


# below 33 columns argparse wraps the usage line and the help column its
# own way; the width of 80 keeps the plain ids
@pytest.mark.parametrize('argv, reference', [
    (argv, columns) for columns in (80, 20, 28, 32) for argv in HELP_ARGVS
], indirect=['reference'], ids=[
    ' '.join(argv) + ('' if columns == 80 else ' COLUMNS=%d' % columns)
    for columns in (80, 20, 28, 32) for argv in HELP_ARGVS
])
def test_help_matches_argparse(reference, argv):
    code, out, err = outcome(parse_args, argv)
    assert code == 0 and err == '' and out.startswith('usage: finspec')
    assert outcome(reference, argv) == (code, out, err)


def test_a_value_of_two_dashes_is_kept(capsys):
    # argparse dropped such a '--' and handed main an empty list, which
    # crashed os.path.exists and the --mode lookup with a traceback
    assert parse_args(['report', 'stone', '--', '--'])['input'] == '--'
    code, out, err = run(capsys, 'report', 'stone', '--', '--')
    assert code == 2 and out == ''
    assert "no file or built-in structure named '--'" in err
    code, out, err = outcome(main, ['sweep', '3', '--mode=--'])
    assert code == 2 and out == ''
    assert err.splitlines()[-1] == ("finspec sweep: error: argument --mode: invalid "
                                    "choice: '--' (choose from 'labeled', 'unlabeled')")
