'''Command-line front end.

Every subcommand takes either a file path or a built-in fixture name:
the posets v3, l3, c2, a2 and d4, or the lattices m3, n5, chain<k> and
bool<k>.  report, downsets and envelope take posets only; check,
pc-table, spec and dot take either kind.  Exit codes: 0 on
success, 1 when an agreement assertion fails, 2 on bad input, 3 when a
resource cap is hit.  JSON output always carries "schema": 1.
'''

import argparse
import functools
import json
import os
import sys

from . import enumeration, fileio, fixtures, reports
from .duality import boolean_envelope, downset_lattice, spec_poset
from .errors import (AgreementError, InputError, ResourceLimitError,
                     ToolkitError)
from .lattice import Lattice
from .poset import Poset

SCHEMA = 1


def _resolve(source):
    'A path if one exists, else a built-in fixture name.'
    if os.path.exists(source):
        return fileio.read_path(source)
    try:
        return fixtures.builtin(source)
    except InputError:
        raise InputError('no file or built-in structure named %r '
                         '(built-ins: %s)'
                         % (source, ', '.join(fixtures.builtin_names()))) from None


def _need_poset(structure, subcommand):
    if not isinstance(structure, Poset):
        raise InputError('%s works on a poset, not a lattice (poset built-ins: %s)'
                         % (subcommand, ', '.join(fixtures.POSETS)))
    return structure


def _plain(value):
    'Report witnesses down to json-friendly values.'
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    return value


# ----------------------------------------------------------------------
# subcommand bodies; each returns (exit_code, text)


def _run_check(structure, source, as_json):
    if isinstance(structure, Lattice):
        flags = [('distributive', structure.is_distributive()),
                 ('pseudocomplemented', structure.is_pseudocomplemented()),
                 ('stone', structure.is_stone()),
                 ('heyting', structure.is_heyting()),
                 ('boolean', structure.is_boolean())]
        if as_json:
            return 0, json.dumps({'schema': SCHEMA, 'command': 'check',
                                  'input': source, 'kind': 'lattice',
                                  'size': structure.n,
                                  'profile': dict(flags)},
                                 sort_keys=True) + '\n'
        lines = ['lattice with %d elements' % structure.n]
        lines += ['  %-20s %s' % (name, str(holds).lower())
                  for name, holds in flags]
        return 0, '\n'.join(lines) + '\n'

    profile = reports.classify(structure)
    if as_json:
        return 0, json.dumps({'schema': SCHEMA, 'command': 'check',
                              'input': source, 'kind': 'poset',
                              'size': structure.n,
                              'profile': profile.as_dict()},
                             sort_keys=True) + '\n'
    lines = ['poset with %d points' % structure.n]
    lines += ['  %-20s %s' % (flag, str(getattr(profile, flag)).lower())
              for flag in reports.PROFILE_FLAGS]
    return 0, '\n'.join(lines) + '\n'


def _run_report(structure, source, theorem, as_json):
    poset = _need_poset(structure, 'report')
    report = reports.theorem_report(poset, theorem)
    failed = report.hypothesis_satisfied and not report.agreement
    if as_json:
        payload = {
            'schema': SCHEMA, 'command': 'report', 'input': source,
            'theorem': report.theorem,
            'conditions': [{'label': c.label, 'holds': c.holds,
                            'group': c.group} for c in report.conditions],
            'hypotheses': [{'name': name, 'holds': holds}
                           for name, holds in report.hypotheses],
            'hypothesis_satisfied': report.hypothesis_satisfied,
            'agreement': report.agreement,
            'all_true': report.all_true,
            'witness': _plain(report.witness),
        }
        return (1 if failed else 0), json.dumps(payload, sort_keys=True) + '\n'
    lines = ['theorem %s on %d points' % (report.theorem, poset.n)]
    for name, holds in report.hypotheses:
        lines.append('  hypothesis %-24s %s' % (name, str(holds).lower()))
    for c in report.conditions:
        lines.append('  %-34s %s' % (c.label, str(c.holds).lower()))
    lines.append('agreement: %s' % ('yes' if report.agreement else 'NO'))
    if report.witness is not None:
        lines.append('witness: %r' % (_plain(report.witness),))
    return (1 if failed else 0), '\n'.join(lines) + '\n'


def _run_pc_table(structure, source, as_json):
    if isinstance(structure, Poset):
        lattice = downset_lattice(structure)
    else:
        lattice = structure
    labels = [lattice.label(a) for a in range(lattice.n)]
    pcs = [lattice.pseudocomplement(a) for a in range(lattice.n)]
    imps = lattice.implication_table()
    if as_json:
        return 0, json.dumps({'schema': SCHEMA, 'command': 'pc-table',
                              'input': source, 'elements': labels,
                              'pseudocomplement': pcs,
                              'implication': imps}, sort_keys=True) + '\n'
    width = max(3, max(len(s) for s in labels))
    fmt = '%%-%ds' % width
    show = lambda a: '-' if a is None else labels[a]
    lines = ['pseudocomplements:']
    for a in range(lattice.n):
        lines.append('  %s* = %s' % (fmt % labels[a], show(pcs[a])))
    lines.append('implications a -> b (rows a, columns b):')
    lines.append('  ' + fmt % '' + '  ' + '  '.join(fmt % s for s in labels))
    for a in range(lattice.n):
        lines.append('  ' + fmt % labels[a] + '  '
                     + '  '.join(fmt % show(v) for v in imps[a]))
    return 0, '\n'.join(lines) + '\n'


def _structure_text(structure, as_json, as_dot):
    if as_dot:
        return fileio.to_dot(structure)
    if as_json:
        obj = fileio.to_json_obj(structure)
        obj['schema'] = SCHEMA
        return json.dumps(obj, sort_keys=True) + '\n'
    if isinstance(structure, Lattice):
        return fileio.lattice_to_text(structure)
    return fileio.poset_to_text(structure)


def _run_spec(structure, as_json, as_dot):
    lattice = (downset_lattice(structure) if isinstance(structure, Poset)
               else structure)
    return 0, _structure_text(spec_poset(lattice), as_json, as_dot)


def _run_downsets(structure, as_json, as_dot):
    poset = _need_poset(structure, 'downsets')
    return 0, _structure_text(downset_lattice(poset), as_json, as_dot)


def _run_envelope(structure, as_json, as_dot):
    poset = _need_poset(structure, 'envelope')
    envelope, embedding = boolean_envelope(poset)
    text = _structure_text(envelope, as_json, as_dot)
    if as_json:
        obj = json.loads(text)
        obj['embedding'] = list(embedding)
        return 0, json.dumps(obj, sort_keys=True) + '\n'
    if not as_dot:
        text += ''.join('# embed %d -> %d\n' % pair
                        for pair in enumerate(embedding))
    return 0, text


def _run_sweep(max_points, mode, jobs, as_json):
    summary = reports.sweep(max_points, mode=mode, jobs=jobs)
    code = 1 if summary.total_disagreements else 0
    if as_json:
        payload = {
            'schema': SCHEMA, 'command': 'sweep', 'mode': summary.mode,
            'max_points': summary.max_points,
            'rows': [{'n': row.n, 'count': row.count,
                      'disagreements': row.disagreements,
                      'classes': dict(row.class_counts)}
                     for row in summary.rows],
            'theorem_disagreements': dict(summary.theorem_disagreements),
            'first_failures': [{'flag': item.flag, 'n': item.n,
                                'index': item.index,
                                'covers': [list(pair)
                                           for pair in item.covers]}
                               for item in summary.first_failures],
            'totals': {'posets': summary.total_posets,
                       'disagreements': summary.total_disagreements},
        }
        return code, json.dumps(payload, sort_keys=True) + '\n'
    lines = ['sweep of %s posets up to %d points'
             % (summary.mode, summary.max_points)]
    for row in summary.rows:
        lines.append('  n=%d: %d posets, %d disagreements'
                     % (row.n, row.count, row.disagreements))
    lines.append('total: %d posets, %d disagreements'
                 % (summary.total_posets, summary.total_disagreements))
    if summary.first_failures:
        lines.append('first counterexamples in canonical order:')
        for item in summary.first_failures:
            shown = ', '.join('%d<%d' % pair for pair in item.covers)
            lines.append('  not %-18s n=%d #%d covers %s'
                         % (item.flag, item.n, item.index, shown or '(none)'))
    return code, '\n'.join(lines) + '\n'


# ----------------------------------------------------------------------
# argument wiring


def _formatter(prog):
    '''argparse's help formatter at the width it would pick itself.

    The stock formatter asks shutil.get_terminal_size, and importing
    shutil (with bz2, lzma and fnmatch behind it) was most of the cost of
    building the parser.  This reads the same columns the same way:
    COLUMNS, else the size of the terminal on stdout, else 80; minus 2.
    '''
    try:
        columns = int(os.environ['COLUMNS'])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return argparse.HelpFormatter(prog, width=(columns or 80) - 2)


@functools.lru_cache(maxsize=None)
def _parser():
    'The argument parser, built once per process: parse_args leaves it as it is.'
    parser = argparse.ArgumentParser(
        prog='finspec',
        description='Finite spectral spaces as posets: classification, '
                    'theorem cross-checks, duality, and sweeps.',
        formatter_class=_formatter)
    sub = parser.add_subparsers(dest='subcommand', required=True)

    def add(name, help_text, with_input=True):
        p = sub.add_parser(name, help=help_text, formatter_class=_formatter)
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
    p.add_argument('--mode', choices=tuple(enumeration.STREAMS),
                   default='unlabeled')
    p.add_argument('--jobs', type=int, default=1)
    p.add_argument('--json', action='store_true')

    add('dot', 'Hasse diagram in DOT')
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.subcommand == 'sweep':
            code, text = _run_sweep(args.max_points, args.mode, args.jobs,
                                    args.json)
        else:
            structure = _resolve(args.input)
            if args.subcommand == 'check':
                code, text = _run_check(structure, args.input, args.json)
            elif args.subcommand == 'report':
                code, text = _run_report(structure, args.input, args.theorem,
                                         args.json)
            elif args.subcommand == 'pc-table':
                code, text = _run_pc_table(structure, args.input, args.json)
            elif args.subcommand == 'spec':
                code, text = _run_spec(structure, args.json, args.dot)
            elif args.subcommand == 'downsets':
                code, text = _run_downsets(structure, args.json, args.dot)
            elif args.subcommand == 'envelope':
                code, text = _run_envelope(structure, args.json, args.dot)
            else:
                code, text = 0, fileio.to_dot(structure)
    except AgreementError as exc:
        print('finspec: agreement failure: %s' % exc, file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print('finspec: resource limit: %s' % exc, file=sys.stderr)
        return 3
    except InputError as exc:
        print('finspec: error: %s' % exc, file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print('finspec: %s' % exc, file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


if __name__ == '__main__':
    sys.exit(main())
