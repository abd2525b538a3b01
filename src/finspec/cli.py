'''Command-line front end.

Every subcommand takes either a file path or a built-in fixture name:
the posets v3, l3, c2, a2 and d4, or the lattices m3, n5, chain<k> and
bool<k>.  report, downsets and envelope take posets only; check,
pc-table, spec and dot take either kind.  Exit codes: 0 on
success, 1 when an agreement assertion fails, 2 on bad input, 3 when a
resource cap is hit.  JSON output always carries "schema": 1.

Arguments are read against COMMANDS, one table of the subcommands, in
the language argparse reads: options go anywhere after the subcommand,
as --opt value or --opt=value, and a long option may be cut to any
prefix that names one flag (--j is ambiguous for sweep, which has --jobs
and --json).  A repeated option keeps its last value, '--' ends the
options, and -h or --help prints help, for the program or a subcommand.
A bad argument exits 2 with a usage line and argparse's message.
argparse itself is imported only to print help or a usage error: a
parser built from COMMANDS renders them, and never parses.

An input file must be UTF-8, or it exits 2 naming the first bad byte's
offset; one longer than fileio.MAX_INPUT_BYTES (64 MiB) exits 3 after at
most that cap + 1 bytes are read, so /dev/zero ends too.
'''

import json
import os
import re
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
# subcommand bodies: each is called as run(structure, args), structure
# being the input resolved (None for sweep) and args what parse_args
# returned, and returns (exit_code, text)


def _run_check(structure, args):
    if isinstance(structure, Lattice):
        kind, unit = 'lattice', 'elements'
        flags = reports.lattice_flags(structure, structure)
        profile = {'distributive': structure.is_distributive(),
                   'pseudocomplemented': flags['pseudocomplemented'],
                   'stone': flags['stone'], 'heyting': flags['heyting'],
                   'boolean': flags['boolean']}
    else:
        kind, unit = 'poset', 'points'
        profile = reports.classify(structure).as_dict()
    if args['json']:
        return 0, json.dumps({'schema': SCHEMA, 'command': 'check',
                              'input': args['input'], 'kind': kind,
                              'size': structure.n, 'profile': profile},
                             sort_keys=True) + '\n'
    lines = ['%s with %d %s' % (kind, structure.n, unit)]
    lines += ['  %-20s %s' % (name, str(holds).lower())
              for name, holds in profile.items()]
    return 0, '\n'.join(lines) + '\n'


def _run_report(structure, args):
    poset = _need_poset(structure, 'report')
    report = reports.theorem_report(poset, args['theorem'])
    failed = report.hypothesis_satisfied and not report.agreement
    if args['json']:
        payload = {
            'schema': SCHEMA, 'command': 'report', 'input': args['input'],
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


def _lattice(structure):
    'A lattice as it is, a poset as its down-set lattice.'
    return downset_lattice(structure) if isinstance(structure, Poset) else structure


def _run_pc_table(structure, args):
    lattice = _lattice(structure)
    labels = [lattice.label(a) for a in range(lattice.n)]
    pcs = [lattice.pseudocomplement(a) for a in range(lattice.n)]
    imps = lattice.implication_table()
    if args['json']:
        return 0, json.dumps({'schema': SCHEMA, 'command': 'pc-table',
                              'input': args['input'], 'elements': labels,
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


def _structure_text(structure, args, **extra):
    '''structure as DOT for --dot, else as JSON with extra for --json,
    else as text.'''
    if args['dot']:
        return fileio.to_dot(structure)
    if args['json']:
        obj = fileio.to_json_obj(structure)
        obj.update(extra, schema=SCHEMA)
        return json.dumps(obj, sort_keys=True) + '\n'
    if isinstance(structure, Lattice):
        return fileio.lattice_to_text(structure)
    return fileio.poset_to_text(structure)


def _run_spec(structure, args):
    return 0, _structure_text(spec_poset(_lattice(structure)), args)


def _run_downsets(structure, args):
    poset = _need_poset(structure, 'downsets')
    return 0, _structure_text(downset_lattice(poset), args)


def _run_envelope(structure, args):
    envelope, embedding = boolean_envelope(_need_poset(structure, 'envelope'))
    text = _structure_text(envelope, args, embedding=list(embedding))
    if not (args['json'] or args['dot']):
        text += ''.join('# embed %d -> %d\n' % pair
                        for pair in enumerate(embedding))
    return 0, text


def _run_dot(structure, args):
    return 0, fileio.to_dot(structure)


def _run_sweep(structure, args):
    summary = reports.sweep(args['max_points'], mode=args['mode'], jobs=args['jobs'])
    code = 1 if summary.total_disagreements else 0
    if args['json']:
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

# The one table of subcommands: it parses argv, renders the usage lines
# and --help through _argparse, and names what runs each subcommand.  Per
# subcommand: its help, its positionals as (name, help, kind), its options
# as (flag, kind, default) and its body.  A kind is str, int or a tuple of
# choices; an option of kind bool is a switch.
_INPUT = ('input', 'file path or built-in name (v3, m3, chain4...)', str)
_JSON = ('--json', bool, False)
_DOT = ('--dot', bool, False)

COMMANDS = {
    'check': ('classification profile of a poset or lattice', (_INPUT,), (_JSON,),
              _run_check),
    'report': ('one cross-validation report',
               (('theorem', None, reports.THEOREMS), ('input', None, str)), (_JSON,),
               _run_report),
    'pc-table': ('pseudocomplement and implication tables', (_INPUT,), (_JSON,),
                 _run_pc_table),
    'spec': ('prime spectrum poset of a lattice', (_INPUT,), (_JSON, _DOT), _run_spec),
    'downsets': ('down-set lattice of a poset', (_INPUT,), (_JSON, _DOT),
                 _run_downsets),
    'envelope': ('powerset envelope of a poset', (_INPUT,), (_JSON, _DOT),
                 _run_envelope),
    'sweep': ('exhaustive agreement sweep', (('max_points', None, int),),
              (('--mode', tuple(enumeration.STREAMS), 'unlabeled'),
               ('--jobs', int, 1), _JSON), _run_sweep),
    'dot': ('Hasse diagram in DOT', (_INPUT,), (), _run_dot),
}

_HELP = ('-h', '--help')


def _argparse(command):
    '''The argparse parser of command (None for the program), built from
    COMMANDS to print help or a usage error; it never parses.'''
    import argparse
    parsers = {None: argparse.ArgumentParser(
        prog='finspec',
        description='Finite spectral spaces as posets: classification, '
                    'theorem cross-checks, duality, and sweeps.')}
    sub = parsers[None].add_subparsers(dest='subcommand', required=True)
    for name, (text, positionals, options, _) in COMMANDS.items():
        parser = parsers[name] = sub.add_parser(name, help=text)
        for arg, arg_help, kind in positionals:
            parser.add_argument(arg, help=arg_help,
                                choices=kind if isinstance(kind, tuple) else None)
        for flag, kind, _ in options:
            if kind is bool:
                parser.add_argument(flag, action='store_true')
            else:
                parser.add_argument(flag, choices=kind if isinstance(kind, tuple) else None)
    return parsers[command]


def _fail(command, message):
    'The usage and the error on stderr, then exit 2.'
    _argparse(command).error(message)


def _show_help(command, flag, value):
    'Print the help and exit 0; -hh is -h -h, and any other glued value is an error.'
    if value is not None:
        rest = value.lstrip('h') if flag == '-h' else value
        if rest or not value:
            _fail(command, 'argument -h/--help: ignored explicit argument %r' % rest)
    _argparse(command).print_help()
    raise SystemExit(0)


def _option(arg, flags, command):
    '''How argparse reads arg against flags: None for a plain argument,
    else (flag, glued value or None), with flag None for an unknown option.

    A value is glued on by "=", or straight after a one-dash flag.  A long
    option may be shortened to any prefix that names one flag.
    '''
    if not arg.startswith('-'):
        return None
    if arg in flags:
        return arg, None
    if len(arg) == 1:
        return None
    flag, eq, value = arg.partition('=')
    if eq and flag in flags:
        return flag, value
    if arg[1] == '-':
        matches = [known for known in flags if known.startswith(flag)]
        value = value if eq else None
    else:
        matches = [known for known in flags if known == arg[:2]]
        value = arg[2:]
    if len(matches) > 1:
        _fail(command, 'ambiguous option: %s could match %s' % (arg, ', '.join(matches)))
    if matches:
        return matches[0], value
    if ' ' in arg or re.match(r'^-\d+$|^-\d*\.\d+$', arg):
        return None
    return None, None


def _convert(name, value, kind, command):
    'value read as kind, or exit 2 naming the argument.'
    if kind is int:
        try:
            return int(value)
        except ValueError:
            _fail(command, 'argument %s: invalid int value: %r' % (name, value))
    if isinstance(kind, tuple) and value not in kind:
        _fail(command, 'argument %s: invalid choice: %r (choose from %s)'
              % (name, value, ', '.join(map(repr, kind))))
    return value


def _parse_command(command, args):
    "The values of one subcommand's arguments, and the arguments left over."
    _, positionals, options, _ = COMMANDS[command]
    kinds = {flag: kind for flag, kind, _ in options}
    flags = _HELP + tuple(kinds)
    values = {'subcommand': command}
    values.update((flag[2:], default) for flag, _, default in options)
    # every argument before '--' is read first: an ambiguous prefix exits
    # before any value is converted
    end = args.index('--') if '--' in args else len(args)
    found = {}
    for i in range(end):
        option = _option(args[i], flags, command)
        if option is not None:
            found[i] = option
    pending = list(positionals)
    extras = []
    i = 0
    while i < len(args):
        if i in found:
            flag, value = found[i]
            i += 1
            if flag is None:
                extras.append(args[i - 1])
            elif flag in _HELP:
                _show_help(command, flag, value)
            elif kinds[flag] is bool:
                if value is not None:
                    _fail(command, 'argument %s: ignored explicit argument %r' % (flag, value))
                values[flag[2:]] = True
            else:
                if value is None:
                    if i == len(args) or i == end or i in found:
                        _fail(command, 'argument %s: expected one argument' % flag)
                    value = args[i]
                    i += 1
                values[flag[2:]] = _convert(flag, value, kinds[flag], command)
            continue
        # positionals take the arguments up to the next option; the '--'
        # before or after one of them is dropped, the rest is extra
        start = i
        while pending and i < len(args) and i not in found:
            if i != end:
                name, _, kind = pending.pop(0)
                values[name] = _convert(name, args[i], kind, command)
            elif i + 1 == len(args):
                break
            i += 1
        if i == end and i > start:
            i += 1
        while i < len(args) and i not in found:
            extras.append(args[i])
            i += 1
    if pending:
        _fail(command, 'the following arguments are required: %s'
              % ', '.join(name for name, _, _ in pending))
    return values, extras


def parse_args(argv):
    '''argv read against COMMANDS: a dict of the subcommand and the value
    of each of its arguments, keyed as argparse keys them.

    -h and --help print help and exit 0; bad arguments exit 2 with
    argparse's usage line and message.
    '''
    argv = list(argv)
    extras = []
    for i, arg in enumerate(argv):
        option = None if arg == '--' else _option(arg, _HELP, None)
        if option is None:
            break
        if option[0] is None:
            extras.append(arg)
        else:
            _show_help(None, *option)
    else:
        i = len(argv)
    if argv[i:] in ([], ['--']):
        _fail(None, 'the following arguments are required: subcommand')
    command = _convert('subcommand', argv[i], tuple(COMMANDS), None)
    values, more = _parse_command(command, argv[i + 1:])
    if extras or more:
        _fail(None, 'unrecognized arguments: %s' % ' '.join(extras + more))
    return values


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        structure = _resolve(args['input']) if 'input' in args else None
        code, text = COMMANDS[args['subcommand']][3](structure, args)
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
