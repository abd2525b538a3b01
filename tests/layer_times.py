'''CPU time and peak RSS of the lattice layers, each in a fresh process, as JSON.

    python3 -S tests/layer_times.py [--points 7] [--repeat 3] [--sweep]
                                    [--count] [--out BENCH_layers.json]

Run from anywhere; finspec is imported from the src directory next to
this file.  The inputs are every isomorphism class of up to --points
points and the dual of each, enumerated before the clock starts.  Each
layer runs --repeat times, every time in a new interpreter, so no
lru_cache carries over from one run to the next:

- unlabeled_reps: enumeration and canonical form, the first layer:
  kernels.unlabeled_reps(--points) from an empty cache, every level
  below it included, with the sha256 of the rows it returns (repr);
- downset_lattice: build the down-set lattice of every input from its
  down-set masks (duality.inclusion_lattice, no cache in between; but
  inputs whose lattices have equal up rows share one validated copy
  through the pool of inclusion_lattice);
- downset_lattice+flags: the same builds, then reports.lattice_flags
  on each lattice, the lattice side of classify;
- pseudocomplement_vector: is_pseudocomplemented on every lattice
  built before the clock starts, one kernel call each;
- is_distributive: Birkhoff's test on every lattice built before the
  clock starts, one set lookup per join-irreducible after lower_covers;
- distributive_witness: distributivity_witness() on the same lattices,
  the byte scan over each meet table and a join table it builds from
  the up rows for itself;
- closed_subspaces_pc: the heyting reading on every input, with cold
  report caches;
- heyting_report: the whole heyting report on every input, with cold
  report and lattice caches;
- prime_ideals+via_irreducibles: both prime-ideal routes on every
  lattice built before the clock starts;
- minimal_primes_coprime: the classical Stone criterion on every
  lattice built before the clock starts;
- stone_roundtrip: the lattice round trip on every lattice built before
  the clock starts, which builds each spectrum's down-set lattice;
- poset_roundtrip: the poset round trip on every input, down-set
  lattice build included;
- input: the path from file to order: fileio.read_path on every input
  written once as text and once as JSON before the clock starts, then
  fixtures.builtin('chain1024');
- import: `import finspec.cli` in a bare interpreter, which has loaded
  nothing the import needs;
- sweep (only with --sweep): cli.main(['sweep', --points, '--json']),
  the end-to-end run, with the sha256 of what it prints;
- sweep-labeled (only with --sweep): the labeled sweep of up to
  min(--points, 5) points, cli.main(['sweep', N, '--mode', 'labeled',
  '--json']), with the sha256 of what it prints: thousands of small
  posets that miss every report cache, where what each swept poset
  keeps alive shows in the peak RSS.

The last line of stdout is one JSON object, also written to --out
(BENCH_layers.json at the root of the checkout by default): per layer,
the CPU seconds of each run (time.process_time of the child) and the
child's own peak RSS in MB (VmHWM, inputs included), with the
median of each, and for unlabeled_reps and the two sweeps the sha256
of their output, which every run must repeat; then the Python version,
the machine, its CPU count, the commit (git describe, "-dirty" when the
tree differs from it) and the input count.  Standard library only.

--count adds one more fresh process per layer, with PYTHONHASHSEED=0,
that runs the layer's timed work under sys.settrace with
frame.f_trace_opcodes set, and records beside the medians the opcodes
it ran and its Python calls (a generator resuming counts as a call).
These counts do not move with host load, so they can compare two
commits where CPU time cannot; but work done in C, such as
bytes.translate, big-int arithmetic or sorted, is invisible to them.
The import layer's count covers what `import finspec.cli` loads beyond
the modules this script has loaded already.

Each child reads its peak RSS as VmHWM from /proc/self/status, and
falls back to resource.getrusage's ru_maxrss only where that file is
absent.  ru_maxrss alone would not do: the kernel keeps it across
execve, so a child reads the high-water mark of the process that
spawned it whenever that one is higher.
'''

import argparse
import atexit
import contextlib
import hashlib
import inspect
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / 'src'
LAYERS = ('unlabeled_reps', 'downset_lattice', 'downset_lattice+flags',
          'pseudocomplement_vector', 'is_distributive', 'distributive_witness',
          'closed_subspaces_pc', 'heyting_report', 'prime_ideals+via_irreducibles',
          'minimal_primes_coprime', 'stone_roundtrip', 'poset_roundtrip', 'input',
          'import')


def peak_rss_mb():
    'Peak RSS of this process in MB: VmHWM, or ru_maxrss without /proc.'
    try:
        with open('/proc/self/status') as status:
            for line in status:
                if line.startswith('VmHWM:'):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# the import layer's child: only built-in modules load before the clock,
# so nothing finspec.cli imports is already there
IMPORT_CHILD = inspect.getsource(peak_rss_mb) + '''
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.process_time()
import finspec.cli
seconds = time.process_time() - start
print('[%r, null, %r, null]' % (seconds, peak_rss_mb()))
'''


def _inputs(points):
    from finspec import kernels
    from finspec.poset import Poset
    out = []
    for n in range(points + 1):
        for rows in kernels.unlabeled_reps(n):
            poset = Poset.from_up_rows(rows)
            out += [poset, poset.dual()]
    return out


def _child(layer, points):
    '''Run one layer in this process; return (CPU seconds, input count,
    peak RSS in MB, sha256 of the output or None).'''
    work, count = _work(layer, points)
    start = time.process_time()
    digest = work()
    seconds = time.process_time() - start
    return seconds, count, peak_rss_mb(), digest


def _counted_child(layer, points):
    '''Run one layer in this process under sys.settrace; return the
    opcodes it ran and its Python calls (generator resumptions included).'''
    work, _ = _work(layer, points)
    opcodes = calls = 0

    def on_opcode(frame, event, arg):
        nonlocal opcodes
        if event == 'opcode':
            opcodes += 1
        return on_opcode

    def on_call(frame, event, arg):
        nonlocal calls
        calls += 1
        frame.f_trace_opcodes = True
        return on_opcode

    sys.settrace(on_call)
    try:
        work()
    finally:
        sys.settrace(None)
    return opcodes, calls


def _work(layer, points):
    '''The work one layer measures, as a function of no arguments that
    returns the sha256 of its output or None, and the input count or
    None; the inputs are built before this returns.'''
    sys.path.insert(0, str(SRC))
    if layer == 'import':
        # only the modules this script has loaded come before the work
        def work():
            import finspec.cli
        return work, None
    from finspec import cli, duality, fileio, fixtures, kernels, reports
    if layer == 'unlabeled_reps':
        # nothing has built a level yet in this process
        def work():
            reps = kernels.unlabeled_reps(points)
            return hashlib.sha256(repr(reps).encode()).hexdigest()
        return work, None
    sweeps = {'sweep': [str(points)],
              'sweep-labeled': [str(min(points, 5)), '--mode', 'labeled']}
    if layer in sweeps:
        argv = ['sweep'] + sweeps[layer] + ['--json']

        def work():
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit('%s exited %d' % (' '.join(argv), code))
            return hashlib.sha256(printed.getvalue().encode()).hexdigest()
        return work, None
    # what the layers that read lattices built before the clock do with each
    on_lattices = {
        'pseudocomplement_vector': lambda lat: lat.is_pseudocomplemented(),
        'is_distributive': lambda lat: lat.is_distributive(),
        'distributive_witness': lambda lat: lat.distributivity_witness(),
        'prime_ideals+via_irreducibles':
            lambda lat: (lat.prime_ideals(), lat.prime_ideals_via_irreducibles()),
        'minimal_primes_coprime': lambda lat: lat.minimal_primes_coprime(),
        'stone_roundtrip': duality.stone_roundtrip,
    }
    posets = _inputs(points)
    masks = [poset.downset_masks_all for poset in posets]
    if layer in on_lattices:
        run = on_lattices[layer]
        lattices = [duality.inclusion_lattice(m) for m in masks]

        def work():
            for lat in lattices:
                run(lat)
    elif layer == 'closed_subspaces_pc':
        def work():
            for poset in posets:
                reports.closed_subspaces_pc(poset, None)
    elif layer == 'heyting_report':
        def work():
            for poset in posets:
                reports.heyting_report(poset)
    elif layer == 'poset_roundtrip':
        def work():
            for poset in posets:
                duality.poset_roundtrip(poset)
    elif layer == 'input':
        folder = tempfile.mkdtemp(prefix='layer-input-')
        atexit.register(shutil.rmtree, folder)
        paths = []
        for index, poset in enumerate(posets):
            for suffix, text in (('txt', fileio.poset_to_text(poset)),
                                 ('json', fileio.to_json(poset))):
                path = os.path.join(folder, '%d.%s' % (index, suffix))
                with open(path, 'w', encoding='utf-8') as handle:
                    handle.write(text)
                paths.append(path)

        def work():
            for path in paths:
                fileio.read_path(path)
            fixtures.builtin('chain1024')
    else:
        def work():
            lattices = [duality.inclusion_lattice(m) for m in masks]
            if layer == 'downset_lattice+flags':
                for lat in lattices:
                    reports.lattice_flags(lat, None)
    return work, len(posets)


def _child_command(layer, points):
    return [sys.executable, '-S', __file__, '--child', layer, '--points', str(points)]


def work_counts(layer, points):
    '''Opcodes and Python calls of one run of layer, traced in a fresh
    process with PYTHONHASHSEED=0.'''
    done = subprocess.run(_child_command(layer, points) + ['--count'],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONHASHSEED='0'))
    return tuple(json.loads(done.stdout))


def _commit():
    "The checkout's commit as git describes it, or None outside a git checkout."
    try:
        done = subprocess.run(['git', 'describe', '--always', '--dirty'], cwd=str(ROOT),
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--points', type=int, default=7)
    parser.add_argument('--repeat', type=int, default=3)
    parser.add_argument('--sweep', action='store_true',
                        help="also time cli.main(['sweep', POINTS, '--json']) and the "
                             'labeled sweep of min(POINTS, 5) points')
    parser.add_argument('--count', action='store_true',
                        help='also count the opcodes and calls of one traced run per layer')
    parser.add_argument('--out', default=str(ROOT / 'BENCH_layers.json'),
                        help='where the JSON goes besides stdout')
    parser.add_argument('--child', help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        run = _counted_child if args.count else _child
        print(json.dumps(run(args.child, args.points)))
        return 0
    layers = LAYERS + ('sweep', 'sweep-labeled') * args.sweep
    out = {'python': platform.python_version(), 'machine': platform.machine(),
           'cpus': os.cpu_count(), 'commit': _commit(), 'points': args.points,
           'layers': {}}
    for layer in layers:
        runs, rss, digests = [], [], set()
        if layer == 'import':
            command = [sys.executable, '-S', '-c', IMPORT_CHILD, str(SRC)]
        else:
            command = _child_command(layer, args.points)
        for _ in range(args.repeat):
            done = subprocess.run(command, capture_output=True, text=True, check=True)
            seconds, count, rss_mb, digest = json.loads(done.stdout)
            runs.append(round(seconds, 4))
            rss.append(round(rss_mb, 1))
            digests.add(digest)
            if count is not None:
                out['inputs'] = count
        if len(digests) > 1:
            raise SystemExit('%s printed different output across runs: %s'
                             % (layer, sorted(digests)))
        out['layers'][layer] = {'runs': runs, 'median_s': round(statistics.median(runs), 4),
                                'rss_mb': rss, 'median_rss_mb': statistics.median(rss)}
        if None not in digests:
            out['layers'][layer]['sha256'] = digests.pop()
        if args.count:
            entry = out['layers'][layer]
            entry['opcodes'], entry['calls'] = work_counts(layer, args.points)
        print(layer, out['layers'][layer], file=sys.stderr)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + '\n')
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == '__main__':
    sys.exit(main())
