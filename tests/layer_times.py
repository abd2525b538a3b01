'''CPU time and peak RSS of the lattice layers, each in a fresh process, as JSON.

    python3 -S tests/layer_times.py [--points 7] [--repeat 3] [--sweep]
                                    [--out BENCH_layers.json]

Run from anywhere; finspec is imported from the src directory next to
this file.  The inputs are every isomorphism class of up to --points
points and the dual of each, enumerated before the clock starts.  Each
layer runs --repeat times, every time in a new interpreter, so no
lru_cache carries over from one run to the next:

- downset_lattice: build the down-set lattice of every input from its
  down-set masks (duality.inclusion_lattice, no cache in between);
- downset_lattice+join: the same builds, then one join read on each
  lattice, which is what classify costs on top of a build;
- pseudocomplement_vector: is_pseudocomplemented on every lattice
  built before the clock starts, one kernel call each;
- distributive_witness: is_distributive on every lattice built before
  the clock starts, which builds each join table and runs the byte scan;
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
- import: `import finspec.cli` in a bare interpreter, which has loaded
  nothing the import needs;
- sweep (only with --sweep): cli.main(['sweep', --points, '--json']),
  the end-to-end run, with the sha256 of what it prints.

The last line of stdout is one JSON object, also written to --out
(BENCH_layers.json at the root of the checkout by default): per layer,
the CPU seconds of each run (time.process_time of the child) and the
child's peak RSS in MB (resource.getrusage, inputs included), with the
median of each, and for sweep the sha256 of its stdout, which every
run must repeat; then the Python version, the machine, its CPU count,
the commit (git describe, "-dirty" when the tree differs from it) and
the input count.  Standard library only.
'''

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / 'src'
LAYERS = ('downset_lattice', 'downset_lattice+join', 'pseudocomplement_vector',
          'distributive_witness', 'closed_subspaces_pc', 'heyting_report',
          'prime_ideals+via_irreducibles', 'minimal_primes_coprime', 'stone_roundtrip',
          'poset_roundtrip', 'import')

# the import layer's child: only built-in modules load before the clock,
# so nothing finspec.cli imports is already there
IMPORT_CHILD = '''
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.process_time()
import finspec.cli
seconds = time.process_time() - start
import resource
print('[%r, null, %r, null]' % (seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
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
    seconds, count, digest = _timed(layer, points)
    return seconds, count, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, digest


def _timed(layer, points):
    'CPU seconds of one layer run in this process, its input count and output digest.'
    sys.path.insert(0, str(SRC))
    from finspec import cli, duality, reports
    if layer == 'sweep':
        printed = io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(printed):
            code = cli.main(['sweep', str(points), '--json'])
        seconds = time.process_time() - start
        if code != 0:
            raise SystemExit('sweep %d exited %d' % (points, code))
        return seconds, None, hashlib.sha256(printed.getvalue().encode()).hexdigest()
    # what the layers that read lattices built before the clock do with each
    on_lattices = {
        'pseudocomplement_vector': lambda lat: lat.is_pseudocomplemented(),
        'distributive_witness': lambda lat: lat.is_distributive(),
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
        start = time.process_time()
        for lat in lattices:
            run(lat)
    elif layer == 'closed_subspaces_pc':
        start = time.process_time()
        for poset in posets:
            reports.closed_subspaces_pc(poset, None)
    elif layer == 'heyting_report':
        start = time.process_time()
        for poset in posets:
            reports.heyting_report(poset)
    elif layer == 'poset_roundtrip':
        start = time.process_time()
        for poset in posets:
            duality.poset_roundtrip(poset)
    else:
        start = time.process_time()
        lattices = [duality.inclusion_lattice(m) for m in masks]
        if layer == 'downset_lattice+join':
            for lat in lattices:
                lat.join(0, 0)
    return time.process_time() - start, len(posets), None


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
                        help="also time cli.main(['sweep', POINTS, '--json'])")
    parser.add_argument('--out', default=str(ROOT / 'BENCH_layers.json'),
                        help='where the JSON goes besides stdout')
    parser.add_argument('--child', help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child, args.points)))
        return 0
    layers = LAYERS + ('sweep',) * args.sweep
    out = {'python': platform.python_version(), 'machine': platform.machine(),
           'cpus': os.cpu_count(), 'commit': _commit(), 'points': args.points,
           'layers': {}}
    for layer in layers:
        runs, rss, digests = [], [], set()
        if layer == 'import':
            command = [sys.executable, '-S', '-c', IMPORT_CHILD, str(SRC)]
        else:
            command = [sys.executable, '-S', __file__, '--child', layer,
                       '--points', str(args.points)]
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
        print(layer, runs, rss, file=sys.stderr)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + '\n')
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == '__main__':
    sys.exit(main())
