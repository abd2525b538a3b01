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
- prime_ideals+via_irreducibles: both prime-ideal routes on every
  lattice built before the clock starts;
- minimal_primes_coprime: the classical Stone criterion on every
  lattice built before the clock starts;
- stone_roundtrip: the lattice round trip on every lattice built before
  the clock starts, which builds each spectrum's down-set lattice;
- poset_roundtrip: the poset round trip on every input, down-set
  lattice build included;
- sweep (only with --sweep): reports.sweep(--points), the end-to-end run.

The last line of stdout is one JSON object, also written to --out
(BENCH_layers.json at the root of the checkout by default): per layer,
the CPU seconds of each run (time.process_time of the child) and the
child's peak RSS in MB (resource.getrusage, inputs included), with the
median of each; then the Python version, the machine, its CPU count,
the commit (git describe, "-dirty" when the tree differs from it) and
the input count.  Standard library only.
'''

import argparse
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
          'distributive_witness', 'closed_subspaces_pc', 'prime_ideals+via_irreducibles',
          'minimal_primes_coprime', 'stone_roundtrip', 'poset_roundtrip')



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
    'Run one layer in this process; return (CPU seconds, input count, peak RSS in MB).'
    seconds, count = _timed(layer, points)
    return seconds, count, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(layer, points):
    'CPU seconds of one layer run in this process, and its input count.'
    sys.path.insert(0, str(SRC))
    from finspec import duality, reports
    if layer == 'sweep':
        start = time.process_time()
        reports.sweep(points)
        return time.process_time() - start, None
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
    return time.process_time() - start, len(posets)


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
                        help='also time reports.sweep(--points)')
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
        runs, rss = [], []
        for _ in range(args.repeat):
            done = subprocess.run(
                [sys.executable, '-S', __file__, '--child', layer,
                 '--points', str(args.points)],
                capture_output=True, text=True, check=True)
            seconds, count, rss_mb = json.loads(done.stdout)
            runs.append(round(seconds, 4))
            rss.append(round(rss_mb, 1))
            if count is not None:
                out['inputs'] = count
        out['layers'][layer] = {'runs': runs, 'median_s': statistics.median(runs),
                                'rss_mb': rss, 'median_rss_mb': statistics.median(rss)}
        print(layer, runs, rss, file=sys.stderr)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + '\n')
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == '__main__':
    sys.exit(main())
