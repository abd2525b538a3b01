'''The benchmark's tracer still finds every name it patches.

finbench/tracing.py wraps finspec functions by attribute name.  A
refactor that renames or moves one of them makes install() raise or
leaves a span that never fires; this runs a traced sweep in a fresh
process and checks both.  Every report must be reached through the
attribute the tracer wraps, and the caches install() hands back must
still report their counters.  The subcommands that build down-set
lattices and spectra must call them by the names the tracer wraps in
the cli module too.  No sweep runs the distributivity triple scan, so
the script reaches kernels.distributive_witness through
Lattice.distributivity_witness.
'''

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = '''
import contextlib, io, json, sys
sys.path[:0] = [%r, %r]
import tracing
tracer = tracing.Tracer()
caches = tracing.install(tracer)
from finspec import cli, fixtures
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in (['pc-table', 'v3', '--json'],
                                         ['spec', 'm3', '--json'],
                                         ['downsets', 'v3', '--json'])]
    by_cli = {name: row[0] for name, row in tracer.totals().items()}
    code = cli.main(['sweep', '3', '--json'])
scan = fixtures.n5().distributivity_witness()
totals = tracer.totals()
print(json.dumps({'code': code, 'cli_codes': codes, 'by_cli': by_cli, 'scan': scan,
                  'calls': {name: row[0] for name, row in totals.items()},
                  'caches': tracing.cache_counts(caches)}))
''' % (str(ROOT / 'finbench'), str(ROOT / 'src'))


def test_traced_sweep_counts_every_layer():
    done = subprocess.run([sys.executable, '-c', SCRIPT], capture_output=True,
                          text=True, timeout=120, cwd=str(ROOT))
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got['cli_codes'] == [0, 0, 0]
    # pc-table and downsets on a poset build one down-set lattice each;
    # spec on a lattice takes its spectrum and builds none
    assert got['by_cli'].get('duality.downset_lattice') == 2
    assert got['by_cli'].get('duality.spec_poset') == 1
    assert got['code'] == 0
    assert got['scan'] is not None
    for name in ('duality.qccl_lattice', 'duality.downset_lattice',
                 'lattice.construct', 'poset.induced',
                 'kernels.distributive_witness', 'lattice.is_distributive'):
        assert got['calls'].get(name, 0) > 0, name
    for theorem in ('pc-space', 'stone', 'qccl-stone', 'heyting', 'root-forest',
                    'collapse-min', 'collapse-max'):
        assert got['calls'].get('reports.' + theorem, 0) > 0, theorem
    assert sorted(got['caches']) == [
        'duality.downset_lattice.hits', 'duality.downset_lattice.misses',
        'reports.cache.hits', 'reports.cache.misses']
    assert got['caches']['reports.cache.hits'] > 0
    assert got['caches']['reports.cache.misses'] > 0
    # a lattice cache that stops counting would read 0 here
    assert got['caches']['duality.downset_lattice.hits'] > 0
    assert got['caches']['duality.downset_lattice.misses'] > 0
