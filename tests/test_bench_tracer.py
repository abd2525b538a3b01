'''The benchmark's tracer still finds every name it patches.

finbench/tracing.py wraps finspec functions by attribute name.  A
refactor that renames or moves one of them makes install() raise or
leaves a span that never fires; this runs a traced sweep in a fresh
process and checks both.
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
tracing.install(tracer)
from finspec import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(['sweep', '3', '--json'])
totals = tracer.totals()
print(json.dumps({'code': code,
                  'calls': {name: row[0] for name, row in totals.items()}}))
''' % (str(ROOT / 'finbench'), str(ROOT / 'src'))


def test_traced_sweep_counts_every_layer():
    done = subprocess.run([sys.executable, '-c', SCRIPT], capture_output=True,
                          text=True, timeout=120, cwd=str(ROOT))
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got['code'] == 0
    for name in ('duality.qccl_lattice', 'duality.downset_lattice',
                 'lattice.construct', 'poset.induced'):
        assert got['calls'].get(name, 0) > 0, name
