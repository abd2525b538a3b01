'''finspec benchmark: one workload, end to end or traced per layer.

    python3 finbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a finspec checkout.  Every job runs in a fresh
child process that imports finspec from src (so no lru_cache carries
over between jobs), one child at a time.  --seconds fixes how much work
the run does, through each workload's nominal cost; the seed fixes the
inputs.  Outputs are checked against finbench/oracle.py.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same jobs
untraced and then traced, and prints the per-layer metrics together with
the tracing overhead (traced minus untraced timed wall time).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
'''

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / 'child.py'
RESULTS = HERE / 'results'

# a run ends within this many seconds or fails without a result
RUN_LIMIT_S = 170
# setup_s is a median over at least this many children; sweeps add
# children that only set up
MIN_SETUPS = 15

END_TO_END = (
    ('setup_s', 's', 'lower'),
    ('items_per_s', '1/s', 'higher'),
    ('peak_rss_mb', 'MB', 'lower'),
    ('item_ms.p50', 'ms', 'lower'),
    ('item_ms.p90', 'ms', 'lower'),
)

PER_LAYER = (
    ('cli.import_s', 's', 'lower'),
    ('cli.main.calls', 'count', 'lower'),
    ('cli.main.self_s', 's', 'lower'),
    ('fileio.parse.calls', 'count', 'lower'),
    ('fileio.parse.s', 's', 'lower'),
    ('fileio.write.s', 's', 'lower'),
    ('enumeration.enumerate_posets.s', 's', 'lower'),
    ('enumeration.posets', 'count', 'lower'),
    ('kernels.unlabeled_reps.s', 's', 'lower'),
    ('kernels.canonical_key.calls', 'count', 'lower'),
    ('kernels.canonical_key.s', 's', 'lower'),
    ('kernels.distributive_witness.calls', 'count', 'lower'),
    ('kernels.distributive_witness.s', 's', 'lower'),
    ('kernels.implication_index.calls', 'count', 'lower'),
    ('kernels.implication_index.s', 's', 'lower'),
    ('kernels.downset_masks.calls', 'count', 'lower'),
    ('kernels.downset_masks.s', 's', 'lower'),
    ('kernels.pseudocomplement_vector.calls', 'count', 'lower'),
    ('kernels.prime_element_mask.calls', 'count', 'lower'),
    ('kernels.transitive_closure.calls', 'count', 'lower'),
    ('lattice.construct.calls', 'count', 'lower'),
    ('lattice.construct.s', 's', 'lower'),
    ('lattice.is_distributive.s', 's', 'lower'),
    ('lattice.is_heyting.s', 's', 'lower'),
    ('lattice.is_stone.s', 's', 'lower'),
    ('lattice.is_pseudocomplemented.s', 's', 'lower'),
    ('lattice.is_boolean.s', 's', 'lower'),
    ('lattice.implication.calls', 'count', 'lower'),
    ('lattice.join.calls', 'count', 'lower'),
    ('lattice.meet.calls', 'count', 'lower'),
    ('lattice.prime_ideals.calls', 'count', 'lower'),
    ('lattice.prime_ideals.s', 's', 'lower'),
    ('poset.construct.calls', 'count', 'lower'),
    ('poset.order_predicates.s', 's', 'lower'),
    ('poset.patch_neighborhood_mask.calls', 'count', 'lower'),
    ('poset.induced.calls', 'count', 'lower'),
    ('duality.downset_lattice.calls', 'count', 'lower'),
    ('duality.downset_lattice.s', 's', 'lower'),
    ('duality.downset_lattice.hits', 'count', 'higher'),
    ('duality.downset_lattice.misses', 'count', 'lower'),
    ('duality.qccl_lattice.calls', 'count', 'lower'),
    ('duality.qccl_lattice.s', 's', 'lower'),
    ('duality.spec_poset.s', 's', 'lower'),
    ('duality.stone_roundtrip.s', 's', 'lower'),
    ('duality.poset_roundtrip.s', 's', 'lower'),
    ('reports.classify.s', 's', 'lower'),
    ('reports.pc-space.self_s', 's', 'lower'),
    ('reports.stone.self_s', 's', 'lower'),
    ('reports.qccl-stone.self_s', 's', 'lower'),
    ('reports.heyting.self_s', 's', 'lower'),
    ('reports.root-forest.self_s', 's', 'lower'),
    ('reports.collapse-min.self_s', 's', 'lower'),
    ('reports.collapse-max.self_s', 's', 'lower'),
    ('reports.cache.hits', 'count', 'higher'),
    ('reports.cache.misses', 'count', 'lower'),
    ('reports.sweep.self_s', 's', 'lower'),
    ('trace.overhead_s', 's', 'lower'),
)

_SPAN_FIELDS = {'calls': 0, 's': 1, 'self_s': 2}


class RunError(Exception):
    'The run cannot produce a result.'


def _schedule(jobs, probes):
    'Jobs in order, with the set-up-only probes (None) spread between them.'
    out = []
    per_job = -(-probes // len(jobs))
    for job in jobs:
        take = min(per_job, probes)
        out += [None] * take
        probes -= take
        out.append(job)
    return out


def run_pass(jobs, workdir, trace, probes, deadline):
    'Run every job (and probe) in its own child; (job, result) pairs.'
    env = dict(os.environ, PYTHONPATH=str(ROOT / 'src'))
    # let the first child cache finspec's bytecode, as an installed copy
    # has it, so set-up is the same whatever the caller's environment
    env.pop('PYTHONDONTWRITEBYTECODE', None)
    spans = workdir / 'spans'
    if trace:
        spans.mkdir(parents=True, exist_ok=True)
    out = []
    for index, job in enumerate(_schedule(jobs, probes)):
        payload = json.dumps({'ops': [] if job is None else job.ops, 'trace': trace,
                              'spans_path': str(spans / ('%03d.bin' % index))})
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RunError('run exceeded %d s' % RUN_LIMIT_S)
        try:
            proc = subprocess.run([sys.executable, '-S', str(CHILD)],
                                  input=payload, capture_output=True, text=True,
                                  env=env, cwd=str(ROOT), timeout=remaining)
        except subprocess.TimeoutExpired:
            raise RunError('run exceeded %d s' % RUN_LIMIT_S) from None
        if proc.returncode != 0:
            sys.stderr.write('child %d exited %d:\n%s' % (index, proc.returncode,
                                                          proc.stderr[-2000:]))
            out.append((job, None))
            continue
        out.append((job, json.loads(proc.stdout.splitlines()[-1])))
    return out


def check_pass(workload, pairs):
    'attempted, failed and the output problems of the jobs that did not fail.'
    attempted = failed = 0
    problems = []
    for job, result in pairs:
        if job is None:
            continue
        attempted += job.items
        if result is None:
            failed += job.items
            continue
        ok, found = workload.check(job, result['outputs'])
        if ok:
            problems += found
        else:
            failed += job.items
            for line in found:
                sys.stderr.write('failed: %s\n' % line)
    return attempted, failed, problems


def end_to_end(pairs):
    done = [(job, result) for job, result in pairs if result is not None]
    work = [(job, result) for job, result in done if job is not None]
    if not work:
        raise RunError('no job finished')
    latencies = [1000.0 * result['item_s'] / job.items for job, result in work]
    return {
        'setup_s': statistics.median(result['setup_s'] for _, result in done),
        'items_per_s': (sum(job.items for job, _ in work)
                        / sum(result['item_s'] for _, result in work)),
        'peak_rss_mb': max(result['maxrss_mb'] for _, result in done),
        'item_ms.p50': statistics.median(latencies),
        'item_ms.p90': (statistics.quantiles(latencies, n=10, method='inclusive')[8]
                        if len(latencies) > 1 else latencies[0]),
    }


def per_layer(traced, untraced):
    done = [result for job, result in traced if result is not None]
    if not done:
        raise RunError('no traced job finished')
    totals, counters = {}, {}
    for result in done:
        for name, values in result['spans'].items():
            into = totals.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                into[k] += values[k]
        for name, value in result['counters'].items():
            counters[name] = counters.get(name, 0) + value
    timed = lambda pairs: sum(r['item_s'] for j, r in pairs if r is not None and j)
    out = {}
    for name, _, _ in PER_LAYER:
        base, _, field = name.rpartition('.')
        if name == 'cli.import_s':
            out[name] = statistics.median(result['import_s'] for result in done)
        elif name == 'trace.overhead_s':
            out[name] = timed(traced) - timed(untraced)
        elif field in _SPAN_FIELDS:
            out[name] = totals.get(base, [0, 0.0, 0.0])[_SPAN_FIELDS[field]]
        else:
            out[name] = counters.get(name, 0)
    return out


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload', required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=int, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        sys.stderr.write('finbench: --seconds must be at least 1\n')
        return 2
    if not (ROOT / 'src' / 'finspec' / 'cli.py').is_file():
        sys.stderr.write('finbench: no finspec sources under %s\n' % (ROOT / 'src'))
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = workloads.WORKLOADS[args.workload]
    workdir = RESULTS / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs = workload.jobs(args.seed, args.seconds, workdir)

    try:
        untraced = run_pass(jobs, workdir, False, max(0, MIN_SETUPS - len(jobs)), deadline)
        passes = [untraced]
        if args.trace:
            traced = run_pass(jobs, workdir, True, 0, deadline)
            passes.append(traced)
            metrics = per_layer(traced, untraced)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics = end_to_end(untraced)
            units = {name: unit for name, unit, _ in END_TO_END}
    except RunError as exc:
        sys.stderr.write('finbench: %s\n' % exc)
        return 3

    attempted = failed = 0
    problems = []
    for pairs in passes:
        got = check_pass(workload, pairs)
        attempted += got[0]
        failed += got[1]
        problems += got[2]
    for line in problems[:20]:
        sys.stderr.write('wrong output: %s\n' % line)
    lanes = sorted({r['lane'] for pairs in passes for _, r in pairs if r is not None})

    print('workload %s, seed %d, %d jobs, lane %s'
          % (args.workload, args.seed, len(jobs), '/'.join(lanes)))
    print('attempted %d, failed %d, output problems %d' % (attempted, failed, len(problems)))
    for name, value in metrics.items():
        print('  %-40s %14.6f %s' % (name, value, units[name]))
    print(json.dumps({
        'correct': not problems, 'attempted': attempted, 'failed': failed,
        'metrics': {name: {'value': value, 'unit': units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())
