'''One benchmark child: set up, run one job's operations, report as JSON.

    python3 -S child.py < job.json

The job on stdin lists the operations and whether to trace.  finspec is
imported from PYTHONPATH, which the parent points at the checkout's src.
The last line on stdout is the result.

Every time reported is CPU time of this process (time.process_time).
The kernel leaves out of it the time the hypervisor or another process
held the CPU, so on a shared host it measures the work, not the
scheduler.  The child is single-threaded and waits only on small file
reads, so on an idle host its CPU time and its wall time agree.
'''

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def run_op(op, cli, duality, fileio, errors):
    'Exit code and output of one operation; a crash is recorded, not raised.'
    try:
        if 'cli' in op:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(op['cli'])
                except SystemExit as exc:
                    code = exc.code
            return {'code': code, 'out': out.getvalue()}
        structure = fileio.read_path(op['path'])
        if op['api'] == 'poset_roundtrip':
            return {'code': 0, 'out': duality.poset_roundtrip(structure)}
        if not hasattr(structure, 'is_distributive'):
            structure = duality.downset_lattice(structure)
        return {'code': 0, 'out': duality.stone_roundtrip(structure) is not None}
    except errors.ToolkitError as exc:
        return {'code': -1, 'error': repr(exc)}
    except Exception:
        return {'code': -2, 'error': traceback.format_exc()}


def main():
    job = json.loads(sys.stdin.read())
    started = time.process_time()
    import finspec.cli
    import_s = time.process_time() - started
    from finspec import backend, duality, errors, fileio

    tracer = caches = None
    if job['trace']:
        import tracing
        tracer = tracing.Tracer()
        caches = tracing.install(tracer)

    # CPU time since the process started: interpreter start and imports
    setup_s = time.process_time()
    outputs = []
    started = time.process_time()
    for op in job['ops']:
        outputs.append(run_op(op, finspec.cli, duality, fileio, errors))
    item_s = time.process_time() - started

    result = {
        'lane': backend(), 'setup_s': setup_s, 'import_s': import_s,
        'item_s': item_s, 'outputs': outputs,
        'maxrss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result['spans'] = tracer.totals()
        result['counters'] = dict(tracer.counters, **tracing.cache_counts(caches))
        tracer.write(job['spans_path'])
    sys.stdout.write(json.dumps(result) + '\n')


if __name__ == '__main__':
    main()
