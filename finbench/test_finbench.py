'''Tests of the benchmark's oracle, checks and tracing.

    python3 -m pytest -q finbench

The closed forms are checked against brute force on sets of pairs, which
shares no code with oracle.py's bitmask routines.
'''

import json
import subprocess
import sys
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path

import pytest

import oracle
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# brute force on sets of pairs


def labeled_orders(n):
    'Every partial order on n points, as a frozenset of (i, j) with i <= j.'
    strict = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for r in range(len(strict) + 1):
        for chosen in combinations(strict, r):
            rel = {(i, i) for i in range(n)} | set(chosen)
            if any((j, i) in rel for i, j in chosen):
                continue
            if all((i, l) in rel for i, j in rel for k, l in rel if j == k):
                out.append(frozenset(rel))
    return out


def up(rel, x):
    return {y for a, y in rel if a == x}


def down(rel, x):
    return {y for y, b in rel if b == x}


def is_chain(rel, points):
    return all((a, b) in rel or (b, a) in rel for a in points for b in points)


def pair_flags(n, rel):
    'The ten profile flags, by definition on the pairs and on down-set families.'
    minimal = [x for x in range(n) if down(rel, x) == {x}]
    maximal = [x for x in range(n) if up(rel, x) == {x}]
    comps = []
    for x in range(n):
        comp = {x}
        while True:
            grown = comp | {y for a, y in rel if a in comp} | {y for y, b in rel if b in comp}
            if grown == comp:
                break
            comp = grown
        if comp not in comps:
            comps.append(comp)
    points = frozenset(range(n))
    opens = [frozenset(s) for r in range(n + 1) for s in combinations(range(n), r)
             if all(down(rel, x) <= set(s) for x in s)]

    def greatest(family):
        best = [x for x in family if all(y <= x for y in family)]
        return best[0] if best else None

    pcs = {a: greatest([x for x in opens if not a & x]) for a in opens}
    pc_ok = all(p is not None for p in pcs.values())
    return {
        'root_system': all(is_chain(rel, up(rel, x)) for x in range(n)),
        'forest': all(is_chain(rel, down(rel, x)) for x in range(n)),
        'stranded': all(is_chain(rel, comp) for comp in comps),
        'confluent': all(down(rel, y) & down(rel, z)
                         for x in range(n) for y in down(rel, x) for z in down(rel, x)),
        'inv_normal': all(len(down(rel, x) & set(minimal)) == 1 for x in range(n)),
        'normal': all(len(up(rel, x) & set(maximal)) == 1 for x in range(n)),
        'pseudocomplemented': pc_ok,
        'stone': pc_ok and all(pcs[a] | pcs[pcs[a]] == points for a in opens),
        'heyting': all(greatest([x for x in opens if a & x <= b]) is not None
                       for a in opens for b in opens),
        'boolean': all(any(not a & b and a | b == points for b in opens) for a in opens),
    }


def canonical_pairs(n, rel):
    return min(tuple(sorted((p[i], p[j]) for i, j in rel)) for p in permutations(range(n)))


def rows_of(n, rel):
    return tuple(sum(1 << j for i2, j in rel if i2 == i) for i in range(n))


@pytest.mark.parametrize('n', range(5))
def test_class_counts_match_brute_force(n):
    orders = labeled_orders(n)
    flags = [pair_flags(n, rel) for rel in orders]
    classes = {}
    for rel, got in zip(orders, flags):
        classes.setdefault(canonical_pairs(n, rel), got)
    for mode, seen in (('labeled', flags), ('unlabeled', list(classes.values()))):
        assert len(seen) == oracle.POSETS[mode][n]
        counted = {flag: sum(1 for f in seen if f[flag]) for flag in oracle.FLAGS}
        assert counted == oracle.class_counts(mode, 4)[n], mode


@pytest.mark.parametrize('n', range(5))
def test_profile_matches_brute_force(n):
    for rel in labeled_orders(n):
        rows = rows_of(n, rel)
        assert oracle.closure(n, list(rel)) == rows
        assert oracle.profile(rows) == pair_flags(n, rel)
        assert len(oracle.downsets(rows)) == sum(
            1 for r in range(n + 1) for s in combinations(range(n), r)
            if all(down(rel, x) <= set(s) for x in s))


def test_transforms_give_published_terms():
    unl = oracle.class_counts('unlabeled', 8)
    lab = oracle.class_counts('labeled', 7)
    assert [c['forest'] for c in unl] == [1, 1, 2, 4, 9, 20, 48, 115, 286]   # A000081(n+1)
    assert [c['stranded'] for c in unl] == [1, 1, 2, 3, 5, 7, 11, 15, 22]    # partitions
    assert [c['stranded'] for c in lab] == [1, 1, 3, 13, 73, 501, 4051, 37633]  # A000262
    assert [c['forest'] for c in lab] == [1, 1, 3, 16, 125, 1296, 16807, 262144]
    with pytest.raises(ValueError):
        oracle.class_counts('labeled', 8)


def test_scan_lattice_on_m3_and_n5():
    for rows, distributive in ((workloads.M3, False), (workloads.N5, False),
                               (workloads.B2, True)):
        lat = oracle.ScanLattice(rows)
        assert lat.flags()['distributive'] is distributive
    assert oracle.ScanLattice(workloads.M3).prime_ideal_count() == 0
    assert oracle.ScanLattice(workloads.B2).prime_ideal_count() == 2


# ----------------------------------------------------------------------
# checks reject wrong output


def _sweep_payload(mode, max_points):
    'A right sweep payload, built from brute force.'
    rows, firsts = [], {}
    for n in range(max_points + 1):
        orders = labeled_orders(n)
        if mode == 'unlabeled':
            orders = list({canonical_pairs(n, rel): rel for rel in orders}.values())
        classes = {flag: 0 for flag in oracle.FLAGS}
        for rel in orders:
            for flag, holds in pair_flags(n, rel).items():
                classes[flag] += holds
                if not holds and flag not in firsts:
                    covers = sorted(oracle.covers(rows_of(n, rel)))
                    firsts[flag] = {'flag': flag, 'n': n, 'index': 0,
                                    'covers': [list(c) for c in covers]}
        rows.append({'n': n, 'count': len(orders), 'disagreements': 0,
                     'classes': classes})
    return {'schema': 1, 'command': 'sweep', 'mode': mode, 'max_points': max_points,
            'rows': rows, 'theorem_disagreements': {t: 0 for t in oracle.THEOREMS},
            'first_failures': sorted(firsts.values(), key=lambda f: f['flag']),
            'totals': {'posets': sum(r['count'] for r in rows), 'disagreements': 0}}


@pytest.mark.parametrize('mode', ['unlabeled', 'labeled'])
def test_sweep_check_accepts_right_and_rejects_wrong(mode):
    good = _sweep_payload(mode, 4)
    assert workloads.check_sweep(good, mode, 4) == []

    def tampered(edit):
        bad = json.loads(json.dumps(good))
        edit(bad)
        return workloads.check_sweep(bad, mode, 4)

    assert tampered(lambda p: p['rows'][4]['classes'].__setitem__('stone', 1))
    assert tampered(lambda p: p['rows'][3].__setitem__('count', 4))
    assert tampered(lambda p: p['theorem_disagreements'].__setitem__('stone', 1))
    assert tampered(lambda p: p['first_failures'].pop())
    # a "counterexample" to boolean that is the antichain, hence boolean
    assert tampered(lambda p: next(f for f in p['first_failures']
                                   if f['flag'] == 'boolean').__setitem__('covers', []))


def _v_shape_outputs(path):
    'Right outputs of the pc-table and dot operations on two points under a top.'
    n, pairs = 3, [(0, 2), (1, 2)]
    rows = oracle.closure(n, pairs)
    below = oracle.columns(rows)
    downs = oracle.downsets(rows)
    labels = ['{%s}' % ','.join(str(x) for x in range(n) if d >> x & 1) for d in downs]
    full = (1 << n) - 1
    index = {d: i for i, d in enumerate(downs)}
    pcs = [index[oracle.interior(below, full & ~d)] for d in downs]
    imps = [[index[oracle.interior(below, (full & ~a) | b)] for b in downs] for a in downs]
    table = {'schema': 1, 'elements': labels, 'pseudocomplement': pcs, 'implication': imps}
    dot = 'digraph finspec {\n  rankdir=BT;\n%s%s}\n' % (
        ''.join('  %d [label="%d"];\n' % (x, x) for x in range(n)),
        ''.join('  %d -> %d;\n' % pair for pair in pairs))
    ops = [{'cli': ['pc-table', path, '--json']}, {'cli': ['dot', path]}]
    spec = {'kind': 'poset', 'n': n, 'pairs': pairs, 'rows': rows}
    return ops, [{'code': 0, 'out': json.dumps(table)}, {'code': 0, 'out': dot}], spec


def test_structure_check_rejects_wrong_tables():
    ops, outputs, spec = _v_shape_outputs('v.txt')
    assert workloads.check_structure(ops, outputs, spec) == []
    table = json.loads(outputs[0]['out'])
    table['pseudocomplement'][0] = table['pseudocomplement'][1]
    wrong = [{'code': 0, 'out': json.dumps(table)}, outputs[1]]
    assert workloads.check_structure(ops, wrong, spec)
    no_edge = [outputs[0], {'code': 0, 'out': outputs[1]['out'].replace('  1 -> 2;\n', '')}]
    assert workloads.check_structure(ops, no_edge, spec)


def test_structures_batch_is_fixed_by_the_seed():
    shape = workloads.WORKLOADS['structures']
    first, again, other = shape.batch(3, 20), shape.batch(3, 20), shape.batch(4, 20)
    assert first == again
    assert [b[0] for b in first] != [b[0] for b in other]
    assert len(first) == len(other) >= 100
    counts = sorted(len(oracle.downsets(spec['rows'])) for _, _, _, spec in first
                    if spec['kind'] == 'poset')
    per_slot = len(counts) // len(workloads.DOWNSET_COUNTS)
    assert counts == sorted(workloads.DOWNSET_COUNTS * per_slot)


# ----------------------------------------------------------------------
# tracing


def test_tracer_self_time_and_spans(tmp_path):
    tracer = tracing.Tracer()
    calls = []

    @lru_cache(maxsize=None)
    def leaf(x):
        calls.append(x)
        return x * 2

    traced_leaf = tracer.wrap('leaf', leaf)
    outer = tracer.wrap('outer', lambda xs: [traced_leaf(x) for x in xs])
    assert outer([1, 2, 1]) == [2, 4, 2]
    assert calls == [1, 2]
    assert leaf.cache_info().hits == 1
    totals = tracer.totals()
    assert totals['outer'][0] == 1 and totals['leaf'][0] == 3
    assert totals['outer'][2] <= totals['outer'][1] - totals['leaf'][1] + 1e-9
    tracer.write(tmp_path / 'spans.bin')
    header, (names, parents, starts, ends) = tracing.read_spans(tmp_path / 'spans.bin')
    assert header['names'] == ['leaf', 'outer'] and header['spans'] == 4
    assert list(parents) == [-1, 0, 0, 0]
    assert all(e >= s for s, e in zip(starts, ends))


def test_traced_child_reports_every_layer(tmp_path):
    'A traced child wraps every layer without changing what the CLI prints.'
    job = {'ops': [{'cli': ['check', 'v3', '--json']},
                   {'cli': ['report', 'collapse-max', 'v3', '--json']}],
           'trace': True, 'spans_path': str(tmp_path / 'spans.bin')}
    proc = subprocess.run([sys.executable, str(HERE / 'child.py')],
                          input=json.dumps(job), capture_output=True, text=True,
                          env={'PYTHONPATH': str(HERE.parent / 'src')}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert [out['code'] for out in result['outputs']] == [0, 0]
    assert json.loads(result['outputs'][0]['out'])['profile']['stone'] is False
    spans = result['spans']
    assert spans['cli.main'][0] == 2
    assert spans['reports.classify'][0] == 1
    assert spans['reports.collapse-max'][0] == 1
    assert spans['reports.collapse-min'][0] == 0
    assert result['counters']['reports.cache.misses'] >= 1
    assert (tmp_path / 'spans.bin').stat().st_size > 0


# ----------------------------------------------------------------------
# the benchmark description


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((HERE.parent / 'BENCHMARK.json').read_text())
    assert [w['name'] for w in spec['workloads']] == list(workloads.WORKLOADS)
    assert [(m['name'], m['unit'], m['better']) for m in spec['end_to_end']] \
        == list(run.END_TO_END)
    assert [(m['name'], m['unit'], m['better']) for m in spec['per_layer']] \
        == list(run.PER_LAYER)
