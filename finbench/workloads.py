'''The benchmark's workloads: the work each run does and how outputs are checked.

A workload turns (seed, seconds) into a list of jobs.  One job runs in
one fresh child process and finishes `items` items; its operations are
either finspec CLI invocations or calls into finspec.duality.  The
amount of work is fixed by the arguments alone, never by how much fits
in the time, so two runs with the same arguments do the same work.

Every check compares against finbench.oracle or a property the method
must have, never against stored output.
'''

import json
import random

import oracle

REPORTS = oracle.THEOREMS

# exit codes of an operation that ran to its end: 0, or 1 when finspec
# reports a disagreement, which the checks then count as a wrong output
FINISHED = (0, 1)


class Job:
    'Operations for one child and the number of items they finish.'

    def __init__(self, ops, items, expect=None):
        self.ops = ops
        self.items = items
        self.expect = expect


# ----------------------------------------------------------------------
# sweeps


def check_sweep(payload, mode, max_points):
    'Problems with a `finspec sweep --json` payload; empty when it is right.'
    problems = []
    counts = oracle.POSETS[mode]
    expect = oracle.class_counts(mode, max_points)
    head = (payload.get('schema'), payload.get('command'), payload.get('mode'),
            payload.get('max_points'))
    if head != (1, 'sweep', mode, max_points):
        problems.append('sweep header is %r' % (head,))
    rows = payload.get('rows', [])
    if [row.get('n') for row in rows] != list(range(max_points + 1)):
        return problems + ['sweep rows are not n = 0..%d' % max_points]
    for row in rows:
        n = row['n']
        if row['count'] != counts[n]:
            problems.append('n=%d: %d posets, published count %d'
                            % (n, row['count'], counts[n]))
        if row['disagreements'] != 0:
            problems.append('n=%d: %d disagreements' % (n, row['disagreements']))
        if row['classes'] != expect[n]:
            problems.append('n=%d: classes %r, closed forms %r'
                            % (n, row['classes'], expect[n]))
    if payload.get('theorem_disagreements') != {t: 0 for t in REPORTS}:
        problems.append('theorem disagreements %r' % payload.get('theorem_disagreements'))
    total = sum(counts[:max_points + 1])
    if payload.get('totals') != {'posets': total, 'disagreements': 0}:
        problems.append('totals %r, expected %d posets' % (payload.get('totals'), total))

    first_n = {}
    for n in range(max_points + 1):
        for flag in oracle.FLAGS:
            if expect[n][flag] < counts[n] and flag not in first_n:
                first_n[flag] = n
    failures = {item['flag']: item for item in payload.get('first_failures', [])}
    if set(failures) != set(first_n):
        problems.append('first failures for %s, expected %s'
                        % (sorted(failures), sorted(first_n)))
    for flag, item in failures.items():
        n = item['n']
        if n != first_n.get(flag) or not 0 <= item['index'] < counts[n]:
            problems.append('first %s failure at n=%d #%d' % (flag, n, item['index']))
            continue
        pairs = [tuple(pair) for pair in item['covers']]
        rows = oracle.closure(n, pairs)
        if rows is None or oracle.covers(rows) != set(pairs):
            problems.append('first %s failure: %r are not covers' % (flag, pairs))
        elif oracle.profile(rows)[flag]:
            problems.append('first %s failure %r has the flag' % (flag, pairs))
    return problems


class Sweep:
    'Repeated `finspec sweep`: one sweep per child, the same sweep every time.'

    def __init__(self, max_points, mode, nominal_s):
        self.max_points = max_points
        self.mode = mode
        # seconds one sweep took on the pure lane when the benchmark was
        # written; it only turns --seconds into a fixed number of rounds
        self.nominal_s = nominal_s

    def jobs(self, seed, seconds, workdir):
        rounds = max(1, round(seconds / self.nominal_s))
        argv = ['sweep', str(self.max_points), '--mode', self.mode,
                '--jobs', '1', '--json']
        posets = sum(oracle.POSETS[self.mode][:self.max_points + 1])
        return [Job([{'cli': argv}], posets) for _ in range(rounds)]

    def check(self, job, outputs):
        (out,) = outputs
        if out['code'] not in FINISHED:
            return False, ['sweep exited %r: %s' % (out['code'], out.get('error', ''))]
        problems = check_sweep(json.loads(out['out']), self.mode, self.max_points)
        return True, problems + ['sweep exited 1'] * (out['code'] == 1)


# ----------------------------------------------------------------------
# a fixed batch of structures

# every poset's down-set count is one of these; item cost grows about as
# the cube of the count, so fixing the counts keeps the mix of costs the
# same whatever the seed.  Each count is common among random orders on
# every number of POINTS.
DOWNSET_COUNTS = tuple(range(16, 65, 4))
POINTS = (7, 8, 9)

_CHAIN = lambda k: tuple(sum(1 << j for j in range(i, k)) for i in range(k))
M3 = oracle.closure(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
N5 = oracle.closure(5, [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)])
B2 = oracle.product_order(_CHAIN(2), _CHAIN(2))
LATTICE_FACTORS = (('m3', M3), ('n5', N5), ('c3', _CHAIN(3)), ('b2', B2))
CHAIN_FACTORS = (2, 3)

# inputs that must exit 2; they do not depend on the seed
MALFORMED = (
    ('json-bool-size', 'json', '{"kind": "poset", "size": true, "less_than": []}'),
    ('json-pair-out-of-range', 'json',
     '{"kind": "poset", "size": 2, "less_than": [[0, 2]]}'),
    ('text-cycle', 'text', 'poset 3\n0 < 1\n1 < 2\n2 < 0\n'),
    ('text-lattice-no-bottom', 'text', 'lattice 4\n0 < 2\n0 < 3\n1 < 2\n1 < 3\n'),
    ('text-bad-header', 'text', 'poset three\n'),
)


def random_posets(rng, per_slot):
    '''per_slot posets for every (down-set count, points) slot.

    The slots are DOWNSET_COUNTS times POINTS; cost depends on both.
    Random orders are drawn from random DAGs and kept when their slot,
    decided by a subset scan, still has room, so the seed picks the
    orders but not the counts.
    '''
    room = {(count, n): per_slot for count in DOWNSET_COUNTS for n in POINTS}
    out = []
    while room:
        n = rng.choice(sorted({n for _, n in room}))
        density = rng.uniform(0.05, 0.45)
        perm = rng.sample(range(n), n)
        pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density]
        rows = oracle.closure(n, pairs)
        slot = (len(oracle.downsets(rows)), n)
        if slot in room:
            room[slot] -= 1
            if not room[slot]:
                del room[slot]
            out.append((n, sorted(oracle.covers(rows)), rows))
    return out


def random_lattices(rng, count):
    '''count lattices, each randomly renumbered.

    They cycle through M3, N5 and every product of a factor in
    LATTICE_FACTORS with a chain in CHAIN_FACTORS, so which lattices run
    does not depend on the seed; only their numbering does.
    '''
    kinds = [('m3', M3), ('n5', N5)] + [
        ('%s*c%d' % (name, k), oracle.product_order(factor, _CHAIN(k)))
        for name, factor in LATTICE_FACTORS for k in CHAIN_FACTORS]
    out = []
    for index in range(count):
        name, rows = kinds[index % len(kinds)]
        perm = rng.sample(range(len(rows)), len(rows))
        rows = oracle.relabel(rows, perm)
        out.append((name, len(rows), sorted(oracle.covers(rows)), rows))
    return out


def _text(kind, n, pairs, rows=None):
    lines = ['%s %d' % (kind, n)] + ['%d < %d' % pair for pair in pairs]
    if rows is not None:
        lat = oracle.ScanLattice(rows)
        lines += ['bottom %d' % lat.bottom, 'top %d' % lat.top]
    return '\n'.join(lines) + '\n'


def _json(kind, n, pairs):
    return json.dumps({'kind': kind, 'size': n, 'less_than': [list(p) for p in pairs]})


class Structures:
    '''A fixed batch of posets, lattices and malformed inputs, one per child.

    Per second asked for, slots_per_s posets in each (down-set count,
    points) slot and lattices_per_s lattices given directly; then every
    MALFORMED input.  Inputs alternate between the text and the JSON
    format.
    '''

    def __init__(self, slots_per_s, lattices_per_s):
        self.slots_per_s = slots_per_s
        self.lattices_per_s = lattices_per_s

    def batch(self, seed, seconds):
        'List of (name, format, text, spec) in the order they run.'
        rng = random.Random(seed)
        per_slot = max(1, round(seconds * self.slots_per_s))
        lattices = max(2, round(seconds * self.lattices_per_s))
        items = []
        for n, pairs, rows in random_posets(rng, per_slot):
            items.append(('poset%d' % n, {'kind': 'poset', 'n': n, 'pairs': pairs,
                                         'rows': rows}))
        for name, n, pairs, rows in random_lattices(rng, lattices):
            items.append((name, {'kind': 'lattice', 'n': n, 'pairs': pairs,
                                 'rows': rows}))
        rng.shuffle(items)
        out = []
        for index, (name, spec) in enumerate(items):
            fmt = ('text', 'json')[index % 2]
            if fmt == 'text':
                text = _text(spec['kind'], spec['n'], spec['pairs'],
                             spec['rows'] if spec['kind'] == 'lattice' and index % 4 == 0
                             else None)
            else:
                text = _json(spec['kind'], spec['n'], spec['pairs'])
            out.append((name, fmt, text, spec))
        for name, fmt, text in MALFORMED:
            out.append((name, fmt, text, {'kind': 'malformed'}))
        return out

    def jobs(self, seed, seconds, workdir):
        inputs = workdir / 'inputs'
        inputs.mkdir(parents=True, exist_ok=True)
        jobs = []
        for index, (name, fmt, text, spec) in enumerate(self.batch(seed, seconds)):
            path = inputs / ('%03d-%s.%s' % (index, name.replace('*', 'x'),
                                               'json' if fmt == 'json' else 'txt'))
            path.write_text(text)
            jobs.append(Job(_structure_ops(str(path), spec['kind']), 1, spec))
        return jobs

    def check(self, job, outputs):
        spec = job.expect
        codes = [out['code'] for out in outputs]
        if spec['kind'] == 'malformed':
            finished = codes == [2]
        else:
            finished = all(code in FINISHED for code in codes)
        if not finished:
            errors = [out['error'] for out in outputs if 'error' in out]
            return False, ['%s: exit codes %r %s' % (job.ops[0]['cli'][1], codes, errors)]
        if spec['kind'] == 'malformed':
            return True, []
        exited_1 = ['%s exited 1' % ' '.join(op['cli'][:2])
                    for op, code in zip(job.ops, codes) if code == 1]
        return True, check_structure(job.ops, outputs, spec) + exited_1


def _structure_ops(path, kind):
    if kind == 'malformed':
        return [{'cli': ['check', path, '--json']}]
    ops = [{'cli': ['check', path, '--json']}]
    if kind == 'poset':
        ops += [{'cli': ['report', theorem, path, '--json']} for theorem in REPORTS]
    ops += [{'cli': ['pc-table', path, '--json']}, {'cli': ['spec', path, '--json']}]
    if kind == 'poset':
        ops.append({'cli': ['downsets', path, '--json']})
    ops.append({'cli': ['dot', path]})
    if kind == 'poset':
        ops.append({'api': 'poset_roundtrip', 'path': path})
    ops.append({'api': 'stone_roundtrip', 'path': path})
    return ops


# ----------------------------------------------------------------------
# structure output checks


def check_structure(ops, outputs, spec):
    'Problems with the outputs of one poset or lattice item.'
    problems = []
    rows = spec['rows']
    n = spec['n']
    if spec['kind'] == 'poset':
        want = _poset_facts(rows)
    else:
        want = _lattice_facts(rows)
    for op, out in zip(ops, outputs):
        if 'api' in op:
            name = op['api']
            got = out['out']
            if name == 'poset_roundtrip' and got is not True:
                problems.append('poset_roundtrip gave %r' % (got,))
            if name == 'stone_roundtrip' and got != want['distributive']:
                problems.append('stone_roundtrip isomorphism %r, distributive %r'
                                % (got, want['distributive']))
            continue
        command = op['cli'][0]
        text = out['out']
        label = ' '.join(op['cli'][:2])
        if command == 'dot':
            problems += ['%s: %s' % (label, p) for p in _check_dot(text, n, rows)]
            continue
        payload = json.loads(text)
        if payload.get('schema') != 1:
            problems.append('%s: schema %r' % (label, payload.get('schema')))
        if command == 'check':
            if payload['kind'] != spec['kind'] or payload['size'] != n \
                    or payload['profile'] != want['profile']:
                problems.append('check: %r, expected %r' % (payload, want['profile']))
        elif command == 'report':
            problems += ['report %s: %s' % (op['cli'][1], p)
                         for p in _check_report(op['cli'][1], payload, want)]
        elif command == 'pc-table':
            problems += ['pc-table: %s' % p for p in _check_pc_table(payload, spec, want)]
        elif command == 'spec':
            if (payload['kind'], payload['size']) != ('poset', want['primes']):
                problems.append('spec: %s of size %r, expected %d prime ideals'
                                % (payload['kind'], payload['size'], want['primes']))
        elif command == 'downsets':
            got = (payload['kind'], payload['size'], len(payload['less_than']))
            expect = ('lattice', len(want['downsets']), want['downset_covers'])
            if got != expect:
                problems.append('downsets: %r, expected %r' % (got, expect))
    return problems


def _poset_facts(rows):
    full = (1 << len(rows)) - 1
    downs = oracle.downsets(rows)
    known = set(downs)
    dual = oracle.columns(rows)
    return {
        'profile': oracle.profile(rows),
        'distributive': True,
        'downsets': downs,
        'downset_covers': sum(1 for d in downs for x in range(len(rows))
                              if not d >> x & 1 and d | 1 << x in known),
        'primes': len(rows),
        'antichain': oracle.is_antichain(rows),
        'upsets_stone': oracle.open_set_flags(dual)['stone'],
        'full': full,
    }


def _lattice_facts(rows):
    lat = oracle.ScanLattice(rows)
    flags = lat.flags()
    return {'profile': flags, 'distributive': flags['distributive'],
            'primes': lat.prime_ideal_count(), 'lattice': lat}


def _check_report(theorem, payload, want):
    problems = []
    hyps = {h['name']: h['holds'] for h in payload['hypotheses']}
    applicable = {c['holds'] for c in payload['conditions']
                  if hyps.get(c['group'], True)}
    if payload['hypothesis_satisfied'] != all(hyps.values()):
        problems.append('hypothesis_satisfied does not match %r' % hyps)
    if payload['agreement'] != (len(applicable) <= 1):
        problems.append('agreement flag does not match the conditions')
    if payload['hypothesis_satisfied'] and not payload['agreement']:
        problems.append('conditions disagree under satisfied hypotheses')
    verdicts = {c['label']: c['holds'] for c in payload['conditions']}
    profile = want['profile']
    expect = {}
    if theorem == 'pc-space':
        expect = {'lattice_pseudocomplemented': profile['pseudocomplemented']}
    elif theorem == 'stone':
        expect = {'lattice_stone': profile['stone'], 'confluent': profile['confluent'],
                  'unique_min_below': profile['inv_normal']}
    elif theorem == 'qccl-stone':
        expect = {'upset_lattice_stone': want['upsets_stone']}
    elif theorem == 'heyting':
        expect = {'lattice_heyting': profile['heyting']}
    for label, value in expect.items():
        if verdicts.get(label) != value:
            problems.append('%s is %r, oracle %r' % (label, verdicts.get(label), value))
    if theorem == 'root-forest':
        if hyps != {'root_side': profile['root_system'], 'forest_side': profile['forest']}:
            problems.append('hypotheses %r' % hyps)
    if theorem.startswith('collapse') and hyps['collapse'] != want['antichain']:
        problems.append('collapse hypothesis %r on antichain=%r'
                        % (hyps['collapse'], want['antichain']))
    return problems


def _check_pc_table(payload, spec, want):
    'Every pseudocomplement and implication against a scan of the order.'
    labels = payload['elements']
    pcs = payload['pseudocomplement']
    imps = payload['implication']
    if spec['kind'] == 'lattice':
        lat = want['lattice']
        r = range(lat.n)
        if [lat.pseudocomplement(a) for a in r] != pcs:
            return ['pseudocomplements %r' % (pcs,)]
        if [[lat.implication(a, b) for b in r] for a in r] != imps:
            return ['implications differ from the scan']
        return []
    below = oracle.columns(spec['rows'])
    masks = [oracle.set_mask(label) for label in labels]
    if sorted(masks) != want['downsets']:
        return ['elements are not the down-sets']
    full = want['full']
    for a, mask in enumerate(masks):
        if pcs[a] is None or masks[pcs[a]] != oracle.interior(below, full & ~mask):
            return ['%s* is not the largest disjoint down-set' % labels[a]]
        for b, other in enumerate(masks):
            got = imps[a][b]
            if got is None or masks[got] != oracle.interior(below, (full & ~mask) | other):
                return ['%s -> %s is not the largest down-set X with %s & X in %s'
                        % (labels[a], labels[b], labels[a], labels[b])]
    return []


def _check_dot(text, n, rows):
    lines = [line.strip() for line in text.splitlines()]
    if not lines or not lines[0].startswith('digraph') or lines[-1] != '}':
        return ['not a digraph']
    nodes = [line for line in lines if '[label=' in line]
    edges = {tuple(int(v) for v in line.rstrip(';').split(' -> '))
             for line in lines if '->' in line}
    problems = []
    if len(nodes) != n:
        problems.append('%d nodes for %d elements' % (len(nodes), n))
    if edges != oracle.covers(rows):
        problems.append('edges are not the covering pairs')
    return problems


WORKLOADS = {
    'sweep-unlabeled': Sweep(6, 'unlabeled', nominal_s=5.0),
    'sweep-labeled': Sweep(5, 'labeled', nominal_s=20.0),
    'structures': Structures(slots_per_s=0.1, lattices_per_s=4.0),
}
