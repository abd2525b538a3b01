'''Spans around calls into finspec's public functions, for the traced run.

Tracer.wrap puts a timing wrapper around one function.  install() puts
wrappers on the module attributes and class methods that callers look
up at call time, so a name imported into another module (reports
imports qccl_lattice and downset_lattice by name) is wrapped there too.
Wrappers sit outside any lru_cache, whose behaviour and counters stay as
they are.

Each call records a span (name, parent span, start, end) in memory; the
spans are written out once, at the end.  Per name the tracer also keeps
the call count, the inclusive time (outermost calls of that name only)
and the self time: the span's duration minus the part its child spans
cover.
'''

import json
import time
from array import array


class Tracer:
    'Spans and per-name totals of one process.'

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array('H')
        self.span_parent = array('i')
        self.span_start = array('d')
        self.span_end = array('d')
        self._stack = []
        self._calls = []
        self._incl = []
        self._self = []
        self._active = []
        self.counters = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for table in (self._calls, self._incl, self._self, self._active):
                table.append(0)
        return self._ids[name]

    def wrap(self, name, fn):
        'fn with a span named name around every call.'
        nid = self._id(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, incl, selft, active = self._calls, self._incl, self._self, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            active[nid] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[nid] -= 1
                starts[index] = t0
                ends[index] = t1
                took = t1 - t0
                calls[nid] += 1
                selft[nid] += took - frame[1]
                if not active[nid]:
                    incl[nid] += took
                if stack:
                    stack[-1][1] += took

        traced.__name__ = getattr(fn, '__name__', name)
        traced.__doc__ = getattr(fn, '__doc__', None)
        traced.__wrapped__ = fn
        return traced

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def totals(self):
        'name -> [calls, inclusive seconds, self seconds].'
        return {name: [self._calls[i], self._incl[i], self._self[i]]
                for i, name in enumerate(self.names)}

    def write(self, path):
        'A JSON header line, then the name, parent, start and end arrays.'
        with open(path, 'wb') as handle:
            header = {'names': self.names, 'spans': len(self.span_start),
                      'arrays': ['name:H', 'parent:i', 'start:d', 'end:d']}
            handle.write(json.dumps(header).encode() + b'\n')
            for table in (self.span_name, self.span_parent, self.span_start,
                          self.span_end):
                table.tofile(handle)


def read_spans(path):
    'The header and the four span arrays written by Tracer.write.'
    with open(path, 'rb') as handle:
        header = json.loads(handle.readline())
        tables = []
        for field in header['arrays']:
            table = array(field.split(':')[1])
            table.fromfile(handle, header['spans'])
            tables.append(table)
    return header, tables


def _patch(tracer, name, owners, fn=None):
    '''Wrap the function found at every (owner, attribute) in owners.

    All owners must hold the same function object; fn replaces it as
    the function to wrap when given.
    '''
    original = getattr(*owners[0])
    for owner, attr in owners:
        if getattr(owner, attr) is not original:
            raise RuntimeError('%s.%s is not the function traced as %s'
                               % (getattr(owner, '__name__', owner), attr, name))
    wrapped = tracer.wrap(name, fn or original)
    for owner, attr in owners:
        setattr(owner, attr, wrapped)
    return original


def install(tracer):
    '''Wrap the public functions of every finspec layer.

    Returns the lru_cache objects whose counters the run reports.  The
    enumeration wrapper drains the stream inside its span, so the span
    covers the generation work; its one caller, sweep, drains it at once
    anyway.
    '''
    from finspec import (cli, duality, enumeration, fileio, kernels, lattice,
                         poset, reports)

    _patch(tracer, 'cli.main', [(cli, 'main')])
    _patch(tracer, 'fileio.parse', [(fileio, 'parse')])
    for attr in ('to_json_obj', 'to_dot', 'poset_to_text', 'lattice_to_text'):
        _patch(tracer, 'fileio.write', [(fileio, attr)])

    stream = enumeration.enumerate_posets

    def drained(*args, **kwargs):
        got = list(stream(*args, **kwargs))
        tracer.count('enumeration.posets', len(got))
        return iter(got)

    _patch(tracer, 'enumeration.enumerate_posets',
           [(enumeration, 'enumerate_posets'), (reports, 'enumerate_posets')], drained)

    for attr in ('unlabeled_reps', 'canonical_key', 'distributive_witness',
                 'implication_index', 'downset_masks', 'pseudocomplement_vector',
                 'prime_element_mask', 'transitive_closure'):
        _patch(tracer, 'kernels.' + attr, [(kernels, attr)])

    Lattice = lattice.Lattice
    _patch(tracer, 'lattice.construct', [(Lattice, '_adopt')])
    for attr in ('is_distributive', 'is_heyting', 'is_stone', 'is_pseudocomplemented',
                 'is_boolean', 'implication', 'join', 'meet', 'prime_ideals'):
        _patch(tracer, 'lattice.' + attr, [(Lattice, attr)])

    Poset = poset.Poset
    _patch(tracer, 'poset.construct', [(Poset, '__init__')])
    Poset.from_up_rows = classmethod(
        tracer.wrap('poset.construct', Poset.__dict__['from_up_rows'].__func__))
    for attr in ('is_root_system', 'is_forest', 'is_stranded', 'is_confluent',
                 'is_inv_normal', 'is_normal'):
        _patch(tracer, 'poset.order_predicates', [(Poset, attr)])
    for attr in ('patch_neighborhood_mask', 'induced'):
        _patch(tracer, 'poset.' + attr, [(Poset, attr)])

    _patch(tracer, 'duality.downset_lattice',
           [(duality, 'downset_lattice'), (reports, 'downset_lattice'),
            (cli, 'downset_lattice')])
    _patch(tracer, 'duality.qccl_lattice',
           [(duality, 'qccl_lattice'), (reports, 'qccl_lattice')])
    _patch(tracer, 'duality.spec_poset', [(duality, 'spec_poset'), (cli, 'spec_poset')])
    for attr in ('stone_roundtrip', 'poset_roundtrip'):
        _patch(tracer, 'duality.' + attr, [(duality, attr)])

    _patch(tracer, 'reports.classify', [(reports, 'classify')])
    _patch(tracer, 'reports.sweep', [(reports, 'sweep')])
    caches = []
    for attr, theorem in (('pc_space_report', 'pc-space'), ('stone_report', 'stone'),
                          ('qccl_stone_report', 'qccl-stone'),
                          ('heyting_report', 'heyting'),
                          ('root_forest_report', 'root-forest')):
        caches.append(_patch(tracer, 'reports.' + theorem, [(reports, attr)]))
    collapse = reports.collapse_report
    caches.append(collapse)
    by_side = {'min_side': tracer.wrap('reports.collapse-min', collapse),
               'max_side': tracer.wrap('reports.collapse-max', collapse)}
    reports.collapse_report = lambda poset, direction: \
        by_side.get(direction, collapse)(poset, direction)
    return {'duality.downset_lattice': [duality._downset_lattice_cached],
            'reports.cache': caches}


def cache_counts(caches):
    "'<name>.hits' and '<name>.misses' summed over each group's lru caches."
    out = {}
    for name, group in caches.items():
        infos = [cache.cache_info() for cache in group]
        out[name + '.hits'] = sum(info.hits for info in infos)
        out[name + '.misses'] = sum(info.misses for info in infos)
    return out
