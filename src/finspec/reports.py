'''Cross-validation of the characterization theorems on concrete posets.

REGISTRY is the one table of theorems: per theorem, its hypotheses as
(name, test) pairs and its readings as (label, group, reading) triples.
A reading maps the poset and the theorem's lattice (open-set or
closed-set) to (holds, witness); the witness names a culprit when the
reading fails and can.  Every reading is computed on its own and never
reads another's verdict; one that quotes a whole theorem calls its
cached report.  The agreement flag says whether the readings applicable
under the hypotheses came out equal, which the sweep checks by brute
force.

A sweep asks for each report of a poset once, from _survey.  Only the
pc-space and heyting reports are asked for again, by the readings that
quote them (_quotes, and closed_subspaces_pc on every closed subspace),
so only those two caches keep up to 65,536 reports each; the other four
keep the last 128.  Each cache comes from duality.rows_cache and is keyed
by the poset's rows: it holds a row tuple and a report per entry, never
the poset, so a swept poset goes with its cached sets once its survey
ends.  The reports kept still mostly name no witness and repeat a
handful of values.  So once an entry's hypotheses and readings have all
run, _evaluate swaps a witness-free report for one shared equal copy
(hash-consing).  A sweep unpacks each _survey row and drops it, so the
rows are not pooled.  The pool is read only after evaluation, never in
place of it, so every reading still runs on every poset and the caches
count as before.  A report with a witness is never pooled, so the pool
holds only values made of the registry's labels and booleans: it stays
bounded by those, whatever the size of the sweep.

closed_subspaces_pc builds each proper closed subspace numbered by
degree (closed_subspaces), so isomorphic subspaces of one poset mostly
have equal rows and meet one cached pc-space report; the whole space
keeps the poset's numbering and meets the poset's own.  The readings
that map each set of a family (the down-sets, the up-sets or every
subset) to an image and test it share one loop, _every_image: it tests
each distinct image once and names the first failing set as witness.
It is a loop, not a verdict: each reading still brings its own family,
image and test.

Several conditions are trivially true on a finite space (patch-closed
sets, compactness, constructibility).  They are still computed from
their definitions, never constant-folded, so a predicate that wrongly
refuses a set surfaces as a disagreement.  A faulty set function may
not: closures_constructible, constructible_closures,
inverse_closure_is_patch, max_sets_patch_closed, max_meets_compact and
min_sets_compact test their images with predicates that accept every
set, so they keep every verdict when subset_closures, relative_max_mask,
relative_min_mask or (for the first) up_closure_mask return random
masks.  Guarding those set functions is ROADMAP.md's item 15.
'''

from collections import namedtuple

from . import kernels
# _evaluate and theorem_report look these and the report functions up by
# name at call time, so a wrapper bound over one of the names sees every call
from .duality import check_envelope, downset_lattice, qccl_lattice, rows_cache
from .enumeration import check_args, enumerate_posets
from .errors import (AgreementError, InputError, PreconditionError,
                     ResourceLimitError)
from .poset import MonotoneMap, Poset, is_int


class Condition(namedtuple('Condition', 'label holds group witness',
                           defaults=('', None))):
    "One reading's verdict, with the culprit it names when it fails."
    __slots__ = ()


class ConditionReport(namedtuple('ConditionReport', 'theorem conditions hypotheses',
                                 defaults=((),))):
    'Named verdicts of one theorem, with its hypotheses.'
    __slots__ = ()

    @property
    def witness(self):
        'The witness of the first condition, in order, that names one.'
        return next((c.witness for c in self.conditions if c.witness is not None), None)

    @property
    def verdicts(self):
        return {c.label: c.holds for c in self.conditions}

    @property
    def hypothesis_map(self):
        return dict(self.hypotheses)

    @property
    def hypothesis_satisfied(self):
        return all(holds for _, holds in self.hypotheses)

    @property
    def agreement(self):
        'All conditions applicable under the hypotheses agree.'
        hyp = self.hypothesis_map
        return len({c.holds for c in self.conditions if hyp.get(c.group, True)}) <= 1

    @property
    def all_true(self):
        return all(c.holds for c in self.conditions)

    def condition(self, label):
        for c in self.conditions:
            if c.label == label:
                return c.holds
        raise InputError('no condition labeled %r in %s' % (label, self.theorem))


# ----------------------------------------------------------------------
# readings: each maps (poset, lattice) to (holds, witness)


def _no_failure(poset, failures):
    'Holds when failures yields no mask; else the first one, as a set, is the witness.'
    for mask in failures:
        return False, poset.set_of(mask)
    return True, None


def _quotes(theorem, dual=False):
    'Reading "the report of theorem is all true", on the poset or its dual.'
    def reading(poset, lattice):
        return theorem_report(poset.dual() if dual else poset, theorem).all_true, None
    return reading


def lattice_stone(poset, lattice):
    return lattice.is_stone(), None


def normal_and_lattice_pc(poset, lattice):
    return poset.is_normal() and lattice.is_pseudocomplemented(), None


def _every_image(poset, sets, image, test):
    '''Holds when test accepts image(s) for every s in sets; else the
    first failing s, as a set, is the witness.

    Many sets share an image, so test runs once per distinct image.
    '''
    tested = {}
    for s in sets:
        mask = image(s)
        holds = tested.get(mask)
        if holds is None:
            holds = tested[mask] = test(mask)
        if not holds:
            return False, poset.set_of(s)
    return True, None


def closures_constructible(poset, lattice):
    return _every_image(poset, poset.downset_masks_all, poset.up_closure_mask,
                        poset.is_constructible_mask)


def regularizations_compact_open(poset, lattice):
    return _every_image(poset, poset.downset_masks_all, poset.regularize_mask,
                        lambda mask: (poset.is_down_set_mask(mask)
                                      and poset.is_compact_mask(mask)))


def closures_open(poset, lattice):
    return _every_image(poset, poset.downset_masks_all, poset.up_closure_mask,
                        poset.is_down_set_mask)


def confluent(poset, lattice):
    witness = poset.confluence_witness()
    return witness is None, witness


def unique_min_below(poset, lattice):
    witness = next((x for x in range(poset.n)
                    if (poset.down[x] & poset.minimal_mask).bit_count() != 1), None)
    return witness is None, witness


def min_map_spectral(poset, lattice):
    assignment = poset.min_point_map()
    if assignment is None:
        return False, None
    into = MonotoneMap(poset, poset, assignment)
    return into.is_monotone() and into.is_continuous(), None


def downclosures_open(poset, lattice):
    return _every_image(poset, poset.upset_masks_all, poset.down_closure_mask,
                        poset.is_down_set_mask)


def downclosures_clopen(poset, lattice):
    return _every_image(poset, poset.upset_masks_all, poset.down_closure_mask,
                        poset.is_clopen_mask)


def constructible_closures(poset, lattice):
    '''The up-closure of every constructible subset is constructible.

    It calls kernels.subset_closures, as inverse_closure_is_patch does,
    but on poset.up, where that reading passes poset.dual().up, that is
    poset.down: the two share the kernel's code, never a table or a
    verdict.  A fault in the kernel could move both readings together,
    but not lattice_heyting or closed_subspaces_pc, which never reach it,
    so a fault that fails both still breaks the report's agreement.
    '''
    closures = kernels.subset_closures(poset.up)
    # the closures are up-sets, far fewer than the subsets: each is tested once
    closure_ok = {c: poset.is_constructible_mask(c) for c in set(closures)}
    return _no_failure(poset, (
        s for s, c in enumerate(closures)
        if not closure_ok[c] and poset.is_constructible_mask(s)))


def closed_subspaces(poset):
    '''Each up-set mask, ascending, with its subspace numbered by degree.

    The points of a proper subspace are numbered by (points below each in
    the subspace, points above it, index), which is a linear extension.
    Isomorphic subspaces of one poset then mostly get equal up rows and
    so share one cached pc_space_report.  The whole space keeps the
    poset's own numbering, so it meets the report a sweep has already
    asked for on the poset.  It is still a copy: a report computed on it
    leaves the poset untouched.
    '''
    down, up, full = poset.down, poset.up, poset.full
    # one int per point sorts by the triple, each field in shift bits.  An
    # up-set holds every point above each of its points, so the last two
    # fields are fixed per point
    shift = poset.n.bit_length()
    index = (1 << shift) - 1
    fixed = [up[i].bit_count() << shift | i for i in range(poset.n)]
    below = 2 * shift
    for mask in poset.upset_masks_all:
        if mask == full:
            yield mask, Poset.from_up_rows(up)
            continue
        keys = []
        rest = mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            keys.append((down[i] & mask).bit_count() << below | fixed[i])
            rest ^= low
        keys.sort()
        yield mask, poset.induced_order([key & index for key in keys])


def closed_subspaces_pc(poset, lattice):
    return _no_failure(poset, (mask for mask, subspace in closed_subspaces(poset)
                               if not pc_space_report(subspace).all_true))


def inverse_closure_is_patch(poset, lattice):
    '''The closure of every subset in the inverse space is the patch
    closure of its down-closure.

    Both sides read the same rows, since poset.dual().up is poset.down:
    one table gives each subset's closure in the inverse space and its
    down-closure alike, so sharing it costs the sides no independence
    they had.  The patch closure is taken once per distinct down-set.
    '''
    closures = kernels.subset_closures(poset.dual().up)
    return _every_image(poset, range(len(closures)), closures.__getitem__,
                        lambda d: d == poset.patch_closure_mask(d))


def max_sets_patch_closed(poset, lattice):
    return _every_image(poset, poset.downset_masks_all, poset.relative_max_mask,
                        poset.is_patch_closed_mask)


def max_meets_compact(poset, lattice):
    # many (d, e) pairs meet in the same mask; each is checked once
    compact = set()
    for d in poset.downset_masks_all:
        sub_max = poset.relative_max_mask(d)
        for e in poset.downset_masks_all:
            meet = sub_max & e
            if meet in compact:
                continue
            if not poset.is_compact_mask(meet):
                return False, (poset.set_of(d), poset.set_of(e))
            compact.add(meet)
    return True, None


def min_sets_compact(poset, lattice):
    return _every_image(poset, poset.upset_masks_all, poset.relative_min_mask,
                        poset.is_compact_mask)


def boolean_space(poset, lattice):
    return all(poset.is_up_set_mask(d) for d in poset.downset_masks_all), None


# ----------------------------------------------------------------------
# the registry


def _min_touches_max(poset):
    'Every maximal point lies in the patch closure of the minimal ones.'
    return poset.maximal_mask & ~poset.patch_closure_mask(poset.minimal_mask) == 0


def _max_touches_min(poset):
    'Every minimal point lies in the patch closure of the maximal ones.'
    return poset.minimal_mask & ~poset.patch_closure_mask(poset.maximal_mask) == 0


class Theorem(namedtuple('Theorem', 'report lattice hypotheses readings')):
    '''One registry entry.  report names a cached report function of this
    module, then its arguments after the poset; lattice names the builder
    of the lattice every reading gets, or is None.'''
    __slots__ = ()


REGISTRY = {
    'pc-space': Theorem(('pc_space_report',), 'downset_lattice', (), (
        ('lattice_pseudocomplemented', '',
         lambda poset, lattice: (lattice.is_pseudocomplemented(), None)),
        ('closures_constructible', '', closures_constructible),
        ('regularizations_compact_open', '', regularizations_compact_open),
        ('min_points_compact', '',
         lambda poset, lattice: (poset.is_compact_mask(poset.minimal_mask), None)),
    )),
    'stone': Theorem(('stone_report',), 'downset_lattice', (), (
        ('lattice_stone', '', lattice_stone),
        ('closures_open', '', closures_open),
        ('confluent', '', confluent),
        ('unique_min_below', '', unique_min_below),
        ('min_map_spectral', '', min_map_spectral),
        ('min_retraction', '',
         lambda poset, lattice: (poset.retraction('to_min') is not None, None)),
    )),
    'qccl-stone': Theorem(('qccl_stone_report',), 'qccl_lattice', (), (
        ('upset_lattice_stone', '', lattice_stone),
        ('inverse_closures_clopen', '', downclosures_clopen),
        ('normal_and_upset_lattice_pc', '', normal_and_lattice_pc),
        ('normal_and_max_patch_closed', '', lambda poset, lattice: (
            poset.is_normal() and poset.is_patch_closed_mask(poset.maximal_mask), None)),
    )),
    'heyting': Theorem(('heyting_report',), 'downset_lattice', (), (
        ('lattice_heyting', '', lambda poset, lattice: (lattice.is_heyting(), None)),
        ('constructible_closures', '', constructible_closures),
        ('closed_subspaces_pc', '', closed_subspaces_pc),
        ('inverse_closure_is_patch', '', inverse_closure_is_patch),
    )),
    'root-forest': Theorem(('root_forest_report',), None, (
        ('root_side', lambda poset: poset.is_root_system()),
        ('forest_side', lambda poset: poset.is_forest()),
    ), (
        ('root_side.inverse_esakia', 'root_side', _quotes('heyting', dual=True)),
        ('root_side.max_sets_patch_closed', 'root_side', max_sets_patch_closed),
        ('root_side.max_meets_compact', 'root_side', max_meets_compact),
        ('forest_side.esakia', 'forest_side', _quotes('heyting')),
        ('forest_side.min_sets_compact', 'forest_side', min_sets_compact),
    )),
    'collapse-min': Theorem(('collapse_report', 'min_side'), 'downset_lattice', (
        ('collapse', _min_touches_max),
    ), (
        ('boolean_space', 'collapse', boolean_space),
        ('downset_lattice_stone', 'collapse', lattice_stone),
        ('esakia', 'collapse', _quotes('heyting')),
        ('pc_space', 'collapse', _quotes('pc-space')),
        ('min_points_patch_closed', 'collapse',
         lambda poset, lattice: (poset.is_patch_closed_mask(poset.minimal_mask), None)),
    )),
    'collapse-max': Theorem(('collapse_report', 'max_side'), 'qccl_lattice', (
        ('collapse', _max_touches_min),
        ('rooted_collapse',
         lambda poset: _max_touches_min(poset) and poset.is_root_system()),
    ), (
        ('boolean_space', 'collapse', boolean_space),
        ('upset_lattice_stone', 'collapse', lattice_stone),
        ('inverse_esakia', 'collapse', _quotes('heyting', dual=True)),
        ('inverse_pc_space', 'collapse', _quotes('pc-space', dual=True)),
        ('max_points_patch_closed', 'collapse',
         lambda poset, lattice: (poset.is_patch_closed_mask(poset.maximal_mask), None)),
        ('downclosures_open', 'rooted_collapse', downclosures_open),
        ('downclosures_clopen', 'rooted_collapse', downclosures_clopen),
    )),
}

THEOREMS = tuple(REGISTRY)


# Witness-free reports, each kept once
_REPORTS = {}


def _evaluate(poset, theorem):
    '''Every hypothesis and reading of one registry entry, each on its own.

    Only then is a witness-free report swapped for its shared copy.
    '''
    entry = REGISTRY[theorem]
    lattice = None if entry.lattice is None else globals()[entry.lattice](poset)
    hypotheses = tuple((name, bool(test(poset))) for name, test in entry.hypotheses)
    conditions = []
    for label, group, reading in entry.readings:
        holds, witness = reading(poset, lattice)
        conditions.append(Condition(label, bool(holds), group, witness))
    report = ConditionReport(theorem, tuple(conditions), hypotheses)
    return report if report.witness is not None else _REPORTS.setdefault(report, report)


# ----------------------------------------------------------------------
# cached reports, one per theorem, keyed by rows.  Readings quote pc-space
# and heyting on the poset, its dual and its closed subspaces, so those two
# caches keep 65,536 reports; a sweep asks for each of the other four once
# per poset, so they keep 128, lru_cache's default


@rows_cache(lambda: 65536)
def pc_space_report(poset):
    'Pseudocomplementation of the open-set lattice, read four ways.'
    return _evaluate(poset, 'pc-space')


@rows_cache(lambda: 128)
def stone_report(poset):
    'The six readings of the Stone property for the open-set lattice.'
    return _evaluate(poset, 'stone')


@rows_cache(lambda: 128)
def qccl_stone_report(poset):
    'Stone property of the closed-set lattice; the mirror of stone_report.'
    return _evaluate(poset, 'qccl-stone')


@rows_cache(lambda: 65536)
def heyting_report(poset):
    'The four readings of the Heyting property for the open-set lattice.'
    # two readings scan the whole powerset, as boolean_envelope builds it,
    # so they share its cap instead of hanging on a long chain
    check_envelope(poset.n)
    return _evaluate(poset, 'heyting')


@rows_cache(lambda: 128)
def root_forest_report(poset):
    '''Heyting behavior of the two sides under chain-shaped fibers.

    Part one applies when every point has a chain above it, part two
    when every point has a chain below it; verdicts are still computed
    when a hypothesis fails, they just stop being asserted equal.
    '''
    return _evaluate(poset, 'root-forest')


@rows_cache(lambda: 128)
def collapse_report(poset, direction):
    '''Degeneration to an antichain when the extremal layers touch.

    min side: every maximal point lies in the patch closure of the
    minimal ones.  max side: the mirror image, with two extra conditions
    on down-closures of closed sets that additionally presume a root
    system.  At finite scale a satisfied hypothesis collapses the space
    to an antichain, so all verdicts come out equal (and true).
    '''
    if direction not in ('min_side', 'max_side'):
        raise InputError('collapse direction must be min_side or max_side')
    return _evaluate(poset, 'collapse-' + direction.split('_')[0])


def theorem_report(poset, theorem):
    'The cached report of one theorem, by its public name.'
    if theorem not in REGISTRY:
        raise InputError('unknown theorem %r; known: %s' % (theorem, ', '.join(THEOREMS)))
    name, *args = REGISTRY[theorem].report
    return globals()[name](poset, *args)


# ----------------------------------------------------------------------
# generic complement


def generic_complement(poset, points):
    '''Largest open set missing the closure of a down-set U.

    Returns V with U and V disjoint, U | V dense, and the minimal points
    split between U and V; None would mean no such V exists, which never
    happens at finite scale but stays in the signature on purpose.
    '''
    mask = poset.mask_of(points)
    if not poset.is_down_set_mask(mask):
        raise PreconditionError('generic complement needs a down-set')
    v = poset.full & ~poset.up_closure_mask(mask)
    if mask & v:
        return None
    if not poset.is_dense_mask(mask | v):
        return None
    u_min = poset.relative_min_mask(mask)
    v_min = poset.relative_min_mask(v)
    if u_min & v_min or u_min | v_min != poset.minimal_mask:
        return None
    return poset.set_of(v)


# ----------------------------------------------------------------------
# classification and exhaustive sweeps

class StructureProfile(namedtuple('StructureProfile', (
        'boolean', 'heyting', 'stone', 'pseudocomplemented', 'root_system',
        'forest', 'stranded', 'confluent', 'inv_normal', 'normal'))):
    'Lattice-side and order-side classification of one poset.'
    __slots__ = ()

    def as_dict(self):
        return self._asdict()


PROFILE_FLAGS = StructureProfile._fields


def lattice_flags(lattice, subject):
    '''The boolean, heyting, stone and pseudocomplemented flags of lattice,
    implications enforced; an AgreementError names subject.

    Every flag reads the order rows or the meet table, so each runs at
    any size the cap admits.'''
    flags = dict(boolean=lattice.is_boolean(), heyting=lattice.is_heyting(),
                 stone=lattice.is_stone(), pseudocomplemented=lattice.is_pseudocomplemented())
    if flags['boolean'] and not (flags['heyting'] and flags['stone']):
        raise AgreementError('boolean lattice must be heyting and stone: %r' % (subject,))
    if (flags['heyting'] or flags['stone']) and not flags['pseudocomplemented']:
        raise AgreementError('heyting or stone lattice must be pseudocomplemented: %r'
                             % (subject,))
    return flags


def classify(poset):
    'Profile of the down-set lattice and the order shape, implications enforced.'
    return StructureProfile(
        **lattice_flags(downset_lattice(poset), poset),
        root_system=poset.is_root_system(),
        forest=poset.is_forest(),
        stranded=poset.is_stranded(),
        confluent=poset.is_confluent(),
        inv_normal=poset.is_inv_normal(),
        normal=poset.is_normal(),
    )


def _survey(poset):
    'Per-poset sweep payload: profile flags and per-theorem agreement.'
    profile = classify(poset)
    broken = []
    for theorem in THEOREMS:
        report = theorem_report(poset, theorem)
        if report.hypothesis_satisfied and not report.agreement:
            broken.append(theorem)
    return profile, tuple(broken)


def _surveyed(poset):
    'The poset with its _survey row; a worker sends the poset back as its rows.'
    return poset, _survey(poset)


SweepRow = namedtuple('SweepRow', 'n count disagreements class_counts')

FirstFailure = namedtuple('FirstFailure', 'flag n index covers')


class SweepSummary(namedtuple('SweepSummary', (
        'mode', 'max_points', 'rows', 'theorem_disagreements', 'first_failures'))):
    __slots__ = ()

    @property
    def total_posets(self):
        return sum(row.count for row in self.rows)

    @property
    def total_disagreements(self):
        return sum(count for _, count in self.theorem_disagreements)

    def first_failure(self, flag):
        for item in self.first_failures:
            if item.flag == flag:
                return item
        return None


MAX_JOBS = 64


def sweep(max_points, mode='unlabeled', jobs=1):
    '''Run every report over every poset of every size up to max_points.

    The summary carries per-size counts, per-theorem disagreement totals
    (all zero on a correct build) and, for each profile flag, the first
    poset in canonical order that falsifies it.  Output is deterministic
    and identical for any worker count, which is capped at MAX_JOBS.

    Each level is streamed: a poset is surveyed as the enumeration
    yields it, a first failure's covers are read from it then, and no
    list of the level is kept, so each poset and the sets it cached go
    once its row is counted.  Workers take the stream in order, in
    chunks, through pool.imap.
    '''
    if not is_int(jobs) or jobs < 1:
        raise InputError('jobs must be a positive int')
    if jobs > MAX_JOBS:
        raise ResourceLimitError('jobs capped at %d (MAX_JOBS), got %d' % (MAX_JOBS, jobs))
    check_args(max_points, mode)
    rows_out = []
    theorem_counts = {theorem: 0 for theorem in THEOREMS}
    firsts = {}
    pool = None
    try:
        if jobs > 1:
            import multiprocessing
            pool = multiprocessing.Pool(jobs)
        for n in range(max_points + 1):
            posets = enumerate_posets(n, mode)
            surveyed = (map(_surveyed, posets) if pool is None
                        else pool.imap(_surveyed, posets, chunksize=64))
            class_counts = {flag: 0 for flag in PROFILE_FLAGS}
            count = size_disagreements = 0
            for poset, (profile, broken) in surveyed:
                for flag, holds in zip(PROFILE_FLAGS, profile):
                    if holds:
                        class_counts[flag] += 1
                    elif flag not in firsts:
                        firsts[flag] = FirstFailure(flag, n, count, tuple(poset.covers()))
                for theorem in broken:
                    theorem_counts[theorem] += 1
                    size_disagreements += 1
                count += 1
            rows_out.append(SweepRow(n, count, size_disagreements,
                                     tuple(sorted(class_counts.items()))))
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    first_failures = tuple(sorted(firsts.values(),
                                  key=lambda item: (item.flag,)))
    return SweepSummary(mode, max_points, tuple(rows_out),
                        tuple(sorted(theorem_counts.items())), first_failures)
