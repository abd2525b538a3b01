'''Cross-validation of the characterization theorems on concrete posets.

Each report evaluates every condition of one equivalence independently
and records the named verdicts; the agreement flag then says whether all
conditions applicable under the stated hypotheses came out equal.  A
disagreement on a correct implementation is impossible, which is exactly
what the sweep checks by brute force.

Several conditions are trivially true on a finite space (patch-closed
sets, compactness, constructibility).  They are still computed from
their definitions, never constant-folded, so a bug in the underlying
operators would surface as a disagreement rather than stay hidden.
'''

from dataclasses import dataclass
from functools import lru_cache

from .duality import ENVELOPE_MAX_POINTS, downset_lattice, qccl_lattice
from .enumeration import enumerate_posets, count_posets
from .errors import (AgreementError, InputError, PreconditionError,
                     ResourceLimitError)
from .poset import MonotoneMap, Poset

THEOREMS = ('pc-space', 'stone', 'qccl-stone', 'heyting', 'root-forest',
            'collapse-min', 'collapse-max')


@dataclass(frozen=True)
class Condition:
    label: str
    holds: bool
    group: str = ''


@dataclass(frozen=True)
class ConditionReport:
    'Named verdicts of one theorem, with hypotheses and a failure witness.'
    theorem: str
    conditions: tuple
    hypotheses: tuple = ()
    witness: object = None

    @property
    def verdicts(self):
        return {c.label: c.holds for c in self.conditions}

    @property
    def hypothesis_map(self):
        return dict(self.hypotheses)

    @property
    def hypothesis_satisfied(self):
        return all(holds for _, holds in self.hypotheses)

    def _applicable(self):
        hyp = self.hypothesis_map
        return [c for c in self.conditions if hyp.get(c.group, True)]

    @property
    def agreement(self):
        'All conditions applicable under the hypotheses agree.'
        values = {c.holds for c in self._applicable()}
        return len(values) <= 1

    @property
    def all_true(self):
        return all(c.holds for c in self.conditions)

    def condition(self, label):
        for c in self.conditions:
            if c.label == label:
                return c.holds
        raise InputError('no condition labeled %r in %s' % (label, self.theorem))


def _build(theorem, entries, hypotheses=(), witness=None):
    conditions = tuple(Condition(label, bool(holds), group)
                       for label, holds, group in entries)
    return ConditionReport(theorem, conditions, tuple(hypotheses), witness)


# ----------------------------------------------------------------------
# single-theorem reports


@lru_cache(maxsize=65536)
def pc_space_report(poset):
    'Pseudocomplementation of the open-set lattice, read four ways.'
    lattice = downset_lattice(poset)
    dsets = poset.downset_masks_all

    lattice_ok = lattice.is_pseudocomplemented()

    closures_ok, witness = True, None
    for d in dsets:
        if not poset.is_constructible_mask(poset.up_closure_mask(d)):
            closures_ok, witness = False, poset.set_of(d)
            break

    regular_ok = True
    for d in dsets:
        reg = poset.regularize_mask(d)
        if not (poset.is_down_set_mask(reg) and poset.is_compact_mask(reg)):
            regular_ok = False
            if witness is None:
                witness = poset.set_of(d)
            break

    min_compact = poset.is_compact_mask(poset.minimal_mask)

    return _build('pc-space', [
        ('lattice_pseudocomplemented', lattice_ok, ''),
        ('closures_constructible', closures_ok, ''),
        ('regularizations_compact_open', regular_ok, ''),
        ('min_points_compact', min_compact, ''),
    ], witness=witness)


@lru_cache(maxsize=65536)
def stone_report(poset):
    'The six readings of the Stone property for the open-set lattice.'
    lattice = downset_lattice(poset)
    witness = None

    stone_ok = lattice.is_stone()

    closures_open = True
    for d in poset.downset_masks_all:
        if not poset.is_down_set_mask(poset.up_closure_mask(d)):
            closures_open = False
            witness = poset.set_of(d)
            break

    confl = poset.confluence_witness()
    if confl is not None and witness is None:
        witness = confl

    unique_min = poset.is_inv_normal()
    if not unique_min and witness is None:
        for x in range(poset.n):
            if bin(poset.down[x] & poset.minimal_mask).count('1') != 1:
                witness = x
                break

    assignment = poset.min_point_map()
    if assignment is None:
        map_ok = False
    else:
        into = MonotoneMap(poset, poset, assignment)
        map_ok = into.is_monotone() and into.is_continuous()

    retract_ok = poset.retraction('to_min') is not None

    return _build('stone', [
        ('lattice_stone', stone_ok, ''),
        ('closures_open', closures_open, ''),
        ('confluent', confl is None, ''),
        ('unique_min_below', unique_min, ''),
        ('min_map_spectral', map_ok, ''),
        ('min_retraction', retract_ok, ''),
    ], witness=witness)


@lru_cache(maxsize=65536)
def qccl_stone_report(poset):
    'Stone property of the closed-set lattice; the mirror of stone_report.'
    lattice = qccl_lattice(poset)
    witness = None

    stone_ok = lattice.is_stone()

    inv_closures_clopen = True
    for c in poset.upset_masks_all:
        if not poset.is_clopen_mask(poset.down_closure_mask(c)):
            inv_closures_clopen = False
            witness = poset.set_of(c)
            break

    normal = poset.is_normal()

    return _build('qccl-stone', [
        ('upset_lattice_stone', stone_ok, ''),
        ('inverse_closures_clopen', inv_closures_clopen, ''),
        ('normal_and_upset_lattice_pc', normal and lattice.is_pseudocomplemented(), ''),
        ('normal_and_max_patch_closed',
         normal and poset.is_patch_closed_mask(poset.maximal_mask), ''),
    ], witness=witness)


@lru_cache(maxsize=65536)
def heyting_report(poset):
    'The four readings of the Heyting property for the open-set lattice.'
    # two readings scan the whole powerset, as boolean_envelope builds it,
    # so they share its cap instead of hanging on a long chain
    if poset.n > ENVELOPE_MAX_POINTS:
        raise ResourceLimitError('heyting readings scan every subset; '
                                 'capped at %d points' % ENVELOPE_MAX_POINTS)
    lattice = downset_lattice(poset)
    witness = None

    heyting_ok = lattice.is_heyting()

    closure_constructible = True
    for s in range(poset.full + 1):
        if not poset.is_constructible_mask(s):
            continue
        if not poset.is_constructible_mask(poset.up_closure_mask(s)):
            closure_constructible = False
            witness = poset.set_of(s)
            break

    subspaces_pc = True
    for c in poset.upset_masks_all:
        sub, carrier = poset.induced(poset.set_of(c))
        if not pc_space_report(sub).all_true:
            subspaces_pc = False
            if witness is None:
                witness = frozenset(carrier)
            break

    dual_poset = poset.dual()
    inverse_patch = True
    for s in range(poset.full + 1):
        inv_closure = dual_poset.up_closure_mask(s)
        patch = poset.patch_closure_mask(poset.down_closure_mask(s))
        if inv_closure != patch:
            inverse_patch = False
            if witness is None:
                witness = poset.set_of(s)
            break

    return _build('heyting', [
        ('lattice_heyting', heyting_ok, ''),
        ('constructible_closures', closure_constructible, ''),
        ('closed_subspaces_pc', subspaces_pc, ''),
        ('inverse_closure_is_patch', inverse_patch, ''),
    ], witness=witness)


@lru_cache(maxsize=65536)
def root_forest_report(poset):
    '''Heyting behavior of the two sides under chain-shaped fibers.

    Part one applies when every point has a chain above it, part two
    when every point has a chain below it; verdicts are still computed
    when a hypothesis fails, they just stop being asserted equal.
    '''
    root = poset.is_root_system()
    forest = poset.is_forest()
    witness = None

    inverse_esakia = heyting_report(poset.dual()).all_true

    max_patch = True
    for d in poset.downset_masks_all:
        sub_max = poset.relative_max_mask(d)
        if not poset.is_patch_closed_mask(sub_max):
            max_patch = False
            witness = poset.set_of(d)
            break

    max_meets_compact = True
    # many (d, e) pairs meet in the same mask; each is checked once
    compact = set()
    for d in poset.downset_masks_all:
        sub_max = poset.relative_max_mask(d)
        for e in poset.downset_masks_all:
            meet = sub_max & e
            if meet in compact:
                continue
            if not poset.is_compact_mask(meet):
                max_meets_compact = False
                if witness is None:
                    witness = (poset.set_of(d), poset.set_of(e))
                break
            compact.add(meet)
        if not max_meets_compact:
            break

    esakia = heyting_report(poset).all_true

    min_compact = True
    for c in poset.upset_masks_all:
        sub_min = poset.relative_min_mask(c)
        if not poset.is_compact_mask(sub_min):
            min_compact = False
            if witness is None:
                witness = poset.set_of(c)
            break

    return _build('root-forest', [
        ('root_side.inverse_esakia', inverse_esakia, 'root_side'),
        ('root_side.max_sets_patch_closed', max_patch, 'root_side'),
        ('root_side.max_meets_compact', max_meets_compact, 'root_side'),
        ('forest_side.esakia', esakia, 'forest_side'),
        ('forest_side.min_sets_compact', min_compact, 'forest_side'),
    ], hypotheses=[('root_side', root), ('forest_side', forest)],
        witness=witness)


@lru_cache(maxsize=65536)
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

    boolean_space = all(poset.is_up_set_mask(d) for d in poset.downset_masks_all)
    witness = None

    if direction == 'min_side':
        touching = poset.patch_closure_mask(poset.minimal_mask) & poset.maximal_mask \
            == poset.maximal_mask
        entries = [
            ('boolean_space', boolean_space, 'collapse'),
            ('downset_lattice_stone', downset_lattice(poset).is_stone(), 'collapse'),
            ('esakia', heyting_report(poset).all_true, 'collapse'),
            ('pc_space', pc_space_report(poset).all_true, 'collapse'),
            ('min_points_patch_closed',
             poset.is_patch_closed_mask(poset.minimal_mask), 'collapse'),
        ]
        hypotheses = [('collapse', touching)]
    else:
        touching = poset.patch_closure_mask(poset.maximal_mask) & poset.minimal_mask \
            == poset.minimal_mask
        dual_poset = poset.dual()
        down_open = True
        down_clopen = True
        for c in poset.upset_masks_all:
            closed_down = poset.down_closure_mask(c)
            if not poset.is_down_set_mask(closed_down):
                down_open = False
                if witness is None:
                    witness = poset.set_of(c)
            if not poset.is_clopen_mask(closed_down):
                down_clopen = False
                if witness is None:
                    witness = poset.set_of(c)
        entries = [
            ('boolean_space', boolean_space, 'collapse'),
            ('upset_lattice_stone', qccl_lattice(poset).is_stone(), 'collapse'),
            ('inverse_esakia', heyting_report(dual_poset).all_true, 'collapse'),
            ('inverse_pc_space', pc_space_report(dual_poset).all_true, 'collapse'),
            ('max_points_patch_closed',
             poset.is_patch_closed_mask(poset.maximal_mask), 'collapse'),
            ('downclosures_open', down_open, 'rooted_collapse'),
            ('downclosures_clopen', down_clopen, 'rooted_collapse'),
        ]
        hypotheses = [('collapse', touching),
                      ('rooted_collapse', touching and poset.is_root_system())]

    return _build('collapse-' + direction.split('_')[0], entries,
                  hypotheses=hypotheses, witness=witness)


def theorem_report(poset, theorem):
    'Dispatch a report by its public name.'
    if theorem == 'pc-space':
        return pc_space_report(poset)
    if theorem == 'stone':
        return stone_report(poset)
    if theorem == 'qccl-stone':
        return qccl_stone_report(poset)
    if theorem == 'heyting':
        return heyting_report(poset)
    if theorem == 'root-forest':
        return root_forest_report(poset)
    if theorem == 'collapse-min':
        return collapse_report(poset, 'min_side')
    if theorem == 'collapse-max':
        return collapse_report(poset, 'max_side')
    raise InputError('unknown theorem %r; known: %s' % (theorem, ', '.join(THEOREMS)))


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

PROFILE_FLAGS = ('boolean', 'heyting', 'stone', 'pseudocomplemented',
                 'root_system', 'forest', 'stranded', 'confluent',
                 'inv_normal', 'normal')


@dataclass(frozen=True)
class StructureProfile:
    'Lattice-side and order-side classification of one poset.'
    boolean: bool
    heyting: bool
    stone: bool
    pseudocomplemented: bool
    root_system: bool
    forest: bool
    stranded: bool
    confluent: bool
    inv_normal: bool
    normal: bool

    def as_dict(self):
        return {flag: getattr(self, flag) for flag in PROFILE_FLAGS}


def classify(poset):
    'Profile of the down-set lattice and the order shape, implications enforced.'
    lattice = downset_lattice(poset)
    profile = StructureProfile(
        boolean=lattice.is_boolean(),
        heyting=lattice.is_heyting(),
        stone=lattice.is_stone(),
        pseudocomplemented=lattice.is_pseudocomplemented(),
        root_system=poset.is_root_system(),
        forest=poset.is_forest(),
        stranded=poset.is_stranded(),
        confluent=poset.is_confluent(),
        inv_normal=poset.is_inv_normal(),
        normal=poset.is_normal(),
    )
    if profile.boolean and not (profile.heyting and profile.stone):
        raise AgreementError('boolean lattice must be heyting and stone: %r' % (poset,))
    if (profile.heyting or profile.stone) and not profile.pseudocomplemented:
        raise AgreementError('heyting or stone lattice must be pseudocomplemented: %r'
                             % (poset,))
    return profile


def _survey(rows):
    'Per-poset sweep payload: profile flags and per-theorem agreement.'
    poset = Poset.from_up_rows(rows)
    profile = classify(poset)
    broken = []
    for theorem in THEOREMS:
        report = theorem_report(poset, theorem)
        if report.hypothesis_satisfied and not report.agreement:
            broken.append(theorem)
    return tuple(profile.as_dict().items()), tuple(broken)


@dataclass(frozen=True)
class SweepRow:
    n: int
    count: int
    disagreements: int
    class_counts: tuple


@dataclass(frozen=True)
class FirstFailure:
    flag: str
    n: int
    index: int
    covers: tuple


@dataclass(frozen=True)
class SweepSummary:
    mode: str
    max_points: int
    rows: tuple
    theorem_disagreements: tuple
    first_failures: tuple

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


def sweep(max_points, mode='unlabeled', jobs=1):
    '''Run every report over every poset of every size up to max_points.

    The summary carries per-size counts, per-theorem disagreement totals
    (all zero on a correct build) and, for each profile flag, the first
    poset in canonical order that falsifies it.  Output is deterministic
    and identical for any worker count.
    '''
    if not isinstance(jobs, int) or jobs < 1:
        raise InputError('jobs must be a positive int')
    count_posets(max_points, mode)  # validates size and mode up front
    rows_out = []
    theorem_counts = {theorem: 0 for theorem in THEOREMS}
    firsts = {}
    pool = None
    try:
        if jobs > 1:
            import multiprocessing
            pool = multiprocessing.Pool(jobs)
        for n in range(max_points + 1):
            all_rows = [poset.up for poset in enumerate_posets(n, mode)]
            if pool is None:
                results = [_survey(rows) for rows in all_rows]
            else:
                results = pool.map(_survey, all_rows)
            class_counts = {flag: 0 for flag in PROFILE_FLAGS}
            size_disagreements = 0
            for index, (flags, broken) in enumerate(results):
                for flag, holds in flags:
                    if holds:
                        class_counts[flag] += 1
                    elif flag not in firsts:
                        covers = Poset.from_up_rows(all_rows[index]).covers()
                        firsts[flag] = FirstFailure(flag, n, index, tuple(covers))
                for theorem in broken:
                    theorem_counts[theorem] += 1
                    size_disagreements += 1
            rows_out.append(SweepRow(n, len(all_rows), size_disagreements,
                                     tuple(sorted(class_counts.items()))))
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    first_failures = tuple(sorted(firsts.values(),
                                  key=lambda item: (item.flag,)))
    return SweepSummary(mode, max_points, tuple(rows_out),
                        tuple(sorted(theorem_counts.items())), first_failures)
