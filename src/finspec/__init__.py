'''Finite spectral spaces as posets, with their open-set lattices.

A finite spectral space is nothing more than a finite poset: points
ordered by specialization, open sets the down-sets, closed sets the
up-sets.  This package makes that dictionary executable.  It decides
lattice properties (pseudocomplemented, Stone, Heyting, boolean) of the
open-set lattice, decides the matching order-shape properties of the
poset, runs both directions of the finite duality, and cross-checks
every characterization over exhaustive enumerations of small posets.

Quick start::

    from finspec import Poset, stone_report, sweep
    p = Poset(3, [(0, 2), (1, 2)])      # two bottoms under one top
    stone_report(p).agreement           # True: all six readings agree
    sweep(5).total_disagreements        # 0 over all 88 posets up to size 5
'''

from .duality import (DOWNSET_CAP, ENVELOPE_MAX_POINTS, Isomorphism,
                      boolean_envelope, d_map, downset_lattice, poset_roundtrip,
                      qccl_lattice, spec_poset, stone_roundtrip)
from .enumeration import MAX_POINTS, count_posets, enumerate_posets
from .errors import (AgreementError, InputError, PreconditionError,
                     ResourceLimitError, ToolkitError)
from .kernels import backend
from .lattice import Lattice, LatticeIdeal
from .poset import MonotoneMap, Poset, are_isomorphic
from .reports import (PROFILE_FLAGS, THEOREMS, Condition, ConditionReport,
                      FirstFailure, StructureProfile, SweepRow, SweepSummary,
                      classify, collapse_report, generic_complement,
                      heyting_report, pc_space_report, qccl_stone_report,
                      root_forest_report, stone_report, sweep, theorem_report)

__version__ = '0.1.0'

__all__ = [
    'AgreementError', 'Condition', 'ConditionReport', 'DOWNSET_CAP',
    'ENVELOPE_MAX_POINTS', 'FirstFailure', 'InputError', 'Isomorphism',
    'Lattice', 'LatticeIdeal', 'MAX_POINTS', 'MonotoneMap', 'PROFILE_FLAGS',
    'Poset', 'PreconditionError', 'ResourceLimitError', 'StructureProfile',
    'SweepRow', 'SweepSummary', 'THEOREMS', 'ToolkitError', 'are_isomorphic',
    'backend', 'boolean_envelope', 'classify', 'collapse_report',
    'count_posets', 'd_map', 'downset_lattice', 'enumerate_posets',
    'generic_complement', 'heyting_report', 'pc_space_report',
    'poset_roundtrip', 'qccl_lattice', 'qccl_stone_report',
    'root_forest_report', 'spec_poset', 'stone_report', 'stone_roundtrip',
    'sweep', 'theorem_report',
]
