'''The disjoint-sum law: each verdict on P + Q is the AND of its verdicts on P and on Q.

P + Q is the two orders side by side, Q's points numbered after P's.
Its down-set lattice is the product of theirs (Davey & Priestley,
*Introduction to Lattices and Order*, ch. 1 and 5), and a product of
bounded lattices is pseudocomplemented, Stone, Heyting or Boolean
exactly when each factor is, since its operations work componentwise.
The order-side conditions are read component by component as well.
So every reading of every theorem, and every classify flag, should hold
on P + Q exactly when it holds on both parts.  The law is checked here,
not assumed, on every pair of classes of 1 to MAX_POINTS points.
'''

from itertools import combinations_with_replacement

from finspec import kernels
from finspec.poset import Poset
from finspec.reports import PROFILE_FLAGS, REGISTRY, THEOREMS, classify, theorem_report

MAX_POINTS = 4


def _sum(p, q):
    "P + Q: Q's up rows shifted past P's points."
    return Poset.from_up_rows(p.up + tuple(row << p.n for row in q.up))


def _verdicts(poset):
    'Every reading verdict, keyed (theorem, label), and every classify flag.'
    out = {(theorem, c.label): c.holds
           for theorem in THEOREMS for c in theorem_report(poset, theorem).conditions}
    out.update(classify(poset).as_dict())
    return out


def test_sum_rows_are_the_parts_side_by_side():
    # a 2-chain beside one point: nothing of the one is above the other
    both = _sum(Poset(2, [(0, 1)]), Poset(1))
    assert both == Poset(3, [(0, 1)])


def test_every_verdict_on_a_disjoint_sum_is_the_and_of_the_parts():
    classes = [Poset.from_up_rows(rows) for n in range(1, MAX_POINTS + 1)
               for rows in kernels.unlabeled_reps(n)]
    parts = {poset: _verdicts(poset) for poset in classes}
    pairs = list(combinations_with_replacement(classes, 2))
    bad, checks = [], 0
    for p, q in pairs:
        for name, holds in _verdicts(_sum(p, q)).items():
            checks += 1
            if holds != (parts[p][name] and parts[q][name]):
                bad.append((name, p, q))
    readings = sum(len(entry.readings) for entry in REGISTRY.values())
    assert len(pairs) == 300 and readings == 35
    assert checks == len(pairs) * (readings + len(PROFILE_FLAGS))
    assert bad == [], '%d of %d checks break the law, first %r' % (len(bad), checks, bad[:3])
