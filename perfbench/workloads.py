"""Seeded inputs and operations of the compose, glue and functor workloads.

All inputs come from the ``opencob.harness`` generators, driven by one
``random.Random(seed)``, before timing starts.  A workload is a list of
rounds.  Every round holds the same mix of instance sizes (for compose and
glue, a fixed quota of instances per ``h``), because the time of one
verification doubles with each unit of ``h``: a mix left to chance would
make throughput and tail latency depend on the seed more than on the code.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import opencob
from opencob import harness

from checks import (check_glue, check_graded_iso, check_signed_permutation,
                    h_of)

TENSOR = opencob.PRESET_TENSOR
HALF = opencob.PRESET_HALF


@dataclass(frozen=True)
class Op:
    kind: str
    size: int      # h of the instance, for the input histogram
    args: tuple


def fill_rounds(draw, per_round: dict, n_rounds: int) -> list:
    """``n_rounds`` rounds of (class, item), ``per_round[c]`` of each class c.

    ``draw()`` returns (classes, item); the item goes to the first of its
    classes that still has room, or is dropped.
    """
    got: dict = {c: [] for c in per_round}
    while any(len(got[c]) < q * n_rounds for c, q in per_round.items()):
        classes, item = draw()
        room = [c for c in classes
                if len(got.get(c, ())) < per_round.get(c, 0) * n_rounds]
        if room:
            got[room[0]].append((room[0], item))
    return [[x for c, q in per_round.items() for x in got[c][r * q:(r + 1) * q]]
            for r in range(n_rounds)]


# ---------------------------------------------------------------------------
# compose: the paper's main theorem, as `opencob verify theorem` runs it

COMPOSE_BOUNDS = harness.Bounds(max_h=8)
# Pairs per round whose half preset is undefined, by h_p + h_f (2 stands
# for 0..2); one more pair per round, with the half preset defined and
# h_p + h_f in HALF_SIZES, is verified under both presets.  Up to size 7
# the quota follows the generator's own frequencies, which makes the
# cheap sizes many: the median falls inside size 7 and barely moves from
# seed to seed.  Above it the quota thins out, so that sizes 11 to 13 take
# about a third of the time without a single seed's shapes deciding the
# throughput, and the 95th percentile falls inside size 10.
COMPOSE_QUOTA = {13: 1, 12: 1, 11: 1, 10: 8, 9: 10, 8: 14, 7: 22, 6: 13,
                 5: 12, 4: 9, 3: 6, 2: 3}
HALF_SIZES = range(4, 9)


def compose_rounds(rng: random.Random, n_rounds: int) -> list:
    def draw():
        fp, f = harness.random_composable_pair(rng, COMPOSE_BOUNDS)
        size = h_of(fp) + h_of(f)
        if HALF.defined_on(fp) and HALF.defined_on(f):
            return (["half"] if size in HALF_SIZES else []), (size, fp, f)
        return [max(size, 2)], (size, fp, f)

    rounds = []
    for items in fill_rounds(draw, {**COMPOSE_QUOTA, "half": 1}, n_rounds):
        ops = []
        for cls, (size, fp, f) in items:
            ops.append(Op("compose", size, (fp, f, TENSOR)))
            if cls == "half":
                ops.append(Op("compose", size, (fp, f, HALF)))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# glue: one self-gluing per surface, across all seven gluing cases

GLUE_BOUNDS = harness.Bounds(max_h=12)
# The gradings of one round's surfaces, by h (2 stands for h <= 2): T the
# tensor preset, H the half preset (only on surfaces where it is defined),
# R a rational shift (denominators up to 4) and a parity from the harness.
# Sizes 7 and 8 are many, so that the median has plenty of neighbours.
GLUE_SLOTS = {12: "TR", 11: "TR", 10: "HT", 9: "RH", 8: "TRHTRH", 7: "HTRT",
              6: "RH", 5: "T", 4: "R", 3: "H", 2: "T"}


def glue_rounds(rng: random.Random, n_rounds: int) -> list:
    def draw():
        surface = harness.random_surface(rng, GLUE_BOUNDS, require_intervals=2)
        i1, i2 = rng.sample(list(surface.interval_ids()), 2)
        size = h_of(surface)
        kinds = "HTR" if HALF.defined_on(surface) else "TR"
        return [(max(size, 2), g) for g in kinds], (size, surface, i1, i2)

    def grading(kind):
        if kind == "R":
            return opencob.Grading(harness.random_shift(rng),
                                   harness.random_parity(rng))
        return HALF if kind == "H" else TENSOR

    per_round = Counter((h, g) for h, gs in GLUE_SLOTS.items() for g in gs)
    rounds = []
    for items in fill_rounds(draw, per_round, n_rounds):
        ops = [Op("glue", size, (surface, i1, i2, grading(kind)))
               for (_, kind), (size, surface, i1, i2) in items]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# functor: many small monoidal-functor witnesses

# the corollary suite's bounds: one component, genus <= 1, <= 2 circles,
# <= 2 arcs, h <= 3, incoming and outgoing boundary mixed
FUNCTOR_BOUNDS = harness.Bounds(max_components=1, max_genus=1, max_circles=2,
                                max_arcs=2, max_h=3)
# (F, G) pairs per round, two ops each, by h(F) + h(G): close to the
# generator's own frequencies, with one pair of the largest size in every
# round.  Its naturality square is the slowest operation; with 80 operations
# per round, the 99th percentile falls among those squares.
FUNCTOR_PAIRS = {0: 5, 1: 4, 2: 8, 3: 6, 4: 4, 5: 2, 6: 1}
PANTS_MAX_P = 4           # pants_iso has no size budget of its own
PANTS_ALT = opencob.Grading(opencob.ShiftParams(1, Fraction(2, 3), -1, 5),
                            opencob.ParityParams(1, 0, 0, 1))
FUNCTOR_FIXED = tuple(
    [Op("identity", m, (m, g)) for m in (1, 2, 3) for g in (TENSOR, HALF)]
    + [Op("symmetrizer", m1 + m2, (m1, m2))
       for m1, m2 in ((1, 1), (1, 2), (2, 1), (2, 2))]
    + [Op("pants", p, (p, g)) for p in range(PANTS_MAX_P + 1)
       for g in (TENSOR, PANTS_ALT)])


def functor_rounds(rng: random.Random, n_rounds: int) -> list:
    def draw():
        f = harness.random_surface(rng, FUNCTOR_BOUNDS, prefix="f",
                                   all_outgoing=False)
        g = harness.random_surface(rng, FUNCTOR_BOUNDS, prefix="g",
                                   all_outgoing=False)
        return [h_of(f) + h_of(g)], (f, g)

    rounds = []
    for items in fill_rounds(draw, FUNCTOR_PAIRS, n_rounds):
        ops = list(FUNCTOR_FIXED)
        for size, (f, g) in items:
            ops += [Op("union", size, (f, g)), Op("naturality", size, (f, g))]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_rounds: object
    pool_rounds: int       # distinct rounds generated; a run cycles them
    tail_percentile: int   # percentile that verify_tail_ms reports


WORKLOADS = {
    "compose": Workload(compose_rounds, 8, 95),
    "glue": Workload(glue_rounds, 48, 95),
    "functor": Workload(functor_rounds, 120, 99),
}


def call(op: Op):
    """One verification through the library's public entry points, with
    their default arguments, looked up at call time."""
    a = op.args
    if op.kind == "compose":
        return opencob.compose_iso(*a)
    if op.kind == "glue":
        return opencob.self_glue_iso(*a)
    if op.kind == "union":
        return opencob.union_iso(opencob.build(a[0], TENSOR),
                                 opencob.build(a[1], TENSOR))
    if op.kind == "naturality":
        return opencob.naturality_square(opencob.build(a[0], TENSOR),
                                         opencob.build(a[1], TENSOR))
    if op.kind == "identity":
        return opencob.identity_iso(*a)
    if op.kind == "symmetrizer":
        return opencob.symmetrizer_iso(*a, TENSOR)
    if op.kind == "pants":
        return opencob.pants_iso(*a)
    raise ValueError(f"unknown operation {op.kind!r}")


def check(op: Op, result):
    """The benchmark's own checks of one output: None, or why it is wrong."""
    a = op.args
    if op.kind == "compose":
        return check_graded_iso(result.iso, h_of(opencob.compose(a[0], a[1])))
    if op.kind == "glue":
        surface, i1, i2, _ = a
        actions = opencob.statespace.action_matrix
        remaining = [s for s in surface.outgoing if s not in (i1, i2)
                     and s in surface.interval_ids()]
        src = {s: actions(result.source_space, s) for s in remaining + [i1, i2]}
        dst = {s: actions(result.target_space, s) for s in remaining}
        glued = opencob.glue_intervals(surface, i1, i2).surface
        return check_glue(result, surface, i1, i2, glued, src, dst)
    if op.kind in ("union", "naturality"):
        return check_graded_iso(result, h_of(a[0]) + h_of(a[1]))
    if op.kind == "identity":
        surface = opencob.identity_cobordism(a[0])
    elif op.kind == "symmetrizer":
        surface = opencob.symmetrizer_cobordism(*a)
    else:
        surface = opencob.open_pants(a[0])
    return (check_signed_permutation(result.matrix)
            or check_graded_iso(result, h_of(surface)))


def mix_tag(op: Op, result) -> str:
    """What one verified operation was, for the input make-up: the
    certificate of a composition, the case of a gluing, else the kind."""
    if op.kind == "compose":
        return result.iso.checks[-1]
    if op.kind == "glue":
        return result.case_tag + ("" if result.iso is None else " explicit")
    return op.kind
