"""Seeded random surfaces and the verification suites.

Every suite is deterministic for a fixed seed; reports are byte-identical
across runs (wall time is kept out of the canonical text).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import gluing, statespace
from .grading import (PRESET_HALF, PRESET_TENSOR, ConstraintCoeffs, Grading,
                      ParityParams, ShiftParams, constraint_residuals,
                      delta_coeffs, solve_constraints)
from .homology import canonical_basis, cw_relative_h1
from .statespace import build, graded_superdim
from .surface import (BoundaryCircle, Component, SurfaceError,
                      SuturedSurface, format_surface, rank_h, surface_fgp)

# random_surface's weights for a component's genus (from 0) and number of
# circles (from 0), and a mixed circle's number of arcs (from 1); Bounds
# refuses a maximum past the end of its table
GENUS_WEIGHTS = (6, 3, 1)
CIRCLE_WEIGHTS = (1, 6, 3, 2)
ARC_WEIGHTS = (6, 3, 1)


@dataclass(frozen=True)
class Bounds:
    max_components: int = 3
    max_genus: int = 2
    max_circles: int = 3
    max_arcs: int = 3
    max_h: int = 8

    def __post_init__(self):
        for name, low in (("max_components", 1), ("max_h", 0)):
            if getattr(self, name) < low:
                raise ValueError(
                    f"{name} must be at least {low}, got {getattr(self, name)}")
        for name, low, high in (("max_genus", 0, len(GENUS_WEIGHTS) - 1),
                                ("max_circles", 0, len(CIRCLE_WEIGHTS) - 1),
                                ("max_arcs", 1, len(ARC_WEIGHTS))):
            value = getattr(self, name)
            if not low <= value <= high:
                raise ValueError(
                    f"{name} must be in {low}..{high}, got {value}")


@dataclass
class Failure:
    seed: int
    trial: int
    identity: str
    instance: str

    def to_text(self) -> str:
        lines = [f"FAIL trial={self.trial} seed={self.seed}: {self.identity}"]
        for ln in self.instance.rstrip().splitlines():
            lines.append("    " + ln)
        return "\n".join(lines)


@dataclass
class VerificationReport:
    suite: str
    seed: int
    trials: int
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        """Canonical report body; excludes wall time so that reruns with the
        same seed/trials/version are byte-identical."""
        lines = [f"suite: {self.suite}",
                 f"seed: {self.seed}",
                 f"trials: {self.trials}"]
        lines.extend(self.notes)
        if self.failures:
            lines.append(f"failures: {len(self.failures)}")
            for f in self.failures:
                lines.append(f.to_text())
        else:
            lines.append("failures: 0")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# random surfaces


def _fresh_ids(prefix, counter, n):
    out = []
    for _ in range(n):
        counter[0] += 1
        out.append(f"{prefix}{counter[0]}")
    return out


def random_surface(rng: random.Random, bounds: Bounds = Bounds(), *,
                   prefix: str = "s", all_outgoing: bool = True,
                   require_intervals: int = 0) -> SuturedSurface:
    """Draw a valid surface from the constructive grammar, h <= bounds.max_h."""
    for _ in range(400):
        counter = [0]
        comps = []
        for _ in range(rng.randint(1, bounds.max_components)):
            genus = rng.choices(range(bounds.max_genus + 1),
                                weights=GENUS_WEIGHTS[: bounds.max_genus + 1])[0]
            n_circ = rng.choices(range(bounds.max_circles + 1),
                                 weights=CIRCLE_WEIGHTS[: bounds.max_circles + 1])[0]
            circles = []
            for _ in range(n_circ):
                kind = rng.choices(("mixed", "full+", "full-"),
                                   weights=(6, 2, 2))[0]
                if kind == "mixed":
                    n_arcs = rng.choices(range(1, bounds.max_arcs + 1),
                                         weights=ARC_WEIGHTS[: bounds.max_arcs])[0]
                    circles.append(
                        BoundaryCircle.mixed(*_fresh_ids(prefix, counter, n_arcs)))
                elif kind == "full+":
                    circles.append(
                        BoundaryCircle.full_plus(_fresh_ids(prefix, counter, 1)[0]))
                else:
                    circles.append(BoundaryCircle.full_minus())
            comps.append(Component(genus, tuple(circles)))
        surf = SuturedSurface.all_outgoing(comps)
        if rank_h(surf) > bounds.max_h:
            continue
        if len(surf.interval_ids()) < require_intervals:
            continue
        if not all_outgoing:
            inc = tuple(s for s in surf.outgoing if rng.random() < 0.5)
            out = tuple(s for s in surf.outgoing if s not in inc)
            surf = SuturedSurface(surf.components, inc, out)
        return surf
    raise RuntimeError("random surface generation failed to meet the bounds")


def check_pair_h(max_h: int) -> None:
    """Refuse a ``max_h`` below 2: a surface carrying an interface of three
    intervals with h <= 1 needs several components, which the generator
    rarely draws, so ``random_composable_pair`` would give up."""
    if max_h < 2:
        raise ValueError(
            f"max-h must be at least 2 to draw composable pairs, got {max_h}")


def random_composable_pair(rng: random.Random, bounds: Bounds = Bounds()):
    """(F', F) with outgoing(F) = incoming(F') an interval-only interface;
    ValueError if ``check_pair_h`` refuses ``bounds.max_h``."""
    check_pair_h(bounds.max_h)
    for _ in range(200):
        k = rng.randint(1, 3)
        f = random_surface(rng, bounds, prefix="f", require_intervals=k)
        fp = random_surface(rng, bounds, prefix="p", require_intervals=k)
        if rank_h(f) + rank_h(fp) > statespace.MAX_STATE_H:
            continue
        f_int = list(f.interval_ids())
        interface_f = rng.sample(f_int, k)
        f_ids = f.splus_ids()
        f2 = SuturedSurface(f.components,
                            tuple(s for s in f_ids if s not in interface_f),
                            tuple(interface_f))
        p_int = list(fp.interval_ids())
        interface_p = rng.sample(p_int, k)
        p_ids = fp.splus_ids()
        fp2 = SuturedSurface(fp.components,
                             tuple(interface_p),
                             tuple(s for s in p_ids if s not in interface_p))
        return fp2, f2
    raise RuntimeError("random pair generation failed")


def random_shift(rng: random.Random) -> ShiftParams:
    def frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return ShiftParams(frac(), frac(), frac(), frac())


def random_parity(rng: random.Random) -> ParityParams:
    return ParityParams(*(rng.randint(0, 1) for _ in range(4)))


def _smaller_components(comps):
    """Component lists one step smaller than ``comps``: one component, then
    one boundary circle, then one S+ arc of a mixed circle dropped."""
    if len(comps) > 1:
        for ci in range(len(comps)):
            yield comps[:ci] + comps[ci + 1:]
    for ci, comp in enumerate(comps):
        for bi in range(len(comp.circles)):
            circles = comp.circles[:bi] + comp.circles[bi + 1:]
            yield comps[:ci] + [Component(comp.genus, circles)] + comps[ci + 1:]
    for ci, comp in enumerate(comps):
        for bi, circ in enumerate(comp.circles):
            ids = circ.plus_ids()
            if circ.kind != "mixed" or len(ids) <= 1:
                continue
            for sid in ids:
                circles = list(comp.circles)
                circles[bi] = BoundaryCircle.mixed(*(s for s in ids if s != sid))
                yield (comps[:ci] + [Component(comp.genus, tuple(circles))]
                       + comps[ci + 1:])


def shrink_surface(surface: SuturedSurface, predicate):
    """Greedy shrink: move to the first smaller candidate on which the
    failure predicate still holds, until none does.

    Candidates that are not valid surfaces are skipped; an exception raised
    by ``predicate`` propagates.
    """
    current = surface
    while True:
        for comps in _smaller_components(list(current.components)):
            ids = {i for c in comps for b in c.circles for i in b.plus_ids()}
            try:
                cand = SuturedSurface(
                    tuple(comps),
                    tuple(s for s in surface.incoming if s in ids),
                    tuple(s for s in surface.outgoing if s in ids))
            except SurfaceError:
                continue
            if predicate(cand):
                current = cand
                break
        else:
            return current


# ---------------------------------------------------------------------------
# suites


def _instance_dump(grading, *surfaces):
    parts = [grading.describe() if grading is not None else ""]
    for s in surfaces:
        parts.append(format_surface(s))
    return "\n".join(p for p in parts if p)


def shrink_failing_pair(fp: SuturedSurface, f: SuturedSurface, failing):
    """Greedily reduce a failing composable pair to a minimal failing one.

    ``failing(fp, f)`` must return True exactly when the failure reproduces;
    candidates that break the interface are rejected by the guard.
    """
    interface = set(fp.incoming) | set(f.outgoing)

    def guarded(candidate_fp, candidate_f):
        ids = set(candidate_fp.splus_ids()) | set(candidate_f.splus_ids())
        if not interface <= ids:
            return False
        try:
            return failing(candidate_fp, candidate_f)
        except Exception:
            return False

    f = shrink_surface(f, lambda s: guarded(fp, s))
    fp = shrink_surface(fp, lambda s: guarded(s, f))
    return fp, f


def verify_theorem(seed=0, trials=200, max_h=8) -> VerificationReport:
    rng = random.Random(seed)
    bounds = Bounds(max_h=max_h)
    report = VerificationReport("theorem", seed, trials)

    def run(pair_fp, pair_f, grading):
        res = gluing.compose_iso(pair_fp, pair_f, grading)
        if graded_superdim(res.composed_space) != res.iso.source.superdim():
            raise gluing.ConventionMismatch("superdimension mismatch")

    for t in range(trials):
        fp, f = random_composable_pair(rng, bounds)
        for grading in (PRESET_TENSOR, PRESET_HALF):
            if not (grading.defined_on(f) and grading.defined_on(fp)):
                continue
            try:
                run(fp, f, grading)
            except Exception as exc:
                def still_fails(cand_fp, cand_f, _g=grading, _e=type(exc)):
                    try:
                        run(cand_fp, cand_f, _g)
                    except _e:
                        return True
                    return False
                small_fp, small_f = shrink_failing_pair(fp, f, still_fails)
                report.failures.append(Failure(
                    seed, t, f"{type(exc).__name__}: {exc}",
                    _instance_dump(grading, small_fp, small_f)))
    return report


def lemma_case_instances():
    """The ten handcrafted instances, one per case and sub-case."""
    mk = BoundaryCircle.mixed
    surf = SuturedSurface.all_outgoing

    out = []
    out.append(("1-1", 1, surf([Component(0, (mk("i1"),)),
                                Component(0, (mk("i2"),))]), "i1", "i2"))
    out.append(("1-2", 0, surf([Component(0, (mk("i1", "u"),)),
                                Component(0, (mk("i2"),))]), "i1", "i2"))
    out.append(("1-3", 1, surf([Component(0, (mk("i1"), mk("u"))),
                                Component(0, (mk("i2"), mk("w")))]), "i1", "i2"))
    out.append(("2-1a", 0, surf([Component(0, (mk("i1", "x", "i2", "y"),))]),
                "i1", "i2"))
    out.append(("2-1a", 1, surf([Component(0, (mk("i1", "i2", "x"),))]),
                "i1", "i2"))
    out.append(("2-1a", 2, surf([Component(0, (mk("i1", "i2"), mk("x")))]),
                "i1", "i2"))
    out.append(("2-1b", 2, surf([Component(0, (mk("i1", "i2"),))]), "i1", "i2"))
    out.append(("2-2a", 0, surf([Component(0, (mk("i1", "x"), mk("i2", "y")))]),
                "i1", "i2"))
    out.append(("2-2a", 1, surf([Component(0, (mk("i1"), mk("i2"), mk("x")))]),
                "i1", "i2"))
    out.append(("2-2b", 1, surf([Component(0, (mk("i1"), mk("i2")))]), "i1", "i2"))
    return out


def verify_lemma_cases(seed=0, trials=None, max_h=None) -> VerificationReport:
    instances = lemma_case_instances()
    report = VerificationReport("lemma-cases", seed, len(instances))
    rng = random.Random(seed)
    gradings = [PRESET_TENSOR,
                Grading(random_shift(rng), random_parity(rng)),
                Grading(random_shift(rng), random_parity(rng))]
    for t, (case, created, surf, i1, i2) in enumerate(instances):
        for grading in gradings:
            try:
                res = gluing.self_glue_iso(surf, i1, i2, grading)
                if res.case_tag != case:
                    raise gluing.ConventionMismatch(
                        f"expected case {case}, got {res.case_tag}")
                if res.created_sminus_circles != created:
                    raise gluing.ConventionMismatch(
                        f"expected {created} new S- circles, got "
                        f"{res.created_sminus_circles}")
            except Exception as exc:
                report.failures.append(Failure(
                    seed, t, f"case {case}: {type(exc).__name__}: {exc}",
                    _instance_dump(grading, surf)))
    report.notes.append("cases: " + ", ".join(
        f"{c}/{n}" for c, n, *_ in instances))
    return report


def verify_pants(seed=0, trials=5, max_h=None) -> VerificationReport:
    report = VerificationReport("pants", seed, trials)
    alt = Grading(ShiftParams(1, Fraction(2, 3), -1, 5),
                  ParityParams(1, 0, 0, 1))
    for p in range(trials):
        for grading in (PRESET_TENSOR, alt):
            try:
                iso = gluing.pants_iso(p, grading)
                top = iso.matrix.col(iso.source.dim - 1)
                if top != {0: 1} and top != {0: -1}:
                    raise gluing.ConventionMismatch(
                        "top monomial does not map to +-1")
            except Exception as exc:
                report.failures.append(Failure(
                    seed, p, f"p={p}: {type(exc).__name__}: {exc}",
                    grading.describe()))
    return report


def verify_corollary(seed=0, trials=20, max_h=4) -> VerificationReport:
    rng = random.Random(seed)
    report = VerificationReport("corollary", seed, trials)
    try:
        for m in (1, 2, 3):
            gluing.identity_iso(m, PRESET_TENSOR)
            gluing.identity_iso(m, PRESET_HALF)
        for m1, m2 in ((1, 1), (1, 2), (2, 1), (2, 2)):
            gluing.symmetrizer_iso(m1, m2, PRESET_TENSOR)
    except Exception as exc:
        report.failures.append(Failure(
            seed, -1, f"structural: {type(exc).__name__}: {exc}", ""))
    small = Bounds(max_components=1, max_genus=1, max_circles=2,
                   max_arcs=2, max_h=3)
    for t in range(trials):
        f = random_surface(rng, small, prefix="f", all_outgoing=False)
        g = random_surface(rng, small, prefix="g", all_outgoing=False)
        try:
            f_space = build(f, PRESET_TENSOR)
            g_space = build(g, PRESET_TENSOR)
            gluing.union_iso(f_space, g_space)
            gluing.naturality_square(f_space, g_space)
        except Exception as exc:
            report.failures.append(Failure(
                seed, t, f"{type(exc).__name__}: {exc}",
                _instance_dump(PRESET_TENSOR, f, g)))
    return report


def verify_constraints(seed=0, trials=50, max_h=None) -> VerificationReport:
    rng = random.Random(seed)
    report = VerificationReport("constraints", seed, trials)
    sol = solve_constraints()
    if sol.free != (2, 4, 6, 8):
        report.failures.append(Failure(
            seed, -1, f"free variables {sol.free} != (C3, C5, C7, C9)", ""))
    expected = {
        0: (Fraction(0), {8: Fraction(-2)}),   # C1 = -2 C9
        1: (Fraction(0), {8: Fraction(2)}),    # C2 = 2 C9
        3: (Fraction(-1), {}),                 # C4 = -1
        5: (Fraction(-1, 2), {8: Fraction(1, 2)}),  # C6 = (C9 - 1)/2
        7: (Fraction(0), {8: Fraction(1)}),    # C8 = C9
    }
    for idx, want in expected.items():
        got = sol.exprs.get(idx)
        if got != want:
            report.failures.append(Failure(
                seed, -1, f"C{idx+1} solved as {got}, expected {want}", ""))
    for t in range(trials):
        shift = random_shift(rng)
        res = constraint_residuals(delta_coeffs(shift))
        if any(r != 0 for r in res):
            report.failures.append(Failure(
                seed, t, f"in-family residuals nonzero: {res}", str(shift)))
    pivots = [0, 1, 3, 5, 7]
    for t in range(trials):
        coeffs = sol.sample(*(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                              for _ in range(4)))
        k = pivots[rng.randrange(len(pivots))]
        bump = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        vec = list(coeffs.c)
        vec[k] += bump
        res = constraint_residuals(ConstraintCoeffs(tuple(vec)))
        if all(r == 0 for r in res):
            report.failures.append(Failure(
                seed, t, f"perturbing C{k+1} left all residuals zero", str(vec)))
    return report


def verify_dimensions(seed=0, trials=None, max_h=None) -> VerificationReport:
    instances = [(g, p) for g in range(4) for p in range(1, 5)]
    report = VerificationReport("dimensions", seed, len(instances))
    for g, p in instances:
        surf = surface_fgp(g, p)
        try:
            space = build(surf, PRESET_HALF)
            got = graded_superdim(space)
            want = statespace.reference_dimension_fgp(g, p)
            if got != want:
                raise gluing.ConventionMismatch(f"{got} != {want}")
            if not got.exponents_integral():
                raise gluing.ConventionMismatch("non-integral exponent")
        except Exception as exc:
            report.failures.append(Failure(
                seed, 4 * g + p, f"(g,p)=({g},{p}): {exc}", ""))
    return report


def verify_homology_oracle(seed=0, trials=100, max_h=8) -> VerificationReport:
    rng = random.Random(seed)
    report = VerificationReport("homology-oracle", seed, trials)
    bounds = Bounds(max_h=max_h)
    for t in range(trials):
        surf = random_surface(rng, bounds)
        try:
            rank, factors = cw_relative_h1(surf)
            if rank != rank_h(surf):
                raise AssertionError(
                    f"CW rank {rank} != count formula {rank_h(surf)}")
            if any(d != 1 for d in factors):
                raise AssertionError(f"torsion detected: {factors}")
            basis = canonical_basis(surf)
            if len(basis) != rank_h(surf):
                raise AssertionError("basis size != h")
        except Exception as exc:
            report.failures.append(Failure(
                seed, t, f"{type(exc).__name__}: {exc}",
                format_surface(surf)))
    return report


SUITES = {
    "theorem": verify_theorem,
    "lemma-cases": verify_lemma_cases,
    "pants": verify_pants,
    "corollary": verify_corollary,
    "constraints": verify_constraints,
    "dimensions": verify_dimensions,
    "homology-oracle": verify_homology_oracle,
}

DEFAULT_TRIALS = {
    "theorem": 200,
    "pants": 5,
    "corollary": 20,
    "constraints": 50,
    "homology-oracle": 100,
}


def resolve_trials(name: str, trials=None) -> int | None:
    """The suite's trial count: its default, or ``trials`` once checked.

    ``lemma-cases`` and ``dimensions`` run fixed instance lists, report
    their length, and refuse any ``trials``: their count is None."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if name in ("lemma-cases", "dimensions"):
        if trials is None:
            return None
        raise ValueError(f"{name} runs a fixed list of instances and takes "
                         f"no trial count")
    if trials is None:
        return DEFAULT_TRIALS[name]
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if name == "pants" and trials > statespace.MAX_STATE_H + 1:
        raise ValueError(
            f"pants trials run p = 0 .. trials-1 with p capped at "
            f"{statespace.MAX_STATE_H}; got {trials} trials")
    return trials


def check_max_h(name: str, max_h: int) -> None:
    """Refuse a ``max_h`` the suite's surface generator cannot meet.

    Every suite refuses a bound that ``Bounds`` refuses, and ``theorem``
    one that ``random_composable_pair`` refuses.
    """
    Bounds(max_h=max_h)
    if name == "theorem":
        check_pair_h(max_h)


def run_suite(name: str, seed=0, trials=None, max_h=8) -> VerificationReport:
    trials = resolve_trials(name, trials)
    check_max_h(name, max_h)
    t0 = time.monotonic()
    report = SUITES[name](seed=seed, trials=trials, max_h=max_h)
    report.wall_time = time.monotonic() - t0
    return report
