"""Combinatorial sutured surfaces viewed as open-closed cobordisms.

A surface is a list of components; each component has a genus and an ordered
list of boundary circles.  A boundary circle is either entirely in S+ (it
carries one S+ id), entirely in S-, or mixed: an alternating cyclic word of
S+ arcs (each with its own id) and S- arcs.  Every S+ component is labeled
incoming or outgoing, and each side is ordered.
"""

from __future__ import annotations

from dataclasses import dataclass


class SurfaceError(ValueError):
    pass


class AlternationViolation(SurfaceError):
    pass


class DuplicateSPlusId(SurfaceError):
    pass


class OrderingMismatch(SurfaceError):
    pass


class NotAnInterval(SurfaceError):
    pass


class NotOutgoing(SurfaceError):
    pass


class SameInterval(SurfaceError):
    pass


class ArityMismatch(SurfaceError):
    pass


class CircleInGluingRegion(SurfaceError):
    pass


class ParseError(SurfaceError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


FULL_PLUS = "full+"
FULL_MINUS = "full-"
MIXED = "mixed"


@dataclass(frozen=True)
class BoundaryCircle:
    """One boundary circle.

    ``word`` is the cyclic boundary word for mixed circles: S+ arcs appear as
    their id strings, S- arcs as None.  It is canonically rotated to start at
    the smallest S+ id.  For full circles the word is empty.
    """

    kind: str
    plus_id: str | None = None
    word: tuple[str | None, ...] = ()

    @staticmethod
    def full_plus(sid: str) -> "BoundaryCircle":
        return BoundaryCircle(FULL_PLUS, plus_id=sid)

    @staticmethod
    def full_minus() -> "BoundaryCircle":
        return BoundaryCircle(FULL_MINUS)

    @staticmethod
    def mixed(*ids: str) -> "BoundaryCircle":
        word: list[str | None] = []
        for sid in ids:
            word.extend((sid, None))
        return BoundaryCircle.raw_mixed(tuple(word))

    @staticmethod
    def raw_mixed(word: tuple[str | None, ...]) -> "BoundaryCircle":
        # canonical rotation: start at the smallest S+ id if there is one
        ids = [w for w in word if w is not None]
        if ids:
            k = word.index(min(ids))
            word = word[k:] + word[:k]
        return BoundaryCircle(MIXED, word=word)

    def plus_ids(self) -> tuple[str, ...]:
        if self.kind == FULL_PLUS:
            return (self.plus_id,)
        return tuple(w for w in self.word if w is not None)

    def meets_sminus(self) -> bool:
        return self.kind == FULL_MINUS or self.kind == MIXED

    def __str__(self):
        if self.kind == FULL_PLUS:
            return f"full+ {self.plus_id}"
        if self.kind == FULL_MINUS:
            return "full-"
        toks = [w if w is not None else "-" for w in self.word]
        return "mixed " + " ".join(toks)


@dataclass(frozen=True)
class Component:
    genus: int
    circles: tuple[BoundaryCircle, ...] = ()

    @property
    def closed(self) -> bool:
        return not self.circles


@dataclass(frozen=True)
class SuturedSurface:
    components: tuple[Component, ...] = ()
    incoming: tuple[str, ...] = ()
    outgoing: tuple[str, ...] = ()

    def __post_init__(self):
        validate(self)

    def splus_ids(self) -> tuple[str, ...]:
        out = []
        for comp in self.components:
            for circ in comp.circles:
                out.extend(circ.plus_ids())
        return tuple(out)

    def interval_ids(self) -> tuple[str, ...]:
        out = []
        for comp in self.components:
            for circ in comp.circles:
                if circ.kind == MIXED:
                    out.extend(circ.plus_ids())
        return tuple(out)

    def circle_ids(self) -> tuple[str, ...]:
        out = []
        for comp in self.components:
            for circ in comp.circles:
                if circ.kind == FULL_PLUS:
                    out.append(circ.plus_id)
        return tuple(out)

    def is_interval(self, sid: str) -> bool:
        return sid in self.interval_ids()

    def locate(self, sid: str):
        """Return (component index, circle index) of the S+ component ``sid``."""
        for ci, comp in enumerate(self.components):
            for bi, circ in enumerate(comp.circles):
                if sid in circ.plus_ids():
                    return ci, bi
        raise SurfaceError(f"unknown S+ id {sid!r}")

    def splus_of_component(self, ci: int) -> tuple[str, ...]:
        out = []
        for circ in self.components[ci].circles:
            out.extend(circ.plus_ids())
        return tuple(out)


def validate(surface: SuturedSurface) -> None:
    """Raise a SurfaceError naming the offender if any invariant fails."""
    seen: set[str] = set()
    for ci, comp in enumerate(surface.components):
        if comp.genus < 0:
            raise SurfaceError(f"component {ci}: negative genus")
        for bi, circ in enumerate(comp.circles):
            where = f"component {ci}, circle {bi}"
            if circ.kind == FULL_PLUS:
                if circ.plus_id is None:
                    raise SurfaceError(f"{where}: full+ circle without id")
                ids = [circ.plus_id]
            elif circ.kind == FULL_MINUS:
                ids = []
            elif circ.kind == MIXED:
                word = circ.word
                if len(word) < 2 or len(word) % 2 != 0:
                    raise AlternationViolation(
                        f"{where}: mixed word must have even length >= 2")
                for k, arc in enumerate(word):
                    nxt = word[(k + 1) % len(word)]
                    if (arc is None) == (nxt is None):
                        raise AlternationViolation(
                            f"{where}: adjacent arcs of the same sign at position {k}")
                ids = [w for w in word if w is not None]
            else:
                raise SurfaceError(f"{where}: unknown circle kind {circ.kind!r}")
            for sid in ids:
                if sid in seen:
                    raise DuplicateSPlusId(f"S+ id {sid!r} occurs twice")
                seen.add(sid)
    labeled = list(surface.incoming) + list(surface.outgoing)
    if len(set(labeled)) != len(labeled):
        dup = next(s for s in labeled if labeled.count(s) > 1)
        raise OrderingMismatch(f"S+ id {dup!r} listed twice in incoming/outgoing")
    if set(labeled) != seen:
        missing = seen - set(labeled)
        extra = set(labeled) - seen
        if missing:
            raise OrderingMismatch(f"S+ ids not labeled incoming/outgoing: {sorted(missing)}")
        raise OrderingMismatch(f"labeled ids not on the surface: {sorted(extra)}")


@dataclass(frozen=True)
class CountVector:
    """The nine combinatorial counts every degree/parity formula is built from."""

    k1: int  # components
    k2: int  # total genus
    k3: int  # closed components
    k4: int  # non-closed components with no S+
    k5: int  # non-closed components with no S-
    k6: int  # S+ intervals
    k7: int  # S+ circles
    k8: int  # S- circles
    k9: int  # boundary circles with both S+ and S-

    def as_tuple(self):
        return (self.k1, self.k2, self.k3, self.k4, self.k5,
                self.k6, self.k7, self.k8, self.k9)

    def __add__(self, other):
        return CountVector(*(a + b for a, b in
                             zip(self.as_tuple(), other.as_tuple())))

    @property
    def h(self) -> int:
        """rank of H_1(F, S+; Z) from the combinatorial count formula."""
        return (-2 * self.k1 + 2 * self.k2 + 2 * self.k3 + self.k4 + self.k5
                + self.k6 + self.k7 + self.k8 + self.k9)


def counts(surface: SuturedSurface) -> CountVector:
    k1 = len(surface.components)
    k2 = k3 = k4 = k5 = k6 = k7 = k8 = k9 = 0
    for comp in surface.components:
        k2 += comp.genus
        if comp.closed:
            k3 += 1
            continue
        has_plus = any(c.kind != FULL_MINUS for c in comp.circles)
        has_minus = any(c.meets_sminus() for c in comp.circles)
        if not has_plus:
            k4 += 1
        if not has_minus:
            k5 += 1
        for circ in comp.circles:
            if circ.kind == FULL_PLUS:
                k7 += 1
            elif circ.kind == FULL_MINUS:
                k8 += 1
            else:
                k9 += 1
                k6 += len(circ.plus_ids())
    return CountVector(k1, k2, k3, k4, k5, k6, k7, k8, k9)


def rank_h(surface: SuturedSurface) -> int:
    """rank of H_1(F, S+; Z) from the combinatorial count formula."""
    return counts(surface).h


def euler_characteristic(surface: SuturedSurface) -> int:
    return sum(2 - 2 * c.genus - len(c.circles) for c in surface.components)


# ---------------------------------------------------------------------------
# disjoint union


def disjoint_union_with_maps(f: SuturedSurface, g: SuturedSurface):
    """Disjoint union (f first); returns (surface, id map applied to g).

    Colliding S+ ids on the g side are relabeled deterministically.
    """
    taken = set(f.splus_ids())
    gmap: dict[str, str] = {}
    for sid in g.splus_ids():
        new = sid
        n = 1
        while new in taken:
            new = f"{sid}~{n}"
            n += 1
        gmap[sid] = new
        taken.add(new)

    def relabel(circ: BoundaryCircle) -> BoundaryCircle:
        if circ.kind == FULL_PLUS:
            return BoundaryCircle.full_plus(gmap[circ.plus_id])
        if circ.kind == MIXED:
            return BoundaryCircle.raw_mixed(
                tuple(gmap[w] if w is not None else None for w in circ.word))
        return circ

    comps = f.components + tuple(
        Component(c.genus, tuple(relabel(b) for b in c.circles))
        for c in g.components)
    inc = f.incoming + tuple(gmap[s] for s in g.incoming)
    out = f.outgoing + tuple(gmap[s] for s in g.outgoing)
    return SuturedSurface(comps, inc, out), gmap


def disjoint_union(f: SuturedSurface, g: SuturedSurface) -> SuturedSurface:
    return disjoint_union_with_maps(f, g)[0]


# ---------------------------------------------------------------------------
# interval gluing


def classify_gluing(surface: SuturedSurface, i1: str, i2: str) -> str:
    """Case tag of the gluing taxonomy: 1-1, 1-2, 1-3, 2-1a, 2-1b, 2-2a, 2-2b."""
    if i1 == i2:
        raise SameInterval(f"cannot glue {i1!r} to itself")
    for sid in (i1, i2):
        if sid not in surface.interval_ids():
            raise NotAnInterval(f"{sid!r} is not an S+ interval")
        if sid not in surface.outgoing:
            raise NotOutgoing(f"{sid!r} is not outgoing")
    c1, b1 = surface.locate(i1)
    c2, b2 = surface.locate(i2)
    if c1 != c2:
        alone1 = surface.splus_of_component(c1) == (i1,)
        alone2 = surface.splus_of_component(c2) == (i2,)
        if alone1 and alone2:
            return "1-1"
        if alone1 or alone2:
            return "1-2"
        return "1-3"
    alone = set(surface.splus_of_component(c1)) == {i1, i2}
    if b1 == b2:
        return "2-1b" if alone else "2-1a"
    return "2-2b" if alone else "2-2a"


# Degree shift of Z(F-bar) over Z(F) in each gluing case; h(F-bar) is
# h(F) minus the same amount.
CASE_DEGREE_SHIFT = {"1-1": 0, "1-2": 1, "1-3": 1, "2-1a": 1,
                     "2-1b": 0, "2-2a": 1, "2-2b": 0}


@dataclass(frozen=True)
class GlueResult:
    surface: SuturedSurface
    case_tag: str
    created_sminus_circles: int
    comp_map: dict          # old component index -> new component index
    circle_map: dict        # untouched old (comp, circle) -> new (comp, circle)
    torus_shift: dict       # old component index -> index offset of its genus classes
    new_genus_indices: tuple  # (comp, index) pairs of genus classes created (case 2-2)
    new_circles: tuple      # new (comp, circle) keys created by a split (case 2-1)


def _after(circ: BoundaryCircle, sid: str) -> list[str]:
    """The S+ ids of ``circ`` in cyclic order, starting just after ``sid``."""
    ids = [w for w in circ.word if w is not None]
    j = ids.index(sid)
    return ids[j + 1:] + ids[:j]


def _mixed_or_minus(ids: list[str]) -> BoundaryCircle:
    if ids:
        return BoundaryCircle.mixed(*ids)
    return BoundaryCircle.full_minus()


def glue_intervals(surface: SuturedSurface, i1: str, i2: str) -> GlueResult:
    """Glue the outgoing intervals i1 and i2, orientation-reversingly.

    The boundary-word surgery removes both S+ arcs and splices their S-
    neighbors.  If i1 and i2 lie on one circle, it splits in two (case
    2-1), into the circle after i2 and the circle after i1.  Otherwise
    their two circles merge into one, which joins two components (1-x) or
    adds a handle (2-2).  The glued component takes the lower component's
    place, with the kept circles of the one or two old components in order,
    then the new circles; every other component and circle keeps its place.
    """
    case = classify_gluing(surface, i1, i2)
    comps = surface.components
    # the lower component first; on one component, i1 first (sort is stable)
    (ca, ba, ia), (cb, bb, ib) = sorted(
        (surface.locate(i1) + (i1,), surface.locate(i2) + (i2,)),
        key=lambda end: end[0])
    circ_a = comps[ca].circles[ba]
    owners = (ca,) if ca == cb else (ca, cb)
    kept = [(ci, bi) for ci in owners for bi in range(len(comps[ci].circles))
            if (ci, bi) not in ((ca, ba), (cb, bb))]
    new_circles: tuple = ()
    if (ca, ba) == (cb, bb):     # 2-1: the circle after i2, the one after i1
        ids = _after(circ_a, ia)
        l = ids.index(ib)
        made = (_mixed_or_minus(ids[l + 1:]), _mixed_or_minus(ids[:l]))
        new_circles = ((ca, len(kept)), (ca, len(kept) + 1))
    else:                        # 1-x, 2-2: one merged circle
        made = (_mixed_or_minus(_after(comps[cb].circles[bb], ib)
                                + _after(circ_a, ia)),)
    genus = sum(comps[ci].genus for ci in owners)
    new_genus: tuple = ()
    if case.startswith("2-2"):
        new_genus = ((ca, 2 * genus), (ca, 2 * genus + 1))
        genus += 1
    glued_comp = Component(
        genus, tuple(comps[ci].circles[bi] for ci, bi in kept) + made)

    comp_map: dict[int, int] = {}
    circle_map = {old: (ca, k) for k, old in enumerate(kept)}
    new_comps: list[Component] = []
    for ci, comp in enumerate(comps):
        if ci in owners:
            comp_map[ci] = ca
            if ci == ca:
                new_comps.append(glued_comp)
            continue
        comp_map[ci] = len(new_comps)
        new_comps.append(comp)
        for bi in range(len(comp.circles)):
            circle_map[(ci, bi)] = (comp_map[ci], bi)
    # the lower component's genus classes come first
    torus_shift = {ci: 0 for ci in comp_map}
    if cb != ca:
        torus_shift[cb] = 2 * comps[ca].genus

    glued = SuturedSurface(
        tuple(new_comps),
        tuple(s for s in surface.incoming if s not in (i1, i2)),
        tuple(s for s in surface.outgoing if s not in (i1, i2)),
    )
    if rank_h(glued) != rank_h(surface) - CASE_DEGREE_SHIFT[case]:
        raise SurfaceError(f"internal: h changed by "
                           f"{rank_h(glued) - rank_h(surface)} in case {case}")
    if euler_characteristic(glued) != euler_characteristic(surface) - 1:
        raise SurfaceError("internal: Euler characteristic did not drop by 1")
    created = sum(c.kind == FULL_MINUS for c in made)
    return GlueResult(glued, case, created, comp_map, circle_map,
                      torus_shift, new_genus, new_circles)


# ---------------------------------------------------------------------------
# composition


def compose_preflight(fp: SuturedSurface, f: SuturedSurface):
    if len(f.outgoing) != len(fp.incoming):
        raise ArityMismatch(
            f"outgoing(F) has {len(f.outgoing)} components, "
            f"incoming(F') has {len(fp.incoming)}")
    for sid in f.outgoing:
        if sid in f.circle_ids():
            raise CircleInGluingRegion(f"outgoing S+ circle {sid!r} in interface")
    for sid in fp.incoming:
        if sid in fp.circle_ids():
            raise CircleInGluingRegion(f"incoming S+ circle {sid!r} in interface")


def compose(fp: SuturedSurface, f: SuturedSurface) -> SuturedSurface:
    """Glue outgoing(f) to incoming(fp) pairwise, in order."""
    compose_preflight(fp, f)
    union, fmap = disjoint_union_with_maps(fp, f)
    # work on the all-outgoing relabeling, then restore labels
    current = SuturedSurface(union.components, (), union.splus_ids())
    for a, b in zip(fp.incoming, f.outgoing):
        current = glue_intervals(current, a, fmap[b]).surface
    return SuturedSurface(current.components,
                          tuple(fmap[s] for s in f.incoming), tuple(fp.outgoing))


# ---------------------------------------------------------------------------
# builders


def surface_fgp(g: int, p: int) -> SuturedSurface:
    """Connected genus-g surface with p boundary circles fully in S+."""
    circles = tuple(BoundaryCircle.full_plus(f"c{k+1}") for k in range(p))
    surf = Component(g, circles)
    return SuturedSurface((surf,), (), tuple(f"c{k+1}" for k in range(p)))


def open_pants(p: int) -> SuturedSurface:
    """Open p-tuple of pants: p incoming intervals (top to bottom), one outgoing.

    The boundary word follows the positively oriented boundary of the disk:
    out, in_p, ..., in_1.
    """
    ins = tuple(f"in{k+1}" for k in range(p))
    word_ids = ("out",) + tuple(reversed(ins))
    comp = Component(0, (BoundaryCircle.mixed(*word_ids),))
    return SuturedSurface((comp,), ins, ("out",))


def identity_cobordism(labels) -> SuturedSurface:
    """Disjoint rectangles, one per label: M x [0,1] for M a union of intervals."""
    labels = _as_labels(labels)
    comps = tuple(
        Component(0, (BoundaryCircle.mixed(f"{lab}.out", f"{lab}.in"),))
        for lab in labels)
    return SuturedSurface(
        comps,
        tuple(f"{lab}.in" for lab in labels),
        tuple(f"{lab}.out" for lab in labels),
    )


def symmetrizer_cobordism(labels1, labels2) -> SuturedSurface:
    """Identity on M1 u M2 with the order of the disjoint union reversed in the target."""
    labels1 = _as_labels(labels1)
    labels2 = _as_labels(labels2, offset=len(labels1))
    all_labels = list(labels1) + list(labels2)
    comps = tuple(
        Component(0, (BoundaryCircle.mixed(f"{lab}.out", f"{lab}.in"),))
        for lab in all_labels)
    inc = tuple(f"{lab}.in" for lab in all_labels)
    out = tuple(f"{lab}.out" for lab in list(labels2) + list(labels1))
    return SuturedSurface(comps, inc, out)


def disk_plus_minus() -> SuturedSurface:
    """Disk whose boundary is one S+ interval and one S- interval."""
    comp = Component(0, (BoundaryCircle.mixed("a"),))
    return SuturedSurface((comp,), (), ("a",))


def annulus(side1, side2) -> SuturedSurface:
    """Annulus with the two boundary circles given as circle specs.

    A spec is ("full+", id), ("full-",) or ("mixed", id1, id2, ...).
    """
    def build(spec):
        if spec[0] == FULL_PLUS:
            return BoundaryCircle.full_plus(spec[1])
        if spec[0] == FULL_MINUS:
            return BoundaryCircle.full_minus()
        return BoundaryCircle.mixed(*spec[1:])

    circles = (build(side1), build(side2))
    ids = [i for c in circles for i in c.plus_ids()]
    comp = Component(0, circles)
    return SuturedSurface((comp,), (), tuple(ids))


def closed_surface(g: int) -> SuturedSurface:
    return SuturedSurface((Component(g),), (), ())


def _as_labels(labels, offset=0):
    if isinstance(labels, int):
        return tuple(str(k + 1 + offset) for k in range(labels))
    return tuple(labels)


# ---------------------------------------------------------------------------
# plain-text surface format


def parse_surface(text: str) -> SuturedSurface:
    """Parse the one-declaration-per-line surface format."""
    comp_names: list[str] = []
    genus: dict[str, int] = {}
    circles: dict[str, list[BoundaryCircle]] = {}
    incoming: list[str] = []
    outgoing: list[str] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for clause in line.split(";"):
            toks = clause.split()
            if not toks:
                continue
            head = toks[0]
            if head == "component":
                if len(toks) != 4 or toks[2] != "genus":
                    raise ParseError(line_no, "expected: component <name> genus <g>")
                name = toks[1]
                if name in genus:
                    raise ParseError(line_no, f"component {name!r} already declared")
                try:
                    g = int(toks[3])
                except ValueError:
                    raise ParseError(line_no, f"bad genus {toks[3]!r}")
                comp_names.append(name)
                genus[name] = g
                circles[name] = []
            elif head == "circle":
                if len(toks) < 3:
                    raise ParseError(line_no, "expected: circle <component> <kind> ...")
                name = toks[1]
                if name not in genus:
                    raise ParseError(line_no, f"unknown component {name!r}")
                kind = toks[2]
                if kind == FULL_PLUS:
                    if len(toks) != 4:
                        raise ParseError(line_no, "expected: circle <c> full+ <id>")
                    circles[name].append(BoundaryCircle.full_plus(toks[3]))
                elif kind == FULL_MINUS:
                    if len(toks) != 3:
                        raise ParseError(line_no, "full- circle takes no ids")
                    circles[name].append(BoundaryCircle.full_minus())
                elif kind == MIXED:
                    word = tuple(None if t == "-" else t for t in toks[3:])
                    if not word:
                        raise ParseError(line_no, "mixed circle needs a word")
                    try:
                        circles[name].append(BoundaryCircle.raw_mixed(word))
                    except SurfaceError as exc:
                        raise ParseError(line_no, str(exc))
                else:
                    raise ParseError(line_no, f"unknown circle kind {kind!r}")
            elif head == "incoming":
                incoming.extend(toks[1:])
            elif head == "outgoing":
                outgoing.extend(toks[1:])
            else:
                raise ParseError(line_no, f"unknown declaration {head!r}")

    comps = tuple(Component(genus[n], tuple(circles[n])) for n in comp_names)
    return SuturedSurface(comps, tuple(incoming), tuple(outgoing))


def format_surface(surface: SuturedSurface) -> str:
    lines = []
    for ci, comp in enumerate(surface.components):
        name = f"C{ci}"
        lines.append(f"component {name} genus {comp.genus}")
        for circ in comp.circles:
            lines.append(f"circle {name} {circ}")
    if surface.incoming:
        lines.append("incoming " + " ".join(surface.incoming))
    if surface.outgoing:
        lines.append("outgoing " + " ".join(surface.outgoing))
    return "\n".join(lines) + "\n"
