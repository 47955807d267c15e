import pytest

from opencob.surface import (AlternationViolation, ArityMismatch,
                             BoundaryCircle, CircleInGluingRegion, Component,
                             DuplicateSPlusId, OrderingMismatch, ParseError,
                             SameInterval, SuturedSurface, annulus,
                             classify_gluing, closed_surface, compose,
                             counts, disjoint_union, disk_plus_minus,
                             euler_characteristic, format_surface,
                             glue_intervals, identity_cobordism, open_pants,
                             parse_surface, rank_h, surface_fgp,
                             symmetrizer_cobordism)

mk = BoundaryCircle.mixed


def surf(comps, inc=(), out=None):
    comps = tuple(comps)
    if out is None:
        ids = tuple(i for c in comps for b in c.circles for i in b.plus_ids())
        out = tuple(s for s in ids if s not in inc)
    return SuturedSurface(comps, tuple(inc), tuple(out))


class TestValidation:
    def test_minimal_mixed_circle_ok(self):
        surf([Component(0, (mk("a"),))])

    def test_adjacent_plus_arcs_rejected(self):
        with pytest.raises(AlternationViolation):
            SuturedSurface((Component(0, (BoundaryCircle.raw_mixed(("a", "b")),)),),
                           (), ("a", "b"))

    def test_odd_word_rejected(self):
        with pytest.raises(AlternationViolation):
            SuturedSurface((Component(0, (BoundaryCircle.raw_mixed(("a", None, "b")),)),),
                           (), ("a", "b"))

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateSPlusId):
            surf([Component(0, (mk("a"), mk("a")))])

    def test_id_in_both_sides_rejected(self):
        with pytest.raises(OrderingMismatch):
            SuturedSurface((Component(0, (mk("a"),)),), ("a",), ("a",))

    def test_unlabeled_id_rejected(self):
        with pytest.raises(OrderingMismatch):
            SuturedSurface((Component(0, (mk("a"),)),), (), ())


class TestCounts:
    def test_fgp(self):
        # connected, genus g, p full+ circles
        assert counts(surface_fgp(2, 3)).as_tuple() == (1, 2, 0, 0, 1, 0, 3, 0, 0)

    def test_closed_genus_two(self):
        assert counts(closed_surface(2)).as_tuple() == (1, 2, 1, 0, 0, 0, 0, 0, 0)

    def test_open_pants(self):
        # one boundary circle carrying p+1 intervals
        for p in range(5):
            assert counts(open_pants(p)).as_tuple() == (1, 0, 0, 0, 0, p + 1, 0, 0, 1)

    def test_rank_h(self):
        assert rank_h(surface_fgp(2, 3)) == 2 * 2 - 1 + 3
        assert rank_h(open_pants(4)) == 4
        assert rank_h(closed_surface(3)) == 6
        assert rank_h(disk_plus_minus()) == 0


class TestDisjointUnion:
    def test_unit(self):
        f = surface_fgp(1, 2)
        empty = SuturedSurface()
        assert disjoint_union(f, empty) == f

    def test_counts_additive(self):
        f, g = surface_fgp(1, 2), open_pants(3)
        u = disjoint_union(f, g)
        assert counts(u).as_tuple() == (counts(f) + counts(g)).as_tuple()
        assert rank_h(u) == rank_h(f) + rank_h(g)

    def test_relabel_on_collision(self):
        f = open_pants(1)
        u = disjoint_union(f, f)
        assert len(set(u.splus_ids())) == 4

    def test_counts_additive_randomly(self):
        import random
        from opencob.harness import Bounds, random_surface
        rng = random.Random(19)
        for _ in range(20):
            f = random_surface(rng, Bounds(max_h=6))
            g = random_surface(rng, Bounds(max_h=6), prefix="g")
            u = disjoint_union(f, g)
            assert counts(u).as_tuple() == (counts(f) + counts(g)).as_tuple()
            assert rank_h(u) == rank_h(f) + rank_h(g)


class TestGlue:
    def test_two_disks_case_1_1(self):
        s = surf([Component(0, (mk("i1"),)), Component(0, (mk("i2"),))])
        res = glue_intervals(s, "i1", "i2")
        assert res.case_tag == "1-1"
        assert res.created_sminus_circles == 1
        assert len(res.surface.components) == 1
        assert res.surface.components[0].circles[0].kind == "full-"

    def test_rectangle_self_glue_case_2_1b(self):
        s = surf([Component(0, (mk("i1", "i2"),))])
        res = glue_intervals(s, "i1", "i2")
        assert res.case_tag == "2-1b"
        assert res.created_sminus_circles == 2
        comp = res.surface.components[0]
        assert comp.genus == 0 and len(comp.circles) == 2
        assert all(c.kind == "full-" for c in comp.circles)

    def test_case_2_2a_adds_genus(self):
        s = surf([Component(0, (mk("i1", "x"), mk("i2", "y")))])
        res = glue_intervals(s, "i1", "i2")
        assert res.case_tag == "2-2a"
        assert res.surface.components[0].genus == 1
        assert res.created_sminus_circles == 0

    def test_case_tags(self):
        s = surf([Component(0, (mk("i1", "u"),)), Component(0, (mk("i2"),))])
        assert classify_gluing(s, "i1", "i2") == "1-2"
        s = surf([Component(0, (mk("i1"), mk("u"))), Component(0, (mk("i2"), mk("w")))])
        assert classify_gluing(s, "i1", "i2") == "1-3"
        s = surf([Component(0, (mk("i1", "x", "i2", "y"),))])
        assert classify_gluing(s, "i1", "i2") == "2-1a"

    def test_same_interval_rejected(self):
        s = surf([Component(0, (mk("i1", "i2"),))])
        with pytest.raises(SameInterval):
            glue_intervals(s, "i1", "i1")

    def test_euler_characteristic_drops_by_one(self):
        s = surf([Component(1, (mk("i1", "x"), mk("i2", "y")))])
        before = euler_characteristic(s)
        res = glue_intervals(s, "i1", "i2")
        assert euler_characteristic(res.surface) == before - 1

    def test_h_change_per_case(self):
        cases = [
            ("1-1", 0, surf([Component(0, (mk("i1"),)), Component(0, (mk("i2"),))])),
            ("2-1b", 0, surf([Component(0, (mk("i1", "i2"),))])),
            ("2-2b", 0, surf([Component(0, (mk("i1"), mk("i2")))])),
            ("1-2", -1, surf([Component(0, (mk("i1", "u"),)), Component(0, (mk("i2"),))])),
            ("2-1a", -1, surf([Component(0, (mk("i1", "x", "i2", "y"),))])),
        ]
        for tag, dh, s in cases:
            res = glue_intervals(s, "i1", "i2")
            assert res.case_tag == tag
            assert rank_h(res.surface) - rank_h(s) == dh


def seeded_gluings(seed=53, n=240):
    """``n`` seeded random gluings (surface, i1, i2), all outgoing."""
    import random
    from opencob.harness import Bounds, random_surface
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        s = random_surface(rng, Bounds(max_h=8), require_intervals=2)
        out.append((s, *rng.sample(list(s.interval_ids()), 2)))
    return out


def check_glue_bookkeeping(s, i1, i2):
    """Check what ``glue_intervals`` says about where everything went;
    return the case tag."""
    res = glue_intervals(s, i1, i2)
    glued = res.surface.components
    glued_keys = {s.locate(i1), s.locate(i2)}
    # untouched circles reappear unchanged, at distinct keys
    images = {}
    for ci, comp in enumerate(s.components):
        for bi, circ in enumerate(comp.circles):
            if (ci, bi) in glued_keys:
                continue
            nci, nbi = res.circle_map[(ci, bi)]
            assert nci == res.comp_map[ci]
            assert glued[nci].circles[nbi] == circ
            images[(ci, bi)] = (nci, nbi)
    assert len(set(images.values())) == len(images)
    # untouched components reappear unchanged
    owners = {ci for ci, _ in glued_keys}
    for ci, comp in enumerate(s.components):
        if ci not in owners:
            assert glued[res.comp_map[ci]] == comp
    # old genus classes land inside their new component's genus range,
    # on distinct indices, none of them a class the gluing created
    classes = set()
    for ci, comp in enumerate(s.components):
        nci = res.comp_map[ci]
        for i in range(2 * comp.genus):
            k = res.torus_shift[ci] + i
            assert 0 <= k < 2 * glued[nci].genus
            classes.add((nci, k))
    assert len(classes) == sum(2 * c.genus for c in s.components)
    assert not classes & set(res.new_genus_indices)
    # the circles left over are the products of the surgery
    rest = [(ci, bi) for ci, comp in enumerate(glued)
            for bi in range(len(comp.circles))
            if (ci, bi) not in set(images.values())]
    old_ids = set()
    for ci, bi in glued_keys:
        old_ids |= set(s.components[ci].circles[bi].plus_ids())
    new_ids = set()
    for ci, bi in rest:
        new_ids |= set(glued[ci].circles[bi].plus_ids())
    assert new_ids == old_ids - {i1, i2}
    minus = sum(glued[ci].circles[bi].kind == "full-" for ci, bi in rest)
    assert minus == res.created_sminus_circles
    case = res.case_tag
    if case.startswith("2-1"):
        assert len(res.new_circles) == 2
        assert sorted(res.new_circles) == rest
    else:
        assert res.new_circles == ()
        assert len(rest) == 1
    if case.startswith("2-2"):
        (c1, k1), (c2, k2) = res.new_genus_indices
        g = glued[c1].genus
        assert c1 == c2 == res.comp_map[s.locate(i1)[0]]
        assert 0 <= k1 < 2 * g and 0 <= k2 < 2 * g and k1 != k2
    else:
        assert res.new_genus_indices == ()
    return case


class TestGlueBookkeeping:
    def test_lemma_case_instances(self):
        from opencob.harness import lemma_case_instances
        for case, _, s, i1, i2 in lemma_case_instances():
            assert check_glue_bookkeeping(s, i1, i2) == case

    def test_seeded_random_gluings(self):
        seen = {check_glue_bookkeeping(*g) for g in seeded_gluings()}
        assert seen == {"1-1", "1-2", "1-3", "2-1a", "2-1b", "2-2a", "2-2b"}


class TestCompose:
    def test_identity_is_neutral(self):
        idc = identity_cobordism(["m"])
        f = SuturedSurface((Component(0, (mk("a", "b"),)),), ("a",), ("b",))
        c = compose(idc, f)
        assert counts(c).as_tuple() == counts(f).as_tuple()
        assert rank_h(c) == rank_h(f)
        words = sorted(tuple(cc.plus_ids()) for comp in c.components
                       for cc in comp.circles)
        fwords = sorted(tuple(cc.plus_ids()) for comp in f.components
                        for cc in comp.circles)
        assert [len(w) for w in words] == [len(w) for w in fwords]

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            compose(open_pants(2), open_pants(2))

    def test_circle_in_interface(self):
        f = surface_fgp(0, 1)  # one outgoing S+ circle
        fp = SuturedSurface((Component(0, (mk("z", "w"),)),), ("z",), ("w",))
        with pytest.raises(CircleInGluingRegion):
            compose(fp, f)

    def test_pants_composition_counts(self):
        # P_2 o (id | id) has the same counts as P_2
        ii = disjoint_union(identity_cobordism(["a"]), identity_cobordism(["b"]))
        c = compose(open_pants(2), ii)
        assert counts(c).as_tuple() == counts(open_pants(2)).as_tuple()

    def test_associative_on_invariants(self):
        def word_multiset(s):
            return sorted((c.kind, len(c.plus_ids()))
                          for comp in s.components for c in comp.circles)

        p1 = open_pants(1)
        idc = identity_cobordism(["x"])
        left = compose(p1, compose(idc, idc))
        right = compose(compose(p1, idc), idc)
        assert counts(left).as_tuple() == counts(right).as_tuple()
        assert rank_h(left) == rank_h(right)
        assert word_multiset(left) == word_multiset(right)


class TestBuilders:
    def test_open_pants_zero(self):
        p0 = open_pants(0)
        assert rank_h(p0) == 0
        assert p0.outgoing == ("out",)

    def test_symmetrizer_reverses_target(self):
        s = symmetrizer_cobordism(["a"], ["b", "c"])
        assert s.incoming == ("a.in", "b.in", "c.in")
        assert s.outgoing == ("b.out", "c.out", "a.out")

    def test_surface_fgp_disk(self):
        assert rank_h(surface_fgp(0, 1)) == 0

    def test_annulus(self):
        a = annulus(("full+", "c1"), ("full-",))
        assert counts(a).as_tuple() == (1, 0, 0, 0, 0, 0, 1, 1, 0)


class TestTextFormat:
    def test_round_trip(self):
        s = surf([Component(1, (mk("a", "b"), BoundaryCircle.full_minus(),
                                BoundaryCircle.full_plus("c")))],
                 inc=("a",))
        text = format_surface(s)
        assert parse_surface(text) == s

    def test_parse_error_has_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_surface("component A genus 0\nbogus line here\n")
        assert exc.value.line_no == 2

    def test_mixed_word_format(self):
        text = ("component A genus 0\n"
                "circle A mixed a - b -\n"
                "incoming a ; outgoing b\n")
        s = parse_surface(text)
        assert s.incoming == ("a",) and s.outgoing == ("b",)
        assert counts(s).k6 == 2

    def test_alternation_error_verbatim(self):
        # semantic problems surface as validation errors, not parse errors
        with pytest.raises(AlternationViolation):
            parse_surface("component A genus 0\ncircle A mixed a b\n"
                          "incoming a ; outgoing b\n")
