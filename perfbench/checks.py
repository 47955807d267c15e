"""Output checks made apart from the verifier.

Each check reads the witness matrices through their ``nrows``, ``ncols``
and ``cols`` ({col: {row: value}}) fields and the surfaces through their
plain structure, and computes everything else here: ``h`` from the surface,
products with a dict-based sparse product, the block structure from the
degree and parity lists, and the gluing case from the boundary words.  No
check calls ``IntMat.__matmul__``, ``GradedMap.check_blocks`` or
``rank_h``.  Every check returns None when it passes and a one-line reason
when it fails.
"""

from __future__ import annotations

# The paper's table of degree shifts per gluing case.
CASE_DEGREE_SHIFT = {"1-1": 0, "1-2": 1, "1-3": 1, "2-1a": 1,
                     "2-1b": 0, "2-2a": 1, "2-2b": 0}


def _plus_ids(circle) -> list:
    if circle.kind == "full+":
        return [circle.plus_id]
    return [w for w in circle.word if w is not None]


def h_of(surface) -> int:
    """rank H_1(F, S+) as (components meeting no S+) + (components whose
    every boundary circle is full+, closed ones included) - chi(F)
    + (S+ intervals)."""
    total = 0
    for comp in surface.components:
        kinds = [c.kind for c in comp.circles]
        total += all(k == "full-" for k in kinds)
        total += all(k == "full+" for k in kinds)
        total -= 2 - 2 * comp.genus - len(comp.circles)
        total += sum(len(_plus_ids(c)) for c in comp.circles if c.kind == "mixed")
    return total


def gluing_case(surface, i1: str, i2: str) -> str:
    """Case tag of gluing the intervals i1 and i2, read off the boundary words."""
    where = {}
    for ci, comp in enumerate(surface.components):
        for bi, circ in enumerate(comp.circles):
            for sid in _plus_ids(circ):
                where[sid] = (ci, bi)
    (c1, b1), (c2, b2) = where[i1], where[i2]

    def ids_of(ci):
        return {s for s, (c, _) in where.items() if c == ci}

    if c1 != c2:
        alone = (ids_of(c1) == {i1}) + (ids_of(c2) == {i2})
        return ("1-3", "1-2", "1-1")[alone]
    suffix = "b" if ids_of(c1) == {i1, i2} else "a"
    return ("2-1" if b1 == b2 else "2-2") + suffix


def apply(cols: dict, vec: dict) -> dict:
    """The sparse product of a column dict with a sparse vector."""
    out: dict = {}
    for j, c in vec.items():
        for i, v in cols.get(j, {}).items():
            out[i] = out.get(i, 0) + c * v
    return {i: v for i, v in out.items() if v}


def check_side(mat, rows: int, cols: int):
    if (mat.nrows, mat.ncols) != (rows, cols):
        return f"witness is {mat.nrows}x{mat.ncols}, expected {rows}x{cols}"
    return None


def check_intertwines(mat, src_act, dst_act, what: str):
    """mat @ src_act == dst_act @ mat, one column at a time."""
    for j in range(src_act.ncols):
        left = apply(mat.cols, src_act.cols.get(j, {}))
        right = apply(dst_act.cols, mat.cols.get(j, {}))
        if left != right:
            return f"{what} does not intertwine at column {j}"
    return None


def check_kills(mat, e1, e2):
    """mat @ (e1 + e2) == 0."""
    for j in range(e1.ncols):
        rel = dict(e1.cols.get(j, {}))
        for i, v in e2.cols.get(j, {}).items():
            rel[i] = rel.get(i, 0) + v
        if apply(mat.cols, rel):
            return f"E1 + E2 column {j} is not killed"
    return None


def check_even_degree_zero(mat, src_deg, src_par, dst_deg, dst_par):
    """Every nonzero entry maps a basis element to one of equal degree and
    parity."""
    for j, col in mat.cols.items():
        for i in col:
            if dst_deg[i] != src_deg[j] or (dst_par[i] - src_par[j]) % 2:
                return f"entry ({i},{j}) leaves its (degree, parity) block"
    return None


def check_signed_permutation(mat):
    if mat.nrows != mat.ncols:
        return "not square"
    rows_hit = set()
    for j in range(mat.ncols):
        col = mat.cols.get(j, {})
        if len(col) != 1:
            return f"column {j} has {len(col)} entries"
        (i, v), = col.items()
        if v not in (1, -1) or i in rows_hit:
            return f"column {j} is not a signed unit vector on a fresh row"
        rows_hit.add(i)
    return None


def check_graded_iso(iso, h: int):
    """A returned bimodule isomorphism: side 2^h, even of degree 0, and
    intertwining every left and right generator."""
    src, dst, mat = iso.source, iso.target, iso.matrix
    why = check_side(mat, 1 << h, 1 << h)
    if why:
        return why
    if (len(src.left_actions), len(src.right_actions)) != \
            (len(dst.left_actions), len(dst.right_actions)):
        return "source and target have different generator counts"
    why = check_even_degree_zero(mat, src.degrees, src.parities,
                                 dst.degrees, dst.parities)
    if why:
        return why
    for side, xs, ys in (("left", src.left_actions, dst.left_actions),
                         ("right", src.right_actions, dst.right_actions)):
        for k, (a, b) in enumerate(zip(xs, ys)):
            why = check_intertwines(mat, a, b, f"{side} generator {k}")
            if why:
                return why
    return None


def check_glue(res, surface, i1: str, i2: str, glued_surface,
               src_actions: dict, dst_actions: dict):
    """A self-gluing result.

    ``glued_surface`` comes from ``glue_intervals``.  ``src_actions`` maps
    every outgoing interval of ``surface`` to its action on Z(F), and
    ``dst_actions`` every remaining one to its action on Z(F-bar).
    """
    case = gluing_case(surface, i1, i2)
    if res.case_tag != case:
        return f"case {res.case_tag}, expected {case}"
    if res.degree_shift != CASE_DEGREE_SHIFT[case]:
        return f"case {case}: degree shift {res.degree_shift}"
    psi = res.psi
    why = check_side(psi, 1 << h_of(glued_surface), 1 << h_of(surface))
    if why:
        return why
    src, dst = res.source_space, res.target_space
    why = check_even_degree_zero(psi, src.degrees, src.parities,
                                 dst.degrees, dst.parities)
    if why:
        return why
    why = check_kills(psi, src_actions[i1], src_actions[i2])
    if why:
        return why
    for sid, e_dst in dst_actions.items():
        why = check_intertwines(psi, src_actions[sid], e_dst, f"E_{sid}")
        if why:
            return why
    if res.iso is not None:
        return check_graded_iso(res.iso, h_of(glued_surface))
    return None
