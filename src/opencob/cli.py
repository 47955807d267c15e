"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .grading import (PRESET_HALF, PRESET_TENSOR, Grading, ParityParams,
                      ParityUndefined, ShiftParams)
from .gluing import compose_iso, self_glue_iso
from .harness import SUITES, check_max_h, resolve_trials, run_suite
from .statespace import action_matrix, build, graded_superdim
from .surface import SurfaceError, parse_surface, rank_h


def _parse_fraction(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise SystemExit2(f"--shift: {tok!r} is not a rational n or n/d")


def _grading_from_args(args) -> Grading:
    if getattr(args, "preset", None):
        if args.shift or args.parity:
            raise SystemExit2("--preset conflicts with --shift/--parity")
        return PRESET_TENSOR if args.preset == "tensor" else PRESET_HALF
    shift = PRESET_TENSOR.shift
    parity = PRESET_TENSOR.parity
    if args.shift:
        parts = args.shift.split(",")
        if len(parts) != 4:
            raise SystemExit2("--shift needs four comma-separated rationals")
        shift = ShiftParams(*(_parse_fraction(p) for p in parts))
    if args.parity:
        if args.parity == "half":
            return Grading(shift, None)
        parts = args.parity.split(",")
        if len(parts) != 4 or any(p not in ("0", "1") for p in parts):
            raise SystemExit2("--parity needs four comma-separated bits (0 or 1) or 'half'")
        parity = ParityParams(*(int(p) for p in parts))
    return Grading(shift, parity)


class SystemExit2(SystemExit):
    def __init__(self, message):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _load_surface(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_surface(fh.read())
    except (OSError, SurfaceError) as exc:
        raise SystemExit2(str(exc))


def _add_grading_flags(p):
    p.add_argument("--shift", help="A1,A2,A3,A4 as rationals (n/d allowed)")
    p.add_argument("--parity", help="N1,N2,N3,N4 bits, or 'half'")
    p.add_argument("--preset", choices=("tensor", "half"),
                   help="tensor = (1,0,0,0)/(0,0,0,0); half = delta_1/2 with derived parity")


def cmd_compute(args) -> int:
    surf = _load_surface(args.file)
    grading = _grading_from_args(args)
    what = args.quantity
    try:
        if what == "h":
            print(f"h = {rank_h(surf)}")
        elif what == "delta":
            print(f"delta = {grading.delta(surf)}")
        elif what == "pi":
            print(f"pi = {grading.pi(surf)}")
        elif what == "superdim":
            space = build(surf, grading)
            print(f"superdim = {_superdim(space)}")
        elif what == "actions":
            space = build(surf, grading)
            print(f"basis: {', '.join(space.basis.labels()) or '(empty)'}")
            for sid in list(surf.outgoing) + list(surf.incoming):
                if not surf.is_interval(sid):
                    continue
                side = "left" if sid in surf.outgoing else "right"
                mat = action_matrix(space, sid)
                print(f"E_{sid} ({side}):")
                if mat.is_zero():
                    print("  0")
                for j in sorted(mat.cols):
                    for i, v in sorted(mat.col(j).items()):
                        src = space.monomial_label(space.monomials[j])
                        dst = space.monomial_label(space.monomials[i])
                        print(f"  {src} -> {v:+d} * {dst}")
    except ParityUndefined as exc:
        raise SystemExit2(str(exc))
    return 0


def _superdim(space):
    """Degrees off the half-integer grid are a usage error."""
    try:
        return graded_superdim(space)
    except ValueError as exc:
        raise SystemExit2(str(exc))


def _print_matrix(title, mat):
    print(title)
    for j in sorted(mat.cols):
        for i, v in sorted(mat.col(j).items()):
            print(f"  [{i},{j}] = {v}")


def cmd_glue(args) -> int:
    surf = _load_surface(args.file)
    grading = _grading_from_args(args)
    try:
        res = self_glue_iso(surf, args.i1, args.i2, grading)
    except (SurfaceError, ParityUndefined) as exc:
        raise SystemExit2(str(exc))
    print(f"case: {res.case_tag}")
    print(f"created S- circles: {res.created_sminus_circles}")
    print(f"degree shift: {res.degree_shift}")
    print(f"parity shift: {res.parity_shift}")
    print("graded ranks (degree, parity): ambient -> quotient")
    for (d, p), (dim, _, coker) in sorted(res.oracle.by_degree().items()):
        print(f"  ({d}, {p}): {dim} -> {coker}")
    print(f"quotient basis: {', '.join(res.quotient_basis)}")
    if args.matrix:
        _print_matrix("iso matrix (quotient representatives -> Z(glued)):",
                      res.psi)
    print("verified: yes")
    return 0


def cmd_compose(args) -> int:
    fp = _load_surface(args.file_outer)
    f = _load_surface(args.file_inner)
    grading = _grading_from_args(args)
    try:
        res = compose_iso(fp, f, grading)
    except (SurfaceError, ParityUndefined) as exc:
        raise SystemExit2(str(exc))
    superdim = _superdim(res.composed_space)
    print(f"cases: {', '.join(res.case_tags)}")
    print(f"composite superdim = {superdim}")
    print("tensor-product graded ranks:")
    for (d, p), n in sorted(res.tensor.bimodule.block_dims().items()):
        print(f"  ({d}, {p}): {n}")
    if args.matrix:
        _print_matrix("iso matrix (tensor basis -> Z(composite)):", res.iso.matrix)
    print("verified: yes")
    return 0


def cmd_verify(args) -> int:
    try:
        resolve_trials(args.suite, args.trials)
        check_max_h(args.suite, args.max_h)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    report = run_suite(args.suite, seed=args.seed, trials=args.trials,
                       max_h=args.max_h)
    sys.stdout.write(report.to_text())
    print(f"# wall time: {report.wall_time:.2f}s", file=sys.stderr)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="opencob",
        description="Exact state spaces of sutured surfaces and verified "
                    "interval-gluing isomorphisms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute invariants of a surface file")
    p.add_argument("file")
    p.add_argument("quantity", choices=("h", "delta", "pi", "superdim", "actions"))
    _add_grading_flags(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("glue", help="self-glue two outgoing intervals, verified")
    p.add_argument("file")
    p.add_argument("i1")
    p.add_argument("i2")
    p.add_argument("--matrix", action="store_true", help="print the full iso matrix")
    _add_grading_flags(p)
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("compose", help="compose two cobordism files, verified")
    p.add_argument("file_outer", help="F': the outer cobordism")
    p.add_argument("file_inner", help="F: the inner cobordism")
    p.add_argument("--matrix", action="store_true")
    _add_grading_flags(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--max-h", type=int, default=8, dest="max_h")
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
