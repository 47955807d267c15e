"""Degree-shift and parity functions on sutured surfaces.

The shift family is parametrized by four rationals, the parity family by
four bits; the distinguished half-integer shift has its parity defined as
the shift mod 2, on the surfaces where that shift is an integer.  All
arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .surface import CountVector, SuturedSurface, counts


class ParityUndefined(ValueError):
    pass


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class ShiftParams:
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4"):
            object.__setattr__(self, name, _frac(getattr(self, name)))
        # delta(F) * den is an integer combination of h, k3, k4, k5, k6 and
        # k7 once den is twice the common denominator of a1..a4
        a1, a2, a3, a4 = self.a1, self.a2, self.a3, self.a4
        den = 2 * math.lcm(a1.denominator, a2.denominator, a3.denominator,
                           a4.denominator)
        n1, n2, n3, n4 = (a.numerator * (den // a.denominator)
                          for a in (a1, a2, a3, a4))
        object.__setattr__(self, "_delta_ints",
                           (-n1, n3, n1 - den, n2, (n1 - den) // 2, n4, den))

    def delta_of(self, k: CountVector) -> Fraction:
        """The degree shift of a surface with count vector ``k``."""
        ch, c3, c4, c5, c6, c7, den = self._delta_ints
        return Fraction(ch * k.h + c3 * k.k3 + c4 * k.k4 + c5 * k.k5
                        + c6 * k.k6 + c7 * k.k7, den)


@dataclass(frozen=True)
class ParityParams:
    n1: int
    n2: int
    n3: int
    n4: int

    def __post_init__(self):
        for name in ("n1", "n2", "n3", "n4"):
            value = getattr(self, name)
            if not isinstance(value, int) or value not in (0, 1):
                raise ValueError(f"{name} must be the int 0 or 1, got {value!r}")

    def pi_of(self, k: CountVector) -> int:
        """The parity of a surface with count vector ``k``."""
        return (k.h + self.n1 * k.k5 + self.n2 * k.k3
                + self.n3 * k.k6 + self.n4 * k.k7) % 2


def delta(params: ShiftParams, surface: SuturedSurface) -> Fraction:
    """-a1 h + (a1 - 1) k4 + a2 k5 + a3 k3 + (a1 - 1)/2 k6 + a4 k7."""
    return params.delta_of(counts(surface))


def pi(params: ParityParams, surface: SuturedSurface) -> int:
    return params.pi_of(counts(surface))


HALF_SHIFT = ShiftParams(Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(-1, 2))
TENSOR_SHIFT = ShiftParams(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
TENSOR_PARITY = ParityParams(0, 0, 0, 0)


def half_parity_defined(surface: SuturedSurface) -> bool:
    """The integrality condition: #S+ intervals = 2 #(S- -meeting circles) mod 4."""
    return _half_parity_defined(counts(surface))


def _half_parity_defined(k: CountVector) -> bool:
    return (k.k6 - 2 * (k.k8 + k.k9)) % 4 == 0


def pi_half(k: CountVector) -> int:
    """The parity of the half-integer shift on count vector ``k``."""
    if not _half_parity_defined(k):
        raise ParityUndefined(
            "half-integer parity undefined: requires #S+ intervals == "
            "2 * #(boundary circles meeting S-) mod 4 "
            f"(got {k.k6} vs 2*{k.k8 + k.k9})")
    d = HALF_SHIFT.delta_of(k)
    if d.denominator != 1:
        raise ValueError(f"half-integer grading {d} is not an integer")
    return d.numerator % 2


@dataclass(frozen=True)
class Grading:
    """A (degree shift, parity) pair.

    ``parity=None`` selects the derived parity of the half-integer shift,
    which lives outside the four-bit family.
    """

    shift: ShiftParams
    parity: ParityParams | None

    def delta(self, surface: SuturedSurface) -> Fraction:
        return delta(self.shift, surface)

    def pi(self, surface: SuturedSurface) -> int:
        return self.pi_of(counts(surface))

    def pi_of(self, k: CountVector) -> int:
        """The parity of a surface with count vector ``k``."""
        if self.parity is None:
            return pi_half(k)
        return self.parity.pi_of(k)

    def defined_on(self, surface: SuturedSurface) -> bool:
        return self.parity is not None or half_parity_defined(surface)

    def describe(self) -> str:
        s = self.shift
        shift = f"shift=({s.a1},{s.a2},{s.a3},{s.a4})"
        if self.parity is None:
            return shift + " parity=half"
        p = self.parity
        return shift + f" parity=({p.n1},{p.n2},{p.n3},{p.n4})"


PRESET_TENSOR = Grading(TENSOR_SHIFT, TENSOR_PARITY)
PRESET_HALF = Grading(HALF_SHIFT, None)


# ---------------------------------------------------------------------------
# the constraint system on count-vector coefficients


@dataclass(frozen=True)
class ConstraintCoeffs:
    c: tuple  # (C1, ..., C9) as Fractions

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(_frac(x) for x in self.c))
        if len(self.c) != 9:
            raise ValueError("need nine coefficients")


# Each requirement is (coeffs on C1..C9, rhs, label): the net change of the
# degree shift under one interval gluing, case by case.
REQUIREMENTS = (
    ((-1, 0, 0, 1, 0, -2, 0, 1, -2), 0, "case 1-1"),
    ((-1, 0, 0, 0, 0, -2, 0, 0, -1), 1, "case 1-2/1-3, no S- circle created"),
    ((-1, 0, 0, 0, 0, -2, 0, 1, -2), 1, "case 1-2/1-3, one S- circle created"),
    ((0, 0, 0, 0, 0, -2, 0, 0, 1), 1, "case 2-1a, no S- circle created"),
    ((0, 0, 0, 0, 0, -2, 0, 1, 0), 1, "case 2-1a, one S- circle created"),
    ((0, 0, 0, 0, 0, -2, 0, 2, -1), 1, "case 2-1a, two S- circles created"),
    ((0, 0, 0, 1, 0, -2, 0, 2, -1), 0, "case 2-1b"),
    ((0, 1, 0, 0, 0, -2, 0, 0, -1), 1, "case 2-2a, no S- circle created"),
    ((0, 1, 0, 0, 0, -2, 0, 1, -2), 1, "case 2-2a, one S- circle created"),
    ((0, 1, 0, 1, 0, -2, 0, 1, -2), 0, "case 2-2b"),
)


def constraint_residuals(coeffs: ConstraintCoeffs):
    """LHS - RHS of the ten gluing-compatibility equations, in order."""
    out = []
    for lhs, rhs, _ in REQUIREMENTS:
        out.append(sum(_frac(a) * c for a, c in zip(lhs, coeffs.c)) - rhs)
    return out


# h as a linear combination of the counts k1..k9
H_COEFFS = (-2, 2, 2, 1, 1, 1, 1, 1, 1)


def delta_coeffs(params: ShiftParams) -> ConstraintCoeffs:
    """Expand the shift into count-vector coordinates C1..C9."""
    a1, a2, a3, a4 = params.a1, params.a2, params.a3, params.a4
    c = [-a1 * h for h in H_COEFFS]
    c[3] += a1 - 1          # k4
    c[4] += a2              # k5
    c[2] += a3              # k3
    c[5] += (a1 - 1) / 2    # k6
    c[6] += a4              # k7
    return ConstraintCoeffs(tuple(c))


@dataclass(frozen=True)
class ConstraintSolution:
    """Solved family: pivot coefficients as affine functions of the free ones.

    ``exprs[i]`` is (constant, {free index: coefficient}) for C_{i+1};
    free indices are 0-based positions into C1..C9.
    """

    free: tuple
    exprs: dict

    def sample(self, c3, c5, c7, c9) -> ConstraintCoeffs:
        values = dict(zip(self.free, (_frac(c3), _frac(c5), _frac(c7), _frac(c9))))
        out = []
        for i in range(9):
            if i in values:
                out.append(values[i])
            else:
                const, lin = self.exprs[i]
                out.append(const + sum(k * values[j] for j, k in lin.items()))
        return ConstraintCoeffs(tuple(out))


def solve_constraints() -> ConstraintSolution:
    """Exact Gaussian elimination of the ten equations in C1..C9."""
    rows = [[_frac(a) for a in lhs] + [_frac(rhs)] for lhs, rhs, _ in REQUIREMENTS]
    n_vars = 9
    pivots: dict[int, list] = {}  # column -> reduced row
    pivot_cols: list[int] = []
    for row in rows:
        # reduce by existing pivots
        for col, prow in pivots.items():
            if row[col]:
                f = row[col]
                row[:] = [a - f * b for a, b in zip(row, prow)]
        col = next((j for j in range(n_vars) if row[j]), None)
        if col is None:
            if row[n_vars]:
                raise ValueError("inconsistent constraint system")
            continue
        row[:] = [a / row[col] for a in row]
        for pcol, prow in pivots.items():
            if prow[col]:
                f = prow[col]
                prow[:] = [a - f * b for a, b in zip(prow, row)]
        pivots[col] = row
        pivot_cols.append(col)
    free = tuple(sorted(set(range(n_vars)) - set(pivot_cols)))
    exprs = {}
    for col, prow in pivots.items():
        const = prow[n_vars]
        lin = {j: -prow[j] for j in free if prow[j]}
        exprs[col] = (const, lin)
    return ConstraintSolution(free, exprs)
