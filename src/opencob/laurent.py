"""Integer Laurent polynomials in t with exponents on the half-integer grid.

Coefficients are keyed by twice the exponent, so keys stay integers.
"""

from __future__ import annotations


class LaurentPoly:
    """Finitely supported map {2*exponent: coefficient}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                if v:
                    self.coeffs[k] = v

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def t_half_power(cls, exp2, coeff=1):
        """coeff * t^(exp2/2)."""
        return cls({exp2: coeff})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({k: v * other for k, v in self.coeffs.items()})
        out: dict[int, int] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                w = out.get(k, 0) + v1 * v2
                if w:
                    out[k] = w
                else:
                    out.pop(k, None)
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self):
        return not self.coeffs

    def exponents_integral(self):
        return all(k % 2 == 0 for k in self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = self.coeffs[k]
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                e = f"{k // 2}" if k % 2 == 0 else f"{k}/2"
                body = f"t^{e}" if mag == 1 else f"{mag}*t^{e}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"
