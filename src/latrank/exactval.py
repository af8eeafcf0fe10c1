"""Exact positive reals of the form q * prod(p_i ** e_i).

Squared norms, squared heights and analytic scale factors in this package are
all rationals times rational powers of small integers (discriminants, prime
norms).  Keeping them in that shape allows exact comparisons: raising both
sides of an inequality to the lcm of the exponent denominators turns it into
a comparison of plain rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _factor(n: int) -> dict[int, int]:
    """Trial-division factorization. Bases here are tiny (discriminants, primes);
    coefficients reach it only through a power with a non-integer exponent."""
    out: dict[int, int] = {}
    n = abs(n)
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _iroot(v: int, L: int) -> int:
    """The largest integer f >= 0 with f ** L <= v, for v >= 0."""
    if v < 2:
        return v
    # Newton's iteration in integers, from f ** L > v, decreases to the root
    f = 1 << -(-v.bit_length() // L)
    while True:
        g = ((L - 1) * f + v // f ** (L - 1)) // L
        if g >= f:
            return f
        f = g


def _rational(x) -> Fraction:
    """x as a Fraction, without Fraction()'s ABC check when it already is one."""
    return x if type(x) is Fraction else Fraction(x)


class PowerProduct:
    """Immutable exact value q * prod(p ** e) with q rational > 0, p prime, e rational.

    Exponents are normalized to lie in (0, 1); integer parts are folded into q.
    """

    __slots__ = ("coeff", "exps")

    def __init__(self, coeff=1, exps=()):
        coeff = Fraction(coeff)
        if coeff <= 0:
            raise ValueError("PowerProduct values are positive")
        acc: dict[int, Fraction] = {}
        for base, e in exps:
            e = Fraction(e)
            if base <= 0:
                raise ValueError("bases must be positive integers")
            if e == 0 or base == 1:
                continue
            for p, mult in _factor(base).items():
                acc[p] = acc.get(p, 0) + e * mult
        cleaned = []
        for p in sorted(acc):
            e = acc[p]
            whole, frac_part = divmod(e, 1)
            if whole:
                coeff *= Fraction(p) ** int(whole)
            if frac_part:
                cleaned.append((p, frac_part))
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "exps", tuple(cleaned))

    def __setattr__(self, *a):
        raise AttributeError("PowerProduct is immutable")

    @classmethod
    def of(cls, base: int, exp) -> "PowerProduct":
        return cls(1, ((base, Fraction(exp)),))

    def is_rational(self) -> bool:
        return not self.exps

    def as_fraction(self) -> Fraction:
        if self.exps:
            raise ValueError(f"{self!r} is irrational")
        return self.coeff

    def _rescaled(self, coeff: Fraction) -> "PowerProduct":
        """coeff * prod(p ** e) over self's exponents, which are already normalized."""
        if coeff.numerator <= 0:
            raise ValueError("PowerProduct values are positive")
        out = object.__new__(PowerProduct)
        object.__setattr__(out, "coeff", coeff)
        object.__setattr__(out, "exps", self.exps)
        return out

    def __mul__(self, other) -> "PowerProduct":
        if isinstance(other, PowerProduct):
            return PowerProduct(self.coeff * other.coeff, self.exps + other.exps)
        return self._rescaled(self.coeff * _rational(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PowerProduct":
        if isinstance(other, PowerProduct):
            return self * other ** -1
        return self._rescaled(self.coeff / _rational(other))

    def __rtruediv__(self, other) -> "PowerProduct":
        return PowerProduct(Fraction(other), ()) / self

    def __pow__(self, e) -> "PowerProduct":
        e = Fraction(e)
        exps = tuple((p, pe * e) for p, pe in self.exps)
        if e.denominator == 1:
            # the coefficient is raised as it is; only the prime bases are refolded
            return PowerProduct(self.coeff ** int(e), exps)
        cnum, cden = self.coeff.numerator, self.coeff.denominator
        return PowerProduct(1, ((cnum, e), (cden, -e)) + exps)

    def sqrt(self) -> "PowerProduct":
        return self ** Fraction(1, 2)

    def __float__(self) -> float:
        v = float(self.coeff)
        for p, e in self.exps:
            v *= math.pow(p, float(e))
        return v

    def __floor__(self) -> int:
        """The largest integer <= self, exactly: math.floor(x)."""
        if not self.exps:
            return self.coeff.numerator // self.coeff.denominator
        # f <= x iff f^L <= x^L, which is rational for L the lcm of the
        # exponents' denominators, and for an integer f iff f^L <= floor(x^L)
        L = math.lcm(*(e.denominator for _, e in self.exps))
        xl = (self ** L).as_fraction()
        return _iroot(xl.numerator // xl.denominator, L)

    def _cmp_key_against(self, other: "PowerProduct"):
        """Return (a, b) rationals with self <= other iff a <= b, exactly."""
        if not self.exps and not other.exps:
            return self.coeff, other.coeff
        ratio = self / other
        if not ratio.exps:
            return ratio.coeff, Fraction(1)
        powed = ratio ** math.lcm(*(e.denominator for _, e in ratio.exps))
        return powed.as_fraction(), Fraction(1)

    @staticmethod
    def coerce(value) -> "PowerProduct":
        if isinstance(value, PowerProduct):
            return value
        return PowerProduct(Fraction(value), ())

    def __le__(self, other) -> bool:
        a, b = self._cmp_key_against(PowerProduct.coerce(other))
        return a <= b

    def __lt__(self, other) -> bool:
        a, b = self._cmp_key_against(PowerProduct.coerce(other))
        return a < b

    def __ge__(self, other) -> bool:
        return not self < other

    def __gt__(self, other) -> bool:
        return not self <= other

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PowerProduct, int, Fraction)):
            return NotImplemented
        other = PowerProduct.coerce(other)
        return self.coeff == other.coeff and self.exps == other.exps

    def __hash__(self):
        return hash((self.coeff, self.exps))

    def __repr__(self):
        if not self.exps:
            return f"PowerProduct({self.coeff})"
        parts = " * ".join(f"{p}^({e})" for p, e in self.exps)
        return f"PowerProduct({self.coeff} * {parts})"


ONE = PowerProduct(1)
