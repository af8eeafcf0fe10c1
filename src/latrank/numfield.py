"""Exact arithmetic in a number field K, its integers, and its real embedding.

Elements are stored as rational coordinate vectors in the power basis of the
defining polynomial.  The Euclidean structure on K (x) R is the trace pairing
Tr(x * conj(y)) rescaled by |disc|^(-1/d) on squared norms, which makes
O_K^r embed with unit covolume; the rescaling is kept analytic (a
PowerProduct) so all Gram data stays rational.

The pairing Tr(x * conj(y)) is rational-valued exactly when complex
conjugation restricts to an automorphism of K (totally real or CM fields).
Other signatures are rejected for norm computations.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import intmat, kernels
from .errors import (
    ExactNormUnavailableError,
    FieldMismatchError,
    NotIntegralError,
    PrecisionError,
    ReduciblePolynomialError,
    SingularBasisError,
)
from .exactval import PowerProduct


def _poly_is_irreducible(coeffs: list[int]) -> bool | None:
    """Irreducibility over Q for monic integer polynomials of degree <= 4.

    Returns True/False, or None when the degree is out of range for the check.
    """
    d = len(coeffs) - 1
    if d == 1:
        return True
    a0 = coeffs[0]
    if a0 == 0:
        return False

    def divisors(n):
        n = abs(n)
        out = set()
        i = 1
        while i * i <= n:
            if n % i == 0:
                out.add(i)
                out.add(n // i)
            i += 1
        return out

    def has_rational_root():
        for r in divisors(a0):
            for root in (r, -r):
                if sum(c * root ** i for i, c in enumerate(coeffs)) == 0:
                    return True
        return False

    if d in (2, 3):
        return not has_rational_root()
    if d == 4:
        if has_rational_root():
            return False
        # monic quartic factors over Z as two monic quadratics
        # (x^2+ax+b)(x^2+cx+d0): match coefficients
        A, B, C, D = coeffs[3], coeffs[2], coeffs[1], coeffs[0]
        for b in divisors(D) | {-x for x in divisors(D)}:
            if b == 0 or D % b != 0:
                continue
            d0 = D // b
            # a+c = A, b+d0+ac = B, ad0+bc = C
            # => ac = B-b-d0 and a(d0-b) = C - bA ... solve small system
            s = A
            prod = B - b - d0
            disc = s * s - 4 * prod
            if disc < 0:
                continue
            rt = math.isqrt(disc)
            if rt * rt != disc:
                continue
            for a in ((s + rt) // 2, (s - rt) // 2) if (s + rt) % 2 == 0 else ():
                c = s - a
                if a * c == prod and a * d0 + b * c == C:
                    return False
        return True
    return None


def _newton_power_sums(coeffs: list[int], upto: int) -> list[int]:
    """Power sums p_k of the roots of a monic integer polynomial, k = 0..upto."""
    d = len(coeffs) - 1
    # e_i = (-1)^i * coeffs[d-i] are the elementary symmetric functions
    p = [d]
    for k in range(1, upto + 1):
        acc = 0
        for i in range(1, min(k, d) + 1):
            e_i = (-1) ** i * coeffs[d - i]
            if i < k:
                acc += (-1) ** (i - 1) * e_i * p[k - i]
            else:
                acc += (-1) ** (i - 1) * e_i * k
        p.append(acc)
    return p


@dataclass(frozen=True)
class PrimeIdealData:
    """A degree-one prime above p, identified by a root of min_poly mod p."""

    p: int
    root: int
    residue_degree: int = 1

    @property
    def norm(self) -> int:
        return self.p


class FieldElement:
    __slots__ = ("field", "coords")

    def __init__(self, field: "NumberField", coords):
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)
        if len(self.coords) != field.degree:
            raise ValueError("coordinate length mismatch")

    def _check(self, other):
        if self.field is not other.field:
            raise FieldMismatchError("elements belong to different fields")

    def __add__(self, other):
        other = self.field.coerce(other)
        self._check(other)
        return FieldElement(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        other = self.field.coerce(other)
        self._check(other)
        return FieldElement(self.field, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.coords])

    def __mul__(self, other):
        other = self.field.coerce(other)
        self._check(other)
        return self.field._mul(self, other)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __truediv__(self, other):
        other = self.field.coerce(other)
        self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.coerce(other) / self

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        if self.field.degree == 1:
            return FieldElement(self.field, (1 / self.coords[0],))
        M = self.field.mult_matrix(self)
        one = [Fraction(1)] + [Fraction(0)] * (self.field.degree - 1)
        # solve y * M = e_0, i.e. M^T y = e_0
        y = intmat.solve(intmat.transpose(M), one)
        return FieldElement(self.field, y)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def conj(self) -> "FieldElement":
        return self.field.conjugate(self)

    def norm(self) -> Fraction:
        return intmat.det(self.field.mult_matrix(self))

    def trace(self) -> Fraction:
        return sum(c * p for c, p in zip(self.coords, self.field._power_sums[: self.field.degree]))

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self == self.field.coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"K({', '.join(str(c) for c in self.coords)})"


class NumberField:
    """Degree-d number field with a fixed integral basis (u_1 = 1 required)."""

    def __init__(self, min_poly, integral_basis=None, precision_digits: int = 50,
                 assume_irreducible: bool = False):
        coeffs = [int(c) for c in min_poly]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            raise ValueError("min_poly must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("min_poly must be monic")
        self.min_poly = tuple(coeffs)
        self.degree = len(coeffs) - 1
        d = self.degree

        irr = _poly_is_irreducible(coeffs)
        if irr is False:
            raise ReduciblePolynomialError(f"{coeffs} is reducible over Q")
        self.irreducibility_checked = irr is True
        if irr is None and not assume_irreducible:
            raise ReduciblePolynomialError(
                "irreducibility check unavailable for degree > 4; "
                "pass assume_irreducible=True to proceed"
            )

        # theta^j for j in [d, 2d-2] reduced into the power basis
        self._theta_pows: list[tuple[Fraction, ...]] = [
            tuple(Fraction(int(i == j)) for i in range(d)) for j in range(d)
        ]
        for j in range(d, 2 * d - 1):
            prev = self._theta_pows[j - 1]
            shifted = [Fraction(0)] + list(prev[:-1])
            lead = prev[-1]
            red = [s - lead * Fraction(coeffs[i]) for i, s in enumerate(shifted)]
            self._theta_pows.append(tuple(red))

        self._power_sums = [Fraction(p) for p in _newton_power_sums(coeffs, 2 * d - 2)]

        if integral_basis is None:
            basis = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        else:
            basis = [[Fraction(x) for x in row] for row in integral_basis]
            if len(basis) != d or any(len(r) != d for r in basis):
                raise ValueError("integral_basis must be d x d")
        if basis[0] != [Fraction(1)] + [Fraction(0)] * (d - 1):
            raise ValueError("integral basis must start with u_1 = 1")
        detB = intmat.det(basis)
        if detB == 0:
            raise SingularBasisError("integral basis is singular")
        self.integral_basis = tuple(tuple(r) for r in basis)
        self._basis_inv = intmat.inverse(basis)
        idx = 1 / abs(detB)
        if idx.denominator != 1:
            raise SingularBasisError("integral basis does not contain Z[theta] with integer index")
        self.monogenic_index = int(idx)

        self.precision_digits = int(precision_digits)
        self._isolate_roots()

        # field trace Gram of the integral basis; its determinant is the discriminant
        tr_gram = [[(self.element(basis[i]) * self.element(basis[j])).trace()
                    for j in range(d)] for i in range(d)]
        disc = intmat.det(tr_gram)
        if disc == 0 or disc.denominator != 1:
            raise SingularBasisError("degenerate trace form; basis is not a Q-basis of K")
        self.discriminant = int(disc)
        if (self.discriminant < 0) != (self.signature[1] % 2 == 1):
            raise PrecisionError(
                "signature inconsistent with discriminant sign; roots not isolated reliably"
            )

        self.scale_sq = PowerProduct.of(abs(self.discriminant), Fraction(-1, d))
        self._conj_pows = self._find_conjugation()
        self._t2_power = self._t2_power_gram() if self._conj_pows is not None else None
        self._embed_matrix = self._build_embed_matrix()

    # -- construction helpers ------------------------------------------------

    def _isolate_roots(self):
        d = self.degree
        if d == 1:
            self._roots = [complex(-self.min_poly[0], 0.0)]
            self.signature = (1, 0)
            self.places = [("R", -float(self.min_poly[0]))]
            return
        dps = max(self.precision_digits, 30)
        with mp.workdps(dps + 10):
            try:
                roots = mp.polyroots([1] + [self.min_poly[i] for i in range(d - 1, -1, -1)],
                                     maxsteps=200, extraprec=80)
            except mp.libmp.libhyper.NoConvergence as exc:
                raise PrecisionError(f"root isolation failed: {exc}") from exc
            tol = mp.mpf(10) ** (-dps // 2)
            reals = sorted(float(r.real) for r in roots if abs(r.imag) < tol)
            complexes = sorted(
                (complex(r) for r in roots if r.imag > tol),
                key=lambda z: (z.real, z.imag),
            )
            n_down = sum(1 for r in roots if r.imag < -tol)
        if len(complexes) != n_down or len(reals) + 2 * len(complexes) != d:
            raise PrecisionError("could not classify roots into real/complex conjugate pairs")
        self._roots = [complex(r, 0.0) for r in reals] + [z for z in complexes]
        self.signature = (len(reals), len(complexes))
        self.places = [("R", r) for r in reals] + [("C", z) for z in complexes]

    def _find_conjugation(self):
        """Coordinates of conj(theta)^j in the power basis, or None.

        conj must be a field automorphism matching complex conjugation at
        every embedding; candidates are verified exactly before acceptance.
        """
        d = self.degree
        if self.signature[1] == 0:
            return [tuple(row) for row in self._theta_pows[:d]]
        # solve the Vandermonde system sum_j b_j sigma(theta)^j = conj(sigma(theta))
        # over all embeddings, then rationalize and verify exactly
        emb = []
        rhs = []
        for kind, root in self.places:
            z = complex(root) if kind == "C" else complex(root, 0.0)
            emb.append([z ** j for j in range(d)])
            rhs.append(z.conjugate())
            if kind == "C":
                emb.append([(z.conjugate()) ** j for j in range(d)])
                rhs.append(z)
        try:
            sol = np.linalg.solve(np.array(emb, dtype=complex), np.array(rhs, dtype=complex))
        except np.linalg.LinAlgError:
            return None
        if np.max(np.abs(sol.imag)) > 1e-8:
            return None
        cand = [Fraction(x).limit_denominator(10 ** 9) for x in sol.real]
        conj_theta = self.element(cand)
        # exact checks: conj(theta) is a root of min_poly and conj is an involution
        acc = self.zero()
        pw = self.one()
        for c in self.min_poly:
            acc = acc + pw * Fraction(c)
            pw = pw * conj_theta
        if not acc.is_zero():
            return None
        pows = [self.one()]
        for _ in range(d - 1):
            pows.append(pows[-1] * conj_theta)
        conj_conj = self._apply_pows([tuple(p.coords) for p in pows], conj_theta.coords)
        if tuple(conj_conj) != tuple(self.gen().coords):
            return None
        # numeric check that it really is complex conjugation at each place
        for kind, root in self.places:
            if kind != "C":
                continue
            z = complex(root)
            val = sum(complex(float(c)) * z ** j for j, c in enumerate(cand))
            if abs(val - z.conjugate()) > 1e-6:
                return None
        return [tuple(p.coords) for p in pows]

    @staticmethod
    def _apply_pows(pows, coords):
        d = len(coords)
        out = [Fraction(0)] * d
        for c, p in zip(coords, pows):
            if c:
                for i in range(d):
                    out[i] += c * p[i]
        return out

    def _t2_power_gram(self):
        d = self.degree
        gram = []
        theta = self.gen()
        theta_pows = [self.one()]
        for _ in range(d - 1):
            theta_pows.append(theta_pows[-1] * theta)
        conj_pows = [FieldElement(self, c) for c in self._conj_pows]
        for a in range(d):
            row = []
            for b in range(d):
                row.append((theta_pows[a] * conj_pows[b]).trace())
            gram.append(row)
        return gram

    def _build_embed_matrix(self):
        d = self.degree
        rows = []
        sq2 = math.sqrt(2.0)
        for kind, root in self.places:
            if kind == "R":
                rows.append([float(root) ** j for j in range(d)])
            else:
                z = complex(root)
                pw = [z ** j for j in range(d)]
                rows.append([sq2 * w.real for w in pw])
                rows.append([sq2 * w.imag for w in pw])
        return np.array(rows, dtype=float)

    # -- element constructors ------------------------------------------------

    def element(self, coords) -> FieldElement:
        return FieldElement(self, coords)

    def coerce(self, x) -> FieldElement:
        if isinstance(x, FieldElement):
            return x
        q = Fraction(x)
        return FieldElement(self, [q] + [Fraction(0)] * (self.degree - 1))

    def zero(self) -> FieldElement:
        return self.coerce(0)

    def one(self) -> FieldElement:
        return self.coerce(1)

    def gen(self) -> FieldElement:
        if self.degree == 1:
            return self.coerce(-self.min_poly[0])
        return self.element([0, 1] + [0] * (self.degree - 2))

    def basis_elements(self) -> list[FieldElement]:
        return [self.element(row) for row in self.integral_basis]

    # -- core arithmetic -----------------------------------------------------

    def _mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        d = self.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, ca in enumerate(a.coords):
            if ca:
                for j, cb in enumerate(b.coords):
                    if cb:
                        prod[i + j] += ca * cb
        out = [Fraction(0)] * d
        for j, c in enumerate(prod):
            if c:
                red = self._theta_pows[j]
                for i in range(d):
                    out[i] += c * red[i]
        return FieldElement(self, out)

    def mult_matrix(self, x: FieldElement):
        """Row j = power-basis coordinates of theta^j * x."""
        d = self.degree
        rows = [list(x.coords)]
        cur = x
        theta = self.gen()
        for _ in range(d - 1):
            cur = cur * theta
            rows.append(list(cur.coords))
        return rows

    def conjugate(self, x: FieldElement) -> FieldElement:
        if self._conj_pows is None:
            raise ExactNormUnavailableError(
                "complex conjugation is not an automorphism of this field"
            )
        return FieldElement(self, self._apply_pows(self._conj_pows, x.coords))

    def t2(self, x: FieldElement, y: FieldElement) -> Fraction:
        """Tr(x * conj(y)), exact."""
        if self._t2_power is None:
            raise ExactNormUnavailableError(
                "Tr(x*conj(y)) is irrational for this signature; "
                "only totally real and CM fields are supported"
            )
        acc = Fraction(0)
        for a, cx in enumerate(x.coords):
            if cx:
                row = self._t2_power[a]
                for b, cy in enumerate(y.coords):
                    if cy:
                        acc += cx * cy * row[b]
        return acc

    def twisted_sqnorm(self, x: FieldElement) -> float:
        t = self.t2(x, x)
        return float(self.scale_sq) * float(t)

    # -- integrality and reduction -------------------------------------------

    def integral_coords(self, x: FieldElement) -> list[int]:
        """Coordinates of x in the integral basis; raises if not integral."""
        y = intmat.vec_mat(list(x.coords), self._basis_inv)
        out = []
        for c in y:
            if c.denominator != 1:
                raise NotIntegralError(f"{x} is not in O_K")
            out.append(int(c))
        return out

    def prime_above(self, p: int, root: int | None = None) -> PrimeIdealData:
        """Degree-one prime data above p; validates the root and monogenicity index."""
        p = int(p)
        if p < 2 or any(p % t == 0 for t in range(2, math.isqrt(p) + 1)):
            raise ValueError(f"p={p} is not a prime")
        if self.monogenic_index % p == 0:
            raise ValueError(
                f"p={p} divides the index [O_K : Z[theta]] = {self.monogenic_index}"
            )
        if root is None:
            roots = self.prime_roots(p)
            if not roots:
                raise ValueError(f"min_poly has no root mod {p}; no degree-one prime here")
            root = roots[0]
        root = int(root) % p
        if sum(c * pow(root, i, p) for i, c in enumerate(self.min_poly)) % p != 0:
            raise ValueError(f"{root} is not a root of min_poly mod {p}")
        return PrimeIdealData(p=p, root=root)

    def prime_roots(self, p: int) -> list[int]:
        return [r for r in range(p)
                if sum(c * pow(r, i, p) for i, c in enumerate(self.min_poly)) % p == 0]

    def reduce_mod_prime(self, x: FieldElement, P: PrimeIdealData) -> int:
        """Image of integral x under O_K -> O_K/P = F_p (theta |-> root)."""
        self.integral_coords(x)  # integrality gate
        p = P.p
        acc = 0
        for i, c in enumerate(x.coords):
            den = c.denominator % p
            if den == 0:
                raise NotIntegralError("coordinate denominator divisible by p")
            acc = (acc + c.numerator * pow(den, -1, p) * pow(P.root, i, p)) % p
        return acc

    # -- embeddings ------------------------------------------------------------

    def embed_element(self, x: FieldElement) -> np.ndarray:
        coords = np.array([float(c) for c in x.coords])
        raw = self._embed_matrix @ coords
        return raw * math.sqrt(float(self.scale_sq))

    def minkowski_embed(self, vec) -> np.ndarray:
        """Embed a length-r vector over K into R^(r*d), twisted-norm isometrically."""
        parts = []
        for x in vec:
            x = self.coerce(x)
            emb = self.embed_element(x)
            exact = self.twisted_sqnorm(x)
            got = float(emb @ emb)
            if abs(got - exact) > 1e-9 * max(1.0, abs(exact)):
                raise PrecisionError(
                    f"embedding norm check failed: |{got} - {exact}| too large; "
                    f"increase precision_digits"
                )
            parts.append(emb)
        return np.concatenate(parts) if parts else np.zeros(0)

    # -- misc ------------------------------------------------------------------

    def ok_z_basis(self, module_basis):
        """Z-generators u_j * v_i of the O_K-span of the given K-vectors.

        Ordered i-major: all d multiples of v_1 first, then of v_2, ...
        """
        out = []
        for vec in module_basis:
            vec = [self.coerce(x) for x in vec]
            for u in self.basis_elements():
                out.append(tuple(u * x for x in vec))
        return out

    def fingerprint(self) -> str:
        return hashlib.sha256(repr(self.min_poly).encode()).hexdigest()[:16]

    def __repr__(self):
        return f"NumberField({list(self.min_poly)}, degree={self.degree}, disc={self.discriminant})"


def make_field(min_poly, integral_basis=None, precision_digits: int = 50,
               assume_irreducible: bool = False) -> NumberField:
    return NumberField(min_poly, integral_basis=integral_basis,
                       precision_digits=precision_digits,
                       assume_irreducible=assume_irreducible)


def rationals() -> NumberField:
    """K = Q, as the degree-1 field with min_poly x."""
    return make_field([0, 1])


def field_arith(a: FieldElement, b: FieldElement, op: str) -> FieldElement:
    ops = {"add": lambda: a + b, "sub": lambda: a - b,
           "mul": lambda: a * b, "div": lambda: a / b}
    if op not in ops:
        raise ValueError(f"unknown op {op!r}")
    return ops[op]()


def trace_and_twisted_norm(x: FieldElement):
    """(Tr(x*conj(x)) exact, twisted squared norm as float)."""
    t = x.field.t2(x, x)
    return t, float(x.field.scale_sq) * float(t)


def parse_field_file(path) -> NumberField:
    """Field specification file: `min_poly` (constant term first), optional
    `integral_basis` (row-major "p/q"), `precision_digits` (default 50)."""
    keys = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                k, v = line.split("=", 1)
            elif ":" in line:
                k, v = line.split(":", 1)
            else:
                raise ValueError(f"cannot parse field file line: {line!r}")
            keys[k.strip()] = v.strip()
    if "min_poly" not in keys:
        raise ValueError("field file is missing min_poly")
    coeffs = [int(t) for t in keys["min_poly"].replace(",", " ").split()]
    basis = None
    if "integral_basis" in keys:
        flat = [Fraction(t) for t in keys["integral_basis"].replace(",", " ").split()]
        d = len(coeffs) - 1
        if len(flat) != d * d:
            raise ValueError(f"integral_basis needs {d * d} entries, got {len(flat)}")
        basis = [flat[i * d:(i + 1) * d] for i in range(d)]
    digits = int(keys.get("precision_digits", 50))
    return make_field(coeffs, integral_basis=basis, precision_digits=digits)


# -- matrices over K ----------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _theta_powers(field: NumberField) -> np.ndarray:
    """M(theta)^0, ..., M(theta)^(d-1) stacked as a (d, d, d) array of Python ints.

    Row a of M(x) holds the power coordinates of theta^a * x.  M(theta) is
    integral because the minimal polynomial is monic and integral.
    """
    d = field.degree
    mult = [[int(x) for x in row] for row in field.mult_matrix(field.gen())]
    pows = [intmat.identity(d)]
    for _ in range(d - 1):
        pows.append(intmat.mat_mul(pows[-1], mult))
    out = np.array(pows, dtype=object)
    out.flags.writeable = False
    return out


def _regular_rows(field: NumberField, flat) -> np.ndarray:
    """Phi(A), for the N x c matrix A over K whose rows have power coordinates flat.

    Phi replaces each entry x by M(x) = sum_j x_j M(theta)^j, so row i d + a
    of the (N d) x (c d) object array holds the power coordinates of
    theta^a * A_i.  Phi is an injective ring homomorphism and Phi(RREF_K(A))
    is already a rational RREF of the same row space, so by uniqueness
    intmat.rref(Phi(A)) is Phi(RREF_K(A)), and rank_Q Phi(A) = d rank_K A.
    """
    d = field.degree
    n = len(flat)
    c = len(flat[0]) // d if n else 0
    flat = np.array(flat, dtype=object).reshape(n, c * d)
    blocks = flat.reshape(n * c, d) @ _theta_powers(field).reshape(d, d * d)
    return blocks.reshape(n, c, d, d).transpose(0, 2, 1, 3).reshape(n * d, c * d)


def ranks_over_K(field: NumberField, coords, row_basis) -> np.ndarray:
    """Ranks over K of a batch of matrices given by the lattice coordinates of their rows.

    coords is an (N, n, r) integer array and row_basis an r x (c d) rational
    matrix: row t of matrix i has power-basis coordinates coords[i, t] @
    row_basis, so each matrix is n x c over K.  The denominators of
    row_basis are cleared once, which scales every matrix and keeps its
    rank; the integer kernel then ranks the regular representation.
    """
    basis = intmat._integral(row_basis)[1]
    to_blocks = _regular_rows(field, basis).reshape(len(basis), -1)
    return kernels.ranks_regular(coords, to_blocks, field.degree)


def rank_over_K(A) -> int:
    """Rank over K of a matrix of FieldElements: ranks_over_K on a batch of one,
    A's power coordinates scaled to integers, with the identity as row basis."""
    if not A or not A[0]:
        return 0
    field = A[0][0].field
    flat = intmat._integral([flatten_kvector(field, row) for row in A])[1]
    coords = np.array(flat, dtype=object)[None]
    return int(ranks_over_K(field, coords, intmat.identity(len(flat[0])))[0])


def flatten_kvector(field: NumberField, vec):
    """Power-basis rational coordinates of a K^m vector, length m*d."""
    out = []
    for x in vec:
        out.extend(field.coerce(x).coords)
    return out


def unflatten_kvector(field: NumberField, flat):
    d = field.degree
    if len(flat) % d:
        raise ValueError("flat length not divisible by degree")
    return tuple(field.element(flat[i * d:(i + 1) * d]) for i in range(len(flat) // d))
