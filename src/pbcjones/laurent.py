"""Sparse Laurent polynomials in the bracket variable A.

A polynomial is a map from integer exponents to coefficients.  Two modes
exist: ``"exact"`` keeps int/Fraction coefficients and is used wherever a
single diagram is evaluated; ``"float"`` holds finite float coefficients
and is used only for direction averages and the values reported from
them.  Arithmetic is exact-only: a float-mode operand raises TypeError.

The constructor normalizes every coefficient: it checks the type, turns
whole Fractions into ints and drops zeros.  Both modes drop exact zeros
only; a float coefficient that is small but nonzero is kept.  Exact sums
and products whose coefficients are all ints skip it and only drop zero
terms; one holding a Fraction still goes through it.  ``d_power`` is
cached per k, which is safe because polynomials are never mutated after
construction.  A power, for ``**``, ``d_power`` and ``divide_by_d_power``
alike, is any integer that is not a bool and not negative, numpy's
included; it becomes an int first, so ``d_power(np.int64(2))`` and
``d_power(2)`` share one cache entry.

``divide_by_d_power`` is one descending long division over the exponents
of A by d^k, whose leading term is (-1)^k A^(2k).

The JSON form is ``{"mode", "coeffs"}``: exponent keys are ``str`` of
their int and a Fraction is the string ``n/d`` in lowest terms with
d > 1.  ``from_json_obj`` reads only that form and checks a string's
form before parsing it.  Printing tests a coefficient's sign exactly, so
an int past float range prints as it does in JSON.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

from .errors import PbcJonesError

Coeff = Union[int, Fraction, float]

EXACT = "exact"
FLOAT = "float"


def _norm_exact(value: Coeff) -> Union[int, Fraction]:
    if isinstance(value, bool):
        raise TypeError("bool is not a polynomial coefficient")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"exact mode requires int or Fraction coefficients, got {type(value).__name__}")


def _power(n) -> int:
    """A power as an int: any integer that is not a bool and not negative, numpy's included."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"power must be a nonnegative integer, got {n!r}")
    return int(n)


def _norm_float(value: Coeff) -> float:
    if isinstance(value, bool):
        raise TypeError("bool is not a polynomial coefficient")
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"float coefficients must be finite, got {v}")
    return v


class LaurentPoly:
    __slots__ = ("_c", "mode")

    def __init__(self, coeffs: Optional[Mapping[int, Coeff]] = None, mode: str = EXACT):
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        c: Dict[int, Coeff] = {}
        if coeffs:
            norm = _norm_exact if mode == EXACT else _norm_float
            for e, v in coeffs.items():
                v = norm(v)
                if v != 0:
                    c[int(e)] = v
        self._c = c

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, coeff: Coeff, exp: int) -> "LaurentPoly":
        return cls({exp: coeff})

    # -- inspection -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def min_exp(self) -> Optional[int]:
        return min(self._c) if self._c else None

    @property
    def max_exp(self) -> Optional[int]:
        return max(self._c) if self._c else None

    @property
    def span(self) -> int:
        """Width of the exponent range, 0 for the zero polynomial."""
        return (max(self._c) - min(self._c)) if self._c else 0

    def coefficient(self, exp: int) -> Coeff:
        return self._c.get(exp, 0)

    def terms(self) -> Iterator[Tuple[int, Coeff]]:
        """Yield (exponent, coefficient) in ascending exponent order."""
        for e in sorted(self._c):
            yield e, self._c[e]

    def __len__(self) -> int:
        return len(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, 0) + v
        return self._result(c)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, 0) - v
        return self._result(c)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -v for e, v in self._c.items()}, self.mode)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if len(self._c) == 1 or len(other._c) == 1:
                return self._shifted(other) if len(other._c) == 1 else other._shifted(self)
            c: Dict[int, Coeff] = {}
            for e1, v1 in self._c.items():
                for e2, v2 in other._c.items():
                    e = e1 + e2
                    c[e] = c.get(e, 0) + v1 * v2
            return self._result(c)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return LaurentPoly({e: v * other for e, v in self._c.items()})
        return NotImplemented

    __rmul__ = __mul__

    @staticmethod
    def _result(c: Dict[int, Coeff]) -> "LaurentPoly":
        """The exact sum or product ``c`` of two polynomials.

        Coefficients that are all ints need no normalizing, so only their
        zero sums are dropped; anything else goes through the constructor,
        which turns whole Fractions into ints and rejects floats.
        """
        if any(type(v) is not int for v in c.values()):
            return LaurentPoly(c)
        out = LaurentPoly.__new__(LaurentPoly)
        out.mode = EXACT
        out._c = {e: v for e, v in c.items() if v}
        return out

    def _shifted(self, monomial: "LaurentPoly") -> "LaurentPoly":
        """Exact product with a one-term polynomial: shift exponents, scale coefficients.

        Products of nonzero exact coefficients are nonzero, and int
        products need no normalizing; Fraction products go through the
        constructor, which turns whole ones into ints.
        """
        (e0, v0), = monomial._c.items()
        return self._result({e + e0: v * v0 for e, v in self._c.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        n = _power(n)
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison and conversion --------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.mode == other.mode and self._c == other._c

    def __hash__(self) -> int:
        # instances are never mutated after construction
        return hash((self.mode, tuple(sorted(self._c.items()))))

    def pruned(self, eps: float) -> "LaurentPoly":
        """Drop coefficients of magnitude <= eps (any mode)."""
        return LaurentPoly({e: v for e, v in self._c.items() if abs(float(v)) > eps}, self.mode)

    def evaluate(self, x: complex) -> complex:
        return sum(v * x ** e for e, v in self._c.items())

    # -- serialization --------------------------------------------------

    def to_json_obj(self) -> dict:
        coeffs: Dict[str, Union[int, float, str]] = {}
        for e, v in self._c.items():
            if isinstance(v, Fraction):
                coeffs[str(e)] = f"{v.numerator}/{v.denominator}"
            else:
                coeffs[str(e)] = v
        return {"mode": self.mode, "coeffs": coeffs}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "LaurentPoly":
        """Inverse of ``to_json_obj``; anything else raises PbcJonesError.

        An exponent key must be ``str`` of its int, as ``to_json_obj`` writes
        it, so no two keys can name one exponent and merge into one term.
        A string coefficient must be ``n/d`` as ``to_json_obj`` writes it; the
        form is checked first, so ``"1e10000000"`` never reaches ``Fraction``.
        """
        coeffs = obj.get("coeffs") if isinstance(obj, Mapping) else None
        if not isinstance(coeffs, Mapping):
            raise PbcJonesError("not a polynomial: expected an object with 'coeffs'")
        try:
            if bad := [k for k in coeffs if str(int(k)) != k]:
                raise ValueError(f"exponent key {bad[0]!r} is not a plain integer")
            if bad := [v for v in coeffs.values() if isinstance(v, str) and not (
                    re.fullmatch("-?[0-9]+/[0-9]+", v) and str(Fraction(v)) == v)]:
                raise ValueError(f"coefficient {bad[0]!r} is not 'n/d' in lowest terms with d > 1")
            return cls({int(k): Fraction(v) if isinstance(v, str) else v
                        for k, v in coeffs.items()}, obj.get("mode", EXACT))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise PbcJonesError(f"not a polynomial: {exc}") from None

    # -- display --------------------------------------------------------

    def _fmt_coeff(self, v: Coeff) -> str:
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c):
            v = self._c[e]
            neg = v < 0
            mag = -v if neg else v
            if e == 0:
                body = self._fmt_coeff(mag)
            else:
                a = "A" if e == 1 else f"A^{e}"
                body = a if mag == 1 else f"{self._fmt_coeff(mag)}*{a}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self._c!r}, mode={self.mode!r})"


def d_poly() -> LaurentPoly:
    """The loop value -A^2 - A^-2."""
    return LaurentPoly({2: -1, -2: -1})


def d_power(k: int) -> LaurentPoly:
    """d^k, cached per k: polynomials are never mutated after construction."""
    return _d_power(_power(k))


@functools.lru_cache(maxsize=None, typed=True)
def _d_power(k: int) -> LaurentPoly:
    return d_poly() ** k


@dataclass(frozen=True)
class DivisionResult:
    quotient: LaurentPoly
    remainder: LaurentPoly
    remainder_span: int
    remainder_is_zero: bool


def divide_by_d_power(p: LaurentPoly, k: int, zero_tol: float = 1e-9) -> DivisionResult:
    """Split p as quotient * (-A^2 - A^-2)^k + remainder.

    Descending long division that emits quotient terms with nonnegative
    exponents only; it stops as soon as the next quotient term would need
    a negative exponent and leaves the rest as the remainder.  This keeps
    the quotient in ordinary polynomial form and makes the split unique.
    For k = 0 the quotient is p, negative exponents included.  Float
    input follows one rule: quotient and remainder coefficients at or
    below ``zero_tol`` in magnitude are zero, for every k including 0.
    ``remainder_span`` and ``remainder_is_zero`` describe the returned
    remainder.
    """
    k = _power(k)
    quot: Dict[int, Coeff] = {}
    work = dict(p._c)
    if not k:
        quot, work = work, {}
    elif work and max(work) >= 2 * k:
        # below degree 2k no quotient term has a nonnegative exponent, so the
        # k + 1 binomials are built only past it
        sign = -1 if k & 1 else 1
        # d^k == sign * sum_j C(k,j) A^(4j-2k); the j = k term sign * A^(2k) leads
        lower = {4 * j - 2 * k: sign * math.comb(k, j) for j in range(k)}
        while work:
            deg = max(work)
            qe = deg - 2 * k
            if qe < 0:
                break
            # the lead coefficient is `sign`, sign^2 == 1; it cancels exactly
            factor = work.pop(deg) * sign
            quot[qe] = factor
            for de, dv in lower.items():
                e = qe + de
                nv = work.get(e, 0) - factor * dv
                if nv == 0:
                    work.pop(e, None)
                else:
                    work[e] = nv
    quotient = LaurentPoly(quot, p.mode)
    remainder = LaurentPoly(work, p.mode)
    if p.mode == FLOAT:
        quotient, remainder = quotient.pruned(zero_tol), remainder.pruned(zero_tol)
    return DivisionResult(quotient, remainder, remainder.span, remainder.is_zero)
