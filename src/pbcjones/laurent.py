"""Sparse Laurent polynomials in the bracket variable A.

A polynomial is a map from integer exponents to coefficients.  Two modes
exist: ``"exact"`` keeps int/Fraction coefficients and is used wherever a
single diagram is evaluated; ``"float"`` holds finite float coefficients
and is used only for direction averages and the values reported from
them.  Arithmetic is exact-only: a float-mode operand raises TypeError.

The constructor normalizes every coefficient: it checks the type, turns
whole Fractions into ints and drops zeros.  Exact sums and products whose
coefficients are all ints skip it and only drop zero terms; one holding a
Fraction still goes through it.  ``d_power`` is cached per k, which is
safe because polynomials are never mutated after construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

from .errors import PbcJonesError

Coeff = Union[int, Fraction, float]

EXACT = "exact"
FLOAT = "float"

# magnitude below which float-mode coefficients are dropped on construction
FLOAT_PRUNE = 1e-12


def _norm_exact(value: Coeff) -> Union[int, Fraction]:
    if isinstance(value, bool):
        raise TypeError("bool is not a polynomial coefficient")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"exact mode requires int or Fraction coefficients, got {type(value).__name__}")


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
            if mode == EXACT:
                for e, v in coeffs.items():
                    v = _norm_exact(v)
                    if v != 0:
                        c[int(e)] = v
            else:
                for e, v in coeffs.items():
                    v = _norm_float(v)
                    if abs(v) > FLOAT_PRUNE:
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
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale_exponents(self, factor: int) -> "LaurentPoly":
        """Substitute A -> A**factor."""
        return LaurentPoly({e * factor: v for e, v in self._c.items()}, self.mode)

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
        """Inverse of ``to_json_obj``; anything else raises PbcJonesError."""
        coeffs = obj.get("coeffs") if isinstance(obj, Mapping) else None
        if not isinstance(coeffs, Mapping):
            raise PbcJonesError("not a polynomial: expected an object with 'coeffs'")
        try:
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
            neg = (float(v) < 0)
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


@functools.lru_cache(maxsize=None, typed=True)
def d_power(k: int) -> LaurentPoly:
    """d^k, cached per k: polynomials are never mutated after construction."""
    if k < 0:
        raise ValueError("negative powers of the loop value are not polynomials")
    return d_poly() ** k


@dataclass(frozen=True)
class DivisionResult:
    quotient: LaurentPoly
    remainder: LaurentPoly
    remainder_span: int
    remainder_is_zero: bool


def _divide_class(coeffs: Dict[int, Coeff], k: int) -> Tuple[Dict[int, Coeff], Dict[int, Coeff]]:
    """Divide a polynomial in B (exponent->coeff) by (-B - B^-1)^k.

    Descending long division emitting quotient terms with nonnegative
    B exponents only; it stops as soon as the next quotient term would
    need a negative exponent and leaves the rest as the remainder.  This
    keeps the quotient in ordinary polynomial form and makes the split
    unique.
    """
    if not coeffs or max(coeffs) < k:
        # no quotient term has a nonnegative exponent: skip the k + 1 binomials
        return {}, dict(coeffs)
    sign = -1 if k & 1 else 1
    # (-B - B^-1)^k == sign * sum_j C(k,j) B^(2j-k), leading term sign * B^k
    divisor = {2 * j - k: sign * math.comb(k, j) for j in range(k + 1)}
    quot: Dict[int, Coeff] = {}
    work = dict(coeffs)
    while work:
        deg = max(work)
        qe = deg - k
        if qe < 0:
            break
        factor = work[deg] * sign  # divisor lead coefficient is `sign`, sign^2 == 1
        quot[qe] = factor
        del work[deg]  # cancels exactly by construction
        for de, dv in divisor.items():
            if de == k:
                continue
            e = qe + de
            nv = work.get(e, 0) - factor * dv
            if nv == 0:
                work.pop(e, None)
            else:
                work[e] = nv
    return quot, work


def divide_by_d_power(p: LaurentPoly, k: int, zero_tol: float = 1e-9) -> DivisionResult:
    """Split p as quotient * (-A^2 - A^-2)^k + remainder.

    The quotient is unique when the division is exact.  Float input follows
    one rule: quotient and remainder coefficients at or below ``zero_tol``
    in magnitude are zero, for every k including 0.  ``remainder_span`` and
    ``remainder_is_zero`` describe the returned remainder.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"power must be a nonnegative integer, got {k!r}")
    even: Dict[int, Coeff] = {}
    odd: Dict[int, Coeff] = {}
    for e, v in p._c.items():
        if e % 2 == 0:
            even[e // 2] = v
        else:
            odd[(e - 1) // 2] = v
    qc: Dict[int, Coeff] = {}
    rc: Dict[int, Coeff] = {}
    for parity, cls_coeffs in ((0, even), (1, odd)):
        # d^0 = 1 divides everything, negative exponents included
        q, r = _divide_class(cls_coeffs, k) if k else (cls_coeffs, {})
        for e, v in q.items():
            qc[2 * e + parity] = v
        for e, v in r.items():
            rc[2 * e + parity] = v
    quotient = LaurentPoly(qc, p.mode)
    remainder = LaurentPoly(rc, p.mode)
    if p.mode == FLOAT:
        quotient, remainder = quotient.pruned(zero_tol), remainder.pruned(zero_tol)
    return DivisionResult(quotient, remainder, remainder.span, remainder.is_zero)
