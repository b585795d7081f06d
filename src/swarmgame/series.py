"""Truncated power series in three auxiliary variables.

A ``TruncSeries`` holds a dense coefficient array indexed by the
exponents of (q, r, s), closed under ring arithmetic at fixed maximum
degrees: any product term whose exponent exceeds the truncation in some
variable is discarded.  At the degrees this package uses (about 11 per
variable) dense storage beats sparse by a wide margin.  Products are
computed by ``numpy.fft`` on arrays padded to twice the shape, so the
cyclic convolution leaves the retained coefficients unwrapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TruncSeries", "d_operator"]


@dataclass(frozen=True)
class TruncSeries:
    """Real power series in (q, r, s) truncated at per-variable degrees."""

    coefficients: np.ndarray  # shape (d_q + 1, d_r + 1, d_s + 1)

    def __post_init__(self) -> None:
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.ndim != 3:
            raise ValueError(f"coefficient array must be 3-d, got {coef.ndim}-d")
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)

    @property
    def degrees(self) -> tuple[int, int, int]:
        return tuple(n - 1 for n in self.coefficients.shape)

    @classmethod
    def zero(cls, degrees: tuple[int, int, int]) -> "TruncSeries":
        return cls(np.zeros(tuple(d + 1 for d in degrees)))

    @classmethod
    def constant(cls, value: float, degrees: tuple[int, int, int]) -> "TruncSeries":
        coef = np.zeros(tuple(d + 1 for d in degrees))
        coef[0, 0, 0] = value
        return cls(coef)

    @classmethod
    def monomial(
        cls,
        value: float,
        exponents: tuple[int, int, int],
        degrees: tuple[int, int, int],
    ) -> "TruncSeries":
        """value * q^i r^j s^k (zero if the monomial exceeds the degrees)."""
        coef = np.zeros(tuple(d + 1 for d in degrees))
        if all(e <= d for e, d in zip(exponents, degrees)):
            coef[exponents] = value
        return cls(coef)

    def _check_degrees(self, other: "TruncSeries") -> None:
        if self.degrees != other.degrees:
            raise ValueError(
                f"degree mismatch: {self.degrees} vs {other.degrees}"
            )

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = TruncSeries.constant(float(other), self.degrees)
        self._check_degrees(other)
        return TruncSeries(self.coefficients + other.coefficients)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(-self.coefficients)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = TruncSeries.constant(float(other), self.degrees)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return TruncSeries(self.coefficients * float(other))
        return series_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return TruncSeries(self.coefficients / float(other))
        return series_div(self, other)


def series_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Cauchy product truncated to the common degrees."""
    a._check_degrees(b)
    nq, nr, ns = a.coefficients.shape
    shape, axes = (2 * nq, 2 * nr, 2 * ns), (0, 1, 2)
    spectrum = np.fft.rfftn(a.coefficients, shape, axes)
    spectrum *= np.fft.rfftn(b.coefficients, shape, axes)
    return TruncSeries(np.fft.irfftn(spectrum, shape, axes)[:nq, :nr, :ns])


def series_div(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Series c with c * b = a within the truncation.

    Computed via Newton iteration for the reciprocal of b; the error term
    gains total degree quadratically, so a handful of iterations suffice
    at any practical truncation.  Requires b to have a nonzero constant
    term.
    """
    a._check_degrees(b)
    b000 = b.coefficients[0, 0, 0]
    if b000 == 0.0:
        raise ZeroDivisionError("series division by a series with zero constant term")
    total_degree = sum(b.degrees)
    inv = TruncSeries.constant(1.0 / b000, b.degrees)
    steps = max(1, int(np.ceil(np.log2(total_degree + 1))) + 1)
    for _ in range(steps):
        inv = inv * (2.0 - b * inv)
    return a * inv


def d_operator(f: TruncSeries) -> float:
    """Sum of every retained coefficient.

    Equivalent to applying, in each variable, the partial-sum extraction
    of coefficients up to that variable's truncation degree.  Linear in f.
    """
    return float(f.coefficients.sum())
