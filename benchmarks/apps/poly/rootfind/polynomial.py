"""Dense complex polynomials for the Jenkins-Traub zero finder."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from apps.errors import SolverError


class Polynomial:
    """A dense polynomial over the complex numbers.

    Coefficients are stored highest-degree first (``coeffs[0]`` is the
    leading coefficient), matching numpy's ``polyval`` convention. The
    constructor strips leading zeros; the zero polynomial is rejected
    (it has no well-defined zero set).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex] | np.ndarray) -> None:
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise SolverError("polynomial needs a 1-D, non-empty coefficient array")
        nonzero = np.nonzero(arr)[0]
        if nonzero.size == 0:
            raise SolverError("the zero polynomial has no zero set")
        self.coeffs = arr[nonzero[0] :].copy()

    # -- construction -------------------------------------------------------
    @classmethod
    def from_roots(cls, roots: Iterable[complex], leading: complex = 1.0) -> "Polynomial":
        """The monic-times-``leading`` polynomial with the given roots."""
        coeffs = np.array([leading], dtype=np.complex128)
        for root in roots:
            coeffs = np.convolve(coeffs, [1.0, -complex(root)])
        return cls(coeffs)

    @classmethod
    def wilkinson(cls, n: int) -> "Polynomial":
        """The classic ill-conditioned test polynomial Π (x - k), k=1..n."""
        return cls.from_roots(range(1, n + 1))

    # -- basic queries --------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> complex:
        return complex(self.coeffs[0])

    @property
    def constant(self) -> complex:
        return complex(self.coeffs[-1])

    def monic(self) -> "Polynomial":
        return Polynomial(self.coeffs / self.coeffs[0])

    def __call__(self, z: complex) -> complex:
        """Horner evaluation."""
        acc = 0.0 + 0.0j
        for c in self.coeffs:
            acc = acc * z + c
        return complex(acc)

    def eval_with_error_bound(self, z: complex) -> tuple[complex, float]:
        """Horner value plus a running bound on its rounding error.

        The bound is the standard ``Σ |aᵢ||z|ⁱ`` magnitude scaled by
        machine epsilon — used as the Stage 3 stopping criterion ("the
        computed value is dominated by rounding error").
        """
        acc = 0.0 + 0.0j
        mag = 0.0
        az = abs(z)
        for c in self.coeffs:
            acc = acc * z + c
            mag = mag * az + abs(acc)
        eps = np.finfo(np.float64).eps
        return complex(acc), 2.0 * mag * eps

    def derivative(self) -> "Polynomial":
        n = self.degree
        if n == 0:
            raise SolverError("derivative of a constant has no zero set")
        powers = np.arange(n, 0, -1)
        return Polynomial(self.coeffs[:-1] * powers)

    # -- algebra -------------------------------------------------------------------
    def deflate(self, root: complex) -> "Polynomial":
        """Synthetic division by ``(z - root)``; drops the remainder.

        The remainder equals ``p(root)`` and is discarded — standard
        forward deflation, adequate when roots are found smallest-modulus
        first (which the Cauchy-radius start encourages).
        """
        if self.degree < 1:
            raise SolverError("cannot deflate a constant")
        out = np.empty(len(self.coeffs) - 1, dtype=np.complex128)
        acc = 0.0 + 0.0j
        for i, c in enumerate(self.coeffs[:-1]):
            acc = acc * root + c
            out[i] = acc
        return Polynomial(out)

    def divide_out_linear(self, s: complex) -> tuple["Polynomial", complex]:
        """Quotient and remainder of division by ``(z - s)``."""
        quotient = np.empty(len(self.coeffs) - 1, dtype=np.complex128)
        acc = 0.0 + 0.0j
        for i, c in enumerate(self.coeffs[:-1]):
            acc = acc * s + c
            quotient[i] = acc
        remainder = acc * s + self.coeffs[-1]
        return Polynomial(quotient), complex(remainder)

    def scaled(self, factor: complex) -> "Polynomial":
        return Polynomial(self.coeffs * factor)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        width = max(len(a), len(b))
        pa = np.zeros(width, dtype=np.complex128)
        pb = np.zeros(width, dtype=np.complex128)
        pa[width - len(a) :] = a
        pb[width - len(b) :] = b
        diff = pa - pb
        if not np.any(diff):
            raise SolverError("difference is the zero polynomial")
        return Polynomial(diff)

    # -- root-radius estimation --------------------------------------------------------
    def cauchy_lower_radius(self) -> float:
        """A lower bound on the modulus of the smallest zero.

        The unique positive root β of
        ``|a_0| xⁿ + |a_1| xⁿ⁻¹ + ... + |a_{n-1}| x − |a_n| = 0``
        (moduli of this polynomial's coefficients, constant negated) is
        the Jenkins-Traub starting radius: zeros of ``p`` satisfy
        ``|z| ≥ β``. Solved by Newton from a small positive start.
        """
        mods = np.abs(self.coeffs)
        if mods[-1] == 0:
            return 0.0  # zero at the origin
        work = mods.copy()
        work[-1] = -work[-1]
        powers = np.arange(self.degree, -1, -1)

        def f(x: float) -> float:
            return float(np.sum(work * x**powers))

        def fprime(x: float) -> float:
            return float(np.sum(work[:-1] * powers[:-1] * x ** (powers[:-1] - 1)))

        # bracket: f(0) < 0, f grows without bound
        x = (mods[-1] / mods[0]) ** (1.0 / self.degree)  # geometric guess
        for _ in range(200):
            fx = f(x)
            d = fprime(x)
            if d <= 0:
                x *= 2.0
                continue
            step = fx / d
            x_new = x - step
            if x_new <= 0:
                x_new = x / 2.0
            if abs(x_new - x) <= 1e-12 * max(x, 1e-300):
                return float(x_new)
            x = x_new
        return float(x)

    # -- misc ------------------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and bool(
            np.allclose(self.coeffs, other.coeffs)
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(self.coeffs.tobytes())

    def __repr__(self) -> str:
        return f"Polynomial(degree={self.degree})"
