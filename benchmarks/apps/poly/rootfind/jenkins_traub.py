"""The three-stage Jenkins-Traub iteration (CPOLY, Algorithm 419 [11]).

Structure (complex coefficients):

- **Stage 1 (no shift)** — a few iterations of
  ``H⁽λ⁺¹⁾(z) = (1/z)·[H⁽λ⁾(z) − (H⁽λ⁾(0)/p(0))·p(z)]``
  starting from ``H⁽⁰⁾ = p′``, to accentuate the smallest zeros.
- **Stage 2 (fixed shift)** — pick a starting point ``s = β·e^{iθ}``
  where ``β`` is the Cauchy lower bound on the zero moduli and **θ is the
  random angle** — the degree of freedom the paper parallelizes. Iterate
  the same recurrence at ``z = s`` while watching the sequence
  ``t_λ = s − p(s)/H̄⁽λ⁾(s)``; when two successive ``t`` agree to half a
  percent, move on.
- **Stage 3 (variable shift)** — Newton-like iteration
  ``s_{λ+1} = s_λ − p(s_λ)/H̄⁽λ⁺¹⁾(s_λ)`` with the H-recurrence now
  following ``s_λ``; converged when ``|p(s)|`` sinks below its own
  rounding-error bound.

A zero found is deflated out and the process repeats on the quotient.
If stage 2/3 fail to converge within their iteration budgets the attempt
is retried with another angle; attempts are counted, and running out of
angle retries marks the run *failed* — the Table I ``fails`` column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from apps.poly.rootfind.polynomial import Polynomial
from apps.errors import ConvergenceError


@dataclass(frozen=True)
class JTOptions:
    """Tunables of the zero finder."""

    stage1_iterations: int = 5
    stage2_max_iterations: int = 120
    stage3_max_iterations: int = 60
    max_angle_tries: int = 9
    #: first angle when no RNG is supplied (the published choice is 49°,
    #: rotating by 94° on retries)
    first_angle_deg: float = 49.0
    angle_step_deg: float = 94.0


@dataclass
class JTReport:
    """Accounting for one full-polynomial run."""

    zeros: list[complex] = field(default_factory=list)
    angle_tries: int = 0
    stage2_iterations: int = 0
    stage3_iterations: int = 0
    elapsed_s: float = 0.0
    failed: bool = False
    failure_reason: str = ""


def _next_h(p: Polynomial, h: Polynomial, s: complex) -> Polynomial:
    """One H-recurrence step: ``(H − (H(s)/p(s))·p) / (z − s)``.

    The numerator vanishes at ``s`` by construction, so the synthetic
    division is exact.
    """
    ps = p(s)
    if ps == 0:
        # s is itself a zero of p; caller handles this case
        raise ZeroDivisionError("shift point is a zero of p")
    c = h(s) / ps
    numerator_coeffs = np.zeros(len(p.coeffs), dtype=np.complex128)
    numerator_coeffs[len(p.coeffs) - len(h.coeffs) :] = h.coeffs
    numerator_coeffs -= c * p.coeffs
    numerator = Polynomial(numerator_coeffs) if np.any(numerator_coeffs) else None
    if numerator is None:
        # H became an exact multiple of p (degenerate); restart from p'
        return p.derivative()
    quotient, _ = numerator.divide_out_linear(s)
    return quotient


def _t_value(p: Polynomial, h: Polynomial, s: complex) -> complex:
    """``t = s − p(s)/H̄(s)`` with H̄ the monic-normalized H."""
    hs = h(s) / h.leading
    if hs == 0:
        return complex(np.inf)
    return s - p(s) / hs


def find_one_zero(
    p: Polynomial,
    angle: float | None = None,
    options: JTOptions = JTOptions(),
    rng: np.random.Generator | None = None,
    report: JTReport | None = None,
) -> complex:
    """Find one zero of ``p`` (degree ≥ 1) via the three-stage iteration.

    ``angle`` fixes the first starting angle in radians; otherwise angles
    come from ``rng`` (uniform) or from the published 49°+k·94° ladder.
    Raises :class:`~apps.errors.ConvergenceError` when every angle try
    is exhausted.
    """
    if report is None:
        report = JTReport()
    if p.degree == 1:
        return complex(-p.coeffs[1] / p.coeffs[0])
    if p.constant == 0:
        return 0.0 + 0.0j

    beta = p.cauchy_lower_radius()
    if beta == 0.0:
        return 0.0 + 0.0j

    # Stage 1: no-shift iterations sharpen H toward the small zeros
    h = p.derivative()
    for _ in range(options.stage1_iterations):
        h0 = h(0.0)
        p0 = p(0.0)
        if p0 == 0:
            return 0.0 + 0.0j
        c = h0 / p0
        numerator_coeffs = np.zeros(len(p.coeffs), dtype=np.complex128)
        numerator_coeffs[len(p.coeffs) - len(h.coeffs) :] = h.coeffs
        numerator_coeffs -= c * p.coeffs
        if not np.any(numerator_coeffs):
            h = p.derivative()
            continue
        # division by z: drop the trailing coefficient (it is ~0)
        h = Polynomial(numerator_coeffs[:-1])

    for attempt in range(options.max_angle_tries):
        report.angle_tries += 1
        if angle is not None and attempt == 0:
            theta = angle
        elif rng is not None:
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
        else:
            theta = np.deg2rad(
                options.first_angle_deg + attempt * options.angle_step_deg
            )
        s = beta * complex(np.cos(theta), np.sin(theta))
        try:
            zero = _stage2_stage3(p, h, s, options, report)
        except (ConvergenceError, ZeroDivisionError, FloatingPointError):
            continue
        if zero is not None:
            return zero
    raise ConvergenceError(
        f"Jenkins-Traub failed on degree {p.degree} after "
        f"{options.max_angle_tries} starting angles"
    )


def _stage2_stage3(
    p: Polynomial,
    h_in: Polynomial,
    s: complex,
    options: JTOptions,
    report: JTReport,
) -> complex | None:
    h = h_in
    # ---- Stage 2: fixed shift -------------------------------------------
    t_prev: complex | None = None
    t_prev2: complex | None = None
    entered_stage3 = False
    for _ in range(options.stage2_max_iterations):
        report.stage2_iterations += 1
        ps = p(s)
        if ps == 0:
            return s
        h = _next_h(p, h, s)
        t = _t_value(p, h, s)
        if not np.isfinite(t.real) or not np.isfinite(t.imag):
            t_prev2, t_prev = None, None
            continue
        if t_prev is not None and t_prev2 is not None:
            # weak convergence test: successive t's agree to ~0.5 %
            if (
                abs(t - t_prev) <= 0.5 * abs(t_prev)
                and abs(t_prev - t_prev2) <= 0.5 * abs(t_prev2)
            ):
                entered_stage3 = True
                break
        t_prev2, t_prev = t_prev, t
    if not entered_stage3:
        return None

    # ---- Stage 3: variable shift ----------------------------------------------
    s = t_prev if t_prev is not None else s
    for _ in range(options.stage3_max_iterations):
        report.stage3_iterations += 1
        value, bound = p.eval_with_error_bound(s)
        if abs(value) <= max(bound, 1e-300):
            return s
        try:
            h = _next_h(p, h, s)
        except ZeroDivisionError:
            return s  # landed exactly on a zero
        hbar_s = h(s) / h.leading
        if hbar_s == 0:
            return None
        step = value / hbar_s
        s = s - step
        if not np.isfinite(s.real) or not np.isfinite(s.imag):
            return None
        if abs(step) <= 1e-15 * max(abs(s), 1e-300):
            value, bound = p.eval_with_error_bound(s)
            if abs(value) <= max(bound * 10, 1e-280):
                return s
            return None
    return None


def find_all_zeros(
    p: Polynomial,
    options: JTOptions = JTOptions(),
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    polish: bool = True,
) -> JTReport:
    """All zeros of ``p`` by repeated find-one + deflation.

    ``seed`` (or an explicit ``rng``) drives the random starting angles —
    the per-alternative degree of freedom. The report carries timing and
    iteration counts; on failure ``report.failed`` is set and the zeros
    found so far remain in ``report.zeros``.
    """
    if rng is None and seed is not None:
        rng = np.random.default_rng(seed)
    report = JTReport()
    t0 = time.perf_counter()
    work = p.monic()
    original = p
    try:
        while work.degree > 0:
            if work.degree == 1:
                report.zeros.append(complex(-work.coeffs[1] / work.coeffs[0]))
                break
            if work.degree == 2:
                a, b, c = work.coeffs
                disc = np.sqrt(b * b - 4 * a * c + 0.0j)
                report.zeros.extend(
                    [complex((-b + disc) / (2 * a)), complex((-b - disc) / (2 * a))]
                )
                break
            zero = find_one_zero(work, options=options, rng=rng, report=report)
            report.zeros.append(zero)
            work = work.deflate(zero).monic()
    except ConvergenceError as exc:
        report.failed = True
        report.failure_reason = str(exc)
    if polish and not report.failed:
        report.zeros = [_polish(original, z) for z in report.zeros]
    report.elapsed_s = time.perf_counter() - t0
    return report


def _polish(p: Polynomial, z: complex, iterations: int = 3) -> complex:
    """A few Newton steps against the *original* polynomial.

    Deflation accumulates error in the later zeros; polishing against the
    undeflated p restores full accuracy when the zero is simple.
    """
    dp = p.derivative()
    for _ in range(iterations):
        d = dp(z)
        if d == 0:
            return z
        step = p(z) / d
        z_new = z - step
        if not (np.isfinite(z_new.real) and np.isfinite(z_new.imag)):
            return z
        if abs(p(z_new)) >= abs(p(z)):
            return z
        z = z_new
    return z
