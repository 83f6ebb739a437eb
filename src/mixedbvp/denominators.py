"""Asymptotic denominator classification and separation criteria.

The scaled modal determinant behaves, for large mode index, like an
amplitude times sin(lam_k^(1/(2n)) * a + phase) with a phase in
{0, pi/4, pi/2, 3pi/4} fixed by (2n mod 8, the lower-edge stride gamma, and
the parity of the base order q).  Solvability of the whole series then
hinges on keeping that sine away from zero: a small-denominator problem.

Three tools live here:

  * classify_phase: the case table (n even / n odd, gamma, parity of q).
  * separation_check: exact-arithmetic criteria for rational a/pi = p/t.
    Zeros of |sin(pi*k2/t + phase)| over residues k2 exist iff t has the
    matching divisibility (t even for phase pi/2, 4 | t for pi/4 and 3pi/4,
    always for phase 0), giving a positive uniform floor delta1 otherwise.
  * diophantine_scan: for irrational a/pi = tau, the empirical lower bound
    w(k) = k^(b + b*eps) * |sin(pi k^b tau + phase)| whose positive floor
    reflects the rational-approximation quality of tau.

Floors are computed over the full residue set including k2 = 0, which is
the honest minimum attained along k; for integer a/pi this gives
|sin(phase)| rather than 1 (they agree in the pi/2 case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .problem import PiRatio


class CaseNotTabulated(Exception):
    """The (2n, gamma, q) triple matches no tabulated phase row."""


class IrrationalInput(Exception):
    """separation_check needs an exact rational a/pi."""


class CalibrationUnstable(RuntimeError):
    """The fitted asymptote amplitude drifts across the fit window."""


@dataclass(frozen=True)
class PhaseClass:
    phase_over_pi: Fraction
    applicable: bool
    table_row: str

    @property
    def phase(self) -> float:
        return math.pi * float(self.phase_over_pi)


def classify_phase(n: int, gamma: int, q: int) -> PhaseClass:
    """Phase of the denominator asymptote for the (n, gamma, q) case.

    Raises CaseNotTabulated for inputs outside the tabulated families
    (never guesses).
    """
    if not isinstance(n, int) or n < 1:
        raise CaseNotTabulated(f"n={n!r} is not a positive integer")
    if gamma not in (1, 2):
        raise CaseNotTabulated(f"stride gamma={gamma!r} not tabulated")
    hi = n if gamma == 1 else 1
    if not (isinstance(q, int) and 0 <= q <= hi):
        raise CaseNotTabulated(
            f"base order q={q!r} outside {{0..{hi}}} for gamma={gamma}"
        )
    two_n = 2 * n
    q_even = q % 2 == 0
    if n % 2 == 0:
        if gamma == 1:
            if two_n % 8 == 4:
                phase = Fraction(1, 2) if not q_even else Fraction(0)
                row = f"even n, 2n%8=4, stride 1, q {'odd' if not q_even else 'even'}"
            else:
                phase = Fraction(1, 2) if q_even else Fraction(0)
                row = f"even n, 2n%8=0, stride 1, q {'even' if q_even else 'odd'}"
        else:
            phase = Fraction(1, 4) if q_even else Fraction(3, 4)
            row = f"even n, stride 2, q {'even' if q_even else 'odd'}"
    else:
        if gamma == 1:
            if two_n % 8 == 2:
                phase = Fraction(1, 4) if q_even else Fraction(3, 4)
                row = f"odd n, 2n%8=2, stride 1, q {'even' if q_even else 'odd'}"
            else:
                phase = Fraction(1, 4) if not q_even else Fraction(3, 4)
                row = f"odd n, 2n%8=6, stride 1, q {'odd' if not q_even else 'even'}"
        else:
            phase = Fraction(1, 4) if q_even else Fraction(3, 4)
            row = f"odd n, stride 2, q {'even' if q_even else 'odd'}"
    return PhaseClass(phase_over_pi=phase, applicable=True, table_row=row)


@dataclass
class SeparationResult:
    separated: bool
    delta1: float | None
    reason: str
    numerator: int
    denominator: int

    @property
    def verdict(self) -> str:
        return "separated" if self.separated else "not_guaranteed"


def separation_check(a_over_pi: PiRatio, phase: PhaseClass) -> SeparationResult:
    """Exact separation criterion for rational a/pi = p/t in lowest terms.

    The mode phases pi*p*k^b/t fall on the residue lattice pi*k2/t; the
    denominator family has a uniform positive floor iff no residue hits a
    zero of |sin(pi*k2/t + phase)|.
    """
    if a_over_pi.kind != "rational":
        raise IrrationalInput(
            "separation_check needs an exact rational a/pi; "
            "use diophantine_scan for tagged irrationals"
        )
    frac = a_over_pi.fraction
    p, t = frac.numerator, frac.denominator
    ph = phase.phase_over_pi
    values = np.abs(np.sin(math.pi * (np.arange(t) / t + float(ph))))
    floor = float(np.min(values))
    if ph == 0:
        return SeparationResult(
            separated=False, delta1=None,
            reason="phase 0: the residue k2 = 0 (any k divisible by t) "
                   "zeroes sin(pi k^b p/t) for every rational a/pi",
            numerator=p, denominator=t,
        )
    if ph == Fraction(1, 2):
        ok = t % 2 == 1
        why = f"t = {t} is {'odd' if ok else 'even'}; zeros need k2/t = 1/2"
    else:
        ok = t % 4 != 0
        why = (
            f"t = {t} is {'not ' if ok else ''}a multiple of 4; "
            f"zeros need k2/t with denominator 4"
        )
    if ok:
        return SeparationResult(
            separated=True, delta1=floor, reason=why, numerator=p, denominator=t
        )
    witness = int(np.argmin(values))
    return SeparationResult(
        separated=False, delta1=None,
        reason=f"{why}; residue k2 = {witness} attains |sin| = {floor:.3e}",
        numerator=p, denominator=t,
    )


@dataclass
class ScanResult:
    tau_text: str
    b: int
    epsilon: float
    phase_over_pi: Fraction
    k: np.ndarray
    w: np.ndarray
    raw: np.ndarray
    m: np.ndarray
    gap: np.ndarray
    min_w: float
    argmin_w: int
    min_raw: float
    argmin_raw: int
    refined: dict

    def summary(self) -> dict:
        return {
            "tau": self.tau_text,
            "b": self.b,
            "epsilon": self.epsilon,
            "phase_over_pi": str(self.phase_over_pi),
            "k_max": int(self.k[-1]),
            "min_w": self.min_w,
            "argmin_w": self.argmin_w,
            "min_raw": self.min_raw,
            "argmin_raw": self.argmin_raw,
        }


def _tau_parts(tau):
    """Normalize tau input to (float value, mpf factory, text)."""
    if isinstance(tau, PiRatio):
        return tau.value, tau.mpf, tau.describe()
    if isinstance(tau, str):
        ratio = PiRatio.irrational(tau)
        return ratio.value, ratio.mpf, ratio.describe()
    if isinstance(tau, Fraction):
        ratio = PiRatio.rational(tau.numerator, tau.denominator)
        return ratio.value, ratio.mpf, ratio.describe()
    val = float(tau)
    return val, lambda dps=50: mpmath.mpf(repr(val)), repr(val)


def diophantine_scan(
    tau,
    b: int,
    epsilon: float,
    phase,
    k_max: int,
    refine_top: int = 20,
    dps: int = 60,
) -> ScanResult:
    """Scan k = 1..k_max for the weighted denominator floor.

    For each k: m = floor(tau k^b) + 1, the half-odd gap
    |tau - (2m-1)/(2 k^b)| (always <= 1/(2 k^b) by construction), the raw
    denominator k^b |sin(pi k^b tau + phase)|, and the weighted
    w(k) = k^(b(1+epsilon)) |sin(...)|.  The smallest refine_top weighted
    values are recomputed with mpmath to guard the float arg-reduction.
    """
    tau_f, tau_mpf, tau_text = _tau_parts(tau)
    if tau_f <= 0:
        raise ValueError("tau must be positive")
    if isinstance(phase, PhaseClass):
        phase_frac = phase.phase_over_pi
    elif isinstance(phase, Fraction):
        phase_frac = phase
    else:
        phase_frac = Fraction(phase).limit_denominator(64)
    ks = np.arange(1, int(k_max) + 1, dtype=np.int64)
    kb = ks.astype(float) ** b
    sines = np.abs(np.sin(math.pi * (tau_f * kb) + math.pi * float(phase_frac)))
    m = np.floor(tau_f * kb).astype(np.int64) + 1
    gap = np.abs(tau_f - (2.0 * m - 1.0) / (2.0 * kb))
    w = kb ** (1.0 + epsilon) * sines
    raw = kb * sines

    refined = {}
    order = np.argsort(w)[: max(0, int(refine_top))]
    with mpmath.workdps(dps):
        tau_hp = tau_mpf(dps)
        for idx in order:
            kk = int(ks[idx])
            arg = tau_hp * mpmath.mpf(kk) ** b
            if phase_frac != 0:
                arg += mpmath.mpf(phase_frac.numerator) / phase_frac.denominator
            s_hp = abs(mpmath.sinpi(arg))
            refined[kk] = (
                float(mpmath.mpf(kk) ** (b * (1.0 + epsilon)) * s_hp),
                float(mpmath.mpf(kk) ** b * s_hp),
            )
            w[idx] = refined[kk][0]
            raw[idx] = refined[kk][1]

    i_w = int(np.argmin(w))
    i_raw = int(np.argmin(raw))
    return ScanResult(
        tau_text=tau_text, b=b, epsilon=float(epsilon), phase_over_pi=phase_frac,
        k=ks, w=w, raw=raw, m=m, gap=gap,
        min_w=float(w[i_w]), argmin_w=int(ks[i_w]),
        min_raw=float(raw[i_raw]), argmin_raw=int(ks[i_raw]),
        refined=refined,
    )


@dataclass
class CFExpansion:
    quotients: list
    convergents: list
    terminated: bool
    near_rational: bool


def continued_fraction(tau, depth: int = 30) -> CFExpansion:
    """Partial quotients and convergents of tau > 0.

    Exact integer Euclid for rational input; mpmath with a working
    precision scaled to the requested depth otherwise.  A huge partial
    quotient flags a suspiciously near-rational tau.
    """
    if depth < 1 or depth > 40:
        raise ValueError("depth must be in 1..40")
    quotients = []
    terminated = False
    if isinstance(tau, PiRatio) and tau.kind == "rational":
        tau = tau.fraction
    if isinstance(tau, Fraction) or isinstance(tau, int):
        x = Fraction(tau)
        if x <= 0:
            raise ValueError("tau must be positive")
        for _ in range(depth):
            ai = x.numerator // x.denominator
            quotients.append(int(ai))
            frac = x - ai
            if frac == 0:
                terminated = True
                break
            x = 1 / frac
    else:
        if isinstance(tau, PiRatio):
            getter = tau.mpf
        elif isinstance(tau, str):
            getter = PiRatio.irrational(tau).mpf
        else:
            getter = lambda dps=50: mpmath.mpf(repr(float(tau)))
        dps = 25 + 4 * depth
        with mpmath.workdps(dps):
            x = getter(dps)
            if x <= 0:
                raise ValueError("tau must be positive")
            tiny = mpmath.mpf(10) ** (-(dps - 8))
            for _ in range(depth):
                ai = int(mpmath.floor(x))
                quotients.append(ai)
                frac = x - ai
                if frac < tiny:
                    terminated = True
                    break
                x = 1 / frac

    convergents = []
    p_prev, p_cur = 1, quotients[0]
    q_prev, q_cur = 0, 1
    convergents.append(Fraction(p_cur, q_cur))
    for ai in quotients[1:]:
        p_cur, p_prev = ai * p_cur + p_prev, p_cur
        q_cur, q_prev = ai * q_cur + q_prev, q_cur
        convergents.append(Fraction(p_cur, q_cur))
    near_rational = any(ai > 10**6 for ai in quotients[1:])
    return CFExpansion(
        quotients=quotients, convergents=convergents,
        terminated=terminated, near_rational=near_rational,
    )


@dataclass
class AsymptoteReport:
    k: np.ndarray
    normalized: np.ndarray
    delta4: np.ndarray
    residual: np.ndarray
    amplitude: float
    sup_tail: float
    sup_head: float
    min_abs_normalized: float

    def records(self) -> list:
        return [
            {
                "k": int(kk),
                "normalized_det": float(nd),
                "asymptote": float(d4),
                "residual": float(r),
            }
            for kk, nd, d4, r in zip(self.k, self.normalized, self.delta4, self.residual)
        ]


def asymptote_comparison(ks, dets, lams, n: int, a: float, phase: PhaseClass) -> AsymptoteReport:
    """Fit one amplitude and compare scaled determinants to the shifted sine.

    The amplitude is a least-squares scalar over the upper half of the mode
    range; the residual per mode is normalized_det - sin(lam^(1/(2n)) a + phase).

    Raises CalibrationUnstable when the fit amplitude differs by more than
    10% between the two halves of the fit window, or when the asymptote is
    degenerate on the window (all sines near zero).
    """
    ks = np.asarray(ks, dtype=int)
    dets = np.asarray(dets, dtype=float)
    lams = np.asarray(lams, dtype=float)
    delta4 = np.sin(lams ** (1.0 / (2 * n)) * a + phase.phase)
    half = len(ks) // 2
    window = np.arange(half, len(ks))
    if len(window) < 4:
        raise CalibrationUnstable("mode range too short to calibrate")

    def fit(idx):
        den = float(np.sum(delta4[idx] ** 2))
        if den < 1e-20 * len(idx):
            raise CalibrationUnstable(
                "asymptote is degenerate on the fit window (sines ~ 0); "
                "cannot calibrate an amplitude"
            )
        return float(np.sum(dets[idx] * delta4[idx])) / den

    amplitude = fit(window)
    mid = len(window) // 2
    a1, a2 = fit(window[:mid]), fit(window[mid:])
    if abs(a1 - a2) > 0.1 * max(abs(amplitude), 1e-300):
        raise CalibrationUnstable(
            f"amplitude drifts across the fit window: {a1:.6g} vs {a2:.6g}"
        )
    normalized = dets / amplitude
    residual = normalized - delta4
    quarter = max(1, len(ks) // 4)
    return AsymptoteReport(
        k=ks, normalized=normalized, delta4=delta4, residual=residual,
        amplitude=amplitude,
        sup_tail=float(np.max(np.abs(residual[-quarter:]))),
        sup_head=float(np.max(np.abs(residual[:half]))) if half else 0.0,
        min_abs_normalized=float(np.min(np.abs(normalized))),
    )


def default_epsilon(s: int, b: int, r: float = 0.0) -> float | None:
    """Half the largest epsilon with b(1+eps) < 2s - r - b; None if empty."""
    eps_max = (2.0 * s - r - b) / b - 1.0
    if eps_max <= 0:
        return None
    return eps_max / 2.0


@dataclass
class DenominatorReport:
    phase: PhaseClass
    verdict: str  # separated | not_guaranteed | diophantine | undeclared
    delta1: float | None
    separation: SeparationResult | None
    scan: ScanResult | None
    asymptote: AsymptoteReport | None
    notes: list

    def to_json_dict(self) -> dict:
        out = {
            "phase_over_pi": str(self.phase.phase_over_pi),
            "table_row": self.phase.table_row,
            "verdict": self.verdict,
            "delta1": self.delta1,
            "notes": list(self.notes),
        }
        if self.separation is not None:
            out["separation_reason"] = self.separation.reason
        if self.scan is not None:
            out["scan"] = self.scan.summary()
        if self.asymptote is not None:
            out["calibration"] = self.asymptote.amplitude
            out["sup_residual_tail"] = self.asymptote.sup_tail
            out["min_abs_normalized"] = self.asymptote.min_abs_normalized
            out["records"] = self.asymptote.records()
        return out


def build_report(
    spec,
    ks=None,
    dets=None,
    lams=None,
    scan_kmax: int = 2000,
    epsilon: float | None = None,
) -> DenominatorReport:
    """Assemble the full denominator diagnosis for one problem spec."""
    phase = classify_phase(spec.n, spec.gamma, spec.q)
    notes = [
        "phase is keyed on the lower-edge stride and base order; "
        f"upper edge (chi={spec.chi}, delta={spec.delta}) recorded only"
    ]
    separation = None
    scan = None
    delta1 = None
    ratio = spec.a_over_pi
    if ratio.kind == "rational":
        separation = separation_check(ratio, phase)
        verdict = separation.verdict
        delta1 = separation.delta1
    elif ratio.kind == "irrational":
        eps = epsilon
        if eps is None:
            eps = default_epsilon(spec.s, spec.b)
            if eps is None:
                eps = 0.25
                notes.append(
                    "b equals s, so no admissible weighted exponent exists; "
                    "scan uses epsilon = 0.25 for reporting only"
                )
        scan = diophantine_scan(ratio, spec.b, eps, phase, scan_kmax)
        verdict = "diophantine"
    else:
        verdict = "undeclared"
        notes.append(
            "rationality of a/pi was not declared; separation criteria skipped"
        )
    asymptote = None
    if dets is not None and lams is not None:
        if ks is None:
            ks = np.arange(1, len(np.asarray(dets)) + 1)
        try:
            asymptote = asymptote_comparison(ks, dets, lams, spec.n, spec.a, phase)
        except CalibrationUnstable as exc:
            notes.append(f"asymptote comparison unavailable: {exc}")
    return DenominatorReport(
        phase=phase, verdict=verdict, delta1=delta1, separation=separation,
        scan=scan, asymptote=asymptote, notes=notes,
    )
