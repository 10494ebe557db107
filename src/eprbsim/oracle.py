"""Independent cross-checks: exhaustive enumerations and quadrature.

The enumerations exercise the production +-1 algebra and count
combinations over every possible input, so a sign error anywhere in
those formulas surfaces as a concrete counterexample.  The quadrature
gives the single-station pass probability to compare against simulated
pass fractions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

from . import stats
from .params import ModelParams

PM = (-1, 1)


@dataclass
class EnumerationReport:
    name: str
    cases: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def enumerate_quadruple_identities() -> EnumerationReport:
    """All 16 outcome quadruples: s in {-2,+2}, every b in {-1,+3}."""
    report = EnumerationReport("quadruple-identities", 0)
    for x1, x1p, x2, x2p in product(PM, PM, PM, PM):
        report.cases += 1
        s = stats.quadruple_s(x1, x1p, x2, x2p)
        if s not in (-2, 2):
            report.violations.append(("s", (x1, x1p, x2, x2p), s))
        for i, b in enumerate(stats.quadruple_b(x1, x1p, x2, x2p)):
            if b not in (-1, 3):
                report.violations.append((f"b{i + 1}", (x1, x1p, x2, x2p), b))
    return report


def _tilde_constraints(x1, x1p, x2, x2p, t1, t1p, t2, t2p) -> bool:
    """Constraint set on duplicated outcomes across the four setting pairs.

    Pair products measured together keep their own copies; each
    three-product sum reuses one outcome through both of its copies, so
    the {-1,+3} range only survives when the copies agree.
    """
    s = x1 * x2 - t1 * x2p + x1p * t2 + t1p * t2p
    b1 = x1 * x1p + x1 * x2 + x1p * t2
    b2 = x1 * x1p + x1 * x2p + t1p * x2p
    b3 = x1 * x2 + t1 * x2p + x2 * x2p
    b4 = x1p * x2 + x1p * t2p + x2 * x2p
    if s not in (-2, 2):
        return False
    return all(b in (-1, 3) for b in (b1, b2, b3, b4))


def enumerate_noncfd_constraint() -> EnumerationReport:
    """All 256 assignments of four pairs with duplicated outcomes.

    The CFD-consistent assignments (every duplicate equal to its
    original) must satisfy all constraints; every other assignment must
    violate at least one, i.e. the constraints force duplicate equality.
    """
    report = EnumerationReport("noncfd-forcing", 0)
    for x1, x1p, x2, x2p in product(PM, PM, PM, PM):
        for t1, t1p, t2, t2p in product(PM, PM, PM, PM):
            report.cases += 1
            consistent = (t1, t1p, t2, t2p) == (x1, x1p, x2, x2p)
            satisfied = _tilde_constraints(x1, x1p, x2, x2p, t1, t1p, t2, t2p)
            if consistent and not satisfied:
                report.violations.append(
                    ("consistent-rejected", (x1, x1p, x2, x2p)))
            if satisfied and not consistent:
                report.violations.append(
                    ("forcing-failed", (x1, x1p, x2, x2p, t1, t1p, t2, t2p)))
    return report


def enumerate_eberhard() -> EnumerationReport:
    """All 81 fate quadruples: the Eberhard combination is >= 0."""
    report = EnumerationReport("eberhard-nonnegativity", 0)
    fates = (-1, 0, 1)
    for f1, f1p, f2, f2p in product(fates, fates, fates, fates):
        report.cases += 1
        j = int(stats.eberhard_j_terms(f1, f1p, f2, f2p))
        if j < 0:
            report.violations.append(((f1, f1p, f2, f2p), j))
    return report


def enumerate_ch() -> EnumerationReport:
    """All 16 detection-indicator quadruples: the CH combination, which
    is the Eberhard one on 0/1 indicators, is >= 0."""
    report = EnumerationReport("ch-nonnegativity", 0)
    for o1, o1p, o2, o2p in product((0, 1), (0, 1), (0, 1), (0, 1)):
        report.cases += 1
        j = int(stats.eberhard_j_terms(o1, o1p, o2, o2p))
        if j < 0:
            report.violations.append(((o1, o1p, o2, o2p), j))
    return report


def run_all_enumerations() -> list[EnumerationReport]:
    return [
        enumerate_quadruple_identities(),
        enumerate_noncfd_constraint(),
        enumerate_eberhard(),
        enumerate_ch(),
    ]


def pass_probability(params: ModelParams) -> float:
    """Single-station probability that a voltage passes the threshold.

    Averages min(1, kappa / |sin u|^d) over the misalignment angle u.
    The domain splits where the integrand leaves its plateau, keeping
    the adaptive quadrature on the smooth part; relative error stays
    well under 1e-6.
    """
    if params.span == 0.0:
        return 0.0
    kappa = params.kappa
    if kappa <= 0.0:
        return 0.0
    if kappa >= 1.0:
        return 1.0
    d = params.d
    if d == 0.0:
        return kappa
    # Imported here, after the closed forms: scipy takes longer to import
    # than the rest of the package, and only this quadrature needs it.
    from scipy.integrate import quad

    s_star = kappa ** (1.0 / d)
    u_star = math.asin(s_star)
    tail, _err = quad(lambda u: math.sin(u) ** (-d), u_star, math.pi / 2.0,
                      epsabs=0.0, epsrel=1e-10, limit=200)
    return (2.0 / math.pi) * (u_star + kappa * tail)
