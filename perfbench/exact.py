"""Exact finite-window expectations of the station model by 1-D quadrature.

Given the source angle phi the four stations are independent.  A station
with analyzer angle a that receives polarization psi has

    E[x]         = cos 2(a - psi)
    P(pass)      = min(1, kappa / |sin 2(a - psi)|^d)

and x and the pass flag are independent, because they come from separate
draws (r and r_hat).  Side 1 receives psi = phi and side 2 psi = phi + pi/2,
with phi uniform.  Every column the simulator prints is then a ratio of 1-D
integrals over phi on one period [0, pi).  Between the points where a
station leaves its plateau (|sin| = kappa^(1/d)) the integrands are
analytic, so Gauss-Legendre on those pieces converges fast.

This module imports only numpy: it is a reference independent of eprbsim.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NODES = 200
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_NODES)

# (side-1 station, side-2 station) per setting pair 11, 12, 21, 22, with
# stations in the order a1, a1p, a2, a2p.
PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))
_SIDE_OFFSET = (0.0, 0.0, 0.5 * math.pi, 0.5 * math.pi)


@dataclass(frozen=True)
class PointReference:
    """Exact expectations at one grid point; pair tuples are in PAIRS order."""

    e: tuple            # photon correlations E_ij over identified pairs
    singles: tuple      # photon single averages per station
    pass_prob: float    # single-station pass probability
    pair_pass: tuple    # P(both stations of pair ij pass)
    e_det: tuple        # detection-event correlations over all trials
    s: float            # E11 - E12 + E21 + E22
    s_hat: float        # the same combination of e_det


def settings_for_theta(theta: float) -> tuple:
    """Analyzer angles (a1, a1p, a2, a2p) of the standard geometry."""
    return (theta + math.pi / 8.0, theta + 3.0 * math.pi / 8.0,
            math.pi / 8.0, 3.0 * math.pi / 8.0)


def kappa_of(threshold: float, v_min_mag: float, v_max_mag: float) -> float:
    """Window width W: the threshold as a fraction of the voltage span."""
    return (threshold + v_max_mag) / (v_max_mag - v_min_mag)


def _pass_prob(sin_abs: np.ndarray, kappa: float, d: float) -> np.ndarray:
    if kappa >= 1.0:
        return np.ones_like(sin_abs)
    if d == 0.0:
        return np.full_like(sin_abs, kappa)
    with np.errstate(divide="ignore"):
        return np.minimum(1.0, kappa / sin_abs ** d)


def _breakpoints(settings, kappa: float, d: float) -> list:
    """Plateau edges of every station on [0, pi)."""
    if kappa >= 1.0 or kappa <= 0.0 or d == 0.0:
        return []
    half_u = 0.5 * math.asin(kappa ** (1.0 / d))
    points = []
    for a, off in zip(settings, _SIDE_OFFSET):
        for base in (a - off - half_u, a - off + half_u):
            for k in range(2):
                points.append((base + k * 0.5 * math.pi) % math.pi)
    return points


def _nodes(breaks) -> tuple:
    """Quadrature nodes and weights on [0, pi), split at breaks."""
    edges = np.unique(np.concatenate([[0.0, math.pi], np.asarray(breaks, float)]))
    lo, hi = edges[:-1], edges[1:]
    keep = hi - lo > 1e-15
    lo, hi = lo[keep], hi[keep]
    half = 0.5 * (hi - lo)
    phi = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_X[None, :]
    wts = half[:, None] * _GL_W[None, :]
    return phi.ravel(), wts.ravel()


def point_reference(settings, kappa: float, d: float) -> PointReference:
    """Exact expectations for analyzer angles `settings` at window kappa."""
    if kappa <= 0.0:
        raise ValueError("kappa must be positive: no photon is ever identified")
    phi, wts = _nodes(_breakpoints(settings, kappa, d))
    wts = wts / math.pi  # phi is uniform on one period
    e, p = [], []
    for a, off in zip(settings, _SIDE_OFFSET):
        arg = 2.0 * (a - phi - off)
        e.append(np.cos(arg))
        p.append(_pass_prob(np.abs(np.sin(arg)), kappa, d))

    def mean(f):
        return float(np.dot(wts, f))

    singles = tuple(mean(e[c] * p[c]) / mean(p[c]) for c in range(4))
    pair_pass = tuple(mean(p[i] * p[j]) for i, j in PAIRS)
    pair_e = tuple(mean(e[i] * e[j] * p[i] * p[j]) / pp
                   for (i, j), pp in zip(PAIRS, pair_pass))
    e_det = tuple(mean(e[i] * e[j]) for i, j in PAIRS)
    return PointReference(
        e=pair_e, singles=singles, pass_prob=mean(p[0]), pair_pass=pair_pass,
        e_det=e_det, s=pair_e[0] - pair_e[1] + pair_e[2] + pair_e[3],
        s_hat=e_det[0] - e_det[1] + e_det[2] + e_det[3])


def self_check(pass_probability=None) -> list:
    """Failures of the reference against three known facts; [] when sound.

    pass_probability, when given, is an independent single-station pass
    probability taking (kappa, d); the simulator's oracle fits.
    """
    failures = []
    for theta in (0.0, 0.3, 3.0 * math.pi / 8.0, 2.0):
        settings = settings_for_theta(theta)
        # Every station passes: the detection-event value -cos 2(a-b) / 2.
        ref = point_reference(settings, 1.0, 4.0)
        for (i, j), e in zip(PAIRS, ref.e):
            want = -0.5 * math.cos(2.0 * (settings[i] - settings[j]))
            if abs(e - want) > 1e-12:
                failures.append(f"all-pass E at theta={theta}: {e} != {want}")
        # W -> 0: the singlet value -cos 2(a-b), with a shrinking gap.
        gaps = []
        for kappa in (1e-2, 1e-4, 1e-6, 1e-8):
            ref = point_reference(settings, kappa, 4.0)
            gaps.append(max(abs(e + math.cos(2.0 * (settings[i] - settings[j])))
                            for (i, j), e in zip(PAIRS, ref.e)))
        if not all(b < a for a, b in zip(gaps, gaps[1:])) or gaps[-1] > 0.02:
            failures.append(f"W->0 gaps at theta={theta} do not shrink to 0: {gaps}")
    if pass_probability is not None:
        for kappa, d in ((0.01, 4.0), (2e-4, 4.0), (0.3, 2.0), (0.5, 1.0)):
            ref = point_reference(settings_for_theta(0.7), kappa, d)
            want = pass_probability(kappa, d)
            if abs(ref.pass_prob - want) > 1e-9 * max(want, 1e-12):
                failures.append(
                    f"pass probability at kappa={kappa}, d={d}: "
                    f"{ref.pass_prob} != {want}")
    return failures
