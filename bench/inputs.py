"""Seeded input generator for the benchmark workloads.

Every config is a plain JSON document in the format the ``monofield`` CLI
reads.  The same seed always yields the same documents.  Sizes are
parameters so the checker tests can build the same shapes small.
"""

from __future__ import annotations

import math

import numpy as np

# Coherent amplitudes are drawn so that the Poisson mass beyond nmax stays
# ten times below the program's own 1e-10 rejection limit.
TAIL_TARGET = 1e-11
# Range of |kappa| of a generated mode.
KAPPA_MIN, KAPPA_MAX = 0.3, 3.0


def poisson_tail(mu: float, nmax: int) -> float:
    """P(X > nmax) for X ~ Poisson(mu), summed term by term (no cancellation)."""
    if mu == 0.0:
        return 0.0
    total, n = 0.0, nmax + 1
    while True:
        term = math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))
        total += term
        if term < 1e-30 or (n > mu and term < 1e-18 * total):
            return total
        n += 1


def max_alpha(nmax: int) -> float:
    """Largest |alpha| whose Poisson tail beyond nmax is below TAIL_TARGET."""
    lo, hi = 0.0, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if poisson_tail(mid * mid, nmax) < TAIL_TARGET:
            lo = mid
        else:
            hi = mid
    return lo


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _complex_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def propagating_modes(rng: np.random.Generator, count: int) -> list[dict]:
    """Explicit mode list with pairwise distinct frequencies |kappa|."""
    modes, norms = [], []
    while len(modes) < count:
        kappa = rng.uniform(-KAPPA_MAX, KAPPA_MAX, size=3)
        norm = float(np.linalg.norm(kappa))
        if not KAPPA_MIN <= norm <= KAPPA_MAX:
            continue
        if any(abs(norm - other) < 1e-3 * norm for other in norms):
            continue
        norms.append(norm)
        modes.append({"s": int(rng.choice([-1, 1])),
                      "kappa": [float(v) for v in kappa]})
    return modes


def coherent_entry(rng: np.random.Generator, count: int, nmax: int,
                   vacuum: bool = False) -> dict:
    """Random sector weights (all nonzero) and coherent amplitudes.

    Amplitudes have modulus in [0.2, 1] times the largest one the truncation
    allows, so every non-vacuum entry has photons in every sector.
    """
    weights = _complex_normal(rng, count)
    if vacuum:
        alphas = np.zeros(count, dtype=complex)
    else:
        radius = max_alpha(nmax) * rng.uniform(0.2, 1.0, size=count)
        alphas = radius * np.exp(2j * math.pi * rng.uniform(size=count))
    return {"weights": [_pair(w) for w in weights],
            "alphas": [_pair(a) for a in alphas]}


def _atom(rng: np.random.Generator, dipole: float) -> dict:
    direction = _complex_normal(rng, 3)
    return {"omega0": float(rng.uniform(0.8, 2.0)), "dipole": dipole,
            "direction": [_pair(z) for z in direction]}


def algebra_inputs(seed: int, n_modes: int = 32, nmax: int = 5, vac_nmax: int = 12,
                   n_coherent: int = 400, n_vacuum: int = 100) -> dict[str, dict]:
    """verify-algebra and vacuum-energy configs on one shared mode list."""
    rng = np.random.default_rng([seed % 2**64, 1])
    modes = propagating_modes(rng, n_modes)
    kinds = [False] * n_coherent + [True] * n_vacuum
    rng.shuffle(kinds)
    states = []
    for i, vacuum in enumerate(kinds):
        entry = coherent_entry(rng, n_modes, vac_nmax, vacuum=vacuum)
        states.append({"label": f"{'vacuum' if vacuum else 'coherent'}_{i}", **entry})
    return {
        "algebra": {"modes": modes, "nmax": nmax},
        "vacuum": {"modes": modes, "nmax": vac_nmax, "states": states},
    }


def box_inputs(seed: int, max_index: int = 1, nmax: int = 5, n_times: int = 2,
               n_points: int = 2, n_samples: int = 2) -> dict[str, dict]:
    """field-sweep config on the quantization box, plus the energy-identity
    samples as a config whose times and points pair up into (t, x) samples."""
    rng = np.random.default_rng([seed % 2**64, 2])
    edge = float(rng.uniform(1.5, 3.0))
    box = {"edge": edge, "max_index": max_index}
    n_modes = 2 * ((2 * max_index + 1) ** 3 - 1)
    return {
        "sweep": {
            "box": box, "nmax": nmax,
            "coherent": coherent_entry(rng, n_modes, nmax),
            "times": [float(t) for t in rng.uniform(0.0, 2.0, size=n_times)],
            "points": [[float(v) for v in rng.uniform(0.0, edge, size=3)]
                       for _ in range(n_points)],
        },
        "identity": {
            "box": box, "nmax": nmax,
            "times": [float(t) for t in rng.uniform(0.0, 2.0, size=n_samples)],
            "points": [[float(v) for v in rng.uniform(0.0, edge, size=3)]
                       for _ in range(n_samples)],
        },
    }


def emission_inputs(seed: int, n_modes: int = 24, nmax: int = 3, n_times: int = 2,
                    n_initial: int = 6) -> dict[str, dict]:
    """emission config plus one multi-mode and one single-mode (Jaynes-Cummings)
    compare-standard config."""
    rng = np.random.default_rng([seed % 2**64, 3])
    modes = propagating_modes(rng, n_modes)
    slots = rng.choice(n_modes * nmax, size=n_initial, replace=False)
    initial = [{"mode": int(i // nmax), "n": int(i % nmax),
                "amp": _pair(complex(*rng.normal(size=2)))} for i in slots]
    return {
        "emission": {
            "modes": modes, "nmax": nmax, "atom": _atom(rng, 0.01),
            "times": sorted(float(t) for t in rng.uniform(0.5, 1.5, size=n_times)),
            "emission_initial": initial,
        },
        "compare": {
            "modes": propagating_modes(rng, 4), "nmax": 3,
            "atom": _atom(rng, 0.02), "times": [float(rng.uniform(0.5, 1.5))],
        },
        "jc": {
            "modes": propagating_modes(rng, 1), "nmax": 3,
            "atom": _atom(rng, float(rng.uniform(0.03, 0.08))), "times": [1.0],
        },
    }


# Malformed configs, independent of the seed: each must exit 2 with a
# "config error:" line.  The comment above each names how it fails today.
_SMALL_MODES = [{"s": 1, "kappa": [0.0, 0.0, 0.8]},
                {"s": 1, "kappa": [0.0, 1.0, 0.0]},
                {"s": -1, "kappa": [1.3, 0.0, 0.0]}]
_SMALL_ATOM = {"omega0": 1.0, "dipole": 0.01, "direction": [1.0, [0.0, 0.3], 0.0]}
_SMALL_COHERENT = {"weights": [1.0, 1.0, 1.0], "alphas": [0.01, 0.01, 0.01]}

MALFORMED = [
    # uncaught TypeError
    ("emission_initial_not_list", "emission",
     {"modes": _SMALL_MODES, "nmax": 3, "atom": _SMALL_ATOM, "times": [1.0],
      "emission_initial": 5}),
    # uncaught ValueError
    ("points_not_numeric", "field-sweep",
     {"modes": _SMALL_MODES, "nmax": 3, "coherent": _SMALL_COHERENT,
      "times": [0.0], "points": [[0.0, "a", 0.0]]}),
    # accepted, then ValueError from field_average
    ("times_nan", "field-sweep",
     {"modes": _SMALL_MODES, "nmax": 3, "coherent": _SMALL_COHERENT,
      "times": [math.nan], "points": [[0.0, 0.0, 0.0]]}),
    # accepted as nmax = 1, exits 0
    ("nmax_bool", "compare-standard",
     {"modes": _SMALL_MODES, "nmax": True}),
    # polyfit on one point, exits 1
    ("single_coupling", "emission",
     {"modes": _SMALL_MODES, "nmax": 3, "atom": _SMALL_ATOM, "times": [1.0],
      "couplings": [0.01]}),
]
