"""Adaptive Gauss-Kronrod quadrature of a vector-valued function, as
``scipy.integrate.quad_vec`` does it, with many nodes per call.

:func:`adaptive_gk21` is ``quad_vec``'s global adaptive Gauss-Kronrod 21
rule (QUADPACK; Piessens et al. 1983) written in numpy: the same nodes and
weights, the QUADPACK error scaling and rounding-error term, the same choice
of intervals to bisect, the same stopping tests, and the sums taken in the
same order, at an absolute 1e-12 (the tolerance ``dyson_first_order`` gave
``quad_vec``) and ``quad_vec``'s relative 1e-8, in the 2-norm.  So the
integral and its error estimate are bit for bit those of ``quad_vec`` on
the one-point integrand.  Where ``quad_vec`` calls the integrand once per
node, each round here evaluates the nodes of every interval it bisects in
one call.

Only :func:`monofield.dynamics.dyson_first_order` uses it, and imports it
when called, so the other commands do not compile this module.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable

import numpy as np

# quad_vec's settings: tolerances (2-norm), intervals bisected per round,
# interval limit, and bytes of interval integrals kept for the next round
_EPSABS, _EPSREL, _PARALLEL_COUNT, _INTERVAL_LIMIT = 1e-12, 1e-8, 128, 10000
_CACHE_BYTES = 100_000_000
# The Gauss-Kronrod 21 rule on [-1, 1]: nodes from +1 down to -1, their
# weights, and the weights of the 10-point Gauss rule on the odd-numbered
# ones; both sets are symmetric about the middle node 0.
_GK21_HALF = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
              0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
              0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
              0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
              0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_KRONROD_HALF = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                 0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                 0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                 0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
                 0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_GAUSS_HALF = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
               0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
               0.295524224714752870173892994651338)
_GK21_NODES = np.array([*_GK21_HALF, 0.0, *(-x for x in reversed(_GK21_HALF))])
_KRONROD_WEIGHTS = (*_KRONROD_HALF, 0.149445554002916905664936468389821,
                    *reversed(_KRONROD_HALF))
_GAUSS_WEIGHTS = (*_GAUSS_HALF, *reversed(_GAUSS_HALF))


def _gk21(f: Callable[[np.ndarray], np.ndarray],
          bounds: list[tuple[float, float]]) -> list[tuple[np.ndarray, float, float]]:
    """The (integral, error, rounding error) of the Gauss-Kronrod 21 rule on
    each interval (low, high): one call of ``f`` on the nodes of all of them
    (node-major), then ``quad_vec``'s arithmetic in its order, so each
    interval's triple is bit for bit that of ``quad_vec``'s rule alone."""
    a, b = np.array(bounds).T
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fv = f((c + h * _GK21_NODES[:, None]).ravel()).reshape(len(_GK21_NODES), len(a), -1)
    s_k = s_k_abs = s_g = s_k_dabs = 0.0
    for v, ff in zip(_KRONROD_WEIGHTS, fv):
        s_k += v * ff
        s_k_abs += v * abs(ff)
    for w, ff in zip(_GAUSS_WEIGHTS, fv[1::2]):
        s_g += w * ff
    y0 = s_k / 2.0
    for v, ff in zip(_KRONROD_WEIGHTS, fv):
        s_k_dabs += v * abs(ff - y0)
    rules = []
    for j, hj in enumerate(h.tolist()):
        err = float(np.linalg.norm((s_k[j] - s_g[j]) * hj))
        dabs = float(np.linalg.norm(s_k_dabs[j] * hj))
        if dabs != 0 and err != 0:
            err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
        round_err = float(np.linalg.norm(50 * sys.float_info.epsilon * hj * s_k_abs[j]))
        if round_err > sys.float_info.min:
            err = max(err, round_err)
        rules.append((hj * s_k[j], err, round_err))
    return rules


def adaptive_gk21(f: Callable[[np.ndarray], np.ndarray], t: float,
                  group_bytes: int) -> tuple[np.ndarray, float, bool]:
    """``quad_vec``'s integral of the (N,) -> (N, D) ``f`` over [0, t]:
    (integral, error estimate, converged).

    As in ``quad_vec``, each round pops up to 128 intervals by largest error,
    until their errors add up to more than the global error less tol/8,
    bisects them and updates the sums in the order popped; the run stops on
    convergence (global error below tol/8, from 2 intervals on), on rounding
    error, on a non-finite sum or at 10 000 intervals.  A popped interval's
    integral comes from a cache of ``quad_vec``'s 1e8 bytes, or is evaluated
    again with its halves.  The rules of a round are evaluated in groups of
    at most ``group_bytes`` of node values (at least one interval a group),
    one call of ``f`` per group.
    """
    (first, error, rounding), = _gk21(f, [(0.0, t)])
    group = max(1, group_bytes // (len(_GK21_NODES) * first.nbytes))
    cached = max(1, _CACHE_BYTES // first.nbytes)
    integral = first.copy()
    cache = {(0.0, t): first}
    heap = [(-error, 0.0, t)]
    while heap and len(heap) < _INTERVAL_LIMIT:
        tol = max(_EPSABS, _EPSREL * np.linalg.norm(integral))
        popped, bounds, err_sum = [], [], 0.0
        for j in range(_PARALLEL_COUNT):
            if not heap or (j > 0 and err_sum > error - tol / 8):
                break
            neg_err, a, b = heapq.heappop(heap)
            old, c = cache.pop((a, b), None), 0.5 * (a + b)
            popped.append((-neg_err, a, c, b, old))
            bounds += [(a, c), (c, b)] + ([(a, b)] if old is None else [])
            err_sum += -neg_err
        rules = iter([rule for start in range(0, len(bounds), group)
                      for rule in _gk21(f, bounds[start:start + group])])
        for old_err, a, c, b, old in popped:
            (s1, err1, round1), (s2, err2, round2) = next(rules), next(rules)
            if old is None:
                old = next(rules)[0]
            integral += s1 + s2 - old
            error += err1 + err2 - old_err
            rounding += round1 + round2
            for key, part, part_err in (((a, c), s1, err1), ((c, b), s2, err2)):
                cache[key] = part
                if len(cache) > cached:
                    del cache[next(iter(cache))]
                heapq.heappush(heap, (-part_err, *key))
        if len(heap) >= 2:
            tol = max(_EPSABS, _EPSREL * np.linalg.norm(integral))
            if error < tol / 8:
                return integral, error + rounding, True
            if error < rounding:
                break
        if not (math.isfinite(error) and math.isfinite(rounding)):
            break
    return integral, error + rounding, False
