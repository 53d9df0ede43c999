"""The convergence sweep against a 40-digit evolution of the RWA doublets.

Each populated doublet {|k, n, e>, |k, n+1, g>} is evolved in mpmath by the
exponential of its 2x2 Hamiltonian (``mpmath.expm``, not the Rabi formula)
and moved back under the uncoupled part; the first-order amplitude comes
from the printed formula.  The inputs are the floats the program reads:
the uncoupled diagonal and the coupling row.  Both the doublet route and
the per-coupling ``eigh`` loop must lie within :data:`conftest.SWEEP_BOUND`
of it, on couplings down to 1e-6, where a short step's form matters.
"""

import json
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from conftest import SWEEP_BOUND, bench_emission_config, loop_sweep
from monofield import emission
from monofield.cli import load_config
from monofield.emission import EXCITED, GROUND
from monofield.hilbert import build_layout, superposition

DATA = Path(__file__).parent / "data"
COUPLINGS = np.logspace(-6.0, -0.5, 12).tolist()
CONFIGS = {
    "config_emission": json.loads((DATA / "config_emission.json").read_text()),
    "bench_11": bench_emission_config(11),
    "bench_3": bench_emission_config(3),
}


def oracle_deviations(initial, atom, config, t, couplings):
    """|exact - first order| per coupling at 40 digits, over the doublets
    the initial state populates (every other doublet and singlet adds 0)."""
    layout = initial.layout
    amps = layout.view(initial.amplitudes)
    energies = layout.view(emission.free_hamiltonian_with_atom(layout, atom, config).diag().real)
    gs = emission._mode_couplings(layout.modes, atom, config)
    populated = [(k, n) for k in range(layout.n_modes) for n in range(layout.nmax)
                 if amps[EXCITED, k, n] or amps[GROUND, k, n + 1]]
    with mpmath.workdps(40):
        hbar, omega0, t = mpmath.mpf(config.hbar), mpmath.mpf(atom.omega0), mpmath.mpf(t)
        deviations = []
        for d in couplings:
            total = mpmath.mpf(0)
            for k, n in populated:
                a, b = mpmath.mpf(energies[EXCITED, k, n]), mpmath.mpf(energies[GROUND, k, n + 1])
                g, root = mpmath.mpc(complex(gs[k])), mpmath.sqrt(n + 1)
                c = hbar * omega0 * mpmath.mpf(d) * g * root
                forward = mpmath.expm(mpmath.matrix([[a, c], [mpmath.conj(c), b]]) * (-1j * t / hbar))
                back = mpmath.diag([mpmath.exp(1j * a * t / hbar), mpmath.exp(1j * b * t / hbar)])
                x = mpmath.matrix([complex(amps[EXCITED, k, n]), complex(amps[GROUND, k, n + 1])])
                y = back * forward * x
                delta = omega0 - mpmath.mpf(float(layout.omegas[k]))
                kernel = -1j * t if delta == 0 else (mpmath.exp(-1j * delta * t) - 1) / delta
                first = omega0 * mpmath.mpf(d) * kernel * x[0] * root * mpmath.conj(g)
                total += abs(y[0] - x[0]) ** 2 + abs(y[1] - x[1] - first) ** 2
            deviations.append(float(mpmath.sqrt(total)))
    return np.array(deviations)


@pytest.mark.parametrize("name", CONFIGS)
def test_both_routes_lie_within_the_bound_of_the_oracle(tmp_path, name):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(CONFIGS[name]))
    cfg, _ = load_config(p)
    t = cfg.times[-1]
    initial = superposition(build_layout(cfg.modes, cfg.nmax, with_atom=True),
                            cfg.emission_initial)
    want = oracle_deviations(initial, cfg.atom, cfg.field, t, COUPLINGS)
    doublets = emission.convergence_sweep(initial, cfg.atom, cfg.field, t, COUPLINGS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        blocks = np.array(loop_sweep(cfg, t, COUPLINGS))
    assert np.all(want > 0.0)
    assert np.max(np.abs(doublets - want)) <= SWEEP_BOUND
    assert np.max(np.abs(blocks - want)) <= SWEEP_BOUND
    # no term of order one cancels in the doublet route, so it keeps its
    # digits where the deviation is far below the bound
    assert np.max(np.abs(doublets - want) / want) <= 1e-12
