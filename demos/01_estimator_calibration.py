"""Calibrate the transfer entropy estimator against a known closed form.
=======================================================================

The coupled binary process makes the target copy the source's previous
symbol with probability c, so its true transfer entropy is
1 - H2((1 + c) / 2) bits.  Each sample is one 2-row symbol panel (source,
then target), and its estimate is entry [0, 1] of the panel's TE matrix.
This script sweeps c, compares the plug-in estimate with the exact value,
and shows the small-sample bias that the consistent-denominator rule keeps
nonnegative.
"""

import math
from dataclasses import replace

import numpy as np

from infoflow import analytic_te_coupled_binary, generate_coupled_binary, te_matrix


def effective_transfer_entropy(pair, n_surrogates=100, seed=0):
    """Raw TE from row 0 to row 1 of ``pair`` minus its mean over source-shuffled surrogates.

    An exploratory bias diagnostic; the pipeline always uses the raw
    plug-in estimate.  Surrogate k shuffles the previous one's source row
    in place, all from one PCG64 stream seeded with ``seed``.
    """
    rng = np.random.default_rng(seed)
    shuffled = pair.symbols.copy()
    surrogates = []
    for _ in range(n_surrogates):
        rng.shuffle(shuffled[0])
        surrogates.append(te_matrix(replace(pair, symbols=shuffled)).te[0, 1])
    return te_matrix(pair).te[0, 1] - math.fsum(surrogates) / n_surrogates


def sweep_coupling(length=100_000, seed=1):
    print(f"coupling sweep at L = {length}")
    print(f"{'c':>6} {'analytic':>10} {'estimate':>10} {'abs err':>10}")
    for c in (0.0, 0.25, 0.5, 0.75, 1.0):
        estimate = te_matrix(generate_coupled_binary(c, length, seed)).te[0, 1]
        exact = analytic_te_coupled_binary(c)
        print(f"{c:>6.2f} {exact:>10.5f} {estimate:>10.5f} {abs(estimate - exact):>10.2e}")


def sample_size_bias(c=0.5, seed=3):
    exact = analytic_te_coupled_binary(c)
    print(f"\nplug-in bias vs sample size (c = {c}, analytic = {exact:.5f})")
    print(f"{'L':>8} {'raw TE':>10} {'surrogate-corrected':>20}")
    for length in (250, 1_000, 4_000, 16_000, 64_000):
        pair = generate_coupled_binary(c, length, seed)
        raw = te_matrix(pair).te[0, 1]
        corrected = effective_transfer_entropy(pair, n_surrogates=50, seed=0)
        print(f"{length:>8} {raw:>10.5f} {corrected:>20.5f}")


def direction_asymmetry(length=100_000, seed=5):
    te = te_matrix(generate_coupled_binary(0.8, length, seed)).te
    forward, backward = te[0, 1], te[1, 0]
    print("\ndirectionality on the c = 0.8 process")
    print(f"  source -> target : {forward:.5f} bits")
    print(f"  target -> source : {backward:.5f} bits")
    print(f"  net flow         : {forward - backward:+.5f} bits")


if __name__ == "__main__":
    np.set_printoptions(precision=5)
    sweep_coupling()
    sample_size_bias()
    direction_asymmetry()
