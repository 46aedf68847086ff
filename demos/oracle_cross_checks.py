#!/usr/bin/env python3
"""Brute-force Fock-space checks behind the closed forms.

Four demonstrations at desk scale:
1. the Helstrom error of two thermal count distributions equals the analytic
   photon-count threshold test (commuting states, counting is optimal);
2. mixing states never lowers the Helstrom error (concavity trials);
3. the beam-splitter return channel reproduces the two-mode Gaussian
   covariance model entry by entry;
4. per-copy error exponents fall with the copy count under shared fading but
   the per-copy Chernoff rate is flat for a known return at kappa_bar.
"""

import math

import numpy as np

from speckleqi import (
    SystemParams,
    check_helstrom_concavity,
    dim_for_tail,
    fading_exponent_trend,
    helstrom,
    hypothesis_state,
    return_idler_covariance,
    thermal_state,
    threshold_test_error,
    wigner_covariance,
)


def main():
    print("1) thermal-state weld: eigendecomposition vs threshold test")
    for n0, n1 in ((0.023, 1.2), (0.5, 3.0), (0.0, 0.8)):
        dim = dim_for_tail(n1, 1e-12)
        exact = helstrom(thermal_state(n0, dim, 1e-11), thermal_state(n1, dim, 1e-11), 0.5)
        ref = threshold_test_error(n0, n1, 0.5)
        print(f"   N0={n0:<6} N1={n1:<4} helstrom={exact:.10f} "
              f"threshold-test={ref:.10f}  |diff|={abs(exact - ref):.1e}")

    print("\n2) concavity of the minimum error under state mixing")
    slack = check_helstrom_concavity(trials=500, dim=4, mixture_size=4, seed=7)
    print(f"   500 trials at dim 4: worst slack={slack:+.2e} (a violation is below -1e-9)")

    print("\n3) return-channel moments vs the covariance model")
    params = SystemParams(M=1e6, N_S=0.1, N_B=0.5, kappa_bar=0.01)
    state = hypothesis_state(params, 0.3, math.pi / 4, 12)
    _, cov = wigner_covariance(state)
    ref = return_idler_covariance(0.1, 0.5, 0.3, math.pi / 4)
    print(f"   max entrywise gap: {np.abs(cov - ref).max():.2e}")

    print("\n4) per-copy exponent estimates, shared fading vs a known return")
    surrogate = SystemParams(M=100.0, N_S=0.1, N_B=0.3, kappa_bar=0.5)
    fading = fading_exponent_trend(surrogate, [1, 2, 3], dim=4, nodes=(16, 33))
    known = fading_exponent_trend(surrogate, [1, 2, 3], dim=4, nodes=None)
    print("   copies  fading -ln(Pr_e)/M   known return at kappa_bar: Chernoff rate"
          "   blocks (largest)")
    for f, k in zip(fading, known):
        print(f"   {f.copies:>6}  {f.helstrom_exponent:>18.6f}   {k.chernoff_exponent:>39.6f}"
              f"   {f.blocks:>6} ({f.largest_block})")


if __name__ == "__main__":
    main()
