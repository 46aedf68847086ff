#!/usr/bin/env python3
"""Minimum error probability versus the mode-pair count M.

Sweeps log10(M) for both transmitter brightnesses, printing the exact SFG
threshold-test error, its vanishing-brightness limit pi1/(1+x), the exact CI
minimum, and the large-x CI approximation pi1*ln(x)/x. The SFG column shows a
slope discontinuity where the count threshold steps up by one; at low
brightness the exact SFG error hugs its limit.
"""

import math

import numpy as np

from speckleqi import SystemParams, bayes_sweep

SWEEPS = {
    "N_S = 1e-4": (1e-4, np.linspace(7.0, 11.0, 17)),
    "N_S = 1e-2": (1e-2, np.linspace(5.0, 9.0, 17)),
}


def main():
    for label, (n_s, log10_ms) in SWEEPS.items():
        print(f"\n=== {label} ===")
        print(f"{'log10 M':>8} {'n_t':>4} {'Pr(e) SFG':>12} {'SFG limit':>12} "
              f"{'Pr(e) CI':>12} {'CI asym':>12}")
        ms = [10.0 ** lm for lm in log10_ms]
        params = SystemParams(M=ms[0], N_S=n_s, N_B=20.0, kappa_bar=0.01, epsilon=0.01)
        sweep = bayes_sweep(params, ms)
        rows = zip(log10_ms, sweep.sfg_threshold.astype(int).tolist(),
                   sweep.sfg_p_error.tolist(), sweep.sfg_limit.tolist(),
                   sweep.ci_p_error.tolist(), sweep.ci_asymptotic.tolist())
        last_nt = None
        for lm, n_t, sfg, limit, ci, asym in rows:
            # the asymptote is NaN where x <= 1, outside its validity region
            asym = "         ---" if math.isnan(asym) else f"{asym:12.4e}"
            marker = "  <- threshold jump" if last_nt is not None and n_t > last_nt else ""
            last_nt = n_t
            print(f"{lm:8.2f} {n_t:>4} {sfg:12.4e} {limit:12.4e} {ci:12.4e} {asym}{marker}")
    print("\nThe same table ships as a CLI command:")
    print("  speckleqi bayes-sweep --preset fig3a --out sweep.csv")


if __name__ == "__main__":
    main()
