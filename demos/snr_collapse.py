#!/usr/bin/env python3
"""How the OPA receiver's SNR collapses once the target return fades.

For a known return the OPA receiver rides its phase-sensitive
cross-correlation signature; a uniformly random phase averages that signature
away and leaves an intensity residue orders of magnitude below the classical
heterodyne receiver's SNR.
"""

from speckleqi import (
    SystemParams,
    ci_snr,
    opa_default_gain,
    opa_snr_fading,
    opa_snr_known,
)
from speckleqi.params import FIG2A, FIG2B


def main():
    for preset in (FIG2A, FIG2B):
        params = SystemParams(**preset)
        gain_minus_one, in_window = opa_default_gain(params)
        known = opa_snr_known(params, params.kappa_bar)
        fading = opa_snr_fading(params, gain_minus_one)
        ci = ci_snr(params)
        print(f"\nN_S = {params.N_S:g}, M = {params.M:.4g}  (gain G-1 = {gain_minus_one:g}, "
              f"in design window: {in_window})")
        print(f"  OPA SNR, known return : {known:.4e}")
        print(f"  OPA SNR, fading return: {fading:.4e}   "
              f"(collapse factor {known / fading:.2e})")
        print(f"  CI  SNR, fading return: {ci:.4e}   "
              f"(OPA/CI = {fading / ci:.2e})")


if __name__ == "__main__":
    main()
