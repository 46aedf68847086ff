#!/usr/bin/env python3
"""Monte Carlo validation of the closed-form operating points.

Simulates both receivers trial by trial (fresh fading draw each time),
thresholds at the analytic minimum-error settings, and compares the empirical
Wilson intervals against the closed-form values.
"""

from speckleqi import (
    McConfig,
    Receiver,
    SystemParams,
    bayes_threshold,
    ci_bayes,
    estimate_bayes_error,
    estimate_operating_point,
    sfg_bayes,
)
from speckleqi.params import FIG2A, FIG2B


def show(label, estimate, target):
    flag = "ok " if estimate.covers(target) else "MISS"
    print(f"   {label:8s} empirical={estimate.value:.6g} "
          f"CI=[{estimate.ci_low:.6g}, {estimate.ci_high:.6g}] "
          f"analytic={target:.6g}  [{flag}]")


def main():
    config = McConfig(trials=100_000, seed=31415)
    for preset in (FIG2A, FIG2B):
        params = SystemParams(**preset)
        print(f"\nN_S = {params.N_S:g}, M = {params.M:.4g}, {config.trials} trials per hypothesis")
        for receiver, closed, statistic in ((Receiver.SFG, sfg_bayes, "count"),
                                            (Receiver.CI, ci_bayes, "envelope")):
            bayes = closed(params)
            threshold = bayes_threshold(receiver, params)
            p_f, p_d = estimate_operating_point(receiver, params, threshold, config)
            print(f"  {receiver.name} receiver at {statistic} threshold {threshold:.6g}:")
            show("P_F", p_f, bayes.p_false_alarm)
            show("P_D", p_d, bayes.p_detect)
            show("Pr(e)", estimate_bayes_error(receiver, params, config), bayes.p_error)


if __name__ == "__main__":
    main()
