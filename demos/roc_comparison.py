#!/usr/bin/env python3
"""ROC comparison of the SFG and CI receivers against a speckle target.

Both parameter points share x = M*kappa_bar*N_S/N_B ~ 15.8, so the CI curve
is identical; the SFG envelope sits far above it at low false-alarm
probability. Writes roc_comparison.csv next to this script and a PNG when
matplotlib is importable.
"""

from pathlib import Path

import numpy as np

from speckleqi import SystemParams, ci_detection_probability, ci_roc, sfg_roc
from speckleqi.params import FIG2A, FIG2B

POINTS = {
    "a (N_S=1e-4, M=10^8.5)": SystemParams(**FIG2A),
    "b (N_S=1e-2, M=10^6.5)": SystemParams(**FIG2B),
}


def main():
    out_rows = ["label,receiver,p_false_alarm,p_detect"]
    for label, params in POINTS.items():
        sfg = sfg_roc(params)
        ci = ci_roc(params)
        print(f"\n=== point {label} ===")
        print("SFG vertices (threshold, P_F, P_D):")
        for (p_f, p_d), t in zip(sfg.points, sfg.thresholds):
            print(f"  n_t={t:>4}: P_F={p_f:.6e}  P_D={p_d:.6f}")
        print("envelope advantage at sample P_F values:")
        for p_f in np.logspace(-6, -1, 6).tolist():
            gain = sfg.detection_probability(p_f) - ci_detection_probability(params, p_f)
            print(f"  P_F={p_f:.0e}: SFG - CI detection gap = {gain:+.4f}")
        tag = label.split()[0]
        for p_f, p_d in sfg.points:
            out_rows.append(f"{tag},sfg,{p_f:.16e},{p_d:.16e}")
        for p_f, p_d in ci.points:
            out_rows.append(f"{tag},ci,{p_f:.16e},{p_d:.16e}")

    csv_path = Path(__file__).with_name("roc_comparison.csv")
    csv_path.write_text("\n".join(out_rows) + "\n")
    print(f"\nwrote {csv_path}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    fig, axes = plt.subplots(1, 2, figsize=(9, 4), sharey=True)
    for ax, (label, params) in zip(axes, POINTS.items()):
        sfg, ci = sfg_roc(params), ci_roc(params)
        grid = np.logspace(-6, 0, 400)
        ax.semilogx(grid, sfg.detection_probability(grid), label="QI-SFG")
        ax.semilogx(ci.points[1:, 0], ci.points[1:, 1], "--", label="CI heterodyne")
        ax.set_xlabel("$P_F$")
        ax.set_title(label)
        ax.grid(alpha=0.3)
    axes[0].set_ylabel("$P_D$")
    axes[0].legend()
    png_path = Path(__file__).with_name("roc_comparison.png")
    fig.tight_layout()
    fig.savefig(png_path, dpi=150)
    print(f"wrote {png_path}")


if __name__ == "__main__":
    main()
