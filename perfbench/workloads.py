"""The benchmark's workloads: inputs made from the seed, one operation, and
the check of that operation's output.

Each workload is a closed loop: one caller issues ``run()`` back to back and
passes every result to ``check()``, which returns the list of problems found
(empty when the output is right). speckleqi is reached only through its
public entry points, looked up at call time so a traced run sees its wrappers.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import speckleqi
import speckleqi.cli

REFERENCE = Path(__file__).with_name("reference.json")
TREND_TOL = 1e-12
MC_TRIALS = 1_000_000
MC_SIGMAS = 5.0
# Known defect: mc-coverage fails on about one seed in nine (seeds 7, 10, 23
# and 26 of 0-29), because it demands that all four of its 95% Wilson intervals
# cover. A workload must not fail on any seed, so the validate workload leaves
# it out; tests/test_perfbench.py holds it as a strict expected failure.
KNOWN_FAILING_CHECKS = ("mc-coverage",)
VALIDATE_CHECKS = (
    "fading-pdf-normalization", "fading-mean-intensity", "derived-x-scaling",
    "sfg-limit-convergence", "ci-bayes-minimizer", "ci-vs-sfg-log-factor",
    "sfg-dominates-ci", "opa-snr-ordering", "roc-invariants", "thermal-weld",
    "qcb-single-copy-bound", "return-channel-covariance", "sfg-fading-average-thermal",
    "helstrom-concavity", "chernoff-at-zero-return", "mc-determinism",
)


def _reference(key: str):
    return json.loads(REFERENCE.read_text())[key]


class Trend:
    """The fading half of acceptance criterion 7, at truncation dim 3."""

    def __init__(self, seed: int, workdir: Path):
        self.inputs = dict(params=dict(M=100.0, N_S=0.1, N_B=0.3, kappa_bar=0.5),
                           m_list=[1, 2, 3], dim=3, nodes=[16, 33])
        self.reference = _reference("trend")

    def outputs(self) -> list:
        return []

    def run(self):
        i = self.inputs
        return speckleqi.fading_exponent_trend(speckleqi.SystemParams(**i["params"]),
                                               i["m_list"], dim=i["dim"],
                                               nodes=tuple(i["nodes"]))

    def check(self, points) -> list:
        got = [[p.copies, p.helstrom_exponent, p.chernoff_exponent] for p in points]
        problems = []
        if len(got) != len(self.reference):
            return [f"{len(got)} trend points, expected {len(self.reference)}"]
        for g, r in zip(got, self.reference):
            if g[0] != r[0] or max(abs(g[1] - r[1]), abs(g[2] - r[2])) > TREND_TOL:
                problems.append(f"trend point {g} differs from reference {r}")
        h = [g[1] for g in got]
        if any(b >= a for a, b in zip(h, h[1:])):
            problems.append(f"helstrom_exponent not strictly decreasing: {h}")
        return problems


class Validate:
    """``speckleqi validate --seed <seed>`` with the default 200 trials, every
    check but the known-failing ones."""

    def __init__(self, seed: int, workdir: Path):
        self.out = workdir / "validate.json"
        self.inputs = dict(argv=["validate", "--seed", str(seed),
                                 "--only", ",".join(VALIDATE_CHECKS), "--out", str(self.out)])

    def outputs(self) -> list:
        return [self.out]

    def run(self):
        code = speckleqi.cli.main(list(self.inputs["argv"]))
        return code, json.loads(self.out.read_text())

    def check(self, output) -> list:
        code, report = output
        ran = [c["name"] for c in report["checks"]]
        if ran != list(VALIDATE_CHECKS):
            return [f"validate ran checks {ran}, expected {list(VALIDATE_CHECKS)}"]
        if report["all_pass"] and code == 0:
            return []
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        return [f"validate exit code {code}, failing checks {failing}"]


class Figures:
    """The paper's tables through the CLI: roc and snr for fig2a/fig2b, and
    bayes-sweep at the preset range and at 1e5 points for fig3a/fig3b."""

    def __init__(self, seed: int, workdir: Path):
        calls = []
        for preset in ("fig2a", "fig2b"):
            for command in ("roc", "snr"):
                calls.append([command, "--preset", preset, "--out", f"{command}_{preset}.csv"])
        for preset in ("fig3a", "fig3b"):
            calls.append(["bayes-sweep", "--preset", preset, "--out", f"sweep_{preset}.csv"])
            calls.append(["bayes-sweep", "--preset", preset, "--points", "100000",
                          "--out", f"sweep100k_{preset}.csv"])
        self.workdir = workdir
        self.inputs = dict(argv=calls)
        self.reference = _reference("figures")

    def outputs(self) -> list:
        return [self.workdir / argv[-1] for argv in self.inputs["argv"]]

    def run(self):
        return [speckleqi.cli.main(argv[:-1] + [str(self.workdir / argv[-1])])
                for argv in self.inputs["argv"]]

    def check(self, codes) -> list:
        problems = [f"{argv[0]} exit code {c}" for argv, c in zip(self.inputs["argv"], codes) if c]
        for path in self.outputs():
            digest = hashlib.md5(path.read_bytes()).hexdigest()
            if digest != self.reference[path.name]:
                problems.append(f"{path.name} md5 {digest} != {self.reference[path.name]}")
        return problems


class MonteCarlo:
    """SFG and CI estimates at fig2a (Poisson counts) and fig2b (exact
    negative-binomial counts): the operating point at the closed-form Bayes
    threshold and the Bayes error, 1e6 trials each."""

    def __init__(self, seed: int, workdir: Path):
        mc, analytic = speckleqi.montecarlo, speckleqi.analytic
        self.cases = []
        for preset in ("fig2a", "fig2b"):
            params = speckleqi.SystemParams(**speckleqi.cli.PRESETS[preset].params)
            sfg, ci = analytic.sfg_bayes(params), analytic.ci_bayes(params)
            for receiver, bayes, threshold in (
                    (mc.Receiver.SFG, sfg, sfg.threshold),
                    (mc.Receiver.CI, ci, -math.log(ci.threshold))):
                self.cases.append(dict(preset=preset, receiver=receiver, params=params,
                                       threshold=threshold,
                                       targets=(bayes.p_false_alarm, bayes.p_detect,
                                                bayes.p_error)))
        self.inputs = dict(seed=seed, trials=MC_TRIALS,
                           cases=[(c["preset"], c["receiver"].value, c["threshold"])
                                  for c in self.cases])
        self.first = None

    def outputs(self) -> list:
        return []

    def run(self):
        mc = speckleqi.montecarlo
        config = mc.McConfig(trials=MC_TRIALS, seed=self.inputs["seed"])
        out = []
        for case in self.cases:
            p_f, p_d = mc.estimate_operating_point(case["receiver"], case["params"],
                                                   case["threshold"], config)
            bayes = mc.estimate_bayes_error(case["receiver"], case["params"], config)
            out.append((p_f, p_d, bayes))
        return out

    def check(self, estimates) -> list:
        problems = []
        if self.first is None:
            self.first = estimates
        elif estimates != self.first:
            problems.append("re-run with the same seed is not bit-identical")
        for case, row in zip(self.cases, estimates):
            for what, est, target in zip(("p_false_alarm", "p_detect", "p_error"),
                                         row, case["targets"]):
                tol = MC_SIGMAS * math.sqrt(target * (1.0 - target) / est.trials)
                if abs(est.value - target) > tol:
                    problems.append(f"{case['preset']} {case['receiver'].value} {what} "
                                    f"{est.value} vs closed form {target} (tol {tol:.3g})")
        return problems


WORKLOADS = {"trend": Trend, "validate": Validate, "figures": Figures,
             "montecarlo": MonteCarlo}
