import cmath
import decimal
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln
from scipy.stats import poisson

from speckleqi import (
    DensityMatrix,
    InvalidParameter,
    ResourceGuard,
    SystemParams,
    TruncationTooSmall,
    apply_return_channel,
    check_helstrom_concavity,
    coherent_thermal_state,
    dim_for_tail,
    fading_average,
    fading_exponent_trend,
    helstrom,
    hypothesis_state,
    partial_trace,
    qcb,
    qcb_exponent_at_zero_return,
    return_idler_covariance,
    sfg_mean_counts,
    tensor_power,
    thermal_state,
    threshold_test_error,
    tmsv_state,
    wigner_covariance,
)
from speckleqi import oracle
from speckleqi._golden import golden_section_min
from speckleqi.oracle import (
    _block_groups,
    _copy_labels,
    _destroy,
    _discriminate,
    _log_factorials,
    _thermal_weights,
    displacement_operator,
    random_density_matrix,
)
from speckleqi.params import fading_pdf
from speckleqi.validate import check_sfg_fading_average_thermal


def rotate_return_phase(dm, angle):
    """Reference phase exp(i*angle*n) on the first (return) mode of a two-mode state."""
    d0, d1 = dm.dims
    phases = np.exp(1j * angle * np.repeat(np.arange(d0), d1))
    return DensityMatrix(dm.data * phases[:, None] * phases.conj(), dm.dims, dm.trace_deficit)


def reference_beam_splitter_channel(state, kappa, phi, nbar, d_out, env_tail=1e-13):
    """Independent construction: evolve the (signal, env, idler) kets of the
    input's eigenvectors with a matrix-exponential beam-splitter unitary, then
    trace out the environment.

    The unitary is exp(i*phi*n_1) exp(theta*(a1^dag a2 - a1 a2^dag))
    exp(-i*phi*n_2) with cos(theta) = sqrt(kappa), which realizes
    a_R = sqrt(kappa) e^{i phi} a_S + sqrt(1-kappa) a_B. Eigenvalues at
    rounding level (below 1e-14) are dropped.
    """
    d_sig, d_idl = state.dims
    w, v = np.linalg.eigh(state.data)
    keep = w > 1e-14
    rank = int(keep.sum())
    psi = (v[:, keep] * np.sqrt(w[keep])).reshape(d_sig, d_idl * rank)
    d_env = dim_for_tail(nbar, env_tail)
    d_big = d_sig + d_env - 1  # leak-free: holds every populated sector
    a = _destroy(d_big)
    n_op = np.diag(np.arange(d_big, dtype=float))
    eye = np.eye(d_big)
    theta = math.atan2(math.sqrt(1 - kappa), math.sqrt(kappa))
    gen = theta * (np.kron(a.conj().T, eye) @ np.kron(eye, a)
                   - np.kron(a, eye) @ np.kron(eye, a.conj().T))
    u = expm(1j * phi * np.kron(n_op, eye)) @ expm(gen) @ expm(-1j * phi * np.kron(eye, n_op))
    env_w = _thermal_weights(nbar, d_env)
    out = np.zeros((d_out * d_idl, d_out * d_idl), dtype=complex)
    for k in range(d_env):
        vec = np.zeros((d_big, d_big, d_idl * rank), dtype=complex)
        vec[:d_sig, k, :] = psi
        vec = (u @ vec.reshape(d_big * d_big, -1)).reshape(d_big, d_big, d_idl * rank)
        for e in range(d_big):
            slab = vec[:d_out, e, :].reshape(d_out * d_idl, rank)
            out += env_w[k] * slab @ slab.conj().T
    return out


def lnf(x):
    """ln x! elementwise, from the log-factorial source the batched path uses
    (the reference pins batching, not the rounding of one log-gamma library)."""
    x = np.asarray(x)
    return _log_factorials(int(x.max()) + 1)[x]


def loop_amplitude_matrix(k, d_sig, r_max, kappa):
    """Reference beam-splitter amplitudes <r, n+k-r| U |n, k> for one
    environment level k, each log-factorial evaluated on its own grid."""
    if kappa == 0.0:
        out = np.zeros((r_max, d_sig))
        if k < r_max:
            out[k, :] = (-1.0) ** np.arange(d_sig)
        return out
    if kappa == 1.0:
        out = np.zeros((r_max, d_sig))
        rng = np.arange(min(d_sig, r_max))
        out[rng, rng] = 1.0
        return out
    lk = 0.5 * math.log(kappa)
    l1k = 0.5 * math.log1p(-kappa)
    r = np.arange(r_max)[:, None, None]
    n = np.arange(d_sig)[None, :, None]
    p = np.arange(min(d_sig, r_max))[None, None, :]
    s = n + k - r
    valid = (s >= 0) & (p <= np.minimum(n, r)) & (p >= np.maximum(0, r - k))
    pc = np.where(valid, p, 0)
    log_mag = (
        lnf(n) - lnf(pc) - lnf(n - pc)
        + lnf(k) - lnf(r - pc) - lnf(np.maximum(k - r + pc, 0))
        + (2 * pc + k - r) * lk + (n + r - 2 * pc) * l1k
        + 0.5 * (lnf(r) + lnf(np.maximum(s, 0)) - lnf(n) - lnf(k))
    )
    sign = np.where((n - pc) % 2 == 0, 1.0, -1.0)
    terms = np.where(valid, sign * np.exp(log_mag), 0.0)
    return terms.sum(axis=2)


def loop_return_channel(state, kappa, phi, n_b_eff, out_dim=None, env_tail_tol=1e-12):
    """Reference return channel: one pass per environment photon number k,
    and within it one rank-one update per environment output level. Returns
    the symmetrized output matrix."""
    d_sig, d_idl = state.dims
    if kappa == 1.0:
        return rotate_return_phase(state, phi).data
    d_env = dim_for_tail(n_b_eff, env_tail_tol)
    d_out = d_sig + d_env - 1 if out_dim is None else out_dim
    env_w = _thermal_weights(n_b_eff, d_env)
    rho_in = state.data.reshape(d_sig, d_idl, d_sig, d_idl)
    out = np.zeros((d_out, d_idl, d_out, d_idl), dtype=complex)
    row_phase = np.exp(1j * phi * np.arange(d_out))
    for k in range(d_env):
        amp = (loop_amplitude_matrix(k, d_sig, d_out, kappa)
               * (row_phase * np.exp(-1j * phi * k))[:, None])
        # environment output level e fixes the (signal -> return) index shift
        for e in range(max(0, k - d_out + 1), k + d_sig):
            n_lo = max(0, e - k)
            n_hi = min(d_sig - 1, e - k + d_out - 1)
            if n_hi < n_lo:
                continue
            ns = np.arange(n_lo, n_hi + 1)
            rs = ns + k - e
            v = env_w[k] ** 0.5 * amp[rs, ns]
            block = rho_in[n_lo:n_hi + 1, :, n_lo:n_hi + 1, :]
            out[rs[0]:rs[-1] + 1, :, rs[0]:rs[-1] + 1, :] += (
                v[:, None, None, None] * v.conj()[None, None, :, None] * block
            )
    out = out.reshape(d_out * d_idl, d_out * d_idl)
    return 0.5 * (out + out.conj().T)


def kronecker_wigner_covariance(dm):
    """Reference moments from dense Kronecker-product quadrature operators on
    the joint space."""
    d0, d1 = dm.dims
    a0 = np.kron(_destroy(d0), np.eye(d1))
    a1 = np.kron(np.eye(d0), _destroy(d1))
    quads = []
    for a in (a0, a1):
        quads.append(0.5 * (a + a.conj().T))
        quads.append((a - a.conj().T) / 2j)
    rho = dm.data
    means = np.array([np.trace(q @ rho).real for q in quads])
    cov = np.zeros((4, 4))
    for i in range(4):
        for j in range(i, 4):
            sym = 0.5 * (quads[i] @ quads[j] + quads[j] @ quads[i])
            cov[i, j] = cov[j, i] = np.trace(sym @ rho).real - means[i] * means[j]
    return means, cov


def dense_chernoff_objective(rho0, rho1):
    """Reference q(s) = tr(rho0^s rho1^(1-s)) of two dense states: full
    eigendecompositions, the overlaps |V0^dag V1|^2 and a rank cutoff at
    max * dim * eps, with 0^s := 0 on [0, 1]."""
    def spectrum(dm):
        w, v = np.linalg.eigh(dm.data)
        assert w.min() >= -1e-10
        return np.where(w < w.max() * w.size * np.finfo(float).eps, 0.0, np.clip(w, 0.0, None)), v

    w0, v0 = spectrum(rho0)
    w1, v1 = spectrum(rho1)
    overlap = np.abs(v0.conj().T @ v1) ** 2

    def powers(w, s):
        out = np.zeros_like(w)
        pos = w > 0.0
        out[pos] = np.exp(s * np.log(w[pos]))
        return out

    return lambda s: float(powers(w0, s) @ overlap @ powers(w1, 1.0 - s))


def dense_chernoff(rho0, rho1, s_tol=1e-6):
    """Reference (optimal s, Chernoff exponent): golden-section search of the
    dense q(s) on [0, 1], then the two endpoints."""
    q_s = dense_chernoff_objective(rho0, rho1)
    s_opt, q_min = golden_section_min(q_s, 0.0, 1.0, tol=s_tol)
    for s_end in (0.0, 1.0):
        if q_s(s_end) < q_min:
            s_opt, q_min = s_end, q_s(s_end)
    return s_opt, (math.inf if q_min <= 0.0 else max(0.0, -math.log(q_min)))


def dense_fading_exponent_trend(params, m_list, dim, nodes, pi0=0.5,
                                per_copy_deficit_tol=0.05):
    """Reference trend from dense M-copy states: tensor powers of every
    per-copy state, the phase average as a mask on total return photons mod P,
    and full helstrom + dense_chernoff eigensolves. nodes=None is the known
    return kappa = params.kappa_bar. Feasible up to a few hundred basis states
    per side."""
    rho0 = hypothesis_state(params, 0.0, 0.0, dim, out_dim=dim,
                            trace_deficit_tol=per_copy_deficit_tol).renormalized()
    if nodes is None:
        kappas, amp_weights = [params.kappa_bar], np.array([1.0])
    else:
        n_amp, n_phase = nodes
        xs, ws = np.polynomial.legendre.leggauss(n_amp)
        amps = 0.5 * (xs + 1.0)
        amp_weights = 0.5 * ws * np.array([fading_pdf(params.kappa_bar, a) for a in amps])
        kappas = [a * a for a in amps]
    conditionals = [hypothesis_state(params, kappa, 0.0, dim, out_dim=dim,
                                     trace_deficit_tol=per_copy_deficit_tol).renormalized()
                    for kappa in kappas]
    per_copy = np.repeat(np.arange(dim), dim)
    results = []
    for m in m_list:
        rho0_m = tensor_power(rho0, m)
        acc = amp_weights[0] * tensor_power(conditionals[0], m).data
        for w, cond in zip(amp_weights[1:], conditionals[1:]):
            acc += w * tensor_power(cond, m).data
        if nodes is not None:
            totals = per_copy
            for _ in range(m - 1):
                totals = (totals[:, None] + per_copy[None, :]).reshape(-1)
            acc *= (totals[:, None] - totals[None, :]) % n_phase == 0
        rho1_m = DensityMatrix(acc / np.trace(acc).real, rho0_m.dims)
        pr_e = helstrom(rho0_m, rho1_m, pi0)
        _, exponent = dense_chernoff(rho0_m, rho1_m)
        results.append((m, -math.log(pr_e) / m, exponent / m))
    return results


@pytest.mark.parametrize("value", [math.nan, math.inf, -0.1])
@pytest.mark.parametrize("field, call", [
    ("nbar", lambda v: thermal_state(v, 10)),
    ("nbar", lambda v: coherent_thermal_state(0.5, v, 30)),  # before its headroom check
    ("n_s", lambda v: tmsv_state(v, 10)),
    ("n_b", lambda v: apply_return_channel(tmsv_state(0.1, 6), 0.3, 0.2, v)),
    ("n_b", lambda v: apply_return_channel(tmsv_state(0.1, 6), 1.0, 0.2, v)),
    ("trace_deficit_tol", lambda v: thermal_state(5.0, 4, trace_deficit_tol=v)),
    ("trace_deficit_tol", lambda v: tmsv_state(5.0, 4, trace_deficit_tol=v)),
    ("nbar", lambda v: dim_for_tail(v, 1e-12)),
], ids=["thermal", "coherent-thermal", "tmsv", "channel", "channel-kappa-1", "thermal-tol",
        "tmsv-tol", "dim-for-tail"])
def test_finite_non_negative_inputs_rejected_by_name(field, call, value):
    # one rule, each caller naming its field. A NaN brightness gave an all-NaN state, a NaN
    # tolerance let thermal_state(5.0, 4) drop 48% of its trace, a negative value raised a
    # math domain error, and dim_for_tail returned 2 for a negative nbar
    with pytest.raises(InvalidParameter, match=f"^{field}: must be finite and >= 0"):
        call(value)


class TestThermalState:
    def test_vacuum(self):
        dm = thermal_state(0.0, 5)
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(dm.data, expected)
        assert dm.trace_deficit == 0.0

    def test_unit_mean_weights_and_deficit(self):
        dm = thermal_state(1.0, 30)
        n = np.arange(30)
        np.testing.assert_allclose(np.diag(dm.data).real, 0.5 ** (n + 1), rtol=1e-13)
        # geometric tail: (1/2)^30
        assert dm.trace_deficit == pytest.approx(9.313225746154785e-10, rel=1e-12)
        dm.validate()

    def test_truncation_error_with_suggestion(self):
        with pytest.raises(TruncationTooSmall) as exc:
            thermal_state(15.65327441783348, 30)
        assert exc.value.suggested_dim == dim_for_tail(15.65327441783348, 1e-6)
        thermal_state(15.65327441783348, exc.value.suggested_dim)  # now fits

    @pytest.mark.parametrize("build,dim", [(thermal_state, 10.5), (thermal_state, 1),
                                           (thermal_state, True), (tmsv_state, 10.5),
                                           (tmsv_state, 0)])
    def test_dim_must_be_an_integer(self, build, dim):
        # 10.5 failed with "data shape (11, 11) does not match dims (10,)" in
        # thermal_state and a numpy TypeError in tmsv_state
        low = 2 if build is thermal_state else 1
        with pytest.raises(InvalidParameter, match=f"^dim: must be an integer >= {low}"):
            build(0.1, dim)

    def test_zero_deficit_tolerance_raises_without_suggestion(self):
        assert thermal_state(0.0, 4, trace_deficit_tol=0.0).trace_deficit == 0.0
        with pytest.raises(TruncationTooSmall) as exc:
            thermal_state(0.5, 4, trace_deficit_tol=0.0)
        assert exc.value.suggested_dim is None

    def test_dim_helpers(self):
        assert dim_for_tail(0.0, 1e-12) == 2
        nbar = 5.0
        d = dim_for_tail(nbar, 1e-12)
        assert (nbar / (nbar + 1)) ** d <= 1e-12 < (nbar / (nbar + 1)) ** (d - 1)

    @pytest.mark.parametrize("tail_tol", [0.0, -1e-12, math.nan, math.inf])
    def test_tail_tolerance_must_be_finite_and_positive(self, tail_tol):
        # 0 and -1e-12 raised a math domain error, NaN and inf a conversion error
        with pytest.raises(InvalidParameter, match="^tail_tol: must be finite and > 0"):
            dim_for_tail(5.0, tail_tol)


class TestCoherentThermalState:
    def test_vacuum_edge(self):
        dm = coherent_thermal_state(0.0, 0.0, 6)
        assert dm.data[0, 0].real == pytest.approx(1.0)

    def test_pure_coherent_is_poisson(self):
        dm = coherent_thermal_state(1.0, 0.0, 25)
        np.testing.assert_allclose(np.diag(dm.data).real, poisson.pmf(np.arange(25), 1.0),
                                   atol=1e-12)
        dm.validate()

    def test_headroom_enforced(self):
        with pytest.raises(TruncationTooSmall):
            coherent_thermal_state(3.0, 1.0, 10)

    @pytest.mark.parametrize("alpha", [math.inf, complex(0.0, -math.inf), complex(math.nan, 0.0)])
    def test_amplitude_must_be_finite(self, alpha):
        # alpha = inf failed with an OverflowError
        with pytest.raises(InvalidParameter, match="^alpha: must be finite"):
            coherent_thermal_state(alpha, 0.1, 30)

    @pytest.mark.parametrize("alpha,nbar", [(1e200, 0.1), (1e200j, 0.1), (0.1, 1e200)])
    def test_overflowing_headroom_has_no_suggestion(self, alpha, nbar):
        # alpha = 1e200 failed with a bare OverflowError from |alpha|^2, and
        # nbar = 1e200 from math.ceil(inf)
        with pytest.raises(TruncationTooSmall, match="needs headroom at dim 30$") as exc:
            coherent_thermal_state(alpha, nbar, 30)
        assert exc.value.suggested_dim is None

    @pytest.mark.parametrize("alpha", [0.0, 0.7, -1.1, 1.3j, -0.4j]
                             + [2.0 * cmath.exp(1j * t) for t in (0.3, 1.9, 3.5, 5.1)])
    def test_displacement_matches_expm_and_is_unitary(self, alpha):
        for dim in range(2, 65):
            a = _destroy(dim)
            d_op = displacement_operator(alpha, dim)
            ref = expm(alpha * a.conj().T - np.conj(alpha) * a)
            assert np.abs(d_op - ref).max() <= 1e-13, dim
            assert np.abs(d_op @ d_op.conj().T - np.eye(dim)).max() <= 1e-14, dim


class TestTmsvState:
    def test_zero_brightness(self):
        dm = tmsv_state(0.0, 4)
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(dm.data, expected)

    @pytest.mark.parametrize("keep", [2, -1])
    def test_partial_trace_keeps_mode_0_or_1(self, keep):
        # both returned the idler marginal
        with pytest.raises(InvalidParameter, match="^keep: must be 0 or 1"):
            partial_trace(tmsv_state(0.5, 20), keep)

    def test_purity(self):
        dm = tmsv_state(0.5, 20)
        assert abs(np.trace(dm.data @ dm.data).real - 1.0) < 1e-10

    def test_marginals_are_thermal(self):
        dm = tmsv_state(0.5, 20)
        reference = np.diag(_thermal_weights(0.5, 20))
        for mode in (0, 1):
            np.testing.assert_allclose(partial_trace(dm, mode).data, reference,
                                       atol=1e-9)

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooSmall):
            tmsv_state(0.5, 4)


class TestReturnChannel:
    # apply_return_channel takes the background n_b; the references take the
    # beam splitter's environment brightness, n_b/(1 - kappa) below kappa = 1

    @pytest.mark.parametrize("kappa,phi,nbar", [
        (0.3, math.pi / 4, 0.5),
        (0.7, 1.1, 0.2),
        (0.45, 2.2, 0.9),
        (0.999, 0.3, 0.1),
    ])
    def test_matches_matrix_exponential_reference(self, kappa, phi, nbar):
        tmsv = tmsv_state(0.1, 5, trace_deficit_tol=1e-4)
        mine = apply_return_channel(tmsv, kappa, phi, (1.0 - kappa) * nbar, out_dim=8,
                                    trace_deficit_tol=0.5)
        ref = reference_beam_splitter_channel(tmsv, kappa, phi, nbar, 8)
        assert np.abs(mine.data - ref).max() < 1e-11

    def test_mixed_input_matches_matrix_exponential_reference(self, rng):
        # a full-rank Ginibre state: coherences a TMSV lacks (n_S != n_I)
        state = DensityMatrix(random_density_matrix(12, rng).data, (4, 3))
        mine = apply_return_channel(state, 0.6, 0.8, (1.0 - 0.6) * 0.4, out_dim=8,
                                    trace_deficit_tol=0.5)
        ref = reference_beam_splitter_channel(state, 0.6, 0.8, 0.4, 8)
        assert np.abs(mine.data - ref).max() < 1e-11

    def test_zero_transmissivity_factorizes(self):
        tmsv = tmsv_state(0.2, 8)
        out = apply_return_channel(tmsv, 0.0, 0.0, 0.4, out_dim=8,
                                   trace_deficit_tol=0.1)
        idler = partial_trace(tmsv, 1)
        expected = np.kron(np.diag(_thermal_weights(0.4, 8)), idler.data)
        assert np.abs(out.data - expected).max() < 1e-12

    def test_unit_transmissivity_is_phase_rotation(self):
        tmsv = tmsv_state(0.2, 8)
        out = apply_return_channel(tmsv, 1.0, 0.9, 0.0, out_dim=8)
        np.testing.assert_allclose(out.data, rotate_return_phase(tmsv, 0.9).data,
                                   atol=1e-14)

    def test_output_truncation_guard(self):
        tmsv = tmsv_state(0.2, 8)
        with pytest.raises(TruncationTooSmall):
            apply_return_channel(tmsv, 0.5, 0.0, 1.0, out_dim=3)

    def test_output_dim_above_cap(self):
        with pytest.raises(TruncationTooSmall, match="exceeds the cap 256") as exc:
            apply_return_channel(tmsv_state(0.2, 8), 0.5, 0.0, 0.1, out_dim=257)
        assert exc.value.suggested_dim == 256

    def test_one_mode_input_rejected(self):
        with pytest.raises(ValueError, match="two-mode"):
            apply_return_channel(thermal_state(0.2, 8), 0.5, 0.0, 0.1)

    def test_output_dim_must_be_positive(self):
        tmsv = tmsv_state(0.2, 8)
        with pytest.raises(ValueError, match="out_dim"):
            apply_return_channel(tmsv, 0.5, 0.0, 0.1, out_dim=0)

    @pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("kappa", [0.3, 1.0])
    def test_non_finite_phase_names_field(self, kappa, phi):
        # a NaN phase gave a state with 43,264 NaN entries without complaint
        with pytest.raises(InvalidParameter) as exc:
            apply_return_channel(tmsv_state(0.1, 8), kappa, phi, 0.3)
        assert exc.value.field_name == "phi"

    @pytest.mark.parametrize("phi", [math.inf, math.nan])
    def test_hypothesis_state_rejects_non_finite_phase(self, phi):
        params = SystemParams(M=1e6, N_S=0.1, N_B=0.5, kappa_bar=0.01)
        with pytest.raises(InvalidParameter, match="^phi: must be finite"):
            hypothesis_state(params, 0.3, phi, 8)

    @pytest.mark.parametrize("kappa", [2.0, -0.1, math.nan])
    @pytest.mark.parametrize("dim", [3, 8])
    def test_hypothesis_state_names_transmissivity_at_any_dim(self, kappa, dim):
        # the absent state ignored kappa, and at dim 3 the TMSV's truncation
        # error about n_s came first
        params = SystemParams(M=1e6, N_S=0.1, N_B=0.5, kappa_bar=0.01)
        with pytest.raises(InvalidParameter, match="^kappa: must lie in"):
            hypothesis_state(params, kappa, 0.0, dim)

    @pytest.mark.parametrize("dim,out_dim", [(3, 3), (4, 4), (12, None), (8, 40)])
    def test_zero_return_is_thermal_background_times_idler_marginal(self, dim, out_dim):
        # target absence is the kappa = 0 state: the channel keeps the idler
        # marginal and replaces the return by thermal(N_B)
        params = SystemParams(M=100.0, N_S=0.1, N_B=0.3, kappa_bar=0.5)
        state = hypothesis_state(params, 0.0, 0.0, dim, out_dim=out_dim, trace_deficit_tol=0.05)
        d_out = state.dims[0]
        assert state.dims == (out_dim or d_out, dim)
        idler = partial_trace(tmsv_state(0.1, dim, 0.05), 1).data
        expected = np.kron(np.diag(_thermal_weights(0.3, d_out)), idler)
        assert np.abs(state.data - expected).max() <= 1e-15

    @pytest.mark.parametrize("kappa", [-0.1, 1.2, math.nan])
    def test_transmissivity_outside_unit_interval_names_field(self, kappa):
        with pytest.raises(InvalidParameter, match="^kappa: must lie in"):
            apply_return_channel(tmsv_state(0.1, 8), kappa, 0.0, 0.3)

    def test_environment_guard(self):
        tmsv = tmsv_state(0.2, 8, trace_deficit_tol=1e-4)
        with pytest.raises(TruncationTooSmall):
            apply_return_channel(tmsv, 0.5, 0.0, 5e5, out_dim=8, trace_deficit_tol=0.9)

    @pytest.mark.parametrize("out_dim", [8.7, True, "9"])
    def test_output_dim_must_be_an_integer(self, out_dim):
        # 8.7 ran as 8, True as 1 and "9" as 9
        with pytest.raises(InvalidParameter, match="^out_dim: must be an integer >= 1"):
            apply_return_channel(tmsv_state(0.1, 6), 0.3, 0.1, 0.35, out_dim=out_dim,
                                 trace_deficit_tol=1)

    def test_hypothesis_state_passes_output_dim_through(self):
        params = SystemParams(M=1e6, N_S=0.1, N_B=0.5, kappa_bar=0.01)
        for kappa in (0.3, 0.0):
            with pytest.raises(InvalidParameter, match="^out_dim: must be an integer"):
                hypothesis_state(params, kappa, 0.1, 6, out_dim=8.7)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_deficit_tolerance_must_be_finite_and_non_negative(self, tol):
        # with a NaN tolerance a hot environment's output missed 80% of its trace
        with pytest.raises(InvalidParameter, match="^trace_deficit_tol: must be finite"):
            apply_return_channel(tmsv_state(0.1, 6), 0.3, 0.1, 35.0, out_dim=8,
                                 trace_deficit_tol=tol)

    @pytest.mark.parametrize("state", ["tmsv", "ginibre"])
    @pytest.mark.parametrize("kappa,phi,n_b", [
        (0.3, math.pi / 4, 0.5),  # validate's target-present state
        (0.0, 0.0, 0.5),          # validate's target-absent state
    ])
    def test_output_is_hermitian_bit_for_bit(self, rng, state, kappa, phi, n_b):
        if state == "tmsv":
            state = tmsv_state(0.1, 12)
        else:
            state = DensityMatrix(random_density_matrix(20, rng).data, (5, 4))
        out = apply_return_channel(state, kappa, phi, n_b, trace_deficit_tol=1e-4).data
        np.testing.assert_array_equal(out, out.conj().T)

    def test_output_narrower_than_input_matches_per_level_reference(self, rng):
        # out_dim < d_sig: the diagonals beyond the output are dropped, not wrapped
        for state in (tmsv_state(0.4, 6, trace_deficit_tol=0.1),
                      DensityMatrix(random_density_matrix(30, rng).data, (6, 5))):
            mine = apply_return_channel(state, 0.6, 0.8, (1.0 - 0.6) * 0.4, out_dim=3,
                                        trace_deficit_tol=1)
            ref = loop_return_channel(state, 0.6, 0.8, 0.4, out_dim=3)
            assert np.abs(mine.data - ref).max() <= 1e-14

    def test_log_factorials_exact(self):
        # within 2 ulp of ln n! at 40 digits, and of scipy's gammaln, for n < 2000
        ctx = decimal.Context(prec=40)
        exact = [decimal.Decimal(0)]
        for n in range(1, 2000):
            exact.append(ctx.add(exact[-1], ctx.ln(decimal.Decimal(n))))
        table = _log_factorials(2000)[:2000]
        ulp = np.spacing(np.array([float(e) for e in exact]))
        err = np.array([float(ctx.subtract(decimal.Decimal(t), e))
                        for t, e in zip(table.tolist(), exact)])
        assert np.all(np.abs(err) <= 2 * ulp)
        assert np.all(np.abs(table - gammaln(np.arange(2000) + 1.0)) <= 2 * ulp)

    def test_trend_nodes_match_per_level_reference(self):
        # the 16 Gauss-Legendre amplitudes of the trend: kappa up to 0.989,
        # environments of up to ~760 photon levels
        params = SystemParams(M=100.0, N_S=0.1, N_B=0.3, kappa_bar=0.5)
        tmsv = tmsv_state(params.N_S, 3, trace_deficit_tol=0.05)
        xs, _ = np.polynomial.legendre.leggauss(16)
        for amp in 0.5 * (xs + 1.0):
            kappa = float(amp * amp)
            mine = apply_return_channel(tmsv, kappa, 0.0, params.N_B, out_dim=3,
                                        trace_deficit_tol=0.05)
            ref = loop_return_channel(tmsv, kappa, 0.0, params.N_B / (1.0 - kappa), out_dim=3)
            assert np.abs(mine.data - ref).max() <= 1e-14

    @pytest.mark.parametrize("kappa,phi,n_b", [
        (0.3, math.pi / 4, 0.5),  # validate's target-present state
        (0.0, 0.0, 0.5),          # validate's target-absent state
        (1.0, 0.9, 0.0),
    ])
    def test_default_output_matches_per_level_reference(self, kappa, phi, n_b):
        tmsv = tmsv_state(0.1, 12)
        mine = apply_return_channel(tmsv, kappa, phi, n_b)
        n_b_eff = n_b / (1.0 - kappa) if kappa < 1.0 else 0.0
        assert mine.data.shape == loop_return_channel(tmsv, kappa, phi, n_b_eff).shape
        # the reference's own 1e-12 environment cut drops ~2e-13; the channel drops none
        ref = loop_return_channel(tmsv, kappa, phi, n_b_eff, out_dim=mine.dims[0],
                                  env_tail_tol=1e-16)
        assert np.abs(mine.data - ref).max() <= 1e-14

    def test_environment_across_amplitude_chunks(self):
        # a hot environment: the reference sums 2777 environment levels
        tmsv = tmsv_state(0.1, 3, trace_deficit_tol=0.05)
        mine = apply_return_channel(tmsv, 0.997, 0.6, (1.0 - 0.997) * 100.0, out_dim=3,
                                    trace_deficit_tol=0.05)
        ref = loop_return_channel(tmsv, 0.997, 0.6, 100.0, out_dim=3)
        assert np.abs(mine.data - ref).max() <= 1e-14


class TestCovarianceWeld:
    def test_moments_match_covariance_h1(self):
        params = SystemParams(M=1e6, N_S=0.1, N_B=0.5, kappa_bar=0.01)
        state = hypothesis_state(params, 0.3, math.pi / 4, 12)
        means, cov = wigner_covariance(state)
        ref = return_idler_covariance(0.1, 0.5, 0.3, math.pi / 4)
        assert np.abs(means).max() < 1e-6
        assert np.abs(cov - ref).max() < 1e-6

    def test_moments_match_covariance_h0(self):
        params = SystemParams(M=1e6, N_S=0.1, N_B=0.5, kappa_bar=0.01)
        state = hypothesis_state(params, 0.0, 0.0, 12)
        _, cov = wigner_covariance(state)
        ref = return_idler_covariance(0.1, 0.5, 0.0, 0.0)
        assert np.abs(cov - ref).max() < 1e-6

    @staticmethod
    def check_near_unit_transmissivity(out_dim):
        # a beam splitter's environment, thermal(N_B/(1 - kappa)) = thermal(5000),
        # would need 138,169 levels
        params = SystemParams(M=1e6, N_S=0.1, N_B=0.5, kappa_bar=0.01)
        state = hypothesis_state(params, 0.9999, math.pi / 4, 12, out_dim=out_dim)
        assert state.trace_deficit < 1e-12
        _, cov = wigner_covariance(state)
        ref = return_idler_covariance(0.1, 0.5, 0.9999, math.pi / 4)
        assert np.abs(cov - ref).max() < 1e-6

    def test_moments_match_covariance_near_unit_transmissivity(self):
        self.check_near_unit_transmissivity(40)

    def test_moments_match_covariance_near_unit_transmissivity_default_out_dim(self):
        # the default output size is the amplifier's bound, not the beam splitter's
        self.check_near_unit_transmissivity(None)

    @pytest.mark.parametrize("kappa", [1.0, 1.0 - 1e-9])
    @pytest.mark.parametrize("out_dim", [40, None])
    def test_moments_match_covariance_at_unit_transmissivity(self, kappa, out_dim):
        # kappa = 1 returned the phase-rotated TMSV: no background, out_dim ignored,
        # a return variance of 0.300 against the covariance's 0.550
        params = SystemParams(M=1e6, N_S=0.1, N_B=0.5, kappa_bar=0.01)
        state = hypothesis_state(params, kappa, 0.3, 12, out_dim=out_dim)
        assert state.dims == (40 if out_dim else 56, 12)
        _, cov = wigner_covariance(state)
        ref = return_idler_covariance(0.1, 0.5, kappa, 0.3)
        assert np.abs(cov - ref).max() < 1e-6

    def test_traced_peak_of_a_validate_state(self):
        # the 516 x 516 output is 4.06 MiB; two full-size passes peaked at 12.9 MiB
        params = SystemParams(M=1e6, N_S=0.1, N_B=0.5, kappa_bar=0.01)
        hypothesis_state(params, 0.3, math.pi / 4, 12)
        tracemalloc.start()
        try:
            hypothesis_state(params, 0.3, math.pi / 4, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 * 2 ** 20

    def test_covariance_does_not_copy_the_state(self):
        # the cross block's tensordot copied the 4.06 MiB state: a 4.14 MiB peak
        params = SystemParams(M=1e6, N_S=0.1, N_B=0.5, kappa_bar=0.01)
        state = hypothesis_state(params, 0.3, math.pi / 4, 12)
        wigner_covariance(state)
        tracemalloc.start()
        try:
            wigner_covariance(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20

    def test_marginal_moments_match_kronecker_reference(self, rng):
        params = SystemParams(M=1e6, N_S=0.1, N_B=0.5, kappa_bar=0.01)
        displaced = np.kron(coherent_thermal_state(0.7 + 0.3j, 0.2, 20).data,
                            coherent_thermal_state(-0.4 + 0.5j, 0.1, 15).data)
        states = [hypothesis_state(params, 0.3, math.pi / 4, 12),
                  hypothesis_state(params, 0.0, 0.0, 12),
                  DensityMatrix(displaced, (20, 15)),
                  DensityMatrix(random_density_matrix(30, rng).data, (5, 6))]
        for state in states:
            means, cov = wigner_covariance(state)
            ref_means, ref_cov = kronecker_wigner_covariance(state)
            assert np.abs(means - ref_means).max() < 1e-12
            assert np.abs(cov - ref_cov).max() < 1e-12

    def test_covariance_structure(self):
        cov = return_idler_covariance(0.1, 0.5, 0.3, 0.7)
        np.testing.assert_allclose(cov, cov.T)
        # the cross block is (c_p/2) [[cos phi, sin phi], [sin phi, -cos phi]]
        c_p = math.sqrt(0.3 * 0.1 * 1.1)
        assert cov[0, 2] == pytest.approx(0.5 * c_p * math.cos(0.7))
        assert cov[0, 3] == pytest.approx(0.5 * c_p * math.sin(0.7))
        # diagonal blocks proportional to the identity
        for block in (cov[:2, :2], cov[2:, 2:]):
            np.testing.assert_allclose(block, block[0, 0] * np.eye(2), atol=1e-15)
        # off-diagonal block has the reflection structure
        off = cov[:2, 2:]
        assert off[0, 0] == pytest.approx(-off[1, 1])
        assert off[0, 1] == pytest.approx(off[1, 0])

    @pytest.mark.parametrize("kappa, phi, field", [
        (0.3, math.nan, "phi"), (0.3, -math.inf, "phi"), (2.0, 0.0, "kappa"),
        (-1.0, 0.0, "kappa")])
    def test_return_arguments_named(self, kappa, phi, field):
        # kappa = 2 gave a matrix, kappa = -1 a bare "math domain error", and a
        # NaN phase a NaN cross block
        with pytest.raises(InvalidParameter) as exc:
            return_idler_covariance(0.1, 0.5, kappa, phi)
        assert exc.value.field_name == field

    @pytest.mark.parametrize("phi", [0.0, 0.2])
    def test_zero_return_has_no_cross_block(self, phi):
        ref = return_idler_covariance(0.1, 0.5, 0.0, phi)
        np.testing.assert_array_equal(ref[:2, 2:], 0.0)
        np.testing.assert_array_equal(ref[2:, :2], 0.0)
        np.testing.assert_array_equal(np.diag(ref), [0.5, 0.5, 0.3, 0.3])

    def test_printed_limit_form_drops_leakthrough(self):
        # the printed N_S << 1 << N_B limit keeps the return at (2 N_B + 1)/4;
        # the exact return also carries the kappa*N_S leak-through
        exact = return_idler_covariance(0.1, 0.5, 0.3, 0.0)
        assert exact[0, 0] == pytest.approx((2 * (0.3 * 0.1 + 0.5) + 1) / 4)
        assert exact[0, 0] - (2 * 0.5 + 1) / 4 == pytest.approx(0.3 * 0.1 / 2)


def direct_grid_average(builder, kappa_bar, nodes):
    """Reference fading average: builder(amplitude, phase) at every node of a
    Gauss-Legendre amplitude x uniform phase grid, weighted and summed, then
    renormalized."""
    n_amp, n_phase = nodes
    xs, ws = np.polynomial.legendre.leggauss(n_amp)
    amps = 0.5 * (xs + 1.0)
    amp_w = 0.5 * ws * np.array([fading_pdf(kappa_bar, a) for a in amps])
    total = sum(w / n_phase * builder(a, 2.0 * np.pi * j / n_phase).data
                for a, w in zip(amps, amp_w) for j in range(n_phase))
    return total / np.trace(total).real


SFG_AVERAGE = SystemParams(M=100.0, N_S=0.01, N_B=0.5, kappa_bar=0.05, epsilon=0.01)


def sfg_conditional(amplitude, phase=0.0):
    """Conditional coherent state of the SFG reduction on the thermal floor."""
    n0, _ = sfg_mean_counts(SFG_AVERAGE)
    scale = (1 - SFG_AVERAGE.epsilon) * SFG_AVERAGE.M * SFG_AVERAGE.N_S / SFG_AVERAGE.N_B
    alpha = math.sqrt(scale) * amplitude * complex(math.cos(phase), math.sin(phase))
    return coherent_thermal_state(alpha, n0, 30)


class TestFadingAverage:
    def test_constant_builder_is_identity(self):
        fixed = thermal_state(0.3, 10)
        out = fading_average(lambda a: fixed, 0.05, (16, 16))
        np.testing.assert_allclose(out.data, fixed.renormalized().data, atol=1e-10)

    @pytest.mark.parametrize("kappa_bar", [0.0, -0.1, 1.2, math.nan])
    def test_kappa_bar_outside_unit_interval_rejected(self, kappa_bar):
        with pytest.raises(InvalidParameter, match="^kappa_bar: must lie in"):
            fading_average(lambda a: thermal_state(0.1, 5), kappa_bar, (16, 16))

    def test_inconsistent_builder_dims_rejected(self):
        with pytest.raises(ValueError, match="inconsistent dimensions"):
            fading_average(lambda a: thermal_state(0.1, 8 if a < 0.5 else 9), 0.05, (16, 16))

    def test_minimum_nodes_enforced(self):
        with pytest.raises(ValueError):
            fading_average(lambda a: thermal_state(0.1, 5), 0.05, (4, 16))

    @pytest.mark.parametrize("nodes", ["junk", (16, 33, 5), (16.5, 33), 16.0, 16, np.int64(16)],
                             ids=["str", "triple", "float-pair", "float", "int", "numpy-int"])
    def test_node_counts_rejected_by_name(self, nodes):
        with pytest.raises(ValueError, match="^nodes: must be a pair"):
            fading_average(lambda a: thermal_state(0.1, 5), 0.05, nodes)

    def test_numpy_integer_node_count_accepted(self):
        def builder(a):
            return coherent_thermal_state(a, 0.1, 20)
        got = fading_average(builder, 0.05, (np.int64(16), np.int64(16)))
        np.testing.assert_array_equal(got.data, fading_average(builder, 0.05, (16, 16)).data)

    def test_sfg_conditional_average_is_thermal(self):
        # Rayleigh mixture of conditional coherent states = thermal(N1 + floor)
        n0, n1 = sfg_mean_counts(SFG_AVERAGE)
        averaged = fading_average(sfg_conditional, 0.05, (64, 64))
        target = thermal_state(n1 + n0, 30).renormalized()
        distance = 0.5 * np.abs(np.linalg.eigvalsh(averaged.data - target.data)).sum()
        assert distance < 1e-4

    @pytest.mark.parametrize("dim,nodes", [(9, (16, 8)), (5, (16, 33))])
    def test_phase_mask_matches_direct_grid_two_mode(self, dim, nodes):
        # the return mode of a (return, idler) pair, rotated by the channel
        # itself at every phase node; at dim 9, P = 8 keeps the n - n' = 8
        # coherences that a uniform phase would remove, on both sides
        params = SystemParams(M=100.0, N_S=0.1, N_B=0.3, kappa_bar=0.5)

        def builder(amplitude, phase):
            return hypothesis_state(params, amplitude ** 2, phase, dim, out_dim=dim,
                                    trace_deficit_tol=0.05)

        averaged = fading_average(lambda a: builder(a, 0.0), params.kappa_bar, nodes)
        assert averaged.dims == (dim, dim)
        direct = direct_grid_average(builder, params.kappa_bar, nodes)
        assert np.abs(averaged.data - direct).max() <= 1e-12

    def test_validate_check_matches_direct_grid(self):
        # the check builds one displacement per amplitude node and leaves the
        # phase to the mask; building every (amplitude, phase) node directly
        # gives the same state and the same measured distance
        n0, n1 = sfg_mean_counts(SFG_AVERAGE)
        direct = direct_grid_average(sfg_conditional, SFG_AVERAGE.kappa_bar, (64, 64))
        averaged = fading_average(sfg_conditional, SFG_AVERAGE.kappa_bar, (64, 64))
        assert np.abs(averaged.data - direct).max() <= 1e-12
        target = thermal_state(n1 + n0, 30).renormalized()
        distance = 0.5 * np.abs(np.linalg.eigvalsh(direct - target.data)).sum()
        assert check_sfg_fading_average_thermal().measured == pytest.approx(distance, abs=1e-12)


class TestHelstrom:
    def test_identical_states(self, rng):
        dm = random_density_matrix(5, rng)
        for pi0 in (0.5, 0.2, 0.9):
            assert helstrom(dm, dm, pi0) == pytest.approx(min(pi0, 1 - pi0), abs=1e-12)

    def test_two_thermal_states_brute_force(self):
        # brute force over all threshold decision rules on the counts
        t0 = thermal_state(0.0, 40)
        t1 = thermal_state(1.0, 40, trace_deficit_tol=1e-5)
        p0 = np.diag(t0.data).real
        p1 = np.diag(t1.data).real
        best = min(0.5 * p0[t + 1:].sum() + 0.5 * (1 - p1[t + 1:].sum())
                   for t in range(-1, 39))
        assert best == pytest.approx(0.25, abs=1e-9)
        assert helstrom(t0, t1, 0.5) == pytest.approx(0.25, abs=1e-9)

    def test_orthogonal_pure_states(self):
        r0 = DensityMatrix(np.diag([1.0, 0.0]), (2,))
        r1 = DensityMatrix(np.diag([0.0, 1.0]), (2,))
        assert helstrom(r0, r1, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            helstrom(random_density_matrix(3, rng), random_density_matrix(4, rng), 0.5)

    def test_weld_to_analytic_threshold_error(self, rng):
        for _ in range(5):
            n1 = rng.uniform(0.5, 5.0)
            n0 = rng.uniform(0.0, 0.8 * n1)
            dim = dim_for_tail(n1, 1e-12)
            got = helstrom(thermal_state(n0, dim, 1e-11), thermal_state(n1, dim, 1e-11), 0.5)
            assert got == pytest.approx(threshold_test_error(n0, n1, 0.5), abs=1e-8)


class TestQcb:
    def test_identical_states(self, rng):
        dm = random_density_matrix(4, rng)
        assert qcb(dm, dm).qcb_exponent == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="share a dimension"):
            qcb(random_density_matrix(3, rng), random_density_matrix(4, rng))

    def test_pure_states_flat_overlap(self, rng, monkeypatch):
        v0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v0 /= np.linalg.norm(v0)
        v1 /= np.linalg.norm(v1)
        r0 = DensityMatrix(np.outer(v0, v0.conj()), (6,))
        r1 = DensityMatrix(np.outer(v1, v1.conj()), (6,))
        overlap = abs(v0.conj() @ v1) ** 2
        objectives = []
        real_minimum = oracle._chernoff_minimum

        def capture(q_s):
            objectives.append(q_s)
            return real_minimum(q_s)

        monkeypatch.setattr(oracle, "_chernoff_minimum", capture)
        report = qcb(r0, r1)
        assert math.exp(-report.qcb_exponent) == pytest.approx(overlap, rel=1e-9)
        # s-independence of the kernel's tr(rho0^s rho1^(1-s)) for pure states,
        # which leaves optimal_s arbitrary
        (q_s,) = objectives
        grid = [q_s(s) for s in np.linspace(0.05, 0.95, 19)]
        assert max(grid) - min(grid) < 1e-12

    def test_matches_dense_reference(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            r0 = random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
            r1 = random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
            pi0 = float(rng.uniform(0.0, 1.0))
            report = qcb(r0, r1, pi0)
            assert report.helstrom_error == helstrom(r0, r1, pi0)
            _, exponent = dense_chernoff(r0, r1)
            assert report.qcb_exponent == pytest.approx(exponent, abs=1e-12)

    def test_block_diagonal_pair_solved_as_blocks(self, rng):
        # blocks of sizes 1, 2, 2, 3 on an 8-dim space: the kernel on the
        # block stacks, on one dense block, and the dense reference agree
        sizes = [2, 1, 3, 2]
        weights = rng.dirichlet(np.ones(len(sizes)), size=2)
        dense, stacks = [], []
        for w in weights:
            blocks = [w_i * random_density_matrix(n, rng).data for w_i, n in zip(w, sizes)]
            full = np.zeros((8, 8), dtype=complex)
            lo = 0
            for b in blocks:
                full[lo:lo + len(b), lo:lo + len(b)] = b
                lo += len(b)
            dense.append(DensityMatrix(full, (8,)))
            stacks.append([np.stack([b for b in blocks if len(b) == n]) for n in (1, 2, 3)])
        blocked = _discriminate(stacks[0], stacks[1], 0.3, 8)
        single = _discriminate([dense[0].data[None]], [dense[1].data[None]], 0.3, 8)
        report = qcb(dense[0], dense[1], 0.3)
        assert report.helstrom_error == single[0]
        assert report.qcb_exponent == single[2]
        _, exponent = dense_chernoff(dense[0], dense[1])
        for pr_e, _, chernoff in (blocked, single):
            assert pr_e == pytest.approx(helstrom(dense[0], dense[1], 0.3), abs=1e-12)
            assert chernoff == pytest.approx(exponent, abs=1e-12)
            assert chernoff > 0.0
        assert blocked[1] == pytest.approx(single[1], abs=1e-5)

    def test_rejects_prior_outside_unit_interval(self, rng):
        r0, r1 = random_density_matrix(3, rng), random_density_matrix(3, rng)
        for pi0 in (1.5, -0.1):
            with pytest.raises(ValueError, match="pi0"):
                qcb(r0, r1, pi0=pi0)

    @pytest.mark.parametrize("solve", [helstrom, qcb])
    def test_nan_prior_rejected_before_the_eigensolve(self, rng, solve):
        # a NaN prior must be named before LAPACK fails on a NaN matrix
        r0, r1 = random_density_matrix(3, rng), random_density_matrix(3, rng)
        with pytest.raises(ValueError, match=r"^pi0: must lie in \[0, 1\]"):
            solve(r0, r1, math.nan)

    def test_thermal_pair_matches_dense_grid(self):
        r0 = thermal_state(0.1, 60).renormalized()
        r1 = thermal_state(1.0, 60, 1e-5).renormalized()
        report = qcb(r0, r1)
        p0 = np.diag(r0.data).real
        p1 = np.diag(r1.data).real
        grid = np.linspace(0.0, 1.0, 1001)
        q_grid = min(np.sum(p0 ** s * p1 ** (1 - s)) for s in grid[1:-1])
        assert report.qcb_exponent == pytest.approx(-math.log(q_grid), abs=1e-6)

    def test_single_copy_bound(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            report = qcb(random_density_matrix(dim, rng), random_density_matrix(dim, rng))
            assert report.helstrom_error <= 0.5 * math.exp(-report.qcb_exponent) + 1e-10

    def test_rejects_non_psd(self):
        bad = DensityMatrix(np.diag([1.2, -0.2]), (2,))
        good = DensityMatrix(np.diag([0.5, 0.5]), (2,))
        with pytest.raises(ValueError):
            qcb(bad, good)


# check_helstrom_concavity(trials=200, dim=4, mixture_size=4, seed), the
# worst slack, seeds 0-29, recorded when each trial's Helstrom problems were
# solved one at a time; no seed has a violation
CONCAVITY_MIN_SLACK = [
    0.01926779305875065, 0.02788773015312268, 0.022316168057985364, 0.03450056985392172,
    0.04131536610315545, 0.025224054532980072, 0.019516695130322254, 0.024738854763061813,
    0.020963219924300863, 0.010612092441527221, 0.02176583848957364, 0.022537578960951182,
    0.02053723356006501, 0.025554648238282324, 0.010001608602389661, 0.019506724335313974,
    0.026886793947835164, 0.01646998100664665, 0.01963901180391814, 0.02038522002619625,
    0.0186971240190289, 0.013446369781578149, 0.031338213742658605, 0.020607557176989588,
    0.029023096945175964, 0.017640164230526667, 0.011702799751567156, 0.007193761379113706,
    0.033735227542631085, 0.02343250938286584,
]


class TestConcavity:
    def test_single_component_equality(self):
        slack = check_helstrom_concavity(trials=50, dim=3, mixture_size=1, seed=1)
        assert abs(slack) < 1e-12
        assert slack == -2.7755575615628914e-17

    def test_random_qubit_trials(self):
        slack = check_helstrom_concavity(trials=300, dim=2, mixture_size=4, seed=2)
        assert slack >= -1e-9
        assert slack == 0.0021986552298303152

    def test_no_trials_has_infinite_slack(self):
        assert check_helstrom_concavity(trials=0, dim=2, mixture_size=2, seed=0) == math.inf

    @pytest.mark.parametrize("field", ["dim", "mixture_size"])
    def test_empty_trial_shape_rejected(self, field):
        # dim=0 gave a slack of 0.0 and mixture_size=0 one of 0.5
        shape = {"dim": 2, "mixture_size": 2, field: 0}
        with pytest.raises(InvalidParameter, match=f"^{field}: must"):
            check_helstrom_concavity(trials=3, seed=0, **shape)

    @pytest.mark.parametrize("field, value", [
        ("trials", -1), ("trials", 2.5), ("trials", True), ("dim", 2.5), ("mixture_size", 2.0),
        ("seed", -1), ("seed", 1.5), ("seed", True)])
    def test_trial_shape_must_be_integers(self, field, value):
        # trials=-1 failed in numpy ("negative dimensions"), dim=2.5 with a bare
        # TypeError, seed=-1 with numpy's "expected non-negative integer"
        shape = {"trials": 3, "dim": 2, "mixture_size": 2, "seed": 0, field: value}
        with pytest.raises(InvalidParameter, match=f"^{field}: must be an integer"):
            check_helstrom_concavity(**shape)

    @pytest.mark.parametrize("seed", range(30))
    def test_pinned_validate_trials(self, seed):
        # the validate check's shape; bit for bit, so the random stream and
        # the per-problem solves are unchanged
        slack = check_helstrom_concavity(trials=200, dim=4, mixture_size=4, seed=seed)
        assert slack == CONCAVITY_MIN_SLACK[seed]
        assert slack >= -1e-9


class TestExponentTrend:
    SURROGATE = dict(M=100.0, N_S=0.1, N_B=0.3, kappa_bar=0.5)

    def test_fading_exponent_decreases_one_to_two(self):
        params = SystemParams(**self.SURROGATE)
        points = fading_exponent_trend(params, [1, 2], dim=4, nodes=(16, 33))
        assert points[0].copies == 1 and points[1].copies == 2
        assert points[1].helstrom_exponent < points[0].helstrom_exponent

    def test_known_target_contrast_constant_rate(self):
        params = SystemParams(**self.SURROGATE)
        points = fading_exponent_trend(params, [1, 2], dim=4, nodes=None)
        rates = [p.chernoff_exponent for p in points]
        assert abs(rates[1] - rates[0]) < 1e-9 * max(rates)

    @pytest.mark.parametrize("m_list", [[1.7], [2.0], [], [0, 1], [-1], ["2"], [True],
                                        [2, True]])
    def test_copy_counts_must_be_positive_integers(self, m_list):
        # 1.7 must not be truncated to one copy, nor [] fail with an IndexError;
        # True ran as one copy
        params = SystemParams(**self.SURROGATE)
        with pytest.raises(InvalidParameter, match="^m_list: "):
            fading_exponent_trend(params, m_list, dim=3, nodes=(16, 33))

    def test_numpy_integer_copy_counts_accepted(self):
        params = SystemParams(**self.SURROGATE)
        points = fading_exponent_trend(params, np.array([2, 1]), dim=3, nodes=(16, 33))
        assert [p.copies for p in points] == [1, 2]

    @pytest.mark.parametrize("nodes", ["junk", (16, 33, 5), (16.5, 33), (16, 7), 16],
                             ids=["str", "triple", "float-pair", "too-few", "int"])
    def test_node_counts_rejected_by_name(self, nodes):
        params = SystemParams(**self.SURROGATE)
        with pytest.raises(ValueError, match="^nodes: must be a pair"):
            fading_exponent_trend(params, [1], dim=3, nodes=nodes)

    def test_numpy_integer_node_count_accepted(self):
        params = SystemParams(**self.SURROGATE)
        got = fading_exponent_trend(params, [1], dim=3, nodes=(np.int64(16), np.int64(33)))
        assert got == fading_exponent_trend(params, [1], dim=3, nodes=(16, 33))

    @pytest.mark.parametrize("dim", [2.5, True, 0])
    @pytest.mark.parametrize("nodes", [(16, 33), None], ids=["fading", "known"])
    def test_truncation_must_be_an_integer(self, dim, nodes):
        # 2.5 failed with a bare TypeError; True ran as dim 1
        params = SystemParams(**self.SURROGATE)
        with pytest.raises(InvalidParameter, match="^dim: must be an integer"):
            fading_exponent_trend(params, [1], dim=dim, nodes=nodes)

    def _guard_before_labels(self, monkeypatch, dim):
        def unlisted(*args):
            raise AssertionError("labels built for a case the basis size rejects")

        monkeypatch.setattr(oracle, "_copy_labels", unlisted)
        params = SystemParams(**self.SURROGATE)
        with pytest.raises(ResourceGuard, match=f"^M=4 copies of a two-mode dim-{dim} state"):
            fading_exponent_trend(params, [1, 4], dim=dim, nodes=(16, 33))

    def test_memory_guard(self, monkeypatch):
        # 256 bytes per basis state alone make 4 GiB at dim 8, M = 4, so the
        # guard fires before any block is listed
        self._guard_before_labels(monkeypatch, 8)

    def test_memory_guard_basis_size_does_not_wrap(self, monkeypatch):
        # at numpy dim 65536 the basis size 65536^8 wraps to 0 in int64
        self._guard_before_labels(monkeypatch, np.int64(65536))

    def test_memory_guard_counts_the_blocks(self, monkeypatch):
        # dim 6, M = 4: the basis takes 0.4 GiB, the blocks of the known
        # return (no phase grid) take the rest of 24.1 GiB
        def unbuilt(*args, **kwargs):
            raise AssertionError("per-copy state built before the guard")

        monkeypatch.setattr(oracle, "apply_return_channel", unbuilt)
        params = SystemParams(**self.SURROGATE)
        with pytest.raises(ResourceGuard, match="need 24.1 GiB$"):
            fading_exponent_trend(params, [4], dim=6, nodes=None)

    def test_memory_estimate_tracks_allocation(self):
        params = SystemParams(**self.SURROGATE)
        fading_exponent_trend(params, [1], dim=4, nodes=None)
        tracemalloc.start()
        try:
            fading_exponent_trend(params, [3], dim=4, nodes=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        groups = _block_groups(_copy_labels(4, 3, 1))
        estimate = 256.0 * 4 ** 6 + 56.0 * sum(g.shape[0] * g.shape[1] ** 2 for g in groups)
        assert peak / 2 < estimate < 2 * peak

    @pytest.mark.parametrize("dim,m,n_phase", [(3, 3, 33), (4, 2, 8), (5, 2, 8), (3, 3, 1)])
    def test_block_groups_partition_the_basis(self, dim, m, n_phase):
        groups = _block_groups(_copy_labels(dim, m, n_phase))
        indices = np.sort(np.concatenate([g.ravel() for g in groups]))
        np.testing.assert_array_equal(indices, np.arange(dim ** (2 * m)))

    @pytest.mark.parametrize("dim,m_max,nodes", [
        (3, 3, (16, 33)),
        (4, 2, (16, 33)),
        (3, 3, None),       # the known return kappa = kappa_bar
        (5, 2, (16, 8)),    # P = 8 <= largest total return 8: aliasing
        (5, 2, (16, 33)),
    ])
    def test_blocked_matches_dense(self, dim, m_max, nodes):
        params = SystemParams(**self.SURROGATE)
        m_list = list(range(1, m_max + 1))
        blocked = fading_exponent_trend(params, m_list, dim=dim, nodes=nodes)
        dense = dense_fading_exponent_trend(params, m_list, dim, nodes)
        for point, (m, h, c) in zip(blocked, dense):
            assert point.copies == m
            assert point.helstrom_exponent == pytest.approx(h, abs=1e-12)
            assert point.chernoff_exponent == pytest.approx(c, abs=1e-12)

    @pytest.mark.parametrize("pi0", [0.2, 0.7])
    def test_priors_enter_the_helstrom_exponent(self, pi0):
        # the trend solved every pair at equal priors, whatever params.pi0 said
        params = SystemParams(**self.SURROGATE, pi0=pi0)
        points = fading_exponent_trend(params, [1, 2], dim=3, nodes=(16, 33))
        dense = dense_fading_exponent_trend(params, [1, 2], 3, (16, 33), pi0=pi0)
        even = fading_exponent_trend(SystemParams(**self.SURROGATE), [1, 2], dim=3,
                                     nodes=(16, 33))
        for point, (m, h, c), half in zip(points, dense, even):
            assert point.copies == m
            assert point.helstrom_exponent == pytest.approx(h, abs=1e-12)
            assert point.chernoff_exponent == pytest.approx(c, abs=1e-12)
            assert point.chernoff_exponent == half.chernoff_exponent
            assert abs(point.helstrom_exponent - half.helstrom_exponent) > 1e-3

    @pytest.mark.parametrize("pi0", [0.0, 1.0])
    def test_certain_prior_rejected(self, pi0):
        # Pr_e = 0 there, and -ln 0 raised a bare math domain error
        params = SystemParams(**self.SURROGATE, pi0=pi0)
        with pytest.raises(InvalidParameter, match=r"^pi0: must lie in \(0, 1\)"):
            fading_exponent_trend(params, [1], dim=3, nodes=(16, 33))

    def test_single_copy_matches_fading_average(self):
        # one quadrature rule: at m = 1 the blocked trend is helstrom/qcb of
        # fading_average over the same renormalized conditional states
        params = SystemParams(**self.SURROGATE)
        point, = fading_exponent_trend(params, [1], dim=3, nodes=(16, 33))
        rho0 = hypothesis_state(params, 0.0, 0.0, 3, out_dim=3,
                                trace_deficit_tol=0.05).renormalized()
        rho1 = fading_average(
            lambda a: hypothesis_state(params, a * a, 0.0, 3, out_dim=3,
                                       trace_deficit_tol=0.05).renormalized(),
            params.kappa_bar, (16, 33))
        assert point.helstrom_exponent == pytest.approx(-math.log(helstrom(rho0, rho1, 0.5)),
                                                        abs=1e-12)
        assert point.chernoff_exponent == pytest.approx(qcb(rho0, rho1).qcb_exponent,
                                                        abs=1e-12)

    def test_phase_grid_aliasing_shows_at_dim_5(self):
        # at dim 5 the phase grids P = 8 and P = 33 give results ~1e-10 apart,
        # far above the 1e-12 agreement with the dense reference
        params = SystemParams(**self.SURROGATE)
        aliased, exact = (fading_exponent_trend(params, [2], dim=5, nodes=(16, p))[0]
                          for p in (8, 33))
        gap = max(abs(aliased.helstrom_exponent - exact.helstrom_exponent),
                  abs(aliased.chernoff_exponent - exact.chernoff_exponent))
        assert gap > 1e-11
        assert aliased.blocks != exact.blocks

    def test_trend_converges_in_amplitude_nodes(self):
        # the node nearest amplitude 1 needs an environment of ~4,700 levels
        # at 40 nodes and ~12,000 at 64
        params = SystemParams(**self.SURROGATE)
        base = fading_exponent_trend(params, [1, 2, 3], dim=3, nodes=(16, 33))
        for n_amp in (40, 64):
            points = fading_exponent_trend(params, [1, 2, 3], dim=3, nodes=(n_amp, 33))
            for p, q in zip(points, base):
                assert p.helstrom_exponent == pytest.approx(q.helstrom_exponent, abs=1e-12)
                assert p.chernoff_exponent == pytest.approx(q.chernoff_exponent, abs=1e-12)

    def test_block_layout(self):
        params = SystemParams(**self.SURROGATE)
        points = fading_exponent_trend(params, [1, 2, 3], dim=3, nodes=(16, 33))
        assert [(p.blocks, p.largest_block) for p in points] == [(9, 1), (65, 3), (425, 7)]

    @pytest.mark.parametrize("dim,m_max", [(4, 4), (6, 3)])
    def test_fading_trend_holds_as_truncation_and_copies_grow(self, dim, m_max):
        params = SystemParams(**self.SURROGATE)
        points = fading_exponent_trend(params, range(1, m_max + 1), dim=dim, nodes=(16, 33))
        estimates = [p.helstrom_exponent for p in points]
        assert all(b < a for a, b in zip(estimates, estimates[1:]))

    @pytest.mark.parametrize("present", [False, True])
    def test_weight_outside_the_blocks_is_rejected(self, monkeypatch, present):
        real = oracle.apply_return_channel

        def leaky(state, kappa, *args, **kwargs):
            dm = real(state, kappa, *args, **kwargs)
            if (kappa > 0.0) == present:  # kappa = 0 is target absence
                # couples (n_R, n_I) = (0, 0) with (0, 1): different n_R - n_I
                dm.data[0, 1] = dm.data[1, 0] = 1e-9
            return dm

        monkeypatch.setattr(oracle, "apply_return_channel", leaky)
        params = SystemParams(**self.SURROGATE)
        with pytest.raises(ValueError, match="symmetry blocks"):
            fading_exponent_trend(params, [1, 2], dim=3, nodes=(16, 33))

    def test_qcb_vanishes_at_zero_return(self):
        params = SystemParams(**self.SURROGATE)
        assert qcb_exponent_at_zero_return(params, 4) < 1e-8

    @pytest.mark.parametrize("dim", [2.5, True, 0])
    def test_zero_return_truncation_must_be_an_integer(self, dim):
        # 2.5 failed in numpy ("expected a sequence of integers")
        with pytest.raises(InvalidParameter, match="^dim: must be an integer"):
            qcb_exponent_at_zero_return(SystemParams(**self.SURROGATE), dim)

    def test_conditional_qcb_nondecreasing_in_amplitude(self):
        params = SystemParams(**self.SURROGATE)
        rho0 = hypothesis_state(params, 0.0, 0.0, 4, out_dim=4,
                                trace_deficit_tol=0.2).renormalized()
        exponents = []
        for amp in np.linspace(0.0, 1.0, 10):
            rho1 = hypothesis_state(params, float(amp) ** 2, 0.4, 4, out_dim=4,
                                    trace_deficit_tol=0.2).renormalized()
            exponents.append(qcb(rho0, rho1).qcb_exponent)
        assert all(b >= a - 1e-10 for a, b in zip(exponents, exponents[1:]))
        assert exponents[0] == pytest.approx(0.0, abs=1e-10)
        assert exponents[-1] > 0.0


class TestDensityMatrixType:
    @pytest.mark.parametrize("field,dim,rank", [("dim", 0, None), ("dim", 2.5, None),
                                                ("rank", 3, 0), ("rank", 3, 1.5)])
    def test_random_state_shape_must_be_positive_integers(self, rng, field, dim, rank):
        # rank=0 gave a NaN state and dim=0 an empty one
        with pytest.raises(InvalidParameter, match=f"^{field}: must be an integer >= 1"):
            random_density_matrix(dim, rng, rank=rank)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4), (3,))

    def test_validate_catches_non_hermitian(self):
        data = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(data, (2,)).validate()

    def test_validate_catches_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]), (2,)).validate()

    def test_validate_catches_trace_error(self):
        DensityMatrix(np.diag([0.5, 0.5 - 9e-7]), (2,)).validate()
        with pytest.raises(ValueError, match="^trace 0.99999 misses 1 by more than 1e-06$"):
            DensityMatrix(np.diag([0.5, 0.49999]), (2,)).validate()

    def test_psd_clamp_tolerates_roundoff(self):
        dm = DensityMatrix(np.diag([1.0, -5e-11]), (2,))
        clamped = dm.psd_clamped()
        assert np.linalg.eigvalsh(clamped.data).min() >= 0.0

    def test_tensor_power_accumulates_deficit(self):
        dm = thermal_state(1.0, 8, trace_deficit_tol=0.01)
        cubed = tensor_power(dm, 3)
        assert cubed.dims == (8, 8, 8)
        expected = 1 - (1 - dm.trace_deficit) ** 3
        assert cubed.trace_deficit == pytest.approx(expected, rel=1e-9)
        assert cubed.trace() == pytest.approx(dm.trace() ** 3, rel=1e-12)

    @pytest.mark.parametrize("m", [0, -1, 1.5, True])
    def test_tensor_power_copy_count_must_be_an_integer(self, m):
        # 0 and -1 failed with "data shape (6, 6) does not match dims ()",
        # 1.5 with a bare TypeError; True ran as one copy
        with pytest.raises(InvalidParameter, match="^m: must be an integer >= 1"):
            tensor_power(thermal_state(0.1, 6), m)

    def test_builders_pass_invariants(self):
        thermal_state(0.4, 20).validate()
        tmsv_state(0.2, 12).validate()
        coherent_thermal_state(0.5 + 0.2j, 0.1, 20).validate()
        params = SystemParams(M=1e4, N_S=0.1, N_B=0.4, kappa_bar=0.1)
        hypothesis_state(params, 0.4, 1.0, 8).validate()
