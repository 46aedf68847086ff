"""Truncated-Fock-space brute-force engine for quantum state discrimination.

Everything here is desk scale by design: states live in an explicitly
truncated Fock space, and one discrimination kernel takes a pair of states as
stacks of Hermitian blocks (a dense pair is one block; the symmetric M-copy
states of the exponent trend are many) and returns the Helstrom error and the
Chernoff exponent, minimized over s by golden-section search. The point is to
cross-validate the closed-form receiver analysis, not to scale; background
brightness around 1 is the practical ceiling (the closed forms under test are
generic in N_B, so surrogate noise levels are representative).

Conventions:
- Single-mode operators are dim x dim in the photon-number basis.
- Two-mode states order the return (or signal) mode first and the idler mode
  second; the joint index is n_return * dim_idler + n_idler.
- Quadratures are q = (a + a^dag)/2, p = (a - a^dag)/(2i), so a vacuum mode
  has variance 1/4 per quadrature and a thermal mode (2*nbar + 1)/4.
- Thermal and displaced-thermal constructors do NOT renormalize: the missing
  tail weight is recorded as a trace deficit. The two-mode squeezed vacuum is
  a normalized ket (so it is exactly pure); its pre-normalization tail weight
  is recorded the same way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# numpy loads these on first use; load them with the package instead
import numpy.polynomial.legendre  # noqa: F401
import numpy.random  # noqa: F401

from ._golden import golden_section_min
from .params import FadingModel, SystemParams, fading_pdf

_HERM_TOL = 1e-12
_EIG_FLOOR = -1e-10
# golden-section tolerance on the Chernoff parameter s
_S_TOL = 1e-6
# per-copy truncation deficit the exponent-trend states may drop before renormalizing
_PER_COPY_DEFICIT_TOL = 0.05
# a concavity trial whose slack is below -_SLACK_TOL counts as a violation
_SLACK_TOL = 1e-9


class TruncationTooSmall(ValueError):
    """The requested truncation drops more weight than the tolerance allows."""

    def __init__(self, message: str, suggested_dim: int = None):
        self.suggested_dim = suggested_dim
        if suggested_dim is not None:
            message = f"{message} (suggested dim: {suggested_dim})"
        super().__init__(message)


class ResourceGuard(RuntimeError):
    """A brute-force computation would exceed the memory budget."""


@dataclass
class DensityMatrix:
    """Hermitian PSD operator on a truncated Fock space, trace close to 1.

    dims gives the per-mode truncation dimensions; data is the
    prod(dims) x prod(dims) complex matrix. trace_deficit records the weight
    lost to truncation (states are not silently renormalized; see module
    docstring).
    """

    data: np.ndarray
    dims: tuple
    trace_deficit: float = 0.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        self.dims = tuple(int(d) for d in self.dims)
        n = int(np.prod(self.dims))
        if self.data.shape != (n, n):
            raise ValueError(f"data shape {self.data.shape} does not match dims {self.dims}")

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    def trace(self) -> float:
        return float(np.trace(self.data).real)

    def renormalized(self) -> "DensityMatrix":
        return DensityMatrix(self.data / self.trace(), self.dims, self.trace_deficit)

    def psd_clamped(self) -> "DensityMatrix":
        """Zero out tiny negative eigenvalues; error on genuinely negative ones."""
        w, v = np.linalg.eigh(self.data)
        if w.min() < _EIG_FLOOR:
            raise ValueError(f"state is not positive semidefinite (min eigenvalue {w.min():g})")
        if w.min() >= 0.0:
            return self
        w = np.clip(w, 0.0, None)
        return DensityMatrix((v * w) @ v.conj().T, self.dims, self.trace_deficit)

    def validate(self, trace_deficit_tol: float = 1e-6) -> None:
        herm = np.abs(self.data - self.data.conj().T).max()
        if herm > _HERM_TOL:
            raise ValueError(f"not Hermitian: max asymmetry {herm:g}")
        w = np.linalg.eigvalsh(self.data)
        if w.min() < _EIG_FLOOR:
            raise ValueError(f"negative eigenvalue {w.min():g} below clamp floor")
        if abs(1.0 - self.trace()) > trace_deficit_tol + 1e-12:
            raise ValueError(f"trace {self.trace():.12g} misses 1 by more than {trace_deficit_tol:g}")


@dataclass(frozen=True)
class DiscriminationReport:
    """Single-copy discrimination summary: exact error and Chernoff quantities."""

    helstrom_error: float
    qcb_exponent: float
    optimal_s: float


@dataclass(frozen=True)
class CovarianceMatrix:
    """4x4 Wigner covariance of the (return, idler) mode pair, plus the
    phase-sensitive cross-correlation scalar c_p = sqrt(kappa*N_S*(N_S+1))."""

    matrix: np.ndarray
    c_p: float


# =============================================================================
# Truncation sizing
# =============================================================================

def dim_for_tail(nbar: float, tail_tol: float) -> int:
    """Smallest dim whose thermal tail weight (nbar/(nbar+1))^dim is <= tail_tol."""
    if nbar <= 0.0:
        return 2
    q = nbar / (nbar + 1.0)
    return max(2, math.ceil(math.log(tail_tol) / math.log(q)))


# =============================================================================
# State constructors
# =============================================================================

def _destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)


def _thermal_weights(nbar: float, dim: int) -> np.ndarray:
    n = np.arange(dim, dtype=float)
    if nbar == 0.0:
        w = np.zeros(dim)
        w[0] = 1.0
        return w
    log_w = n * math.log(nbar) - (n + 1.0) * math.log(nbar + 1.0)
    return np.exp(log_w)


def _thermal_tail(nbar: float, dim: int) -> float:
    if nbar == 0.0:
        return 0.0
    return math.exp(dim * (math.log(nbar) - math.log(nbar + 1.0)))


def thermal_state(nbar: float, dim: int, trace_deficit_tol: float = 1e-6) -> DensityMatrix:
    """Thermal (Bose-Einstein) state, diagonal weights nbar^n/(nbar+1)^(n+1)."""
    if nbar < 0.0:
        raise ValueError("nbar must be >= 0")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    deficit = _thermal_tail(nbar, dim)
    if deficit > trace_deficit_tol:
        raise TruncationTooSmall(
            f"thermal({nbar:g}) at dim {dim} drops {deficit:.3g} > {trace_deficit_tol:g}",
            suggested_dim=dim_for_tail(nbar, trace_deficit_tol),
        )
    return DensityMatrix(np.diag(_thermal_weights(nbar, dim)).astype(complex), (dim,), deficit)


@functools.cache
def _position_eigh(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and real orthogonal eigenvectors of the truncated a + a^dag."""
    a = _destroy(dim)
    lam, vec = np.linalg.eigh(a + a.T)
    lam.flags.writeable = vec.flags.writeable = False
    return lam, vec


def displacement_operator(alpha: complex, dim: int) -> np.ndarray:
    """exp(alpha*a^dag - conj(alpha)*a) on the truncated space (exactly unitary).

    With alpha = r*e^{i*theta} and U = diag(e^{i*n*(theta + pi/2)}), the
    generator is U (-i*r*(a + a^dag)) U^dag, so the exponential is exact in the
    eigenbasis (lam, V) of the truncated position operator a + a^dag:
    U V diag(e^{-i*r*lam}) V^T U^dag.
    """
    lam, vec = _position_eigh(dim)
    u = np.exp(1j * (np.angle(alpha) + 0.5 * math.pi) * np.arange(dim))
    d = (vec * np.exp(-1j * abs(alpha) * lam)) @ vec.T
    return u[:, None] * d * u.conj()


def coherent_thermal_state(alpha: complex, nbar: float, dim: int,
                           trace_deficit_tol: float = 1e-6) -> DensityMatrix:
    """Displaced thermal state D(alpha) rho_th(nbar) D(alpha)^dag.

    nbar = 0 gives the pure coherent state |alpha>. The truncation must hold
    the displaced content with margin: photon-number mean |alpha|^2 + nbar
    and variance |alpha|^2*(2*nbar+1) + nbar*(nbar+1) must sit 8 sigma inside
    dim, since the (unitary) truncated displacement wraps rather than clips.
    """
    amp2 = abs(alpha) ** 2
    mean = amp2 + nbar
    var = amp2 * (2.0 * nbar + 1.0) + nbar * (nbar + 1.0)
    required = math.ceil(mean + 8.0 * math.sqrt(var) + 6.0)
    if dim < required:
        raise TruncationTooSmall(
            f"coherent_thermal(|alpha|^2={amp2:g}, nbar={nbar:g}) needs headroom at dim {dim}",
            suggested_dim=required,
        )
    th = thermal_state(nbar, dim, trace_deficit_tol)
    d_op = displacement_operator(alpha, dim)
    return DensityMatrix(d_op @ th.data @ d_op.conj().T, (dim,), th.trace_deficit)


def tmsv_state(n_s: float, dim: int, trace_deficit_tol: float = 1e-6) -> DensityMatrix:
    """Two-mode squeezed vacuum with per-mode brightness n_s, as a normalized ket.

    Schmidt amplitudes sqrt(n_s^n/(n_s+1)^(n+1)) on |n, n>; the truncated ket
    is renormalized so the state is exactly pure, with the discarded tail
    weight recorded as the trace deficit.
    """
    if n_s < 0.0:
        raise ValueError("n_s must be >= 0")
    deficit = _thermal_tail(n_s, dim)
    if deficit > trace_deficit_tol:
        raise TruncationTooSmall(
            f"tmsv({n_s:g}) at dim {dim} drops {deficit:.3g} > {trace_deficit_tol:g}",
            suggested_dim=dim_for_tail(n_s, trace_deficit_tol),
        )
    amps = np.sqrt(_thermal_weights(n_s, dim))
    psi = np.zeros(dim * dim, dtype=complex)
    psi[np.arange(dim) * dim + np.arange(dim)] = amps
    psi /= np.linalg.norm(psi)
    return DensityMatrix(np.outer(psi, psi.conj()), (dim, dim), deficit)


def partial_trace(dm: DensityMatrix, keep: int) -> DensityMatrix:
    """Marginal of a two-mode state on the kept mode (0 or 1)."""
    d0, d1 = dm.dims
    rho = dm.data.reshape(d0, d1, d0, d1)
    if keep == 0:
        out = np.einsum("ikjk->ij", rho)
        return DensityMatrix(out, (d0,), dm.trace_deficit)
    out = np.einsum("kikj->ij", rho)
    return DensityMatrix(out, (d1,), dm.trace_deficit)


def tensor_power(dm: DensityMatrix, m: int) -> DensityMatrix:
    """m-fold tensor power (copies share no correlations)."""
    out = dm.data
    for _ in range(m - 1):
        out = np.kron(out, dm.data)
    return DensityMatrix(out, dm.dims * m, 1.0 - (1.0 - dm.trace_deficit) ** m)


def rotate_return_phase(dm: DensityMatrix, angle: float) -> DensityMatrix:
    """Apply exp(i*angle*n) to the first (return) mode of a two-mode state."""
    d0, d1 = dm.dims
    phases = np.exp(1j * angle * np.repeat(np.arange(d0), d1))
    data = dm.data * phases[:, None]
    data *= phases.conj()
    return DensityMatrix(data, dm.dims, dm.trace_deficit)


# =============================================================================
# Thermal-loss return channel
# =============================================================================
#
# a_R = sqrt(kappa) e^{i phi} a_S + sqrt(1-kappa) a_B with a_B thermal(n_b_eff)
# is exactly a pure loss of transmissivity eta = kappa/G followed by a
# quantum-limited amplifier of gain G = 1 + (1-kappa)*n_b_eff (Caruso,
# Giovannetti & Holevo, New J. Phys. 8, 310 (2006)), then the phase. Both
# steps have binomial Kraus operators that shift the photon number by j
# (Ivan, Sabapathy & Simon, PRA 84, 042311 (2011)): pure loss takes |k + j>
# to |k> with weight C(k + j, j) eta^k (1-eta)^j, the amplifier takes |k> to
# |k + j> with weight C(k + j, j) G^-(k+1) (1-1/G)^j. No environment is built.

# the default output holds the beam splitter's d_sig - 1 signal photons plus
# the environment's up to its 1e-12 thermal tail; wider raises TruncationTooSmall
_ENV_TAIL_TOL = 1e-12
_MAX_OUT_DIM = 256


@functools.cache
def _log_factorial_table(size: int) -> np.ndarray:
    # math.lgamma(3.0) is 3 ulp from ln 2, so take the log of n! itself while
    # n! is exact in a double (n <= 22); beyond that lgamma is within 2 ulp
    # (checked against 40-digit ln n! for n < 2000)
    table = np.array([math.log(math.factorial(n)) if n <= 22 else math.lgamma(n + 1.0)
                      for n in range(size)])
    table.flags.writeable = False
    return table


def _log_factorials(size: int) -> np.ndarray:
    """ln n! for n < size (at least), each within 2 ulp of the exact value.
    Tables are built at power-of-two sizes and reused, so there are few."""
    return _log_factorial_table(1 << max(size - 1, 1).bit_length())


def _binomial_shift(rho: np.ndarray, d_out: int, p: float, q: float, up: bool) -> np.ndarray:
    """sum_j K_j rho K_j^dag on the first mode of rho, shaped (d, i, d, i), cut
    to d_out levels. K_j takes |k> to |k + j> (up) or |k + j> to |k> (down)
    with weight C(k + j, j) p^k q^j, the binomial from one log-factorial table."""
    d_in, d_idl = rho.shape[:2]
    lf = _log_factorials(d_in + d_out)
    out = np.zeros((d_out, d_idl, d_out, d_idl), dtype=complex)
    for j in range(d_out if up else d_in):
        k = np.arange(min(d_in, d_out - j) if up else min(d_in - j, d_out))
        o, i = (j, 0) if up else (0, j)
        a = np.sqrt(np.exp(lf[k + j] - lf[j] - lf[k]) * p ** k * q ** j)
        out[o:o + k.size, :, o:o + k.size, :] += (
            (a[:, None] * a)[:, None, :, None] * rho[i:i + k.size, :, i:i + k.size, :])
    return out


def apply_return_channel(state: DensityMatrix, kappa: float, phi: float, n_b_eff: float,
                         out_dim: int = None, trace_deficit_tol: float = 1e-6) -> DensityMatrix:
    """Mix the signal mode of a two-mode state with a thermal environment.

    The signal mode passes a transmissivity-kappa beam splitter with phase phi
    against a thermal mode of brightness n_b_eff (the caller picks n_b_eff per
    hypothesis: N_B for target absent, N_B/(1-kappa) for target present); the
    environment is traced out and the idler is untouched. out_dim truncates
    the returned mode; by default it holds every level the beam splitter
    populates above the environment's 1e-12 thermal tail. kappa = 0 returns
    thermal(n_b_eff) (x) idler-marginal.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    if state.n_modes != 2:
        raise ValueError("expected a two-mode (signal, idler) state")
    d_sig, d_idl = state.dims

    if kappa == 1.0:
        out = rotate_return_phase(state, phi)
        if out_dim is not None and out_dim < d_sig:
            raise TruncationTooSmall("lossless return cannot be truncated below the signal dim",
                                     suggested_dim=d_sig)
        return out

    if not n_b_eff >= 0.0 or not math.isfinite(n_b_eff):
        raise ValueError("n_b_eff must be finite and >= 0")
    full_out = d_sig + dim_for_tail(n_b_eff, _ENV_TAIL_TOL) - 1
    d_out = full_out if out_dim is None else int(out_dim)
    if d_out < 1:
        raise ValueError("out_dim must be >= 1")
    if d_out > _MAX_OUT_DIM:
        raise TruncationTooSmall(
            f"output mode dim {d_out} exceeds the cap {_MAX_OUT_DIM}; pass out_dim explicitly",
            suggested_dim=_MAX_OUT_DIM,
        )

    gain_excess = (1.0 - kappa) * n_b_eff
    gain = 1.0 + gain_excess
    rho = state.data.reshape(d_sig, d_idl, d_sig, d_idl)
    # loss eta = kappa/G, then the amplifier's weights without their common 1/G
    lost = _binomial_shift(rho, d_sig, kappa / gain, (1.0 - kappa + gain_excess) / gain,
                           up=False)
    amplified = _binomial_shift(lost, d_out, 1.0 / gain, gain_excess / gain, up=True)
    result = rotate_return_phase(
        DensityMatrix(amplified.reshape(d_out * d_idl, d_out * d_idl), (d_out, d_idl)), phi)
    out = result.data
    out += out.conj().T
    out *= 0.5 / gain
    deficit = 1.0 - result.trace()
    result.trace_deficit = deficit
    if deficit > trace_deficit_tol:
        raise TruncationTooSmall(
            f"return channel output drops {deficit:.3g} > {trace_deficit_tol:g} "
            f"(out_dim {d_out})",
            suggested_dim=full_out,
        )
    return result


def hypothesis_state(params: SystemParams, kappa: float, phi: float, dim: int,
                     present: bool, out_dim: int = None,
                     trace_deficit_tol: float = 1e-6) -> DensityMatrix:
    """Conditional (return, idler) state of one mode pair given the fading draw.

    Target absent ignores (kappa, phi); target present uses the convention
    that the background reaching the receiver carries brightness N_B
    regardless of kappa, i.e. the environment mode is thermal(N_B/(1-kappa)).
    """
    tmsv = tmsv_state(params.N_S, dim, trace_deficit_tol)
    if not present:
        return apply_return_channel(tmsv, 0.0, 0.0, params.N_B, out_dim=out_dim,
                                    trace_deficit_tol=trace_deficit_tol)
    n_b_eff = params.N_B if kappa == 1.0 else params.N_B / (1.0 - kappa)
    return apply_return_channel(tmsv, kappa, phi, n_b_eff, out_dim=out_dim,
                                trace_deficit_tol=trace_deficit_tol)


# =============================================================================
# Fading average (the unconditional states)
# =============================================================================

def _amplitude_rule(model: FadingModel, nodes) -> tuple[np.ndarray, np.ndarray, int]:
    """(amplitudes, amplitude weights, phase node count) for a random fading model.

    nodes is n or (n_amp, n_phase). Amplitudes are Gauss-Legendre nodes on
    [0, 1] with the fading pdf folded into the weights.
    """
    if isinstance(nodes, int):
        n_amp = n_phase = nodes
    else:
        n_amp, n_phase = nodes
    if n_amp < 8 or n_phase < 8:
        raise ValueError("need at least 8 quadrature nodes per dimension")
    xs, ws = np.polynomial.legendre.leggauss(n_amp)
    amps = 0.5 * (xs + 1.0)
    amp_w = 0.5 * ws * np.array([fading_pdf(model, a) for a in amps])
    return amps, amp_w, n_phase


def fading_average(state_builder, model: FadingModel, quadrature_nodes) -> DensityMatrix:
    """Average the conditional states over a random fading model.

    state_builder(amplitude) returns the conditional state at return phase 0,
    return mode first. Amplitudes take the Gauss-Legendre rule on [0, 1] with
    the fading pdf folded into the weights. The phase acts as
    R(phi) = exp(i phi n) on the first mode, so the uniform P-node phase grid
    (the trapezoid rule) averages R rho R^dag to exactly the mask keeping the
    elements whose first-mode photon numbers agree mod P.

    Returns the renormalized (trace-1) unconditional state; the
    pre-renormalization trace shortfall (quadrature mass outside [0, 1] plus
    per-node truncation deficits) is recorded as the trace deficit.
    """
    if not model.is_random:
        raise ValueError("quadrature over a deterministic fading model")
    amps, amp_w, n_phase = _amplitude_rule(model, quadrature_nodes)
    data, dims = 0.0, None
    for amp, w in zip(amps, amp_w):
        dm = state_builder(amp)
        if dims is None:
            dims = dm.dims
        elif dm.dims != dims:
            raise ValueError("state_builder returned inconsistent dimensions")
        data = data + w * dm.data
    n = np.arange(len(data)) // (len(data) // dims[0])
    data = np.where((n[:, None] - n[None, :]) % n_phase == 0, data, 0.0)
    raw_trace = float(np.trace(data).real)
    return DensityMatrix(data / raw_trace, dims, abs(1.0 - raw_trace))


# =============================================================================
# Discrimination
# =============================================================================

def helstrom(rho0: DensityMatrix, rho1: DensityMatrix, pi0: float) -> float:
    """Minimum error probability (1 - ||pi1*rho1 - pi0*rho0||_1)/2."""
    if rho0.data.shape != rho1.data.shape:
        raise ValueError("states must share a dimension")
    w = np.linalg.eigvalsh((1.0 - pi0) * rho1.data - pi0 * rho0.data)
    return float(_helstrom_from_norm(np.abs(w).sum(), pi0))


def _helstrom_from_norm(trace_norm, pi0: float):
    """(1 - ||pi1*rho1 - pi0*rho0||_1)/2, clipped to [0, min(pi0, pi1)];
    elementwise over an array of trace norms."""
    if not 0.0 <= pi0 <= 1.0:
        raise ValueError("pi0 must lie in [0, 1]")
    return np.clip(0.5 * (1.0 - trace_norm), 0.0, min(pi0, 1.0 - pi0))


def _rank_cut(w: np.ndarray, size: int) -> np.ndarray:
    """Eigenvalues of a state with the PSD floor checked and roundoff zeroed.

    size is the dimension of the whole space. Eigenvalues below
    max * size * eps are exact zeros, otherwise w^s injects ~sqrt(eps)
    garbage at small s.
    """
    if w.min() < _EIG_FLOOR:
        raise ValueError(f"state not PSD after clamping (min eigenvalue {w.min():g})")
    return np.where(w < w.max() * size * np.finfo(float).eps, 0.0, np.clip(w, 0.0, None))


def _chernoff_minimum(q_s) -> tuple[float, float]:
    """(optimal s, exponent -ln min_s q(s)) by golden-section search on [0, 1]
    plus the two endpoints."""
    s_opt, q_min = golden_section_min(q_s, 0.0, 1.0, tol=_S_TOL)
    for s_end in (0.0, 1.0):
        q_end = q_s(s_end)
        if q_end < q_min:
            s_opt, q_min = s_end, q_end
    exponent = math.inf if q_min <= 0.0 else max(0.0, -math.log(q_min))
    return float(s_opt), exponent


def _discriminate(b0s: list, b1s: list, pi0: float, size: int) -> tuple[float, float, float]:
    """(Helstrom error, optimal s, Chernoff exponent) of two block-diagonal
    states on a space of dimension size.

    b0s[g] and b1s[g] are same-shaped (blocks, n, n) stacks holding the two
    states' blocks of the g-th block size; a dense pair is one block. Per
    block size this takes one eigvalsh of pi1*B1 - pi0*B0 for Helstrom and
    one eigh per state for Chernoff, whose overlaps are |V0^dag V1|^2. The
    numerical-rank cutoff runs over the whole space, and
    tr(rho0^s rho1^(1-s)) is one sum over the (eigenvector, eigenvector)
    pairs of every block where both eigenvalues are nonzero, minimized by
    golden-section search on s in [0, 1] (it is log-convex in s).
    """
    trace_norm = 0.0
    w0s, w1s, overlaps = [], [], []
    for b0, b1 in zip(b0s, b1s):
        trace_norm += np.abs(np.linalg.eigvalsh((1.0 - pi0) * b1 - pi0 * b0)).sum()
        (w0, v0), (w1, v1) = np.linalg.eigh(b0), np.linalg.eigh(b1)
        w0s.append(w0)
        w1s.append(w1)
        overlaps.append(np.abs(v0.conj().swapaxes(1, 2) @ v1) ** 2)
    pr_e = float(_helstrom_from_norm(trace_norm, pi0))
    cuts = np.cumsum([w.size for w in w0s])[:-1]
    w0s = np.split(_rank_cut(np.concatenate([w.ravel() for w in w0s]), size), cuts)
    w1s = np.split(_rank_cut(np.concatenate([w.ravel() for w in w1s]), size), cuts)
    log0, log1, weight = [], [], []
    for w0, w1, overlap in zip(w0s, w1s, overlaps):
        shape = overlap.shape[:2]
        p0, p1, overlap = np.broadcast_arrays(w0.reshape(shape)[:, :, None],
                                              w1.reshape(shape)[:, None, :], overlap)
        live = (p0 > 0.0) & (p1 > 0.0)  # 0^s := 0 on [0, 1] (support convention)
        log0.append(np.log(p0[live]))
        log1.append(np.log(p1[live]))
        weight.append(overlap[live])
    log0, log1, weight = (np.concatenate(x) for x in (log0, log1, weight))

    def q_s(s: float) -> float:
        return float(np.exp(s * log0 + (1.0 - s) * log1) @ weight)

    s_opt, exponent = _chernoff_minimum(q_s)
    return pr_e, s_opt, exponent


def qcb(rho0: DensityMatrix, rho1: DensityMatrix, pi0: float = 0.5) -> DiscriminationReport:
    """Quantum Chernoff bound report: Q = min_s tr(rho0^s rho1^(1-s)).

    Both states should be (re)normalized. The pair is solved as one dense
    block by _discriminate, the kernel of the blocked M-copy trend;
    helstrom_error is evaluated at the given priors. optimal_s is unique only
    when the minimum is strict: for two pure states tr(rho0^s rho1^(1-s)) is
    |<psi0|psi1>|^2 at every s in (0, 1), so any such s is optimal.
    """
    if rho0.data.shape != rho1.data.shape:
        raise ValueError("states must share a dimension")
    pr_e, s_opt, exponent = _discriminate([rho0.data[None]], [rho1.data[None]], pi0,
                                          rho0.dim)
    return DiscriminationReport(helstrom_error=pr_e, qcb_exponent=exponent, optimal_s=s_opt)


def _ginibre(rng: np.random.Generator, shape: tuple, dim: int, rank: int = None) -> np.ndarray:
    """Trace-one Ginibre random states of shape (*shape, dim, dim), drawn in
    C order one state at a time: each state's real, then imaginary parts."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((*shape, 2, dim, rank))
    g = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int = None) -> DensityMatrix:
    """Haar-generic (Ginibre) random state of the given dimension."""
    return DensityMatrix(_ginibre(rng, (), dim, rank), (dim,))


# =============================================================================
# Structural property checks
# =============================================================================

@dataclass(frozen=True)
class ConcavityReport:
    """Outcome of randomized trials of mixing-never-helps for the Helstrom error:
    helstrom(sum_i f_i*rho0_i, sum_i f_i*rho1_i) >= sum_i f_i*helstrom(rho0_i, rho1_i)."""

    trials: int
    dim: int
    mixture_size: int
    min_slack: float
    violations: int


def check_helstrom_concavity(trials: int, dim: int, mixture_size: int,
                             seed: int) -> ConcavityReport:
    """Randomized numeric check that averaging states cannot decrease the
    minimum discrimination error at equal priors. Reports the worst slack seen.

    Each trial draws its mixture weights, then its mixture_size Ginibre
    (rho0, rho1) pairs; the trials x (mixture_size + 1) Helstrom problems
    (every pair plus the mixed pair) are solved by one batched eigvalsh.
    """
    rng = np.random.default_rng(seed)
    f = np.empty((trials, mixture_size))
    pairs = np.empty((trials, mixture_size + 1, 2, dim, dim), dtype=complex)
    for t in range(trials):
        f[t] = rng.dirichlet(np.ones(mixture_size))
        pairs[t, :-1] = _ginibre(rng, (mixture_size, 2), dim)
    # both mixtures are summed one component at a time, in order, so every
    # trial rounds exactly as a scalar sum over its components would
    mixed = 0.0
    for i in range(mixture_size):
        mixed = mixed + f[:, i, None, None, None] * pairs[:, i]
    pairs[:, -1] = mixed
    w = np.linalg.eigvalsh(0.5 * pairs[:, :, 1] - 0.5 * pairs[:, :, 0])
    pr_e = _helstrom_from_norm(np.abs(w).sum(axis=-1), 0.5)
    averaged = 0.0
    for i in range(mixture_size):
        averaged = averaged + f[:, i] * pr_e[:, i]
    slack = pr_e[:, -1] - averaged
    return ConcavityReport(trials=trials, dim=dim, mixture_size=mixture_size,
                           min_slack=float(slack.min(initial=math.inf)),
                           violations=int((slack < -_SLACK_TOL).sum()))


@dataclass(frozen=True)
class TrendPoint:
    """Per-copy exponent estimates for M-copy discrimination.

    helstrom_exponent = -ln(Pr_e)/M carries a 1/M prefactor transient on top
    of the asymptotic rate, so it overshoots at small M for any state pair;
    chernoff_exponent = -ln(min_s tr(rho0^s rho1^(1-s)))/M is the clean rate
    diagnostic (exactly M-independent for product states). blocks and
    largest_block describe the block-diagonal M-copy states that were solved.
    """

    copies: int
    helstrom_exponent: float
    chernoff_exponent: float
    blocks: int = 0
    largest_block: int = 0


def _copy_labels(dim: int, m: int, n_phase) -> np.ndarray:
    """Block label of each basis state of m (return, idler) copies, in
    tensor-power order: every copy's n_R - n_I, plus the total n_R mod n_phase
    unless n_phase is None."""
    n_ret = np.repeat(np.arange(dim), dim)
    diff = n_ret - np.tile(np.arange(dim), dim) + dim - 1
    label = np.zeros(1, dtype=np.int64)
    total = np.zeros(1, dtype=np.int64)
    for _ in range(m):
        label = (label[:, None] * (2 * dim - 1) + diff).reshape(-1)
        total = (total[:, None] + n_ret).reshape(-1)
    if n_phase is None:
        return label
    return label * n_phase + total % n_phase


def _block_pairs(dim: int, m: int, n_phase) -> float:
    """Sum of squared block sizes of m copies, without listing the basis: the
    number of (row, col) pairs whose labels agree, built copy by copy from
    each copy's n_R shift mod n_phase."""
    diff = _copy_labels(dim, 1, None)
    same = diff[:, None] == diff[None, :]
    if n_phase is None:
        return float(same.sum()) ** m
    n_ret = np.repeat(np.arange(dim), dim)
    shift = (n_ret[:, None] - n_ret[None, :])[same] % n_phase
    per_copy = np.bincount(shift, minlength=n_phase).astype(float)
    pairs = np.zeros(n_phase)
    pairs[0] = 1.0
    back = np.arange(n_phase)
    for _ in range(m):
        pairs = np.array([pairs @ per_copy[(t - back) % n_phase] for t in range(n_phase)])
    return float(pairs[0])


def _block_bytes(dim: int, m: int, n_phase) -> float:
    """Memory the blocked m-copy solve allocates, as measured with tracemalloc:
    about 256 bytes per basis state (int64 labels, their sort and the per-copy
    indices) and 56 per block element (both states' blocks, the overlaps
    |V0^dag V1|^2 and the Chernoff terms). Blocks are accumulated one
    amplitude node at a time, so the node count does not enter."""
    return 256.0 * dim ** (2 * m) + 56.0 * _block_pairs(dim, m, n_phase)


def _check_symmetry(data: np.ndarray, label: np.ndarray) -> None:
    """Raise unless data couples only basis states with equal labels."""
    if np.any(data[label[:, None] != label[None, :]]):
        raise ValueError("per-copy state has weight outside its symmetry blocks; "
                         "the blocked M-copy solve does not apply")


def _block_groups(labels: np.ndarray) -> list:
    """Basis indices of every block, one (blocks, n) array per block size n,
    in increasing n; indices ascend within a block."""
    order = np.argsort(labels, kind="stable")
    _, starts, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    return [order[starts[sizes == n][:, None] + np.arange(n)]
            for n in np.flatnonzero(np.bincount(sizes))]


def fading_exponent_trend(params: SystemParams, m_list, dim: int, nodes,
                          model: FadingModel = None) -> list:
    """Per-copy error-probability exponent estimates for M-copy discrimination
    of the unconditional (fading-averaged) hypothesis states, at equal priors.

    The fading draw is shared across all M copies, so the M-copy average is
    taken of the tensor powers (not the tensor power of the average). Under a
    random fading model the estimates decrease with M, the desk-scale
    signature of the subexponential regime; a deterministic model is the
    constant-rate contrast case (see TrendPoint).

    Amplitude nodes are Gauss-Legendre on [0, 1] against the fading pdf. A
    uniform P-node phase grid acts on the same-draw tensor power as a
    dephasing mask keeping only elements whose total return photon numbers
    agree mod P; this is exactly the trapezoid rule.

    The M-copy states are never formed densely. Both hypotheses keep the U(1)
    symmetry of a two-mode squeezed vacuum under a phase-insensitive channel:
    every per-copy state couples only basis states with equal n_R - n_I
    (checked; anything else raises ValueError) and rho0 is diagonal. So the
    M-copy rho1 is block-diagonal, with blocks labelled by every copy's
    n_R - n_I and, under random fading, the total n_R mod P. Each block is
    assembled from the per-copy states (rho0's the same way: they come out
    diagonal) and solved on its own by the kernel qcb uses; the
    numerical-rank cutoff still runs over the whole space.

    Runs at surrogate (small N_S, N_B, dim) scale only; the blocks must fit
    in 2 GiB (else ResourceGuard). Per-copy truncated states may drop 5% of
    their weight to truncation and are renormalized first.
    """
    m_list = sorted(int(m) for m in m_list)
    if m_list[0] < 1:
        raise ValueError("copy counts must be >= 1")
    if model is None:
        model = FadingModel.truncated_rayleigh(params.kappa_bar)
    if model.is_random:
        amps, amp_weights, n_phase = _amplitude_rule(model, nodes)
    else:
        amp_weights, n_phase = np.array([1.0]), None
    worst = _block_bytes(dim, m_list[-1], n_phase)
    if worst > 2 << 30:
        raise ResourceGuard(
            f"M={m_list[-1]} copies of a two-mode dim-{dim} state need {worst/2**30:.1f} GiB"
        )

    def conditional(kappa: float) -> DensityMatrix:
        return hypothesis_state(params, kappa, 0.0, dim, present=True, out_dim=dim,
                                trace_deficit_tol=_PER_COPY_DEFICIT_TOL).renormalized()

    rho0 = hypothesis_state(params, 0.0, 0.0, dim, present=False, out_dim=dim,
                            trace_deficit_tol=_PER_COPY_DEFICIT_TOL).renormalized()
    if model.is_random:
        conditionals = [conditional(a * a) for a in amps]
    else:
        conditionals = [rotate_return_phase(conditional(model.kappa), model.phi)]
    _check_symmetry(rho0.data, np.arange(dim * dim))
    per_copy = _copy_labels(dim, 1, None)
    for cond in conditionals:
        _check_symmetry(cond.data, per_copy)
    d2 = dim * dim

    results = []
    for m in m_list:
        labels = _copy_labels(dim, m, n_phase)
        groups = _block_groups(labels)
        b0s, b1s = [], []
        for idx in groups:
            # each copy's (row, col) entry for every element of the blocks
            digits = [idx // d2 ** (m - 1 - i) % d2 for i in range(m)]
            entries = [dg[:, :, None] * d2 + dg[:, None, :] for dg in digits]
            for blocks, weights, states in ((b0s, [1.0], [rho0]),
                                            (b1s, amp_weights, conditionals)):
                acc = np.zeros(entries[0].shape, dtype=complex)
                for w, state in zip(weights, states):
                    flat = state.data.ravel()
                    blk = flat[entries[0]]
                    for entry in entries[1:]:
                        blk *= flat[entry]
                    acc += w * blk
                blocks.append(acc)
        trace = sum(np.trace(b1, axis1=1, axis2=2).real.sum() for b1 in b1s)
        for b1 in b1s:
            b1 /= trace
        pr_e, _, exponent = _discriminate(b0s, b1s, 0.5, labels.size)
        results.append(TrendPoint(copies=m, helstrom_exponent=-math.log(pr_e) / m,
                                  chernoff_exponent=exponent / m,
                                  blocks=sum(len(idx) for idx in groups),
                                  largest_block=groups[-1].shape[1]))
    return results


def qcb_exponent_at_zero_return(params: SystemParams, dim: int) -> float:
    """Chernoff exponent of the conditional hypothesis pair at vanishing return
    amplitude; the two states coincide there, so the exponent is ~0."""
    rho0 = hypothesis_state(params, 0.0, 0.0, dim, present=False, out_dim=dim,
                            trace_deficit_tol=_PER_COPY_DEFICIT_TOL).renormalized()
    rho1 = hypothesis_state(params, 0.0, 0.0, dim, present=True, out_dim=dim,
                            trace_deficit_tol=_PER_COPY_DEFICIT_TOL).renormalized()
    return qcb(rho0, rho1).qcb_exponent


# =============================================================================
# Wigner covariance
# =============================================================================

def return_idler_covariance(n_s: float, n_b: float, kappa: float, phi: float,
                            present: bool, exact_return_noise: bool = True) -> CovarianceMatrix:
    """Wigner covariance of the (return, idler) pair for one hypothesis.

    Quadrature order (q_R, p_R, q_I, p_I). Diagonal blocks are multiples of
    the identity; target presence adds the off-diagonal block
    (c_p/2) * [[cos phi, sin phi], [sin phi, -cos phi]] with
    c_p = sqrt(kappa*N_S*(N_S+1)). With exact_return_noise the return block
    carries brightness kappa*N_S + N_B (the background-brightness convention
    keeps the noise floor at N_B for every kappa); without it the kappa*N_S
    leak-through is dropped, the N_S << 1 << N_B limiting form.
    """
    cov = np.zeros((4, 4))
    c_p = math.sqrt(kappa * n_s * (n_s + 1.0))
    if present:
        n_ret = kappa * n_s + n_b if exact_return_noise else n_b
    else:
        n_ret = n_b
    cov[0, 0] = cov[1, 1] = (2.0 * n_ret + 1.0) / 4.0
    cov[2, 2] = cov[3, 3] = (2.0 * n_s + 1.0) / 4.0
    if present:
        r_h = np.array([[math.cos(phi), math.sin(phi)],
                        [math.sin(phi), -math.cos(phi)]])
        cov[0:2, 2:4] = 0.5 * c_p * r_h
        cov[2:4, 0:2] = cov[0:2, 2:4].T
    return CovarianceMatrix(matrix=cov, c_p=c_p if present else 0.0)


def wigner_covariance(dm: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """First moments and symmetrized quadrature covariance of a two-mode state.

    Returns (means, cov) over (q_0, p_0, q_1, p_1) with q = (a + a^dag)/2.
    Same-mode moments come from the single-mode marginals; the cross block,
    whose quadratures commute, is one contraction with the joint state.
    """
    d0, d1 = dm.dims
    quads, means, cov = [], [], np.zeros((4, 4))
    for mode, d in enumerate((d0, d1)):
        a = _destroy(d)
        q = np.stack([0.5 * (a + a.conj().T), (a - a.conj().T) / 2j])
        rho = partial_trace(dm, mode).data
        means.extend(np.einsum("aij,ji->a", q, rho).real)
        sym = 0.5 * (q[:, None] @ q[None, :] + q[None, :] @ q[:, None])
        cov[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2] = np.einsum("abij,ji->ab", sym, rho).real
        quads.append(q)
    cross = np.einsum("aji,blk,ikjl->ab", quads[0], quads[1],
                      dm.data.reshape(d0, d1, d0, d1)).real
    cov[:2, 2:] = cross
    cov[2:, :2] = cross.T
    means = np.array(means)
    return means, cov - np.outer(means, means)
