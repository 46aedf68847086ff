"""Truncated-Fock-space brute-force engine for quantum state discrimination.

Everything here is desk scale by design: states live in an explicitly
truncated Fock space, and one discrimination kernel takes a pair of states as
stacks of Hermitian blocks (a dense pair is one block; the symmetric M-copy
states of the exponent trend are many) and returns the Helstrom error and the
Chernoff exponent, minimized over s by golden-section search. The point is to
cross-validate the closed-form receiver analysis, not to scale; background
brightness around 1 is the practical ceiling. The closed forms are high-N_B
asymptotics: CI lies under the exact classical optimum by 1.6% at N_B = 20 and
by 26% at N_B = 1, so surrogate noise levels do not represent their values.

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
import numbers
from dataclasses import dataclass

import numpy as np
# numpy loads these on first use; load them with the package instead
import numpy.polynomial.legendre  # noqa: F401
import numpy.random  # noqa: F401

from ._golden import golden_section_min
from .params import (InvalidParameter, SystemParams, _require_integer, _require_nonnegative,
                     fading_pdf)

_HERM_TOL = 1e-12
_EIG_FLOOR = -1e-10
# golden-section tolerance on the Chernoff parameter s
_S_TOL = 1e-6
# per-copy truncation deficit the exponent-trend states may drop before renormalizing
_PER_COPY_DEFICIT_TOL = 0.05


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

    def validate(self) -> None:
        herm = np.abs(self.data - self.data.conj().T).max()
        if herm > _HERM_TOL:
            raise ValueError(f"not Hermitian: max asymmetry {herm:g}")
        w = np.linalg.eigvalsh(self.data)
        if w.min() < _EIG_FLOOR:
            raise ValueError(f"negative eigenvalue {w.min():g} below clamp floor")
        if abs(1.0 - self.trace()) > 1e-6 + 1e-12:
            raise ValueError(f"trace {self.trace():.12g} misses 1 by more than 1e-06")


@dataclass(frozen=True)
class DiscriminationReport:
    """Single-copy discrimination summary: exact error and Chernoff quantities."""

    helstrom_error: float
    qcb_exponent: float
    optimal_s: float


# =============================================================================
# Truncation sizing
# =============================================================================

def dim_for_tail(nbar: float, tail_tol: float) -> int:
    """Smallest dim whose thermal tail weight (nbar/(nbar+1))^dim is <= tail_tol;
    nbar must be finite and >= 0, tail_tol finite and > 0."""
    _require_nonnegative("nbar", nbar)
    if not 0.0 < tail_tol < math.inf:
        raise InvalidParameter("tail_tol", f"must be finite and > 0, got {tail_tol}")
    if nbar == 0.0:
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


def _thermal_tail(name: str, nbar: float, dim: int, trace_deficit_tol: float) -> float:
    """Weight (nbar/(nbar+1))^dim that dim levels of a thermal distribution drop,
    for a brightness (called name) that must be finite and >= 0."""
    _require_nonnegative(name, nbar)
    _require_nonnegative("trace_deficit_tol", trace_deficit_tol)
    deficit = 0.0 if nbar == 0.0 else math.exp(dim * (math.log(nbar) - math.log(nbar + 1.0)))
    if deficit > trace_deficit_tol:
        raise TruncationTooSmall(
            f"{name}={nbar:g} at dim {dim} drops {deficit:.3g} > {trace_deficit_tol:g}",
            suggested_dim=dim_for_tail(nbar, trace_deficit_tol) if trace_deficit_tol else None,
        )
    return deficit


def thermal_state(nbar: float, dim: int, trace_deficit_tol: float = 1e-6) -> DensityMatrix:
    """Thermal (Bose-Einstein) state, diagonal weights nbar^n/(nbar+1)^(n+1)."""
    _require_integer("dim", dim, 2)
    deficit = _thermal_tail("nbar", nbar, dim, trace_deficit_tol)
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


def coherent_thermal_state(alpha: complex, nbar: float, dim: int) -> DensityMatrix:
    """Displaced thermal state D(alpha) rho_th(nbar) D(alpha)^dag.

    nbar = 0 gives the pure coherent state |alpha>. The truncation must hold
    the displaced content with margin: photon-number mean |alpha|^2 + nbar
    and variance |alpha|^2*(2*nbar+1) + nbar*(nbar+1) must sit 8 sigma inside
    dim, since the (unitary) truncated displacement wraps rather than clips.
    """
    if not np.isfinite(alpha):
        raise InvalidParameter("alpha", "must be finite")
    _require_nonnegative("nbar", nbar)
    amp2 = abs(alpha) * abs(alpha)  # inf, not OverflowError, past 1e154
    mean = amp2 + nbar
    var = amp2 * (2.0 * nbar + 1.0) + nbar * (nbar + 1.0)
    required = mean + 8.0 * math.sqrt(var) + 6.0
    if dim < required:
        raise TruncationTooSmall(
            f"coherent_thermal(|alpha|^2={amp2:g}, nbar={nbar:g}) needs headroom at dim {dim}",
            suggested_dim=math.ceil(required) if required < math.inf else None,
        )
    th = thermal_state(nbar, dim)
    d_op = displacement_operator(alpha, dim)
    return DensityMatrix(d_op @ th.data @ d_op.conj().T, (dim,), th.trace_deficit)


def tmsv_state(n_s: float, dim: int, trace_deficit_tol: float = 1e-6) -> DensityMatrix:
    """Two-mode squeezed vacuum with per-mode brightness n_s, as a normalized ket.

    Schmidt amplitudes sqrt(n_s^n/(n_s+1)^(n+1)) on |n, n>; the truncated ket
    is renormalized so the state is exactly pure, with the discarded tail
    weight recorded as the trace deficit.
    """
    _require_integer("dim", dim, 1)
    deficit = _thermal_tail("n_s", n_s, dim, trace_deficit_tol)
    amps = np.sqrt(_thermal_weights(n_s, dim))
    psi = np.zeros(dim * dim, dtype=complex)
    psi[np.arange(dim) * dim + np.arange(dim)] = amps
    psi /= np.linalg.norm(psi)
    return DensityMatrix(np.outer(psi, psi.conj()), (dim, dim), deficit)


def partial_trace(dm: DensityMatrix, keep: int) -> DensityMatrix:
    """Marginal of a two-mode state on the kept mode (0 or 1)."""
    if keep not in (0, 1):
        raise InvalidParameter("keep", f"must be 0 or 1, got {keep!r}")
    d0, d1 = dm.dims
    out = np.einsum("ikjk->ij" if keep == 0 else "kikj->ij", dm.data.reshape(d0, d1, d0, d1))
    return DensityMatrix(out, (d0 if keep == 0 else d1,), dm.trace_deficit)


def tensor_power(dm: DensityMatrix, m: int) -> DensityMatrix:
    """m-fold tensor power (copies share no correlations), m an integer >= 1."""
    _require_integer("m", m, 1)
    out = dm.data
    for _ in range(m - 1):
        out = np.kron(out, dm.data)
    return DensityMatrix(out, dm.dims * m, 1.0 - (1.0 - dm.trace_deficit) ** m)


# =============================================================================
# Thermal-loss return channel
# =============================================================================
#
# The return carries the background n_b at every kappa: a pure loss of
# transmissivity eta = kappa/G, a quantum-limited amplifier of gain G = 1 + n_b,
# then the phase. Below kappa = 1 that is exactly the beam splitter
# a_R = sqrt(kappa) e^{i phi} a_S + sqrt(1-kappa) a_B with a_B thermal(n_b/(1-kappa))
# (Caruso, Giovannetti & Holevo, New J. Phys. 8, 310 (2006)). Both
# steps have binomial Kraus operators that shift the photon number by j
# (Ivan, Sabapathy & Simon, PRA 84, 042311 (2011)): pure loss takes |k + j>
# to |k> with weight C(k + j, j) eta^k (1-eta)^j, the amplifier takes |k> to
# |k + j> with weight C(k + j, j) G^-(k+1) (1-1/G)^j. No environment is built.
# Each shifts bra and ket by the same j, so the channel keeps every diagonal
# delta = n - n': there it is a real matrix (amplifier times loss) times e^{i phi delta}/G.

# the default output holds the output photon number up to its 1e-12 tail;
# wider raises TruncationTooSmall
_ENV_TAIL_TOL = 1e-12
_MAX_OUT_DIM = 256


def _default_out_dim(d_sig: int, kappa: float, n_b: float) -> int:
    """d_sig - 1 signal photons plus the smaller 1e-12 tail quantile of two bounds on
    the photons added: the thermal environment of a beam splitter, of brightness
    n_b/(1 - kappa) (none at kappa = 1), or the NegBin(d_sig, 1/G) an amplifier
    of gain G = 1 + n_b adds to the at most d_sig - 1 the loss leaves."""
    gain = 1.0 + n_b
    j = np.arange(max(_MAX_OUT_DIM - d_sig, 0) + 1)  # photons added, up to the cap
    lf = _log_factorials(d_sig + j.size)
    added = np.exp(lf[d_sig - 1 + j] - lf[j] - lf[d_sig - 1]) * (1.0 - 1.0 / gain) ** j
    env = (d_sig + dim_for_tail(n_b / (1.0 - kappa), _ENV_TAIL_TOL) - 1 if kappa < 1.0
           else math.inf)
    return min(env, d_sig + int(
        np.count_nonzero(1.0 - np.cumsum(added * gain ** -d_sig) > _ENV_TAIL_TOL)))


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


@functools.cache
def _kraus_terms(d_lo: int, d_up: int, n_diag: int) -> tuple:
    """(C, K, J) over (delta, up, lo): sqrt(C p^K q^J) is the weight with which the
    Kraus operators C(k + j, j) p^k q^j between |k> and |k + j> (j = up - lo) move
    |lo + delta><lo| and |up + delta><up| into each other; C is zero unless
    lo <= up, up + delta < d_up and lo + delta < d_lo."""
    delta, up, lo = np.ogrid[:n_diag, :d_up, :d_lo]
    j = np.maximum(up - lo, 0)
    lf = _log_factorials(d_lo + d_up + n_diag)
    log_c = lf[lo + delta + j] + lf[lo + j] - 2.0 * lf[j] - lf[lo + delta] - lf[lo]
    terms = (np.where((lo <= up) & (up + delta < d_up) & (lo + delta < d_lo), np.exp(log_c), 0.0),
             2 * lo + delta, 2 * j)
    for t in terms:
        t.flags.writeable = False
    return terms


def _check_return(kappa: float, phi: float) -> None:
    """Raise InvalidParameter unless kappa lies in [0, 1] and phi is finite."""
    if not 0.0 <= kappa <= 1.0:
        raise InvalidParameter("kappa", "must lie in [0, 1]")
    if not math.isfinite(phi):
        raise InvalidParameter("phi", "must be finite")


def apply_return_channel(state: DensityMatrix, kappa: float, phi: float, n_b: float,
                         out_dim: int = None, trace_deficit_tol: float = 1e-6) -> DensityMatrix:
    """Thermal-loss return channel on the signal mode of a two-mode state.

    The return carries background brightness n_b at every kappa: a loss
    kappa/(1+n_b), then a gain 1+n_b, then the phase phi. The idler is
    untouched, and kappa = 0 returns thermal(n_b) (x) the idler marginal.
    kappa must lie in [0, 1], phi be finite and n_b be finite and >= 0
    (else InvalidParameter). out_dim, an integer >= 1, truncates the
    returned mode; by default it holds the output's photon number up to its
    1e-12 tail (the smaller of two bounds on it). One batched real matmul
    covers the diagonals delta >= 0, and delta < 0 is their conjugate
    transpose, so the output is Hermitian by construction.
    """
    _check_return(kappa, phi)
    _require_nonnegative("n_b", n_b)
    if state.n_modes != 2:
        raise ValueError("expected a two-mode (signal, idler) state")
    _require_nonnegative("trace_deficit_tol", trace_deficit_tol)
    d_out = _default_out_dim(state.dims[0], kappa, n_b) if out_dim is None else out_dim
    _require_integer("out_dim", d_out, 1)
    if d_out > _MAX_OUT_DIM:
        raise TruncationTooSmall(f"output mode dim {d_out} exceeds the cap {_MAX_OUT_DIM}; "
                                 "pass out_dim explicitly", suggested_dim=_MAX_OUT_DIM)
    out, traces = _return_channel(state, [kappa], phi, n_b, d_out, trace_deficit_tol)
    return DensityMatrix(out[0], (d_out, state.dims[1]), 1.0 - traces[0])


def _return_channel(state: DensityMatrix, kappas, phi: float, n_b: float, d_out: int,
                    trace_deficit_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(outputs, traces): apply_return_channel's output data at each of kappas,
    stacked, checking the trace deficit only. The kappa-independent amplifier
    band is built once, and one batched real matmul covers every kappa."""
    (d_sig, d_idl), gain = state.dims, 1.0 + n_b
    n_diag, n = min(d_sig, d_out), np.arange(d_sig)
    c, k, j = _kraus_terms(d_sig, d_out, n_diag)
    band = np.sqrt(c * (1.0 / gain) ** k * (n_b / gain) ** j)
    c, k, j = _kraus_terms(d_sig, d_sig, n_diag)
    kap = np.array(kappas, dtype=float)[:, None, None, None]
    band = band @ np.sqrt(c * (kap / gain) ** k * ((1.0 - kap + n_b) / gain) ** j
                          ).swapaxes(2, 3)
    # (delta, n, i, i') = rho[n + delta, i, n, i'], clipped where the loss weighs zero
    diags = state.data.reshape(d_sig, d_idl, d_sig, d_idl)[
        np.minimum(n + np.arange(n_diag)[:, None], d_sig - 1), :, n, :]
    diags = (band @ diags.view(float).reshape(n_diag, d_sig, -1)).view(complex)
    diags = diags.reshape(len(kap), n_diag, d_out, d_idl, d_idl)
    diags *= (np.exp(1j * phi * np.arange(n_diag)) / gain)[:, None, None, None]
    diags[:, 0] = 0.5 * (diags[:, 0] + diags[:, 0].conj().swapaxes(2, 3))  # exactly Hermitian
    delta, m = np.nonzero(np.arange(d_out) + np.arange(n_diag)[:, None] < d_out)
    diags, node = diags[:, delta, m], np.arange(len(kap))[:, None]
    out = np.zeros((len(kap), d_out, d_idl, d_out, d_idl), dtype=complex)
    out[node, m + delta, :, m, :] = diags
    out[node, m, :, m + delta, :] = np.conjugate(diags, out=diags).swapaxes(2, 3)
    out = out.reshape(len(kap), d_out * d_idl, -1)
    traces = np.array([np.trace(data).real for data in out])
    for kappa, trace in zip(kappas, traces):
        if 1.0 - trace > trace_deficit_tol:
            raise TruncationTooSmall(f"return channel output drops {1.0 - trace:.3g} > "
                                     f"{trace_deficit_tol:g} (out_dim {d_out})",
                                     suggested_dim=_default_out_dim(d_sig, kappa, n_b))
    return out, traces


def hypothesis_state(params: SystemParams, kappa: float, phi: float, dim: int,
                     out_dim: int = None, trace_deficit_tol: float = 1e-6) -> DensityMatrix:
    """Conditional (return, idler) state of one mode pair given the fading draw.

    The background reaching the receiver carries brightness N_B regardless of
    kappa (apply_return_channel with n_b = N_B), so kappa = 0 is target
    absence, thermal(N_B) (x) the idler marginal.
    """
    _check_return(kappa, phi)
    tmsv = tmsv_state(params.N_S, dim, trace_deficit_tol)
    return apply_return_channel(tmsv, kappa, phi, params.N_B, out_dim, trace_deficit_tol)


# =============================================================================
# Fading average (the unconditional states)
# =============================================================================

@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    xs, ws = np.polynomial.legendre.leggauss(n)
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


def _gauss_legendre(n: int, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss-Legendre rule on [0, hi]; the
    nodes on [-1, 1] are computed once per n."""
    xs, ws = _leggauss(n)
    half = 0.5 * hi
    return half * (xs + 1.0), half * ws


def _amplitude_rule(kappa_bar: float, nodes) -> tuple[np.ndarray, np.ndarray, int]:
    """(amplitudes, amplitude weights, phase node count P) from nodes, a pair
    (n_amp, P) of integers >= 8: Gauss-Legendre amplitudes on [0, 1] with the
    Rayleigh(kappa_bar) amplitude pdf folded into the weights.

    The rule stops at kappa = 1, and fading_average and the trend renormalize
    the averaged state, so both condition Rayleigh(kappa_bar) on kappa <= 1:
    the passive-target law, the pdf on [0, 1] over its mass 1 - exp(-1/kappa_bar).
    """
    if not (isinstance(nodes, (tuple, list)) and len(nodes) == 2
            and all(isinstance(n, numbers.Integral) and n >= 8 for n in nodes)):
        raise InvalidParameter("nodes",
                               f"must be a pair (n_amp, P) of integers >= 8, got {nodes!r}")
    amps, ws = _gauss_legendre(int(nodes[0]), 1.0)
    return amps, ws * np.array([fading_pdf(kappa_bar, a) for a in amps]), int(nodes[1])


def fading_average(state_builder, kappa_bar: float, quadrature_nodes) -> DensityMatrix:
    """Average conditional states over Rayleigh(kappa_bar) fading and a uniform phase.

    state_builder(amplitude) returns the conditional state at return phase 0,
    return mode first. Amplitudes take the rule of _amplitude_rule on
    quadrature_nodes = (n_amp, P). The phase acts as
    R(phi) = exp(i phi n) on the first mode, so the uniform P-node phase grid
    (the trapezoid rule) averages R rho R^dag to exactly the mask keeping the
    elements whose first-mode photon numbers agree mod P.

    Returns the renormalized (trace-1) unconditional state; the
    pre-renormalization trace shortfall (quadrature mass outside [0, 1] plus
    per-node truncation deficits) is recorded as the trace deficit.
    """
    if not 0.0 < kappa_bar <= 1.0:
        raise InvalidParameter("kappa_bar", "must lie in (0, 1]")
    amps, amp_w, n_phase = _amplitude_rule(kappa_bar, quadrature_nodes)
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
    _check_prior(pi0)
    w = np.linalg.eigvalsh((1.0 - pi0) * rho1.data - pi0 * rho0.data)
    return float(_helstrom_from_norm(np.abs(w).sum(), pi0))


def _check_prior(pi0: float) -> None:
    if not 0.0 <= pi0 <= 1.0:
        raise InvalidParameter("pi0", f"must lie in [0, 1], got {pi0}")


def _helstrom_from_norm(trace_norm, pi0: float):
    """(1 - ||pi1*rho1 - pi0*rho0||_1)/2, clipped to [0, min(pi0, pi1)];
    elementwise over an array of trace norms."""
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


def _discriminate(b0s: list, b1s: list, mults: list, pi0: float, size: int) -> tuple:
    """(Helstrom error, optimal s, Chernoff exponent) of two block-diagonal
    states on a space of dimension size.

    b0s[g] and b1s[g] are same-shaped (blocks, n, n) stacks holding the two
    states' blocks of the g-th block size; a dense pair is one block. mults[g]
    weighs each block by the number of blocks it stands for (1 for a pair). Per
    block size this takes one eigvalsh of pi1*B1 - pi0*B0 for Helstrom and
    one eigh per state for Chernoff, whose overlaps are |V0^dag V1|^2. The
    numerical-rank cutoff runs over the whole space, and
    tr(rho0^s rho1^(1-s)) is one sum over the (eigenvector, eigenvector)
    pairs of every block where both eigenvalues are nonzero, minimized by
    golden-section search on s in [0, 1] (it is log-convex in s).
    """
    _check_prior(pi0)
    trace_norm = 0.0
    w0s, w1s, overlaps = [], [], []
    for b0, b1, mult in zip(b0s, b1s, mults):
        trace_norm += np.abs(np.linalg.eigvalsh((1.0 - pi0) * b1 - pi0 * b0)).sum(axis=1) @ mult
        (w0, v0), (w1, v1) = np.linalg.eigh(b0), np.linalg.eigh(b1)
        w0s.append(w0)
        w1s.append(w1)
        overlaps.append(mult[:, None, None] * np.abs(v0.conj().swapaxes(1, 2) @ v1) ** 2)
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
    pr_e, s_opt, exponent = _discriminate([rho0.data[None]], [rho1.data[None]], [np.ones(1)],
                                          pi0, rho0.dim)
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
    """Haar-generic (Ginibre) random state of the given dimension and rank
    (default: full), both integers >= 1."""
    _require_integer("dim", dim, 1)
    _require_integer("rank", dim if rank is None else rank, 1)
    return DensityMatrix(_ginibre(rng, (), dim, rank), (dim,))


# =============================================================================
# Structural property checks
# =============================================================================

def check_helstrom_concavity(trials: int, dim: int, mixture_size: int, seed: int) -> float:
    """Randomized numeric check that averaging states cannot decrease the
    minimum discrimination error at equal priors: the worst (smallest) slack
    helstrom(sum_i f_i*rho0_i, sum_i f_i*rho1_i) - sum_i f_i*helstrom(rho0_i, rho1_i)
    over the trials, which concavity keeps >= 0 up to roundoff (inf for no trials).

    Each trial draws its mixture weights, then its mixture_size Ginibre
    (rho0, rho1) pairs; the trials x (mixture_size + 1) Helstrom problems
    (every pair plus the mixed pair) are solved by one batched eigvalsh.
    """
    _require_integer("trials", trials, 0)
    _require_integer("dim", dim, 1)
    _require_integer("mixture_size", mixture_size, 1)
    _require_integer("seed", seed, 0)
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
    return float((pr_e[:, -1] - averaged).min(initial=math.inf))


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


def _copy_labels(dim: int, m: int, n_phase: int) -> np.ndarray:
    """Block label of each basis state of m (return, idler) copies, in
    tensor-power order: every copy's n_R - n_I, plus the total n_R mod n_phase
    (n_phase = 1: no phase grid)."""
    n_ret = np.repeat(np.arange(dim), dim)
    diff = n_ret - np.tile(np.arange(dim), dim) + dim - 1
    label = np.zeros(1, dtype=np.int64)
    total = np.zeros(1, dtype=np.int64)
    for _ in range(m):
        label = (label[:, None] * (2 * dim - 1) + diff).reshape(-1)
        total = (total[:, None] + n_ret).reshape(-1)
    return label * n_phase + total % n_phase


def _check_symmetry(data: np.ndarray, label: np.ndarray) -> None:
    """Raise unless data (a matrix or a stack) couples only basis states with equal labels."""
    if np.any(data[..., label[:, None] != label[None, :]]):
        raise ValueError("per-copy state has weight outside its symmetry blocks; "
                         "the blocked M-copy solve does not apply")


def _block_groups(labels: np.ndarray) -> list:
    """Basis indices of every block, one (blocks, n) array per block size n,
    in increasing n; indices ascend within a block."""
    order = np.argsort(labels, kind="stable")
    _, starts, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    return [order[starts[sizes == n][:, None] + np.arange(n)]
            for n in np.flatnonzero(np.bincount(sizes))]


def _orbit_groups(dim: int, m: int, n_phase: int) -> list:
    """_block_groups's (blocks, n) arrays cut to one block per orbit, the sorted per-copy
    n_R - n_I plus the total n_R mod n_phase, each with its orbit's block count: permuting
    the copies leaves both M-copy states as they are, so an orbit's blocks share spectra."""
    labels, base = _copy_labels(dim, m, n_phase), 2 * dim - 1
    groups = []
    for idx in _block_groups(labels):
        code, total = np.divmod(labels[idx[:, 0]], n_phase)
        digits = np.sort([code // base ** i % base for i in range(m)], axis=0)
        orbit = base ** np.arange(m) @ digits * n_phase + total
        _, first, mult = np.unique(orbit, return_index=True, return_counts=True)
        groups.append((idx[first], mult))
    return list(zip(*groups))


def fading_exponent_trend(params: SystemParams, m_list, dim: int, nodes) -> list:
    """Per-copy error-probability exponent estimates for M-copy discrimination
    of the unconditional (fading-averaged) hypothesis states, at the priors
    params.pi0, which must lie in (0, 1) (else InvalidParameter).

    The fading draw is shared across all M copies, so the M-copy average is
    taken of the tensor powers (not the tensor power of the average). Under
    Rayleigh(params.kappa_bar) fading the estimates decrease with M, the
    desk-scale signature of the subexponential regime; nodes=None is the
    constant-rate contrast case, a known return kappa = params.kappa_bar at
    phase 0 (see TrendPoint).

    nodes = (n_amp, P) takes the amplitude rule of fading_average. A uniform
    P-node phase grid acts on the same-draw tensor power as a dephasing mask
    keeping only elements whose total return photon numbers agree mod P; this
    is exactly the trapezoid rule.

    The M-copy states are never formed densely. Both hypotheses keep the U(1)
    symmetry of a two-mode squeezed vacuum under a phase-insensitive channel:
    every per-copy state couples only basis states with equal n_R - n_I
    (checked; anything else raises ValueError) and rho0 is diagonal. So the
    M-copy rho1 is block-diagonal, with blocks labelled by every copy's
    n_R - n_I and, under fading, the total n_R mod P. One block per orbit of
    copy permutations (_orbit_groups) is built from every node's state at once
    (rho0's too: they are diagonal) and solved by qcb's kernel, weighted by
    the orbit's size; the numerical-rank cutoff still spans the whole space.

    Runs at surrogate (small N_S, N_B, dim) scale only; the blocks must fit
    in 2 GiB (else ResourceGuard). Per-copy truncated states may drop 5% of
    their weight to truncation and are renormalized first.
    """
    m_list = list(m_list)
    if not m_list:
        raise InvalidParameter("m_list", "needs one or more copy counts")
    for m in m_list:
        _require_integer("m_list", m, 1)
    m_list = sorted(int(m) for m in m_list)
    _require_integer("dim", dim, 1)
    if not 0.0 < params.pi0 < 1.0:
        raise InvalidParameter("pi0", "must lie in (0, 1)")
    if nodes is None:
        kappas, amp_weights, n_phase = [params.kappa_bar], np.array([1.0]), 1
    else:
        amps, amp_weights, n_phase = _amplitude_rule(params.kappa_bar, nodes)
        kappas = amps * amps
    # Peak memory, as measured with tracemalloc: listing the blocks takes 64 bytes
    # per basis state (labels, their sort, every block's indices), the largest M's
    # solve 72 per element of its orbit representatives (blocks, eigenvectors,
    # overlaps) plus 32 per element and state of its largest block size (every
    # state at once). The basis term alone is checked before blocks are listed.
    m_max, d2 = m_list[-1], int(dim) ** 2  # a Python int: numpy's int64 power wraps
    worst = 64.0 * d2 ** m_max
    if worst <= 2 << 30:
        top_groups = _orbit_groups(dim, m_max, n_phase)
        sizes = [idx.size * idx.shape[1] for idx in top_groups[0]]
        worst = max(worst, 72.0 * sum(sizes) + 32.0 * (1 + len(kappas)) * max(sizes))
    if worst > 2 << 30:
        raise ResourceGuard(f"M={m_max} copies of a two-mode dim-{dim} state need "
                            f"{worst/2**30:.1f} GiB")

    for kappa in kappas:
        _check_return(kappa, 0.0)
    flat, traces = _return_channel(tmsv_state(params.N_S, dim, _PER_COPY_DEFICIT_TOL),
                                   [0.0, *kappas], 0.0, params.N_B, dim, _PER_COPY_DEFICIT_TOL)
    _check_symmetry(flat[:1], np.arange(d2))  # kappa = 0, target absence: diagonal
    _check_symmetry(flat[1:], _copy_labels(dim, 1, 1))
    flat = (flat / traces[:, None, None]).reshape(len(flat), -1)  # renormalized

    results = []
    for m in m_list:
        reps, mults = top_groups if m == m_max else _orbit_groups(dim, m, n_phase)
        b0s, b1s = [], []
        for idx in reps:
            # each copy's (row, col) entry for every element of the blocks
            digits = [idx // d2 ** (m - 1 - i) % d2 for i in range(m)]
            entries = [dg[:, :, None] * d2 + dg[:, None, :] for dg in digits]
            blk = flat[:, entries[0]]  # (node, block, row, col), node 0 is rho0
            for entry in entries[1:]:
                blk *= flat[:, entry]
            b0s.append(blk[0].copy())  # a view would keep every node alive
            b1s.append(np.tensordot(amp_weights, blk[1:], axes=1))
        trace = sum(np.trace(b1, axis1=1, axis2=2).real @ mult for b1, mult in zip(b1s, mults))
        b1s = [b1 / trace for b1 in b1s]
        pr_e, _, exponent = _discriminate(b0s, b1s, mults, params.pi0, d2 ** m)
        results.append(TrendPoint(copies=m, helstrom_exponent=-math.log(pr_e) / m,
                                  chernoff_exponent=exponent / m,
                                  blocks=int(sum(mult.sum() for mult in mults)),
                                  largest_block=reps[-1].shape[1]))
    return results


def qcb_exponent_at_zero_return(params: SystemParams, dim: int) -> float:
    """Chernoff exponent between the channel's kappa = 0 output and
    thermal(N_B) (x) the TMSV idler marginal, built without the channel; both
    are target absence, so the exponent is ~0 unless the channel is wrong."""
    tmsv = tmsv_state(params.N_S, dim, _PER_COPY_DEFICIT_TOL)
    channel = apply_return_channel(tmsv, 0.0, 0.0, params.N_B, out_dim=dim,
                                   trace_deficit_tol=_PER_COPY_DEFICIT_TOL)
    idler = partial_trace(tmsv, 1)
    direct = np.kron(np.diag(_thermal_weights(params.N_B, dim)), idler.data)
    return qcb(DensityMatrix(direct, (dim, dim)).renormalized(),
               channel.renormalized()).qcb_exponent


# =============================================================================
# Wigner covariance
# =============================================================================

def return_idler_covariance(n_s: float, n_b: float, kappa: float, phi: float) -> np.ndarray:
    """4x4 Wigner covariance of the (return, idler) pair given the fading draw.

    Quadrature order (q_R, p_R, q_I, p_I). Diagonal blocks are multiples of
    the identity; the off-diagonal block is
    (c_p/2) * [[cos phi, sin phi], [sin phi, -cos phi]] with
    c_p = sqrt(kappa*N_S*(N_S+1)). The return block carries brightness
    kappa*N_S + N_B (the background-brightness convention keeps the noise
    floor at N_B for every kappa), so kappa = 0 is target absence.
    kappa must lie in [0, 1] and phi be finite, else InvalidParameter.
    """
    _check_return(kappa, phi)
    cov = np.zeros((4, 4))
    cov[0, 0] = cov[1, 1] = (2.0 * (kappa * n_s + n_b) + 1.0) / 4.0
    cov[2, 2] = cov[3, 3] = (2.0 * n_s + 1.0) / 4.0
    r_h = np.array([[math.cos(phi), math.sin(phi)],
                    [math.sin(phi), -math.cos(phi)]])
    cov[0:2, 2:4] = 0.5 * math.sqrt(kappa * n_s * (n_s + 1.0)) * r_h
    cov[2:4, 0:2] = cov[0:2, 2:4].T
    return cov


def wigner_covariance(dm: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """First moments and symmetrized quadrature covariance of a two-mode state.

    Returns (means, cov) over (q_0, p_0, q_1, p_1) with q = (a + a^dag)/2.
    Same-mode moments come from the single-mode marginals; the cross block,
    whose quadratures commute, reads the joint state one photon off mode 0's diagonal.
    """
    d0, d1 = dm.dims
    means, cov = [], np.zeros((4, 4))
    for mode, d in enumerate((d0, d1)):
        a = _destroy(d)
        q = np.stack([0.5 * (a + a.conj().T), (a - a.conj().T) / 2j])
        rho = partial_trace(dm, mode).data
        means.extend(np.einsum("aij,ji->a", q, rho).real)
        sym = 0.5 * (q[:, None] @ q[None, :] + q[None, :] @ q[:, None])
        cov[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2] = np.einsum("abij,ji->ab", sym, rho).real
    # cross[a, b] = q0[a, j, i] q1[b, l, k] rho[i, k, j, l], via Tr_0(rho a) and Tr_0(rho a^dag)
    rho, root = dm.data.reshape(d0, d1, d0, d1), np.sqrt(np.arange(1, d0))
    tr_a, tr_ad = (np.diagonal(r, axis1=0, axis2=2) @ root
                   for r in (rho[1:, :, :-1], rho[:-1, :, 1:]))
    half = np.stack([(tr_a + tr_ad) / 2, (tr_a - tr_ad) / 2j])  # Tr_0(rho q0), Tr_0(rho p0)
    cross = np.einsum("akl,blk->ab", half, q).real  # q is mode 1's, from the last pass
    cov[:2, 2:], cov[2:, :2] = cross, cross.T
    means = np.array(means)
    return means, cov - np.outer(means, means)
