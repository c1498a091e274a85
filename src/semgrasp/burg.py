"""Burg lattice estimation of autoregressive models and their power spectra.

The fit proceeds stage by stage. With f_i / b_i the forward and backward
prediction errors after stage i (f_0 = b_0 = x), each stage picks the
reflection coefficient

    r_i = -2 * sum(f_{i-1}[n] * b_{i-1}[n-1]) / sum(f_{i-1}[n]^2 + b_{i-1}[n-1]^2)

(sums over the valid index range n = i..N-1), which is the unique minimizer
of the summed squared forward+backward errors after the lattice update

    f_i[n] = f_{i-1}[n] + r_i * b_{i-1}[n-1]
    b_i[n] = b_{i-1}[n-1] + r_i * f_{i-1}[n]

and |r_i| <= 1 always (Cauchy-Schwarz). AR filter coefficients follow the
Levinson step a_i[j] = a_{i-1}[j] + r_i * a_{i-1}[i-j], a_i[i] = r_i, so the
whitening filter is 1 + a[1] z^-1 + ... + a[p] z^-p and is minimum-phase
whenever every |r_i| < 1. Signals are real; no complex support.

State arrays hold only the currently valid error range [stage, N-1], which
shrinks by one sample per stage.

The stage API (init_state, compute_reflection, update_prediction_errors,
stage_error) is the one definition of the lattice. burg_fit runs the same
reflection and error-update steps in place: it allocates its error buffers
once per call and has each stage write into the pair the previous stage did
not use. Every sum and elementwise operation is the same IEEE operation on
the same operands, so its coefficients and noise variance equal the
stage-API chain's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateSignalError
from .network import _one_blas_thread

# Denominators at or below this are treated as annihilated residuals.
_DEN_FLOOR = np.finfo(np.float64).tiny


@dataclass
class BurgState:
    """Lattice recursion state after `stage` stages.

    forward_errors[j] and backward_errors[j] hold the errors at sample
    index stage + j; both arrays have length N - stage for an N-sample signal.
    """

    forward_errors: np.ndarray
    backward_errors: np.ndarray
    reflection_coeffs: list[float]
    ar_coeffs: list[float]
    stage: int


def init_state(x: np.ndarray) -> BurgState:
    """Stage-0 state: both error series equal the input signal."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("input signal must be a non-empty 1-D array")
    return BurgState(
        forward_errors=x.copy(),
        backward_errors=x.copy(),
        reflection_coeffs=[],
        ar_coeffs=[],
        stage=0,
    )


def compute_reflection(state: BurgState) -> float:
    """Reflection coefficient for the next stage, from the current errors.

    Raises DegenerateSignalError when the denominator has collapsed to zero
    (constant input already whitened, or a perfectly predictable signal whose
    previous stage annihilated the residual), or when a sum overflowed. At
    stage 0 the denominator sums every sample's square at least once, so if
    it collapses while a sample is nonzero, the squares underflowed.
    """
    return _reflection(state.forward_errors, state.backward_errors, state.stage)


def _reflection(f: np.ndarray, b: np.ndarray, stage: int) -> float:
    """compute_reflection of the errors f and b after `stage` stages."""
    _check_samples_left(f, stage)
    fs, bs = f[1:], b[:-1]
    num = -2.0 * float(np.dot(fs, bs))
    den = float(np.dot(fs, fs) + np.dot(bs, bs))
    if not (math.isfinite(num) and math.isfinite(den)):
        raise DegenerateSignalError(f"sums overflow at stage {stage + 1}; values too large")
    if den <= _DEN_FLOOR:
        if stage == 0 and f.any():
            raise DegenerateSignalError("sample values too small; their squares underflow")
        raise DegenerateSignalError(
            f"zero prediction-error denominator at stage {stage + 1}; "
            "signal is constant or perfectly predictable"
        )
    return num / den


def _check_samples_left(f: np.ndarray, stage: int) -> None:
    if len(f) < 2:
        raise DegenerateSignalError(f"no samples left for stage {stage + 1} (signal too short)")


def update_ar_coefficients(prev: list[float], r: float) -> list[float]:
    """Levinson step: extend stage-(i-1) AR coefficients with reflection r.

    new[j] = prev[j] + r * prev[i-j] for j < i (1-based j), new[i] = r.
    """
    i = len(prev) + 1
    out = [prev[j - 1] + r * prev[i - j - 1] for j in range(1, i)]
    out.append(r)
    return out


def update_prediction_errors(state: BurgState, r: float) -> BurgState:
    """Advance the lattice one stage with reflection coefficient r.

    Returns a complete new state: updated error series (valid range one
    sample shorter), appended reflection coefficient and AR coefficients
    moved through the Levinson step.
    """
    if not abs(r) <= 1.0:
        raise ValueError(f"|r| must be <= 1, got {r}")
    f = state.forward_errors
    b = state.backward_errors
    _check_samples_left(f, state.stage)
    new_f, new_b = np.empty(len(f) - 1), np.empty(len(f) - 1)
    _update_errors(f, b, r, new_f, new_b)
    return BurgState(
        forward_errors=new_f,
        backward_errors=new_b,
        reflection_coeffs=state.reflection_coeffs + [r],
        ar_coeffs=update_ar_coefficients(state.ar_coeffs, r),
        stage=state.stage + 1,
    )


def _update_errors(f: np.ndarray, b: np.ndarray, r: float,
                   out_f: np.ndarray, out_b: np.ndarray) -> None:
    """Write the next stage's errors f[1:] + r * b[:-1] and b[:-1] + r * f[1:]
    into out_f and out_b, which overlap neither f nor b."""
    fs, bs = f[1:], b[:-1]
    np.multiply(bs, r, out=out_f)
    out_f += fs
    np.multiply(fs, r, out=out_b)
    out_b += bs


def stage_error(state: BurgState) -> float:
    """Summed squared forward plus backward errors over the valid range."""
    return _error_power(state.forward_errors, state.backward_errors)


def _error_power(f: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(f, f) + np.dot(b, b))


@dataclass
class BurgModel:
    """Fitted AR model: whitening filter 1 + sum_j ar_coeffs[j-1] z^-j."""

    order: int
    ar_coeffs: list[float]
    reflection_coeffs: list[float]
    noise_variance: float
    sample_rate: float


@dataclass
class PsdEstimate:
    """One-sided frequency grid (Hz) with two-sided power density values."""

    frequencies: np.ndarray
    power: np.ndarray


@_one_blas_thread()
@np.errstate(over="ignore", invalid="ignore")  # compute_reflection checks the sums itself
def burg_fit(x: np.ndarray, order: int, sample_rate: float) -> BurgModel:
    """Fit an AR(order) model to a single-channel series.

    Runs the stage API's reflection and error-update steps in place: four
    error buffers are allocated once, and each stage writes its forward and
    backward errors into the pair the previous stage did not use. The
    reflection coefficients, AR coefficients and noise variance equal those
    of the init_state / compute_reflection / update_prediction_errors /
    stage_error chain bit for bit. The input is never written to.

    noise_variance is the final error power divided by the number of summed
    terms (2 * (N - order)), i.e. the mean squared residual per sample; with
    that normalization the two-sided spectral density returned by
    psd_from_model integrates to the signal variance. Samples too large or
    too small for their squares to sum in float64 raise DegenerateSignalError,
    without a numpy warning.
    """
    # contiguous, as init_state's copies are: np.dot sums a strided view in another order
    x = np.ascontiguousarray(x, dtype=np.float64)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if x.ndim != 1:
        raise ValueError("input signal must be 1-D")
    n = len(x)
    if n <= order + 1:
        raise ValueError(f"signal length {n} too short for order {order} (need > order + 1)")
    lo, hi = x.min(), x.max()  # NaN propagates through both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DegenerateSignalError("signal holds non-finite values")
    if lo == hi:
        raise DegenerateSignalError("signal is constant")

    # the errors after stage i + 1 go to buffers[i % 2]: each stage reads one pair, writes the other
    buffers = np.empty((2, 2, n - 1))
    f = b = x
    reflection_coeffs: list[float] = []
    ar_coeffs: list[float] = []
    for stage in range(order):
        r = _reflection(f, b, stage)
        out_f, out_b = buffers[stage % 2, :, : n - stage - 1]
        _update_errors(f, b, r, out_f, out_b)
        f, b = out_f, out_b
        reflection_coeffs.append(r)
        ar_coeffs = update_ar_coefficients(ar_coeffs, r)

    n_terms = 2 * (n - order)
    noise_variance = _error_power(f, b) / n_terms
    if noise_variance <= 0.0:
        raise DegenerateSignalError(f"signal is perfectly predictable at order {order}")
    return BurgModel(
        order=order,
        ar_coeffs=ar_coeffs,
        reflection_coeffs=reflection_coeffs,
        noise_variance=noise_variance,
        sample_rate=sample_rate,
    )


def psd_from_model(model: BurgModel, nbins: int) -> PsdEstimate:
    """Evaluate the AR spectral density on nbins points spanning [0, rate/2].

    power[k] = noise_variance / (rate * |1 + sum_j a_j exp(-i 2 pi f_k j / rate)|^2)

    These are two-sided density values sampled on the non-negative frequency
    axis; by symmetry the full two-sided integral is twice the integral over
    this grid, and it recovers the signal variance.
    """
    if nbins < 8:
        raise ValueError(f"nbins must be >= 8, got {nbins}")
    rate = model.sample_rate
    freqs, basis = _psd_basis(nbins, model.order, rate)
    a = np.asarray(model.ar_coeffs, dtype=np.float64)
    resp = 1.0 + basis @ a.astype(np.complex128)
    denom = np.abs(resp) ** 2
    power = model.noise_variance / (rate * denom)
    return PsdEstimate(frequencies=freqs, power=power)


@lru_cache(maxsize=16)
def _psd_basis(nbins: int, order: int, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Frequency grid and exp(-i omega_k j) matrix [nbins, order], read-only.

    They depend on nothing but these three values, which stay fixed over a run.
    """
    freqs = np.linspace(0.0, rate / 2.0, nbins)
    omega = 2.0 * math.pi * freqs / rate
    basis = np.exp(-1j * np.outer(omega, np.arange(1, order + 1)))
    for arr in (freqs, basis):
        arr.setflags(write=False)
    return freqs, basis
