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
stage_error) steps one signal through the lattice. A private row lattice
runs the same steps over every row of an array [rows, N] at once, over error
buffers it allocates once per call: each stage writes its errors into the
pair the previous stage did not use. burg_fit is its one-row case, and
feature extraction fits the channels of up to 8 records as the rows of one
call. The sums, the error update, the Levinson step and each refusal are one
helper, shared by the stage API and the row lattice. Every number of a row
is the same IEEE operation on the same operands as on that row alone, so
each row's coefficients and noise variance equal its own 1-D fit, and the
stage-API chain, bit for bit.
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
    f, b, stage = state.forward_errors, state.backward_errors, state.stage
    _check_samples_left(f, stage)
    num, den = _sums(f, b)
    if _stage_failed(num, den):
        raise _stage_refusal(num, den, stage, bool(f.any()))
    return float(num / den)


def _sums(f: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerator -2 * sum(f[n] * b[n-1]) and denominator sum(f[n]^2 + b[n-1]^2) of
    the reflection coefficient of each row (last axis) of the errors f and b.

    np.vecdot calls the same BLAS dot on each row as np.dot does on that row
    alone, so a row's sums do not depend on the rows beside it.
    """
    fs, bs = f[..., 1:], b[..., :-1]
    return -2.0 * np.vecdot(fs, bs), np.vecdot(fs, fs) + np.vecdot(bs, bs)


def _stage_failed(num, den):
    """Where a stage's sums leave no reflection coefficient: a sum overflowed, or the
    denominator collapsed."""
    return ~(np.isfinite(num) & np.isfinite(den)) | (den <= _DEN_FLOOR)


def _stage_refusal(num: float, den: float, stage: int, nonzero: bool) -> DegenerateSignalError:
    """The error of a stage whose sums _stage_failed; nonzero: whether a sample of the
    signal is nonzero."""
    if not (math.isfinite(num) and math.isfinite(den)):
        return DegenerateSignalError(f"sums overflow at stage {stage + 1}; values too large")
    if stage == 0 and nonzero:
        return DegenerateSignalError("sample values too small; their squares underflow")
    return DegenerateSignalError(
        f"zero prediction-error denominator at stage {stage + 1}; "
        "signal is constant or perfectly predictable"
    )


def _check_samples_left(f: np.ndarray, stage: int) -> None:
    if len(f) < 2:
        raise DegenerateSignalError(f"no samples left for stage {stage + 1} (signal too short)")


def update_ar_coefficients(prev: list[float], r: float) -> list[float]:
    """Levinson step: extend stage-(i-1) AR coefficients with reflection r.

    new[j] = prev[j] + r * prev[i-j] for j < i (1-based j), new[i] = r.
    """
    a = np.empty(len(prev) + 1)
    a[:-1] = prev
    _levinson(a, len(prev), r)
    return a.tolist()


def _levinson(a: np.ndarray, i: int, r) -> None:
    """Levinson step in place: a[:i] holds the AR coefficients after i stages (one
    column per signal when r holds one coefficient per signal); write those after
    stage i + 1 into a[:i + 1]."""
    prev = a[:i]
    prev += r * prev[::-1]
    a[i] = r


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


def _update_errors(f: np.ndarray, b: np.ndarray, r,
                   out_f: np.ndarray, out_b: np.ndarray) -> None:
    """Write the next stage's errors f[1:] + r * b[:-1] and b[:-1] + r * f[1:], along
    the last axis, into out_f and out_b, which overlap neither f nor b. r is a number,
    or a column [rows, 1] of one reflection coefficient per row."""
    fs, bs = f[..., 1:], b[..., :-1]
    np.multiply(bs, r, out=out_f)
    out_f += fs
    np.multiply(fs, r, out=out_b)
    out_b += bs


def stage_error(state: BurgState) -> float:
    """Summed squared forward plus backward errors over the valid range."""
    return float(_error_power(state.forward_errors, state.backward_errors))


def _error_power(f: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.vecdot(f, f) + np.vecdot(b, b)


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
@np.errstate(all="ignore")  # the lattice checks the sums itself
def burg_fit(x: np.ndarray, order: int, sample_rate: float) -> BurgModel:
    """Fit an AR(order) model to a single-channel series.

    Runs the row lattice on x as its one row. Feature extraction runs the
    same lattice over the channels of up to 8 records at once, and each row
    there equals this fit of the row alone bit for bit. The reflection
    coefficients, AR coefficients and noise variance equal those of the
    init_state / compute_reflection / update_prediction_errors / stage_error
    chain bit for bit. The input is never written to.

    noise_variance is the final error power divided by the number of summed
    terms (2 * (N - order)), i.e. the mean squared residual per sample; with
    that normalization the two-sided spectral density returned by
    psd_from_model integrates to the signal variance. Samples too large or
    too small for their squares to sum in float64 raise DegenerateSignalError,
    without a numpy warning.
    """
    # contiguous, as init_state's copies are: np.vecdot sums a strided view in another order
    x = np.ascontiguousarray(x, dtype=np.float64)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if x.ndim != 1:
        raise ValueError("input signal must be 1-D")
    n = len(x)
    if n <= order + 1:
        raise ValueError(f"signal length {n} too short for order {order} (need > order + 1)")
    reflection, ar, noise, refusals = _fit_rows(x[None], order)
    if refusals[0] is not None:
        raise refusals[0]
    return BurgModel(
        order=order,
        ar_coeffs=ar[0].tolist(),
        reflection_coeffs=reflection[0].tolist(),
        noise_variance=float(noise[0]),
        sample_rate=sample_rate,
    )


def _fit_rows(
    x: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[DegenerateSignalError | None]]:
    """The row lattice: fit AR(order) to every row of x [rows, N] at once.

    x is C-contiguous float64 with N > order + 1, and is never written to.
    Returns the reflection and AR coefficients [rows, order], the noise
    variance [rows] and, for each row, the DegenerateSignalError that
    burg_fit raises for that row alone, or None. A refused row's numbers are
    meaningless; the other rows' are unaffected. Run it under
    np.errstate(all="ignore") and _one_blas_thread(): a refused row's sums
    overflow or divide by zero, and the refusals are checked once, after the
    last stage.
    """
    rows, n = x.shape
    # the errors after stage i + 1 go to buffers[i % 2]: each stage reads one pair, writes the other
    buffers = np.empty((2, 2, rows, n - 1))
    # one row per stage and one column per signal, so a stage writes one contiguous row
    num, den, reflection, ar = np.empty((4, order, rows))
    f = b = x
    for stage in range(order):
        num[stage], den[stage] = _sums(f, b)
        r = np.divide(num[stage], den[stage], out=reflection[stage])
        m = n - stage - 1
        out_f, out_b = buffers[stage % 2, 0, :, :m], buffers[stage % 2, 1, :, :m]
        _update_errors(f, b, r[:, None], out_f, out_b)
        f, b = out_f, out_b
        _levinson(ar, stage, r)
    noise = _error_power(f, b) / (2 * (n - order))

    # burg_fit's checks of one row, in its order; most rows pass them all
    lo, hi = x.min(axis=1).tolist(), x.max(axis=1).tolist()  # NaN propagates through both
    failed = _stage_failed(num, den)
    refusals: list[DegenerateSignalError | None] = [None] * rows
    for row, (low, high, any_failed, variance) in enumerate(
            zip(lo, hi, failed.any(axis=0).tolist(), noise.tolist())):
        if not (math.isfinite(low) and math.isfinite(high)):
            refusals[row] = DegenerateSignalError("signal holds non-finite values")
        elif low == high:
            refusals[row] = DegenerateSignalError("signal is constant")
        elif any_failed:
            stage = int(np.argmax(failed[:, row]))
            refusals[row] = _stage_refusal(num[stage, row], den[stage, row], stage, True)
        elif variance <= 0.0:
            refusals[row] = DegenerateSignalError(
                f"signal is perfectly predictable at order {order}")
    return reflection.T, ar.T, noise, refusals


def psd_from_model(model: BurgModel, nbins: int) -> PsdEstimate:
    """Evaluate the AR spectral density on nbins points spanning [0, rate/2].

    power[k] = noise_variance / (rate * |1 + sum_j a_j exp(-i 2 pi f_k j / rate)|^2)

    These are two-sided density values sampled on the non-negative frequency
    axis; by symmetry the full two-sided integral is twice the integral over
    this grid, and it recovers the signal variance.
    """
    if nbins < 8:
        raise ValueError(f"nbins must be >= 8, got {nbins}")
    a = np.asarray(model.ar_coeffs, dtype=np.float64)
    power = _psd_rows(a[None], np.array([model.noise_variance]), model.sample_rate, nbins)
    return PsdEstimate(frequencies=_psd_basis(nbins, model.order, model.sample_rate)[0],
                       power=power[0])


def _psd_rows(ar: np.ndarray, noise: np.ndarray, rate: float, nbins: int) -> np.ndarray:
    """psd_from_model's power [rows, nbins] of the AR coefficients ar [rows, order] and
    noise variances [rows] of signals sampled at one rate.

    The response is one matrix-vector product per row, as for a single model;
    one matrix-matrix product would sum in another order.
    """
    _, basis = _psd_basis(nbins, ar.shape[1], rate)
    a = np.ascontiguousarray(ar, dtype=np.complex128)
    resp = 1.0 + np.matmul(basis, a[:, :, None])[..., 0]
    denom = np.abs(resp) ** 2
    return noise[:, None] / (rate * denom)


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
