"""Shared oracles and builders for the test suite.

The oracles here are deliberately independent of the library's own algebra:
the reflection-coefficient oracle evaluates the summed squared errors on an
explicit grid of candidate coefficients, and AR realizations come from
scipy's direct-form filter.
"""

import json

import numpy as np
from scipy.signal import lfilter

from semgrasp.dataset import EmgRecord


def grid_search_reflection(f: np.ndarray, b: np.ndarray, n_points: int = 100001,
                           chunk: int = 20000) -> float:
    """Minimize sum((f[1:] + r*b[:-1])**2) + sum((b[:-1] + r*f[1:])**2) over a grid."""
    grid = np.linspace(-1.0, 1.0, n_points)
    best_r, best_eps = 0.0, np.inf
    for start in range(0, n_points, chunk):
        g = grid[start : start + chunk]
        fwd = f[None, 1:] + g[:, None] * b[None, :-1]
        bwd = b[None, :-1] + g[:, None] * f[None, 1:]
        eps = (fwd * fwd).sum(axis=1) + (bwd * bwd).sum(axis=1)
        k = int(np.argmin(eps))
        if eps[k] < best_eps:
            best_eps, best_r = eps[k], g[k]
    return float(best_r)


def ar_realization(ar_coeffs, n: int, seed: int, burn_in: int = 2000) -> np.ndarray:
    """Drive the synthesis filter 1/(1 + a1 z^-1 + ...) with unit white noise."""
    rng = np.random.default_rng(seed)
    poly = np.concatenate([[1.0], np.asarray(ar_coeffs, dtype=float)])
    w = rng.standard_normal(n + burn_in)
    return lfilter([1.0], poly, w)[burn_in:]


def random_stable_ar(rng: np.random.Generator, max_order: int = 6, max_reflection: float = 0.9):
    """Random stable AR coefficients built from reflection coefficients in (-max, max)."""
    order = int(rng.integers(1, max_order + 1))
    ks = rng.uniform(-max_reflection, max_reflection, size=order)
    a: list[float] = []
    for k in ks:
        i = len(a) + 1
        a = [a[j - 1] + k * a[i - j - 1] for j in range(1, i)] + [float(k)]
    return a


def make_record(ch1, ch2, label="C", rate=500.0, subject="s1", session="d1") -> EmgRecord:
    return EmgRecord(
        channel1=np.asarray(ch1, dtype=float),
        channel2=np.asarray(ch2, dtype=float),
        sample_rate=rate,
        label=label,
        subject_id=subject,
        session_id=session,
    )


def sinusoid(freq_hz: float, n: int, rate: float = 500.0, noise: float = 0.05,
             seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    return np.sin(2.0 * np.pi * freq_hz * t) + noise * rng.standard_normal(n)


def gradients(state, x, y) -> dict[str, np.ndarray]:
    """Every parameter's gradient on the batch (x, y), by name: what training's
    update receives, collected with dict.update as the update."""
    from semgrasp.network import loss_and_gradients

    grads = {}
    loss_and_gradients(state, x, y, grads.update)
    return grads


def fd_gradient_check(state, x, y, h: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    Perturbs every scalar parameter in place; parameters whose analytic and
    numeric gradients are both below 1e-10 count as exact.
    """
    from semgrasp.network import cross_entropy, forward

    grads = gradients(state, x, y)
    worst = 0.0
    for name, arr in state.parameters():
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + h
            up = cross_entropy(forward(state, x)[0], y)
            arr[ix] = orig - h
            down = cross_entropy(forward(state, x)[0], y)
            arr[ix] = orig
            numeric = (up - down) / (2.0 * h)
            analytic = g[ix]
            denom = max(abs(numeric), abs(analytic))
            if denom >= 1e-10:
                worst = max(worst, abs(numeric - analytic) / denom)
    return worst


def rewrite_bundle(path, edit) -> None:
    """Apply edit(meta, arrays) to a saved model bundle in place."""
    data = dict(np.load(path, allow_pickle=False))
    meta = json.loads(str(data.pop("__meta__")))
    edit(meta, data)
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta)), **data)


def keep_records(records: list[EmgRecord]) -> list[EmgRecord]:
    """A load_dataset reducer that keeps each whole record, channels included."""
    return records
