import numpy as np
import pytest
import sympy

from helpers import ar_realization, grid_search_reflection, sinusoid, trapezoid

from semgrasp.burg import (
    BurgModel,
    _fit_rows,
    _psd_basis,
    _psd_rows,
    burg_fit,
    compute_reflection,
    init_state,
    psd_from_model,
    stage_error,
    update_ar_coefficients,
    update_prediction_errors,
)
from semgrasp.errors import DegenerateSignalError


# ---------------------------------------------------------------- lattice ops


def test_init_state_stage_zero():
    x = np.array([1.0, 2.0, 3.0])
    s = init_state(x)
    assert s.stage == 0
    np.testing.assert_array_equal(s.forward_errors, x)
    np.testing.assert_array_equal(s.backward_errors, x)
    assert s.ar_coeffs == [] and s.reflection_coeffs == []
    # stage-0 error: forward plus backward sums over the whole signal
    assert stage_error(s) == pytest.approx(2 * np.dot(x, x))


def test_update_errors_zero_reflection_is_shift():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(16)
    s0 = init_state(x)
    s1 = update_prediction_errors(s0, 0.0)
    # forward errors keep their values on the shrunken range; backward errors
    # are the one-sample delay of the previous backward errors
    np.testing.assert_array_equal(s1.forward_errors, x[1:])
    np.testing.assert_array_equal(s1.backward_errors, x[:-1])
    assert s1.stage == 1
    assert len(s1.forward_errors) == len(x) - 1
    assert s1.ar_coeffs == [0.0]


def test_update_errors_hand_expansion_alternating():
    # x = [1,-1,1,-1], r = 1:
    #   e1f[n] = x[n] + 1*x[n-1] = 0 for n=1..3
    #   e1b[n] = x[n-1] + 1*x[n] = 0 for n=1..3
    s0 = init_state(np.array([1.0, -1.0, 1.0, -1.0]))
    s1 = update_prediction_errors(s0, 1.0)
    np.testing.assert_array_equal(s1.forward_errors, np.zeros(3))
    np.testing.assert_array_equal(s1.backward_errors, np.zeros(3))


def test_two_stage_update_matches_symbolic_expansion():
    # expand the stage-2 forward/backward errors symbolically in terms of the
    # raw samples, then compare against two numeric lattice updates
    n_samp = 6
    xs = sympy.symbols(f"x0:{n_samp}")
    r1, r2 = sympy.symbols("r1 r2")
    e0f = list(xs)
    e0b = list(xs)
    e1f = {n: e0f[n] + r1 * e0b[n - 1] for n in range(1, n_samp)}
    e1b = {n: e0b[n - 1] + r1 * e0f[n] for n in range(1, n_samp)}
    e2f = {n: e1f[n] + r2 * e1b[n - 1] for n in range(2, n_samp)}
    e2b = {n: e1b[n - 1] + r2 * e1f[n] for n in range(2, n_samp)}

    rng = np.random.default_rng(7)
    x_val = rng.standard_normal(n_samp)
    r1_val, r2_val = 0.37, -0.52
    subs = dict(zip(xs, x_val)) | {r1: r1_val, r2: r2_val}

    s = init_state(x_val)
    s = update_prediction_errors(s, r1_val)
    s = update_prediction_errors(s, r2_val)
    for j, n in enumerate(range(2, n_samp)):
        assert s.forward_errors[j] == pytest.approx(float(e2f[n].subs(subs)), abs=1e-12)
        assert s.backward_errors[j] == pytest.approx(float(e2b[n].subs(subs)), abs=1e-12)


def test_update_errors_rejects_bad_reflection():
    s = init_state(np.arange(5.0))
    with pytest.raises(ValueError):
        update_prediction_errors(s, 1.5)


def test_compute_reflection_constant_signal_errors_at_stage_one():
    # stage 0 of a constant signal yields r = -1, which annihilates the
    # residual; the stage-1 denominator is then exactly zero
    s0 = init_state(np.array([5.0, 5.0, 5.0, 5.0]))
    r = compute_reflection(s0)
    assert r == -1.0
    s1 = update_prediction_errors(s0, r)
    with pytest.raises(DegenerateSignalError):
        compute_reflection(s1)


def test_compute_reflection_ar1_matches_grid_and_theory():
    # x[n] = 0.5 x[n-1] + w[n]  ->  whitening coefficient a1 = -0.5, and the
    # first reflection coefficient equals a1 for an AR(1) fit
    x = ar_realization([-0.5], n=10000, seed=21)
    s = init_state(x)
    r = compute_reflection(s)
    assert -0.55 <= r <= -0.45
    r_grid = grid_search_reflection(s.forward_errors, s.backward_errors, n_points=4001)
    assert r == pytest.approx(r_grid, abs=1e-3)


def test_compute_reflection_white_noise_near_zero():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        s = init_state(rng.standard_normal(10000))
        assert abs(compute_reflection(s)) < 0.05


def test_reflection_bound_cauchy_schwarz():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.standard_normal(int(rng.integers(8, 64)))
        s = init_state(x)
        for _ in range(4):
            r = compute_reflection(s)
            assert abs(r) <= 1.0 + 1e-12
            s = update_prediction_errors(s, r)


def test_grid_oracle_equivalence_small_signals():
    rng = np.random.default_rng(77)
    for _ in range(20):
        x = rng.standard_normal(int(rng.integers(8, 33)))
        s = init_state(x)
        for _ in range(3):
            r = compute_reflection(s)
            r_grid = grid_search_reflection(s.forward_errors, s.backward_errors)
            assert r == pytest.approx(r_grid, abs=2e-5)
            s = update_prediction_errors(s, r)


def test_update_ar_coefficients_base_case():
    assert update_ar_coefficients([], 0.3) == [0.3]


def test_update_ar_coefficients_order_two_expansion():
    a1, r = 0.6, -0.25
    out = update_ar_coefficients([a1], r)
    assert out == pytest.approx([a1 + r * a1, r])


def test_update_ar_coefficients_zero_reflection_appends_zero():
    prev = [0.5, -0.2, 0.1]
    assert update_ar_coefficients(prev, 0.0) == prev + [0.0]


def test_stage_error_zero_series():
    s0 = init_state(np.array([1.0, -1.0, 1.0, -1.0]))
    r = compute_reflection(s0)
    assert r == 1.0  # alternating signal is perfectly predicted by x[n] = -x[n-1]
    s1 = update_prediction_errors(s0, r)
    assert stage_error(s1) == 0.0


def test_stage_error_monotone_nonincreasing():
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = rng.standard_normal(int(rng.integers(16, 64)))
        s = init_state(x)
        prev = stage_error(s)
        for _ in range(10):
            s = update_prediction_errors(s, compute_reflection(s))
            cur = stage_error(s)
            assert cur <= prev * (1 + 1e-12)
            prev = cur


# ------------------------------------------------------------------ burg_fit


def test_burg_fit_recovers_ar2_coefficients():
    # poles at radius 0.9, angles +-pi/4:
    # whitening filter 1 - 2*0.9*cos(pi/4) z^-1 + 0.81 z^-2
    a_true = [-2 * 0.9 * np.cos(np.pi / 4), 0.81]
    errs = []
    for seed in range(3):
        x = ar_realization(a_true, n=8192, seed=seed)
        model = burg_fit(x, 2, 500.0)
        errs.append(np.abs(np.array(model.ar_coeffs) - a_true).mean())
    assert np.mean(errs) < 0.05


def test_burg_fit_sinusoid_peak_location():
    x = sinusoid(50.0, 2048, rate=500.0, noise=0.05, seed=4)
    model = burg_fit(x, 10, 500.0)
    psd = psd_from_model(model, 128)
    peak = psd.frequencies[int(np.argmax(psd.power))]
    bin_width = psd.frequencies[1] - psd.frequencies[0]
    assert abs(peak - 50.0) <= bin_width


def test_burg_fit_order_ten_reflection_invariants(synth_dataset):
    model = burg_fit(synth_dataset[0].channel1, 10, 500.0)
    assert len(model.reflection_coeffs) == 10
    assert all(abs(r) <= 1.0 + 1e-12 for r in model.reflection_coeffs)
    assert len(model.ar_coeffs) == 10
    assert model.noise_variance > 0


def _read_only(x):
    x.setflags(write=False)
    return x


# each input kind burg_fit takes, built from n standard-normal draws
_FIT_INPUTS = {
    "float64": lambda rng, n: rng.standard_normal(n),
    "strided": lambda rng, n: rng.standard_normal(2 * n)[::2],
    "float32": lambda rng, n: rng.standard_normal(n).astype(np.float32),
    "int64": lambda rng, n: np.round(100.0 * rng.standard_normal(n)).astype(np.int64),
    "read_only": lambda rng, n: _read_only(rng.standard_normal(n)),
}


@pytest.mark.parametrize("kind", _FIT_INPUTS)
@pytest.mark.parametrize("order", [1, 2, 10, 20])
@pytest.mark.parametrize("length", ["order+2", 64, 3000])
def test_burg_fit_matches_stage_api_bit_for_bit(length, order, kind):
    # burg_fit is the stage API run `order` times; its noise variance is the
    # final stage error over the 2 * (N - order) summed terms
    n = order + 2 if length == "order+2" else length
    x = _FIT_INPUTS[kind](np.random.default_rng(1000 * order + n), n)
    owner = x if x.base is None else x.base
    before = owner.tobytes()
    s = init_state(x)
    for _ in range(order):
        s = update_prediction_errors(s, compute_reflection(s))
    model = burg_fit(x, order, 500.0)
    assert model.reflection_coeffs == s.reflection_coeffs
    assert model.ar_coeffs == s.ar_coeffs
    assert model.noise_variance == stage_error(s) / (2 * (n - order))
    assert owner.tobytes() == before


_ALTERNATING = np.array([1.0, -1.0] * 8)


def _with_sample(value):
    x = np.random.default_rng(3).standard_normal(64)
    x[5] = value
    return x


# each input burg_fit refuses: (signal, order, exception type, message substring)
_FIT_REFUSALS = {
    "nan": (_with_sample(np.nan), 4, DegenerateSignalError, "signal holds non-finite values"),
    "pos_inf": (_with_sample(np.inf), 4, DegenerateSignalError, "signal holds non-finite values"),
    "neg_inf": (_with_sample(-np.inf), 4, DegenerateSignalError, "signal holds non-finite values"),
    "constant": (np.full(64, 3.25), 4, DegenerateSignalError, "signal is constant"),
    "all_zero": (np.zeros(64), 4, DegenerateSignalError, "signal is constant"),
    "overflow": (np.random.default_rng(3).standard_normal(64) * 1e160, 4, DegenerateSignalError,
                 "sums overflow at stage 1; values too large"),
    "underflow": (np.random.default_rng(3).standard_normal(64) * 1e-200, 4, DegenerateSignalError,
                  "sample values too small; their squares underflow"),
    "predictable": (_ALTERNATING, 1, DegenerateSignalError,
                    "signal is perfectly predictable at order 1"),
    "predictable_before_order": (_ALTERNATING, 2, DegenerateSignalError,
                                 "zero prediction-error denominator at stage 2; "
                                 "signal is constant or perfectly predictable"),
    "too_short": (np.arange(8.0), 7, ValueError, "signal length 8 too short for order 7"),
    "order_zero": (np.arange(64.0), 0, ValueError, "order must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", _FIT_REFUSALS)
def test_burg_fit_refusal(case):
    # the suite makes a numpy warning an error, so each refusal is also silent
    x, order, kind, message = _FIT_REFUSALS[case]
    with pytest.raises(kind) as caught:
        burg_fit(x, order, 500.0)
    assert type(caught.value) is kind
    assert message in str(caught.value)


def _chain(x, order):
    """The stage-API chain of one signal: its final state."""
    s = init_state(x)
    for _ in range(order):
        s = update_prediction_errors(s, compute_reflection(s))
    return s


def _dot_fit(x, order):
    """Burg's recursion on one signal with np.dot and Python floats, apart from the
    library's helpers: (reflection coefficients, AR coefficients, noise variance)."""
    f = b = np.ascontiguousarray(x, dtype=np.float64)
    reflection, ar = [], []
    for _ in range(order):
        fs, bs = f[1:], b[:-1]
        r = -2.0 * float(np.dot(fs, bs)) / float(np.dot(fs, fs) + np.dot(bs, bs))
        f, b = bs * r + fs, fs * r + bs
        ar = [a + r * rev for a, rev in zip(ar, ar[::-1])] + [r]
        reflection.append(r)
    return reflection, ar, float(np.dot(f, f) + np.dot(b, b)) / (2 * (len(x) - order))


def _scaled_rows(rows, n, seed):
    """rows standard-normal signals of n samples, each at its own scale in 1e-5..1e5."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-5.0, 5.0, (rows, 1))


@pytest.mark.parametrize("rows", [1, 2, 5, 16])
@pytest.mark.parametrize("order", [1, 2, 10, 20])
@pytest.mark.parametrize("length", ["order+2", 64, 3000])
def test_row_lattice_matches_burg_fit_and_stage_api_bit_for_bit(length, order, rows):
    # each row of the lattice is burg_fit of that row alone, and the stage-API
    # chain; the stacked PSD is psd_from_model of each row's model
    n = order + 2 if length == "order+2" else length
    x = _scaled_rows(rows, n, seed=100 * order + rows + n)
    before = x.tobytes()
    with np.errstate(all="ignore"):
        reflection, ar, noise, refusals = _fit_rows(x, order)
    power = _psd_rows(ar, noise, 500.0, 64)
    assert refusals == [None] * rows
    assert x.tobytes() == before
    for row in range(rows):
        model = burg_fit(x[row], order, 500.0)
        s = _chain(x[row], order)
        assert reflection[row].tolist() == model.reflection_coeffs == s.reflection_coeffs
        assert ar[row].tolist() == model.ar_coeffs == s.ar_coeffs
        assert noise[row] == model.noise_variance == stage_error(s) / (2 * (n - order))
        assert (reflection[row].tolist(), ar[row].tolist(), noise[row]) == _dot_fit(x[row], order)
        assert power[row].tobytes() == psd_from_model(model, 64).power.tobytes()


# a row the lattice refuses: (make it from a standard-normal row, {order: message})
_ROW_REFUSALS = {
    "nan": (lambda x: np.where(np.arange(len(x)) == 5, np.nan, x),
            dict.fromkeys((1, 10), "signal holds non-finite values")),
    "constant": (lambda x: np.full_like(x, 3.25), dict.fromkeys((1, 10), "signal is constant")),
    "overflow": (lambda x: x * 1e160,
                 dict.fromkeys((1, 10), "sums overflow at stage 1; values too large")),
    "underflow": (lambda x: x * 1e-200,
                  dict.fromkeys((1, 10), "sample values too small; their squares underflow")),
    "alternating": (lambda x: np.resize([1.0, -1.0], len(x)),
                    {1: "signal is perfectly predictable at order 1",
                     10: "zero prediction-error denominator at stage 2; "
                         "signal is constant or perfectly predictable"}),
}


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("order", [1, 10])
@pytest.mark.parametrize("case", _ROW_REFUSALS)
def test_row_lattice_refuses_one_row_and_keeps_the_others(case, order, position):
    make, messages = _ROW_REFUSALS[case]
    x = _scaled_rows(5, 64, seed=7)
    x[position] = make(np.random.default_rng(3).standard_normal(64))
    keep = [row for row in range(5) if row != position]
    with np.errstate(all="ignore"):
        reflection, ar, noise, refusals = _fit_rows(x, order)
        alone = _fit_rows(np.ascontiguousarray(x[keep]), order)
    assert type(refusals[position]) is DegenerateSignalError
    assert str(refusals[position]) == messages[order]
    with pytest.raises(DegenerateSignalError) as caught:
        burg_fit(x[position], order, 500.0)
    assert str(caught.value) == messages[order]
    assert [refusals[row] for row in keep] == alone[3] == [None] * 4
    for got, want in zip((reflection, ar, noise), alone[:3]):
        assert got[keep].tobytes() == want.tobytes()


def test_burg_fit_rejects_bad_inputs():
    with pytest.raises(DegenerateSignalError):
        burg_fit(np.full(64, 3.25), 2, 500.0)
    with pytest.raises(ValueError):
        burg_fit(np.arange(8.0), 7, 500.0)  # length must exceed order + 1
    with pytest.raises(ValueError):
        burg_fit(np.arange(64.0), 0, 500.0)
    with pytest.raises(DegenerateSignalError):
        burg_fit(np.array([np.nan, 1.0, 2.0, 3.0]), 1, 500.0)


def test_burg_fit_refuses_sums_that_overflow():
    # finite samples whose squares overflow float64, so r would be inf / inf;
    # burg_fit refuses them without a numpy warning, which the suite makes an error
    x = np.random.default_rng(3).standard_normal(64) * 1e160
    with pytest.raises(DegenerateSignalError, match="overflow"):
        burg_fit(x, 4, 500.0)


def test_burg_fit_refuses_samples_whose_squares_underflow():
    # nonzero samples whose squares all round to zero are neither constant nor
    # predictable; an all-zero signal is still reported as constant
    x = np.random.default_rng(3).standard_normal(64) * 1e-200
    with pytest.raises(DegenerateSignalError, match="too small; their squares underflow"):
        burg_fit(x, 4, 500.0)
    with pytest.raises(DegenerateSignalError, match="signal is constant"):
        compute_reflection(init_state(np.zeros(8)))


def test_burg_fit_perfectly_predictable_signal_errors():
    x = np.array([1.0, -1.0] * 8)
    with pytest.raises(DegenerateSignalError):
        burg_fit(x, 1, 500.0)


def test_burg_fit_scale_equivariance():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(512)
    base = burg_fit(x, 6, 500.0)
    for c in (3.0, -0.01, 1e4):
        scaled = burg_fit(c * x, 6, 500.0)
        np.testing.assert_allclose(scaled.ar_coeffs, base.ar_coeffs, rtol=1e-9)
        np.testing.assert_allclose(scaled.reflection_coeffs, base.reflection_coeffs, rtol=1e-9)
        assert scaled.noise_variance == pytest.approx(base.noise_variance * c * c, rel=1e-9)
        p0 = psd_from_model(base, 64).power
        p1 = psd_from_model(scaled, 64).power
        np.testing.assert_allclose(p1, p0 * c * c, rtol=1e-9)


def test_burg_fit_stability_low_orders():
    rng = np.random.default_rng(23)
    for order in (1, 2, 3, 4):
        for _ in range(10):
            x = rng.standard_normal(256)
            model = burg_fit(x, order, 500.0)
            roots = np.roots(np.concatenate([[1.0], model.ar_coeffs]))
            assert np.all(np.abs(roots) < 1.0)


# ----------------------------------------------------------------------- psd


def test_psd_flat_for_zero_coefficients():
    model = BurgModel(order=1, ar_coeffs=[0.0], reflection_coeffs=[0.0],
                      noise_variance=2.5, sample_rate=500.0)
    psd = psd_from_model(model, 64)
    np.testing.assert_allclose(psd.power, 2.5 / 500.0, rtol=1e-12)


def test_psd_ar1_low_pass_is_monotone():
    model = BurgModel(order=1, ar_coeffs=[-0.9], reflection_coeffs=[-0.9],
                      noise_variance=1.0, sample_rate=500.0)
    psd = psd_from_model(model, 128)
    assert np.all(np.diff(psd.power) < 0)


def test_psd_grid_and_invariants():
    model = BurgModel(order=2, ar_coeffs=[-0.5, 0.2], reflection_coeffs=[0.0, 0.2],
                      noise_variance=1.0, sample_rate=500.0)
    psd = psd_from_model(model, 33)
    assert len(psd.frequencies) == len(psd.power) == 33
    assert psd.frequencies[0] == 0.0
    assert psd.frequencies[-1] == 250.0
    assert np.all(np.diff(psd.frequencies) > 0)
    assert np.all(psd.power >= 0)
    assert np.all(np.isfinite(psd.power))
    with pytest.raises(ValueError):
        psd_from_model(model, 7)


def test_psd_basis_cache_keeps_power_bit_identical_and_read_only():
    model = BurgModel(order=3, ar_coeffs=[-0.5, 0.2, 0.1], reflection_coeffs=[0.0, 0.0, 0.1],
                      noise_variance=1.5, sample_rate=500.0)
    first = psd_from_model(model, 64)
    second = psd_from_model(model, 64)
    assert first.power.tobytes() == second.power.tobytes()
    # the direct, uncached evaluation of the same formula
    freqs = np.linspace(0.0, 250.0, 64)
    basis = np.exp(-1j * np.outer(2.0 * np.pi * freqs / 500.0, np.arange(1, 4)))
    resp = 1.0 + basis @ np.asarray(model.ar_coeffs).astype(np.complex128)
    assert first.power.tobytes() == (1.5 / (500.0 * np.abs(resp) ** 2)).tobytes()
    assert first.frequencies.tobytes() == freqs.tobytes()
    cached_freqs, cached_basis = _psd_basis(64, 3, 500.0)
    assert cached_basis.tobytes() == basis.tobytes()
    for arr in (cached_freqs, cached_basis, first.frequencies):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_psd_integral_recovers_realization_variance():
    for seed, a in ((1, [-0.6]), (2, [-1.0, 0.5])):
        x = ar_realization(a, n=200000, seed=seed)
        model = burg_fit(x, len(a), 500.0)
        psd = psd_from_model(model, 512)
        integral = 2.0 * trapezoid(psd.power, psd.frequencies)
        assert integral == pytest.approx(np.var(x), rel=0.10)
