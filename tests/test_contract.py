"""The argument contract of every public callable, by fuzzing.

Each row of ``CASES`` names a callable of ``eegx.__all__``, valid keyword
arguments for it and the arguments to fuzz: its array and number
arguments, those a plain record stores unchecked included, so that a
check added to one later is held to the contract too. Each bad value of
``BAD`` takes the place of each fuzzed argument in turn, and the call
must either return or raise an :class:`EegxError` subclass, never a raw
Python or numpy exception. Arguments that take a package object (a
recording, fit, transform, spectrum, band or sample), a file path or
channel labels are not fuzzed: the wrong kind of object there is a
programming error, which Python reports. A callable that takes nothing
else has a row with no fuzzed argument that says why.
"""

import dataclasses
import re
from dataclasses import dataclass

import numpy as np
import pytest

import eegx
from eegx import DataError, EegxError, ValidationError

BAD = {
    "text": "abc",
    "ragged": [[1.0, 2.0], [3.0]],
    "object": np.array(["a", 1.0], dtype=object),
    "dict": {"a": 1.0},
    "none": None,
    "complex": np.array([1.0 + 2.0j, 3.0 - 1.0j]),
    "nan": float("nan"),
    "inf": float("inf"),
    "0-d": np.array(0.5),
    "3-D": np.full((2, 3, 4), 0.5),
    "empty": np.array([]),
}

#: stands for a recording written to a fresh temporary directory
SAVED = object()


@dataclass(frozen=True)
class Case:
    kwargs: dict
    fuzz: tuple[str, ...]
    call: object = None  # defaults to the public name itself
    why_not: str = ""  # set when fuzz is empty


def _fixtures():
    rec = eegx.gen_synthetic_eeg(3, 2_000, 0.5, seed=1)
    x = np.array(rec.channel("T3"))
    excesses = eegx.gen_gpd(200, 1.0, 0.1, seed=2)
    fits, transforms = eegx.conditional_model(rec, "T3")
    mt = transforms["T3"]
    sample = eegx.simulate_conditional(list(fits.values()), 0.99, 50, seed=0)
    a, b = eegx.gen_gaussian_copula_pair(500, 0.5, seed=3)
    return dict(
        rec=rec,
        x=x,
        excesses=excesses,
        gpd=eegx.fit_gpd(excesses),
        mt=mt,
        ht=fits["Fp1"],
        fits=list(fits.values()),
        sample=sample,
        scores=(eegx.uniform_scores(a), eegx.uniform_scores(b)),
        laplace=(eegx.to_laplace(x, mt), eegx.to_laplace(rec.channel("Fp1"), transforms["Fp1"])),
        matrix=np.column_stack([a, b, a + b]),
        spec=eegx.periodogram(x, 100.0),
        band=eegx.DEFAULT_BANDS[1],
        filt=eegx.design_bandpass(eegx.DEFAULT_BANDS[1], 100.0),
        epochs=eegx.split_at_onset(rec),
    )


F = _fixtures()


CASES = {
    # recordings
    "EegRecording": Case(
        dict(channels=("a", "b"), fs=10.0, data=np.arange(8.0).reshape(4, 2), onset_index=2),
        ("data", "fs", "onset_index"),
    ),
    "EpochPair": Case(
        dict(pre=F["epochs"].pre, post=F["epochs"].post),
        (),
        why_not="takes only recordings",
    ),
    "load_recording": Case(dict(path=SAVED, fs=100.0, onset_index=1_000), ("fs", "onset_index")),
    "save_recording": Case(
        dict(rec=F["rec"], path=SAVED), (), why_not="takes a recording and a path"
    ),
    "select_channels": Case(
        dict(rec=F["rec"], names=("Fp1", "T3")), (), why_not="takes a recording and labels"
    ),
    "split_at_onset": Case(dict(rec=F["rec"]), (), why_not="takes only a recording"),
    # preprocessing
    "BandDefinition": Case(dict(id="b", low_hz=1.0, high_hz=4.0), ("low_hz", "high_hz")),
    "BandDecomposition": Case(
        dict(channels=("a",), fs=10.0, onset_index=None, bands={}, specs={}, omitted=()),
        ("fs", "onset_index"),
    ),
    "FilterSpec": Case(
        dict(band=F["band"], order=4, fs=100.0, sos=F["filt"].sos, high_hz_effective=8.0),
        ("order", "fs", "sos", "high_hz_effective"),
    ),
    "design_bandpass": Case(dict(band=F["band"], fs=100.0, order=4), ("fs", "order")),
    "apply_zero_phase": Case(dict(x=F["x"], spec=F["filt"]), ("x",)),
    "detrend": Case(dict(x=F["x"]), ("x",)),
    "decompose_bands": Case(dict(rec=F["rec"], order=4), ("order",)),
    # spectra
    "SpectrumEstimate": Case(
        dict(freqs_hz=F["spec"].freqs_hz, power=F["spec"].power, method="m", fs=100.0),
        ("freqs_hz", "power", "fs"),
    ),
    "periodogram": Case(dict(x=F["x"], fs=100.0), ("x", "fs")),
    "welch": Case(
        dict(x=F["x"], fs=100.0, seg_len=256, overlap=0.5), ("x", "fs", "seg_len", "overlap")
    ),
    "band_power": Case(
        dict(spec=F["spec"], band=F["band"]), (), why_not="takes a spectrum and a band"
    ),
    # univariate tails
    "GpdFit": Case(
        dict(
            threshold_u=0.0, sigma=1.0, xi=0.1, zeta_u=0.5, n_exceed=10,
            se_sigma=0.1, se_xi=0.1, nll=1.0,
        ),
        ("sigma", "zeta_u"),
    ),
    "ThresholdDiagnostics": Case(
        dict(grid=np.ones(2), n_exceed=np.ones(2), flagged=np.zeros(2, bool)),
        ("grid", "n_exceed", "flagged"),
    ),
    "ClusterSet": Case(
        dict(run_length_r=1, threshold_u=0.0, peak_indices=np.arange(2), peak_values=np.ones(2),
             n_clusters=2),
        ("threshold_u", "peak_values"),
    ),
    "mean_residual_life": Case(dict(data=F["x"], grid=np.array([0.0, 1.0])), ("data", "grid")),
    "parameter_stability": Case(dict(data=F["x"], grid=np.array([0.0, 1.0])), ("data", "grid")),
    "decluster_runs": Case(
        dict(data=F["x"], threshold_u=1.0, run_length_r=2), ("data", "threshold_u", "run_length_r")
    ),
    "fit_gpd": Case(
        dict(excesses=F["excesses"], threshold_u=1.0, zeta_u=0.1),
        ("excesses", "threshold_u", "zeta_u"),
    ),
    "return_level": Case(dict(fit=F["gpd"], m=100.0, obs_per_unit=1.0), ("m", "obs_per_unit")),
    "fit_channel_tail": Case(
        dict(series=F["x"], threshold_quantile=0.95, run_length_r=2),
        ("series", "threshold_quantile", "run_length_r"),
    ),
    # extremal dependence
    "ChiEstimate": Case(
        dict(pair=("a", "b"), u=0.9, chi=0.5, chibar=0.5, ci_chi=(0.4, 0.6),
             ci_chibar=(0.4, 0.6), n_eff=10),
        ("u", "chi", "chibar"),
    ),
    "ChiMatrix": Case(
        dict(channels=("a", "b"), u=0.9, estimates=(), chi_values=np.eye(2),
             chibar_values=np.eye(2)),
        ("u", "chi_values", "chibar_values"),
    ),
    "uniform_scores": Case(dict(x=F["x"]), ("x",)),
    "chi_u": Case(
        dict(scores_x=F["scores"][0], scores_y=F["scores"][1], u=0.9),
        ("scores_x", "scores_y", "u"),
    ),
    "chi_matrix": Case(
        dict(data=F["matrix"], u=0.9, n_boot=1, seed=0, mean_block_len=2.0),
        ("data", "u", "n_boot", "seed", "mean_block_len"),
    ),
    "chi_matrices": Case(
        dict(data=F["matrix"], levels=(0.9, 0.95), n_boot=1, seed=0, mean_block_len=2.0),
        ("data", "levels", "n_boot", "seed", "mean_block_len"),
    ),
    # conditional extremes
    "MarginalTransform": Case(
        dict(channel="a", sorted_sample=F["mt"].sorted_sample, u=F["mt"].u, gpd=F["mt"].gpd,
             zeta_u=F["mt"].zeta_u),
        ("sorted_sample", "u", "zeta_u"),
    ),
    "HtFit": Case(
        dict(cond_channel="a", dep_channel="b", alpha=0.5, beta=0.2, mu=0.0, s=1.0,
             residuals_z=np.ones(3), cond_threshold_laplace=2.0, n_exceed=3, nll=1.0),
        ("alpha", "beta", "mu", "s", "residuals_z", "n_exceed"),
    ),
    "ConditionalSample": Case(
        dict(cond_channel="a", dep_channels=("b",), cond_level_laplace=1.0,
             cond_draws=np.array([2.0, 3.0]), draws=np.ones((2, 1))),
        ("cond_level_laplace", "cond_draws", "draws"),
    ),
    "laplace_quantile": Case(dict(p=np.array([0.1, 0.9])), ("p",)),
    "laplace_cdf": Case(dict(y=np.array([-1.0, 1.0])), ("y",)),
    "fit_marginal": Case(dict(x=F["x"], threshold_quantile=0.95), ("x", "threshold_quantile")),
    "to_laplace": Case(dict(x=F["x"], mt=F["mt"]), ("x",)),
    "from_laplace": Case(dict(y=F["laplace"][0], mt=F["mt"]), ("y",)),
    "fit_ht": Case(
        dict(y_cond=F["laplace"][0], y_dep=F["laplace"][1], cond_quantile=0.95),
        ("y_cond", "y_dep", "cond_quantile"),
    ),
    "conditional_model": Case(
        dict(rec=F["rec"], cond_channel="T3", cond_quantile=0.95, marginal_quantile=0.95),
        ("cond_quantile", "marginal_quantile"),
    ),
    "simulate_conditional": Case(
        dict(fits=F["fits"], level_q=0.99, n_sim=20, seed=0), ("level_q", "n_sim", "seed")
    ),
    "conditional_summary": Case(dict(sample=F["sample"]), (), why_not="takes only a sample"),
    # oracles
    "SimSpec": Case(dict(kind="gpd", seed=0, params={}), ("seed",)),
    "gen_gpd": Case(dict(n=10, sigma=1.0, xi=0.1, seed=0), ("n", "sigma", "xi", "seed")),
    "gen_exponential": Case(dict(n=10, sigma=1.0, seed=0), ("n", "sigma", "seed")),
    "gen_gaussian_copula_pair": Case(dict(n=10, rho=0.5, seed=0), ("n", "rho", "seed")),
    "gen_comonotone_pair": Case(dict(n=10, seed=0), ("n", "seed")),
    "gen_independent_pair": Case(dict(n=10, seed=0), ("n", "seed")),
    "gen_synthetic_eeg": Case(
        dict(channels=2, T=1_000, onset_fraction=0.5, seed=0),
        ("channels", "T", "onset_fraction", "seed"),
    ),
    "generate": Case(
        dict(n=10, sigma=1.0, xi=0.1, seed=0),
        ("n", "sigma", "xi", "seed"),
        call=lambda seed, **params: eegx.generate(eegx.SimSpec("gpd", seed, params)),
    ),
}
for _name in eegx.__all__:  # an error takes any message
    _cls = getattr(eegx, _name)
    if isinstance(_cls, type) and issubclass(_cls, EegxError):
        CASES[_name] = Case(dict(value="msg"), ("value",), call=lambda value, cls=_cls: cls(value))


def _bad_values(valid):
    """``BAD``, with NaN and Inf put inside a copy of ``valid`` where it
    is a float array, so they reach the checks behind the shape checks."""
    values = dict(BAD)
    if isinstance(valid, np.ndarray) and valid.dtype.kind == "f" and valid.size:
        for key, v in (("nan", np.nan), ("inf", np.inf)):
            arr = valid.copy()
            arr.flat[arr.size // 2] = v
            values[key] = arr
    return values


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "rec.csv"
    eegx.save_recording(F["rec"], path)
    return path


def _call(name, kwargs, saved):
    case = CASES[name]
    kwargs = {k: saved if v is SAVED else v for k, v in kwargs.items()}
    return (case.call or getattr(eegx, name))(**kwargs)


FUZZ = [
    pytest.param(name, arg, key, id=f"{name}-{arg}-{key}")
    for name, case in CASES.items()
    for arg in case.fuzz
    for key in BAD
]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name, arg, key", FUZZ)
def test_bad_argument_returns_or_raises_eegx_error(name, arg, key, saved):
    kwargs = dict(CASES[name].kwargs)
    kwargs[arg] = _bad_values(kwargs[arg])[key]
    try:
        _call(name, kwargs, saved)
    except EegxError:
        pass


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(CASES))
def test_valid_arguments_return(name, saved):
    _call(name, CASES[name].kwargs, saved)


def test_every_public_callable_has_a_row():
    public = {n for n in eegx.__all__ if callable(getattr(eegx, n))}
    assert public == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_row_fuzzes_or_says_why_not(name):
    case = CASES[name]
    assert bool(case.fuzz) != bool(case.why_not)
    assert set(case.fuzz) <= set(case.kwargs)


@pytest.mark.parametrize(
    "call",
    [
        eegx.detrend,
        eegx.uniform_scores,
        lambda x: eegx.apply_zero_phase(x, F["filt"]),
        lambda x: eegx.periodogram(x, 100.0),
        lambda x: eegx.welch(x, 100.0, 256),
    ],
    ids=["detrend", "uniform_scores", "apply_zero_phase", "periodogram", "welch"],
)
def test_complex_series_is_data_error(call):
    with pytest.raises(DataError, match="must hold real numbers"):
        call(F["x"] + 1j)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call",
    [
        eegx.detrend,
        lambda x: eegx.apply_zero_phase(x, F["filt"]),
        lambda x: eegx.periodogram(x, 100.0),
        lambda x: eegx.welch(x, 100.0, 256),
    ],
    ids=["detrend", "apply_zero_phase", "periodogram", "welch"],
)
def test_non_finite_series_is_data_error(call, bad):
    x = F["x"].copy()
    x[100] = bad
    with pytest.raises(DataError, match="must be finite"):
        call(x)


@pytest.mark.parametrize(
    "value, error",
    [
        ("1.5", DataError),
        ([[1.0], [2.0, 3.0]], DataError),
        (np.array([1.0, "a"], dtype=object), DataError),
        (np.array([1.0], dtype=object), DataError),
        ({"a": 1}, DataError),
        (None, DataError),
        (np.ones(2, dtype=complex), DataError),
        (np.ones((2, 2)), ValidationError),
    ],
    ids=["text", "ragged", "object-text", "object-float", "dict", "none", "complex", "ndim"],
)
def test_check_floats_classes(value, error):
    from eegx.errors import check_floats

    with pytest.raises(error, match="^x must"):
        check_floats(value, "x", ndim=1, finite=True)


def test_check_floats_converts_without_copy():
    from eegx.errors import check_floats

    x = np.arange(4.0)
    assert check_floats(x, "x", ndim=1, finite=True) is x
    assert check_floats([True, 2, 3.5], "x").tolist() == [1.0, 2.0, 3.5]
    with pytest.raises(DataError, match="^x must be finite"):
        check_floats([1.0, np.nan], "x", finite=True)


def _with_nan(values, key):
    out = np.array(values, dtype=float)
    out[out.size // 2] = np.nan
    return {key: out}


#: Calls that once returned: each scalar argument and record field is now
#: bounded by ``check_real``, and ``check_int`` takes no bool.
HOLES = [
    ("fit_gpd", dict(threshold_u=np.nan)),
    ("fit_gpd", dict(threshold_u=np.inf)),
    ("fit_gpd", dict(threshold_u=True)),
    ("GpdFit", dict(sigma=np.inf)),
    ("GpdFit", dict(xi=np.nan)),
    ("HtFit", dict(s=np.inf)),
    ("HtFit", dict(mu=np.nan)),
    ("SpectrumEstimate", _with_nan(F["spec"].freqs_hz, "freqs_hz")),
    ("SpectrumEstimate", _with_nan(F["spec"].power, "power")),
    ("SpectrumEstimate", dict(fs=-1)),
    ("FilterSpec", dict(fs=np.nan)),
    ("BandDefinition", dict(high_hz=np.inf)),
    ("EegRecording", dict(onset_index=True)),
    ("gen_gpd", dict(n=True, seed=False)),
]


@pytest.mark.parametrize(
    "name, override",
    [pytest.param(n, o, id=f"{n}-{'-'.join(o)}-{k}") for k, (n, o) in enumerate(HOLES)],
)
def test_probed_hole_raises(name, override, saved):
    with pytest.raises(EegxError):
        _call(name, {**CASES[name].kwargs, **override}, saved)


#: Record fields that hold NaN by contract: standard errors a fit cannot give.
NAN_BY_CONTRACT = {("GpdFit", "se_sigma"), ("GpdFit", "se_xi")}


def _float_fields(exempt=()):
    """(record, field) for every float field of a public record that
    checks itself in ``__post_init__``, less ``exempt``."""
    return [
        (name, f.name)
        for name in eegx.__all__
        if dataclasses.is_dataclass(cls := getattr(eegx, name)) and "__post_init__" in vars(cls)
        for f in dataclasses.fields(cls)
        if f.type in ("float", float) and (name, f.name) not in exempt
    ]


@pytest.mark.parametrize(
    "name, field, value",
    [
        pytest.param(name, field, value, id=f"{name}.{field}={value}")
        for name, field in _float_fields(NAN_BY_CONTRACT)
        for value in (np.nan, np.inf, -np.inf)
    ],
)
def test_float_field_rejects_non_finite(name, field, value, saved):
    with pytest.raises(EegxError):
        _call(name, {**CASES[name].kwargs, field: value}, saved)


def test_nan_by_contract_fields_exist():
    assert NAN_BY_CONTRACT <= set(_float_fields())


@pytest.mark.parametrize(
    "value, interval, inside",
    [
        (0.0, "[0, 1]", True),
        (0.0, "(0, 1]", False),
        (1.0, "(0, 1]", True),
        (1.0, "[0, 1)", False),
        (np.float32(0.5), "(0, 1)", True),
        (np.int64(7), "[1, inf)", True),
        (np.inf, "[1, inf)", False),
        (-1e300, "(-inf, inf)", True),
        (-np.inf, "(-inf, inf)", False),
        (np.nan, "(-inf, inf)", False),
    ],
)
def test_check_real_interval(value, interval, inside):
    from eegx.errors import UsageError, check_real

    if inside:
        assert check_real(value, "x", interval) == float(value)
    else:
        with pytest.raises(UsageError, match=rf"^x must lie in {re.escape(interval)}, got "):
            check_real(value, "x", interval)


@pytest.mark.parametrize("value", [True, np.bool_(False), "1", np.array(0.5), 1j, None])
def test_check_real_refuses_non_reals(value):
    from eegx.errors import UsageError, check_real

    with pytest.raises(UsageError, match="^x must be a real number"):
        check_real(value, "x")
