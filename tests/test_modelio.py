"""Parameter documents: round trips, byte stability, field-path errors."""

import json
import math

import numpy as np
import pytest

from iphfit.emfit import FitConfig, fit_transformed
from iphfit.errors import ModelDocumentError
from iphfit.families import (
    NegLogAffine,
    ParetoExp,
    Power,
    ShiftedPower,
    ShiftedTransform,
    ep_mean,
    mw_moment,
    sp_mean,
    tph_new,
    tph_pdf,
    tph_sf,
)
from iphfit.modelio import doc_to_model, load_model, model_mean, model_to_doc, save_model
from iphfit.phcore import erlang_rep, ph_new


ME_T = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-101.0, -103.0, -3.0]])


def fitted_model(tmp_path):
    rng = np.random.default_rng(5)
    xs = np.expm1(rng.gamma(2.0, 1 / 1.5, 400) + 0.4)
    model, _ = fit_transformed(xs, ParetoExp(), 0.25, FitConfig(phases=2, max_iters=40, seed=3))
    return model


def test_round_trip_preserves_evaluations(tmp_path):
    model = fitted_model(tmp_path)
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    ys = np.geomspace(0.5, 50.0, 31)
    assert np.max(np.abs(tph_pdf(model, ys) - tph_pdf(loaded, ys))) < 1e-15
    assert np.max(np.abs(tph_sf(model, ys) - tph_sf(loaded, ys))) < 1e-15
    assert isinstance(loaded.transform, ShiftedTransform)
    assert loaded.transform.shift == model.transform.shift


def test_resave_is_byte_identical(tmp_path):
    model = fitted_model(tmp_path)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_document_is_valid_json_with_version(tmp_path):
    model = tph_new(erlang_rep(2, 1.0), Power(2.0))
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert doc["version"] == "iph-params/1"
    assert doc["markov"] is True
    assert "exit" not in doc  # derived for Markov representations


def test_me_round_trip_keeps_explicit_exit(tmp_path):
    me = ph_new([101.0, 0.0, 0.0], ME_T, markov=False, exit=[0.0, 0.0, 1.0])
    model = tph_new(me, Power(2.0))
    path = tmp_path / "me.json"
    save_model(model, path)
    loaded = load_model(path)
    assert not loaded.base.markov
    assert np.array_equal(loaded.base.exit, me.exit)
    ys = np.geomspace(0.05, 5.0, 31)
    assert np.max(np.abs(tph_pdf(model, ys) - tph_pdf(loaded, ys))) < 1e-15


def test_all_families_round_trip(tmp_path):
    base = erlang_rep(2, 1.5)
    for i, (tr, want) in enumerate([
        (ParetoExp(), {"family": "pareto", "beta": None}),
        (ParetoExp(beta=2.0), {"family": "pareto", "beta": 2.0}),
        (Power(0.7), {"family": "weibull", "beta": 0.7}),
        (NegLogAffine(1.0, 0.5), {"family": "gumbel", "mu": 1.0, "sigma": 0.5}),
        (ShiftedPower(0.0, 2.0, -0.3), {"family": "gev", "mu": 0.0, "sigma": 2.0, "xi": -0.3}),
    ]):
        model = tph_new(base, tr)
        path = tmp_path / f"f{i}.json"
        save_model(model, path)
        assert list(json.loads(path.read_text())["transform"].items()) == list(want.items())
        loaded = load_model(path)
        save_model(loaded, tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == path.read_bytes()
        qs = np.array([0.2, 0.5, 0.9])
        from iphfit.families import tph_quantile

        ys = tph_quantile(model, qs)
        assert np.max(np.abs(tph_pdf(model, ys) - tph_pdf(loaded, ys))) < 1e-15


def test_field_path_errors():
    ok = {
        "version": "iph-params/1",
        "transform": {"family": "pareto", "beta": None},
        "shift": 0.0,
        "markov": True,
        "pi": [1.0],
        "T": [[-1.0]],
    }
    with pytest.raises(ModelDocumentError, match="version"):
        doc_to_model({**ok, "version": "other/9"})
    with pytest.raises(ModelDocumentError, match="transform"):
        doc_to_model({k: v for k, v in ok.items() if k != "transform"})
    with pytest.raises(ModelDocumentError, match="transform.family"):
        doc_to_model({**ok, "transform": {"family": "cauchy"}})
    with pytest.raises(ModelDocumentError, match="shift"):
        doc_to_model({**ok, "shift": "x"})
    with pytest.raises(ModelDocumentError, match="markov"):
        doc_to_model({**ok, "markov": "yes"})
    with pytest.raises(ModelDocumentError, match=r"pi\[1\]"):
        doc_to_model({**ok, "pi": [1.0, "a"]})
    with pytest.raises(ModelDocumentError, match="T"):
        doc_to_model({**ok, "T": [[-1.0, 0.0]]})
    with pytest.raises(ModelDocumentError, match="representation"):
        doc_to_model({**ok, "pi": [0.5, 0.5], "T": [[-1.0, 2.0], [0.0, -1.0]]})
    with pytest.raises(ModelDocumentError, match="transform.sigma"):
        doc_to_model({**ok, "transform": {"family": "gumbel", "mu": 0.0, "sigma": -1.0}})
    with pytest.raises(ModelDocumentError, match="transform.beta"):
        doc_to_model({**ok, "transform": {"family": "weibull", "beta": -1}})
    with pytest.raises(ModelDocumentError, match="transform.xi"):
        doc_to_model({**ok, "transform": {"family": "gev", "mu": 0.0, "sigma": 1.0, "xi": 0}})
    with pytest.raises(ModelDocumentError, match="transform.family"):
        doc_to_model({**ok, "transform": {"family": ["x"]}})
    with pytest.raises(ModelDocumentError, match="transform.mu"):
        doc_to_model({**ok, "transform": {"family": "gumbel", "sigma": 1.0}})
    assert doc_to_model({**ok, "transform": {"family": "pareto"}}).transform.beta is None


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ModelDocumentError, match="JSON"):
        load_model(path)


def test_serializer_rejects_nonfinite():
    from iphfit.modelio import _fmt

    with pytest.raises(ModelDocumentError):
        _fmt(float("inf"))


def test_model_mean_branches():
    exp3 = erlang_rep(1, 3.0)
    # pareto with unit scale: E[e^X - 1] = lam/(lam-1) - 1
    assert model_mean(tph_new(exp3, ParetoExp())) == pytest.approx(0.5, rel=1e-12)
    assert math.isinf(model_mean(tph_new(erlang_rep(1, 0.5), ParetoExp())))
    mw = tph_new(erlang_rep(2, 1.0), Power(2.0))
    assert model_mean(mw) == pytest.approx(mw_moment(mw, 1.0), rel=1e-12)
    mg = tph_new(exp3, NegLogAffine(1.0, 0.5))
    assert model_mean(mg) == pytest.approx(ep_mean(mg), rel=1e-12)
    mv = tph_new(exp3, ShiftedPower(0.0, 1.0, 0.4))
    assert model_mean(mv) == pytest.approx(sp_mean(mv), rel=1e-12)
    assert math.isinf(model_mean(tph_new(exp3, ShiftedPower(0.0, 1.0, 1.2))))


def test_model_mean_shifted_pareto_closed_form():
    # Y = e^{U + s} - 1: E[Y] = e^s pi (-I-T)^{-1} t - 1
    lam, s = 3.0, 0.2
    d = tph_new(erlang_rep(1, lam), ShiftedTransform(ParetoExp(), s))
    want = math.exp(s) * lam / (lam - 1.0) - 1.0
    assert model_mean(d) == pytest.approx(want, rel=1e-10)


def test_model_mean_shifted_laws_by_quadrature():
    # Y = (U + 2)^2 with U ~ Erlang(3, 2): E U = 3/2 and E U^2 = 3, so E Y = 13
    d = tph_new(erlang_rep(3, 2.0), ShiftedTransform(Power(0.5), 2.0))
    assert model_mean(d) == pytest.approx(13.0, rel=1e-12)
    # Y = 1 - log(U + 0.3) / 2, against the Erlang(3, 2) density in mpmath
    import mpmath

    g = tph_new(erlang_rep(3, 2.0), ShiftedTransform(NegLogAffine(1.0, 0.5), 0.3))
    with mpmath.workdps(30):
        want = mpmath.quad(
            lambda u: (1 - mpmath.log(u + 0.3) / 2) * 4 * u**2 * mpmath.exp(-2 * u),
            [0, 1, mpmath.inf],
        )
    assert model_mean(g) == pytest.approx(float(want), rel=1e-10)


def test_model_mean_of_a_shifted_gev_law_by_quadrature():
    # Y = 2((U + s)^(-1/2) - 1) with U ~ Erlang(2, 1), so with t = u + s
    # E Y = 2(e^s (Gamma(3/2, s) - s Gamma(1/2, s)) - 1)
    import mpmath

    s = 1e-8
    d = tph_new(erlang_rep(2, 1.0), ShiftedTransform(ShiftedPower(0.0, 1.0, 0.5), s))
    with mpmath.workdps(30):
        want = 2 * (mpmath.exp(s) * (mpmath.gammainc(1.5, s) - s * mpmath.gammainc(0.5, s)) - 1)
    assert float(want) == pytest.approx(-0.22754616681635608, rel=1e-15)
    assert abs(model_mean(d) - float(want)) <= 1e-11


def test_model_to_doc_shift_unwrapping():
    d = tph_new(erlang_rep(1, 1.0), ShiftedTransform(Power(2.0), 0.7))
    doc = model_to_doc(d)
    assert doc["shift"] == 0.7
    assert doc["transform"]["family"] == "weibull"
