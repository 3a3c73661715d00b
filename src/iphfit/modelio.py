"""Serialization of fitted models and whole-model evaluation.

The params document is a UTF-8 JSON text with version tag "iph-params/1":

    {
      "version": "iph-params/1",
      "transform": {"family": "pareto", "beta": null},
      "shift": 0.0,
      "markov": true,
      "pi": [...],
      "T": [[...], ...],
      "exit": [...]            # only for non-Markov representations
    }

The transform object holds the family name (a key of
``families.FAMILIES``) and then that transform's dataclass fields in
declaration order; a field whose default is None may be null or absent.
Reals are written with 17 significant digits, so a load followed by a
save is byte-stable and evaluation round-trips bitwise.  Loading re-runs
the transform's own parameter checks and full representation
validation; schema problems raise ModelDocumentError naming the
offending field path.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
from scipy.integrate import quad

from .errors import DivergentMomentError, ModelDocumentError, ValidationError
from .families import (
    FAMILIES,
    NegLogAffine,
    ParetoExp,
    Power,
    ShiftedPower,
    ShiftedTransform,
    TransformedPH,
    ep_mean,
    mp_shifted_frac_moment,
    mw_moment,
    sp_mean,
    tph_new,
)
from .phcore import ph_new, ph_pdf

__all__ = [
    "model_to_doc",
    "doc_to_model",
    "save_model",
    "load_model",
    "model_mean",
    "dumps_doc",
]

VERSION = "iph-params/1"


# ---------------------------------------------------------------------------
# document construction
# ---------------------------------------------------------------------------

def model_to_doc(model: TransformedPH) -> dict:
    tr = model.transform
    shift = 0.0
    if isinstance(tr, ShiftedTransform):
        shift = float(tr.shift)
        tr = tr.inner
    if type(tr) not in FAMILIES.values():
        raise ModelDocumentError(f"transform: cannot serialize {type(tr).__name__}")
    doc = {
        "version": VERSION,
        "transform": {"family": tr.tag, **dataclasses.asdict(tr)},
        "shift": shift,
        "markov": bool(model.base.markov),
        "pi": [float(v) for v in model.base.pi],
        "T": [[float(v) for v in row] for row in model.base.T],
    }
    if not model.base.markov:
        doc["exit"] = [float(v) for v in model.base.exit]
    return doc


def _fmt(x) -> str:
    """JSON fragment for one value; floats carry 17 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if not math.isfinite(v):
            raise ModelDocumentError(f"cannot serialize non-finite real {v}")
        return format(v, ".17g")
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in x) + "]"
    if isinstance(x, dict):
        items = (f"{json.dumps(k)}: {_fmt(v)}" for k, v in x.items())
        return "{" + ", ".join(items) + "}"
    raise ModelDocumentError(f"cannot serialize value of type {type(x).__name__}")


def dumps_doc(doc: dict) -> str:
    """Pretty one-key-per-line rendering with exact float text."""
    lines = [f'  {json.dumps(k)}: {_fmt(v)}' for k, v in doc.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def save_model(model: TransformedPH, path) -> dict:
    doc = model_to_doc(model)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_doc(doc))
    return doc


# ---------------------------------------------------------------------------
# document loading
# ---------------------------------------------------------------------------

def _need(doc: dict, key: str, where: str = ""):
    if key not in doc:
        raise ModelDocumentError(f"{where}{key}: missing")
    return doc[key]


def _real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelDocumentError(f"{where}: expected a real number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ModelDocumentError(f"{where}: must be finite, got {v}")
    return v


def _vector(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ModelDocumentError(f"{where}: expected a nonempty array")
    return np.array([_real(v, f"{where}[{i}]") for i, v in enumerate(value)])


def _load_transform(tdoc) -> object:
    """Transform from its family's fields; one defaulting to None may be absent or null."""
    if not isinstance(tdoc, dict):
        raise ModelDocumentError("transform: expected an object")
    fam = _need(tdoc, "family", "transform.")
    cls = FAMILIES.get(fam) if isinstance(fam, str) else None
    if cls is None:
        raise ModelDocumentError(f"transform.family: unknown family {fam!r}")
    params = {}
    for f in dataclasses.fields(cls):
        if f.default is None and tdoc.get(f.name) is None:
            params[f.name] = None
        else:
            params[f.name] = _real(_need(tdoc, f.name, "transform."), f"transform.{f.name}")
    try:
        return cls(**params)
    except ValidationError as exc:
        raise ModelDocumentError(f"transform.{exc}") from exc


def doc_to_model(doc: dict) -> TransformedPH:
    if not isinstance(doc, dict):
        raise ModelDocumentError("document root: expected an object")
    version = _need(doc, "version")
    if version != VERSION:
        raise ModelDocumentError(f"version: expected {VERSION!r}, got {version!r}")
    transform = _load_transform(_need(doc, "transform"))
    shift = _real(_need(doc, "shift"), "shift")
    markov = _need(doc, "markov")
    if not isinstance(markov, bool):
        raise ModelDocumentError(f"markov: expected true/false, got {markov!r}")
    pi = _vector(_need(doc, "pi"), "pi")
    Traw = _need(doc, "T")
    if not isinstance(Traw, list) or not Traw:
        raise ModelDocumentError("T: expected a nonempty array of rows")
    rows = [_vector(row, f"T[{i}]") for i, row in enumerate(Traw)]
    if any(r.size != len(rows) for r in rows):
        raise ModelDocumentError("T: must be square")
    T = np.vstack(rows)
    try:
        if markov:
            base = ph_new(pi, T, markov=True)
        else:
            exit_vec = _vector(_need(doc, "exit"), "exit")
            base = ph_new(pi, T, markov=False, exit=exit_vec)
        composed = transform if shift == 0.0 else ShiftedTransform(transform, shift)
        return tph_new(base, composed)
    except ModelDocumentError:
        raise
    except Exception as exc:
        raise ModelDocumentError(f"representation: {exc}") from exc


def load_model(path) -> TransformedPH:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelDocumentError(f"document: not valid JSON ({exc})") from exc
    return doc_to_model(doc)


# ---------------------------------------------------------------------------
# whole-model summaries
# ---------------------------------------------------------------------------

def model_mean(model: TransformedPH) -> float:
    """E(Y) of the composed model; +inf when the mean diverges."""
    tr = model.transform
    shift = 0.0
    inner = tr
    if isinstance(tr, ShiftedTransform):
        shift, inner = float(tr.shift), tr.inner
    base = model.base
    if isinstance(inner, ParetoExp):
        try:
            exp_moment = mp_shifted_frac_moment(tph_new(base, inner), 1.0)  # E e^X
        except DivergentMomentError:
            return math.inf
        return inner.scale(model.mu) * (math.exp(shift) * exp_moment - 1.0)
    if isinstance(inner, ShiftedPower) and inner.xi >= 1.0:
        return math.inf
    if shift == 0.0:
        if isinstance(inner, Power):
            return mw_moment(model, 1.0)
        if isinstance(inner, NegLogAffine):
            return ep_mean(model)
        if isinstance(inner, ShiftedPower):
            return sp_mean(model)
    val, _ = quad(
        lambda u: float(tr.from_x(u, model.mu)) * ph_pdf(base, u),
        0.0,
        model.x_cap,
        limit=400,
    )
    return float(val)
