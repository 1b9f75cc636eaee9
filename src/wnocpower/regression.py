"""Exponential trend fitting for figure-of-merit surveys.

All three block metrics degrade roughly exponentially with frequency, so
the single model family is y(f) = a * exp(b * f), fitted by ordinary
least squares on (f, ln y). The survey sets are small (typically 5 to 15
best-in-class points), which makes the log-linearized fit both adequate
and fully reproducible; no nonlinear refinement is applied. Its sums are
exactly rounded (``math.fsum``), so they do not depend on point order.

Goodness of fit is reported in both domains because a log-domain fit can
look very different against the raw metric values: ``r_squared_log`` is
computed on (ln y, ln y_hat) and ``r_squared_linear`` on (y, y_hat).

Fitted models persist as a small JSON document together with the block
kind, the selection-strategy tag, and a digest of the source dataset, so
every downstream number is traceable to the data it came from.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

from .fileio import write_text_atomic
from .survey import BlockKind, FrontierStrategy, SurveyDataset, best_in_class, load_survey_csv
from .units import FrequencyGhz, _record


class ZeroVarianceError(ValueError):
    """R-squared is undefined: the observations have zero variance."""


class ExpFitModel(_record("ExpFitModel", "a b valid_lo valid_hi r_squared_linear r_squared_log "
                                         "n_points strategy")):
    """Fitted exponential trend y(f) = a * exp(b * f).

    ``a`` is in the metric's own units, ``b`` in 1/GHz. The validity range
    [valid_lo, valid_hi] is the closed frequency span of the fitted
    points; evaluation outside it is allowed but flagged.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float, valid_lo: FrequencyGhz, valid_hi: FrequencyGhz,
                r_squared_linear: float, r_squared_log: float, n_points: int, strategy: str):
        if a <= 0.0 or not math.isfinite(a):
            raise ValueError(f"amplitude must be finite and > 0 (got {a})")
        if not math.isfinite(b):
            raise ValueError(f"rate must be finite (got {b})")
        if valid_lo.value >= valid_hi.value:
            raise ValueError(f"validity range inverted: [{valid_lo.value}, {valid_hi.value}] GHz")
        if n_points < 2:
            raise ValueError(f"a fit requires >= 2 points (got {n_points})")
        for r2 in (r_squared_linear, r_squared_log):
            if not math.isfinite(r2) or r2 > 1.0:
                raise ValueError(f"R-squared must be finite and <= 1 (got {r2})")
        return tuple.__new__(cls, (a, b, valid_lo, valid_hi, r_squared_linear, r_squared_log,
                                   n_points, strategy))


class FitDiagnostics(_record("FitDiagnostics", "residuals_log predicted")):
    """Per-point fit residuals (log domain) and predictions (linear domain)."""

    __slots__ = ()

    def __new__(cls, residuals_log: tuple[float, ...], predicted: tuple[float, ...]):
        if len(residuals_log) != len(predicted):
            raise ValueError("diagnostics arrays must have equal length")
        return tuple.__new__(cls, (residuals_log, predicted))


def r_squared(observed: Sequence[float], predicted: Sequence[float]) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot.

    SS_tot is taken about the mean of ``observed``. The value is 1 for a
    perfect fit, 0 for a fit no better than the mean, and negative for a
    worse one. Constant observations make the quantity undefined and
    raise :class:`ZeroVarianceError` rather than returning a number;
    squared deviations past the float range, or from an inf or nan input,
    raise a ``ValueError``.
    """
    if len(observed) != len(predicted) or len(observed) == 0:
        raise ValueError("observed and predicted must have equal non-zero length")
    try:
        mean = math.fsum(observed) / len(observed)
        ss_tot = math.fsum((o - mean) ** 2 for o in observed)
        if ss_tot == 0.0:
            raise ZeroVarianceError("observations have zero variance; R-squared undefined")
        ss_res = math.fsum((o - p) ** 2 for o, p in zip(observed, predicted))
        if not (math.isfinite(ss_tot) and math.isfinite(ss_res)):
            raise OverflowError
    except OverflowError:
        raise ValueError("squared deviations leave the float range; R-squared undefined") from None
    return 1.0 - ss_res / ss_tot


def _fit_r2(observed: Sequence[float], predicted: Sequence[float]) -> float:
    # Zero variance here implies the fit reproduces the constant exactly
    # (b and the residuals are then exactly zero), so R-squared degenerates
    # to a perfect score.
    try:
        return r_squared(observed, predicted)
    except ZeroVarianceError:
        return 1.0


def fit_exponential(
    points: Sequence[tuple[FrequencyGhz, float]],
    strategy: str = "unspecified",
) -> tuple[ExpFitModel, FitDiagnostics]:
    """Fit y(f) = a * exp(b * f) to (frequency, metric) points.

    Ordinary least squares on (f, ln y). Requires at least two points at
    two distinct frequencies and strictly positive metrics. ``strategy``
    is the frontier-selection tag recorded in the model for provenance.

    Returns the model plus per-point diagnostics.
    """
    freqs = [f.value for f, _ in points]
    metrics = [float(m) for _, m in points]
    n_distinct = len(set(freqs))
    if n_distinct < 2:
        raise ValueError(
            f"exponential fit needs >= 2 distinct frequencies (got {n_distinct})"
        )
    for m in metrics:
        if m <= 0.0 or not math.isfinite(m):
            raise ValueError(f"metrics must be finite and > 0 for a log fit (got {m})")

    log_y = [math.log(m) for m in metrics]
    try:
        f_mean = math.fsum(freqs) / len(freqs)
        y_mean = math.fsum(log_y) / len(log_y)
        b = (math.fsum((f - f_mean) * (y - y_mean) for f, y in zip(freqs, log_y))
             / math.fsum((f - f_mean) ** 2 for f in freqs))
        ln_a = y_mean - b * f_mean
        a = math.exp(ln_a)

        log_pred = [ln_a + b * f for f in freqs]
        pred = [math.exp(lp) for lp in log_pred]
        r2_log, r2_lin = _fit_r2(log_y, log_pred), _fit_r2(metrics, pred)
    except (OverflowError, ZeroDivisionError, ValueError):  # ValueError: from r_squared
        raise ValueError("exponential fit of these points leaves the float range") from None

    model = ExpFitModel(
        a=a,
        b=b,
        valid_lo=FrequencyGhz(min(freqs)),
        valid_hi=FrequencyGhz(max(freqs)),
        r_squared_linear=r2_lin,
        r_squared_log=r2_log,
        n_points=len(points),
        strategy=strategy,
    )
    diagnostics = FitDiagnostics(
        residuals_log=tuple(y - lp for y, lp in zip(log_y, log_pred)),
        predicted=tuple(pred),
    )
    return model, diagnostics


def evaluate_fit(model: ExpFitModel, f: FrequencyGhz) -> tuple[float, bool]:
    """Evaluate the fitted trend at ``f``.

    Returns (metric value, extrapolated flag). The flag is set exactly
    when f lies outside the closed validity range; the value is still
    computed, so out-of-range use is possible but never silent.
    """
    ghz = f.value
    return _fom(model.a, model.b, ghz), ghz < model.valid_lo.value or ghz > model.valid_hi.value


def _fom(a: float, b: float, f: float) -> float:
    """The trend a * exp(b * f) at a plain frequency in GHz; a value past the float range is inf."""
    try:
        return a * math.exp(b * f)
    except OverflowError:
        return math.inf


def fit_survey(path, kind: BlockKind,
               strategy: FrontierStrategy) -> tuple[SurveyDataset, ExpFitModel]:
    """Load the survey CSV at ``path``, check that it holds ``kind`` records,
    and fit its ``strategy`` frontier. Returns the whole dataset and the model."""
    data = load_survey_csv(path)
    if data.kind is not kind:
        raise ValueError(f"{path} holds {data.kind.token} records, expected {kind.token}")
    model, _ = fit_exponential(best_in_class(data, strategy).points(), strategy=strategy.tag)
    return data, model


# --- persistence ----------------------------------------------------------


# The model document's key, JSON type and conversion of each ExpFitModel field, in field order.
_MODEL_FIELDS = (("a", float, None), ("b", float, None), ("valid_lo_ghz", float, FrequencyGhz),
                 ("valid_hi_ghz", float, FrequencyGhz), ("r2_linear", float, None),
                 ("r2_log", float, None), ("n_points", int, None), ("strategy", str, None))


def model_to_dict(block: BlockKind, model: ExpFitModel, source_digest: str) -> dict:
    """JSON-ready document for a fitted block model."""
    fields = {key: value if convert is None else value.value
              for (key, _, convert), value in zip(_MODEL_FIELDS, model)}
    return {"block": block.token, **fields, "source_dataset_digest": source_digest}


def _json(value, kind: type):
    """``value`` as a JSON ``kind`` (float, int or str): any number is a float, a bool is
    never a number, and nothing else is converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        name = {float: "a number", int: "an integer", str: "a string"}[kind]
        raise TypeError(f"expected {name}, got {value!r}")
    return kind(value)


def model_from_dict(doc: dict) -> tuple[BlockKind, ExpFitModel, str]:
    """Parse a model document; every field must have its JSON type, nothing is coerced."""
    def field(name: str, kind: type, convert=None):
        try:
            value = _json(doc[name], kind)
            return value if convert is None else convert(value)
        except KeyError:
            raise ValueError(f"model document is missing field {name!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"model document field {name!r} is invalid: {exc}") from None

    block = field("block", str, BlockKind.from_token)
    model = ExpFitModel(*[field(*spec) for spec in _MODEL_FIELDS])
    return block, model, field("source_dataset_digest", str)


def save_model(path, block: BlockKind, model: ExpFitModel, source_digest: str) -> None:
    """Write a model JSON file atomically. Output is byte-deterministic for fixed inputs."""
    doc = model_to_dict(block, model, source_digest)
    write_text_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_model(path) -> tuple[BlockKind, ExpFitModel, str]:
    """Read a model JSON file back as (block kind, model, source digest).

    A UTF-8 byte-order mark is skipped. Every ``ValueError`` raised names ``path`` first."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ValueError("model document must be a JSON object")
            return model_from_dict(doc)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        except ValueError as exc:  # a UnicodeDecodeError, or a document field
            raise ValueError(f"{path}: {exc}") from None
