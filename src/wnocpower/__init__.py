"""Power budgeting for CMOS TX front-ends in wireless networks-on-chip.

Fits frequency-dependent trends to surveyed PA, oscillator, and mixer
figures of merit and composes them into a full TX-chain DC-power model
for design-space exploration.
"""

from .blocks import (
    MixerModel,
    OscModel,
    PaModel,
    mixer_dc_power,
    osc_dc_power,
    pa_dc_power,
)
from .chain import (
    ChainConfig,
    NoAdmissiblePointError,
    PowerBreakdown,
    SweepResult,
    chain_breakdown,
    dominance_report,
    recommend_frequency,
    sweep,
)
from .exampledata import (
    ExampleBundle,
    default_bundle,
    fit_bundle,
    validate_bundle,
)
from .regression import (
    ExpFitModel,
    FitDiagnostics,
    ZeroVarianceError,
    evaluate_fit,
    fit_exponential,
    load_model,
    r_squared,
    save_model,
)
from .survey import (
    BinnedMax,
    BlockKind,
    FrontierStrategy,
    ParetoUpper,
    SurveyDataset,
    SurveyFormatError,
    SurveyRecord,
    best_in_class,
    dataset_digest,
    load_survey_csv,
    parse_survey_csv,
    serialize_survey_csv,
)
from .units import FrequencyGhz, PowerDbm, PowerMilliwatt, dbm_to_mw, mw_to_dbm

__version__ = "0.1.0"
