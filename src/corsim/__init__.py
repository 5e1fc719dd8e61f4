"""corsim: deterministic lock-step simulation of Byzantine-tolerant,
self-stabilizing consensus object recycling.

The stack under test: recyclable consensus objects with delivery
indications, a synchronous multivalued consensus recomputed every schedule
cycle, a coin-assisted simultaneous increment-or-get index, and a window
recycler that resets every slot outside the live window. The harness drives
all of it under Byzantine nodes and one-shot arbitrary state corruption and
checks the recycling properties on the recorded traces.
"""

from .env import (
    CoinOracle,
    Params,
    clock_read,
    derive_kappa,
    make_params,
    params_validate,
)
from .harness import (
    ConfigError,
    Metrics,
    Trace,
    TrialConfig,
    assumption1_violations,
    emit,
    instances_completed,
    legality_violations,
    run_ensemble,
    run_trial,
    stream_ensemble,
    summarize,
)
from .mvc import EigConsensus, MvcController
from .recyclable import CORE_ERROR, RecyclableObject
from .recycler import ObjectArray, window
from .sig_index import SigIndex
from .transport import (
    CoPayload,
    Envelope,
    EstPayload,
    RoundMail,
    SigPayload,
    exchange,
    serialize_envelope,
)

__all__ = [
    "CoinOracle",
    "Params",
    "clock_read",
    "derive_kappa",
    "make_params",
    "params_validate",
    "ConfigError",
    "Metrics",
    "Trace",
    "TrialConfig",
    "assumption1_violations",
    "emit",
    "instances_completed",
    "legality_violations",
    "run_ensemble",
    "run_trial",
    "stream_ensemble",
    "summarize",
    "EigConsensus",
    "MvcController",
    "CORE_ERROR",
    "RecyclableObject",
    "ObjectArray",
    "window",
    "SigIndex",
    "CoPayload",
    "Envelope",
    "EstPayload",
    "RoundMail",
    "SigPayload",
    "exchange",
    "serialize_envelope",
]

__version__ = "0.1.0"
