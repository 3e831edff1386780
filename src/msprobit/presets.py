"""Named run configurations, each one ``experiment --config`` document.

"experiment1" and "experiment2" carry the reference settings for the two
benchmark studies (experiment2 is the p > n regime with the weaker prior);
"-desk" variants cut replication count and chain length so a full run
finishes in minutes on one core. The full-size presets leave the chain
length to ChainConfig's defaults, which are the reference settings.
Proposal scales are standard deviations; the desk variants share the
corresponding full-size values.

``simulate`` takes a document's design keys, ``fit`` and ``evaluate`` its
``chain`` object, and ``experiment`` the whole document.
"""

from __future__ import annotations

import copy
import math

from .errors import ConfigError

# random-walk proposal sd per scale (scale 1 binary, scales 2-3 four-class)
_PROPOSAL_SD_EXP1 = {"1": 1.0, "2": math.sqrt(0.3), "3": math.sqrt(0.3)}
_PROPOSAL_SD_EXP2 = {"1": math.sqrt(5.0), "2": math.sqrt(1.9), "3": math.sqrt(1.9)}


def _document(*, obs_per_scale, num_features, replications, precision,
              proposal_sd, **chain_length) -> dict:
    return {
        "num_scales": 3,
        "obs_per_scale": obs_per_scale,
        "num_features": num_features,
        "num_thresholds": [1, 3, 3],
        "min_per_class": 1,
        "replications": replications,
        "chain": {
            "prior": {"mean": 0.0, "precision": precision},
            "proposal_sd": proposal_sd,
            **chain_length,
        },
    }


_PRESETS = {
    "experiment1": _document(
        obs_per_scale=400, num_features=48, replications=500, precision=1.0,
        proposal_sd=_PROPOSAL_SD_EXP1,
    ),
    "experiment1-desk": _document(
        obs_per_scale=120, num_features=8, replications=20, precision=1.0,
        proposal_sd=_PROPOSAL_SD_EXP1, burn_in=2_000, thinning=5, stored_draws=400,
    ),
    "experiment2": _document(
        obs_per_scale=40, num_features=48, replications=500, precision=0.1,
        proposal_sd=_PROPOSAL_SD_EXP2,
    ),
    "experiment2-desk": _document(
        obs_per_scale=40, num_features=48, replications=20, precision=0.1,
        proposal_sd=_PROPOSAL_SD_EXP2, burn_in=5_000, thinning=10, stored_draws=500,
    ),
}


def preset(name: str) -> dict:
    """A fresh copy of the named preset's config document."""
    try:
        return copy.deepcopy(_PRESETS[name])
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {', '.join(sorted(_PRESETS))}"
        ) from None
