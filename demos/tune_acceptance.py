# Random-walk threshold moves need a sensible step size. Too small and
# the chain crawls, too large and everything is rejected. Tune toward the
# classical 0.234 target and show realized rates before and after.

import numpy as np
from dataclasses import replace

from msprobit import ChainConfig, run_chains, simulate_dataset, tune_proposal

rng = np.random.default_rng(3)
sim = simulate_dataset(2, 120, 5, (2, 3), 1, rng)
dataset = sim.dataset

# deliberately bad starting step sizes
config = ChainConfig(
    proposal_sd={1: 5.0, 2: 0.01},
    burn_in=1000,
    thinning=2,
    stored_draws=400,
    seed=11,
)

before = run_chains(dataset, config).accept_rate
print("acceptance rates with hand-picked step sizes:")
for sid, rate in sorted(before.items()):
    print(f"  scale {sid}: sd={config.proposal_sd_for(sid):<6g} rate={rate:.3f}")

tuned = tune_proposal(dataset, config, target_rate=0.234)
after = run_chains(dataset, replace(config, proposal_sd=tuned)).accept_rate

print()
print("after tuning toward 0.234:")
for sid, rate in sorted(after.items()):
    print(f"  scale {sid}: sd={tuned[sid]:<8.4f} rate={rate:.3f}")
