# More features than observations per scale: a single scale's 40 rows
# cannot pin down 48 coefficients, but three scales pooled under a
# ridge-like prior can still rank them usefully.

import numpy as np

from msprobit import (
    ChainConfig,
    Design,
    Prior,
    per_draw_rmse,
    run_chains,
    simulate_dataset,
)

rng = np.random.default_rng(8)
design = Design(num_scales=3, obs_per_scale=40, num_features=48,
                num_thresholds=(1, 3, 3), min_per_class=5)
sim = simulate_dataset(design, rng)
pooled = sim.dataset

print(f"{pooled.num_features} features, {pooled.num_obs} pooled observations,")
print(f"{pooled.rows_for_scale(1).size} observations on each scale alone")
print()

# precision 0.1 = weak ridge; keeps the p > n posterior proper
config = ChainConfig(
    prior=Prior(mean=0.0, precision=0.1),
    proposal_sd={1: 5.0 ** 0.5, 2: 1.9 ** 0.5, 3: 1.9 ** 0.5},
    burn_in=5000,
    thinning=10,
    stored_draws=500,
    seed=17,
)

# recovery metric of the built-in experiments: RMSE of each stored draw
# against the truth, averaged over the posterior
multi = run_chains(pooled, config)
err_multi = per_draw_rmse(multi.beta_draws, sim.beta_true).mean()

single = run_chains(pooled.restrict_to_scale(2), config)
err_single = per_draw_rmse(single.beta_draws, sim.beta_true).mean()

print(f"posterior coefficient RMSE, pooled fit:      {err_multi:.4f}")
print(f"posterior coefficient RMSE, scale 2 alone:   {err_single:.4f}")
print()

# sign recovery on the largest true coefficients
order = np.argsort(-np.abs(sim.beta_true))[:10]
agree = np.sign(multi.beta_draws.mean(axis=0)[order]) == np.sign(sim.beta_true[order])
print(f"sign agreement on the 10 largest coefficients: {int(agree.sum())}/10")
