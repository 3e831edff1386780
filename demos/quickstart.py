# Simulate ordinal data on two scales, fit the shared-coefficient model,
# and compare the posterior to the generating parameters.

import numpy as np

from msprobit import ChainConfig, Design, run_chains, simulate_dataset

rng = np.random.default_rng(7)
design = Design(num_scales=2, obs_per_scale=150, num_features=4, num_thresholds=(1, 2))
sim = simulate_dataset(design, rng)
dataset = sim.dataset

print(f"{dataset.num_obs} observations, {dataset.num_features} features")
for s in dataset.scales:
    rows = dataset.rows_for_scale(s.scale_id)
    counts = np.bincount(dataset.labels[rows], minlength=s.num_classes + 1)[1:]
    print(f"  scale {s.scale_id}: {s.num_classes} classes, counts {counts.tolist()}")

config = ChainConfig(burn_in=2000, thinning=2, stored_draws=1000, seed=42)
draws = run_chains(dataset, config)

print()
print("coefficients (posterior mean +- sd vs truth):")
mean = draws.beta_draws.mean(axis=0)
sd = draws.beta_draws.std(axis=0)
for j in range(dataset.num_features):
    print(f"  beta_{j + 1}: {mean[j]:+.3f} +- {sd[j]:.3f}   truth {sim.beta_true[j]:+.3f}")

print()
print("thresholds:")
for k, s in enumerate(dataset.scales):
    g = draws.gamma_draws_for(s.scale_id)
    for j in range(g.shape[1]):
        print(
            f"  scale {s.scale_id} gamma_{j + 1}: {g[:, j].mean():+.3f} "
            f"+- {g[:, j].std():.3f}   truth {sim.gammas_true[k][j]:+.3f}"
        )

print()
for sid, rate in draws.accept_rate.items():
    print(f"threshold acceptance rate, scale {sid}: {rate:.3f}")
