# Held-out comparison of the pooled fit against per-scale fits: repeated
# stratified train/test splits, classification and rank metrics per
# posterior draw, and the per-split out-of-sample difference.

import numpy as np

from msprobit import ChainConfig, evaluate_splits, simulate_dataset

rng = np.random.default_rng(13)
sim = simulate_dataset(2, 90, 4, (1, 2), 2, rng)
dataset = sim.dataset

config = ChainConfig(burn_in=1000, thinning=1, stored_draws=300, seed=2)
report = evaluate_splits(
    dataset, 2 / 3, 5, config, np.random.default_rng(99)
)

print(f"{report.num_splits} splits, {config.stored_draws} draws per fit")
print(f"{len(report.long_rows)} per-draw metric rows")
print()

# diff rows carry mean_multi, mean_single and their difference per split
print("out-of-sample difference (pooled minus single), macro F1:")
for row in report.diff_rows:
    split_id, scale_id, metric, mean_multi, mean_single, diff = row
    if metric == "f1_macro_out":
        print(
            f"  split {split_id} scale {scale_id}: "
            f"{mean_multi:.3f} - {mean_single:.3f} = {diff:+.3f}"
        )

print()
print("positive differences mean the pooled model classified held-out")
print("items better than the scale's own model")
