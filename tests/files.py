"""Readers for the CSV tables and the truth file the CLI writes; only the
tests read these files back."""

import csv
import json

import numpy as np


def read_table(path):
    """Header and rows of a CSV table, every cell a string."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def read_truth(path):
    """The coefficients and the per-scale thresholds of a truth file."""
    with open(path) as fh:
        doc = json.load(fh)
    beta = np.asarray(doc["beta"], dtype=float)
    gammas = {int(sid): np.asarray(g, dtype=float) for sid, g in doc["gammas"].items()}
    return beta, gammas
