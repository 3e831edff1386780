"""The worked batch in docs/sampler.md is the one a kernel builds: its
edges, slots, steps, grouping and uniform order, array for array."""

import math
import pathlib
import re

import numpy as np

from msprobit.model import ChainConfig, Dataset, ScaleSpec
from msprobit.sampler import _Fit, _GibbsKernel

DOC = pathlib.Path(__file__).resolve().parents[1] / "docs" / "sampler.md"


def documented_arrays() -> dict:
    """name -> value of each line of the worked batch's text block."""
    section = DOC.read_text().split("\n## A worked batch\n", 1)[1]
    (block,) = re.findall(r"```text\n(.*?)```", section, re.S)
    arrays = {}
    for line in block.splitlines():
        name, value = line.split(" = ")
        arrays[name] = eval(value, {"__builtins__": {}}, {"inf": math.inf})
    return arrays


def worked_batch():
    """The doc's two members and their flat thresholds."""
    member_0 = Dataset(
        features=np.ones((4, 1)),
        labels=np.array([2, 3, 1, 1]),
        scale_ids=np.array([1, 2, 1, 2]),
        scales=(ScaleSpec(1, 2), ScaleSpec(2, 3)),
    )
    member_1 = Dataset(
        features=np.ones((3, 1)),
        labels=np.array([4, 1, 2]),
        scale_ids=np.ones(3, dtype=int),
        scales=(ScaleSpec(1, 4),),
    )
    kernel = _GibbsKernel([_Fit(member_0, ChainConfig()), _Fit(member_1, ChainConfig())])
    return kernel, np.array([0.2, -0.5, 0.5, -1.0, 0.0, 1.0])


def built_arrays() -> dict:
    """The same names -> the arrays the kernel builds for the worked batch."""
    kernel, thresholds = worked_batch()
    rngs = [np.random.default_rng(1), np.random.default_rng(2)]
    eta = kernel.linear_predictor(np.zeros(2))
    kernel.draw_latents(eta, thresholds, rngs, kernel.uniforms(rngs))
    width = kernel._edges.size // 2
    steps = kernel._steps
    return {
        "width": width,
        "edges": kernel._edges[:width].tolist(),
        "threshold_slots": kernel._threshold_slots.tolist(),
        "threshold_bounds": kernel._threshold_bounds.tolist(),
        "step_slots": [slots.tolist() for _, _, slots, _ in steps],
        "step_lower_slots": [below.tolist() for _, below, _, _ in steps],
        "step_upper_slots": [(kernel._step_pos[step] + 1).tolist() for step, _, _, _ in steps],
        "step_counts": [counts for _, _, _, counts in steps],
        "below": kernel._below.tolist(),
        "above": kernel._above.tolist(),
        "label_lower": kernel._label_lower.tolist(),
        "label_upper": kernel._label_upper.tolist(),
        "grouping": kernel._grouping.tolist(),
        "row_bounds": kernel._row_bounds.tolist(),
        "uniform_counts": kernel._uniform_counts,
        "uniform_order": kernel._uniform_order.tolist(),
    }


def test_worked_batch_matches_the_kernel():
    assert documented_arrays() == built_arrays()

