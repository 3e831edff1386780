"""Spans at the package's layer boundaries, recorded from outside it.

The tracer replaces module attributes with timing wrappers under the names
their callers look them up by (``msprobit.metrics.run_chains`` is the
sampler as seen by the metrics layer). Spans stay in memory, each with its
parent, and are written out when the benchmark ends. A name that no longer
exists is skipped, so its metrics read zero.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter


def _file_bytes(args, kwargs):
    return sum(os.path.getsize(a) for a in args if isinstance(a, str) and os.path.isfile(a))


def _text_bytes(args, kwargs):
    text = args[1] if len(args) > 1 else kwargs.get("text", "")
    return len(text.encode())


def _sweeps(args, kwargs):
    config = args[1] if len(args) > 1 else kwargs["config"]
    chains = args[2] if len(args) > 2 else kwargs.get("num_chains", 1)
    return int(chains) * int(config.total_sweeps)


def _acceptance(result):
    return sum(result.accept_counts.values()), sum(result.proposal_counts.values())


# (module, attribute, span name, note taken from the call's arguments,
#  note taken from its result)
TARGETS = [
    ("cli", "main", "cli.main", None, None),
    ("io", "read_dataset", "io.read", _file_bytes, None),
    ("io", "read_draws", "io.read", _file_bytes, None),
    ("io", "read_chain_config", "io.read", _file_bytes, None),
    ("io", "write_draws", "io.write", None, None),
    ("io", "write_table", "io.write", None, None),
    ("io", "_write_rows", "io.write", None, None),
    ("io", "atomic_write_text", "io.write_text", _text_bytes, None),
    ("cli", "run_chains", "sampler.run_chains", _sweeps, _acceptance),
    ("metrics", "run_chains", "sampler.run_chains", _sweeps, _acceptance),
    ("simulate", "run_chains", "sampler.run_chains", _sweeps, _acceptance),
    ("sampler", "gamma_log_acceptance_ratio", "sampler.gamma_log_acceptance_ratio", None, None),
    ("sampler", "sample_truncated_normal", "distributions.sample_truncated_normal", None, None),
    ("sampler", "sample_truncated_normal_many", "distributions.sample_truncated_normal_many", None, None),
    ("sampler", "draw_mvn_given_cholesky", "distributions.draw_mvn_given_cholesky", None, None),
    ("cli", "evaluate_splits", "metrics.evaluate_splits", None, None),
    ("metrics", "kendall_tau_b", "metrics.kendall_tau_b", None, None),
    ("metrics", "f1_scores", "metrics.f1_scores", None, None),
    ("metrics", "classify_draws", "metrics.classify_draws", None, None),
    ("cli", "run_experiment", "simulate.run_experiment", None, None),
    ("simulate", "simulate_dataset", "simulate.simulate_dataset", None, None),
    ("io", "validate_dataset", "model.validate_dataset", None, None),
    ("sampler", "validate_dataset", "model.validate_dataset", None, None),
]

# Gibbs blocks, each timed at the public functions it calls.
BLOCKS = {
    "mh": ("sampler.gamma_log_acceptance_ratio", "distributions.sample_truncated_normal"),
    "latent": ("distributions.sample_truncated_normal_many",),
    "coef": ("distributions.draw_mvn_given_cholesky",),
}
CALLED = [
    "distributions.sample_truncated_normal",
    "distributions.sample_truncated_normal_many",
    "distributions.draw_mvn_given_cholesky",
    "sampler.gamma_log_acceptance_ratio",
]


class Tracer:
    """Installs the wrappers while active and keeps every span.

    A span is [name, parent index, start, end, note, result note].
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, arg_note, result_note):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    arg_note(args, kwargs) if arg_note else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if result_note:
                span[5] = result_note(result)
            return result

        return wrapper

    def install(self):
        for module_name, attr, name, arg_note, result_note in TARGETS:
            try:
                module = importlib.import_module(f"msprobit.{module_name}")
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, arg_note, result_note))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,parent,start_s,end_s,note\n")
            for i, (name, parent, start, end, note, result) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{start!r},{end!r},{'' if note is None else note}\n")


def layer_metrics(spans, units: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), per traced unit from the spans
    of `units` traced units."""
    total = defaultdict(float)  # span name -> summed duration
    calls = defaultdict(int)
    notes = defaultdict(int)
    self_time = [end - start for _, _, start, end, _, _ in spans]
    for name, parent, start, end, note, result in spans:
        total[name] += end - start
        calls[name] += 1
        if note is not None:
            notes[name] += note
        if parent >= 0:
            self_time[parent] -= end - start
        if result is not None:
            notes["accepted"] += result[0]
            notes["proposed"] += result[1]
    self_by_name = defaultdict(float)
    for (name, *_), t in zip(spans, self_time):
        self_by_name[name] += t
    # evaluate_splits minus its sampler children: the metric layer's own time
    sampler_in_eval = sum(
        end - start for name, parent, start, end, _, _ in spans
        if name == "sampler.run_chains" and parent >= 0 and spans[parent][0] == "metrics.evaluate_splits"
    )

    def outermost(prefix):
        # time of spans with this prefix not nested in another one of them
        t = 0.0
        for name, parent, start, end, _, _ in spans:
            if not name.startswith(prefix):
                continue
            p = parent
            while p >= 0 and not spans[p][0].startswith(prefix):
                p = spans[p][1]
            if p < 0:
                t += end - start
        return t

    def per_unit(x):
        return x / units if units else 0.0

    sweeps = notes["sampler.run_chains"]
    run_time = total["sampler.run_chains"]
    blocks = {b: sum(total[n] for n in names) for b, names in BLOCKS.items()}

    def us_per_sweep(t):
        return 1e6 * t / sweeps if sweeps else 0.0

    out = {
        "sampler.fits": per_unit(calls["sampler.run_chains"]),
        "sampler.sweeps": per_unit(sweeps),
        "sampler.sweeps_per_s": sweeps / run_time if run_time else 0.0,
        "sampler.us_per_sweep": us_per_sweep(run_time),
        "sampler.mh_us_per_sweep": us_per_sweep(blocks["mh"]),
        "sampler.latent_us_per_sweep": us_per_sweep(blocks["latent"]),
        "sampler.coef_us_per_sweep": us_per_sweep(blocks["coef"]),
        "sampler.rest_us_per_sweep": us_per_sweep(run_time - sum(blocks.values())),
        "sampler.mh_accept_rate": notes["accepted"] / notes["proposed"] if notes["proposed"] else 0.0,
    }
    for name in CALLED:
        out[f"{name}.calls"] = per_unit(calls[name])
        out[f"{name}.us_per_call"] = 1e6 * total[name] / calls[name] if calls[name] else 0.0
    out.update({
        "metrics.score_s": per_unit(total["metrics.evaluate_splits"] - sampler_in_eval),
        "metrics.kendall_s": per_unit(total["metrics.kendall_tau_b"]),
        "metrics.kendall_calls": per_unit(calls["metrics.kendall_tau_b"]),
        "metrics.f1_s": per_unit(total["metrics.f1_scores"]),
        "metrics.classify_s": per_unit(total["metrics.classify_draws"]),
        "io.read_s": per_unit(outermost("io.read")),
        "io.write_s": per_unit(outermost("io.write")),
        "io.bytes_read": per_unit(notes["io.read"]),
        "io.bytes_written": per_unit(notes["io.write_text"]),
        "cli.self_s": per_unit(self_by_name["cli.main"]),
        "simulate.dataset_s": per_unit(total["simulate.simulate_dataset"]),
        "simulate.score_s": per_unit(self_by_name["simulate.run_experiment"]),
        "model.validate_s": per_unit(outermost("model.")),
    })
    return {name: (value, unit_of(name)) for name, value in out.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s") and not name.endswith("per_s"):
        return "s"
    if "us_per_" in name:
        return "us"
    if name.endswith("per_s"):
        return "1/s"
    if ".bytes_" in name:
        return "B"
    if name.endswith("_rate"):
        return "ratio"
    return "count"
