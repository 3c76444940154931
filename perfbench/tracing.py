"""Spans around algwatch's public functions, and the per-layer metrics.

The program's source is not touched. While ``Tracer.installed()`` is
active, each function in ``SPANNED`` is replaced, under every algwatch
module name the program calls it through, by a wrapper that records one
span per call: name, start, end, parent span and trial id (the call's
``trial`` argument, else its parent's). The workload call made inside that
block is then the program's own call sequence, with spans. Spans stay in
memory until ``write_spans``.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from algwatch.hashing import hash_eval_vec

# (module, function or Class.method); the span is named module.function.
SPANNED = (
    ("gfield", "GF2n.mul_vec"),
    ("gfield", "GF2n.mul_elementwise"),
    ("hashing", "collision_class"),
    ("channel", "hamming_vec"),
    ("channel", "log_likelihood_vec"),
    ("packet", "make_packet"),
    ("inference", "transition_row"),
    ("inference", "build_and_run_trellis"),
    ("inference", "consistency_probability"),
    ("inference", "matched_codewords"),
    ("sim", "simulate_observation"),
    ("sim", "run_trial"),
    ("sim", "run_experiment"),
    ("sim", "run_sweep"),
    ("sim", "calibrate_threshold"),
    ("sim", "matched_count_trial"),
    ("sim", "mean_matched_count"),
    ("multihop", "run_round"),
    ("multihop", "can_police"),
    ("multihop", "build_observation"),
    ("multihop", "police"),
    ("multihop", "mincut_scenario"),
    ("cli", "main"),
)


def _honest_key(cfg) -> str:
    # The honest arm never reads p_adv, so runs differing only in it repeat work.
    return "honest " + repr(dataclasses.replace(cfg, p_adv=0.0))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _trellis_note(args, kwargs, trellis):
    obs = _arg(args, kwargs, 0, "obs")
    return trellis.final_weights, obs.hash_spec, obs.relay_overheard.hash_value


def _experiment_note(args, kwargs, stats):
    cfg = _arg(args, kwargs, 0, "cfg")
    return [_honest_key(cfg), "adversarial " + repr(cfg)]


def _police_note(args, kwargs, ledger):
    return len(ledger.samples(_arg(args, kwargs, 0, "watcher"), _arg(args, kwargs, 1, "watched")))


# Per-span notes, taken after a successful call from its arguments and result.
_NOTES = {
    "inference.transition_row": lambda args, kwargs, row: len(row.candidates),
    "inference.build_and_run_trellis": _trellis_note,
    "sim.run_experiment": _experiment_note,
    "sim.calibrate_threshold": lambda args, kwargs, t: [_honest_key(_arg(args, kwargs, 0, "cfg"))],
    "sim.mean_matched_count": lambda args, kwargs, mean: ["honest " + repr((args, sorted(kwargs.items())))],
    "multihop.police": _police_note,
}


class Span:
    __slots__ = ("id", "name", "parent", "trial", "start", "end", "error", "note")

    def __init__(self, id_, name, parent, trial):
        self.id, self.name, self.parent, self.trial = id_, name, parent, trial
        self.start = self.end = 0.0
        self.error = self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        note = _NOTES.get(name)
        params = list(inspect.signature(fn).parameters.values())
        names = [p.name for p in params]
        trial_at = names.index("trial") if "trial" in names else None
        trial_default = params[trial_at].default if trial_at is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else None
            if trial_at is None:
                trial = parent.trial if parent else None
            elif len(args) > trial_at:
                trial = args[trial_at]
            else:
                trial = kwargs.get("trial", trial_default)
            span = Span(len(spans), name, parent, trial)
            spans.append(span)
            open_.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("algwatch.")]
        patches = []
        try:
            for module_name, attr in SPANNED:
                module = importlib.import_module(f"algwatch.{module_name}")
                name = f"{module_name}.{attr.rpartition('.')[2]}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    patches.append((cls, method, cls.__dict__[method]))
                    setattr(cls, method, self._wrap(name, cls.__dict__[method]))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for m in modules:
                    if m.__dict__.get(attr) is original:
                        patches.append((m, attr, original))
                        setattr(m, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name,
                    "parent": None if s.parent is None else s.parent.id,
                    "trial": s.trial, "start": s.start, "end": s.end, "error": s.error,
                }) + "\n")


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer timings and exact counts of one traced workload call.

    Timings are self times summed over the call (``.ms``) or per call
    (``.us_per_call``), except where the comment on the line says otherwise.
    """
    covered = defaultdict(float)
    self_time = defaultdict(float)
    total = defaultdict(float)
    calls = Counter()
    rows_in_trellis = 0.0
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.duration
        if s.parent is not None:
            covered[s.parent.id] += s.duration
            if s.name == "inference.transition_row" and s.parent.name == "inference.build_and_run_trellis":
                rows_in_trellis += s.duration
    for s in spans:
        self_time[s.name] += s.duration - covered[s.id]

    def ms(name):
        return self_time[name] * 1e3

    def us_per_call(name):
        return self_time[name] / calls[name] * 1e6 if calls[name] else 0.0

    timings = {
        "inference.build_and_run_trellis.ms": total["inference.build_and_run_trellis"] * 1e3,  # total
        # the trellis minus the transition rows it builds: the forward pass itself
        "inference.forward_kernel.ms": (total["inference.build_and_run_trellis"] - rows_in_trellis) * 1e3,
        "inference.transition_row.ms": ms("inference.transition_row"),
        "inference.consistency_probability.ms": ms("inference.consistency_probability"),
        "inference.matched_codewords.ms": ms("inference.matched_codewords"),
        "sim.simulate_observation.ms": ms("sim.simulate_observation"),
        "sim.calibrate_threshold.ms": total["sim.calibrate_threshold"] * 1e3,  # total: the calibration phase
        "hashing.collision_class.us_per_call": us_per_call("hashing.collision_class"),
        "channel.hamming_vec.us_per_call": us_per_call("channel.hamming_vec"),
        "channel.log_likelihood_vec.us_per_call": us_per_call("channel.log_likelihood_vec"),
        "gfield.mul_vec.us_per_call": us_per_call("gfield.mul_vec"),
        "gfield.mul_elementwise.us_per_call": us_per_call("gfield.mul_elementwise"),
        "packet.make_packet.us_per_call": us_per_call("packet.make_packet"),
        "multihop.run_round.ms": ms("multihop.run_round"),
        "multihop.can_police.ms": ms("multihop.can_police"),
        "multihop.build_observation.ms": ms("multihop.build_observation"),
        # cli.main minus the sweep it runs: parsing, config and output files
        "cli.overhead.ms": (total["cli.main"] - total["sim.run_sweep"]) * 1e3,
    }

    def ok(name):
        return [s for s in spans if s.name == name and s.error is None]

    rows = [s.note for s in ok("inference.transition_row")]
    support, matched = [], []
    for s in ok("inference.build_and_run_trellis"):
        weights, spec, relay_hash = s.note
        states = np.flatnonzero(weights > 0.0)
        support.append(len(states))
        matched.append(int(np.count_nonzero(hash_eval_vec(spec, states) == relay_hash)))
    arms = [key for name in ("sim.run_experiment", "sim.calibrate_threshold", "sim.mean_matched_count")
            for s in ok(name) for key in s.note]
    # A police call's note is its ledger's sample count; a new instance's
    # ledger starts again at one.
    per_instance = []
    for s in ok("multihop.police"):
        if s.note == 1 or not per_instance:
            per_instance.append(s.note)
        else:
            per_instance[-1] = s.note
    counts = {
        "inference.row_size.mean": _mean(rows),
        "inference.row_size.max": float(max(rows, default=0)),
        "inference.support.mean": _mean(support),
        "inference.matched.mean": _mean(matched),
        "inference.fallbacks": float(sum(
            1 for s in spans
            if s.error == "InferenceError"
            and s.name in ("inference.build_and_run_trellis", "inference.consistency_probability")
        )),
        "sim.unique_arm_ratio": len(set(arms)) / len(arms) if arms else 0.0,
        "hashing.collision_class.calls": float(calls["hashing.collision_class"]),
        "multihop.police.calls": float(calls["multihop.police"]),
        "multihop.rounds_to_verdict.mean": _mean(per_instance),
    }
    return timings, counts
