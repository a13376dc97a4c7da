"""Run one ddlink-sim CLI command in this process with its layers traced.

Every function below is wrapped at the module attribute it is looked up
from (``simkit.hm_eigen_spectra``, not ``channel.hm_eigen_spectra``), so
the package itself is not touched.  Each call records a span (id, name,
start, end, parent); spans stay in memory and are written once the
command has finished.  A site that no longer exists is reported as
absent instead of failing the run.

    python3 bench/trace.py --mode trace --summary s.json --spans s.jsonl -- hm-sweep --out d

``--mode time`` wraps only the command's entry points, for untraced
timings of ``run_sweep``.
"""

import argparse
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import fields, is_dataclass

import numpy as np

# Metric name -> the (module, attribute) sites where the package looks
# the function up.
SITES = {
    "cli.main": [("cli", "main")],
    "simkit.run_sweep": [("cli", "run_sweep")],
    "validation.run_validation": [("cli", "run_validation")],
    "simkit.run_trial": [("simkit", "run_trial")],
    "simkit.derive_trial_seed": [("simkit", "derive_trial_seed")],
    "channel.sample_hm_channel": [("simkit", "sample_hm_channel"), ("validation", "sample_hm_channel")],
    "channel.sample_lm_channel": [("simkit", "sample_lm_channel"), ("validation", "sample_lm_channel")],
    "channel.lm_subchannel_gains": [("simkit", "lm_subchannel_gains")],
    "channel.lm_eigen_spectrum": [("simkit", "lm_eigen_spectrum")],
    "channel.hm_eigen_spectra": [("simkit", "hm_eigen_spectra"), ("validation", "hm_eigen_spectra")],
    "channel.without_fractional_doppler": [("simkit", "without_fractional_doppler")],
    "channel.hm_channel_matrices": [
        ("validation", "hm_channel_matrices"),
        ("equalizer", "hm_channel_matrices"),
    ],
    "equalizer.mmse_spectrum": [("simkit", "mmse_spectrum"), ("validation", "mmse_spectrum")],
    "equalizer.detection_power_terms": [
        ("simkit", "detection_power_terms"),
        ("validation", "detection_power_terms"),
    ],
    "equalizer.hm_detection_snr": [("simkit", "hm_detection_snr"), ("validation", "hm_detection_snr")],
    "equalizer.hm_at_lm_snr": [("simkit", "hm_at_lm_snr")],
    "equalizer.lm_detection_snr": [("simkit", "lm_detection_snr")],
    "equalizer.empirical_hm_sinr": [("validation", "empirical_hm_sinr")],
    "noma.allocate_power": [("simkit", "allocate_power")],
    "noma.assemble_rates": [("simkit", "assemble_rates")],
    "grids.build_basis": [("validation", "build_basis")],
    "grids.diagonalize_bccb": [("validation", "diagonalize_bccb")],
    "validation.dense-vs-fast": [("validation", "check_dense_vs_fast")],
    "validation.spectral-split": [("validation", "check_spectral_split")],
    "validation.ratio-identities": [("validation", "check_ratio_identities")],
    "validation.truncation": [("validation", "check_truncation_energy")],
    "validation.empirical-sinr": [("validation", "check_empirical_sinr")],
    "validation.worked-example": [("validation", "check_worked_example")],
}
ENTRY_POINTS = ("cli.main", "simkit.run_sweep", "validation.run_validation")
BYTES_OUT = {"channel.hm_eigen_spectra", "channel.lm_eigen_spectrum"}


def computed_bytes(value) -> int:
    """Bytes of the arrays in a return value, from their sizes."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if is_dataclass(value):
        return sum(computed_bytes(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (tuple, list)):
        return sum(computed_bytes(v) for v in value)
    return 0


class Tracer:
    """Span recorder; spans are (id, name, start_ns, end_ns, parent_id)."""

    def __init__(self):
        self.spans = []
        self.bytes_out = defaultdict(int)
        self._stack = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        count_bytes = name in BYTES_OUT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent))
            if count_bytes:
                self.bytes_out[name] += computed_bytes(result)
            return result

        return traced

    def stats(self) -> dict:
        """Per name: calls, total and self time, computed bytes out."""
        child_ns = defaultdict(int)
        for _, _, start, end, parent in self.spans:
            child_ns[parent] += end - start
        out = {}
        for span_id, name, start, end, _ in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[span_id]
        for name, nbytes in self.bytes_out.items():
            out[name]["bytes_out"] = nbytes
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span; trial is the enclosing run_trial span."""
        by_id = {s[0]: s for s in self.spans}
        trial_of = {}

        def trial(span_id):
            if span_id not in trial_of:
                span = by_id.get(span_id)
                if span is None:
                    trial_of[span_id] = -1
                elif span[1] == "simkit.run_trial":
                    trial_of[span_id] = span_id
                else:
                    trial_of[span_id] = trial(span[4])
            return trial_of[span_id]

        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in sorted(self.spans, key=lambda s: s[2]):
                record = {"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                          "parent": parent, "trial": trial(span_id)}
                fh.write(json.dumps(record) + "\n")


def install(tracer: Tracer, sites: dict) -> tuple[list, list]:
    """Wrap every present site; return (restore list, absent metric names)."""
    restore, absent = [], []
    for name, locations in sites.items():
        found = False
        for module_name, attr in locations:
            try:
                module = importlib.import_module(f"ddlink_sim.{module_name}")
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            restore.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
            found = True
        if not found:
            absent.append(name)
    return restore, absent


def uninstall(restore: list) -> None:
    for module, attr, original in reversed(restore):
        setattr(module, attr, original)


def run(argv: list, sites: dict, spans_path=None) -> dict:
    """Run ``cli.main(argv)`` with the given sites traced."""
    tracer = Tracer()
    restore, absent = install(tracer, sites)
    try:
        from ddlink_sim import cli

        rc = cli.main(argv)
    finally:
        uninstall(restore)
    if spans_path is not None:
        tracer.write_spans(spans_path)
    return {"rc": rc, "absent": absent, "stats": tracer.stats()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("trace", "time"), required=True)
    parser.add_argument("--summary", required=True, help="JSON file for per-name totals")
    parser.add_argument("--spans", default=None, help="JSON-lines file for the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    sites = SITES if args.mode == "trace" else {n: SITES[n] for n in ENTRY_POINTS}
    summary = run(cli_args, sites, args.spans if args.mode == "trace" else None)
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
