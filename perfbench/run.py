"""Benchmark of the isonorm library and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census|dualball|realize|all
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload first sets up (imports the library, makes its inputs from
the seed and writes them under ``perfbench/.work``), then measures for
about S seconds, checking the answer of every pass:

* untraced (``--trace 0``): the run's first pass, and one pass in each of
  a series of fresh interpreters started one after another, give
  ``pass_s``; every fresh interpreter also gives a ``setup_s`` and a
  ``peak_rss_mb`` sample.  ``setup_s`` and ``pass_s`` are rescaled to a
  reference host speed that :mod:`hostspeed` samples next to set-ups and
  during passes; the unscaled wall times are printed beside them.
* traced (``--trace 1``): untraced and traced passes alternate in this
  process.  The untraced ones give ``trace.warm_pass_s``, the time of a
  later pass in the same process; the traced ones give the per-layer
  metrics, and the difference of their medians is the tracing overhead.

Every metric is printed with its unit and sample count; the last line is
one JSON object with the metrics that BENCHMARK.json names.  Reports and
spans are written to ``perfbench/out``.  The run exits with code 2 when
the library or its fixtures cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / ".work"
CHILD_TIMEOUT_S = 150
SETUPS = 8  # set-ups per run in the measuring process
# samples that each fresh interpreter gives
FRESH_KEYS = ("setup_s", "setup_wall_s", "pass_s", "pass_wall_s",
              "pass_slowdowns", "peak_rss_mb")


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, attempted, errors):
        self.attempted += attempted
        self.failed += len(errors)
        self.errors += errors[:3 - len(self.errors)]


def rss_mb():
    """Peak resident memory of this process, less the speed probe's table.

    ``VmHWM`` is read in preference to ``ru_maxrss``, which on Linux also
    counts the peak of the process that started this one.  The table is
    resident from before the library's import to the end, so it adds its
    size to the peak.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    peak = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return peak - hostspeed.TABLE_MB


def die(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def check_library():
    """Make the checkout's own library importable, or exit with code 2."""
    if not (SRC / "isonorm" / "cli.py").is_file() or \
            not (ROOT / "tests" / "fixtures").is_dir():
        die("no isonorm sources under %s" % ROOT)
    sys.path.insert(0, str(SRC))


def check_imported():
    mod = sys.modules.get("isonorm.maps")
    if mod is None or Path(mod.__file__).resolve().parent != \
            (SRC / "isonorm").resolve():
        die("isonorm was not imported from %s" % SRC)


def timed_pass(wl, tally, tracer=None, probe=None):
    """Run and check one pass; returns its wall seconds.

    With a ``hostspeed.Sampler`` as ``probe``, the host's speed is sampled
    during the pass.
    """
    if tracer is None:
        with probe or contextlib.nullcontext():
            start = perf_counter()
            results = wl.run_pass()
            elapsed = perf_counter() - start
        counts_bad = []
    else:
        with tracer.installed() as rec:
            start = perf_counter()
            results = wl.run_pass()
            elapsed = perf_counter() - start
        counts_bad = wl.check_counts(rec.lists)
    tally.add(len(results), wl.check(results) + counts_bad)
    return elapsed


def timed_setup(wl, seed, workdir, samples):
    """Set up ``wl``, adding its raw and its scaled time to ``samples``."""
    before = hostspeed.burst()
    start = perf_counter()
    wl.setup(ROOT, seed, workdir)
    wall = perf_counter() - start
    samples["setup_wall_s"].append(wall)
    samples["setup_s"].append(
        hostspeed.scaled(wall, before + hostspeed.burst()))


def add_pass(samples, wall, probe):
    samples["pass_wall_s"].append(wall)
    samples["pass_s"].append(probe.scaled(wall))
    samples["pass_slowdowns"].append(hostspeed.slowdowns(probe.kernels))


def fresh_pass(name, seed, tally, samples):
    """Set-up and one pass in a new interpreter, added to ``samples``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child",
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    try:
        doc = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        die("fresh interpreter failed (exit %d)" % proc.returncode)
    tally.add(doc["attempted"], doc["errors"])
    for key in FRESH_KEYS:
        samples[key].append(doc[key])


def child_main(name, seed):
    """One set-up and one checked pass, reported as a JSON line."""
    wl = workloads.WORKLOADS[name]()
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    doc = {key: [] for key in FRESH_KEYS}
    try:
        timed_setup(wl, seed, workdir, doc)
        check_imported()
        probe = hostspeed.Sampler()
        with probe:
            start = perf_counter()
            results = wl.run_pass()
            wall = perf_counter() - start
        add_pass(doc, wall, probe)
        doc["peak_rss_mb"].append(rss_mb())
        errors = wl.check(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {key: vals[0] for key, vals in doc.items()}
    print(json.dumps(dict(doc, attempted=len(results), errors=errors)))


def purge_library():
    """Forget the imported library, so that the next set-up imports it."""
    for mod in [m for m in sys.modules
                if m == "isonorm" or m.startswith("isonorm.")]:
        del sys.modules[mod]


def run_workload(name, seed, seconds, trace, fresh):
    """Measure one workload; returns (samples, tally, tracer)."""
    tally = Tally()
    samples = {key: [] for key in FRESH_KEYS + ("warm_pass_s",
                                                 "traced_pass_s")}
    tracer = tracing.Tracer() if trace else None
    window = perf_counter()
    workdirs = []
    try:
        for i in range(SETUPS):
            if i or not fresh:
                purge_library()
            wl = workloads.WORKLOADS[name]()
            workdirs.append(Path(tempfile.mkdtemp(dir=WORK)))
            timed_setup(wl, seed, workdirs[-1], samples)
        check_imported()
        probe = hostspeed.Sampler()
        first = timed_pass(wl, tally, probe=probe if fresh else None)
        if fresh:
            # this process is itself a fresh interpreter
            add_pass(samples, first, probe)
            samples["peak_rss_mb"].append(rss_mb())
        # untraced: one pass in each of a series of fresh interpreters;
        # traced: untraced and traced passes in this process, alternating.
        # Stop before the next pass would overrun the window.
        kinds = ("warm_pass_s", "traced_pass_s") if trace else ("pass_s",)
        last = dict.fromkeys(kinds, first)
        turn = 0
        while True:
            kind = kinds[turn % len(kinds)]
            done = all(samples[k] for k in kinds)
            if done and perf_counter() - window + last[kind] > seconds:
                break
            start = perf_counter()
            if kind == "pass_s":
                fresh_pass(name, seed, tally, samples)
            else:
                samples[kind].append(timed_pass(
                    wl, tally, tracer if kind == "traced_pass_s" else None))
            last[kind] = perf_counter() - start
            turn += 1
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)
    return samples, tally, tracer


def layer_value(name, combined, samples):
    """One per-layer metric from the traced passes."""
    ratios = {
        "census.one_faced_ratio": ("census.one_faced",
                                   "census.word_to_map.calls"),
        "coorient.class_yield": ("coorient.distinct_classes",
                                 "coorient.eulerian_count"),
    }
    if name in ratios:
        num, den = (combined.get(k, 0) for k in ratios[name])
        return num / den if den else 0.0
    traced = statistics.median(samples["traced_pass_s"])
    warm = statistics.median(samples["warm_pass_s"])
    if name == "trace.pass_s":
        return traced
    if name == "trace.warm_pass_s":
        return warm
    if name == "trace.overhead_s":
        return traced - warm
    if name not in tracing.KNOWN_METRICS:
        raise KeyError("unknown per-layer metric %r" % name)
    return combined.get(name, 0)


def report(name, seed, trace, spec, samples, tally, tracer):
    """Print every metric with its unit; return the JSON metrics dict."""
    wl = workloads.WORKLOADS[name]
    print("workload %s, seed %d (%s), trace %d"
          % (name, seed, wl.seed_note, trace))
    metrics = {}
    extra = {}
    if not trace:
        for m in spec["end_to_end"]:
            vals = samples[m["name"]]
            value = statistics.median(vals)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print("  %-12s %12.4f %-3s median of %d"
                  % (m["name"], value, m["unit"], len(vals)))
        for key in ("setup_wall_s", "pass_wall_s"):
            print("  %-12s %12.4f s   median of %d, unscaled wall time"
                  % (key, statistics.median(samples[key]),
                     len(samples[key])))
    else:
        combined, unsteady = tracing.combine(tracer.passes,
                                             samples["traced_pass_s"])
        for m in spec["per_layer"]:
            value = layer_value(m["name"], combined, samples)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print("  %-36s %14.6g %s" % (m["name"], value, m["unit"]))
        print("  traced passes %d, untraced passes %d, spans per pass %d"
              % (len(samples["traced_pass_s"]), len(samples["warm_pass_s"]),
                 len(tracer.passes[0].spans)))
        for key in unsteady:
            print("  warning: count %s differs between passes" % key)
        extra = {"all_layer_values": combined, "unsteady_counts": unsteady}
    print("  %-12s %12.4f     %d failed of %d operations"
          % ("fail_ratio", tally.failed / tally.attempted, tally.failed,
             tally.attempted))
    for err in tally.errors:
        print("  failure: " + err.strip().replace("\n", "\n    "))
    OUT.mkdir(exist_ok=True)
    stem = OUT / ("%s-seed%d-trace%d" % (name, seed, trace))
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": name, "seed": seed, "samples": samples,
         "attempted": tally.attempted, "failed": tally.failed,
         "metrics": metrics, **extra}, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write_spans(str(stem) + ".spans.tsv.gz")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    check_library()
    WORK.mkdir(exist_ok=True)
    if args.child:
        child_main(args.workload, args.seed)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    total = Tally()
    metrics = {}
    for i, name in enumerate(names):
        samples, tally, tracer = run_workload(
            name, args.seed, args.seconds, args.trace, fresh=(i == 0))
        found = report(name, args.seed, args.trace, spec, samples, tally,
                       tracer)
        total.attempted += tally.attempted
        total.failed += tally.failed
        prefix = name + "." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({"correct": total.failed == 0,
                      "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
