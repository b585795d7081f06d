"""Benchmark of the swarmgame command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
One client in this process runs the workload's CLI commands back to back
through ``swarmgame.cli.main`` (a closed loop), after imports are warm,
for about S seconds, and checks every output against an independent
oracle (see ``workloads.py``).  The last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:
  setup_s      median wall time of a fresh interpreter that imports
               swarmgame and parses one config (several per run, spread
               between the passes)
  pass_ref     median over passes of a pass's command times, each
               divided by the time of a fixed reference loop run just
               before and after it (see ``reference_s``)
  peak_rss_mb  this process's peak resident set size
The host's speed drifts by 20% and more over tens of seconds, alike for
Python and numpy code, so a raw pass time differs between runs by more
than any bound worth gating on; the reference loop slows with the host,
and the ratio does not.  The raw ``pass_s`` is printed in the report and
exported as the per-layer metric ``cli.pass_s``.
--trace 1 spends half of S untraced and half with every layer's public
functions wrapped (``tracer.py``), and reports the per-layer metrics,
including the tracing overhead (traced minus untraced pass time).

Both modes print a report first: every command timing with its sample
count, the failed fraction with its base, and a run record (versions,
git SHA or, outside git, a hash of ``src/``, CPUs, caches, seed, and
the non-blank line count of ``src/``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

SETUP_REPS = 7
MIN_PASSES = 3
MIN_PASSES_TRACE = 2
PERCENTILES = (99, 95, 90, 75, 50)

SETUP_CODE = """\
import sys, time
from pathlib import Path
import swarmgame
t = time.perf_counter()
swarmgame.parse_config(Path(sys.argv[1]).read_text())
print(time.perf_counter() - t)
"""

# Present on every workload, so they are the gated end-to-end metrics; the
# per-command timings, which exist only on some workloads, are printed in
# the report and exported as per-layer metrics.
END_TO_END = {"setup_s": "s", "pass_ref": "ref", "peak_rss_mb": "MB"}

REF_LOOP = 250_000
REF_FFTS = 8
REF_ARRAY = np.random.default_rng(0).random((21, 21, 21))

# name -> (unit, better, end-to-end metrics it should move, workloads)
PER_LAYER = {
    "import.total_s": ("s", "lower", "setup_s", "all"),
    "import.series_s": ("s", "lower", "setup_s", "all"),
    "config.parse_s": ("s", "lower", "setup_s", "all"),
    "kernels.calls": ("count", "lower", "sweep_s, optimize_s", "cost-curve"),
    "kernels.busy_s": ("s", "lower", "sweep_s, optimize_s", "cost-curve"),
    "kernels.pois_terms": ("count", "lower", "sweep_s, optimize_s", "cost-curve"),
    "model.total_cost.calls": ("count", "lower", "sweep_s, optimize_s", "cost-curve"),
    "model.total_cost.self_s": ("s", "lower", "sweep_s, optimize_s", "cost-curve"),
    "model.burst_prob_safety.self_s": (
        "s", "lower", "sweep_s, optimize_s", "cost-curve"),
    "optimize.sweep.busy_s": ("s", "lower", "optimize_s", "cost-curve"),
    "optimize.self_s": ("s", "lower", "optimize_s", "cost-curve"),
    "optimize.refine_evals": ("count", "lower", "optimize_s", "cost-curve"),
    "series.mul.calls": ("count", "lower", "analyze_s, optimize_s", "auto-nu"),
    "series.div.calls": ("count", "lower", "analyze_s, optimize_s", "auto-nu"),
    "series.busy_s": ("s", "lower", "analyze_s, optimize_s", "auto-nu"),
    "series.bytes_computed": ("B", "lower", "analyze_s, optimize_s", "auto-nu"),
    "fluctuation.expected_exit_index.calls": (
        "count", "lower", "analyze_s, optimize_s", "auto-nu"),
    "fluctuation.expected_exit_index.busy_s": (
        "s", "lower", "analyze_s, optimize_s", "auto-nu"),
    "fluctuation.self_s": ("s", "lower", "analyze_s, optimize_s", "auto-nu"),
    "sim.estimate.busy_s": ("s", "lower", "sim_*_episodes_per_s", "simulate"),
    "sim.episodes": ("count", "higher", "sim_*_episodes_per_s", "simulate"),
    "sim.censored": ("count", "lower", "sim_*_episodes_per_s", "simulate"),
    "sim.epochs": ("count", "lower", "sim_*_episodes_per_s", "simulate"),
    "sim.short.epochs_per_s": (
        "1/s", "higher", "sim_short_episodes_per_s", "simulate"),
    "sim.long.epochs_per_s": ("1/s", "higher", "sim_long_episodes_per_s", "simulate"),
    "sim.speedup_2w": ("x", "higher", "sim_2w_episodes_per_s", "simulate"),
    "cli.self_s": ("s", "lower", "every command timing", "all"),
    "cli.analyze_s": ("s", "lower", "analyze_s", "cost-curve, auto-nu"),
    "cli.sweep_s": ("s", "lower", "sweep_s", "cost-curve"),
    "cli.optimize_s": ("s", "lower", "optimize_s", "cost-curve, auto-nu"),
    "sim.short.episodes_per_s": (
        "1/s", "higher", "sim_short_episodes_per_s", "simulate"),
    "sim.long.episodes_per_s": (
        "1/s", "higher", "sim_long_episodes_per_s", "simulate"),
    "sim.2w.episodes_per_s": ("1/s", "higher", "sim_2w_episodes_per_s", "simulate"),
    "cli.failed_frac": ("1", "lower", "failed_frac", "all"),
    "trace.overhead_s": ("s", "lower", "none (tracing cost)", "all"),
    "cli.pass_s": ("s", "lower", "pass_ref", "all"),
    "ref.loop_s": ("s", "lower", "none (host speed)", "all"),
}

# Layers whose self time should make up a workload's command time.
FOCUS = {
    "cost-curve": ("kernels.self_s", "model.self_s", "optimize.self_s"),
    "auto-nu": ("series.self_s", "fluctuation.self_s"),
    "simulate": ("sim.estimate.total_s",),
}
UNUSED_LAYERS = {"cost-curve": ("series.busy_s", "fluctuation.busy_s", "sim.busy_s")}


class SetupError(RuntimeError):
    pass


def _median(values):
    return statistics.median(values) if values else 0.0


def _high_percentile(values):
    """Highest of PERCENTILES with at least 10 samples beyond it, or None."""
    n = len(values)
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            return p, cuts[p - 1]
    return None


class Setup:
    """Fresh interpreters that import swarmgame and parse one config.

    One interpreter per ``rep()``; the benchmark spreads the reps over the
    run, between passes, so that their median samples more than one of
    the host's slow or fast phases.
    """

    def __init__(self, config: Path, importtime: bool):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.argv = [sys.executable] + (["-X", "importtime"] if importtime else [])
        self.argv += ["-c", SETUP_CODE, str(config)]
        self.importtime = importtime
        self.reps: list[dict] = []

    def rep(self) -> None:
        if len(self.reps) >= SETUP_REPS:
            return
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SetupError(f"set-up interpreter failed:\n{proc.stderr[-2000:]}")
        rep = {"setup_s": wall, "config.parse_s": float(proc.stdout.split()[-1])}
        if self.importtime:
            cumulative = {}
            for line in proc.stderr.splitlines():
                if line.startswith("import time:") and "|" in line:
                    _, cum, module = line[len("import time:"):].split("|")
                    if cum.strip().isdigit():
                        cumulative[module.strip()] = int(cum) * 1e-6
            rep["import.total_s"] = cumulative.get("swarmgame", 0.0)
            rep["import.series_s"] = cumulative.get("swarmgame.series", 0.0)
        self.reps.append(rep)


def reference_s() -> float:
    """Wall time of a fixed Python loop and a few fixed FFT convolutions.

    Its work never changes, so its time tracks only the host's speed; the
    mix of interpreted and numpy work matches the workloads' own.
    """
    t0 = time.perf_counter()
    total = 0.0
    for i in range(REF_LOOP):
        total += i * 0.5
    for _ in range(REF_FFTS):
        fftconvolve(REF_ARRAY, REF_ARRAY)
    return time.perf_counter() - t0


def run_command(cli, command, outputs: dict):
    """Time one CLI call; returns (seconds, error messages)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed command, not a dead run
        code = f"raised {exc!r}"
    seconds = time.perf_counter() - t0
    stdout = out.getvalue()
    outputs[command.label] = stdout
    if code != 0:
        return seconds, [f"exit {code}: {err.getvalue().strip()[-300:]}"]
    csv_text = None
    if command.csv is not None and command.csv.exists():
        csv_text = command.csv.read_text()
    return seconds, command.check(stdout, csv_text, outputs)


def run_pass(cli, workload, tracer=None) -> dict:
    """Run the command list once; with a tracer, record spans and counts.

    The reference loop runs before the first command and after each one,
    outside the command timings and outside any span.
    """
    times, errors, sim = {}, {}, []
    outputs: dict = {}
    refs = [reference_s()]
    for command in workload.commands:
        if tracer is None:
            seconds, errs = run_command(cli, command, outputs)
        else:
            first = tracer.mark()
            before = Counter(tracer.counts)
            with tracer.span(f"cli.{command.kind}"):
                seconds, errs = run_command(cli, command, outputs)
            if command.kind == "simulate":
                busy = tracer.summary(first).get("sim.estimate.total_s", 0.0)
                epochs = tracer.counts["sim.epochs"] - before["sim.epochs"]
                sim.append((command, busy, epochs))
        refs.append(reference_s())
        times[command.label] = seconds
        if errs:
            errors[command.label] = errs
    record = {"times": times, "errors": errors, "sim": sim, "refs": refs}
    if tracer is not None:
        record["summary"] = tracer.summary()
        record["counts"] = dict(tracer.counts)
        tracer.clear()
    return record


def run_passes(cli, workload, budget_s, min_passes, tracer=None,
               between=None) -> list[dict]:
    """Passes until another one would overrun the budget.

    ``between()`` runs after each pass, outside the budget.
    """
    passes, walls = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(cli, workload, tracer))
        walls.append(time.perf_counter() - t0)
        if between is not None:
            between()
        if len(passes) >= min_passes and sum(walls) + _median(walls) > budget_s:
            return passes


def command_metrics(workload, passes) -> dict:
    """End-to-end command timings: medians over passes, with samples."""
    per_pass = defaultdict(list)
    for p in passes:
        sums = defaultdict(float)
        for i, command in enumerate(workload.commands):
            t = p["times"][command.label]
            sums["pass_s"] += t
            sums["pass_ref"] += t / ((p["refs"][i] + p["refs"][i + 1]) / 2.0)
            if command.kind == "simulate":
                if command.workers == 1:
                    sums[f"sim_{command.shape}"] += t
                    sums[f"sim_{command.shape}_episodes"] += 2 * command.episodes
                else:
                    sums["sim_2w"] += t
                    sums["sim_2w_episodes"] += 2 * command.episodes
            else:
                sums[f"{command.kind}_s"] += t
        for key, value in sums.items():
            per_pass[key].append(value)
    metrics = {"pass_ref": (_median(per_pass["pass_ref"]), "ref", per_pass["pass_ref"])}
    for key in ("pass_s", "analyze_s", "sweep_s", "optimize_s"):
        if key in per_pass:
            metrics[key] = (_median(per_pass[key]), "s", per_pass[key])
    refs = [r for p in passes for r in p["refs"]]
    metrics["ref_loop_s"] = (_median(refs), "s", refs)
    for shape in ("short", "long", "2w"):
        if f"sim_{shape}" in per_pass:
            rates = [e / t for e, t in zip(per_pass[f"sim_{shape}_episodes"],
                                           per_pass[f"sim_{shape}"])]
            metrics[f"sim_{shape}_episodes_per_s"] = (_median(rates), "1/s", rates)
    return metrics


def failures(workload, passes):
    """(attempted, failed) for gated commands and for known-defect probes."""
    gated = [0, 0]
    probe = [0, 0]
    for p in passes:
        for command in workload.commands:
            tally = probe if command.known_defect else gated
            tally[0] += 1
            tally[1] += command.label in p["errors"]
    return gated, probe


def layer_metrics(workload, setup, untraced, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes; problems found on the way."""
    problems = []
    counts = traced[0]["counts"]

    def calls(p):
        return {k: v for k, v in p["summary"].items() if k.endswith(".calls")}

    if any(p["counts"] != counts or calls(p) != calls(traced[0]) for p in traced[1:]):
        problems.append("counts differ between traced passes")

    def span_median(key):
        return _median([p["summary"].get(key, 0.0) for p in traced])

    def span_first(key):
        return traced[0]["summary"].get(key, 0)

    m = {key: _median([r[key] for r in setup])
         for key in ("import.total_s", "import.series_s", "config.parse_s")}
    m["kernels.calls"] = sum(v for k, v in traced[0]["summary"].items()
                             if k.startswith("kernels.") and k.endswith(".calls")
                             and "@" not in k)
    m["kernels.busy_s"] = span_median("kernels.busy_s")
    m["kernels.pois_terms"] = counts.get("kernels.pois_terms", 0)
    m["model.total_cost.calls"] = span_first("model.total_cost.calls")
    m["model.total_cost.self_s"] = span_median("model.total_cost.self_s")
    m["model.burst_prob_safety.self_s"] = span_median("model.burst_prob_safety.self_s")
    m["optimize.sweep.busy_s"] = span_median("optimize.sweep.total_s")
    m["optimize.self_s"] = span_median("optimize.self_s")
    m["optimize.refine_evals"] = span_first("model.total_cost@optimize.optimize.calls")
    m["series.mul.calls"] = span_first("series.mul.calls")
    m["series.div.calls"] = span_first("series.div.calls")
    m["series.busy_s"] = span_median("series.busy_s")
    m["series.bytes_computed"] = counts.get("series.bytes_computed", 0)
    m["fluctuation.expected_exit_index.calls"] = span_first(
        "fluctuation.expected_exit_index.calls")
    m["fluctuation.expected_exit_index.busy_s"] = span_median(
        "fluctuation.expected_exit_index.total_s")
    m["fluctuation.self_s"] = span_median("fluctuation.self_s")
    m["sim.estimate.busy_s"] = span_median("sim.estimate.total_s")
    for key in ("sim.episodes", "sim.censored", "sim.epochs"):
        m[key] = counts.get(key, 0)
    for shape in ("short", "long"):
        rates = []
        for p in traced:
            busy = sum(b for c, b, _ in p["sim"] if c.shape == shape and c.workers == 1)
            epochs = sum(e for c, _, e in p["sim"] if c.shape == shape and c.workers == 1)
            if busy > 0:
                rates.append(epochs / busy)
        m[f"sim.{shape}.epochs_per_s"] = _median(rates)
    speedups = []
    for p in traced:
        one = sum(b for c, b, _ in p["sim"] if c.workers == 1)
        two = sum(b for c, b, _ in p["sim"] if c.workers == 2)
        if two > 0:
            speedups.append(one / two)
    m["sim.speedup_2w"] = _median(speedups)
    m["cli.self_s"] = span_median("cli.self_s")

    e2e = command_metrics(workload, untraced)
    m["cli.analyze_s"] = e2e.get("analyze_s", (0.0,))[0]
    m["cli.sweep_s"] = e2e.get("sweep_s", (0.0,))[0]
    m["cli.optimize_s"] = e2e.get("optimize_s", (0.0,))[0]
    for shape in ("short", "long", "2w"):
        m[f"sim.{shape}.episodes_per_s"] = e2e.get(
            f"sim_{shape}_episodes_per_s", (0.0,))[0]
    gated, probe = failures(workload, untraced + traced)
    m["cli.failed_frac"] = (gated[1] + probe[1]) / (gated[0] + probe[0])
    traced_pass = command_metrics(workload, traced)["pass_s"][0]
    m["trace.overhead_s"] = traced_pass - e2e["pass_s"][0]
    m["cli.pass_s"] = e2e["pass_s"][0]
    m["ref.loop_s"] = e2e["ref_loop_s"][0]
    return m, problems


def focus_report(name, traced) -> list[str]:
    """Share of command time spent in the workload's own layers."""
    lines = []
    shares = []
    for p in traced:
        command_time = p["summary"].get("cli.busy_s", 0.0)
        focus = sum(p["summary"].get(key, 0.0) for key in FOCUS[name])
        shares.append(focus / command_time if command_time else 0.0)
    share = _median(shares)
    verdict = "ok" if share >= 0.9 else "BELOW 0.9"
    lines.append(f"focus {' + '.join(FOCUS[name])} = {share:.4f} of command time "
                 f"({verdict})")
    for key in UNUSED_LAYERS.get(name, ()):
        busy = max(p["summary"].get(key, 0.0) for p in traced)
        lines.append(f"focus {key} = {busy:.6g} s (expected 0)")
    return lines


def run_record(args, passes: int) -> dict:
    import numpy
    import scipy

    caches = {}
    try:
        getconf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                                 timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        getconf = ""
    for line in getconf.splitlines():
        key, _, value = line.partition(" ")
        if key.endswith("CACHE_SIZE") and value.strip().isdigit():
            caches[key] = int(value)
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    src_lines = sum(
        1 for path in sources for line in path.read_text().splitlines() if line.strip()
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "src_nonblank_lines": src_lines,
    }


def git_sha():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _fmt_samples(values) -> str:
    high = _high_percentile(values)
    tail = (f"p{high[0]} {high[1]:.6g}" if high
            else "no percentile has 10 passes beyond it")
    return f"(median of n={len(values)}; {tail})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "swarmgame" / "__init__.py").is_file():
        print(f"error: no swarmgame sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import swarmgame.cli as cli

    if Path(cli.__file__).resolve().parents[1] != SRC:
        print(f"error: imported swarmgame from {cli.__file__}", file=sys.stderr)
        return 2
    from perfbench.tracer import Tracer, patched

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = workloads.build(args.workload, args.seed, Path(tmp))
        setup = Setup(Path(workload.commands[0].argv[2]), args.trace == 1)
        try:
            setup.rep()
            reference_s()
            for warm_argv in workload.warmup:
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(warm_argv) != 0:
                        print(f"error: warm-up {warm_argv[0]} failed", file=sys.stderr)
                        return 2
            if args.trace:
                untraced = run_passes(cli, workload, args.seconds / 2, MIN_PASSES_TRACE,
                                      between=setup.rep)
                with patched(Tracer()) as tracer:
                    traced = run_passes(cli, workload, args.seconds / 2,
                                        MIN_PASSES_TRACE, tracer)
            else:
                untraced = run_passes(cli, workload, args.seconds, MIN_PASSES,
                                      between=setup.rep)
                traced = []
            while len(setup.reps) < SETUP_REPS:
                setup.rep()
        except (SetupError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        setup = setup.reps
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = untraced + traced
    gated, probe = failures(workload, passes)
    print(f"workload {args.workload}: closed loop, 1 client, "
          f"{len(untraced)} untraced + {len(traced)} traced passes")
    setup_s = _median([r["setup_s"] for r in setup])
    print(f"setup_s = {setup_s:.6g} s (median of {len(setup)} fresh interpreters)")
    e2e = command_metrics(workload, untraced)
    for key, (value, unit, samples) in e2e.items():
        print(f"{key} = {value:.6g} {unit} {_fmt_samples(samples)}")
        if key in ("pass_ref", "pass_s"):
            print(f"{key} samples: " + " ".join(f"{v:.4g}" for v in samples))
    print(f"peak_rss_mb = {peak_rss_mb:.6g} MB")
    failed_all = gated[1] + probe[1]
    attempted_all = gated[0] + probe[0]
    print(f"failed_frac = {failed_all / attempted_all:.6g} "
          f"({failed_all} of {attempted_all} commands; known-defect probes "
          f"{probe[1]} of {probe[0]})")
    for command in workload.commands:
        if command.known_defect:
            failed = sum(command.label in p["errors"] for p in passes)
            print(f"known defect ({command.label}): {command.known_defect}; "
                  f"failed in {failed} of {len(passes)} passes")
    seen = Counter((label, e) for p in passes for label, errs in p["errors"].items()
                   for e in errs)
    for (label, e), times in list(seen.items())[:20]:
        print(f"check failed in {times} of {len(passes)} passes: {label}: {e}")

    problems = []
    if args.trace:
        layer, problems = layer_metrics(workload, setup, untraced, traced)
        for key, (unit, _, moves, where) in PER_LAYER.items():
            print(f"{key} = {layer[key]:.6g} {unit}  -> {moves} on {where}")
        for line in focus_report(args.workload, traced):
            print(line)
        metrics = {k: {"value": layer[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                  "pass_ref": e2e["pass_ref"][0]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    for problem in problems:
        print(f"benchmark problem: {problem}")
    print("record: " + json.dumps(run_record(args, len(passes)), sort_keys=True))
    result = {
        "correct": gated[1] == 0 and not problems,
        "attempted": gated[0],
        "failed": gated[1],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
