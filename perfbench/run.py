"""Benchmark of the arctanderiv CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload derive --seed 1 --seconds 40 --trace 0

Run from anywhere; it benchmarks the package under ``src/`` next to this
directory.  It is a closed loop with one client: one ``python -m arctanderiv``
child at a time, each paying interpreter start-up and a cold binomial-row
cache as a CLI user does.  Every child's stdout is checked against a
reference computed here, outside the timed window.  The workloads and the
metrics are described in README.md beside this file.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs every operation untraced and then under worker.py, and prints the
per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_RUNS = 11
SETUP_CODE = "import arctanderiv, arctanderiv.cli as cli; cli.build_parser()"
FAILURES_KEPT = 20
CALIBRATION_REF_S = 0.1
CALIBRATE_EVERY_S = 1.0

# Wall seconds of one pass, with set-up, checks and some margin included, on
# the 2-vCPU shared virtual machine the benchmark was tuned on.  A traced
# pass runs every operation twice, once traced.
PASS_SECONDS = {"derive": 13.0, "sweep": 20.0, "crosscheck": 13.0}
TRACED_PASS_COST = 2.5
TRACEBACK = "Traceback (most recent call last)"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cases_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> the worker.py span or count it is read from.
LAYER_SELF_TIMES = {
    "cli.self_s": "cli",
    "polynomial.canonicalize_s": "polynomial.canonicalize",
    "polynomial.evaluate_s": "polynomial.evaluate",
    "polynomial.mul_s": "polynomial.mul",
    "polynomial.derivative_s": "polynomial.derivative",
    "composition.reciprocal_jet_s": "composition.reciprocal_jet",
    "composition.square_chain_s": "composition.square_chain",
    "arctan.q_polynomial_s": "arctan.q_polynomial",
    "arctan.expansion_coefficient_s": "arctan.expansion_coefficient",
    "arctan.closed_s": "arctan.closed",
    "arctan.expanded_s": "arctan.expanded",
    "arctan.oracle_s": "arctan.oracle",
    "arctan.pointwise_s": "arctan.pointwise",
    "arctan.crosscheck_s": "arctan.crosscheck",
    "combinatorics.pochhammer_s": "combinatorics.pochhammer",
    "identities.alternating_sum_s": "identities.alternating_sum",
    "identities.closed_form_s": "identities.closed_form",
    "identities.weighted_sum_s": "identities.weighted_sum",
    "identities.terminating_2f1_s": "identities.terminating_2f1",
    "identities.check_s": "identities.check",
    "reports.count_case_s": "reports.count_case",
}
LAYER_CALLS = {
    "polynomial.canonicalize_calls": "polynomial.canonicalize",
    "arctan.expansion_coefficient_calls": "arctan.expansion_coefficient",
    "identities.alternating_sum_calls": "identities.alternating_sum",
    "reports.count_case_calls": "reports.count_case",
}
LAYER_COUNTS = {
    "polynomial.divmod_calls": "count",
    "combinatorics.binomial_calls": "count",
    "combinatorics.binomial_s": "s",
    "reports.failures_kept": "count",
}


def layer_units() -> dict[str, str]:
    units = {name: "s" for name in LAYER_SELF_TIMES}
    units.update({name: "count" for name in LAYER_CALLS})
    units.update(LAYER_COUNTS)
    units.update(
        {
            "cli.out_bytes": "bytes",
            "polynomial.factor_hit_ratio": "ratio",
            "combinatorics.row_hit_ratio": "ratio",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


# ------------------------------------------------------------------ children


@dataclasses.dataclass
class Child:
    status: int
    seconds: float
    maxrss_kb: int
    stdout: str
    stderr: str


class Launcher:
    """Client of launcher.py, which spawns each child and measures it."""

    def __init__(self, env: dict[str, str], workdir: Path):
        self.stdout_path = workdir / "stdout"
        self.stderr_path = workdir / "stderr"
        self.process = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def run(self, argv: list[str]) -> Child:
        request = {"argv": argv, "stdout": str(self.stdout_path), "stderr": str(self.stderr_path)}
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        reply = json.loads(line)
        return Child(
            reply["status"],
            reply["seconds"],
            reply["maxrss_kb"],
            self.stdout_path.read_text(errors="replace"),
            self.stderr_path.read_text(errors="replace"),
        )

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()
        self.process.stdout.close()


def classify(child: Child, check) -> tuple[str, str]:
    """("ok" | "error" | "mismatch", detail) for one finished child.

    A traceback or a non-zero exit is an error; output that differs from the
    reference is a mismatch, whatever the exit code.  Both count as failed.
    """
    if TRACEBACK in child.stderr:
        last = child.stderr.strip().splitlines()[-1]
        return "error", last.split(":", 1)[0]
    if child.status == 0 or child.stdout:
        try:
            reason = check(child.stdout)
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable output ({type(exc).__name__})"
        if reason:
            return "mismatch", reason
    if child.status != 0:
        return "error", f"exit {child.status}"
    return "ok", ""


@dataclasses.dataclass
class Tally:
    """Outcomes of every workload child of one run."""

    seconds: list[float] = dataclasses.field(default_factory=list)
    ok: list[bool] = dataclasses.field(default_factory=list)
    cases: int = 0
    mismatches: int = 0
    maxrss_kb: int = 0
    failures: list[dict] = dataclasses.field(default_factory=list)

    def add(self, op: workloads.Op, child: Child) -> bool:
        outcome, detail = classify(child, op.check)
        self.seconds.append(child.seconds)
        self.ok.append(outcome == "ok")
        self.maxrss_kb = max(self.maxrss_kb, child.maxrss_kb)
        if outcome == "ok":
            self.cases += op.cases
        else:
            self.mismatches += outcome == "mismatch"
            if len(self.failures) < FAILURES_KEPT:
                self.failures.append({"args": list(op.args), outcome: detail})
        return outcome == "ok"

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def percentile_ms(tally: Tally, q: float) -> float | None:
    """Nearest-rank percentile of the latencies, failed operations ranked
    slower than every success; None (worse than any time) if it lands on one."""
    ranked = sorted(s for s, ok in zip(tally.seconds, tally.ok) if ok)
    rank = math.ceil(q * tally.attempted)
    return ranked[rank - 1] * 1000 if rank <= len(ranked) else None


# ------------------------------------------------------------------ the run


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "arctanderiv", *args]


class Calibrator:
    """Host speed, measured with calibrate.py between operations.

    On a shared virtual machine, host speed can drift by tens of percent
    within seconds to minutes (other tenants share its cores), which would
    swamp any change to the program.  End-to-end times are therefore scaled to a host on which
    calibrate.py takes CALIBRATION_REF_S.  calibrate.py shares no code with
    the package, so a change to the package moves only the operations.
    """

    def __init__(self, launcher: Launcher):
        self.launcher = launcher
        self.samples: list[float] = []
        self.busy = 0.0

    def measure(self) -> int:
        """Take a sample; return its index."""
        child = self.launcher.run([sys.executable, str(HERE / "calibrate.py")])
        if child.status != 0:
            raise RuntimeError(f"calibration failed: {child.stderr.strip()}")
        self.samples.append(child.seconds)
        self.busy = 0.0
        return len(self.samples) - 1

    def after(self, child: Child) -> None:
        """Take a sample once CALIBRATE_EVERY_S of operations have run."""
        self.busy += child.seconds
        if self.busy >= CALIBRATE_EVERY_S:
            self.measure()

    def scale(self, index: int) -> float:
        """Factor for work done between samples `index` and `index + 1`: the
        median of the two samples on each side, so that one outlier moves it
        little."""
        window = self.samples[max(index - 1, 0) : index + 3]
        return CALIBRATION_REF_S / statistics.median(window)


def measure_setup(launcher: Launcher, calibrator: Calibrator) -> list[float]:
    """Scaled set-up times."""
    runs = []
    for _ in range(SETUP_RUNS):
        index = calibrator.measure()
        child = launcher.run([sys.executable, "-c", SETUP_CODE])
        if child.status != 0:
            raise RuntimeError(f"set-up failed: {child.stderr.strip()}")
        runs.append((index, child.seconds))
    calibrator.measure()
    return [seconds * calibrator.scale(index) for index, seconds in runs]


def run_passes(workload: str, seconds: float, start: float, one_pass, cost: float = 1.0) -> int:
    """Run round(seconds / (PASS_SECONDS * cost)) passes, at least one, and
    return the number run.

    The count depends on --seconds only, so two runs with the same seed
    measure the same operations whatever the host's speed at the time.  A
    pass that would, judging by the last one, end more than 1.1 * `seconds`
    after `start` (a time.monotonic() value) is skipped; that happens only on
    a host much slower than the one PASS_SECONDS was measured on.
    """
    planned = max(1, round(seconds / (PASS_SECONDS[workload] * cost)))
    for index in range(planned):
        before = time.monotonic()
        one_pass(index)
        now = time.monotonic()
        if now + (now - before) > start + 1.1 * seconds:
            return index + 1
    return planned


def end_to_end(workload: str, seed: int, seconds: float, launcher: Launcher, record: dict):
    start = time.monotonic()
    calibrator = Calibrator(launcher)
    setup = measure_setup(launcher, calibrator)
    tally = Tally()
    raw_busy = []
    record["operations"] = []  # (command and size, raw seconds, scale)

    def one_pass(index: int) -> None:
        ops = workloads.make_pass(workload, seed, index)
        calibrator.measure()
        runs = []
        for op in ops:
            runs.append((op, len(calibrator.samples) - 1, launcher.run(cli_argv(op.args))))
            calibrator.after(runs[-1][2])
        calibrator.measure()
        for op, sample, child in runs:
            raw_busy.append(child.seconds)
            scale = calibrator.scale(sample)
            record["operations"].append((" ".join(op.args[:2]), round(child.seconds, 4), round(scale, 4)))
            child.seconds *= scale
            tally.add(op, child)

    record["passes"] = run_passes(workload, seconds, start, one_pass)
    busy = sum(tally.seconds)
    record["setup_scaled_s"] = setup
    record["calibration_samples_s"] = calibrator.samples
    record["raw_busy_s"] = sum(raw_busy)
    record["latency_samples"] = tally.attempted
    record["samples_beyond_p90"] = tally.attempted - math.ceil(0.9 * tally.attempted)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": tally.ok.count(True) / busy,
        "cases_per_s": tally.cases / busy,
        "p50_ms": percentile_ms(tally, 0.5),
        "p90_ms": percentile_ms(tally, 0.9),
        "peak_rss_mb": tally.maxrss_kb / 1024,
    }
    return tally, {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def pass_layers(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one pass from its summed trace totals."""
    def get(key):
        return totals.get(key, 0)

    values = {name: get("self_s:" + span) for name, span in LAYER_SELF_TIMES.items()}
    values.update({name: get("calls:" + span) for name, span in LAYER_CALLS.items()})
    values.update({name: get("counts:" + name) for name in LAYER_COUNTS})
    divmods = get("counts:polynomial.divmod_calls")
    values["polynomial.factor_hit_ratio"] = (
        get("counts:polynomial.factors_removed") / divmods if divmods else 0.0
    )
    lookups = get("counts:combinatorics.row_hits") + get("counts:combinatorics.row_misses")
    values["combinatorics.row_hit_ratio"] = (
        get("counts:combinatorics.row_hits") / lookups if lookups else 0.0
    )
    values["cli.out_bytes"] = get("out_bytes")
    return values


def traced(workload: str, seed: int, seconds: float, launcher: Launcher, record: dict):
    """Repeat pass 0, each op untraced then traced; per-layer metrics are the
    median over the repetitions of each one's totals."""
    start = time.monotonic()
    tally = Tally()
    ops = workloads.make_pass(workload, seed, 0)
    trace_path = WORK / "trace.json"
    repetitions = []
    wall = {"untraced": 0.0, "traced": 0.0}
    missing: set[str] = set()

    def one_pass(_: int) -> None:
        totals: dict[str, float] = {}
        for op in ops:
            child = launcher.run(cli_argv(op.args))
            tally.add(op, child)
            wall["untraced"] += child.seconds
            trace_path.unlink(missing_ok=True)
            child = launcher.run([sys.executable, str(HERE / "worker.py"), str(trace_path), *op.args])
            tally.add(op, child)
            wall["traced"] += child.seconds
            totals["out_bytes"] = totals.get("out_bytes", 0) + len(child.stdout.encode())
            if not trace_path.exists():  # killed before it could write one
                record["ops_without_trace"] = record.get("ops_without_trace", 0) + 1
                continue
            summary = json.loads(trace_path.read_text())
            missing.update(summary["missing"])
            for group in ("self_s", "calls", "counts"):
                for key, value in summary[group].items():
                    totals[f"{group}:{key}"] = totals.get(f"{group}:{key}", 0) + value
        repetitions.append(pass_layers(totals))

    record["passes"] = run_passes(workload, seconds, start, one_pass, TRACED_PASS_COST)
    record["untraced_traced_s"] = wall
    record["missing_trace_targets"] = sorted(missing)
    units = layer_units()
    metrics = {
        name: (statistics.median(rep[name] for rep in repetitions), units[name])
        for name in repetitions[0]
    }
    metrics["trace.overhead_ratio"] = (wall["traced"] / wall["untraced"], "ratio")
    return tally, metrics


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    result = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return result.stdout.strip() or None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # The CLI's digit-limit failures are part of what is measured, so the
    # children keep the interpreter's default limit.
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arctanderiv" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'arctanderiv'}", file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # for the references, in this process only

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    WORK.mkdir(exist_ok=True)
    launcher = Launcher(child_env(), WORK)
    try:
        measure = traced if args.trace else end_to_end
        tally, metrics = measure(args.workload, args.seed, args.seconds, launcher, record)
    finally:
        launcher.close()
        shutil.rmtree(WORK, ignore_errors=True)
    record["loadavg_end"] = os.getloadavg()
    record["failures"] = tally.failures

    for name, (value, unit) in metrics.items():
        print(f"{name} = {'null' if value is None else f'{value:.6g}'} {unit}")
    print(f"attempted = {tally.attempted}, failed = {tally.failed}")
    print("record " + json.dumps(record))
    result = {
        "correct": tally.mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
