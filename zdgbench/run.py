"""Benchmark of the zdgspec command line; see README.md beside this file.

    python3 zdgbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Runs rounds of the workload for --seconds. A round spawns a fresh worker
interpreter (bench_worker.py) that runs one seed-drawn list of CLI commands;
every output is then checked against the benchmark's own arithmetic. Every
time is rescaled to a reference machine speed by the speed probes timed in
its round (bench_speed.py); the raw times are printed beside them. With
--trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics of traced rounds, each paired
with an untraced round on the same commands to give the tracing overhead.
Lines before it give every metric with its sample count, the failed
fraction and the machine. A JSON record of the run, and with tracing its
spans, go to .zdgbench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# before numpy loads: the speed probe must run here as it runs in a worker
os.environ.update(BLAS_ENV)

from bench_checks import check_command  # noqa: E402
from bench_speed import probe, scale  # noqa: E402
from bench_trace import REQUIRED, SPAN_METRICS, span_metrics  # noqa: E402
from bench_workloads import WORKLOADS, rng_for  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".zdgbench_out"

SETUP_PROBES = 6  # import-only workers per untraced run, for setup_s
HARD_LIMIT_S = 165  # no new round starts after this, whatever --seconds says

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# printed, not part of the result: times as measured, and the probe itself
RAW = [("raw.setup_s", "s"), ("raw.wall_s", "s"), ("raw.query_p50_ms", "ms"), ("probe_ms", "ms")]
# reported as a mean over the rounds, which uses every round measured; a
# median of a run's few rounds would jump with whichever round is in the middle
MEAN_OF_ROUNDS = ("wall_s", "query_p50_ms", "raw.wall_s", "raw.query_p50_ms")
PER_LAYER = [
    ("numtheory.factorize.hit_ratio", "ratio", "higher"),
    *[(name, unit, "lower") for name, unit, _span, _field in SPAN_METRICS],
    ("cli.bytes_out", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Round:
    """One worker. Raw times are as measured; setup_s, latencies_s and
    wall_s are rescaled to the reference speed by the round's probes."""

    commands: list[list[str]]
    traced: bool
    setup_raw_s: float = 0.0
    probes: list[float] = field(default_factory=list)  # parent's, then the worker's
    result: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.result)

    @property
    def latencies_raw_s(self) -> list[float]:
        return [c["latency_s"] for c in self.result["commands"]]

    @property
    def setup_s(self) -> float:
        return self.setup_raw_s * scale(*self.probes)

    @property
    def latencies_s(self) -> list[float]:
        return [t * scale(*self.probes) for t in self.latencies_raw_s]

    @property
    def wall_raw_s(self) -> float:
        return self.setup_raw_s + sum(self.latencies_raw_s)

    @property
    def wall_s(self) -> float:
        return self.setup_s + sum(self.latencies_s)


def worker_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    return env


def spawn(commands: list[list[str]], traced: bool, deadline: float, meta: bool = False) -> Round:
    """Run one worker to completion; a worker that fails or overruns the
    deadline leaves the round without a result."""
    rnd = Round(commands, traced)
    job = json.dumps({"commands": commands, "trace": traced, "meta": meta})
    before = probe()
    t_spawn = clock()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "bench_worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=worker_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        out, err = proc.communicate(job, timeout=max(1.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        rnd.failures = [f"worker overran the time limit on {commands}"]
        return rnd
    if proc.returncode != 0:
        rnd.failures = [f"worker exited {proc.returncode}: {err.strip()[-2000:]}"]
        return rnd
    rnd.result = json.loads(out)
    rnd.setup_raw_s = rnd.result["t_ready"] - t_spawn
    rnd.probes = [before, *rnd.result["probes"]]
    return rnd


def score(rnd: Round) -> None:
    """Check every output of a finished round; one failure per command."""
    for argv, cmd in zip(rnd.commands, rnd.result["commands"]):
        reason = check_command(argv, cmd["rc"], cmd["out"])
        if reason:
            rnd.failures.append(reason + (f"; stderr: {cmd['err'][-500:]}" if cmd["err"] else ""))


def failed_count(rnd: Round) -> int:
    return len(rnd.failures) if rnd.ok else len(rnd.commands)


def layer_values(rnd: Round) -> dict[str, float]:
    res = rnd.result
    lookups = res["factorize_hits"] + res["factorize_misses"]
    values = span_metrics(res["spans"])
    values["numtheory.factorize.hit_ratio"] = res["factorize_hits"] / lookups if lookups else 0.0
    values["cli.bytes_out"] = sum(len(c["out"].encode()) for c in res["commands"])
    return values


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    draw = WORKLOADS[workload]
    rng = rng_for(workload, seed)
    t_begin = clock()
    hard = t_begin + HARD_LIMIT_S
    # unmeasured: compiles bytecode and warms the file cache, reports versions
    warm = spawn([], False, hard, meta=True)
    if not warm.ok:
        raise RuntimeError(warm.failures[0])
    t0 = clock()
    probes = [] if traced else [spawn([], False, hard) for _ in range(SETUP_PROBES)]
    rounds: list[Round] = []
    durations: list[float] = []
    while True:
        start = clock()
        commands = draw(rng)
        # traced runs pair each traced round with an untraced one on the same
        # commands, alternating which goes first
        order = [False]
        if traced:
            order = [False, True] if len(durations) % 2 == 0 else [True, False]
        for tr in order:
            rnd = spawn(commands, tr, hard)
            if rnd.ok:
                score(rnd)
            rounds.append(rnd)
        durations.append(clock() - start)
        if not all(r.ok for r in rounds[-len(order):]):
            break
        elapsed = clock() - t0
        if elapsed + statistics.median(durations) > seconds or clock() > hard:
            break
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "measured_s": clock() - t0,
        "meta": warm.result["meta"],
        "probes": probes,
        "rounds": rounds,
    }


def end_to_end(run: dict) -> tuple[dict, dict]:
    plain = [r for r in run["rounds"] if r.ok and not r.traced]
    workers = [p for p in run["probes"] if p.ok] + plain
    samples = {
        "setup_s": [r.setup_s for r in workers],
        "wall_s": [r.wall_s for r in plain],
        # a round holds one command per stratum of its workload, so its
        # median command is always from the same stratum
        "query_p50_ms": [statistics.median(r.latencies_s) * 1e3 for r in plain],
        "peak_rss_mb": [r.result["maxrss_kb"] / 1024 for r in plain],
        "raw.setup_s": [r.setup_raw_s for r in workers],
        "raw.wall_s": [r.wall_raw_s for r in plain],
        "raw.query_p50_ms": [statistics.median(r.latencies_raw_s) * 1e3 for r in plain],
        "probe_ms": [x * 1e3 for r in workers for x in r.probes],
    }
    return {
        k: (statistics.fmean if k in MEAN_OF_ROUNDS else statistics.median)(v)
        for k, v in samples.items()
        if v
    }, samples


def per_layer(run: dict) -> tuple[dict, dict, list[str]]:
    rounds = run["rounds"]
    # rounds come in (untraced, traced) pairs on the same commands
    pairs = [(a, b) if b.traced else (b, a) for a, b in zip(rounds[::2], rounds[1::2])]
    pairs = [(plain, traced) for plain, traced in pairs if plain.ok and traced.ok]
    samples: dict[str, list[float]] = {}
    for _plain, traced in pairs:
        for name, value in layer_values(traced).items():
            samples.setdefault(name, []).append(value)
    samples["trace.overhead_frac"] = [traced.wall_s / plain.wall_s - 1 for plain, traced in pairs]
    calls = Counter(span[0] for _plain, traced in pairs for span in traced.result["spans"])
    silent = [name for name in REQUIRED[run["workload"]] if not calls[name]]
    return {k: statistics.median(v) for k, v in samples.items() if v}, samples, silent


def write_record(run: dict, metrics: dict, samples: dict, failures: list[str]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{run['workload']}-seed{run['seed']}-trace{int(run['trace'])}"
    record = {
        "workload": run["workload"],
        "seed": run["seed"],
        "seconds": run["seconds"],
        "trace": run["trace"],
        "measured_s": run["measured_s"],
        "machine": machine(run),
        "metrics": metrics,
        "samples": samples,
        "rounds": [
            {
                "traced": r.traced,
                "commands": r.commands,
                "setup_raw_s": r.setup_raw_s,
                "latencies_raw_s": r.latencies_raw_s if r.ok else [],
                "probes_s": r.probes,
            }
            for r in [*run["probes"], *run["rounds"]]
        ],
        "failures": failures,
    }
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    if run["trace"]:
        with gzip.open(OUT_DIR / f"{stem}-spans.ndjson.gz", "wt") as fh:
            for i, r in enumerate(run["rounds"]):
                for sid, (name, parent, cmd, start, end, attr) in enumerate(
                    r.result.get("spans", [])
                ):
                    fh.write(json.dumps({
                        "round": i, "id": sid, "parent": parent, "command": cmd,
                        "name": name, "start": start, "end": end, "attr": attr,
                    }) + "\n")
    return path


def machine(run: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **run["meta"],
        "blas_threads": ",".join(f"{k}={v}" for k, v in BLAS_ENV.items()),
        "seed": run["seed"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zdgspec" / "cli.py").is_file():
        print(f"no zdgspec sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark could not start a worker: {exc}", file=sys.stderr)
        return 1

    rounds = run["rounds"]
    attempted = sum(len(r.commands) for r in rounds)
    failed = sum(failed_count(r) for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    if args.trace:
        metrics, samples, silent = per_layer(run)
        failures += [f"span {s} recorded no calls" for s in silent]
        units = PER_LAYER
    else:
        metrics, samples = end_to_end(run)
        units = END_TO_END
    correct = not failures and all(name in metrics for name, _u, _b in units)
    record = write_record(run, metrics, samples, failures)

    print(f"# zdgbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} rounds={len(rounds)}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine(run).items()))
    for name, unit in [(name, unit) for name, unit, _better in units] + RAW:
        if name in metrics:
            stat = "mean" if name in MEAN_OF_ROUNDS else "median"
            print(f"# {name} = {metrics[name]:.6g} {unit} ({stat} of {len(samples[name])})")
    print(f"# failed_frac = {failed / attempted if attempted else 0:.6g} "
          f"({failed} of {attempted} commands)")
    print(f"# record {record.relative_to(ROOT)}")
    for reason in failures[:10]:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit, _better in units
            if name in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
