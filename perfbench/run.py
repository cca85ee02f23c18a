#!/usr/bin/env python3
"""Wall-clock benchmark of the G-means MapReduce drivers.

One measured run (the benchmark contract):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the `perfbench` binary from source, starts one fresh process per
sample, checks every answer, and prints as its last stdout line one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones, measured with
tracing off; with `--trace 1` they are the per-layer ones of a separate
traced sample.

The A/A self-check runs two sets of every workload, interleaved, on two
seeds and compares them against the bounds in BENCHMARK.json:

    python3 perfbench/run.py --self-check [--seeds 1,2] [--seconds 40]

See perfbench/README.md for the workloads, the metrics and the protocol.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Scratch space of the benchmark; ignored by git, inside the checkout.
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")

WORKLOADS = ("gmeans_ondisk", "multik_cached", "gmeans_spill")
# The workload whose answer must equal a buffered, uncompressed run.
SPILLING = "gmeans_spill"
# Datasets per set, derived from the seed; each round runs every one.
DATASETS = 12
# Untraced samples before, and again after, the traced one.
TRACE_BASELINE = 3
# A sample that takes longer than this is killed and counted as failed.
SAMPLE_TIMEOUT_S = 150


def load_spec():
    """The metric table of BENCHMARK.json: {name: {"unit", "better",
    "bound"}} for the end-to-end metrics and {name: {"unit", "better"}}
    for the per-layer ones."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    table = lambda ms: {m["name"]: {k: v for k, v in m.items() if k != "name"} for m in ms}
    return table(spec["end_to_end"]), table(spec["per_layer"])


END_TO_END, PER_LAYER = load_spec()

def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def worsening(before, after, better):
    """How much worse `after` is than `before`, as a share of `before`
    (negative when it is better)."""
    if before == 0:
        return 0.0 if after == before else float("inf")
    change = (after - before) / before
    return change if better == "lower" else -change


def disagreement(a, b, better):
    """How far two sets of the same code disagree: the worsening from
    either one to the other, whichever is larger. Either set may stand
    for the parent."""
    return max(worsening(a, b, better), worsening(b, a, better))


def dataset_mean_of_medians(samples, key):
    """Median of `key` per dataset, then the mean over datasets: every
    dataset weighs the same however many samples it got."""
    by_dataset = {}
    for s in samples:
        by_dataset.setdefault(s["dataset"], []).append(s[key])
    return statistics.fmean(median(v) for v in by_dataset.values())


# ---------------------------------------------------------------------
# Building and sampling
# ---------------------------------------------------------------------


def build():
    """Builds the benchmark binary; returns its path or exits non-zero."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        sys.exit(3)
    if done.returncode != 0:
        log("perfbench: build failed")
        sys.exit(3)
    return os.path.join(ROOT, target, "release", "perfbench")


def fs_type(path):
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", path],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


TMPFS_WRAPPER = 'mount -t tmpfs -o size=512m perfbench "$0" && TMPDIR="$0" exec "$@"'


class Spill:
    """Where samples put their spill runs: a tmpfs the benchmark mounts
    in a private mount namespace over a directory of the checkout, or,
    where that is not allowed, the directory itself."""

    def __init__(self):
        self.tmpfs_dir = os.path.join(WORK, "tmpfs")
        self.disk_dir = os.path.join(WORK, "disk")
        os.makedirs(self.tmpfs_dir, exist_ok=True)
        os.makedirs(self.disk_dir, exist_ok=True)
        probe = self.command(["stat", "-f", "-c", "%T", self.tmpfs_dir], tmpfs=True)
        try:
            out = subprocess.run(probe, capture_output=True, text=True, timeout=10)
            self.tmpfs = out.returncode == 0 and out.stdout.strip() == "tmpfs"
        except (OSError, subprocess.TimeoutExpired):
            self.tmpfs = False
        self.timed_fs = "tmpfs" if self.tmpfs else fs_type(self.disk_dir)

    def command(self, argv, tmpfs):
        if not tmpfs:
            return argv
        return ["unshare", "--user", "--map-root-user", "--mount",
                "sh", "-c", TMPFS_WRAPPER, self.tmpfs_dir] + argv

    def run(self, argv, on_disk=False):
        tmpfs = self.tmpfs and not on_disk
        env = dict(os.environ, TMPDIR=self.disk_dir)
        return subprocess.run(self.command(argv, tmpfs), env=env, capture_output=True,
                              text=True, timeout=SAMPLE_TIMEOUT_S)


def dataset_seed(seed, dataset):
    return seed * 1000 + dataset


def sample(binary, spill, workload, seed, dataset, variant="timed", trace=False, on_disk=False):
    """Runs one fresh process; returns its parsed result, or a failure
    record."""
    argv = [binary, "run", "--workload", workload,
            "--seed", str(dataset_seed(seed, dataset)), "--variant", variant]
    if trace:
        argv.append("--trace")
    record = {"workload": workload, "dataset": dataset, "variant": variant}
    try:
        done = spill.run(argv, on_disk=on_disk)
    except subprocess.TimeoutExpired:
        return dict(record, ok=False, problems=[f"timed out after {SAMPLE_TIMEOUT_S} s"])
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or [f"exit code {done.returncode}"]
        return dict(record, ok=False, problems=tail)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return dict(record, ok=False, problems=["unreadable sample output"])
    result.update(record, ok=bool(result.get("correct")))
    return result


# ---------------------------------------------------------------------
# Sets of samples
# ---------------------------------------------------------------------


def measure_set(binary, spill, workloads, seed, seconds):
    """One set: references, a discarded warm-up, then interleaved rounds
    over every (dataset, workload) until `seconds` per workload have
    passed, all counted. Returns {workload: {"samples": [...],
    "references": {...}}}."""
    budget = seconds * len(workloads)
    start = time.monotonic()
    out = {w: {"samples": [], "references": {}, "warmup": None} for w in workloads}
    for w in workloads:
        if w == SPILLING:
            for d in range(DATASETS):
                out[w]["references"][d] = sample(binary, spill, w, seed, d, variant="buffered")
    for w in workloads:
        out[w]["warmup"] = sample(binary, spill, w, seed, 0)
    # Whole rounds only, so every dataset gets the same number of
    # samples; a round starts only if it should end within the budget.
    rounds, round_s = 0, 0.0
    while rounds == 0 or time.monotonic() - start + round_s <= budget:
        began = time.monotonic()
        for d in range(DATASETS):
            for w in workloads:
                s = sample(binary, spill, w, seed, d)
                s["round"] = rounds
                out[w]["samples"].append(s)
        round_s = time.monotonic() - began
        rounds += 1
    return out


def judge(workload, measured):
    """Applies the per-run checks; marks each sample `failed` with its
    reasons and returns (attempted, failed, problems)."""
    samples = measured["samples"]
    problems = []
    # Every run of a dataset must give the same k, job count and centers.
    agreed = {}
    for d in range(DATASETS):
        runs = [s for s in samples if s["dataset"] == d and s["ok"]]
        keys = [(s["k"], s["jobs"], s["center_hash"]) for s in runs]
        if keys:
            agreed[d] = max(set(keys), key=keys.count)
    for s in samples:
        reasons = list(s.get("problems", [])) if not s["ok"] else []
        if s["ok"]:
            key = (s["k"], s["jobs"], s["center_hash"])
            if key != agreed.get(s["dataset"]):
                reasons.append(f"dataset {s['dataset']}: (k, jobs, hash) {key} differs "
                               f"from the set's {agreed.get(s['dataset'])}")
            ref = measured["references"].get(s["dataset"])
            if workload == SPILLING:
                if not ref or not ref.get("ok"):
                    reasons.append(f"dataset {s['dataset']}: buffered reference failed")
                elif ref["center_hash"] != s["center_hash"]:
                    reasons.append(f"dataset {s['dataset']}: centers differ from the "
                                   f"buffered reference")
        s["failed"] = bool(reasons)
        problems.extend(reasons)
    failed = sum(s["failed"] for s in samples)
    return len(samples), failed, problems


def end_to_end(samples):
    good = [s for s in samples if not s["failed"]]
    if not good:
        return {}
    values = {m: dataset_mean_of_medians(good, m) for m in END_TO_END if m != "pts_per_s"}
    # Set-up work does not depend on the dataset: the median of every
    # sample is steadier than a mean of per-dataset medians.
    values["setup_s"] = median([s["setup_s"] for s in good])
    values["pts_per_s"] = good[0]["points"] / values["wall_s"]
    return values


def per_round(samples, metric):
    """The metric aggregated within each round, for quartiles of a set."""
    rounds = sorted({s["round"] for s in samples})
    values = []
    for r in rounds:
        chunk = [s for s in samples if s["round"] == r and not s["failed"]]
        if chunk:
            values.append(end_to_end(chunk)[metric])
    return values


# ---------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------


def load_average():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return []


def tool_version(argv):
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=20, cwd=ROOT)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def environment(spill, parallelism):
    return {
        "nproc": os.cpu_count(),
        "available_parallelism": parallelism,
        "machine": platform.machine(),
        "rustc": tool_version(["rustc", "--version"]),
        "git_commit": tool_version(["git", "rev-parse", "HEAD"]),
        "default_tmp_fs": fs_type(os.environ.get("TMPDIR", "/tmp")),
        "spill_dir_fs": spill.timed_fs,
        "disk_spill_dir_fs": fs_type(spill.disk_dir),
    }


def save_raw(name, payload):
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"{name}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)
    return path


def first_parallelism(samples):
    return next((s["available_parallelism"] for s in samples if s.get("ok")), None)


# ---------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------


def timed_run(binary, spill, workload, seed, seconds):
    load_before = load_average()
    measured = measure_set(binary, spill, [workload], seed, seconds)[workload]
    attempted, failed, problems = judge(workload, measured)
    metrics = end_to_end(measured["samples"])
    env = environment(spill, first_parallelism(measured["samples"]))
    env.update(load_before=load_before, load_after=load_average())
    raw = save_raw(f"{workload}-seed{seed}", {"environment": env, **measured})
    info = {"environment": env, "problems": problems[:20], "raw_samples": raw,
            "samples_per_dataset": attempted // DATASETS}
    print(json.dumps(info))
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": END_TO_END[m]["unit"]} for m, v in metrics.items()},
    }


def traced_run(binary, spill, workload, seed):
    load_before = load_average()
    measured = {"samples": [], "references": {}}
    if workload == SPILLING:
        measured["references"][0] = sample(binary, spill, workload, seed, 0, variant="buffered")
    measured["warmup"] = sample(binary, spill, workload, seed, 0)  # discarded
    # Untraced samples on both sides of the traced one.
    for r in range(2 * TRACE_BASELINE + 1):
        s = sample(binary, spill, workload, seed, 0, trace=r == TRACE_BASELINE)
        s["round"] = r
        measured["samples"].append(s)
    traced = measured["samples"][TRACE_BASELINE]
    disk = None
    if workload == SPILLING:
        disk = sample(binary, spill, workload, seed, 0, on_disk=True)
        disk["round"] = len(measured["samples"])
        measured["samples"].append(disk)
    attempted, failed, problems = judge(workload, measured)

    # Layers a workload does not use report 0.
    layers = dict.fromkeys(PER_LAYER, 0.0)
    untraced = [s for s in measured["samples"] if s is not traced and s is not disk
                and not s["failed"]]
    walls = [s["wall_s"] for s in untraced]
    if traced["ok"]:
        layers.update(traced["layers"])
        if walls:
            layers["trace.overhead"] = traced["wall_s"] / median(walls) - 1.0
    if workload == SPILLING:
        layers["spill.sys_s"] = median([s["sys_s"] for s in untraced]) if untraced else 0.0
        layers["spill.disk_sys_s"] = disk["sys_s"] if disk and disk["ok"] else 0.0
    unknown = sorted(set(traced.get("layers", {})) - set(PER_LAYER))
    if unknown:
        problems.append(f"layer metrics missing from BENCHMARK.json: {unknown}")
    env = environment(spill, first_parallelism(measured["samples"]))
    env.update(load_before=load_before, load_after=load_average())
    within = bool(walls) and traced["ok"] and min(walls) <= traced["wall_s"] <= max(walls)
    raw = save_raw(f"{workload}-seed{seed}-trace", {"environment": env, **measured})
    info = {"environment": env, "problems": problems[:20], "raw_samples": raw,
            "untraced_wall_s": walls, "traced_wall_s": traced.get("wall_s"),
            "traced_wall_within_untraced": within}
    print(json.dumps(info))
    return {
        "correct": failed == 0 and traced["ok"] and not unknown,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": layers[m], "unit": PER_LAYER[m]["unit"]} for m in PER_LAYER},
    }


def self_check(binary, spill, seeds, seconds):
    """Two sets of the same build per seed; every workload interleaved.
    Exit status 0 only when every run is correct and, for every
    end-to-end metric, neither set is worse than the other by more than
    the metric's bound."""
    report = {"seeds": {}}
    load_before = load_average()
    ok = True
    for seed in seeds:
        sets = []
        for name in ("A", "B"):
            log(f"self-check: seed {seed}, set {name}")
            measured = measure_set(binary, spill, list(WORKLOADS), seed, seconds)
            for w in WORKLOADS:
                measured[w]["judged"] = judge(w, measured[w])
            sets.append(measured)
        seed_report = {}
        for w in WORKLOADS:
            a, b = sets[0][w], sets[1][w]
            attempted = a["judged"][0] + b["judged"][0]
            failed = a["judged"][1] + b["judged"][1]
            ma, mb = end_to_end(a["samples"]), end_to_end(b["samples"])
            rows = {}
            for m, spec in END_TO_END.items():
                if m not in ma or m not in mb:
                    rows[m] = {"ok": False}
                    ok = False
                    continue
                apart = disagreement(ma[m], mb[m], spec["better"])
                row_ok = apart <= spec["bound"]
                ok &= row_ok
                rows[m] = {
                    "unit": spec["unit"], "a": ma[m], "b": mb[m],
                    "b_worse_by": worsening(ma[m], mb[m], spec["better"]),
                    "apart_by": apart, "bound": spec["bound"], "ok": row_ok,
                    "a_quartiles": quartiles(per_round(a["samples"], m)),
                    "b_quartiles": quartiles(per_round(b["samples"], m)),
                }
            ok &= failed == 0
            seed_report[w] = {"attempted": attempted, "failed": failed,
                              "failed_share": failed / attempted if attempted else 1.0,
                              "problems": (a["judged"][2] + b["judged"][2])[:20],
                              "metrics": rows}
        report["seeds"][str(seed)] = seed_report
    report["environment"] = environment(spill, first_parallelism(sets[0][WORKLOADS[0]]["samples"]))
    report["environment"].update(load_before=load_before, load_after=load_average())
    report["ok"] = ok
    path = save_raw("self-check", report)
    for seed, per_w in report["seeds"].items():
        for w, r in per_w.items():
            print(f"seed {seed} {w}: {r['failed']}/{r['attempted']} failed")
            for m, row in r["metrics"].items():
                if "a" not in row:
                    print(f"  {m:13} missing")
                    continue
                qa, qb = row["a_quartiles"], row["b_quartiles"]
                print(f"  {m:13} A {row['a']:.6g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                      f"  B {row['b']:.6g} [{qb[0]:.4g}, {qb[2]:.4g}]"
                      f"  B worse by {row['b_worse_by']:+.2%}, apart by {row['apart_by']:.2%}"
                      f" (bound {row['bound']:.0%})"
                      f"  {'ok' if row['ok'] else 'OUT OF BOUND'}")
    print(f"self-check {'passed' if ok else 'FAILED'}; report in {path}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--seeds", default="1,2", help="seeds of the self-check")
    args = p.parse_args(argv)
    if not args.self_check and not args.workload:
        p.error("--workload is required")
    binary = build()
    spill = Spill()
    if args.self_check:
        seeds = [int(s) for s in args.seeds.split(",")]
        return self_check(binary, spill, seeds, args.seconds)
    if args.trace:
        result = traced_run(binary, spill, args.workload, args.seed)
    else:
        result = timed_run(binary, spill, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
