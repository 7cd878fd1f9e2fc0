#!/usr/bin/env python3
"""Round-capped STCG campaign benchmark.

Builds the campaign runner stcg_perfbench (perfbench/CMakeLists.txt: the
repository's src/ libraries in Release plus src/perfbench.cpp), then runs
one workload of perfbench/workloads.json for about --seconds seconds:
whole passes over the workload's (model, campaign seed) set, each
campaign in its own child process under a watchdog. Prints progress to
stderr and, as the last line of stdout, one JSON object {"correct",
"attempted", "failed", "metrics"}: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1 (see README.md for every metric's
definition).

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--heldout]

--seed derives the campaign seed set (same seed, same campaigns); a seed
whose set would reach the held-out seeds of workloads.json is refused.
--heldout runs the held-out set instead, which is kept for confirming
claims.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Watchdog: a campaign child older than DEADLINE_S seconds, or one whose
# CPU time has not moved for STALL_S seconds (every thread parked), is
# killed; a hung campaign is attempted at most ATTEMPTS times per pass.
DEADLINE_S = 60
STALL_S = 1.5
ATTEMPTS = 8


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the runner; returns (build dir, binary)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no STCG sources next to perfbench/; "
                 "run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir, os.path.join(build_dir, "stcg_perfbench")


def cpu_ticks(pid):
    """utime + stime of a live process, in clock ticks (None if gone)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])
    except (OSError, IndexError, ValueError):
        return None


def run_campaign(exe, work_dir, wl, model, seed, jobs, trace):
    """Runs one campaign under the watchdog.

    Returns (record, failure): failure is None or (kind, message) with kind
    one of "hang" (watchdog expired), "error" (nonzero exit) and "oracle"
    (the oracle replay disagreed with the campaign's coverage).
    """
    out_path = os.path.join(work_dir, "campaign.json")
    cmd = [exe, "--model", model, "--seed", str(seed),
           "--rounds", str(wl["rounds"]), "--jobs", str(jobs),
           "--prune", str(int(wl["prune_dead"])), "--trace", str(int(trace))]
    ck = wl["checkpoint"]
    if ck:
        cmd += ["--checkpoint", os.path.join(work_dir, "campaign.ckpt"),
                "--checkpoint-every", str(ck["every_rounds"]),
                "--resume-at", str(ck["resume_at_round"])]
    start = time.monotonic()
    with open(out_path, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out)
    why = None
    last_ticks, last_progress = -1, start
    nap = 0.001  # short campaigns finish within a few naps
    try:
        while proc.poll() is None:
            time.sleep(nap)
            nap = min(2 * nap, 0.02)
            now = time.monotonic()
            ticks = cpu_ticks(proc.pid)
            if ticks is not None and ticks != last_ticks:
                last_ticks, last_progress = ticks, now
            if now - start > DEADLINE_S:
                why = f"deadline of {DEADLINE_S} s expired"
                break
            if now - last_progress > STALL_S:
                why = f"no CPU progress for {STALL_S} s (deadlock)"
                break
    finally:
        if proc.poll() is None:  # the watchdog fired, or we were interrupted
            proc.kill()
            proc.wait()
    label = f"{model} seed {seed} jobs {jobs}"
    if why:
        return None, ("hang", f"{label}: watchdog: {why}")
    if proc.returncode != 0:
        return None, ("error", f"{label}: exit code {proc.returncode}")
    with open(out_path) as f:
        rec = json.loads(f.read())
    if not rec["oracle_ok"]:
        return None, ("oracle", f"{label}: oracle coverage mismatch")
    return rec, None


def median(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def quantile(xs, q):
    if len(xs) == 1:
        return xs[0]
    percentiles = statistics.quantiles(xs, n=100, method="inclusive")
    return percentiles[round(q * 100) - 1]


def per_model(records, stat):
    """stat(records of one model), geometric mean over the models.

    A workload mixes models whose campaign times differ by up to 50x, so
    the pooled median falls in a gap between two models' clusters and
    jumps whenever the campaign seeds shift one of them, and pooled sums
    are dominated by the slowest model; weighing every model equally keeps
    the statistic on the same footing across seeds.
    """
    by_model = {}
    for r in records:
        by_model.setdefault(r["model"], []).append(r)
    logs = [math.log(stat(rs)) for rs in by_model.values()]
    return math.exp(sum(logs) / len(logs))


def quantile_of(key, q):
    return lambda rs: quantile([r[key] for r in rs], q)


def goals_per_s(rs):
    return (sum(r["goals_covered"] for r in rs)
            / sum(r["campaign_s"] for r in rs))


def end_to_end(records):
    n = len(records)
    return {
        "setup_s": (per_model(records, quantile_of("setup_s", 0.5)), "s"),
        "campaign_s.p50": (per_model(records, quantile_of("campaign_s", 0.5)),
                           "s"),
        "campaign_s.p90": (per_model(records, quantile_of("campaign_s", 0.9)),
                           "s"),
        "goals_per_s": (per_model(records, goals_per_s), "1/s"),
        "cpu_s": (per_model(records, quantile_of("cpu_s", 0.5)), "s"),
        "peak_rss_mb": (max(median([r["rss_mb"] for r in records
                                    if r["model"] == m])
                            for m in {r["model"] for r in records}), "MB"),
        "decision_cov": (sum(r["decision"] for r in records) / n, "ratio"),
        "condition_cov": (sum(r["condition"] for r in records) / n, "ratio"),
        "mcdc_cov": (sum(r["mcdc"] for r in records) / n, "ratio"),
    }


def per_layer(traced, untraced, attempted, failed, jobs):
    """Per-campaign means and pooled ratios over the traced campaigns."""
    n = len(traced) or 1

    def total(key):
        return sum(r[key] for r in traced)

    def mean(key):
        return total(key) / n

    pairs = {}
    for r in untraced:
        pairs.setdefault((r["model"], r["seed"]), []).append(r["campaign_s"])
    overhead = [r["campaign_s"] / median(pairs[(r["model"], r["seed"])]) - 1
                for r in traced if (r["model"], r["seed"]) in pairs]
    solve_s, expand_s = total("solve_s"), total("expand_s")
    return {
        "campaign.count": (len(traced), "count"),
        "fail_ratio": (ratio(failed, attempted), "ratio"),
        "round.solve.s": (mean("solve_s"), "s"),
        "round.solve.count": (mean("solve_count"), "count"),
        "round.solve.max_s": (max([r["solve_max_s"] for r in traced],
                                  default=0.0), "s"),
        "round.solve.cpu_s": (mean("solve_cpu_s"), "s"),
        "pool.efficiency": (ratio(total("solve_cpu_s"), jobs * solve_s),
                            "ratio"),
        "solver.calls": (mean("solver_calls"), "count"),
        "solver.sat": (mean("solver_sat"), "count"),
        "solver.unknown": (mean("solver_unknown"), "count"),
        "solver.sat_ratio": (ratio(total("solver_sat"),
                                   total("solver_calls")), "ratio"),
        "solver.calls_per_s": (ratio(total("solve_calls"), solve_s), "1/s"),
        "round.expand.s": (mean("expand_s"), "s"),
        "round.expand.count": (mean("expand_count"), "count"),
        "sim.steps": (mean("sim_steps"), "count"),
        "sim.steps_per_s": (ratio(total("expand_steps"), expand_s), "1/s"),
        "tree.nodes": (mean("tree_nodes"), "count"),
        "tree.novelty": (ratio(total("expand_new_nodes"),
                               total("expand_steps")), "ratio"),
        "replay.s": (mean("finish_s"), "s"),
        "replay.tests": (mean("replay_tests"), "count"),
        "replay.steps": (mean("replay_steps"), "count"),
        "replay.steps_per_s": (ratio(total("replay_steps"),
                                     total("finish_s")), "1/s"),
        "model.build_s": (mean("build_s"), "s"),
        "compile.s": (mean("compile_s"), "s"),
        "campaign.ctor_s": (mean("ctor_s"), "s"),
        "campaign.resume_ctor_s": (mean("ctor_resume_s"), "s"),
        "goals.total": (mean("goals_total"), "count"),
        "goals.pruned": (mean("goals_pruned"), "count"),
        "checkpoint.saves": (mean("saves"), "count"),
        "checkpoint.save_s": (mean("save_s"), "s"),
        "checkpoint.restore_s": (mean("restore_s"), "s"),
        "checkpoint.bytes": (mean("checkpoint_bytes"), "B"),
        "oracle.replay_s": (mean("oracle_s"), "s"),
        "trace.overhead": (median(overhead), "ratio"),
    }


def span_report(workload, traced, metrics):
    """Self time, count and share of campaign time per span name, then the
    derived ratios and the tracing overhead."""
    rows = {}
    parent_total = 0.0
    for r in traced:
        spans = r["spans"]
        start = min(s[1] for s in spans)
        parent = max(s[1] + s[2] for s in spans) - start
        parent_total += parent
        children = 0.0
        for name, _, dur in spans:
            row = rows.setdefault(name, [0.0, 0])
            row[0] += dur
            row[1] += 1
            children += dur
        row = rows.setdefault("campaign (self)", [0.0, 0])
        row[0] += parent - children
        row[1] += 1
    lines = [f"span self times, workload {workload}, {len(traced)} traced "
             "campaigns", f"{'span':<20}{'self s':>12}{'count':>10}"
             f"{'share':>9}"]
    for name, (self_s, count) in sorted(rows.items(),
                                        key=lambda kv: -kv[1][0]):
        lines.append(f"{name:<20}{self_s:>12.4f}{count:>10}"
                     f"{100 * ratio(self_s, parent_total):>8.1f}%")
    lines.append(f"{'ratio':<20}{'value':>12}")
    for name in ("solver.sat_ratio", "tree.novelty", "pool.efficiency",
                 "trace.overhead"):
        lines.append(f"{name:<20}{metrics[name][0]:>12.4f}")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heldout", action="store_true",
                    help="run the held-out campaign seeds instead of the "
                    "set derived from --seed")
    args = ap.parse_args()
    # A SIGTERM unwinds like an exception, so run_campaign's cleanup kills
    # and reaps the campaign child before the coordinator exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))

    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    wl = spec["workloads"].get(args.workload)
    if wl is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: "
                 + ", ".join(spec["workloads"]))
    if args.heldout:
        seeds = spec["heldout_seeds"]
    else:
        base = args.seed * wl["seeds_per_model"]
        seeds = [base + k + 1 for k in range(wl["seeds_per_model"])]
        if set(seeds) & set(spec["heldout_seeds"]):
            sys.exit(f"perfbench: --seed {args.seed} reaches the held-out "
                     f"seeds {spec['heldout_seeds']}; choose another")
    jobs = wl["jobs"]
    if jobs == "min(4,nproc)":
        jobs = min(4, os.cpu_count() or 1)

    build_dir, exe = build()
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    campaigns = [(m, s) for s in seeds for m in wl["models"]]
    log(f"perfbench: {args.workload}: {len(campaigns)} campaigns per pass, "
        f"seeds {seeds}, jobs {jobs}, trace {args.trace}")

    # Whole passes over the campaign set until --seconds have elapsed, and
    # at least two, so every campaign repeats and its fingerprint can be
    # compared. With --trace 1, passes alternate untraced/traced so
    # trace.overhead compares like with like. A hung campaign counts as
    # failed and is retried (the hang is a thread interleaving, not a
    # property of the campaign), so every pass measures the same set; a
    # campaign that still has no record after its attempts, or that fails
    # any other way, makes the run incorrect, so no campaign can silently
    # drop out of the metrics.
    traced, untraced, failures = [], [], []
    attempted = passes = 0
    t0 = time.monotonic()
    while passes < 2 or time.monotonic() - t0 < args.seconds:
        tracing = bool(args.trace) and passes % 2 == 1
        for model, seed in campaigns:
            for _ in range(ATTEMPTS):
                attempted += 1
                rec, failure = run_campaign(exe, work_dir, wl, model, seed,
                                            jobs, tracing)
                if rec is not None:
                    (traced if tracing else untraced).append(rec)
                    break
                failures.append(failure)
                log(f"perfbench: FAILED {failure[1]}")
                if failure[0] != "hang":
                    break
            else:
                failures.append(("unfinished", f"{model} seed {seed} jobs "
                                 f"{jobs}: no run in {ATTEMPTS} attempts"))
                log(f"perfbench: FAILED {failures[-1][1]}")
        passes += 1

    # Fingerprint gate: every repeat of a (model, seed) campaign must
    # produce the same suite and GenStats; the first repeat is the
    # reference, and a differing repeat counts as a failed campaign.
    reference = {}
    for records in (untraced, traced):
        for rec in list(records):
            key = (rec["model"], rec["seed"])
            ref = reference.setdefault(key, rec["fingerprint"])
            if rec["fingerprint"] != ref:
                failures.append(("fingerprint", f"{key[0]} seed {key[1]}: "
                                 f"fingerprint {rec['fingerprint']} != {ref}"))
                log(f"perfbench: FAILED {failures[-1][1]}")
                records.remove(rec)
    # "unfinished" marks a campaign, not an attempt: its hung attempts are
    # already counted.
    failed = sum(kind != "unfinished" for kind, _ in failures)
    correct = all(kind == "hang" for kind, _ in failures)
    log(f"perfbench: {passes} passes, {attempted} campaigns attempted, "
        f"{failed} failed, {len(untraced)} untraced and {len(traced)} traced "
        f"samples, {time.monotonic() - t0:.1f} s")

    if not untraced or (args.trace and not traced):
        sys.exit("perfbench: every campaign failed")

    # Every campaign record (with its spans when traced) is written out
    # for offline analysis; the spans stay in memory until here.
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    seed_set = "heldout" if args.heldout else f"seed{args.seed}"
    with open(os.path.join(out_dir, f"{args.workload}-{seed_set}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({"workload": args.workload, "seeds": seeds, "jobs": jobs,
                   "failures": failures, "untraced": untraced,
                   "traced": traced}, f)
    if args.trace:
        metrics = per_layer(traced, untraced, attempted, failed, jobs)
        log(span_report(args.workload, traced, metrics))
    else:
        metrics = end_to_end(untraced)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
