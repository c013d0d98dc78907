#!/usr/bin/env python3
"""The snids benchmark: one command for every workload and metric.

Run from the repository root:

    python3 perfbench/run.py --workload worm-trace --seed 1 --seconds 10 --trace 0

It builds `snids` and the `perfbench` helper, generates the workload's
capture from the seed, and then either

* (`--trace 0`) times passes of `snids analyze <capture> --json`, each a
  child process from spawn to exit, one at a time from this process
  (a closed loop with one client), for `--seconds` seconds, and prints the
  end-to-end metrics; or
* (`--trace 1`) runs the traced layer replay on the same capture,
  cross-checked against one `snids analyze` pass, and prints the
  per-layer metrics.

Every pass is checked (exit status, both ledgers, an alert stream
byte-identical to the first pass and, on the sharded workload, to the
unsharded run). The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. See README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ["worm-trace", "poly-storm", "hostile-mix", "hostile-mix-sharded"]

# Metric names are quoted by tools and by later changes: keep them plain.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Children run from a cleared environment: one analysis worker (the host's
# second vCPU is mostly absent, see README.md) and no SNIDS_OBS, which
# would switch observability on for every pass.
CHILD_ENV = {"SNIDS_THREADS": "1"}

# Set-up probes on the header-only capture, in one block before and one
# after the capture passes, so that they sample the host over the whole
# run. The first few of a block are slower (cold page cache and loader),
# so they are discarded.
SETUP_WARMUP = 3
SETUP_PASSES = 40
# Capture passes discarded before timing starts.
PASS_WARMUP = 2

# Host-speed normalization (see README.md). The host's speed drifts by
# +-20 % over tens of seconds with other tenants' load, in CPU time as
# much as in wall time. Each pass is followed by a fixed reference job
# that shares no code with snids; a pass's wall is scaled by
# REFERENCE_NOMINAL_S over the median reference time of the passes
# around it, i.e. reported at the host speed where that job takes 15 ms.
REFERENCE_NOMINAL_S = 0.015
REFERENCE_NEIGHBOURS = 2

RECORD_DROPS = ("pcap_record_malformed", "pcap_record_truncated", "frame_undecodable")
PACKET_DROPS = (
    "checksum_failed",
    "defrag_cap_exceeded",
    "defrag_oversize",
    "defrag_timeout",
    "defrag_invalid",
    "defrag_incomplete",
)
# A tracked flow that left without an analysis verdict.
FAILED_FLOW_DROPS = ("flow_evicted", "shed_unanalyzed", "analysis_panicked")


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def valid_metric_name(name):
    return METRIC_NAME.fullmatch(name) is not None and len(name) <= 64


def build(target_dir):
    """Build the `snids` binary and the `perfbench` helper (release)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "snids"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"`{' '.join(cmd)}` failed with status {done.returncode}")
    bins = {name: os.path.join(target_dir, "release", name) for name in ("snids", "perfbench")}
    for path in bins.values():
        if not os.access(path, os.X_OK):
            raise BenchError(f"build produced no {path}")
    return bins


def run_passes(bins, argv, work, warmup=0, count=None, seconds=None):
    """Time passes of `argv`, each a child spawned by the `perfbench`
    helper from a cleared environment; return the checked passes (warm-up
    passes first)."""
    log_path = os.path.join(work, "passes.jsonl")
    cmd = [bins["perfbench"], "passes", "--out", log_path, "--warmup", str(warmup)]
    for k, v in CHILD_ENV.items():
        cmd += ["--env", f"{k}={v}"]
    cmd += ["--count", str(count)] if count is not None else ["--seconds", repr(seconds)]
    done = subprocess.run(cmd + ["--", *argv], stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"pass runner failed with status {done.returncode}")
    with open(log_path) as f:
        passes = [Pass(json.loads(line)) for line in f]
    os.remove(log_path)
    # Alert lists are large on the storm; only the first pass's is used.
    for p in passes[1:]:
        p.alerts = None
    return passes


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """One checked `snids analyze --json` pass."""

    def __init__(self, record):
        self.wall = record["wall_s"]
        self.status = record["status"]
        self.rss_kib = record["maxrss_kib"]
        self.warmup = record["warmup"]
        self.reference = record["reference_s"]
        self.problems = []
        text = record["stdout"]
        try:
            doc = json.loads(text)
            self.stats = doc["stats"]
            self.alerts = doc["alerts"]
        except (ValueError, KeyError, TypeError):
            self.stats, self.alerts, self.alert_stream, self.alert_json = {}, [], "", ""
            self.problems.append(f"unparsable output (exit {self.status})")
            return
        # The alert stream without each alert's `detail` member (the
        # fields `Alert::render` prints, the form the repository's
        # equivalence suites hold byte-identical); and the raw JSON array,
        # whose `detail` member is compared only as a diagnostic (see
        # README.md).
        self.alert_stream = digest(
            json.dumps([{k: v for k, v in a.items() if k != "detail"} for a in self.alerts])
        )
        self.alert_json = digest(text[text.find('"alerts":[') :])
        # `snids analyze` exits 1 when alerts fired and 0 when none did.
        want = 1 if self.alerts else 0
        if self.status != want:
            self.problems.append(f"exit {self.status}, expected {want}")
        drops = self.stats["drops"]
        s = self.stats
        if s["records_in"] != s["packets"] + sum(drops[k] for k in RECORD_DROPS):
            self.problems.append("record ledger unbalanced")
        if s["packets"] != s["processed"] + sum(drops[k] for k in PACKET_DROPS):
            self.problems.append("packet ledger unbalanced")

    def flows(self):
        """(attempted, failed) operations in this pass: tracked flows, and
        flows that left without an analysis verdict. A pass that broke a
        check counts one more failed operation."""
        broken = 1 if self.problems else 0
        if not self.stats:
            return broken, broken
        drops = self.stats["drops"]
        attempted = self.stats["flows_analyzed"] + drops["flow_evicted"] + drops["shed_unanalyzed"]
        failed = sum(drops[k] for k in FAILED_FLOW_DROPS) + broken
        return attempted + broken, failed


def normalized_walls(passes):
    """Pass walls at the nominal host speed: each scaled by the nominal
    reference time over the median reference time of its neighbours."""
    refs = [p.reference for p in passes]
    k = REFERENCE_NEIGHBOURS
    return [
        p.wall * REFERENCE_NOMINAL_S / statistics.median(refs[max(0, i - k) : i + k + 1])
        for i, p in enumerate(passes)
    ]


def quantile(values, q):
    """The q-quantile (0..1) by linear interpolation between order stats."""
    v = sorted(values)
    pos = (len(v) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def detection(alerts, truth):
    """Detection metrics of an alert stream against the generator's truth."""
    planted = set(truth["planted"])
    intact = planted - set(truth["touched"])
    sources = {a["src"] for a in alerts}
    detected = sources & planted
    return {
        "detect_ratio": len(sources & intact) / len(intact) if intact else 0.0,
        "source_precision": len(detected) / len(sources) if sources else 0.0,
        "alerts_per_source": len(alerts) / len(detected) if detected else 0.0,
        "false_alert_sources": len(sources - planted),
    }


def generate(bins, workload, seed, work):
    if os.path.isdir(work):
        shutil.rmtree(work)
    os.makedirs(work)
    cmd = [bins["perfbench"], "gen", "--workload", workload, "--seed", str(seed)]
    cmd += ["--dir", work]
    done = subprocess.run(cmd, env=CHILD_ENV, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"capture generation failed with status {done.returncode}")
    with open(os.path.join(work, "workload.json")) as f:
        return json.load(f)


def analyze_argv(bins, pcap, flags):
    return [bins["snids"], "analyze", pcap, *flags, "--json"]


def unsharded(flags):
    """The flags without `--shards N`."""
    i = flags.index("--shards")
    return flags[:i] + flags[i + 2 :]


def check_against(passes, reference, what):
    for p in passes:
        if p.alert_stream != reference.alert_stream and not p.problems:
            p.problems.append(f"alert stream differs from {what}")


def end_to_end(bins, workload, truth, work, seconds):
    capture = os.path.join(work, "capture.pcap")
    header = os.path.join(work, "header.pcap")
    flags = truth["flags"]

    def setup_block():
        return run_passes(
            bins, analyze_argv(bins, header, flags), work, warmup=SETUP_WARMUP, count=SETUP_PASSES
        )

    setup = setup_block()
    passes = run_passes(
        bins, analyze_argv(bins, capture, flags), work, warmup=PASS_WARMUP, seconds=seconds
    )
    setup += setup_block()
    check_against(setup, setup[0], "the first set-up pass")
    timed = [p for p in passes if not p.warmup]
    check_against(passes, passes[0], "the first pass")
    if "--shards" in flags:
        reference = run_passes(bins, analyze_argv(bins, capture, unsharded(flags)), work, count=1)
        passes += reference
        check_against(passes, reference[0], "the unsharded run")

    everything = setup + passes
    attempted = failed = 0
    for p in everything:
        a, f = p.flows()
        attempted += a
        failed += f
    problems = sorted({q for p in everything for q in p.problems})
    # Alert `detail` members that differ between passes of one capture
    # (not part of the rendered stream; reported, not failed).
    detail_mismatch = sum(p.alert_json != passes[0].alert_json for p in passes)
    raw = [p.wall for p in timed]
    walls = normalized_walls(timed)
    setup_walls = normalized_walls([p for p in setup if not p.warmup])
    quantiles = (0, 10, 25, 50, 75, 90)
    det = detection(passes[0].alerts, truth)
    packets = passes[0].stats.get("packets", 0)
    info = {
        "workload": workload,
        "capture_packets": packets,
        "passes": len(timed),
        "setup_passes": 2 * SETUP_PASSES,
        "raw_wall_s": {f"p{q}": quantile(raw, q / 100) for q in quantiles},
        "wall_s": {f"p{q}": quantile(walls, q / 100) for q in quantiles},
        "reference_s": {f"p{q}": quantile([p.reference for p in timed], q / 100) for q in quantiles},
        "raw_setup_s": statistics.median(p.wall for p in setup if not p.warmup),
        "child_env": {"SNIDS_THREADS": CHILD_ENV["SNIDS_THREADS"], "SNIDS_OBS": None},
        "false_alert_sources": det["false_alert_sources"],
        "alert_detail_mismatch_passes": detail_mismatch,
        "problems": problems,
    }
    print(json.dumps({"info": info}))
    metrics = {
        "pkts_per_s": (packets / statistics.median(walls), "1/s"),
        "wall_p90_s": (quantile(walls, 0.9), "s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mib": (statistics.median(p.rss_kib for p in timed) / 1024.0, "MiB"),
        "detect_ratio": (det["detect_ratio"], "ratio"),
        "source_precision": (det["source_precision"], "ratio"),
        "alerts_per_source": (det["alerts_per_source"], "ratio"),
    }
    return not problems, attempted, failed, metrics


def traced(bins, workload, truth, work, seconds):
    capture = os.path.join(work, "capture.pcap")
    (child,) = run_passes(bins, analyze_argv(bins, capture, truth["flags"]), work, count=1)
    problems = list(child.problems)
    if "--shards" in truth["flags"]:
        (reference,) = run_passes(
            bins, analyze_argv(bins, capture, unsharded(truth["flags"])), work, count=1
        )
        check_against([child], reference, "the unsharded run")
        problems = list(child.problems) + reference.problems
    child_json = os.path.join(work, "child.json")
    with open(child_json, "w") as f:
        json.dump({"stats": child.stats, "alerts": child.alerts}, f)
    cmd = [bins["perfbench"], "trace", "--workload", workload, "--pcap", capture]
    cmd += ["--child", child_json, "--spans", os.path.join(work, "spans.tsv")]
    cmd += ["--seconds", repr(seconds)]
    done = subprocess.run(cmd, env=CHILD_ENV, stdout=subprocess.PIPE, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"traced run failed with status {done.returncode}")
    report = json.loads(done.stdout.decode().strip().splitlines()[-1])
    if report["crosscheck_error"] is not None:
        problems.append("cross-check: " + report["crosscheck_error"])
    det = detection(child.alerts, truth)
    metrics = {k: (v["value"], v["unit"]) for k, v in report["metrics"].items()}
    metrics["false_alert_sources"] = (det["false_alert_sources"], "count")
    info = {
        "workload": workload,
        "child_env": {"SNIDS_THREADS": CHILD_ENV["SNIDS_THREADS"], "SNIDS_OBS": None},
        "spans": os.path.relpath(os.path.join(work, "spans.tsv")),
        "replay_rounds": report["rounds"],
        "problems": problems,
    }
    print(json.dumps({"info": info}))
    child_attempted, child_failed = child.flows()
    return (
        not problems,
        report["attempted"] + child_attempted,
        report["failed"] + child_failed,
        metrics,
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        for needed in ("Cargo.toml", "src/bin/snids.rs", "perfbench/Cargo.toml"):
            if not os.path.isfile(needed):
                raise BenchError(f"run from the repository root: {needed} is missing")
        target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        bins = build(target)
        work = os.path.abspath(os.path.join(".bench_work", args.workload))
        truth = generate(bins, args.workload, args.seed, work)
        if args.trace:
            correct, attempted, failed, metrics = traced(
                bins, args.workload, truth, work, args.seconds
            )
        else:
            correct, attempted, failed, metrics = end_to_end(
                bins, args.workload, truth, work, args.seconds
            )
            shutil.rmtree(work)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1

    bad = [n for n in metrics if not valid_metric_name(n)]
    if bad:
        log(f"error: invalid metric names {bad}")
        return 1
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
