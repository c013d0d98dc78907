//! `perfbench` — capture generator and traced run for the snids benchmark.
//!
//! `run.py` drives it; see `README.md`.
//!
//! ```sh
//! # write capture.pcap, header.pcap and workload.json into DIR
//! perfbench gen --workload worm-trace --seed 1 --dir DIR
//!
//! # time passes of a command (spawned from a cleared environment plus
//! # the given variables), one JSON line each, into FILE
//! perfbench passes --out FILE [--env K=V]... [--warmup N] (--count N | --seconds S) -- CMD...
//!
//! # run the reference job once and print its wall seconds
//! perfbench reference
//!
//! # replay the capture layer by layer with spans for S seconds,
//! # cross-check the counts against CHILD (the `snids analyze --json`
//! # output for the same capture), and print the per-layer metrics as one
//! # JSON line
//! perfbench trace --workload worm-trace --pcap DIR/capture.pcap --child CHILD --seconds S [--spans FILE]
//! ```

mod crosscheck;
mod passes;
mod replay;
mod spans;
mod workloads;

use crosscheck::Counts;
use snids::core::{Nids, PipelineStats, ShardedNids};
use snids::exec::PoolStats;
use snids::packet::PcapReader;
use spans::{self_times, Spans};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = flag(&args, "--workload").and_then(Workload::parse);
    let result = match (args.first().map(String::as_str), workload) {
        (Some("passes"), _) => run_passes(&args),
        (Some("reference"), _) => {
            let (secs, sum) = passes::reference_job(&passes::reference_input());
            println!("{secs} {sum}");
            Ok(())
        }
        (Some("gen"), Some(w)) => gen(w, &args),
        (Some("trace"), Some(w)) => trace(w, &args),
        _ => Err(format!(
            "usage: perfbench passes ... -- CMD | perfbench gen|trace --workload {} ...",
            Workload::ALL.map(Workload::name).join("|")
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_passes(args: &[String]) -> Result<(), String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("passes needs `-- CMD...`")?;
    let (opts, argv) = (&args[..split], &args[split + 1..]);
    let number = |name: &str| -> Result<Option<f64>, String> {
        flag(opts, name)
            .map(|v| v.parse().map_err(|_| format!("bad {name} `{v}`")))
            .transpose()
    };
    let warmup = number("--warmup")?.unwrap_or(0.0) as usize;
    let count = number("--count")?;
    let seconds = number("--seconds")?;
    if count.is_none() == seconds.is_none() {
        return Err("passes needs exactly one of --count and --seconds".into());
    }
    let env: Vec<(String, String)> = opts
        .windows(2)
        .filter(|w| w[0] == "--env")
        .map(|w| match w[1].split_once('=') {
            Some((k, v)) => Ok((k.to_string(), v.to_string())),
            None => Err(format!("bad --env `{}` (want KEY=VALUE)", w[1])),
        })
        .collect::<Result<_, _>>()?;
    let path = flag(opts, "--out").ok_or("passes needs --out FILE")?;
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    let fail = |e: std::io::Error| format!("pass of `{}`: {e}", argv.join(" "));
    // The reference job runs in a process of its own, right after each
    // pass, so its input never counts toward this helper's RSS.
    let me = std::env::current_exe().map_err(fail)?;
    let reference = [me.to_string_lossy().into_owned(), "reference".to_string()];
    let mut one = |warmup: bool| -> Result<(), String> {
        let pass = passes::run(argv, &env).map_err(fail)?;
        let job = passes::run(&reference, &[]).map_err(fail)?;
        let reference_s: f64 = String::from_utf8_lossy(&job.stdout)
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or("the reference job printed no time")?;
        passes::write_line(&mut out, &pass, reference_s, warmup).map_err(fail)
    };
    for _ in 0..warmup {
        one(true)?;
    }
    let start = Instant::now();
    let mut done = 0usize;
    loop {
        let finished = match (count, seconds) {
            (Some(n), _) => done >= n as usize,
            (_, Some(s)) => done > 0 && start.elapsed().as_secs_f64() >= s,
            _ => true,
        };
        if finished {
            break;
        }
        one(false)?;
        done += 1;
    }
    std::io::Write::flush(&mut out).map_err(fail)
}

fn gen(w: Workload, args: &[String]) -> Result<(), String> {
    let seed: u64 = flag(args, "--seed")
        .and_then(|s| s.parse().ok())
        .ok_or("gen needs --seed N")?;
    let dir = std::path::Path::new(flag(args, "--dir").ok_or("gen needs --dir DIR")?);
    let capture = workloads::generate(w, seed);
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(dir.join(name), bytes).map_err(|e| format!("cannot write {name}: {e}"))
    };
    write("capture.pcap", &capture.pcap)?;
    write("header.pcap", &workloads::header_only_pcap())?;
    let quoted = |items: Vec<String>| {
        items
            .iter()
            .map(|s| format!("\"{}\"", snids::obs::json::escape(s)))
            .collect::<Vec<_>>()
            .join(",")
    };
    let ips = |set: &std::collections::BTreeSet<std::net::Ipv4Addr>| {
        quoted(set.iter().map(|ip| ip.to_string()).collect())
    };
    write(
        "workload.json",
        format!(
            "{{\"flags\":[{}],\"planted\":[{}],\"touched\":[{}]}}\n",
            quoted(w.flags()),
            ips(&capture.planted),
            ips(&capture.touched)
        )
        .as_bytes(),
    )
}

/// One in-process `ShardedNids` run over the capture.
struct EnginePass {
    /// Whole pass: load, set-up, per-packet driver and finish.
    wall_ns: u64,
    /// The per-packet `process_packet` loop.
    driver_ns: u64,
    /// `finish`: end-of-run analysis and alert finalize.
    finish_ns: u64,
    stats: PipelineStats,
    backpressure: (u64, u64),
}

fn engine_pass(w: Workload, pcap: &str, observability: bool) -> Result<EnginePass, String> {
    let t0 = Instant::now();
    let mut reader = PcapReader::open(pcap).map_err(|e| format!("cannot open {pcap}: {e}"))?;
    let packets = reader.decode_all().unwrap_or_default();
    let mut config = w.config();
    config.observability = observability;
    let mut nids = ShardedNids::new(config);
    let t1 = Instant::now();
    for p in &packets {
        nids.process_packet(p);
    }
    let t2 = Instant::now();
    nids.finish();
    let t3 = Instant::now();
    nids.absorb_read_stats(&reader.read_stats());
    Ok(EnginePass {
        wall_ns: (t3 - t0).as_nanos() as u64,
        driver_ns: (t2 - t1).as_nanos() as u64,
        finish_ns: (t3 - t2).as_nanos() as u64,
        stats: nids.stats().clone(),
        backpressure: nids.backpressure(),
    })
}

/// Workers of the dedicated analysis pool in [`pool_pass`].
const POOL_THREADS: usize = 2;

/// One in-process sequential `Nids` run whose flows are analyzed on a
/// dedicated pool of [`POOL_THREADS`] workers. `snids analyze` under
/// `SNIDS_THREADS=1` has a one-worker pool, which maps batches inline and
/// never schedules a task, so the pool's own counters come from here.
/// Returns the stats, the pool's counters and the driver-plus-finish wall.
fn pool_pass(w: Workload, pcap: &str) -> Result<(PipelineStats, PoolStats, u64), String> {
    let mut reader = PcapReader::open(pcap).map_err(|e| format!("cannot open {pcap}: {e}"))?;
    let packets = reader.decode_all().unwrap_or_default();
    let mut config = w.config();
    config.threads = POOL_THREADS;
    let mut nids = Nids::new(config);
    let t0 = Instant::now();
    for p in &packets {
        nids.process_packet(p);
    }
    nids.finish();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    nids.absorb_read_stats(&reader.read_stats());
    Ok((nids.stats().clone(), nids.pool_stats(), wall_ns))
}

/// The cross-checked counts of an in-process engine run.
fn stats_counts(s: &PipelineStats) -> Counts {
    Counts([
        s.packets,
        s.suspicious_packets,
        s.flows_analyzed,
        s.frames_extracted,
        s.alerts,
    ])
}

fn median(v: &[u64]) -> f64 {
    median_f64(v.iter().map(|&x| x as f64).collect())
}

fn median_f64(mut v: Vec<f64>) -> f64 {
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Layer family of a span name: the part before the first dot.
fn family(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// The layer families whose self-time share is reported.
const FAMILIES: [&str; 9] = [
    "packet",
    "classify",
    "prefilter",
    "flow",
    "extract",
    "x86",
    "ir",
    "semantic",
    "core",
];

/// A named metric value with its unit.
type Metric = (String, f64, &'static str);

/// Per-layer metrics of one traced replay. `Err` when the spans' self
/// times do not add up to the traced wall.
fn layer_metrics(spans: &[spans::Span], t: &replay::Tally) -> Result<Vec<Metric>, String> {
    let root = spans.first().ok_or("the traced replay recorded no spans")?;
    let wall = (root.end - root.start) as f64;
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    let mut self_total = 0u64;
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_default() += own;
        self_total += own;
    }
    // Up to clock rounding of the analyzer-timed children.
    if (self_total as f64 - wall).abs() > 1e-3 * wall {
        return Err(format!(
            "layer self times sum to {self_total} ns, traced wall is {wall} ns"
        ));
    }
    let own = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64;
    let n = |v: u64| v as f64;
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| m.push((name.into(), value, unit));
    put(
        "packet.load_ns_per_pkt",
        ratio(own("packet.load"), n(t.records)),
        "ns",
    );
    put(
        "packet.load_share",
        ratio(own("packet.load"), wall),
        "ratio",
    );
    put(
        "packet.checksum_ns_per_pkt",
        ratio(own("packet.checksum"), n(t.packets)),
        "ns",
    );
    put("packet.undecodable", n(t.undecodable), "count");
    put(
        "classify.ns_per_pkt",
        ratio(own("classify"), n(t.classified)),
        "ns",
    );
    let suspicious = ratio(n(t.suspicious_packets), n(t.classified));
    put("classify.suspicious_ratio", suspicious, "ratio");
    put(
        "prefilter.ns_per_pkt",
        ratio(own("prefilter"), n(t.prefilter_decided)),
        "ns",
    );
    let rejected = ratio(n(t.prefilter_rejected), n(t.prefilter_decided));
    put("prefilter.reject_ratio", rejected, "ratio");
    put(
        "flow.defrag_ns_per_frag",
        ratio(own("flow.defrag"), n(t.fragments)),
        "ns",
    );
    put("flow.defrag_frags", n(t.fragments), "count");
    let per_seg = ratio(own("flow.reassembly"), n(t.segments));
    put("flow.reassembly_ns_per_seg", per_seg, "ns");
    put("flow.payload_copy_bytes", n(t.payload_copy_bytes), "B");
    put("flow.budget_peak_bytes", n(t.budget_peak_bytes), "B");
    put("flow.shed_flows", n(t.shed_flows), "count");
    put("flow.conflict_bytes", n(t.conflict_bytes), "B");
    let per_kib = ratio(own("extract"), n(t.extract_bytes) / 1024.0);
    put("extract.ns_per_kib", per_kib, "ns");
    put(
        "extract.frame_yield",
        ratio(n(t.frames), n(t.flows_analyzed)),
        "ratio",
    );
    put(
        "x86.decode_ns_per_byte",
        ratio(own("x86.decode"), n(t.timed_bytes)),
        "ns",
    );
    put("x86.bailout_frames", n(t.bailout_frames), "count");
    put(
        "ir.lift_ns_per_byte",
        ratio(own("ir.lift"), n(t.timed_bytes)),
        "ns",
    );
    let per_frame = ratio(own("semantic.match"), n(t.timed_frames));
    put("semantic.match_ns_per_frame", per_frame, "ns");
    put(
        "semantic.hit_ratio",
        ratio(n(t.frames_matched), n(t.frames)),
        "ratio",
    );
    let per_slice = ratio(own("semantic.slice"), n(t.slice_frames));
    put("semantic.slice_ns_per_frame", per_slice, "ns");
    put("semantic.slice_frames", n(t.slice_frames), "count");
    let recovered = ratio(n(t.second_pass_recovered), n(t.second_pass_flows));
    put("semantic.slice_recovery_ratio", recovered, "ratio");
    for fam in FAMILIES {
        let total: u64 = by_name
            .iter()
            .filter(|(name, _)| family(name) == fam)
            .map(|(_, v)| *v)
            .sum();
        put(&format!("{fam}.share"), ratio(n(total), wall), "ratio");
    }
    put("trace.untimed_share", ratio(own("replay"), wall), "ratio");
    put("trace.wall_s", wall / 1e9, "s");
    Ok(m)
}

fn trace(w: Workload, args: &[String]) -> Result<(), String> {
    let pcap = flag(args, "--pcap").ok_or("trace needs --pcap FILE")?;
    let child = flag(args, "--child").ok_or("trace needs --child FILE")?;
    let seconds: f64 = flag(args, "--seconds")
        .and_then(|s| s.parse().ok())
        .ok_or("trace needs --seconds S")?;
    let child_text =
        std::fs::read_to_string(child).map_err(|e| format!("cannot read {child}: {e}"))?;
    let program = Counts::from_analyze_json(&child_text)?;
    let config = w.config();
    let mut problems = Vec::new();

    // Rounds of one untraced replay, one engine pass (observability off)
    // and one traced replay until `seconds` have passed, after one warm-up
    // replay (the first run in a process pays for page faults the
    // allocator later recycles). Each metric is the median over rounds;
    // the spans written out are the last round's.
    let untraced_replay = || -> Result<u64, String> {
        let t0 = Instant::now();
        replay::replay(pcap, &config, &mut Spans::new(false)).map_err(|e| e.to_string())?;
        Ok(t0.elapsed().as_nanos() as u64)
    };
    untraced_replay()?;
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut coverage = Vec::new();
    let mut traced = Vec::new();
    let mut rounds: Vec<Vec<Metric>> = Vec::new();
    let mut first: Option<replay::Tally> = None;
    let (tally, rec) = loop {
        let replay_ns = untraced_replay()?;
        untraced.push(replay_ns);
        // Next to each other in time, so that the host's speed drift
        // cancels out of the ratio.
        let engine_ns = engine_pass(w, pcap, false)?.wall_ns;
        coverage.push(ratio(replay_ns as f64, engine_ns as f64));
        let mut rec = Spans::new(true);
        let tally = replay::replay(pcap, &config, &mut rec).map_err(|e| e.to_string())?;
        if first.get_or_insert_with(|| tally.clone()) != &tally {
            problems.push("the replay's counts changed between rounds".to_string());
        }
        traced.push(rec.spans().first().map_or(0, |r| r.end - r.start));
        match layer_metrics(rec.spans(), &tally) {
            Ok(m) => rounds.push(m),
            Err(e) => problems.push(e),
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break (tally, rec);
        }
    };
    if let Some(path) = flag(args, "--spans") {
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        );
        rec.write_tsv(&mut out)
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    // Engine passes: the counters only `ShardedNids` exposes, and the
    // cost of observability (passes alternate off/on).
    let base = engine_pass(w, pcap, false)?;
    let mut obs_off = vec![base.wall_ns];
    let mut obs_on = Vec::new();
    for _ in 0..3 {
        obs_on.push(engine_pass(w, pcap, true)?.wall_ns);
        if obs_off.len() < 3 {
            obs_off.push(engine_pass(w, pcap, false)?.wall_ns);
        }
    }
    let (pool_stats, pool, pool_wall_ns) = pool_pass(w, pcap)?;

    let t = &tally;
    let replay_counts = Counts([
        t.packets,
        t.suspicious_packets,
        t.flows_analyzed,
        t.frames,
        t.alerts,
    ]);
    for (side, counts) in [
        ("replay", replay_counts),
        ("engine pass", stats_counts(&base.stats)),
        ("pool pass", stats_counts(&pool_stats)),
    ] {
        if let Err(e) = crosscheck::check(counts, program) {
            problems.push(format!("{side} vs program: {e}"));
        }
    }
    let s = &base.stats;

    let mut m: Vec<Metric> = match rounds.first() {
        Some(first) => first
            .iter()
            .enumerate()
            .map(|(i, (name, _, unit))| {
                let values: Vec<f64> = rounds.iter().map(|r| r[i].1).collect();
                (name.clone(), median_f64(values), *unit)
            })
            .collect(),
        None => Vec::new(),
    };
    let mut put = |name: &str, value: f64, unit: &'static str| m.push((name.into(), value, unit));
    let driven = (base.driver_ns + base.finish_ns) as f64;
    put("exec.tasks", pool.tasks_total() as f64, "count");
    put("exec.steals", pool.steals_total() as f64, "count");
    put(
        "exec.busy_fraction",
        pool.busy_fraction(pool_wall_ns),
        "ratio",
    );
    let per_pkt = ratio(base.driver_ns as f64, s.packets as f64);
    put("core.driver_ns_per_pkt", per_pkt, "ns");
    put(
        "core.shard_blocked_sends",
        base.backpressure.0 as f64,
        "count",
    );
    put("core.shard_peak_depth", base.backpressure.1 as f64, "count");
    put(
        "core.finish_share",
        ratio(base.finish_ns as f64, driven),
        "ratio",
    );
    put(
        "obs.overhead_ratio",
        ratio(median(&obs_on), median(&obs_off)),
        "ratio",
    );
    put(
        "trace.overhead_ratio",
        ratio(median(&traced), median(&untraced)),
        "ratio",
    );
    // How much of the program's own run the replay re-drives: work the
    // engine does outside the replayed layer calls (per-packet ledger
    // sync, pressure checks) lowers it.
    put("trace.coverage", median_f64(coverage), "ratio");

    let metrics: Vec<String> = m
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
        .collect();
    let problem = if problems.is_empty() {
        "null".to_string()
    } else {
        format!("\"{}\"", snids::obs::json::escape(&problems.join("; ")))
    };
    println!(
        "{{\"crosscheck_error\":{problem},\"rounds\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rounds.len(),
        t.flows_analyzed + t.unanalyzed,
        t.unanalyzed + t.panicked,
        metrics.join(",")
    );
    Ok(())
}
