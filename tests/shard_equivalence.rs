//! Differential shard-equivalence suite: the sharded streaming front half
//! must be *observably identical* to the sequential pipeline. For every
//! corpus — the clean worm capture, the desync chaos sweep under all four
//! overlap policies, and tainted benign traffic — the rendered alert
//! stream at `--shards 1`, `--shards 2`, and `--shards 8` must be
//! byte-identical, and the merged stats ledgers must agree on every
//! deterministic field and still balance. `--shards 1` additionally must
//! be byte-identical to the seed `Nids` engine, so the sharded driver is
//! provably a pure refactor at its default setting.
//!
//! Alerts are totally ordered by `(src, template, start, dst, dst_port)`
//! before dedup, so shard drain order is unobservable by construction —
//! these tests are the lock on that invariant.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snids::bench::desync::{build_capture, DesyncBenchConfig};
use snids::bench::overload::{self, OverloadBenchConfig};
use snids::core::{Nids, NidsConfig, PipelineStats, ShardedNids};
use snids::flow::OverlapPolicy;
use snids::gen::traces::{codered_capture, tainted_benign_flows, AddressPlan};
use snids::packet::Packet;

/// The shard counts every corpus is replayed at. 1 is the sequential
/// delegate, 2 exercises the split, 8 exceeds the distinct address-pair
/// spread of the small corpora so some shards stay idle.
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// The deterministic projection of the stats ledger: everything except
/// wall-clock nanos and the high-water mark, which legitimately vary
/// between runs on identical input.
#[allow(clippy::type_complexity)]
fn deterministic(
    s: &PipelineStats,
) -> (
    (u64, u64, u64, u64),
    (u64, u64, u64),
    (u64, u64, u64, u64),
    (u64, u64, snids::core::stats::DropCounters),
) {
    (
        (s.records_in, s.packets, s.processed, s.suspicious_packets),
        (
            s.prefilter_passed,
            s.prefilter_escalated,
            s.prefilter_rejected,
        ),
        (
            s.flows_analyzed,
            s.frames_extracted,
            s.frame_bytes,
            s.alerts,
        ),
        (s.overlap_conflict_bytes, s.degraded_flows, s.drops),
    )
}

/// Replay a capture through a `ShardedNids` and return the rendered
/// alert stream plus the deterministic ledger projection, after checking
/// the merged ledger balances and the budget drained to zero.
#[allow(clippy::type_complexity)]
fn run_sharded(
    mut config: NidsConfig,
    shards: usize,
    packets: &[Packet],
) -> (
    String,
    (
        (u64, u64, u64, u64),
        (u64, u64, u64),
        (u64, u64, u64, u64),
        (u64, u64, snids::core::stats::DropCounters),
    ),
) {
    config.shards = shards;
    let mut nids = ShardedNids::new(config);
    let alerts = nids.process_capture(packets);
    let stats = nids.stats();
    assert!(
        stats.packet_ledger_balanced(),
        "merged packet ledger unbalanced at shards={shards}:\n{}",
        stats.drop_report()
    );
    assert!(
        stats.record_ledger_balanced(),
        "merged record ledger unbalanced at shards={shards}:\n{}",
        stats.drop_report()
    );
    assert_eq!(
        nids.budget().tracked(),
        0,
        "front-half budget must drain to zero at shards={shards}"
    );
    let rendered = alerts
        .iter()
        .map(|a| a.render())
        .collect::<Vec<_>>()
        .join("\n");
    (rendered, deterministic(stats))
}

/// The differential harness: replay one corpus at every shard count and
/// against the seed engine, asserting byte-identical alerts and identical
/// deterministic ledgers throughout.
fn assert_shard_equivalent(label: &str, config: &NidsConfig, packets: &[Packet]) {
    // The seed engine is the reference: what the pipeline produced before
    // the sharded driver existed.
    let mut seed = Nids::new(config.clone());
    let seed_alerts = seed.process_capture(packets);
    let seed_rendered = seed_alerts
        .iter()
        .map(|a| a.render())
        .collect::<Vec<_>>()
        .join("\n");
    let seed_stats = deterministic(seed.stats());

    for shards in SHARD_COUNTS {
        let (rendered, stats) = run_sharded(config.clone(), shards, packets);
        assert_eq!(
            rendered, seed_rendered,
            "[{label}] alert stream diverged from seed at shards={shards}"
        );
        assert_eq!(
            stats, seed_stats,
            "[{label}] merged ledger diverged from seed at shards={shards}"
        );
    }
}

fn worm_config(plan: &AddressPlan) -> NidsConfig {
    NidsConfig {
        honeypots: plan.honeypots.clone(),
        dark_nets: vec![(plan.dark_net, 16)],
        ..NidsConfig::default()
    }
}

#[test]
fn worm_capture_is_shard_invariant() {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(2006);
    let (packets, truth) = codered_capture(&mut rng, &plan, 1200, 3);
    let config = worm_config(&plan);

    assert_shard_equivalent("worm", &config, &packets);

    // The corpus is not vacuous: the worm is actually detected, at every
    // shard count (equivalence to the seed already implies this once the
    // seed detects it — assert it explicitly so a silent regression in
    // the generator can't hollow the test out).
    let (rendered, _) = run_sharded(config, 8, &packets);
    for src in &truth.crii_sources {
        assert!(
            rendered.contains(&src.to_string()),
            "worm source {src} missing from sharded alert stream"
        );
    }
}

#[test]
fn desync_chaos_is_shard_invariant_under_every_overlap_policy() {
    // A smaller sweep than the bench (the bench covers rates to 0.5); two
    // rates suffice here: 0.0 is the clean reference, 0.3 faults enough
    // flows that policies genuinely diverge from *each other* — the claim
    // under test is that each policy is shard-invariant, not that the
    // policies agree.
    let cfg = DesyncBenchConfig {
        attack_flows: 24,
        background_flows: 24,
        ..DesyncBenchConfig::default()
    };
    let plan = AddressPlan::default();
    for rate in [0.0, 0.3] {
        let capture = build_capture(&cfg, rate);
        for policy in OverlapPolicy::ALL {
            let mut config = worm_config(&plan);
            config.flow_table.overlap_policy = policy;
            let label = format!("desync policy={policy:?} rate={rate}");
            assert_shard_equivalent(&label, &config, &capture.packets);
        }
    }
}

#[test]
fn tainted_benign_traffic_is_shard_invariant() {
    // Tainted-but-benign sources are exactly the traffic the prefilter
    // gate rejects: this corpus locks the per-shard prefilter state
    // (lanes + sticky sources) to the sequential gate's verdicts.
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(13);
    let (mut packets, _truth) = codered_capture(&mut rng, &plan, 600, 2);
    packets.extend(tainted_benign_flows(&mut rng, &plan, 24, 4, 2_000_000));
    packets.sort_by_key(|p| p.ts_micros);

    let config = worm_config(&plan);
    assert_shard_equivalent("tainted-benign", &config, &packets);

    // The gate must actually fire on this corpus at the highest shard
    // count, or the test proves nothing about sharded prefilter state.
    let (_, stats) = run_sharded(config, 8, &packets);
    assert!(
        stats.1 .2 > 0,
        "tainted-benign corpus must exercise prefilter rejection"
    );
}

#[test]
fn sharding_survives_memory_pressure_identically() {
    // The overload bench's flood corpus with a tight budget and small
    // flow table: the shed-analysis path (evicted flows handed to the
    // back half) and the protect-source feedback loop must also be
    // shard-invariant.
    let cfg = OverloadBenchConfig {
        seed: 41,
        planted_attacks: 6,
        memory_budget: 64 * 1024,
        max_flows: 32,
        ..OverloadBenchConfig::default()
    };
    let capture = overload::build_capture(&cfg, 96);
    let packets = capture.packets;

    let plan = AddressPlan::default();
    let mut config = worm_config(&plan);
    config.memory_budget = cfg.memory_budget;
    config.flow_table.max_flows = cfg.max_flows;
    assert_shard_equivalent("pressure", &config, &packets);

    // Pressure must actually have occurred, at every shard count, or the
    // corpus is too gentle to lock the shed path.
    for shards in SHARD_COUNTS {
        let (_, stats) = run_sharded(config.clone(), shards, &packets);
        let drops = stats.3 .2;
        let shed = drops.get(snids::core::stats::DropReason::ShedAnalyzed)
            + drops.get(snids::core::stats::DropReason::ShedUnanalyzed)
            + drops.get(snids::core::stats::DropReason::FlowEvicted);
        assert!(
            shed > 0,
            "pressure corpus must evict flows at shards={shards}"
        );
    }
}

/// The sorted flight-dump identities (`flight[why] src -> dst:port`, the
/// header line without its event count) of one observed replay.
fn dump_identities(config: &NidsConfig, shards: usize, packets: &[Packet]) -> Vec<String> {
    let mut config = config.clone();
    config.shards = shards;
    let mut nids = ShardedNids::new(config);
    nids.process_capture(packets);
    let mut ids: Vec<String> = nids
        .flight_dumps()
        .iter()
        .filter_map(|dump| dump.lines().next())
        .map(|header| header.split(" (").next().unwrap_or(header).to_string())
        .collect();
    ids.sort();
    ids
}

#[test]
fn flight_dumps_are_shard_invariant() {
    // One attacker reconnecting to one honeypot on successive ports: a
    // single address pair lands on a single shard at every shard count,
    // and a one-slot flow table (one slot per shard, too) makes every new
    // connection evict the previous one unanalyzed — the same evictions
    // at shards 1, 2 and 8. The last connection survives to finish and
    // alerts.
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(5);
    let attacker = std::net::Ipv4Addr::new(198, 18, 7, 7);
    let exploit = snids::gen::SCENARIOS[0].build_payload(&mut rng);
    let ports = [21u16, 25, 80, 110, 443, 8080];
    let mut packets = Vec::new();
    for (i, port) in ports.into_iter().enumerate() {
        packets.extend(snids::gen::traces::tcp_flow_packets(
            attacker,
            plan.honeypots[0],
            4000 + i as u16,
            port,
            &exploit,
            100 + i as u64 * 1_000,
            0x40 + i as u32,
        ));
    }
    let mut config = worm_config(&plan);
    config.observability = true;
    config.analyze_on_evict = false;
    config.flow_table.max_flows = 1;

    let reference = dump_identities(&config, 1, &packets);
    let evicted = reference
        .iter()
        .filter(|id| id.starts_with("flight[flow_evicted]"))
        .count();
    assert_eq!(
        evicted,
        ports.len() - 1,
        "every superseded connection must be evicted and dumped: {reference:?}"
    );
    assert!(
        reference.len() < snids::core::MAX_FLIGHT_DUMPS,
        "the corpus must stay under the dump cap"
    );
    for shards in SHARD_COUNTS {
        assert_eq!(
            dump_identities(&config, shards, &packets),
            reference,
            "flight dumps diverged at shards={shards}"
        );
    }
}
