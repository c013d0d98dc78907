//! The benchmark's workloads: one capture and one `snids analyze` flag set
//! each, generated from a seed. Why each exists is in `README.md`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snids::bench::throughput::{storm_workload, BenchConfig};
use snids::core::NidsConfig;
use snids::gen::chaos::{
    chaos_pcap, desync_packets, exhaustion_flood, ChaosConfig, ChaosLog, DesyncConfig,
    ExhaustionConfig,
};
use snids::gen::traces::{codered_capture, tcp_flow_packets, AddressPlan};
use snids::gen::{shellcode, AdmMutate, Clet};
use snids::packet::{Packet, PacketBuilder, PcapWriter};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table-3 Code Red II trace plus a SYN flood: the front door dominates.
    WormTrace,
    /// Polymorphic storm: every attack flow pays for the analysis layers.
    PolyStorm,
    /// Worm background, desynced polymorphic attacks, chaos faults and a
    /// state-exhaustion flood under a memory budget that makes the
    /// governor shed.
    HostileMix,
    /// `HostileMix` with the front half split over two shards.
    HostileMixSharded,
}

/// The governor's byte budget on the hostile workloads, as passed to
/// `--memory-budget`: well below the flood's parked bytes, so it sheds.
const HOSTILE_BUDGET: &str = "256k";
const HOSTILE_BUDGET_BYTES: u64 = 256 * 1024;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WormTrace,
        Workload::PolyStorm,
        Workload::HostileMix,
        Workload::HostileMixSharded,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WormTrace => "worm-trace",
            Workload::PolyStorm => "poly-storm",
            Workload::HostileMix => "hostile-mix",
            Workload::HostileMixSharded => "hostile-mix-sharded",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `snids analyze` flags after the pcap path (without `--json`).
    pub fn flags(self) -> Vec<String> {
        let plan = AddressPlan::default();
        let mut flags = Vec::new();
        for hp in &plan.honeypots {
            flags.extend(["--honeypot".to_string(), hp.to_string()]);
        }
        flags.extend(["--dark".to_string(), format!("{}/16", plan.dark_net)]);
        if matches!(self, Workload::HostileMix | Workload::HostileMixSharded) {
            flags.extend(["--memory-budget".to_string(), HOSTILE_BUDGET.to_string()]);
        }
        if self == Workload::HostileMixSharded {
            flags.extend(["--shards".to_string(), "2".to_string()]);
        }
        flags
    }

    /// The configuration `snids analyze` builds from [`Workload::flags`]
    /// with `SNIDS_OBS` unset.
    pub fn config(self) -> NidsConfig {
        let plan = AddressPlan::default();
        let mut config = NidsConfig {
            honeypots: plan.honeypots.clone(),
            dark_nets: vec![(plan.dark_net, 16)],
            observability: false,
            ..NidsConfig::default()
        };
        if matches!(self, Workload::HostileMix | Workload::HostileMixSharded) {
            config.memory_budget = HOSTILE_BUDGET_BYTES;
        }
        if self == Workload::HostileMixSharded {
            config.shards = 2;
        }
        config
    }
}

/// A generated capture with its ground truth.
pub struct Capture {
    /// The pcap file's bytes.
    pub pcap: Vec<u8>,
    /// Every planted attack source.
    pub planted: BTreeSet<Ipv4Addr>,
    /// Planted sources whose traffic a destructive chaos fault touched:
    /// they may legitimately stay silent.
    pub touched: BTreeSet<Ipv4Addr>,
}

fn write_pcap(packets: &[Packet]) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).expect("writing to memory cannot fail");
    for p in packets {
        w.write_packet(p).expect("writing to memory cannot fail");
    }
    w.finish().expect("writing to memory cannot fail")
}

/// A pcap holding only the global header: the set-up probe.
pub fn header_only_pcap() -> Vec<u8> {
    write_pcap(&[])
}

/// Generate `workload`'s capture from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Capture {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(seed);
    match workload {
        Workload::WormTrace => {
            // `snids synth --packets 50000 --crii 40 --flood 512`.
            let (packets, truth) = codered_capture(&mut rng, &plan, 50_000, 40);
            let cfg = ChaosConfig {
                flood_flows: 512,
                ..ChaosConfig::with_rate(0.0)
            };
            let (pcap, log) = chaos_pcap(&mut rng, &packets, &cfg);
            touched_split(pcap, truth.crii_sources.into_iter().collect(), &log)
        }
        Workload::PolyStorm => {
            let attacks = 1000;
            let storm = storm_workload(&BenchConfig {
                seed,
                attack_flows: attacks,
                background_flows: 2 * attacks,
                threads: vec![1],
                repeats: 1,
            });
            // Each storm attack flow opens with a honeypot probe from its
            // source; nothing else touches a honeypot.
            let planted = storm
                .packets
                .iter()
                .filter_map(|p| p.ip())
                .filter(|ip| plan.honeypots.contains(&ip.dst))
                .map(|ip| ip.src)
                .collect();
            Capture {
                pcap: write_pcap(&storm.packets),
                planted,
                touched: BTreeSet::new(),
            }
        }
        Workload::HostileMix | Workload::HostileMixSharded => hostile_mix(&mut rng, &plan),
    }
}

/// Worm background, then polymorphic attack flows (every other one
/// desynced with divergent overlaps), then a state-exhaustion flood, all
/// serialized with chaos record and byte faults.
fn hostile_mix(rng: &mut StdRng, plan: &AddressPlan) -> Capture {
    let (mut packets, truth) = codered_capture(rng, plan, 20_000, 8);
    let mut planted: BTreeSet<Ipv4Addr> = truth.crii_sources.into_iter().collect();
    let mut log = ChaosLog::default();
    let adm = AdmMutate::default();
    let clet = Clet::default();
    let mut ts = packets.last().map_or(1_000_000, |p| p.ts_micros) + 1_000;
    for i in 0..160 {
        // 198.19.0.0/16 is disjoint from the worm plan's external hosts.
        let src = Ipv4Addr::new(198, 19, (i / 250) as u8, (1 + i % 250) as u8);
        planted.insert(src);
        let sport = 3000 + i as u16;
        packets.push(
            PacketBuilder::new(src, plan.honeypots[i % plan.honeypots.len()])
                .at(ts)
                .tcp_syn(sport, 80, rng.gen())
                .expect("a SYN always builds"),
        );
        ts += 300;
        let inner = shellcode::execve_variant(rng, i % 3);
        let payload = if i % 2 == 0 {
            adm.generate(rng, &inner).0
        } else {
            clet.generate(rng, &inner)
        };
        let train = tcp_flow_packets(src, plan.web_server, sport, 80, &payload, ts, rng.gen());
        ts += 200 * train.len() as u64;
        if i % 2 == 0 {
            packets.extend(desync_packets(
                rng,
                &train,
                &DesyncConfig::with_rate(1.0),
                &mut log,
            ));
        } else {
            packets.extend(train);
        }
    }
    let flood = 1024;
    let packets = exhaustion_flood(
        rng,
        &packets,
        plan.honeypots[0],
        &ExhaustionConfig {
            flood_flows: flood,
            flood_payload: 1024,
            frag_datagrams: flood / 16,
        },
        &mut log,
    );
    let (pcap, chaos) = chaos_pcap(rng, &packets, &ChaosConfig::with_rate(0.01));
    touched_split(pcap, planted, &chaos)
}

fn touched_split(pcap: Vec<u8>, planted: BTreeSet<Ipv4Addr>, log: &ChaosLog) -> Capture {
    let touched = planted
        .iter()
        .copied()
        .filter(|s| log.touched_sources.contains(s))
        .collect();
    Capture {
        pcap,
        planted,
        touched,
    }
}
