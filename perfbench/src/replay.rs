//! The layer replay: the `snids analyze` pipeline re-driven from the
//! benchmark, one public layer call at a time, with a span around each
//! call.
//!
//! It follows `Nids::process_packet` and `Nids::finish` step for step
//! (checksum, defrag, classify, pre-filter gate, reassembly with shed
//! hand-off, then extract, decode, lift, match and the dataflow second
//! pass per flow), so its counts must equal the program's; `crosscheck`
//! holds it to that. Flows are analyzed on the calling thread: the
//! program sorts and dedups alerts, so their order does not matter.

use crate::spans::Spans;
use snids::classify::{DarkSpaceMonitor, HoneypotRegistry, Subnet, TrafficClassifier};
use snids::core::{Alert, DataflowMode, NidsConfig};
use snids::extract::{BinaryExtractor, BinaryFrame};
use snids::flow::{
    DefragConfig, DefragOutcome, Defragmenter, Flow, FlowKey, FlowTable, MemoryBudget, ShedCause,
    ShedFlow,
};
use snids::packet::{Ipv4Header, Packet, PcapReader, TcpHeader, ETHERNET_HEADER_LEN};
use snids::prefilter::{Decision, Prefilter, PrefilterConfig};
use snids::semantic::Analyzer;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Work done by each layer during one replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Pcap records attempted (read intact, truncated or malformed).
    pub records: u64,
    /// Records read intact whose frame did not decode.
    pub undecodable: u64,
    /// Decoded packets fed to the pipeline.
    pub packets: u64,
    /// Fragments handed to the defragmenter.
    pub fragments: u64,
    /// Packets classified (after checksum and defrag).
    pub classified: u64,
    /// Packets classified suspicious.
    pub suspicious_packets: u64,
    /// Suspicious packets the pre-filter decided on.
    pub prefilter_decided: u64,
    /// Packets the pre-filter rejected.
    pub prefilter_rejected: u64,
    /// Segments handed to `FlowTable::process_tracked`.
    pub segments: u64,
    /// Bytes returned by `Flow::payload` and `Flow::alternate_payload`.
    pub payload_copy_bytes: u64,
    /// Bytes handed to `BinaryExtractor::extract`.
    pub extract_bytes: u64,
    /// Flows shed under pressure and analyzed on the way out.
    pub shed_flows: u64,
    /// Shed flows whose cause was the byte budget.
    pub shed_by_budget: u64,
    /// Flows analyzed (end of run plus shed hand-off).
    pub flows_analyzed: u64,
    /// Frames extracted by the fast pass.
    pub frames: u64,
    /// Fast-pass frames with at least one match.
    pub frames_matched: u64,
    /// Frames that hit the byte cap or the sweep budget.
    pub bailout_frames: u64,
    /// Frames run through `analyze_frame_timed` (fast pass plus the
    /// alternate view's fast pass) and their analyzed bytes.
    pub timed_frames: u64,
    /// Bytes of `timed_frames`.
    pub timed_bytes: u64,
    /// Flows given the dataflow second pass.
    pub second_pass_flows: u64,
    /// Of those, flows the second pass made alert.
    pub second_pass_recovered: u64,
    /// Frames run through `analyze_frame_slices`.
    pub slice_frames: u64,
    /// Flows whose analysis panicked.
    pub panicked: u64,
    /// Flows that left the table unanalyzed (count-cap or budget).
    pub unanalyzed: u64,
    /// Alerts after the program's sort and dedup.
    pub alerts: u64,
    /// Peak of the governor's byte ledger.
    pub budget_peak_bytes: u64,
    /// Divergent overlap bytes seen by reassembly.
    pub conflict_bytes: u64,
}

/// Span flow id: a stable hash of the flow key (0 means no flow).
fn flow_id(key: &FlowKey) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish() | 1
}

/// The pipeline's layers, built from a configuration the way `Nids::new`
/// builds them.
struct Layers {
    classifier: TrafficClassifier,
    extractor: BinaryExtractor,
    analyzer: Analyzer,
    flows: FlowTable,
    defrag: Defragmenter,
    prefilter: Option<Prefilter>,
    budget: Arc<MemoryBudget>,
    verify_checksums: bool,
    max_frame_bytes: usize,
    dataflow: DataflowMode,
    pending_alerts: Vec<Alert>,
}

impl Layers {
    fn new(config: &NidsConfig) -> Layers {
        let classifier = if config.classification_enabled {
            let hp = HoneypotRegistry::with_decoys(config.honeypots.iter().copied());
            let mut ds = DarkSpaceMonitor::new(config.dark_threshold);
            for (net, prefix) in &config.dark_nets {
                ds.add_dark(Subnet::new(*net, *prefix));
            }
            TrafficClassifier::new(hp, ds)
        } else {
            TrafficClassifier::disabled()
        };
        let budget = Arc::new(MemoryBudget::limited(config.memory_budget));
        let mut flow_config = config.flow_table.clone();
        flow_config.hand_off_shed = config.analyze_on_evict;
        Layers {
            classifier,
            extractor: BinaryExtractor::new(config.extractor.clone()),
            analyzer: Analyzer::new(config.templates.clone()),
            flows: FlowTable::with_budget(flow_config, Arc::clone(&budget)),
            defrag: Defragmenter::with_budget(DefragConfig::default(), Arc::clone(&budget)),
            prefilter: config.prefilter.then(|| {
                Prefilter::new(PrefilterConfig::deployment_rules(
                    &config.honeypots,
                    &config.dark_nets,
                ))
            }),
            budget,
            verify_checksums: config.verify_checksums,
            max_frame_bytes: config.max_frame_bytes.max(1),
            dataflow: config.dataflow,
            pending_alerts: Vec::new(),
        }
    }
}

/// Replay the capture at `path` under `config`, recording spans into
/// `spans` (pass a disabled recorder for the untraced baseline). The
/// whole replay is one root span named `replay`.
pub fn replay(path: &str, config: &NidsConfig, spans: &mut Spans) -> std::io::Result<Tally> {
    let mut t = Tally::default();
    spans.enter("replay", 0);

    // Load, as `PcapReader::decode_all` does: every record read and
    // decoded before the first packet is processed.
    let mut reader = PcapReader::open(path).map_err(std::io::Error::other)?;
    let mut packets = Vec::new();
    loop {
        spans.enter("packet.load", 0);
        let next = match reader.next_record() {
            Ok(Some(rec)) => Some(rec.decode().ok()),
            Ok(None) | Err(_) => None,
        };
        spans.exit();
        match next {
            Some(Some(p)) => packets.push(p),
            Some(None) => t.undecodable += 1,
            None => break,
        }
    }
    t.records = reader.read_stats().attempted();

    let mut layers = Layers::new(config);
    for p in &packets {
        process_packet(&mut layers, p, &mut t, spans);
    }
    finish(&mut layers, &mut t, spans);
    spans.exit();
    Ok(t)
}

fn fails_checksum(layers: &Layers, packet: &Packet) -> bool {
    if !layers.verify_checksums {
        return false;
    }
    let Some(ip) = packet.ip() else {
        return false;
    };
    let raw = packet.raw();
    if !Ipv4Header::verify_checksum(&raw[ETHERNET_HEADER_LEN..]) {
        return true;
    }
    let is_fragment = ip.more_fragments || ip.fragment_offset != 0;
    if !is_fragment && packet.tcp().is_some() {
        let segment = &raw[ETHERNET_HEADER_LEN + ip.header_len..ETHERNET_HEADER_LEN + ip.total_len];
        if !TcpHeader::verify_checksum(ip.src, ip.dst, segment) {
            return true;
        }
    }
    false
}

fn process_packet(layers: &mut Layers, packet: &Packet, t: &mut Tally, spans: &mut Spans) {
    t.packets += 1;
    spans.enter("packet.checksum", 0);
    let failed = fails_checksum(layers, packet);
    spans.exit();
    if failed {
        return;
    }
    let mut whole = None;
    if packet
        .ip()
        .is_some_and(|h| h.more_fragments || h.fragment_offset != 0)
    {
        t.fragments += 1;
        spans.enter("flow.defrag", 0);
        let outcome = layers.defrag.ingest(packet.clone());
        spans.exit();
        match outcome {
            DefragOutcome::Reassembled { packet: p, .. } | DefragOutcome::Passthrough(p) => {
                whole = Some(p)
            }
            DefragOutcome::Buffered | DefragOutcome::Dropped(_) => return,
        }
    }
    let packet = whole.as_ref().unwrap_or(packet);
    t.classified += 1;
    spans.enter("classify", 0);
    let verdict = layers.classifier.classify(packet);
    spans.exit();
    if !verdict.is_suspicious() {
        return;
    }
    t.suspicious_packets += 1;
    let key = FlowKey::of(packet);
    let id = key.as_ref().map_or(0, flow_id);
    if let Some(pf) = layers.prefilter.as_mut() {
        let flow_buffered = key
            .as_ref()
            .and_then(|k| layers.flows.get(k))
            .is_some_and(|f| f.payload_bytes > 0);
        t.prefilter_decided += 1;
        spans.enter("prefilter", id);
        let decision = pf.decide(packet, flow_buffered);
        spans.exit();
        if matches!(decision, Decision::Reject) {
            t.prefilter_rejected += 1;
            return;
        }
    }
    t.segments += 1;
    spans.enter("flow.reassembly", id);
    layers.flows.process_tracked(packet);
    spans.exit();
    spans.enter("flow.shed", 0);
    let shed = layers.flows.take_shed();
    handle_shed(layers, shed, t, spans);
    spans.exit();
}

/// Analyze-on-evict, as `Nids::handle_shed`: shed victims are analyzed
/// now, their alerts held for the end of the run, and alerting sources
/// protected from further sheds.
fn handle_shed(layers: &mut Layers, shed: Vec<ShedFlow>, t: &mut Tally, spans: &mut Spans) {
    if shed.is_empty() {
        return;
    }
    let mut flows = Vec::with_capacity(shed.len());
    for s in shed {
        t.shed_flows += 1;
        if s.cause == ShedCause::ByteBudget {
            t.shed_by_budget += 1;
        }
        flows.push(s.flow);
    }
    let alerts = analyze_flows(layers, &flows, t, spans);
    for a in &alerts {
        layers.flows.protect_source(a.src);
    }
    layers.pending_alerts.extend(alerts);
}

fn finish(layers: &mut Layers, t: &mut Tally, spans: &mut Spans) {
    spans.enter("flow.defrag_drain", 0);
    layers.defrag.drain_incomplete();
    spans.exit();
    spans.enter("flow.shed", 0);
    let shed = layers.flows.take_shed();
    handle_shed(layers, shed, t, spans);
    spans.exit();
    spans.enter("flow.drain", 0);
    let flows = layers.flows.drain();
    spans.exit();
    let mut alerts = std::mem::take(&mut layers.pending_alerts);
    alerts.extend(analyze_flows(layers, &flows, t, spans));

    // `Nids::finalize_alerts`: total order, then dedup on every rendered
    // field.
    spans.enter("core.finalize", 0);
    alerts.sort_by_key(|a| (a.src, a.template, a.start, a.dst, a.dst_port));
    alerts.dedup_by(|a, b| {
        a.src == b.src
            && a.template == b.template
            && a.start == b.start
            && a.dst == b.dst
            && a.dst_port == b.dst_port
    });
    spans.exit();
    t.alerts = alerts.len() as u64;

    let evicted = layers.flows.evicted();
    let by_budget = layers.flows.evicted_by_budget();
    let shed_count_cap = t.shed_flows - t.shed_by_budget;
    // `flow_evicted` plus `shed_unanalyzed`, as `Nids::sync_drop_counters`
    // splits them.
    t.unanalyzed = by_budget.saturating_sub(t.shed_by_budget)
        + evicted
            .saturating_sub(by_budget)
            .saturating_sub(shed_count_cap);
    t.budget_peak_bytes = layers.budget.peak();
    t.conflict_bytes = layers.flows.overlap_conflict_bytes();
}

/// Stages 3-5 over flows, as `Nids::analyze_flows` does per flow.
fn analyze_flows(layers: &Layers, flows: &[Flow], t: &mut Tally, spans: &mut Spans) -> Vec<Alert> {
    t.flows_analyzed += flows.len() as u64;
    let mut alerts = Vec::new();
    for flow in flows {
        let id = flow_id(&flow.key);
        spans.enter("core.analyze_flow", id);
        let mut local = Tally::default();
        let depth = spans.depth();
        match catch_unwind(AssertUnwindSafe(|| {
            analyze_one(layers, flow, id, &mut local, &mut *spans)
        })) {
            Ok(found) => {
                alerts.extend(found);
                absorb(t, &local);
            }
            Err(_) => {
                spans.unwind_to(depth);
                t.panicked += 1;
            }
        }
        spans.exit();
    }
    alerts
}

fn absorb(t: &mut Tally, l: &Tally) {
    t.payload_copy_bytes += l.payload_copy_bytes;
    t.extract_bytes += l.extract_bytes;
    t.frames += l.frames;
    t.frames_matched += l.frames_matched;
    t.bailout_frames += l.bailout_frames;
    t.timed_frames += l.timed_frames;
    t.timed_bytes += l.timed_bytes;
    t.second_pass_flows += l.second_pass_flows;
    t.second_pass_recovered += l.second_pass_recovered;
    t.slice_frames += l.slice_frames;
}

fn extract(
    layers: &Layers,
    payload: &[u8],
    id: u64,
    t: &mut Tally,
    spans: &mut Spans,
) -> Vec<BinaryFrame> {
    t.extract_bytes += payload.len() as u64;
    spans.enter("extract", id);
    let frames = layers.extractor.extract(payload);
    spans.exit();
    frames
}

/// The fast pass over one frame: decode, lift and match, timed by the
/// analyzer itself and recorded as children of a `semantic.frame` span.
fn fast_pass(
    layers: &Layers,
    flow: &Flow,
    frame: &BinaryFrame,
    id: u64,
    t: &mut Tally,
    spans: &mut Spans,
) -> (Vec<Alert>, bool) {
    let data = &frame.data[..frame.data.len().min(layers.max_frame_bytes)];
    t.timed_frames += 1;
    t.timed_bytes += data.len() as u64;
    spans.enter("semantic.frame", id);
    let (analysis, timing) = layers.analyzer.analyze_frame_timed(data);
    spans.children_from_durations(
        &[
            ("x86.decode", timing.decode_nanos),
            ("ir.lift", timing.lift_nanos),
            ("semantic.match", timing.match_nanos),
        ],
        id,
    );
    spans.exit();
    let bailout = analysis.sweep_exhausted || frame.data.len() > layers.max_frame_bytes;
    let alerts = analysis
        .matches
        .into_iter()
        .map(|m| Alert::from_match(flow, frame, m))
        .collect();
    (alerts, bailout)
}

fn slice_pass(
    layers: &Layers,
    flow: &Flow,
    frame: &BinaryFrame,
    id: u64,
    t: &mut Tally,
    spans: &mut Spans,
) -> Vec<Alert> {
    let data = &frame.data[..frame.data.len().min(layers.max_frame_bytes)];
    t.slice_frames += 1;
    spans.enter("semantic.slice", id);
    let sa = layers.analyzer.analyze_frame_slices(data);
    spans.exit();
    sa.matches
        .into_iter()
        .map(|m| Alert::from_match(flow, frame, m))
        .collect()
}

fn analyze_one(
    layers: &Layers,
    flow: &Flow,
    id: u64,
    t: &mut Tally,
    spans: &mut Spans,
) -> Vec<Alert> {
    spans.enter("flow.payload", id);
    let payload = flow.payload();
    spans.exit();
    t.payload_copy_bytes += payload.len() as u64;
    let frames = extract(layers, &payload, id, t, spans);
    t.frames += frames.len() as u64;
    let mut alerts = Vec::new();
    for frame in &frames {
        let (found, bailout) = fast_pass(layers, flow, frame, id, t, spans);
        if bailout {
            t.bailout_frames += 1;
        }
        if !found.is_empty() {
            t.frames_matched += 1;
        }
        alerts.extend(found);
    }
    let second_pass = alerts.is_empty()
        && match layers.dataflow {
            DataflowMode::Off => false,
            DataflowMode::NearMiss => flow.has_conflicts(),
            DataflowMode::On => true,
        };
    if second_pass {
        t.second_pass_flows += 1;
        for frame in &frames {
            alerts.extend(slice_pass(layers, flow, frame, id, t, spans));
        }
        spans.enter("flow.alt_payload", id);
        let alt = flow.alternate_payload();
        spans.exit();
        if let Some(alt) = alt {
            t.payload_copy_bytes += alt.len() as u64;
            for frame in &extract(layers, &alt, id, t, spans) {
                // The alternate view never saw the fast pass: run both.
                alerts.extend(fast_pass(layers, flow, frame, id, t, spans).0);
                alerts.extend(slice_pass(layers, flow, frame, id, t, spans));
            }
        }
        if !alerts.is_empty() {
            t.second_pass_recovered += 1;
        }
    }
    alerts
}
