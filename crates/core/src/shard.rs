//! The sharded streaming front half.
//!
//! [`ShardedNids`] splits the per-flow portion of the pipeline — the
//! `FrontHalf`: pre-filter gate, flow tracking, TCP reassembly, event
//! emission and the cumulative front ledger — into N shards keyed by the
//! canonical flow hash
//! ([`snids_flow::shard::canonical_flow_hash`]). Each shard runs one
//! `FrontHalf` on its own thread, with its own slice of the flow table
//! and its own pre-filter sticky state, so the hot path takes no locks.
//! It is the same type, and the same code, the sequential [`Nids`]
//! embeds. The capture thread stays a sequential *driver* for the stages
//! that carry cross-flow per-source state: checksum verification,
//! defragmentation and classification (honeypot taint and dark-space
//! counts for source S are updated by packets from every address pair S
//! talks to, so they cannot live on a single pair-keyed shard without
//! reordering the scheme's decisions). Classified-suspicious packets are
//! dispatched to their shard through a bounded mailbox
//! ([`snids_exec::mailbox`]): a full mailbox blocks the driver —
//! backpressure, with the stall time recorded under the `dispatch`
//! stage — instead of queueing unboundedly outside the memory
//! governor's sight.
//!
//! ```text
//!            driver (capture order)          shards (flow order)
//!  packets ─▶ checksum ▶ defrag ▶ classify ─┬▶ [mailbox]▶ FrontHalf
//!                                           ├▶ [mailbox]▶ FrontHalf
//!                                           └▶ [mailbox]▶ FrontHalf
//!                 ▲                                │ shed / evicted /
//!                 └──────── alerts ◀ analysis ◀────┘ polled / finished
//! ```
//!
//! Every shard charges the **same** [`snids_flow::MemoryBudget`] through
//! its own `Arc` clone, so the watermark ladder and suspicion-aware
//! shedding governor stay global: the sum of all shards' buffered bytes
//! obeys one ceiling, and `peak_tracked_bytes <= limit` holds at every
//! shard count. Completed flows (shed victims mid-run, expired flows at
//! `poll`, the drain at `finish`) are handed back to the driver, which
//! runs the sequential pipeline's own barrier tail — so the alert stream
//! goes through the same total order + dedup and is **byte-identical at
//! any shard count** (pinned by `tests/shard_equivalence.rs`). A flow a
//! shard evicts unanalyzed is reported to the driver, which dumps its
//! flight trail exactly as the sequential pipeline does.
//!
//! **One ledger policy.** Each shard ships its `FrontLedger` snapshot
//! with every barrier reply; the driver keeps the latest per shard and
//! settles the one pipeline ledger from them — the same derivation the
//! sequential pipeline applies to its single front half, at the same
//! points: `poll`, `finish`, `absorb_read_stats` and the snapshot calls.
//!
//! With `shards <= 1` the type is a zero-cost wrapper around the
//! sequential [`Nids`]: identical code path, identical output.

use crate::front::{FrontHalf, FrontLedger};
use crate::stats::PipelineStats;
use crate::{Alert, FrontOutcome, Nids, NidsConfig};
use snids_exec::mailbox::{self, MailboxStats};
use snids_flow::shard::shard_of_packet;
use snids_flow::{Flow, FlowKey, ShedFlow};
use snids_obs::{Obs, Stage};
use snids_packet::Packet;
use std::net::Ipv4Addr;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A message from the driver to one front-half shard.
enum ShardMsg {
    /// A classified-suspicious, fully defragmented packet to track.
    Packet(Packet),
    /// An alerting source: pin its flows in the protection tier.
    Protect(Ipv4Addr),
    /// Expire flows idle since before `now` minus the table's timeout and
    /// reply with them ([`ShardReply::Flows`]).
    Poll(u64),
    /// Drain everything and reply with it ([`ShardReply::Flows`]), then
    /// exit.
    Finish,
}

/// A message from a shard back to the driver. Replies travel over an
/// unbounded channel so a shard can never block on the driver — the
/// one-way bound (driver → shard) is what makes backpressure safe.
enum ShardReply {
    /// Victims the governor shed under pressure, streams intact, for
    /// analyze-on-evict.
    Shed(Vec<ShedFlow>),
    /// A flow evicted unanalyzed: the driver dumps its flight trail.
    Evicted(FlowKey),
    /// Response to a barrier ([`ShardMsg::Poll`] or [`ShardMsg::Finish`]):
    /// the shard's completed flows and its cumulative ledger.
    Flows {
        shard: usize,
        flows: Vec<Flow>,
        ledger: FrontLedger,
    },
}

/// The state one shard thread owns: its front half and the reply channel.
struct FrontShard {
    index: usize,
    front: FrontHalf,
    replies: mpsc::Sender<ShardReply>,
}

impl FrontShard {
    fn run(mut self, rx: mailbox::Receiver<ShardMsg>) {
        while let Some(msg) = rx.recv() {
            let (flows, last) = match msg {
                ShardMsg::Packet(p) => {
                    if let Some(key) = self.front.track(&p) {
                        let _ = self.replies.send(ShardReply::Evicted(key));
                    }
                    self.flush_shed();
                    continue;
                }
                ShardMsg::Protect(src) => {
                    self.front.flows.protect_source(src);
                    continue;
                }
                ShardMsg::Poll(now) => (self.front.flows.expire(now), false),
                ShardMsg::Finish => (self.front.flows.drain(), true),
            };
            self.flush_shed();
            let _ = self.replies.send(ShardReply::Flows {
                shard: self.index,
                flows,
                ledger: self.front.ledger(),
            });
            if last {
                // Exit now: the shard's tables are freed while the driver
                // still waits on the other shards.
                return;
            }
        }
    }

    /// Ship shed victims to the driver for analyze-on-evict (the driver
    /// owns the analysis back half; shipping is a move, not a copy).
    fn flush_shed(&mut self) {
        let shed = self.front.flows.take_shed();
        if !shed.is_empty() {
            let _ = self.replies.send(ShardReply::Shed(shed));
        }
    }
}

/// The driver's handle to one shard: its mailbox, its thread, and the
/// latest mailbox-congestion snapshot.
struct ShardHandle {
    tx: Option<mailbox::Sender<ShardMsg>>,
    thread: Option<JoinHandle<()>>,
    mailbox: MailboxStats,
}

/// The pipeline with a sharded streaming front half. See the module
/// docs; with `NidsConfig::shards <= 1` every method delegates to the
/// sequential [`Nids`] it wraps, byte-identically.
pub struct ShardedNids {
    inner: Nids,
    shards: Vec<ShardHandle>,
    replies: Option<mpsc::Receiver<ShardReply>>,
    finished: bool,
}

impl ShardedNids {
    /// Build the pipeline; `config.shards` front-half shards (`<= 1`
    /// means the sequential seed pipeline).
    pub fn new(config: NidsConfig) -> Self {
        let n = config.shards.max(1);
        if n == 1 {
            return ShardedNids {
                inner: Nids::new(config),
                shards: Vec::new(),
                replies: None,
                finished: false,
            };
        }
        // Per-shard state is derived from the same config the sequential
        // pipeline uses; only the flow-slot cap is sliced so the total
        // stays `max_flows`.
        let max_flows = config.flow_table.max_flows.div_ceil(n).max(1);
        let mailbox_cap = config.shard_mailbox.max(1);
        let mut inner = Nids::new(config.clone());
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut shards = Vec::with_capacity(n);
        for index in 0..n {
            let (tx, rx) = mailbox::bounded::<ShardMsg>(mailbox_cap);
            let shard = FrontShard {
                index,
                front: FrontHalf::new(
                    &config,
                    max_flows,
                    std::sync::Arc::clone(&inner.budget),
                    inner.obs.clone(),
                ),
                replies: reply_tx.clone(),
            };
            let thread = std::thread::Builder::new()
                .name(format!("snids-shard-{index}"))
                .spawn(move || shard.run(rx))
                .ok();
            shards.push(ShardHandle {
                tx: Some(tx),
                thread,
                mailbox: MailboxStats {
                    sent: 0,
                    blocked_sends: 0,
                    peak_depth: 0,
                    capacity: mailbox_cap,
                    depth: 0,
                },
            });
        }
        inner.shard_ledgers = vec![FrontLedger::default(); n];
        ShardedNids {
            inner,
            shards,
            replies: Some(reply_rx),
            finished: false,
        }
    }

    /// Default production configuration (one shard).
    pub fn with_defaults() -> Self {
        ShardedNids::new(NidsConfig::default())
    }

    /// The number of front-half shards (1 = sequential).
    pub fn shard_count(&self) -> usize {
        self.shards.len().max(1)
    }

    /// The resource governor's shared byte accounting.
    pub fn budget(&self) -> &snids_flow::MemoryBudget {
        self.inner.budget()
    }

    /// The pipeline's observability registry.
    pub fn obs(&self) -> &Obs {
        self.inner.obs()
    }

    /// Flight-recorder dumps captured so far.
    pub fn flight_dumps(&self) -> &[String] {
        self.inner.flight_dumps()
    }

    /// Worker threads available to the flow-analysis back half.
    pub fn analysis_threads(&self) -> usize {
        self.inner.analysis_threads()
    }

    /// Pipeline statistics. In sharded mode the ledger is settled from
    /// every shard's latest ledger at every `poll`/`finish` barrier, by
    /// [`ShardedNids::absorb_read_stats`] and by the snapshot calls —
    /// exactly the points at which the sequential pipeline settles its
    /// own (see [`Nids::stats`]).
    pub fn stats(&self) -> &PipelineStats {
        self.inner.stats()
    }

    /// Fold a pcap reader's accounting into the record ledger.
    pub fn absorb_read_stats(&mut self, rs: &snids_packet::ReadStats) {
        self.inner.absorb_read_stats(rs);
    }

    /// Feed one packet through the pipeline. In sharded mode the driver
    /// runs checksum → defrag → classify in capture order, then routes
    /// the suspicious survivor to its shard's mailbox (blocking when the
    /// shard is saturated — the backpressure the `dispatch` stage
    /// timing measures).
    pub fn process_packet(&mut self, packet: &Packet) {
        if self.shards.is_empty() || self.finished {
            // After finish (a misuse corner) the shards are gone: fall
            // back to the driver's own front half so nothing is silently
            // lost.
            self.inner.process_packet(packet);
            return;
        }
        if let FrontOutcome::Suspicious(whole) = self.inner.ingest_front(packet) {
            self.dispatch(whole.unwrap_or_else(|| packet.clone()));
        }
        self.inner.note_pressure();
        self.pump_replies();
    }

    /// Route one suspicious packet to its shard.
    fn dispatch(&mut self, packet: Packet) {
        let n = self.shards.len();
        let idx = shard_of_packet(&packet, n).unwrap_or(0);
        let observing = self.inner.obs.enabled();
        let bytes = packet.payload().len() as u64;
        let t0 = if observing {
            Some(Instant::now())
        } else {
            None
        };
        let handle = &mut self.shards[idx];
        if let Some(tx) = handle.tx.as_ref() {
            // A send error means the shard thread is gone (it cannot
            // happen short of a shard panic); the packet is dropped and
            // the ledger imbalance will surface loudly in tests.
            let _ = tx.send(ShardMsg::Packet(packet));
            handle.mailbox = tx.stats();
        }
        if let Some(t0) = t0 {
            // Dispatch time is dominated by the mailbox send: ~zero when
            // the shard keeps up, the full stall under backpressure.
            self.inner
                .obs
                .record_stage(Stage::Dispatch, t0.elapsed().as_nanos() as u64, bytes);
        }
    }

    /// Handle any replies that have already arrived, without blocking —
    /// shed victims must reach analyze-on-evict promptly, not at the
    /// next barrier.
    fn pump_replies(&mut self) {
        while let Some(reply) = self.replies.as_ref().and_then(|rx| rx.try_recv().ok()) {
            self.on_reply(reply);
        }
    }

    fn on_reply(&mut self, reply: ShardReply) -> Option<(usize, Vec<Flow>)> {
        match reply {
            ShardReply::Shed(shed) => {
                // Analyze victims on the way out (the driver owns the
                // back half), then feed alerting sources back into every
                // shard's protection tier.
                let before = self.inner.pending_alerts.len();
                self.inner.handle_shed(shed);
                let srcs: Vec<Ipv4Addr> = self.inner.pending_alerts[before..]
                    .iter()
                    .map(|a| a.src)
                    .collect();
                self.broadcast_protect(srcs);
                None
            }
            ShardReply::Evicted(key) => {
                self.inner
                    .dump_flight("flow_evicted", key.src, key.dst, key.dst_port);
                None
            }
            ShardReply::Flows {
                shard,
                flows,
                ledger,
            } => {
                self.inner.shard_ledgers[shard] = ledger;
                Some((shard, flows))
            }
        }
    }

    /// Pin alerting sources in every shard's protection tier (alerts must
    /// shield their source's flows from shedding on whichever shards they
    /// live).
    fn broadcast_protect(&mut self, mut srcs: Vec<Ipv4Addr>) {
        srcs.sort_unstable();
        srcs.dedup();
        for src in srcs {
            for handle in &self.shards {
                if let Some(tx) = handle.tx.as_ref() {
                    let _ = tx.send(ShardMsg::Protect(src));
                }
            }
        }
    }

    /// Broadcast a barrier message and collect per-shard flow batches in
    /// shard-index order, handling shed and eviction replies as they
    /// interleave.
    fn barrier(&mut self, msg: impl Fn() -> ShardMsg) -> Vec<Flow> {
        for handle in &mut self.shards {
            if let Some(tx) = handle.tx.as_ref() {
                let _ = tx.send(msg());
                handle.mailbox = tx.stats();
            }
        }
        let mut batches: Vec<Option<Vec<Flow>>> = (0..self.shards.len()).map(|_| None).collect();
        let mut got = 0;
        while got < self.shards.len() {
            // A receive error means every shard exited.
            let Some(reply) = self.replies.as_ref().and_then(|rx| rx.recv().ok()) else {
                break;
            };
            if let Some((shard, flows)) = self.on_reply(reply) {
                batches[shard] = Some(flows);
                got += 1;
            }
        }
        // Shard-index order: the order flows reach analysis is fixed, so
        // nothing downstream can observe scheduling (the final total sort
        // over alerts makes even this ordering unobservable, but being
        // deterministic here keeps batching and timing attribution
        // stable too).
        batches.into_iter().flatten().flatten().collect()
    }

    /// Streaming mode: expire idle flows on every shard and analyze just
    /// those, exactly like the sequential [`Nids::poll`].
    pub fn poll(&mut self, now: u64) -> Vec<Alert> {
        if self.shards.is_empty() || self.finished {
            return self.inner.poll(now);
        }
        let expired = self.barrier(|| ShardMsg::Poll(now));
        let alerts = self.inner.conclude(expired);
        self.broadcast_protect(alerts.iter().map(|a| a.src).collect());
        alerts
    }

    /// Drain every shard, analyze all remaining flows, and produce the
    /// final (totally ordered, deduped) alert batch. Mirrors
    /// [`Nids::finish`]; the shard threads exit and are joined here.
    pub fn finish(&mut self) -> Vec<Alert> {
        if self.shards.is_empty() || self.finished {
            return self.inner.finish();
        }
        self.finished = true;
        // Fragments still buffered will never complete: release their
        // budget bytes before the shards work off their queues.
        self.inner.defrag.drain_incomplete();
        let flows = self.barrier(|| ShardMsg::Finish);
        self.join_shards();
        self.inner.finish_flows(flows)
    }

    /// Convenience: run a whole capture through the pipeline.
    pub fn process_capture(&mut self, packets: &[Packet]) -> Vec<Alert> {
        for p in packets {
            self.process_packet(p);
        }
        self.finish()
    }

    /// Mirror the per-shard and mailbox gauges into the obs registry (the
    /// pipeline-wide gauges come from [`Nids`]'s own publishing).
    fn publish_shard_gauges(&self) {
        let obs = &self.inner.obs;
        if !obs.enabled() || self.shards.is_empty() {
            return;
        }
        obs.set_named("snids_shards", self.shards.len() as u64);
        for (i, (handle, l)) in self
            .shards
            .iter()
            .zip(&self.inner.shard_ledgers)
            .enumerate()
        {
            let mb = &handle.mailbox;
            for (name, value) in [
                ("snids_shard_packets_total", l.packets),
                ("snids_shard_prefilter_rejected_total", l.prefilter_rejected),
                ("snids_shard_flows_live", l.flows_live),
                ("snids_shard_flows_shed_total", l.evicted),
                ("snids_shard_reassembly_nanos_total", l.reassembly_nanos),
                ("snids_shard_mailbox_depth", mb.depth as u64),
                ("snids_shard_mailbox_capacity", mb.capacity as u64),
                ("snids_shard_mailbox_blocked_sends_total", mb.blocked_sends),
                ("snids_shard_mailbox_peak_depth", mb.peak_depth),
            ] {
                obs.set_named(&format!("{name}{{shard=\"{i}\"}}"), value);
            }
        }
    }

    /// A deterministic point-in-time metrics snapshot (the ledger settled
    /// and the per-shard gauges freshly mirrored in).
    pub fn obs_snapshot(&mut self) -> snids_obs::Snapshot {
        self.inner.sync_drop_counters();
        self.publish_shard_gauges();
        self.inner.obs_snapshot()
    }

    /// The Prometheus-style text exposition page for this pipeline.
    pub fn metrics_page(&mut self) -> String {
        snids_obs::expo::render_text(&self.obs_snapshot())
    }

    /// The JSON metrics snapshot for this pipeline.
    pub fn metrics_json(&mut self) -> String {
        snids_obs::expo::render_json(&self.obs_snapshot())
    }

    /// Mailbox backpressure totals across all shards:
    /// `(blocked_sends, peak_depth)` — `(0, 0)` in sequential mode.
    pub fn backpressure(&self) -> (u64, u64) {
        let mut blocked = 0;
        let mut peak = 0;
        for handle in &self.shards {
            blocked += handle.mailbox.blocked_sends;
            peak = peak.max(handle.mailbox.peak_depth);
        }
        (blocked, peak)
    }

    /// Close every mailbox and join the shard threads (they observe the
    /// disconnect and exit), so no thread outlives the pipeline.
    fn join_shards(&mut self) {
        for handle in &mut self.shards {
            handle.tx = None;
        }
        for handle in &mut self.shards {
            if let Some(thread) = handle.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

impl Drop for ShardedNids {
    fn drop(&mut self) {
        self.join_shards();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snids_gen::traces::{codered_capture, AddressPlan};

    fn plan_config(plan: &AddressPlan) -> NidsConfig {
        NidsConfig {
            honeypots: plan.honeypots.clone(),
            dark_nets: vec![(plan.dark_net, 16)],
            dark_threshold: 5,
            ..NidsConfig::default()
        }
    }

    /// The ledger minus its timing and peak fields, which legitimately
    /// vary between runs even on identical input.
    #[allow(clippy::type_complexity)]
    fn deterministic(
        s: &PipelineStats,
    ) -> (
        (u64, u64, u64, u64),
        (u64, u64, u64),
        (u64, u64, u64, u64),
        (u64, u64, crate::DropCounters),
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

    /// One shard delegates to the sequential pipeline: identical alerts
    /// and identical ledger, trivially.
    #[test]
    fn single_shard_is_the_sequential_pipeline() {
        let plan = AddressPlan::default();
        let mut rng = StdRng::seed_from_u64(7);
        let (packets, _) = codered_capture(&mut rng, &plan, 1200, 3);
        let mut seq = Nids::new(plan_config(&plan));
        let seq_alerts = seq.process_capture(&packets);
        let mut sharded = ShardedNids::new(plan_config(&plan));
        assert_eq!(sharded.shard_count(), 1);
        let sh_alerts = sharded.process_capture(&packets);
        assert_eq!(
            seq_alerts.iter().map(|a| a.render()).collect::<Vec<_>>(),
            sh_alerts.iter().map(|a| a.render()).collect::<Vec<_>>(),
        );
        assert_eq!(deterministic(seq.stats()), deterministic(sharded.stats()));
    }

    /// The sharded front half finds the same worm instances as the
    /// sequential pipeline, and its merged ledger balances.
    #[test]
    fn sharded_worm_detection_and_ledger_balance() {
        let plan = AddressPlan::default();
        let mut rng = StdRng::seed_from_u64(7);
        let (packets, truth) = codered_capture(&mut rng, &plan, 1200, 3);
        let mut config = plan_config(&plan);
        config.shards = 4;
        let mut nids = ShardedNids::new(config);
        assert_eq!(nids.shard_count(), 4);
        let alerts = nids.process_capture(&packets);
        let mut sources: Vec<_> = alerts
            .iter()
            .filter(|a| a.template == "code-red-ii")
            .map(|a| a.src)
            .collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), truth.crii_sources.len(), "{alerts:?}");
        let s = nids.stats();
        assert_eq!(s.packets, packets.len() as u64);
        assert!(s.packet_ledger_balanced(), "{}", s.drop_report());
        assert_eq!(nids.budget().tracked(), 0);
    }

    /// Dropping a sharded pipeline without finish() must not hang or
    /// leak threads.
    #[test]
    fn drop_without_finish_shuts_down() {
        let plan = AddressPlan::default();
        let mut rng = StdRng::seed_from_u64(9);
        let (packets, _) = codered_capture(&mut rng, &plan, 400, 2);
        let mut config = plan_config(&plan);
        config.shards = 3;
        let mut nids = ShardedNids::new(config);
        for p in &packets {
            nids.process_packet(p);
        }
        drop(nids);
    }
}
