//! The per-flow front half shared by both engines: the pre-filter gate,
//! one flow-table slice, TCP reassembly and the flight-recorder events
//! they emit, plus the cumulative ledger they feed.
//!
//! [`Nids`](crate::Nids) embeds one [`FrontHalf`]; every shard of
//! [`ShardedNids`](crate::ShardedNids) embeds its own. Neither engine
//! folds front-half figures into [`PipelineStats`](crate::PipelineStats)
//! per packet: the owner settles the ledger from the [`FrontLedger`]
//! snapshots at its barriers (see [`Nids::stats`](crate::Nids::stats)).

use crate::{flow_latency_id, record_event, DropReason, NidsConfig};
use snids_flow::{FlowKey, FlowTable, MemoryBudget};
use snids_obs::{EventKind, Obs, Stage};
use snids_packet::Packet;
use snids_prefilter::{Decision, Lane, Prefilter, PrefilterConfig};
use std::sync::Arc;
use std::time::Instant;

/// One front half's cumulative contribution to the pipeline ledger. All
/// fields are running totals, so a newer snapshot supersedes an older
/// one.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrontLedger {
    /// Suspicious packets this front half tracked.
    pub(crate) packets: u64,
    pub(crate) prefilter_passed: u64,
    pub(crate) prefilter_escalated: u64,
    pub(crate) prefilter_rejected: u64,
    pub(crate) prefilter_nanos: u64,
    /// Per-`(lane, rule)` pre-filter hits, in lexical order.
    pub(crate) lane_hits: Vec<(String, String, u64)>,
    pub(crate) reassembly_nanos: u64,
    /// Flow-table counters (mirroring `FlowTable`'s own).
    pub(crate) evicted: u64,
    pub(crate) evicted_by_budget: u64,
    pub(crate) truncated_flows: u64,
    pub(crate) overlap_conflict_bytes: u64,
    pub(crate) degraded_flows: u64,
    pub(crate) protected_len: u64,
    pub(crate) flows_live: u64,
}

/// Pre-filter gate → flow tracking/reassembly → event emission, over one
/// slice of the flow table. All of this state is keyed by the packet's
/// flow, which is what lets the sharded engine give every shard its own.
pub(crate) struct FrontHalf {
    prefilter: Option<Prefilter>,
    pub(crate) flows: FlowTable,
    obs: Obs,
    analyze_on_evict: bool,
    /// The running counters; [`FrontHalf::ledger`] adds the pre-filter
    /// and flow-table tallies.
    counts: FrontLedger,
}

impl FrontHalf {
    /// A front half for `config` whose flow table holds at most
    /// `max_flows` flows and charges the shared `budget`.
    pub(crate) fn new(
        config: &NidsConfig,
        max_flows: usize,
        budget: Arc<MemoryBudget>,
        obs: Obs,
    ) -> Self {
        let mut flow_config = config.flow_table.clone();
        flow_config.max_flows = max_flows;
        // The pipeline owns the analyze-on-evict decision: the table hands
        // victims back exactly when the governor will analyze them.
        flow_config.hand_off_shed = config.analyze_on_evict;
        FrontHalf {
            prefilter: config.prefilter.then(|| {
                Prefilter::new(PrefilterConfig::deployment_rules(
                    &config.honeypots,
                    &config.dark_nets,
                ))
            }),
            flows: FlowTable::with_budget(flow_config, budget),
            obs,
            analyze_on_evict: config.analyze_on_evict,
            counts: FrontLedger::default(),
        }
    }

    /// Track one classified-suspicious packet: the pre-filter gate, then
    /// reassembly. Suspicious packets no lane escalates skip reassembly
    /// and the analysis tail entirely; flows already holding payload stay
    /// open-ended (a mid-analysis flow must see its tail).
    ///
    /// Returns the key of a flow this packet evicted unanalyzed, when
    /// observability is on: that is the end of the flow's story, and the
    /// owner dumps its flight trail. Shed victims handed off for
    /// analyze-on-evict wait in `flows.take_shed()` instead.
    pub(crate) fn track(&mut self, packet: &Packet) -> Option<FlowKey> {
        self.counts.packets += 1;
        let observing = self.obs.enabled();
        if let Some(pf) = self.prefilter.as_mut() {
            let t_pf = Instant::now();
            let key = FlowKey::of(packet);
            let flow_buffered = key
                .as_ref()
                .and_then(|k| self.flows.get(k))
                .is_some_and(|f| f.payload_bytes > 0);
            let decision = pf.decide(packet, flow_buffered);
            let prefilter_nanos = t_pf.elapsed().as_nanos() as u64;
            self.counts.prefilter_nanos += prefilter_nanos;
            if observing {
                self.obs.record_stage(
                    Stage::Prefilter,
                    prefilter_nanos,
                    packet.payload().len() as u64,
                );
                if let Some(k) = key.as_ref() {
                    self.obs
                        .flow_charge(flow_latency_id(k), Stage::Prefilter, prefilter_nanos);
                }
            }
            match decision {
                Decision::Escalate(Lane::Sticky) => self.counts.prefilter_escalated += 1,
                Decision::Escalate(_) => self.counts.prefilter_passed += 1,
                Decision::Reject => {
                    self.counts.prefilter_rejected += 1;
                    if observing {
                        record_event(
                            &self.obs,
                            Stage::Prefilter,
                            EventKind::Drop,
                            key.as_ref(),
                            packet.payload().len() as u64,
                            Some(DropReason::PrefilterRejected),
                        );
                    }
                    return None;
                }
            }
        }
        let t1 = Instant::now();
        let outcome = self.flows.process_tracked(packet);
        let reassembly_nanos = t1.elapsed().as_nanos() as u64;
        self.counts.reassembly_nanos += reassembly_nanos;
        if !observing {
            return None;
        }
        self.obs.record_stage(
            Stage::Reassembly,
            reassembly_nanos,
            outcome.segment_bytes as u64,
        );
        if let Some(k) = outcome.key.as_ref() {
            self.obs
                .flow_charge(flow_latency_id(k), Stage::Reassembly, reassembly_nanos);
        }
        // The flight recorder tracks suspicious (tracked) traffic: only
        // those flows can later alert or be dropped with a trail worth
        // dumping, and skipping the benign majority keeps the enabled-mode
        // overhead inside its budget.
        record_event(
            &self.obs,
            Stage::Capture,
            EventKind::Ingest,
            outcome.key.as_ref(),
            outcome.segment_bytes as u64,
            None,
        );
        // With analyze-on-evict the victim's events come from the owner's
        // shed hand-off under the shed_analyzed reason instead.
        let evicted = outcome.evicted.filter(|_| !self.analyze_on_evict);
        if let Some(victim) = evicted.as_ref() {
            record_event(
                &self.obs,
                Stage::Reassembly,
                EventKind::Drop,
                Some(victim),
                0,
                Some(DropReason::FlowEvicted),
            );
            // Settle the victim's latency trail under the dropped outcome
            // before the owner dumps it, so the dump carries it.
            self.obs
                .flow_settle(&flow_latency_id(victim), snids_obs::FlowOutcome::Dropped);
        }
        if outcome.conflict_bytes > 0 {
            record_event(
                &self.obs,
                Stage::Reassembly,
                EventKind::Conflict,
                outcome.key.as_ref(),
                outcome.conflict_bytes,
                None,
            );
        }
        if outcome.truncated {
            record_event(
                &self.obs,
                Stage::Reassembly,
                EventKind::Drop,
                outcome.key.as_ref(),
                outcome.segment_bytes as u64,
                Some(DropReason::StreamTruncated),
            );
        }
        evicted
    }

    /// A snapshot of this front half's cumulative ledger.
    pub(crate) fn ledger(&self) -> FrontLedger {
        FrontLedger {
            lane_hits: self
                .prefilter
                .iter()
                .flat_map(|pf| pf.rule_hits())
                .map(|(lane, rule, n)| (lane.to_string(), rule.to_string(), n))
                .collect(),
            evicted: self.flows.evicted(),
            evicted_by_budget: self.flows.evicted_by_budget(),
            truncated_flows: self.flows.truncated_flows(),
            overlap_conflict_bytes: self.flows.overlap_conflict_bytes(),
            degraded_flows: self.flows.degraded_flows(),
            protected_len: self.flows.protected_len() as u64,
            flows_live: self.flows.len() as u64,
            ..self.counts.clone()
        }
    }
}
