//! The per-layer report of a traced run: exact counts read from public
//! accessors, unit costs from the replays, and the coverage estimate that
//! multiplies each unit cost by how often the run used it.

use crate::common::Outcome;
use crate::replay::Replayed;
use ng_metrics::counters::CounterSnapshot;

/// The node counters the per-layer report reads, summed over nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub messages_in: u64,
    pub blocks_accepted: u64,
    pub blocks_duplicate: u64,
    pub txs_accepted: u64,
    pub microblocks_produced: u64,
    pub sync_batches_received: u64,
    pub sync_peers_evicted: u64,
    pub compact_reconstructed: u64,
    pub compact_txs_fetched: u64,
    pub compact_fallbacks: u64,
    pub overlay_grafts: u64,
    pub overlay_prunes: u64,
}

impl From<&CounterSnapshot> for Tally {
    fn from(s: &CounterSnapshot) -> Self {
        Tally {
            messages_in: s.messages_in,
            blocks_accepted: s.blocks_accepted,
            blocks_duplicate: s.blocks_duplicate,
            txs_accepted: s.txs_accepted,
            microblocks_produced: s.microblocks_produced,
            sync_batches_received: s.sync_batches_received,
            sync_peers_evicted: s.sync_peers_evicted,
            compact_reconstructed: s.compact_reconstructed,
            compact_txs_fetched: s.compact_txs_fetched,
            compact_fallbacks: s.compact_fallbacks,
            overlay_grafts: s.overlay_grafts,
            overlay_prunes: s.overlay_prunes,
        }
    }
}

impl Tally {
    fn zip(&self, other: &Tally, f: impl Fn(u64, u64) -> u64) -> Tally {
        Tally {
            messages_in: f(self.messages_in, other.messages_in),
            blocks_accepted: f(self.blocks_accepted, other.blocks_accepted),
            blocks_duplicate: f(self.blocks_duplicate, other.blocks_duplicate),
            txs_accepted: f(self.txs_accepted, other.txs_accepted),
            microblocks_produced: f(self.microblocks_produced, other.microblocks_produced),
            sync_batches_received: f(self.sync_batches_received, other.sync_batches_received),
            sync_peers_evicted: f(self.sync_peers_evicted, other.sync_peers_evicted),
            compact_reconstructed: f(self.compact_reconstructed, other.compact_reconstructed),
            compact_txs_fetched: f(self.compact_txs_fetched, other.compact_txs_fetched),
            compact_fallbacks: f(self.compact_fallbacks, other.compact_fallbacks),
            overlay_grafts: f(self.overlay_grafts, other.overlay_grafts),
            overlay_prunes: f(self.overlay_prunes, other.overlay_prunes),
        }
    }

    pub fn plus(&self, other: &Tally) -> Tally {
        self.zip(other, |a, b| a + b)
    }

    pub fn minus(&self, other: &Tally) -> Tally {
        self.zip(other, u64::saturating_sub)
    }
}

/// What a traced run measured, in the form every workload shares.
pub struct LayerInputs {
    /// Payments confirmed on every node.
    pub payments: usize,
    /// Nodes that each handled every payment.
    pub nodes: usize,
    /// Counters of those nodes over the timed phase.
    pub tally: Tally,
    /// Sent `(messages, modelled bytes, inv + getdata + tx messages)`.
    pub wire: (u64, u64, u64),
    /// Signature-cache `(hits, misses)` of those nodes over the timed phase.
    pub sig_cache: (u64, u64),
    /// Main-chain microblocks produced in the timed phase.
    pub microblocks: usize,
    pub timed_s: f64,
    pub submit_us: f64,
    pub run_us_per_tx: f64,
    /// Span average of the workload's own `PaymentBuilder::pay` calls, if any.
    pub wallet_build_us: Option<f64>,
    pub open_us: f64,
    pub restore_us: f64,
    /// Catch-up: the nodes joined a finished chain instead of admitting
    /// payments as they arrived.
    pub catchup: bool,
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Emits every per-layer metric and the coverage estimate.
pub fn report(out: &mut Outcome, i: &LayerInputs, r: &Replayed) {
    let t = &i.tally;
    let per_node_tx = (i.payments * i.nodes) as u64;
    let (hits, misses) = i.sig_cache;
    let (msgs, bytes, relay_msgs) = i.wire;
    let mean_block = ratio(i.payments as u64, i.microblocks as u64);

    let wallet_build_us = i.wallet_build_us.unwrap_or(r.wallet_build_us);
    let metrics: Vec<(&str, f64, &'static str)> = vec![
        ("wallet.build_us", wallet_build_us, "us"),
        ("crypto.verify_us", r.verify_us, "us"),
        (
            "crypto.verifies_per_tx",
            ratio(misses, per_node_tx),
            "count/tx",
        ),
        (
            "chain.sigcache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        ("chain.mempool_insert_us", r.mempool_insert_us, "us"),
        ("chain.mempool_select_us", r.mempool_select_us, "us"),
        ("chainstate.admit_us", r.admit_us, "us"),
        ("chainstate.connect_us", r.connect_us, "us"),
        ("chainstate.connect_pool_us", r.connect_pool_us, "us"),
        ("net.msgs_per_tx", ratio(msgs, per_node_tx), "count/tx"),
        ("net.bytes_per_tx", ratio(bytes, per_node_tx), "B/tx"),
        (
            "net.tx_relay_msgs_per_tx",
            ratio(relay_msgs, per_node_tx),
            "count/tx",
        ),
        (
            "overlay.grafts_per_block",
            ratio(t.overlay_grafts, t.blocks_accepted),
            "count/block",
        ),
        (
            "overlay.prunes_per_block",
            ratio(t.overlay_prunes, t.blocks_accepted),
            "count/block",
        ),
        (
            "gossip.dup_block_ratio",
            ratio(t.blocks_duplicate, t.blocks_accepted),
            "ratio",
        ),
        (
            "relay.fetch_ratio",
            t.compact_txs_fetched as f64 / (t.compact_reconstructed as f64 * mean_block).max(1.0),
            "ratio",
        ),
        (
            "relay.fallbacks_per_block",
            ratio(t.compact_fallbacks, t.blocks_accepted),
            "count/block",
        ),
        ("relay.reconstruct_us", r.reconstruct_us_per_block, "us"),
        ("codec.encode_us", r.encode_us, "us"),
        ("codec.decode_us", r.decode_us, "us"),
        ("codec.bytes_per_tx", r.codec_bytes_per_tx, "B/tx"),
        ("codec.model_ratio", r.model_ratio, "ratio"),
        (
            "sync.header_batches",
            t.sync_batches_received as f64,
            "count",
        ),
        ("sync.evictions", t.sync_peers_evicted as f64, "count"),
        ("sync.dup_blocks", t.blocks_duplicate as f64, "count"),
        ("storage.append_us", r.append_us_per_block, "us"),
        ("storage.bytes_per_tx", r.storage_bytes_per_tx, "B/tx"),
        ("storage.open_us", i.open_us, "us"),
        ("storage.restore_us", i.restore_us, "us"),
        ("driver.submit_us", i.submit_us, "us"),
        ("driver.run_us_per_tx", i.run_us_per_tx, "us"),
        (
            "engine.msgs_in_per_block",
            ratio(t.messages_in, t.blocks_accepted),
            "count/block",
        ),
        ("trace.coverage", coverage(i, r), "ratio"),
        ("trace.timed_phase_s", i.timed_s, "s"),
    ];
    for (name, value, unit) in metrics {
        let clock = if unit == "us" || unit == "s" {
            "wall"
        } else {
            "count"
        };
        out.metric(name, value, unit, clock);
    }
}

/// Σ over layers of (replayed unit cost × the run's count of that operation),
/// as a share of the timed phase. What it leaves out is scheduler and engine
/// bookkeeping, which only a probe inside the engine could split further.
fn coverage(i: &LayerInputs, r: &Replayed) -> f64 {
    let t = &i.tally;
    let payments = i.payments as f64;
    let verify_share = r.verify_us * ratio(r.connect_sig_cache.1, r.chain_txs);
    let connect_self = (r.connect_us - verify_share).max(0.0);
    let attributed_us = if i.catchup {
        // Each joiner connects every payment cold, with its worker pool, and
        // appends every block.
        (r.connect_pool_us * payments + r.append_us_per_block * i.microblocks as f64)
            * i.nodes as f64
    } else {
        // Every node admits each payment once (verifying it), later connects it
        // against a warm signature cache, and reconstructs each compact block.
        let admitted = t.txs_accepted as f64;
        (r.admit_us + r.mempool_insert_us) * admitted
            + connect_self * payments * i.nodes as f64
            + r.mempool_select_us * t.microblocks_produced as f64
            + r.reconstruct_us_per_block * t.compact_reconstructed as f64
            + r.append_us_per_block * i.microblocks as f64 // the one durable node
    };
    attributed_us / (i.timed_s * 1e6)
}
