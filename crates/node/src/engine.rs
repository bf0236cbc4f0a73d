//! The sans-I/O protocol engine: the entire Bitcoin-NG peer protocol as one pure,
//! deterministic state machine.
//!
//! [`Engine::handle`] consumes an [`Input`] — a connection event, a decoded wire
//! [`Message`], a timer tick, or a local command — together with the caller's clock
//! (`now_ms`), and returns the [`Effect`]s the caller must execute. The engine itself
//! never touches sockets, threads, message queues, or clocks: all I/O and time arrive as
//! inputs and leave as effects. Two drivers exercise the same engine:
//!
//! * [`crate::daemon`] — real TCP sockets and wall-clock time (the live node);
//! * [`crate::simnet`] — N engines wired through a seeded in-process scheduler with
//!   configurable latency, loss, and partitions (deterministic scenario testing).
//!
//! Everything the daemon used to interleave with its event loop lives here: the
//! version handshake (via [`ng_net::peer::Peer`]), headers-first multi-peer sync
//! with windowed parallel block download (via [`ng_net::sync::SyncScheduler`]),
//! assumeutxo-style snapshot bootstrap against a pinned checkpoint
//! ([`SnapshotPin`]) with background history backfill, `inv`/`getdata` gossip (via
//! [`ng_net::GossipRelay`]), leader microblock streaming from the mempool,
//! fork-choice reorg handling over the replayed UTXO ledger view, and
//! poison-evidence construction hooks exposed by the underlying [`NgNode`].
//!
//! Determinism contract: for a fixed [`EngineConfig`], an identical sequence of
//! `(now_ms, Input)` pairs produces an identical sequence of effects, byte for byte.
//! Every internal iteration that feeds an effect is over an ordered collection or
//! explicitly sorted. The `SimNet` determinism suite enforces this property across
//! seeds.

use crate::chainstate::ChainView;
use ng_chain::amount::Amount;
use ng_chain::chainstore::InsertOutcome;
use ng_chain::mempool::Mempool;
use ng_chain::payload::Payload;
use ng_chain::transaction::{OutPoint, Transaction};
use ng_chain::utxo::UtxoSet;
use ng_core::block::NgBlock;
use ng_core::node::NgNode;
use ng_core::params::NgParams;
use ng_core::poison::{poison_effect, PoisonError, PoisonTransaction};
use ng_crypto::keys::KeyPair;
use ng_crypto::sha256::Hash256;
use ng_net::message::{InvItem, InvKind, Message, ProtocolKind, WireSnapshot};
use ng_net::overlay::{Overlay, OverlayConfig};
use ng_net::peer::{Peer, PeerAction};
use ng_net::relay::{self, CompactMicroBlock, CompactRelay, ReconstructOutcome};
use ng_net::sync::{
    build_locator, ids_after_locator, HeaderRecord, SyncCommand, SyncConfig, SyncScheduler,
    DEFAULT_HEADER_BATCH,
};
use ng_net::GossipRelay;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Static configuration of one engine (the protocol-relevant subset of the old
/// daemon config — no addresses, no tick rates).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Stable node id; also seeds the deterministic key pair.
    pub id: u64,
    /// Protocol parameters (shared by every node of a network).
    pub params: NgParams,
    /// Seed of the random equal-work tie-break (§3 fn. 2). Every node of a network
    /// MUST share this value: nodes seeding it differently resolve the same
    /// equal-work fork differently and can split permanently.
    pub tie_break_seed: u64,
    /// When true the engine streams microblocks from its mempool on its own while it
    /// is the leader, arming `SetTimer` effects for the next production deadline;
    /// when false microblocks are produced only on [`Input::ProduceMicroblock`] (the
    /// deterministic mode the test harnesses use).
    pub auto_microblocks: bool,
    /// Maximum header records requested/served per sync batch.
    pub header_batch: u32,
    /// Download-scheduler knobs: per-peer in-flight windows, request timeouts,
    /// stalling-peer eviction.
    pub sync: SyncConfig,
    /// When set, a fresh engine bootstraps by fetching the checkpoint snapshot the
    /// pin commits to (instead of downloading the whole chain), roots its chain at
    /// the pinned anchor, and backfills the history below it in the background.
    pub snapshot_pin: Option<SnapshotPin>,
    /// Serve checkpoint snapshots to bootstrapping peers even without durable
    /// storage: the checkpoint cadence keeps the newest snapshot in memory. Nodes
    /// with a durable backend serve from disk regardless of this flag.
    pub serve_snapshots: bool,
    /// Block-propagation knobs: compact microblock relay and the structured
    /// broadcast overlay. Both default off, preserving the classic flood.
    pub gossip: GossipConfig,
}

/// How this engine relays blocks (§7 propagation). The defaults reproduce the
/// classic flood: full carriers pushed over every link. Enabling `compact` swaps
/// microblock pushes for BIP152-style [`CompactMicroBlock`] announcements
/// reconstructed from the receiver's mempool; enabling `overlay` restricts full
/// pushes to a small eager set and advertises over the rest with `ihave`,
/// Plumtree-style (see [`ng_net::overlay`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GossipConfig {
    /// Announce microblocks as compact blocks (short tx ids + mempool
    /// reconstruction) instead of full carriers.
    pub compact: bool,
    /// Broadcast blocks over the eager/lazy overlay instead of flooding every link.
    pub overlay: bool,
    /// Target eager-set size (broadcast-tree fan-out) when `overlay` is on.
    pub eager_degree: usize,
    /// Lazy-pull timeout before a missed `ihave` grafts the advertising link.
    pub pull_timeout_ms: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        let overlay = OverlayConfig::default();
        GossipConfig {
            compact: false,
            overlay: false,
            eager_degree: overlay.eager_degree,
            pull_timeout_ms: overlay.pull_timeout_ms,
        }
    }
}

impl GossipConfig {
    /// The compact + overlay stack the scalable-gossip benchmarks run.
    pub fn scalable() -> Self {
        GossipConfig {
            compact: true,
            overlay: true,
            ..GossipConfig::default()
        }
    }
}

impl EngineConfig {
    /// A config with the given id and parameters and the default knobs.
    pub fn new(id: u64, params: NgParams) -> Self {
        EngineConfig {
            id,
            params,
            tie_break_seed: 0,
            auto_microblocks: false,
            header_batch: DEFAULT_HEADER_BATCH,
            sync: SyncConfig::default(),
            snapshot_pin: None,
            serve_snapshots: false,
            gossip: GossipConfig::default(),
        }
    }
}

/// A trusted checkpoint pin for snapshot bootstrap (assumeutxo-style). Obtained
/// out of band — shipped with the binary, operator-configured — exactly like
/// Bitcoin Core's `assumeutxo` hashes. The engine refuses any served snapshot
/// whose anchor height, anchor block id, or **recomputed** sorted UTXO commitment
/// disagrees with the pin, so a Byzantine server can withhold a snapshot but never
/// substitute a forged ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotPin {
    /// Anchor height of the pinned checkpoint.
    pub height: u64,
    /// Block id of the anchor key block.
    pub root: Hash256,
    /// Sorted (collision-resistant) UTXO commitment at the anchor.
    pub sorted: Hash256,
}

/// Everything that can happen to an engine. Connection events and decoded wire
/// messages come from the driver's transport; `Tick` is the driver firing a deadline
/// the engine armed via [`Effect::SetTimer`]; the rest are local commands.
#[derive(Clone, Debug, Serialize)]
pub enum Input {
    /// A connection to a remote peer was established. `peer` is the driver's key for
    /// the connection; `inbound` says who dialed (the outbound side speaks first).
    PeerConnected {
        /// Driver-assigned connection key.
        peer: u64,
        /// True if the remote initiated the connection.
        inbound: bool,
    },
    /// A connection went away (socket closed, link severed).
    PeerDisconnected {
        /// Driver-assigned connection key.
        peer: u64,
    },
    /// A decoded message arrived on a connection.
    Message {
        /// Driver-assigned connection key.
        peer: u64,
        /// The decoded message.
        message: Message,
    },
    /// A timer armed via [`Effect::SetTimer`] fired.
    Tick,
    /// Local command: mine (and adopt and announce) a key block.
    MineKeyBlock,
    /// Local command: produce one microblock from the mempool if leader and due.
    ProduceMicroblock {
        /// When true, an empty mempool produces nothing (instead of an empty block).
        require_transactions: bool,
    },
    /// Local command: submit a transaction to the mempool (and gossip).
    SubmitTx(Box<Transaction>),
}

/// What the driver must do after a [`Engine::handle`] call, in order.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum Effect {
    /// Send `message` on connection `peer`.
    Send {
        /// Destination connection key.
        peer: u64,
        /// The message to transmit.
        message: Message,
    },
    /// Send `message` to every ready peer (the driver expands this over
    /// [`Engine::ready_peers`]). Emitted for freshly produced local objects, which
    /// by construction no peer knows yet.
    Broadcast {
        /// The message to transmit to every ready peer.
        message: Message,
    },
    /// Arm (or re-arm) the driver's single wakeup timer for an absolute deadline on
    /// the driver's clock; the driver feeds [`Input::Tick`] once it passes. A later
    /// `SetTimer` replaces any earlier one.
    SetTimer {
        /// Absolute deadline in the driver's `now_ms` timebase.
        deadline_ms: u64,
    },
    /// Disarm the wakeup timer: every deadline the engine was waiting on has been
    /// satisfied. Without this, a sync request's timeout would fire a pointless
    /// `Tick` long after the reply arrived (and keep SimNet scenarios from going
    /// quiescent inside their virtual-time budgets).
    ClearTimer,
    /// Close the connection (the engine has already forgotten the peer).
    Disconnect {
        /// Connection key to close.
        peer: u64,
    },
    /// A protocol event for observability. The engine never counts anything itself —
    /// drivers feed these to [`ng_metrics::counters::NodeCounters`] (see
    /// [`crate::report::record`]), keeping the engine free of shared state.
    Report(ReportEvent),
}

/// Protocol events surfaced via [`Effect::Report`]. Block/transaction ids double as
/// return values: drivers resolve command replies (e.g. "what did I just mine?") by
/// scanning the reported events.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum ReportEvent {
    /// A connection completed its version handshake.
    PeerReady {
        /// Connection key.
        peer: u64,
        /// The remote's stable node id.
        node_id: u64,
    },
    /// A peer violated the protocol and was disconnected.
    PeerMisbehaved {
        /// Connection key.
        peer: u64,
        /// Human-readable violation.
        reason: String,
    },
    /// A block joined the chain (local or remote).
    BlockAccepted {
        /// The block id.
        id: Hash256,
        /// Whether the main-chain tip changed.
        tip_changed: bool,
        /// Whether blocks left the main chain (a reorg).
        reorg: bool,
    },
    /// A duplicate block was ignored.
    BlockDuplicate {
        /// The block id.
        id: Hash256,
    },
    /// A block was buffered because its parent is unknown.
    BlockOrphaned {
        /// The block id.
        id: Hash256,
    },
    /// A block failed validation.
    BlockRejected {
        /// The block id.
        id: Hash256,
    },
    /// This node mined (and adopted) a key block.
    KeyBlockMined {
        /// The key block id.
        id: Hash256,
    },
    /// This node produced (and adopted) a microblock as leader.
    MicroblockProduced {
        /// The microblock id.
        id: Hash256,
    },
    /// A transaction entered the mempool.
    TxAccepted {
        /// The transaction id.
        txid: Hash256,
    },
    /// A `getheaders` request was served.
    SyncRequestServed {
        /// Requesting connection key.
        peer: u64,
    },
    /// A `headers` batch arrived while syncing.
    SyncBatchReceived {
        /// Serving connection key.
        peer: u64,
        /// Number of records in the batch.
        count: usize,
    },
    /// The incremental chainstate rolled across a tip change.
    LedgerRolled {
        /// Blocks connected to the ledger view.
        connected: u64,
        /// Blocks disconnected from the ledger view (non-zero on reorgs).
        disconnected: u64,
    },
    /// A durable-storage write failed. The engine keeps running in memory; the
    /// driver decides whether to alert or shut down.
    StorageFailed {
        /// Human-readable failure.
        reason: String,
    },
    /// A snapshot / finality checkpoint was written.
    CheckpointWritten {
        /// Anchor height of the snapshot.
        height: u64,
    },
    /// A checkpoint snapshot was served to a bootstrapping peer.
    SnapshotServed {
        /// Requesting connection key.
        peer: u64,
    },
    /// A served snapshot passed the pinned-commitment checks and rooted the chain.
    SnapshotApplied {
        /// Anchor height of the applied snapshot.
        height: u64,
    },
    /// A served snapshot contradicted the pin and was refused.
    SnapshotRejected {
        /// The serving connection key (disconnected for it).
        peer: u64,
    },
    /// A peer accumulated too many request timeouts and was evicted from download
    /// duty (the connection itself stays up — gossip still flows).
    SyncPeerEvicted {
        /// The evicted connection key.
        peer: u64,
    },
    /// The background backfill below a snapshot root fetched all of history.
    BackfillCompleted {
        /// Blocks fetched by the backfill.
        blocks: u64,
    },
    /// A compact announcement was reconstructed into a full microblock — entirely
    /// from the local mempool, or after one `getblocktxn` round trip.
    CompactReconstructed {
        /// The microblock id.
        id: Hash256,
        /// Transactions fetched via `blocktxn` (0 = pure mempool reconstruction).
        fetched: usize,
    },
    /// A compact reconstruction failed (collision, bad reply, digest mismatch) and
    /// the node fell back to a full-block fetch.
    CompactFallback {
        /// The microblock id.
        id: Hash256,
    },
    /// A lazy `ihave` timed out: the advertising link was grafted back to eager and
    /// the block pulled over it (the overlay's self-healing move).
    OverlayGraft {
        /// The grafted connection key.
        peer: u64,
    },
    /// A duplicate eager push demoted the link it came over to lazy.
    OverlayPrune {
        /// The pruned connection key.
        peer: u64,
    },
    /// This node observed a leader sign two microblocks over the same parent and
    /// constructed the fraud proof itself (§4.5).
    PoisonDetected {
        /// The equivocating leader.
        accused: u64,
        /// Canonical id of the constructed poison transaction.
        txid: Hash256,
    },
    /// A poison transaction (local or remote) passed validation and its revenue
    /// revocation was applied to the ledger view.
    PoisonAccepted {
        /// The leader whose epoch revenue was revoked.
        accused: u64,
        /// The statically determined revocable amount, in satoshis.
        revoked_sats: u64,
    },
    /// An incoming poison transaction was dropped: invalid evidence, a duplicate,
    /// or a losing competitor of a poison already applied for the same epoch.
    PoisonRejected {
        /// Human-readable drop reason.
        reason: String,
    },
    /// A poison transaction was flooded onward to this node's ready peers.
    PoisonRelayed {
        /// Canonical id of the relayed poison transaction.
        txid: Hash256,
    },
}

/// Cap on stashed orphan carriers (a misbehaving peer could otherwise grow the
/// stash without bound by sending parentless blocks).
const MAX_ORPHAN_CARRIERS: usize = 1024;

/// Cap on tracked `(parent, leader)` → first-seen-microblock sightings for
/// equivocation detection. Entries outlive their usefulness once the epoch
/// closes; eviction drops the **oldest** sighting (insertion order), so
/// sustained load sheds closed-epoch entries first and never silently disables
/// detection for a still-active key that merely sorts low.
const MAX_MICRO_SIGHTINGS: usize = 4096;

/// Cap on recorded poisons. The protocol admits at most one poison per cheater
/// per epoch (§4.5), so this is reached only if hundreds of distinct leaders
/// cheat in distinct epochs; past it, further poisons are rejected.
const MAX_POISON_RECORDS: usize = 256;

/// Cap on poisons parked while their epoch key block is still unknown (a node
/// mid-sync receiving the flood before the history it judges against).
const MAX_PENDING_POISONS: usize = 64;

/// Cap on poisons parked under one unknown fork point. A small list (rather
/// than a single smallest-txid slot) keeps a genuine proof parked even when an
/// attacker grinds competitors with smaller txids under the same parent key —
/// displacing it would take [`MAX_PENDING_PER_PARENT`] shape-valid forgeries
/// that all sort below it.
const MAX_PENDING_PER_PARENT: usize = 4;

/// An accepted fraud proof and the statically determined facts its ledger
/// effect derives from. The canonical poison per `(cheater, epoch)` is the one
/// with the smallest [`PoisonTransaction::txid`]: several honest nodes can
/// detect the same equivocation simultaneously and each names itself poisoner,
/// so convergence needs a total order, and min-txid is one every node computes
/// identically. A smaller-txid competitor replaces the incumbent (its bounty is
/// reverted) and is re-flooded; anything else is dropped, so the flood
/// terminates and the network converges on the minimum.
#[derive(Clone, Debug)]
struct PoisonRecord {
    /// The canonical fraud proof.
    poison: PoisonTransaction,
    /// Cached [`PoisonTransaction::txid`]; the bounty is minted at `(txid, 0)`.
    txid: Hash256,
    /// The epoch key block whose coinbase pays the revoked revenue.
    epoch_id: Hash256,
    /// Height of that key block — the bounty entry's height, so every node's
    /// entry digest matches no matter when it applied the poison.
    epoch_height: u64,
    /// The statically determined revocable amount.
    revoked: Amount,
    /// The poisoner's bounty (`poison_reward_percent` of `revoked`).
    reward: Amount,
}

/// The pure Bitcoin-NG protocol engine. See the module docs for the contract.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    node: NgNode,
    mempool: Mempool,
    /// The incremental ledger view: UTXO set, confirmed-txid set and rolling
    /// commitment, maintained by connecting/disconnecting blocks (never by replay).
    view: ChainView,
    /// Carrier messages of blocks not yet relayable, keyed by block id: chain-level
    /// orphans (announced once the parent arrives and they are adopted) and, under
    /// full validation, side-branch microblocks (announced if their branch wins and
    /// validates). Bounded: `orphan_order` drives oldest-first eviction at
    /// [`MAX_ORPHAN_CARRIERS`] — losing-branch carriers must not accumulate for the
    /// node's lifetime.
    // ng-lint: bound(MAX_ORPHAN_CARRIERS)
    orphan_carriers: HashMap<Hash256, Message>,
    /// Insertion order of `orphan_carriers` keys (may lag behind removals; stale
    /// ids are skipped during eviction and compacted periodically).
    // ng-lint: bound(MAX_ORPHAN_CARRIERS)
    orphan_order: std::collections::VecDeque<Hash256>,
    relay: GossipRelay,
    /// Eager/lazy broadcast overlay (only driven when `config.gossip.overlay`).
    overlay: Overlay,
    /// Partial compact-block reconstructions awaiting `blocktxn` replies.
    compact: CompactRelay,
    /// Multi-peer sync: concurrent header walks plus the windowed parallel block
    /// download scheduler (request deadlines, retry-on-another-peer, eviction).
    sync: SyncScheduler,
    /// Every registered connection key (ready or not).
    // ng-lint: allow(bounded-collections): one key per live driver connection;
    // the driver's accept/connect limit is the cap and Closed removes keys.
    peers: BTreeSet<u64>,
    /// The deadline of the last `SetTimer` effect emitted, to avoid re-arming the
    /// driver with a deadline it already holds. Cleared when a `Tick` consumes it.
    last_timer: Option<u64>,
    /// The durable backend, when this engine persists ([`Engine::set_storage`]).
    /// `None` keeps the engine pure (SimNet, unit tests): no file system, no
    /// non-determinism. Storage failures are surfaced as
    /// [`ReportEvent::StorageFailed`] effects, never panics — a full disk degrades
    /// the node to in-memory operation instead of killing consensus.
    storage: Option<Box<dyn ng_storage::ChainStorage>>,
    /// Height of the last snapshot written, gating the checkpoint cadence.
    last_snapshot_height: u64,
    /// Newest checkpoint snapshot held in memory — what `getsnapshot` requests are
    /// served from (falling back to `storage.latest_snapshot()`). Filled by the
    /// checkpoint cadence and by a successfully applied bootstrap snapshot.
    latest_snapshot: Option<ng_storage::Snapshot>,
    /// In-progress snapshot bootstrap; `None` once decided (applied, or fallen
    /// back to a full block download).
    bootstrap: Option<BootstrapState>,
    /// In-progress background backfill of the history below a snapshot root.
    backfill: Option<BackfillState>,
    /// Height of the chain root: 0 on a genesis-rooted chain, the pin height after
    /// a snapshot bootstrap. Forward sync ignores header records at or below it —
    /// they can never connect; the backfill owns that range.
    root_height: u64,
    /// First-seen microblock id per `(parent, leader)`, tagged with its insertion
    /// sequence. A second distinct id under the same key is an equivocation: the
    /// leader signed two microblocks at the same height (§4.5), and this node
    /// constructs the fraud proof.
    // ng-lint: bound(MAX_MICRO_SIGHTINGS)
    micro_sightings: BTreeMap<(Hash256, u64), (Hash256, u64)>,
    /// Insertion order of `micro_sightings` keys, driving oldest-first eviction.
    /// A queue entry whose sequence no longer matches the map's (the key was
    /// evicted and later re-seen) is stale and skipped.
    // ng-lint: bound(MAX_MICRO_SIGHTINGS)
    sighting_order: std::collections::VecDeque<((Hash256, u64), u64)>,
    /// Monotonic insertion counter for `micro_sightings` entries.
    sighting_seq: u64,
    /// Canonical accepted poison per `(accused leader, epoch key block)` — see
    /// [`PoisonRecord`] for the min-txid convergence rule. Re-asserted against the
    /// main chain after every ledger roll.
    // ng-lint: bound(MAX_POISON_RECORDS)
    poisons: BTreeMap<(u64, Hash256), PoisonRecord>,
    /// Poisons whose epoch cannot be attributed yet, keyed by the unknown parent
    /// block id and retried when that block arrives. Each parent keeps a short
    /// txid-sorted list ([`MAX_PENDING_PER_PARENT`]) of `(txid, proof)` pairs;
    /// only shape-valid conflicts ([`PoisonTransaction::check_conflict`]) are
    /// parked, so unverifiable garbage cannot displace a genuine proof.
    // ng-lint: bound(MAX_PENDING_POISONS)
    pending_poisons: BTreeMap<Hash256, Vec<(Hash256, PoisonTransaction)>>,
}

/// Progress of a snapshot bootstrap: ask one ready peer at a time for the pinned
/// snapshot; fall back to a full block download once every ready peer was tried.
#[derive(Debug)]
struct BootstrapState {
    /// The trusted checkpoint the served snapshot must match.
    pin: SnapshotPin,
    /// Peers already asked (whether they answered or not).
    // ng-lint: allow(bounded-collections): subset of the connected peers, which
    // the driver's connection limit caps; dropped whole when bootstrap decides.
    tried: BTreeSet<u64>,
    /// Outstanding request: `(peer, deadline_ms)`.
    waiting: Option<(u64, u64)>,
}

/// Progress of the background history backfill below a snapshot root: a
/// sequential header walk from genesis toward the root against one peer at a
/// time, bodies fetched batch by batch. Fetched blocks are stored and made
/// servable, never connected — they sit below the root.
#[derive(Debug)]
struct BackfillState {
    /// The snapshot root height; everything strictly below it is fetched.
    target: u64,
    /// The peer currently serving the walk.
    peer: u64,
    /// Deadline of the outstanding request (headers or bodies); expiry rotates
    /// the walk to the next ready peer.
    deadline: u64,
    /// A `getheaders` is out and its reply pending.
    awaiting_headers: bool,
    /// Requested bodies not yet delivered: id → (height, kind).
    // ng-lint: bound(header_batch)
    expected: HashMap<Hash256, (u64, InvKind)>,
    /// Id of the last header record fetched (leads the next locator).
    cursor: Option<Hash256>,
    /// The header walk reached the root; finish once `expected` drains.
    exhausted: bool,
    /// Blocks fetched so far.
    fetched: u64,
}

impl Engine {
    /// Creates an engine over a fresh chain (genesis only).
    pub fn new(mut config: EngineConfig) -> Self {
        // Keep the requested batch inside what `serve_headers` is willing to serve;
        // otherwise every served batch would look partial and sync would stop early.
        config.header_batch = config.header_batch.clamp(1, 4096);
        let node = NgNode::new(config.id, config.params, config.tie_break_seed);
        let view = ChainView::new(&config.params, node.chain().genesis_id());
        let bootstrap = config.snapshot_pin.map(|pin| BootstrapState {
            pin,
            tried: BTreeSet::new(),
            waiting: None,
        });
        let sync = SyncScheduler::new(config.sync);
        let overlay = Overlay::new(OverlayConfig {
            eager_degree: config.gossip.eager_degree,
            pull_timeout_ms: config.gossip.pull_timeout_ms,
            ..OverlayConfig::default()
        });
        Engine {
            config,
            node,
            mempool: Mempool::new(),
            view,
            orphan_carriers: HashMap::new(),
            orphan_order: std::collections::VecDeque::new(),
            relay: GossipRelay::new(),
            overlay,
            compact: CompactRelay::new(),
            sync,
            peers: BTreeSet::new(),
            last_timer: None,
            storage: None,
            last_snapshot_height: 0,
            latest_snapshot: None,
            bootstrap,
            backfill: None,
            root_height: 0,
            micro_sightings: BTreeMap::new(),
            sighting_order: std::collections::VecDeque::new(),
            sighting_seq: 0,
            poisons: BTreeMap::new(),
            pending_poisons: BTreeMap::new(),
        }
    }

    /// Rebuilds an engine from what a [`ng_storage::FileStorage::open`] recovery
    /// scan found on disk — the restart path. Cost is O(finality depth), not
    /// O(chain length):
    ///
    /// 1. The block tree is rooted at the recovered finality checkpoint (or
    ///    genesis on a young chain) and the stored blocks above it are replayed
    ///    through [`NgChainState::restore_insert`] — no signature or
    ///    proof-of-work re-verification, they were validated before being made
    ///    durable. WAL-invalidated blocks are skipped. The fork-choice rule is
    ///    deterministic, so the replay re-derives exactly the pre-crash tip.
    /// 2. Undo records are restored so post-restart reorgs (legal down to
    ///    finality) can still rewind pre-crash blocks.
    /// 3. The ledger view restores from the newest usable snapshot and syncs
    ///    forward to the re-derived tip, validating only the blocks above the
    ///    snapshot.
    ///
    /// The returned engine does **not** yet persist; pass the recovered backend to
    /// [`Self::set_storage`] after construction.
    ///
    /// [`NgChainState::restore_insert`]: ng_core::chain::NgChainState::restore_insert
    pub fn restore(mut config: EngineConfig, recovery: ng_storage::Recovery) -> Self {
        config.header_batch = config.header_batch.clamp(1, 4096);
        let ng_storage::Recovery {
            root,
            snapshots,
            blocks,
            undos,
            invalidated,
            last_roll: _,
        } = recovery;
        let root_height = root.as_ref().map(|snap| snap.height).unwrap_or(0);
        let node = match root {
            Some(snap) => {
                let chain = ng_core::chain::NgChainState::from_root(
                    config.params,
                    config.tie_break_seed,
                    snap.root,
                    snap.height,
                    snap.total_work,
                );
                NgNode::from_chain(config.id, chain)
            }
            None => NgNode::new(config.id, config.params, config.tie_break_seed),
        };
        // Placeholder view; replaced below once the replayed store exists.
        let placeholder = ChainView::new(&config.params, Hash256::ZERO);
        let sync = SyncScheduler::new(config.sync);
        let overlay = Overlay::new(OverlayConfig {
            eager_degree: config.gossip.eager_degree,
            pull_timeout_ms: config.gossip.pull_timeout_ms,
            ..OverlayConfig::default()
        });
        let mut engine = Engine {
            config,
            node,
            mempool: Mempool::new(),
            view: placeholder,
            orphan_carriers: HashMap::new(),
            orphan_order: std::collections::VecDeque::new(),
            relay: GossipRelay::new(),
            overlay,
            compact: CompactRelay::new(),
            sync,
            peers: BTreeSet::new(),
            last_timer: None,
            storage: None,
            last_snapshot_height: 0,
            // A restored node already holds its history — a pin never re-bootstraps
            // an engine that recovered a chain from disk.
            latest_snapshot: None,
            bootstrap: None,
            backfill: None,
            root_height,
            micro_sightings: BTreeMap::new(),
            sighting_order: std::collections::VecDeque::new(),
            sighting_seq: 0,
            poisons: BTreeMap::new(),
            pending_poisons: BTreeMap::new(),
        };
        // 1: replay stored blocks in their original acceptance order. A parent
        // missing because its branch was rooted away (or WAL-invalidated) just
        // drops its descendants — they were not on the finalized path.
        for (_height, id, block) in blocks {
            if invalidated.contains(&id) {
                continue;
            }
            let _ = engine.node.chain_mut().restore_insert_with_id(block, id);
        }
        // 2: restore undo records for every block that survived the replay.
        for (id, undo) in undos {
            if engine.node.chain().store().contains(&id) {
                engine.node.chain_mut().set_undo(id, undo);
            }
        }
        // 3: restore the view from the newest snapshot whose anchor survived, and
        // sync forward to the re-derived tip.
        let newest_height = snapshots.first().map(|s| s.height);
        let usable = snapshots
            .into_iter()
            .find(|snap| engine.node.chain().store().contains(&snap.root.id()));
        match usable {
            Some(snap) => {
                let anchor = snap.root.id();
                let utxo = ng_chain::utxo::UtxoSet::from_parts(
                    engine.config.params.coinbase_maturity,
                    snap.entries.into_iter().collect(),
                    snap.rolling,
                );
                let confirmed = snap.confirmed.into_iter().collect();
                engine.view = ChainView::restore(&engine.config.params, anchor, utxo, confirmed);
                engine.last_snapshot_height = newest_height.unwrap_or(snap.height);
            }
            None => {
                engine.view =
                    ChainView::new(&engine.config.params, engine.node.chain().genesis_id());
            }
        }
        engine.roll_ledger(None, &mut Vec::new());
        engine
    }

    /// Installs a durable backend: from here on every accepted block, undo record
    /// and completed roll is persisted, snapshots are written on the
    /// [`NgParams::checkpoint_interval`] cadence, and finality advances with the
    /// tip. Drivers with a datadir (the TCP daemon) call this; SimNet never does.
    ///
    /// [`NgParams::checkpoint_interval`]: ng_core::params::NgParams
    pub fn set_storage(&mut self, storage: Box<dyn ng_storage::ChainStorage>) {
        self.node.chain_mut().track_newly_stored(true);
        self.storage = Some(storage);
    }

    /// The durable backend, for driver-side inspection (crash tests read file
    /// positions through this).
    pub fn storage_mut(&mut self) -> Option<&mut Box<dyn ng_storage::ChainStorage>> {
        self.storage.as_mut()
    }

    /// Installs a signature [`ng_chain::sigcache::BatchExecutor`] on the ledger
    /// view. Drivers with real threads (the TCP daemon, the testnet harness) call
    /// this with a worker pool; verification *results* are identical either way, so
    /// the engine's pure input→effect contract is unaffected — only wall-clock
    /// changes. SimNet leaves it unset to stay single-threaded.
    pub fn set_batch_executor(
        &mut self,
        executor: std::sync::Arc<dyn ng_chain::sigcache::BatchExecutor>,
    ) {
        self.view.set_batch_executor(executor);
    }

    /// Feeds one input to the engine and returns the effects to execute, in order.
    pub fn handle(&mut self, now_ms: u64, input: Input) -> Vec<Effect> {
        let mut effects = Vec::new();
        match input {
            Input::PeerConnected { peer, inbound } => {
                self.on_connected(peer, inbound, now_ms, &mut effects)
            }
            Input::PeerDisconnected { peer } => self.forget_peer(peer),
            Input::Message { peer, message } => {
                self.on_message(peer, message, now_ms, &mut effects)
            }
            Input::Tick => {
                // The driver consumed the armed deadline; anything still pending
                // must be re-armed below.
                self.last_timer = None;
            }
            Input::MineKeyBlock => self.mine_key_block(now_ms, &mut effects),
            Input::ProduceMicroblock {
                require_transactions,
            } => {
                self.produce_microblock(now_ms, require_transactions, &mut effects);
            }
            Input::SubmitTx(tx) => {
                self.accept_tx(None, *tx, &mut effects);
            }
        }
        self.autostream(now_ms, &mut effects);
        // Any input may have freed download windows, expired deadlines, or changed
        // the bootstrap/backfill state: run one scheduler pass before re-arming.
        self.drive_sync(now_ms, &mut effects);
        self.drive_overlay(now_ms, &mut effects);
        self.arm_timer(now_ms, &mut effects);
        effects
    }

    // ---- queries (drivers and snapshots) --------------------------------------

    /// The node id.
    pub fn id(&self) -> u64 {
        self.config.id
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Read access to the underlying protocol node.
    pub fn node(&self) -> &NgNode {
        &self.node
    }

    /// Current main-chain tip.
    pub fn tip(&self) -> Hash256 {
        self.node.tip()
    }

    /// Height of the tip.
    pub fn height(&self) -> u64 {
        self.node.chain().store().tip_height()
    }

    /// Commitment to the UTXO set derived from the main chain — the convergence
    /// criterion between nodes. This is the strong sorted-hash commitment: the XOR
    /// rolling commitment is GF(2)-linear and an adversary who can craft outputs
    /// could engineer colliding divergent ledgers, so equality claims between nodes
    /// use the collision-resistant form. It is only computed when a driver
    /// snapshots or a harness polls convergence — never on the per-block hot path,
    /// which maintains [`ChainView::commitment`] incrementally instead.
    pub fn utxo_commitment(&self) -> Hash256 {
        self.view.utxo().commitment()
    }

    /// The incrementally maintained UTXO ledger view.
    pub fn utxo(&self) -> &UtxoSet {
        self.view.utxo()
    }

    /// The incremental chainstate (anchor, confirmed set, signature cache stats).
    pub fn chainstate(&self) -> &ChainView {
        &self.view
    }

    /// Total blocks known (key + micro, excluding orphans).
    pub fn chain_len(&self) -> usize {
        self.node.chain().len()
    }

    /// Pending transactions in the mempool.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// True if the transaction id is pending in the mempool.
    pub fn mempool_contains(&self, txid: &Hash256) -> bool {
        self.mempool.contains(txid)
    }

    /// True if this node is the current leader.
    pub fn is_leader(&self) -> bool {
        self.node.is_leader()
    }

    /// The `(accused leader, epoch key block)` keys of every recorded poison —
    /// the fraud proofs this node has accepted and applied (§4.5).
    pub fn poisoned(&self) -> Vec<(u64, Hash256)> {
        self.poisons.keys().copied().collect()
    }

    /// Total revenue revoked across every recorded poison (the statically
    /// determined amounts, not live balances).
    pub fn poison_revoked_total(&self) -> Amount {
        self.poisons
            .values()
            .fold(Amount::ZERO, |acc, record| acc + record.revoked)
    }

    /// The node's view of the current leader.
    pub fn current_leader(&self) -> Option<u64> {
        self.node.current_leader()
    }

    /// Connections whose handshake completed, sorted (the expansion set for
    /// [`Effect::Broadcast`]).
    pub fn ready_peers(&self) -> Vec<u64> {
        self.relay.ready_peers()
    }

    /// Number of connections whose handshake completed.
    pub fn ready_peer_count(&self) -> usize {
        self.relay.ready_peer_count()
    }

    /// Every registered connection key, sorted (drivers tear these down on
    /// disconnect-all commands).
    pub fn connected_peers(&self) -> Vec<u64> {
        self.peers.iter().copied().collect()
    }

    /// Completed sync block downloads per peer, sorted by peer key. The parallel
    /// cold-sync tests assert ≥ 2 peers contributed through this.
    pub fn sync_downloads_by_peer(&self) -> Vec<(u64, u64)> {
        self.sync.downloads_by_peer()
    }

    /// Peers evicted from download duty so far.
    pub fn sync_evictions(&self) -> u64 {
        self.sync.evictions()
    }

    /// True while the download scheduler has outstanding work (walks, queued or
    /// in-flight blocks).
    pub fn sync_active(&self) -> bool {
        self.sync.active()
    }

    /// Blocks the download scheduler still has queued or in flight.
    pub fn sync_pending(&self) -> usize {
        self.sync.pending()
    }

    /// True while a snapshot bootstrap is undecided.
    pub fn bootstrapping(&self) -> bool {
        self.bootstrap.is_some()
    }

    /// True while the background history backfill still runs.
    pub fn backfilling(&self) -> bool {
        self.backfill.is_some()
    }

    /// Height of the chain root (0 on a genesis-rooted chain; the pin height after
    /// a snapshot bootstrap).
    pub fn root_height(&self) -> u64 {
        self.root_height
    }

    /// The newest checkpoint snapshot held in memory, if any.
    pub fn latest_snapshot(&self) -> Option<&ng_storage::Snapshot> {
        self.latest_snapshot.as_ref()
    }

    /// Current eager-set connections of the broadcast overlay, ascending (empty
    /// unless `gossip.overlay` is on).
    pub fn overlay_eager(&self) -> Vec<u64> {
        self.overlay.eager().collect()
    }

    /// Current lazy-set connections of the broadcast overlay, ascending.
    pub fn overlay_lazy(&self) -> Vec<u64> {
        self.overlay.lazy().collect()
    }

    /// Inserts a transaction straight into the mempool — no gossip, no effects.
    /// Bench and test harnesses use this to pre-fill many nodes' pools with the
    /// same transactions deterministically (the precondition compact relay
    /// exploits) without paying for a transaction flood first.
    pub fn preload_tx(&mut self, tx: Transaction) -> bool {
        let txid = tx.txid();
        if self.mempool.contains(&txid) || self.view.is_confirmed(&txid) {
            return false;
        }
        if tx.serialized_size() as u64 > self.config.params.max_microblock_payload_bytes() {
            return false;
        }
        match self.view.admission_fee(&tx, self.height() + 1) {
            Ok(fee) => self.mempool.insert_with_fee(tx, fee),
            Err(_) => false,
        }
    }

    // ---- connection lifecycle -------------------------------------------------

    fn on_connected(&mut self, peer: u64, inbound: bool, now_ms: u64, effects: &mut Vec<Effect>) {
        if !self.peers.insert(peer) {
            return; // already registered (e.g. the driver echoes its own dial)
        }
        if inbound {
            // The remote dialed; it speaks first and we answer with our version.
            self.relay
                .add_peer(peer, Peer::inbound(self.config.id, ProtocolKind::BitcoinNg));
        } else {
            let (state, hello) = Peer::outbound(
                self.config.id,
                ProtocolKind::BitcoinNg,
                self.height(),
                now_ms,
            );
            self.relay.add_peer(peer, state);
            effects.push(Effect::Send {
                peer,
                message: hello,
            });
        }
    }

    fn forget_peer(&mut self, peer: u64) {
        self.peers.remove(&peer);
        self.relay.remove_peer(peer);
        self.overlay.peer_gone(peer);
        self.sync.peer_gone(peer);
        if let Some(boot) = self.bootstrap.as_mut() {
            if boot.waiting.is_some_and(|(waiting_on, _)| waiting_on == peer) {
                boot.waiting = None; // ask the next candidate on the next drive
            }
        }
        if let Some(backfill) = self.backfill.as_mut() {
            if backfill.peer == peer {
                backfill.deadline = 0; // rotate to another peer on the next drive
            }
        }
    }

    // ---- incoming messages ----------------------------------------------------

    fn on_message(&mut self, peer: u64, message: Message, now_ms: u64, effects: &mut Vec<Effect>) {
        let height = self.height();
        let Some(state) = self.relay.peer_mut(peer) else {
            return; // unknown or already-forgotten connection
        };
        let actions = state.on_message(message, height, now_ms);
        let mut routable = Vec::new();
        for action in actions {
            match action {
                PeerAction::HandshakeComplete {
                    node_id,
                    best_height,
                    ..
                } => {
                    // Flush the handshake replies queued so far, then sync. The sync
                    // is unconditional: after a partition heals, both sides can sit
                    // at the same *height* on different chains (microblocks add
                    // height without work), so heights cannot tell who needs blocks.
                    // A peer that is already in sync just answers with an empty
                    // headers batch. While a snapshot bootstrap is undecided the
                    // walk stays parked — a successful bootstrap would re-root the
                    // chain and discard anything fetched against genesis.
                    self.flush_routable(peer, std::mem::take(&mut routable), now_ms, effects);
                    effects.push(Effect::Report(ReportEvent::PeerReady { peer, node_id }));
                    // Hand the fresh peer every recorded fraud proof: floods are
                    // one-shot, so without this a node that was dark (eclipsed,
                    // crashed, late-joining) while a poison spread would never
                    // revoke the cheater and its commitment would diverge
                    // forever. Bounded by MAX_POISON_RECORDS; duplicates are
                    // dropped without relay on the receiving side.
                    for record in self.poisons.values() {
                        effects.push(Effect::Send {
                            peer,
                            message: Message::Poison(Box::new(record.poison.clone())),
                        });
                    }
                    if self.config.gossip.overlay {
                        self.overlay.peer_ready(peer);
                    }
                    self.sync.peer_ready(peer, best_height);
                    if self.bootstrap.is_none() {
                        self.sync.request_sync(peer);
                    }
                }
                PeerAction::Disconnect(error) => {
                    effects.push(Effect::Report(ReportEvent::PeerMisbehaved {
                        peer,
                        reason: error.to_string(),
                    }));
                    effects.push(Effect::Disconnect { peer });
                    self.forget_peer(peer);
                    return;
                }
                other => routable.push(other),
            }
        }
        self.flush_routable(peer, routable, now_ms, effects);
    }

    fn flush_routable(
        &mut self,
        peer: u64,
        actions: Vec<PeerAction>,
        now_ms: u64,
        effects: &mut Vec<Effect>,
    ) {
        if actions.is_empty() {
            return;
        }
        let (outgoing, delivered) = self.relay.route(peer, actions);
        for action in outgoing {
            effects.push(Effect::Send {
                peer: action.to,
                message: action.message,
            });
        }
        for message in delivered {
            self.handle_delivered(peer, message, now_ms, effects);
        }
    }

    // ---- delivered objects ----------------------------------------------------

    fn handle_delivered(
        &mut self,
        from: u64,
        message: Message,
        now_ms: u64,
        effects: &mut Vec<Effect>,
    ) {
        match message {
            Message::KeyBlock(kb) => {
                let carrier = Message::KeyBlock(kb.clone());
                if !self.claim_backfill_block(kb.id(), &carrier, effects) {
                    self.accept_block(Some(from), NgBlock::Key(*kb), carrier, now_ms, effects);
                }
            }
            Message::MicroBlock(mb) => {
                let carrier = Message::MicroBlock(mb.clone());
                if !self.claim_backfill_block(mb.id(), &carrier, effects) {
                    self.accept_block(Some(from), NgBlock::Micro(*mb), carrier, now_ms, effects);
                }
            }
            Message::Block(b) => {
                // A Bitcoin-flavour block has no place on an NG chain.
                effects.push(Effect::Report(ReportEvent::BlockRejected { id: b.id() }));
            }
            Message::Tx(tx) => {
                self.accept_tx(Some(from), *tx, effects);
            }
            Message::GetHeaders { locator, limit } => {
                self.serve_headers(from, &locator, limit, effects);
            }
            Message::Headers(records) => {
                self.handle_headers(from, records, now_ms, effects);
            }
            Message::GetSnapshot { height } => {
                self.serve_snapshot(from, height, effects);
            }
            Message::Snapshot(snapshot) => {
                self.handle_snapshot(from, snapshot.map(|boxed| *boxed), now_ms, effects);
            }
            Message::CmpctBlock(compact) => {
                self.handle_compact(from, *compact, now_ms, effects);
            }
            Message::GetBlockTxn { block, indexes } => {
                self.serve_block_txn(from, block, &indexes, effects);
            }
            Message::BlockTxn { block, txs } => {
                self.handle_block_txn(from, block, txs, now_ms, effects);
            }
            Message::IHave(items) => {
                self.handle_ihave(from, items, now_ms);
            }
            Message::Graft(item) => {
                self.overlay.on_graft(from);
                // Serve the grafted block in full: the graft *is* the pull request.
                if let Some(carrier) = self.relay.object(&item.id).cloned() {
                    if let Some(state) = self.relay.peer_mut(from) {
                        state.mark_known(item.id);
                    }
                    effects.push(Effect::Send {
                        peer: from,
                        message: carrier,
                    });
                }
            }
            Message::Prune => {
                self.overlay.on_prune(from);
            }
            Message::Poison(poison) => {
                self.adopt_poison(Some(from), *poison, effects);
            }
            _ => {}
        }
    }

    // ---- compact relay + broadcast overlay -------------------------------------

    /// A compact microblock announcement arrived: reconstruct it from the mempool,
    /// request the missing slots, or fall back to a full fetch.
    fn handle_compact(
        &mut self,
        from: u64,
        compact: CompactMicroBlock,
        now_ms: u64,
        effects: &mut Vec<Effect>,
    ) {
        let id = compact.id();
        if self.node.chain().store().contains(&id) || self.relay.has_object(&id) {
            // A second eager path delivered this block: classic Plumtree prune.
            effects.push(Effect::Report(ReportEvent::BlockDuplicate { id }));
            self.prune_duplicate_link(from, effects);
            return;
        }
        if self.compact.is_pending(&id) {
            // Already reconstructing from an earlier announcement; a second
            // concurrent eager push of the same block is a duplicate path too.
            self.prune_duplicate_link(from, effects);
            return;
        }
        match self.compact.begin(compact, &self.mempool, from) {
            ReconstructOutcome::Complete(micro) => {
                effects.push(Effect::Report(ReportEvent::CompactReconstructed {
                    id,
                    fetched: 0,
                }));
                let carrier = Message::MicroBlock(micro.clone());
                self.accept_block(Some(from), NgBlock::Micro(*micro), carrier, now_ms, effects);
            }
            ReconstructOutcome::MissingTxs(indexes) => {
                effects.push(Effect::Send {
                    peer: from,
                    message: Message::GetBlockTxn { block: id, indexes },
                });
            }
            ReconstructOutcome::Failed => self.fetch_full(from, id, effects),
        }
    }

    /// Serves a `getblocktxn` request from the relay's object store.
    fn serve_block_txn(
        &mut self,
        from: u64,
        block: Hash256,
        indexes: &[u32],
        effects: &mut Vec<Effect>,
    ) {
        let Some(Message::MicroBlock(micro)) = self.relay.object(&block) else {
            return; // evicted or never held: the requester's fallback covers it
        };
        if let Some(txs) = relay::transactions_at(micro, indexes) {
            effects.push(Effect::Send {
                peer: from,
                message: Message::BlockTxn { block, txs },
            });
        }
    }

    /// A `blocktxn` reply arrived: complete the stashed reconstruction or fall back.
    fn handle_block_txn(
        &mut self,
        from: u64,
        block: Hash256,
        txs: Vec<Transaction>,
        now_ms: u64,
        effects: &mut Vec<Effect>,
    ) {
        let fetched = txs.len();
        match self.compact.resolve(&block, txs) {
            None => {} // unsolicited or evicted: ignore
            Some(ReconstructOutcome::Complete(micro)) => {
                effects.push(Effect::Report(ReportEvent::CompactReconstructed {
                    id: block,
                    fetched,
                }));
                let carrier = Message::MicroBlock(micro.clone());
                self.accept_block(Some(from), NgBlock::Micro(*micro), carrier, now_ms, effects);
            }
            Some(_) => self.fetch_full(from, block, effects),
        }
    }

    /// Lazy `ihave` advertisements: remember unseen blocks as pull candidates (the
    /// timer pass grafts the advertiser if no eager copy lands in time).
    fn handle_ihave(&mut self, from: u64, items: Vec<InvItem>, now_ms: u64) {
        if !self.config.gossip.overlay {
            return;
        }
        for item in items {
            if !matches!(item.kind, InvKind::KeyBlock | InvKind::MicroBlock) {
                continue;
            }
            if self.node.chain().store().contains(&item.id)
                || self.relay.has_object(&item.id)
                || self.compact.is_pending(&item.id)
            {
                continue;
            }
            // arm_timer (end of this handle pass) picks up the new deadline.
            self.overlay.on_ihave(from, item, now_ms);
        }
    }

    /// Compact reconstruction failed: fetch the announced block in full.
    fn fetch_full(&mut self, from: u64, id: Hash256, effects: &mut Vec<Effect>) {
        effects.push(Effect::Report(ReportEvent::CompactFallback { id }));
        let item = InvItem::new(InvKind::MicroBlock, id);
        let request = self.relay.peer_mut(from).and_then(|state| {
            state.forget_request(&id);
            state.request(&[item])
        });
        if let Some(request) = request {
            effects.push(Effect::Send {
                peer: from,
                message: request,
            });
        }
    }

    /// A duplicate eager push arrived over `from`: demote the link to lazy and tell
    /// the other end to stop pushing to us (Plumtree's tree-repair move).
    fn prune_duplicate_link(&mut self, from: u64, effects: &mut Vec<Effect>) {
        if self.config.gossip.overlay && self.overlay.on_duplicate(from) {
            effects.push(Effect::Report(ReportEvent::OverlayPrune { peer: from }));
            effects.push(Effect::Send {
                peer: from,
                message: Message::Prune,
            });
        }
    }

    /// Fires overdue lazy pulls: each grafts its next advertiser back to eager and
    /// pulls the missed block over that link (the overlay's self-healing path).
    fn drive_overlay(&mut self, now_ms: u64, effects: &mut Vec<Effect>) {
        if self.overlay.pending_pulls() == 0 {
            return;
        }
        for (item, peer) in self.overlay.expire(now_ms) {
            effects.push(Effect::Report(ReportEvent::OverlayGraft { peer }));
            effects.push(Effect::Send {
                peer,
                message: Message::Graft(item),
            });
        }
    }

    fn accept_tx(&mut self, from: Option<u64>, tx: Transaction, effects: &mut Vec<Effect>) -> bool {
        let txid = tx.txid();
        if self.mempool.contains(&txid) {
            return false;
        }
        // Gossip is multi-hop: a transaction can arrive after the microblock that
        // serialized it. Anything already on the main chain has no business in the
        // mempool.
        if self.view.is_confirmed(&txid) {
            return false;
        }
        // A transaction that cannot fit an empty microblock can never be serialized
        // on this chain; pooling it would head-of-line-block FIFO selection (and, in
        // auto mode, spin the production timer) forever.
        if tx.serialized_size() as u64 > self.config.params.max_microblock_payload_bytes() {
            return false;
        }
        // Admission runs the view's validation policy: with full validation on, a
        // transaction spending nonexistent outputs or inflating value never enters
        // the pool, and its signature verification is cached for connect time. A
        // transaction chained on a still-pending mempool parent is validated with
        // its inputs resolved against the pool (signatures, vouts and value
        // conservation included); `filter_valid` re-validates the chain as a
        // sequence at production time.
        let Ok(fee) = self.admission_fee(&tx) else {
            return false;
        };
        if !self.mempool.insert_with_fee(tx.clone(), fee) {
            return false;
        }
        effects.push(Effect::Report(ReportEvent::TxAccepted { txid }));
        self.announce(Message::Tx(Box::new(tx)), from, effects);
        true
    }

    /// The fee of a transaction admitted at the next height, in one validation
    /// pass. Under validation, inputs missing from the UTXO view resolve against
    /// still-pending mempool parents (full validation — the shared
    /// [`ng_chain::utxo`] rules — with the verdict landing in the signature cache);
    /// the pool is consulted only for inputs the view lacks, so a spend of
    /// confirmed outputs is judged exactly as without it. In-pool double spends are
    /// rejected separately by the mempool's spent-outpoint index at insert time.
    fn admission_fee(
        &mut self,
        tx: &Transaction,
    ) -> Result<ng_chain::amount::Amount, ng_chain::error::TxError> {
        let height = self.height() + 1;
        if !self.view.validating() {
            return self.view.admission_fee(tx, height);
        }
        let mempool = &self.mempool;
        self.view.chained_admission_fee(tx, height, &|outpoint| {
            mempool
                .get(&outpoint.txid)
                .and_then(|parent| parent.tx.outputs.get(outpoint.vout as usize))
                .copied()
        })
    }

    fn accept_block(
        &mut self,
        from: Option<u64>,
        block: NgBlock,
        carrier: Message,
        now_ms: u64,
        effects: &mut Vec<Effect>,
    ) {
        let id = block.id();
        // Clear any scheduled download of this block no matter which path delivered
        // it — the assigned peer's reply, a gossip push from a third peer, a
        // producer's broadcast. The old per-peer bookkeeping only credited the
        // syncing peer, leaving the in-flight entry stuck (and the block
        // re-downloaded) whenever gossip won the race.
        let expected = self.sync.note_delivery(&id);
        // Likewise the overlay's pending lazy pull and any half-done compact
        // reconstruction of this block: the full copy is here.
        self.overlay.block_arrived(&id);
        self.compact.abandon(&id);
        let micro_key = match &block {
            NgBlock::Micro(mb) => Some((mb.header.prev, mb.header.leader)),
            NgBlock::Key(_) => None,
        };
        match self.node.on_block(block, now_ms) {
            Ok(InsertOutcome::Accepted {
                tip_changed, reorg, ..
            }) => {
                let reorged = reorg.is_some();
                if tip_changed {
                    self.roll_ledger(from.map(|peer| (peer, id)), effects);
                }
                // The roll may have invalidated the block (its transactions failed
                // validate-on-connect): only a surviving block is announced. Under
                // full validation a microblock is relayed only once this node's own
                // ledger validated it (it connected to the main chain) — relaying a
                // never-validated side-branch block would hand peers a carrier this
                // node cannot vouch for, and an honest relay must never take the
                // punishment for a Byzantine block it merely forwarded. Side-branch
                // carriers are stashed and announced if their branch later wins.
                if self.node.chain().store().contains(&id) {
                    effects.push(Effect::Report(ReportEvent::BlockAccepted {
                        id,
                        tip_changed,
                        reorg: reorged,
                    }));
                    if self.announceable(&id, &carrier) {
                        self.announce(carrier, from, effects);
                    } else {
                        self.stash_carrier(id, carrier);
                    }
                    self.flush_adopted_orphans(effects);
                    // A stored sibling microblock under the same (parent, leader)
                    // key is proof of equivocation — construct the fraud proof.
                    if let Some(key) = micro_key {
                        self.detect_equivocation(key, id, effects);
                    }
                    // Parked poisons may have been waiting for exactly this block
                    // to attribute their epoch.
                    if let Some(parked) = self.pending_poisons.remove(&id) {
                        for (_, poison) in parked {
                            self.adopt_poison(None, poison, effects);
                        }
                    }
                }
            }
            Ok(InsertOutcome::Duplicate) => {
                effects.push(Effect::Report(ReportEvent::BlockDuplicate { id }));
                if let Some(from) = from {
                    // A second eager path pushed a full copy: demote that link.
                    self.prune_duplicate_link(from, effects);
                }
            }
            Ok(InsertOutcome::Orphaned { .. }) => {
                effects.push(Effect::Report(ReportEvent::BlockOrphaned { id }));
                // Keep the carrier so the block can be announced and served once its
                // ancestors arrive (the chain layer adopts it without telling us).
                self.stash_carrier(id, carrier);
                // We are missing history; a header walk fills the gap — unless the
                // scheduler expected this block, in which case its ancestors are
                // already queued or in flight. The walk nominally targets the
                // sender, but the scheduler falls back to the best-header peer once
                // a round with the sender failed: an orphan's direct sender can be
                // behind (it relayed before syncing itself) or Byzantine.
                if let Some(from) = from {
                    if !expected {
                        self.sync.request_sync(from);
                    }
                }
            }
            Err(_) => {
                effects.push(Effect::Report(ReportEvent::BlockRejected { id }));
            }
        }
    }

    /// Stores a newly known object in the relay and emits its announcements: a
    /// single [`Effect::Broadcast`] when every ready peer needs it (a freshly
    /// produced local object), per-peer [`Effect::Send`]s otherwise. With the
    /// broadcast overlay on, block carriers take the eager/lazy path instead
    /// (transactions always flood: mempool convergence is what makes compact
    /// reconstruction work).
    fn announce(&mut self, carrier: Message, from: Option<u64>, effects: &mut Vec<Effect>) {
        if self.config.gossip.overlay
            && matches!(carrier, Message::KeyBlock(_) | Message::MicroBlock(_))
        {
            self.overlay_announce(carrier, from, effects);
            return;
        }
        let actions = self.relay.announce(carrier, from);
        let broadcast_all =
            from.is_none() && !actions.is_empty() && actions.len() == self.relay.ready_peer_count();
        let mut actions = actions.into_iter();
        if broadcast_all {
            if let Some(first) = actions.next() {
                effects.push(Effect::Broadcast {
                    message: first.message,
                });
            }
        } else {
            for action in actions {
                effects.push(Effect::Send {
                    peer: action.to,
                    message: action.message,
                });
            }
        }
    }

    /// Announces a block over the structured overlay: the full carrier (compacted
    /// for microblocks when `gossip.compact`) is pushed to the eager set, a
    /// one-item `ihave` to the lazy set, the source link excluded from both. The
    /// full carrier enters the relay's object store either way — `getdata`,
    /// `graft` and `getblocktxn` are all served from it.
    fn overlay_announce(&mut self, carrier: Message, from: Option<u64>, effects: &mut Vec<Effect>) {
        let (id, kind) = match &carrier {
            Message::KeyBlock(kb) => (kb.id(), InvKind::KeyBlock),
            Message::MicroBlock(mb) => (mb.id(), InvKind::MicroBlock),
            _ => return,
        };
        let push = if self.config.gossip.compact {
            relay::compact_announcement(self.config.id, &carrier)
        } else {
            carrier.clone()
        };
        self.relay.store_object(carrier);
        if let Some(from) = from {
            if let Some(state) = self.relay.peer_mut(from) {
                state.mark_known(id);
            }
        }
        for peer in self.overlay.push_targets(from) {
            let Some(state) = self.relay.peer_mut(peer) else {
                continue;
            };
            if !state.is_ready() || state.knows(&id) {
                continue;
            }
            state.mark_known(id);
            effects.push(Effect::Send {
                peer,
                message: push.clone(),
            });
        }
        let item = InvItem::new(kind, id);
        for peer in self.overlay.lazy_targets(from) {
            let Some(state) = self.relay.peer_mut(peer) else {
                continue;
            };
            // An `ihave` does not transfer the block, so the peer is *not* marked
            // as knowing it — a later graft must still be served.
            if !state.is_ready() || state.knows(&id) {
                continue;
            }
            effects.push(Effect::Send {
                peer,
                message: Message::IHave(vec![item]),
            });
        }
    }

    /// Stashes a not-yet-relayable carrier, evicting the oldest stashed carrier at
    /// capacity (an evicted block can still be fetched from the nodes that validated
    /// it, through header sync).
    fn stash_carrier(&mut self, id: Hash256, carrier: Message) {
        if self.orphan_carriers.contains_key(&id) {
            return;
        }
        while self.orphan_carriers.len() >= MAX_ORPHAN_CARRIERS {
            let Some(oldest) = self.orphan_order.pop_front() else {
                break;
            };
            // Skip ids already flushed or invalidated out of the stash.
            self.orphan_carriers.remove(&oldest);
        }
        self.orphan_carriers.insert(id, carrier);
        self.orphan_order.push_back(id);
        // The order queue only shrinks under eviction pressure; compact it before
        // stale (already-removed) ids can dominate.
        if self.orphan_order.len() > 2 * MAX_ORPHAN_CARRIERS {
            let live = &self.orphan_carriers;
            self.orphan_order.retain(|id| live.contains_key(id));
        }
    }

    /// True if this node may relay the carrier: the block is in the tree and — under
    /// full validation — either carries its own proof of work (a key block) or was
    /// validated by this node's ledger (it sits on the main chain). A node never
    /// vouches for a microblock it has not validated.
    fn announceable(&self, id: &Hash256, carrier: &Message) -> bool {
        if !self.node.chain().store().contains(id) {
            return false;
        }
        if !self.view.validating() || matches!(carrier, Message::KeyBlock(_)) {
            return true;
        }
        self.node.chain().store().is_in_main_chain(id)
    }

    /// Announces stashed carriers that became relayable — adopted orphans, and
    /// (under full validation) side-branch microblocks whose branch has since won
    /// and been validated — so they enter the relay's object store (peers `getdata`
    /// them during sync) and propagate.
    fn flush_adopted_orphans(&mut self, effects: &mut Vec<Effect>) {
        if self.orphan_carriers.is_empty() {
            return;
        }
        let mut adopted: Vec<Hash256> = self
            .orphan_carriers
            .iter()
            .filter(|(id, carrier)| self.announceable(id, carrier))
            .map(|(id, _)| *id)
            .collect();
        // Sorted so the emitted announcements are independent of hash-map order.
        adopted.sort_unstable();
        for id in adopted {
            let Some(carrier) = self.orphan_carriers.remove(&id) else {
                continue;
            };
            self.announce(carrier, None, effects);
        }
    }

    // ---- equivocation detection + poison transactions (§4.5) -------------------

    /// Records a stored microblock's `(parent, leader)` sighting; a second distinct
    /// microblock under the same key is an equivocation and this node constructs
    /// the fraud proof from **both** signed siblings. The evidence is therefore
    /// self-contained — two conflicting headers under one parent, both signed by
    /// the leader — and validates network-wide regardless of which sibling any
    /// particular node's main chain carries.
    fn detect_equivocation(
        &mut self,
        key: (Hash256, u64),
        id: Hash256,
        effects: &mut Vec<Effect>,
    ) {
        match self.micro_sightings.get(&key).map(|(first, _)| *first) {
            None => {
                while self.micro_sightings.len() >= MAX_MICRO_SIGHTINGS {
                    let Some((oldest, seq)) = self.sighting_order.pop_front() else {
                        break;
                    };
                    // Skip stale queue entries: the key was evicted earlier and
                    // re-seen since, so the map holds a newer sighting.
                    if self.micro_sightings.get(&oldest).is_some_and(|(_, s)| *s == seq) {
                        self.micro_sightings.remove(&oldest);
                    }
                }
                let seq = self.sighting_seq;
                self.sighting_seq += 1;
                self.micro_sightings.insert(key, (id, seq));
                self.sighting_order.push_back((key, seq));
            }
            Some(first) if first == id => {}
            Some(first) => {
                let chain = self.node.chain();
                let (Some(a), Some(b)) = (
                    chain.get(&first).and_then(NgBlock::as_micro),
                    chain.get(&id).and_then(NgBlock::as_micro),
                ) else {
                    return;
                };
                let Some(poison) = self.node.build_poison(a, b) else {
                    return;
                };
                effects.push(Effect::Report(ReportEvent::PoisonDetected {
                    accused: poison.accused_leader,
                    txid: poison.txid(),
                }));
                self.adopt_poison(None, poison, effects);
            }
        }
    }

    /// Validates a poison transaction (locally constructed or delivered by a peer)
    /// and, if it is the canonical one for its `(cheater, epoch)`, records it,
    /// applies the revenue revocation to the ledger view and floods it onward.
    /// `origin` is the delivering link (excluded from the flood); `None` marks a
    /// locally constructed or re-tried poison.
    fn adopt_poison(
        &mut self,
        origin: Option<u64>,
        poison: PoisonTransaction,
        effects: &mut Vec<Effect>,
    ) {
        let txid = poison.txid();
        let (epoch_id, revoked) = match self.node.validate_poison(&poison) {
            Ok(verdict) => verdict,
            Err(err @ PoisonError::UnknownParent) => {
                // Transient: this node is behind and cannot attribute the epoch
                // yet. Park the proof instead of dropping it — floods are
                // one-shot and never repeat — and retry when the fork point
                // arrives (and after every ledger roll). Only shape-valid
                // conflicts park: garbage that could never validate must not
                // occupy (or displace anything from) the bounded buffer.
                // An overflow just drops the proof (the flood is redundant, and
                // a fresh handshake re-offers every record).
                if poison.check_conflict().is_ok() {
                    self.park_poison(txid, poison);
                }
                effects.push(Effect::Report(ReportEvent::PoisonRejected {
                    reason: format!("{err} (parked)"),
                }));
                return;
            }
            Err(err) => {
                effects.push(Effect::Report(ReportEvent::PoisonRejected {
                    reason: err.to_string(),
                }));
                return;
            }
        };
        let key = (poison.accused_leader, epoch_id);
        match self.poisons.get(&key) {
            Some(existing) if existing.txid <= txid => {
                // A duplicate of the canonical poison, or a losing competitor:
                // drop without relaying, so the flood terminates.
                effects.push(Effect::Report(ReportEvent::PoisonRejected {
                    reason: if existing.txid == txid {
                        "duplicate poison".to_string()
                    } else {
                        "losing competitor of the canonical poison".to_string()
                    },
                }));
                return;
            }
            Some(existing) => {
                // Smaller txid wins: revert the incumbent's bounty and replace
                // it — unless that bounty already matured and was spent, in
                // which case its value is irrevocably in circulation and
                // minting a replacement bounty would inflate the supply. The
                // late competitor is rejected instead; the network keeps the
                // incumbent it converged on.
                let old_outpoint = OutPoint::new(existing.txid, 0);
                if self.view.bounty_spent(&old_outpoint) {
                    effects.push(Effect::Report(ReportEvent::PoisonRejected {
                        reason: "canonical poison bounty already spent; competitor too late"
                            .to_string(),
                    }));
                    return;
                }
                self.view.revert_poison_reward(&old_outpoint);
                self.poisons.remove(&key);
            }
            None => {
                if self.poisons.len() >= MAX_POISON_RECORDS {
                    effects.push(Effect::Report(ReportEvent::PoisonRejected {
                        reason: "poison record capacity reached".to_string(),
                    }));
                    return;
                }
            }
        }
        let Some(epoch_height) = self.node.chain().store().height_of(&epoch_id) else {
            effects.push(Effect::Report(ReportEvent::PoisonRejected {
                reason: "epoch key block height unknown".to_string(),
            }));
            return;
        };
        let reward =
            poison_effect(poison.accused_leader, revoked, &self.config.params).poisoner_reward;
        self.poisons.insert(
            key,
            PoisonRecord {
                poison: poison.clone(),
                txid,
                epoch_id,
                epoch_height,
                revoked,
                reward,
            },
        );
        self.assert_poisons();
        effects.push(Effect::Report(ReportEvent::PoisonAccepted {
            accused: poison.accused_leader,
            revoked_sats: revoked.sats(),
        }));
        self.flood_poison(origin, poison, txid, effects);
    }

    /// Parks a shape-valid proof whose epoch cannot be attributed yet under its
    /// fork-point key. Each parent keeps the [`MAX_PENDING_PER_PARENT`] smallest
    /// txids in sorted order; the global entry count stays under
    /// [`MAX_PENDING_POISONS`] by shedding the largest parked txid across all
    /// parents — deterministic, and the entry least likely to win adoption.
    fn park_poison(&mut self, txid: Hash256, poison: PoisonTransaction) {
        let parent = poison.parent();
        let list = self.pending_poisons.entry(parent).or_default();
        if let Err(at) = list.binary_search_by(|(parked, _)| parked.cmp(&txid)) {
            if at < MAX_PENDING_PER_PARENT {
                list.insert(at, (txid, poison));
                list.truncate(MAX_PENDING_PER_PARENT);
            }
        }
        if list.is_empty() {
            self.pending_poisons.remove(&parent);
            return;
        }
        loop {
            let total: usize = self.pending_poisons.values().map(Vec::len).sum();
            if total <= MAX_PENDING_POISONS {
                break;
            }
            let Some((_, worst_parent)) = self
                .pending_poisons
                .iter()
                .filter_map(|(p, l)| l.last().map(|(t, _)| (*t, *p)))
                .max()
            else {
                break;
            };
            if let Some(l) = self.pending_poisons.get_mut(&worst_parent) {
                l.pop();
                if l.is_empty() {
                    self.pending_poisons.remove(&worst_parent);
                }
            }
        }
    }

    /// Re-asserts every recorded poison against the current main chain: while the
    /// epoch key block is on the main chain the revocation holds (idempotently —
    /// a reorg that reconnects the key block resurrects the cheater's outputs via
    /// its undo/connect cycle, and they are removed again here); while it is off
    /// the main chain the bounty is reverted (the revoked outputs themselves were
    /// rewound by the disconnect). The evidence itself is chain-independent — two
    /// conflicting signed headers prove the equivocation no matter which sibling
    /// the current main chain carries — so the epoch key block's membership is the
    /// *only* chain-dependent input. Runs after every ledger roll, so the ledger
    /// effect of a poison is a pure function of (main chain, poison set) and
    /// every honest node's commitment converges.
    fn assert_poisons(&mut self) {
        if self.poisons.is_empty() {
            return;
        }
        for record in self.poisons.values() {
            let reward_outpoint = OutPoint::new(record.txid, 0);
            if self.node.chain().store().is_in_main_chain(&record.epoch_id) {
                let Some(NgBlock::Key(kb)) = self.node.chain().get(&record.epoch_id) else {
                    continue;
                };
                self.view.apply_poison_revocation(
                    kb,
                    record.epoch_id,
                    record.epoch_height,
                    reward_outpoint,
                    record.reward,
                    KeyPair::from_id(record.poison.poisoner).address(),
                );
            } else {
                self.view.revert_poison_reward(&reward_outpoint);
            }
        }
    }

    /// Floods a poison transaction to every ready peer except the link it arrived
    /// on. Poisons never take the overlay: a fraud proof must reach every honest
    /// node even when eager links are degraded, and its size makes the flood cheap.
    fn flood_poison(
        &mut self,
        origin: Option<u64>,
        poison: PoisonTransaction,
        txid: Hash256,
        effects: &mut Vec<Effect>,
    ) {
        let message = Message::Poison(Box::new(poison));
        let mut relayed = false;
        for peer in self.relay.ready_peers() {
            if Some(peer) == origin {
                continue;
            }
            effects.push(Effect::Send {
                peer,
                message: message.clone(),
            });
            relayed = true;
        }
        if relayed {
            effects.push(Effect::Report(ReportEvent::PoisonRelayed { txid }));
        }
    }

    /// Rolls the incremental ledger view to the current tip and the mempool with it:
    /// reorg-disconnected transactions return to the pool (unless reconfirmed on the
    /// new branch), newly serialized transactions leave it. Per-block cost is
    /// O(transactions in the rolled blocks) — never O(chain length).
    ///
    /// If a connecting microblock's transactions fail full validation, the block
    /// (and any descendants) is invalidated out of the block tree, the chain
    /// re-selects its best remaining tip, and the roll retries — so the view always
    /// lands on a fully valid main chain. When the invalid block is the very
    /// carrier the peer just delivered, that peer is disconnected: it either forged
    /// the microblock (it is the Byzantine leader) or relayed one it failed to
    /// validate. Rejections of *other* blocks (e.g. a pending descendant adopted in
    /// the same insert) never punish the deliverer — an honest relay of a valid
    /// parent must not take the blame for the Byzantine child that rode behind it.
    ///
    /// The delta accumulates across retries, so the transactions of blocks
    /// disconnected before a failed connect are still re-admitted to the mempool.
    fn roll_ledger(&mut self, from: Option<(u64, Hash256)>, effects: &mut Vec<Effect>) {
        let mut delta = crate::chainstate::SyncDelta::default();
        let mut sender_misbehaved = false;
        loop {
            let target = self.node.tip();
            match self.view.sync_into(self.node.chain_mut(), target, &mut delta) {
                Ok(()) => break,
                Err(crate::chainstate::SyncError::Connect(error)) => {
                    if let Some((_, delivered)) = from {
                        sender_misbehaved |= error.block == delivered;
                    }
                    effects.push(Effect::Report(ReportEvent::BlockRejected {
                        id: error.block,
                    }));
                    self.persist_invalidated(&error.block, effects);
                    for gone in self.node.chain_mut().invalidate(&error.block) {
                        self.orphan_carriers.remove(&gone);
                    }
                }
                Err(crate::chainstate::SyncError::UnwindableBlock { .. }) => {
                    // A connected block on the reorg path lost its undo record — a
                    // store corruption, never reachable under the finality/pruning
                    // discipline. Abandon the branch that requires the impossible
                    // rewind: invalidating the candidate tip re-selects the best
                    // tip elsewhere, and the loop converges because each pass
                    // removes at least one block from the tree.
                    let gone_tip = self.node.tip();
                    effects.push(Effect::Report(ReportEvent::BlockRejected {
                        id: gone_tip,
                    }));
                    self.persist_invalidated(&gone_tip, effects);
                    for gone in self.node.chain_mut().invalidate(&gone_tip) {
                        self.orphan_carriers.remove(&gone);
                    }
                }
            }
        }
        // The roll may have moved the epoch key block of a recorded poison on or
        // off the main chain; re-assert before the new view state is persisted.
        self.assert_poisons();
        // The roll may also have made a parked proof attributable (its fork point
        // connected as part of a multi-block adoption). Retry the whole parked
        // set; anything still unattributable re-parks via the same bounded path.
        if !self.pending_poisons.is_empty() {
            let parked: Vec<PoisonTransaction> = std::mem::take(&mut self.pending_poisons)
                .into_values()
                .flatten()
                .map(|(_, poison)| poison)
                .collect();
            for poison in parked {
                self.adopt_poison(None, poison, effects);
            }
        }
        self.persist_roll(&delta, effects);
        self.advance_finality();
        if !delta.is_empty() {
            // Checkpoint on the cadence even without durable storage when this node
            // serves snapshots: SimNet bootstrap providers keep theirs in memory.
            self.maybe_checkpoint(effects);
            effects.push(Effect::Report(ReportEvent::LedgerRolled {
                connected: delta.connected_blocks,
                disconnected: delta.disconnected_blocks,
            }));
            // Re-admit disconnected transactions against the post-roll view (their
            // inputs are unspent again on the new branch), skipping anything the
            // new branch already serialized. The delta lists them in chain order —
            // parents before the children that spend them — so a chained child
            // whose parent was just re-admitted resolves through the pool.
            for tx in delta.disconnected_txs {
                let txid = tx.txid();
                if self.view.is_confirmed(&txid) || self.mempool.contains(&txid) {
                    continue;
                }
                let fee = match self.admission_fee(&tx) {
                    Ok(fee) => Some(fee),
                    // A coinbase spend the reorg pushed back below maturity is only
                    // temporarily invalid — kept (unpriced) until it re-matures,
                    // mirroring the production-time stale filter's policy.
                    Err(ng_chain::error::TxError::ImmatureCoinbase { .. }) => {
                        Some(ng_chain::amount::Amount::ZERO)
                    }
                    Err(_) => None,
                };
                if let Some(fee) = fee {
                    self.mempool.insert_with_fee(tx, fee);
                }
            }
            // A retried roll can have connected a block and then disconnected it
            // again (the branch lost after an invalidation): only ids that are
            // *still* confirmed leave the mempool.
            let confirmed_now: Vec<Hash256> = delta
                .connected_txids
                .iter()
                .filter(|txid| self.view.is_confirmed(txid))
                .copied()
                .collect();
            self.mempool.remove_all(confirmed_now.iter());
        }
        if sender_misbehaved {
            if let Some((peer, _)) = from {
                effects.push(Effect::Report(ReportEvent::PeerMisbehaved {
                    peer,
                    reason: "sent a microblock with invalid transactions".to_string(),
                }));
                effects.push(Effect::Disconnect { peer });
                self.forget_peer(peer);
            }
        }
    }

    // ---- durable storage ------------------------------------------------------

    fn report_storage_failure(err: ng_storage::StoreError, effects: &mut Vec<Effect>) {
        effects.push(Effect::Report(ReportEvent::StorageFailed {
            reason: err.to_string(),
        }));
    }

    /// Logs an invalidation to the WAL so recovery never re-adopts the block.
    fn persist_invalidated(&mut self, id: &Hash256, effects: &mut Vec<Effect>) {
        let Some(storage) = self.storage.as_mut() else {
            return;
        };
        if let Err(err) = storage.note_invalidated(id) {
            Self::report_storage_failure(err, effects);
        }
    }

    /// Persists everything one completed roll produced, in dependency order:
    /// newly stored blocks, then the undo records of the connected blocks, then
    /// the roll commit that references them (the backend flushes data files before
    /// the commit record — see [`ng_storage::ChainStorage::commit_roll`]). Finally
    /// writes a snapshot if the checkpoint cadence came due at a key block.
    fn persist_roll(&mut self, delta: &crate::chainstate::SyncDelta, effects: &mut Vec<Effect>) {
        // One binding up front: `storage` borrows only the `storage` field, so
        // the chain accesses below stay legal and no panicking re-unwrap of the
        // option is ever needed.
        let Some(storage) = self.storage.as_mut() else {
            return;
        };
        for id in self.node.chain_mut().drain_newly_stored() {
            let Some(stored) = self.node.chain().store().get(&id) else {
                // Inserted, then invalidated before this roll completed: the
                // WAL's invalidation record (already written) covers it.
                continue;
            };
            let (block, height) = (stored.block.clone(), stored.height);
            if let Err(err) = storage.store_block(&block, height) {
                Self::report_storage_failure(err, effects);
            }
        }
        if delta.is_empty() {
            return;
        }
        for id in &delta.connected_block_ids {
            // A retried roll can have disconnected (or invalidated) a block it
            // connected earlier; only blocks with a live undo are re-persisted.
            let Some(undo) = self.node.chain().undo_of(id) else {
                continue;
            };
            let undo = undo.clone();
            let height = self.node.chain().store().height_of(id).unwrap_or(0);
            if let Err(err) = storage.store_undo(id, height, &undo) {
                Self::report_storage_failure(err, effects);
            }
        }
        let anchor = self.view.anchor();
        let anchor_height = self
            .node
            .chain()
            .store()
            .get(&anchor)
            .map(|s| s.height)
            .unwrap_or(0);
        let roll = ng_storage::RollCommit {
            anchor,
            anchor_height,
            rolling: self.view.commitment(),
            disconnected: delta.disconnected_block_ids.clone(),
            connected: delta.connected_block_ids.clone(),
        };
        if let Err(err) = storage.commit_roll(&roll) {
            Self::report_storage_failure(err, effects);
        }
    }

    /// Writes a full snapshot / finality checkpoint when the view rests at a key
    /// block and at least [`NgParams::checkpoint_interval`] heights passed since
    /// the last one. Anchoring only at key blocks keeps a restored chain's epoch
    /// context self-contained (the leader entitled to sign above the root is the
    /// root itself). Runs for durable nodes (the checkpoint is the fast-restart
    /// root) and for snapshot servers (the checkpoint is what `getsnapshot`
    /// answers with); a node that is neither skips the O(set size) copy.
    ///
    /// [`NgParams::checkpoint_interval`]: ng_core::params::NgParams
    fn maybe_checkpoint(&mut self, effects: &mut Vec<Effect>) {
        if self.storage.is_none() && !self.config.serve_snapshots {
            return;
        }
        let anchor = self.view.anchor();
        let Some(stored) = self.node.chain().store().get(&anchor) else {
            return;
        };
        let height = stored.height;
        if height < self.last_snapshot_height + self.config.params.checkpoint_interval {
            return;
        }
        let Some(root) = stored.block.as_key().cloned() else {
            return; // mid-epoch; the next key block will carry the checkpoint
        };
        let total_work = stored.total_work;
        let mut entries: Vec<_> = self
            .view
            .utxo()
            .iter()
            .map(|(outpoint, entry)| (*outpoint, *entry))
            .collect();
        entries.sort_unstable_by_key(|(outpoint, _)| *outpoint);
        let mut confirmed: Vec<_> = self
            .view
            .confirmed_counts()
            .iter()
            .map(|(txid, count)| (*txid, *count))
            .collect();
        confirmed.sort_unstable();
        let snapshot = ng_storage::Snapshot {
            root,
            height,
            total_work,
            rolling: self.view.commitment(),
            sorted: self.view.utxo().commitment(),
            entries,
            confirmed,
        };
        if let Some(storage) = self.storage.as_mut() {
            if let Err(err) = storage.store_snapshot(&snapshot) {
                // Do not advance the cadence: the next roll retries the write.
                Self::report_storage_failure(err, effects);
                return;
            }
        }
        self.last_snapshot_height = height;
        self.latest_snapshot = Some(snapshot);
        effects.push(Effect::Report(ReportEvent::CheckpointWritten { height }));
    }

    /// Advances the finality checkpoint to `tip_height − finality_depth` and
    /// prunes undo records below it — reorgs that deep are refused at insert time
    /// ([`ng_chain::error::BlockError::FinalityViolation`]), so their undos can
    /// never be consumed. Runs for every engine, durable or not: it is what keeps
    /// a long-lived node's undo map O(finality depth) instead of O(chain length).
    fn advance_finality(&mut self) {
        let depth = self.config.params.finality_depth;
        let tip_height = self.node.chain().store().tip_height();
        let fin_height = tip_height.saturating_sub(depth);
        let current = self
            .node
            .chain()
            .finalized()
            .map(|(height, _)| height)
            .unwrap_or(0);
        if fin_height <= current {
            return;
        }
        let tip = self.node.tip();
        let Some(fin_id) = self.node.chain().store().ancestor_at(&tip, fin_height) else {
            return;
        };
        self.node.chain_mut().set_finalized(&fin_id);
        self.node.chain_mut().prune_undo(fin_height);
    }

    // ---- sync: headers-first download, snapshot bootstrap, backfill -----------

    /// One scheduler pass, run after every input: drive the snapshot bootstrap
    /// while it is undecided (header walks stay parked — a successful bootstrap
    /// re-roots the chain and would discard anything fetched against genesis),
    /// then execute the download scheduler's commands, then advance the
    /// background backfill.
    fn drive_sync(&mut self, now_ms: u64, effects: &mut Vec<Effect>) {
        self.drive_bootstrap(now_ms, effects);
        if self.bootstrap.is_some() {
            return;
        }
        // The connect frontier caps how far ahead assignments may run: arrivals
        // beyond it sit in the bounded orphan buffer until the gap closes.
        let frontier = self.node.chain().store().tip_height();
        for command in self.sync.plan(now_ms, frontier) {
            match command {
                SyncCommand::RequestHeaders { peer, lead } => {
                    let mut locator = build_locator(&self.node.chain().store().main_chain());
                    if let Some(lead) = lead {
                        locator.insert(0, lead);
                    }
                    effects.push(Effect::Send {
                        peer,
                        message: Message::GetHeaders {
                            locator,
                            limit: self.config.header_batch,
                        },
                    });
                }
                SyncCommand::RequestBlocks { peer, items } => {
                    let request = self.relay.peer_mut(peer).and_then(|state| {
                        // A timed-out request can be re-assigned to the same peer
                        // (single-peer networks, post-unjam retries); clear the
                        // connection's in-flight dedup so the getdata re-sends.
                        for item in &items {
                            state.forget_request(&item.id);
                        }
                        state.request(&items)
                    });
                    if let Some(request) = request {
                        effects.push(Effect::Send {
                            peer,
                            message: request,
                        });
                    }
                }
                SyncCommand::Evicted { peer } => {
                    effects.push(Effect::Report(ReportEvent::SyncPeerEvicted { peer }));
                }
            }
        }
        self.drive_backfill(now_ms, effects);
    }

    /// Advances the snapshot bootstrap: ask one ready peer at a time for the
    /// pinned snapshot, rotate on timeout or an honest miss, and fall back to a
    /// full parallel block download once every connected peer has been tried.
    fn drive_bootstrap(&mut self, now_ms: u64, effects: &mut Vec<Effect>) {
        let Some(boot) = self.bootstrap.as_mut() else {
            return;
        };
        if let Some((_, deadline)) = boot.waiting {
            if now_ms < deadline {
                return;
            }
            boot.waiting = None; // expired: the candidate never answered
        }
        let ready = self.relay.ready_peers();
        if let Some(candidate) = ready.iter().copied().find(|p| !boot.tried.contains(p)) {
            boot.tried.insert(candidate);
            boot.waiting = Some((candidate, now_ms + self.config.sync.request_timeout_ms));
            let height = boot.pin.height;
            effects.push(Effect::Send {
                peer: candidate,
                message: Message::GetSnapshot { height },
            });
            return;
        }
        if ready.is_empty() {
            return; // nobody to ask yet; retried when a handshake completes
        }
        // Every connected peer was tried and none served the pin: give up on the
        // shortcut and sync the whole chain the normal way.
        self.bootstrap = None;
        for peer in ready {
            self.sync.request_sync(peer);
        }
    }

    /// Answers a `getsnapshot`. Serves the in-memory checkpoint when it matches
    /// the requested height, falling back to durable storage; a miss is an honest
    /// `Snapshot(None)` so the requester moves to its next candidate without
    /// waiting out a timeout.
    fn serve_snapshot(&mut self, peer: u64, height: u64, effects: &mut Vec<Effect>) {
        let snapshot = self
            .latest_snapshot
            .as_ref()
            .filter(|snap| snap.height == height)
            .cloned()
            .or_else(|| {
                self.storage
                    .as_mut()
                    .and_then(|storage| storage.latest_snapshot().ok().flatten())
                    .filter(|snap| snap.height == height)
            });
        let reply = snapshot.map(|snap| {
            Box::new(WireSnapshot {
                root: snap.root,
                height: snap.height,
                total_work: snap.total_work,
                entries: snap.entries,
                confirmed: snap.confirmed,
            })
        });
        if reply.is_some() {
            effects.push(Effect::Report(ReportEvent::SnapshotServed { peer }));
        }
        effects.push(Effect::Send {
            peer,
            message: Message::Snapshot(reply),
        });
    }

    /// Handles a `snapshot` reply while bootstrapping. Only the candidate the
    /// bootstrap is currently waiting on is listened to — stray or late replies
    /// are dropped. A verified snapshot re-roots the chain; a tampered one costs
    /// the server its connection.
    fn handle_snapshot(
        &mut self,
        from: u64,
        snapshot: Option<WireSnapshot>,
        now_ms: u64,
        effects: &mut Vec<Effect>,
    ) {
        let Some(boot) = self.bootstrap.as_mut() else {
            return;
        };
        if boot.waiting.is_none_or(|(peer, _)| peer != from) {
            return;
        }
        boot.waiting = None;
        let pin = boot.pin;
        let Some(snapshot) = snapshot else {
            return; // honest miss; `drive_sync` asks the next candidate
        };
        match self.verify_pinned_snapshot(pin, snapshot) {
            Ok((snapshot, utxo)) => self.apply_snapshot(pin, snapshot, utxo, now_ms, effects),
            Err(reason) => {
                // Served bytes that fail the pinned commitment are not a cache
                // miss but an attempted feed of a forged ledger: cut the cord.
                effects.push(Effect::Report(ReportEvent::SnapshotRejected { peer: from }));
                effects.push(Effect::Report(ReportEvent::PeerMisbehaved {
                    peer: from,
                    reason,
                }));
                effects.push(Effect::Disconnect { peer: from });
                self.forget_peer(from);
            }
        }
    }

    /// Checks a served snapshot against the configured pin. The commitment is
    /// recomputed locally from the served entries — nothing the server claims
    /// about its own UTXO set is trusted, only bytes that hash to the pin.
    fn verify_pinned_snapshot(
        &self,
        pin: SnapshotPin,
        snapshot: WireSnapshot,
    ) -> Result<(WireSnapshot, ng_chain::utxo::UtxoSet), String> {
        if snapshot.height != pin.height {
            return Err(format!(
                "snapshot height {} does not match pinned height {}",
                snapshot.height, pin.height
            ));
        }
        if snapshot.root.id() != pin.root {
            return Err("snapshot root does not match pinned key block".into());
        }
        let mut utxo = ng_chain::utxo::UtxoSet::with_maturity(self.config.params.coinbase_maturity);
        for (outpoint, entry) in &snapshot.entries {
            if utxo.insert_unchecked(*outpoint, *entry).is_some() {
                return Err("snapshot lists a UTXO twice".into());
            }
        }
        if utxo.commitment() != pin.sorted {
            return Err("snapshot UTXO set does not hash to the pinned commitment".into());
        }
        Ok((snapshot, utxo))
    }

    /// Re-roots the engine at a verified snapshot: the chain restarts from the
    /// pinned key block as if it were genesis, the ledger view adopts the served
    /// UTXO set, and the download scheduler starts fresh against the new root.
    /// History below the root is handed to the background backfill.
    fn apply_snapshot(
        &mut self,
        pin: SnapshotPin,
        snapshot: WireSnapshot,
        utxo: ng_chain::utxo::UtxoSet,
        now_ms: u64,
        effects: &mut Vec<Effect>,
    ) {
        let root = snapshot.root.clone();
        let chain = ng_core::chain::NgChainState::from_root(
            self.config.params,
            self.config.tie_break_seed,
            root.clone(),
            snapshot.height,
            snapshot.total_work,
        );
        self.node = NgNode::from_chain(self.config.id, chain);
        if self.storage.is_some() {
            self.node.chain_mut().track_newly_stored(true);
        }
        let confirmed: HashMap<Hash256, u32> = snapshot.confirmed.iter().copied().collect();
        self.view = ChainView::restore(&self.config.params, pin.root, utxo, confirmed);
        self.orphan_carriers.clear();
        self.orphan_order.clear();
        self.mempool = Mempool::new();
        // Keep the applied snapshot in durable-snapshot form: this node can now
        // serve the same bootstrap to the next fresh joiner.
        let mut entries = snapshot.entries.clone();
        entries.sort_unstable_by_key(|(outpoint, _)| *outpoint);
        let mut confirmed_sorted = snapshot.confirmed.clone();
        confirmed_sorted.sort_unstable();
        let stored = ng_storage::Snapshot {
            root: root.clone(),
            height: snapshot.height,
            total_work: snapshot.total_work,
            rolling: self.view.commitment(),
            sorted: pin.sorted,
            entries,
            confirmed: confirmed_sorted,
        };
        if let Some(storage) = self.storage.as_mut() {
            if let Err(err) = storage.store_block(&NgBlock::Key(root.clone()), snapshot.height) {
                Self::report_storage_failure(err, effects);
            }
            if let Err(err) = storage.store_snapshot(&stored) {
                Self::report_storage_failure(err, effects);
            }
        }
        self.latest_snapshot = Some(stored);
        self.last_snapshot_height = snapshot.height;
        self.root_height = snapshot.height;
        self.bootstrap = None;
        // The root block itself must be servable to peers that sync from us.
        self.relay.store_object(Message::KeyBlock(Box::new(root)));
        effects.push(Effect::Report(ReportEvent::SnapshotApplied {
            height: snapshot.height,
        }));
        // Everything scheduled so far targeted the genesis root and can never
        // connect; start clean walks from the snapshot root instead.
        self.sync.reset_downloads();
        let ready = self.relay.ready_peers();
        for peer in &ready {
            self.sync.request_sync(*peer);
        }
        // Background backfill of pre-root history, so this node can serve full
        // syncs too. Deadline `now` makes the next drive issue the first request.
        if let Some(first) = ready.first() {
            self.backfill = Some(BackfillState {
                target: snapshot.height,
                peer: *first,
                deadline: now_ms,
                awaiting_headers: false,
                expected: HashMap::new(),
                cursor: None,
                exhausted: false,
                fetched: 0,
            });
        }
    }

    /// Advances the background backfill of pre-root history. The backfill is a
    /// plain sequential walk — one `getheaders` below the root, then the bodies —
    /// because it is off the critical path: the node is already at the tip.
    fn drive_backfill(&mut self, now_ms: u64, effects: &mut Vec<Effect>) {
        let Some(bf) = self.backfill.as_mut() else {
            return;
        };
        if bf.exhausted && bf.expected.is_empty() && !bf.awaiting_headers {
            let blocks = bf.fetched;
            self.backfill = None;
            effects.push(Effect::Report(ReportEvent::BackfillCompleted { blocks }));
            return;
        }
        let outstanding = bf.awaiting_headers || !bf.expected.is_empty();
        if outstanding && now_ms < bf.deadline {
            return;
        }
        let ready = self.relay.ready_peers();
        let Some(first) = ready.first().copied() else {
            return;
        };
        if outstanding {
            // The current peer missed its deadline: rotate to the next one and
            // re-issue (the sequential walk tolerates duplicate replies).
            bf.awaiting_headers = false;
            bf.peer = ready.iter().copied().find(|p| *p > bf.peer).unwrap_or(first);
        } else if !ready.contains(&bf.peer) {
            bf.peer = first;
        }
        bf.deadline = now_ms + self.config.sync.request_timeout_ms;
        let peer = bf.peer;
        if bf.expected.is_empty() {
            bf.awaiting_headers = true;
            let locator = bf.cursor.map(|id| vec![id]).unwrap_or_default();
            effects.push(Effect::Send {
                peer,
                message: Message::GetHeaders {
                    locator,
                    limit: self.config.header_batch,
                },
            });
        } else {
            let mut pending: Vec<(u64, InvItem)> = bf
                .expected
                .iter()
                .map(|(id, (height, kind))| (*height, InvItem::new(*kind, *id)))
                .collect();
            pending.sort_unstable_by_key(|(height, item)| (*height, item.id));
            let items: Vec<InvItem> = pending.into_iter().map(|(_, item)| item).collect();
            let request = self.relay.peer_mut(peer).and_then(|state| {
                for item in &items {
                    state.forget_request(&item.id);
                }
                state.request(&items)
            });
            if let Some(request) = request {
                effects.push(Effect::Send {
                    peer,
                    message: request,
                });
            }
        }
    }

    /// Intercepts a `headers` reply that belongs to the backfill walk rather than
    /// the forward sync. Attribution: a backfill reply starts at or below the
    /// root height, while forward-sync replies always start above it (honest
    /// servers fork forward from our rooted locator). Returns true if claimed.
    fn claim_backfill_headers(
        &mut self,
        peer: u64,
        records: &[HeaderRecord],
        now_ms: u64,
        effects: &mut Vec<Effect>,
    ) -> bool {
        let Some(bf) = self.backfill.as_mut() else {
            return false;
        };
        if bf.peer != peer || !bf.awaiting_headers {
            return false;
        }
        if records.first().is_some_and(|first| first.height > bf.target) {
            return false; // starts above the root: that is the forward sync's reply
        }
        bf.awaiting_headers = false;
        let wanted: Vec<&HeaderRecord> =
            records.iter().filter(|r| r.height < bf.target).collect();
        if let Some(last) = wanted.last() {
            bf.cursor = Some(last.id);
        }
        // The walk ends when the batch reaches the root (records at or above the
        // target were filtered out), runs dry, or hits the server's tip early.
        bf.exhausted |= records.is_empty()
            || wanted.len() < records.len()
            || (records.len() as u32) < self.config.header_batch;
        let mut fresh: Vec<(u64, InvItem)> = Vec::new();
        for record in wanted {
            if self.relay.has_object(&record.id) || bf.expected.contains_key(&record.id) {
                continue;
            }
            bf.expected.insert(record.id, (record.height, record.kind));
            fresh.push((record.height, InvItem::new(record.kind, record.id)));
        }
        if fresh.is_empty() {
            // Everything in this batch is already held: step again immediately
            // (the next drive sends the next getheaders, or finishes).
            bf.deadline = now_ms;
            return true;
        }
        bf.deadline = now_ms + self.config.sync.request_timeout_ms;
        fresh.sort_unstable_by_key(|(height, item)| (*height, item.id));
        let items: Vec<InvItem> = fresh.into_iter().map(|(_, item)| item).collect();
        let request = self.relay.peer_mut(peer).and_then(|state| {
            for item in &items {
                state.forget_request(&item.id);
            }
            state.request(&items)
        });
        if let Some(request) = request {
            effects.push(Effect::Send {
                peer,
                message: request,
            });
        }
        true
    }

    /// Intercepts a delivered block body the backfill requested. Backfilled
    /// blocks live below the chain root: they go to durable storage and the
    /// relay's object store (servable to syncing peers) but never through
    /// `accept_block`, which could only orphan them. Returns true if consumed.
    fn claim_backfill_block(
        &mut self,
        id: Hash256,
        carrier: &Message,
        effects: &mut Vec<Effect>,
    ) -> bool {
        if let Some(bf) = self.backfill.as_mut() {
            if let Some((height, _)) = bf.expected.remove(&id) {
                bf.fetched += 1;
                let block = match carrier {
                    Message::KeyBlock(kb) => Some(NgBlock::Key((**kb).clone())),
                    Message::MicroBlock(mb) => Some(NgBlock::Micro((**mb).clone())),
                    _ => None,
                };
                if let (Some(block), Some(storage)) = (block, self.storage.as_mut()) {
                    if let Err(err) = storage.store_block(&block, height) {
                        Self::report_storage_failure(err, effects);
                    }
                }
                self.relay.store_object(carrier.clone());
                return true;
            }
        }
        // A re-delivered copy of an already-backfilled block: it sits below the
        // root (in the relay's object store but not the block tree), so
        // `accept_block` could only ever orphan it.
        if self.root_height > 0
            && self.relay.has_object(&id)
            && !self.node.chain().store().contains(&id)
        {
            return true;
        }
        false
    }

    fn serve_headers(
        &mut self,
        peer: u64,
        locator: &[Hash256],
        limit: u32,
        effects: &mut Vec<Effect>,
    ) {
        effects.push(Effect::Report(ReportEvent::SyncRequestServed { peer }));
        let chain = self.node.chain().store().main_chain();
        let limit = (limit as usize).clamp(1, 4096);
        let records: Vec<HeaderRecord> = ids_after_locator(&chain, locator, limit)
            .iter()
            .filter_map(|id| {
                let stored = self.node.chain().store().get(id)?;
                Some(HeaderRecord {
                    id: *id,
                    prev: stored.block.prev(),
                    kind: if stored.block.is_key() {
                        InvKind::KeyBlock
                    } else {
                        InvKind::MicroBlock
                    },
                    height: stored.height,
                })
            })
            .collect();
        effects.push(Effect::Send {
            peer,
            message: Message::Headers(records),
        });
    }

    fn handle_headers(
        &mut self,
        peer: u64,
        records: Vec<HeaderRecord>,
        now_ms: u64,
        effects: &mut Vec<Effect>,
    ) {
        effects.push(Effect::Report(ReportEvent::SyncBatchReceived {
            peer,
            count: records.len(),
        }));
        if self.claim_backfill_headers(peer, &records, now_ms, effects) {
            return;
        }
        // Records at or below the chain root can never connect (a snapshot-rooted
        // store holds no history there); they are the backfill's business, not the
        // forward sync's. Feeding the remainder with a correspondingly reduced
        // limit preserves the "partial batch means tip reached" signal.
        let root_height = self.root_height;
        let forward: Vec<HeaderRecord> = records
            .iter()
            .filter(|r| r.height > root_height)
            .copied()
            .collect();
        let dropped = (records.len() - forward.len()) as u32;
        let limit = if forward.is_empty() && !records.is_empty() {
            // Every record fell at or below the root: this peer has nothing for
            // the forward sync (it may be stuck on a pre-root branch). An
            // unreachable limit makes the batch read as partial, ending the walk
            // instead of re-requesting the same useless range forever.
            u32::MAX
        } else {
            self.config.header_batch.saturating_sub(dropped)
        };
        let store = self.node.chain().store();
        self.sync.on_headers(peer, &forward, limit, |id| store.contains(id));
    }

    // ---- block production -----------------------------------------------------

    fn mine_key_block(&mut self, now_ms: u64, effects: &mut Vec<Effect>) {
        let kb = self.node.mine_and_adopt_key_block(now_ms);
        self.roll_ledger(None, effects);
        let id = kb.id();
        effects.push(Effect::Report(ReportEvent::KeyBlockMined { id }));
        self.announce(Message::KeyBlock(Box::new(kb)), None, effects);
    }

    fn produce_microblock(
        &mut self,
        now_ms: u64,
        require_transactions: bool,
        effects: &mut Vec<Effect>,
    ) -> Option<Hash256> {
        if !self.node.microblock_ready(now_ms) {
            return None;
        }
        let budget = self.config.params.max_microblock_payload_bytes() as usize;
        let selected = self.mempool.select_fifo(budget);
        // Under full validation the payload must validate as a sequence against the
        // live view — a pooled transaction can have gone stale (its input spent on
        // a reorged-in branch). Hopelessly stale ones are dropped from the pool
        // entirely (they can never be serialized and would otherwise clog FIFO
        // selection forever) — EXCEPT transactions that are only *temporarily*
        // invalid: a child whose missing input another pooled transaction still
        // provides (merely ordered ahead of its parent this round), and a coinbase
        // spend a reorg pushed back below maturity (valid again in a few blocks).
        let (txs, rejected) = self.view.filter_valid(selected, self.height() + 1);
        let stale: Vec<Hash256> = rejected
            .into_iter()
            .filter(|(_, error)| match error {
                ng_chain::error::TxError::MissingInput(outpoint) => {
                    !self.mempool.contains(&outpoint.txid)
                }
                ng_chain::error::TxError::ImmatureCoinbase { .. } => false,
                _ => true,
            })
            .map(|(txid, _)| txid)
            .collect();
        if !stale.is_empty() {
            self.mempool.remove_all(stale.iter());
        }
        if require_transactions && txs.is_empty() {
            return None;
        }
        let txids: Vec<Hash256> = txs.iter().map(|t| t.txid()).collect();
        let micro = self
            .node
            .produce_microblock(now_ms, Payload::Transactions(txs))?;
        self.mempool.remove_all(txids.iter());
        self.roll_ledger(None, effects);
        let id = micro.id();
        effects.push(Effect::Report(ReportEvent::MicroblockProduced { id }));
        self.announce(Message::MicroBlock(Box::new(micro)), None, effects);
        Some(id)
    }

    /// In auto mode, drain whatever the protocol's spacing rules allow right now.
    fn autostream(&mut self, now_ms: u64, effects: &mut Vec<Effect>) {
        if !self.config.auto_microblocks {
            return;
        }
        while !self.mempool.is_empty() && self.produce_microblock(now_ms, true, effects).is_some() {}
    }

    /// Arms the driver's wakeup timer with the earliest pending deadline across
    /// block production, the download scheduler, the snapshot bootstrap, and the
    /// backfill — if there is one and the driver does not hold it already.
    fn arm_timer(&mut self, now_ms: u64, effects: &mut Vec<Effect>) {
        let mut candidates: Vec<u64> = Vec::new();
        if self.config.auto_microblocks && !self.mempool.is_empty() {
            // `None` while not leader: only a new key block unblocks production.
            if let Some(deadline) = self.node.next_microblock_ms() {
                candidates.push(deadline);
            }
        }
        if let Some(deadline) = self.sync.next_deadline() {
            candidates.push(deadline);
        }
        if let Some(deadline) = self.overlay.next_deadline() {
            candidates.push(deadline);
        }
        if let Some((_, deadline)) = self.bootstrap.as_ref().and_then(|boot| boot.waiting) {
            candidates.push(deadline);
        }
        if let Some(bf) = self.backfill.as_ref() {
            // Without a ready peer the deadline cannot be acted on; the next
            // handshake re-drives the backfill anyway (don't spin the timer).
            if (bf.awaiting_headers || !bf.expected.is_empty())
                && self.relay.ready_peer_count() > 0
            {
                candidates.push(bf.deadline);
            }
        }
        let Some(deadline) = candidates.into_iter().min() else {
            if self.last_timer.take().is_some() {
                effects.push(Effect::ClearTimer);
            }
            return;
        };
        // Never arm a deadline in the past: anything already actionable ran in
        // this same `handle` pass (`autostream`, `drive_sync`).
        let deadline = deadline.max(now_ms + 1);
        if self.last_timer != Some(deadline) {
            self.last_timer = Some(deadline);
            effects.push(Effect::SetTimer {
                deadline_ms: deadline,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testnet::test_tx;
    use ng_chain::amount::Amount;
    use ng_chain::transaction::{OutPoint, TransactionBuilder};
    use ng_crypto::keys::KeyPair;
    use ng_crypto::sha256::sha256;

    fn params() -> NgParams {
        NgParams {
            min_microblock_interval_ms: 1,
            microblock_interval_ms: 2,
            // The synthetic `test_tx` workload spends outpoints that do not exist;
            // these suites exercise the protocol, not the ledger rules (§7).
            validate_transactions: false,
            ..NgParams::default()
        }
    }

    fn engine(id: u64) -> Engine {
        Engine::new(EngineConfig::new(id, params()))
    }

    /// Runs every message effect between two engines until both queues drain.
    /// `a` talks to `b` over connection key 0 on both sides.
    fn pump(now: u64, a: &mut Engine, b: &mut Engine, first: Vec<Effect>, from_a: bool) {
        let mut queues: Vec<Vec<Message>> = vec![Vec::new(), Vec::new()]; // to a, to b
        let absorb = |effects: Vec<Effect>, sender_is_a: bool, queues: &mut Vec<Vec<Message>>| {
            for effect in effects {
                match effect {
                    Effect::Send { message, .. } | Effect::Broadcast { message } => {
                        queues[if sender_is_a { 1 } else { 0 }].push(message);
                    }
                    _ => {}
                }
            }
        };
        absorb(first, from_a, &mut queues);
        loop {
            if let Some(message) = queues[1].first().cloned() {
                queues[1].remove(0);
                let effects = b.handle(now, Input::Message { peer: 0, message });
                absorb(effects, false, &mut queues);
            } else if let Some(message) = queues[0].first().cloned() {
                queues[0].remove(0);
                let effects = a.handle(now, Input::Message { peer: 0, message });
                absorb(effects, true, &mut queues);
            } else {
                break;
            }
        }
    }

    fn connect(now: u64, a: &mut Engine, b: &mut Engine) {
        let hello = a.handle(
            now,
            Input::PeerConnected {
                peer: 0,
                inbound: false,
            },
        );
        assert!(matches!(
            hello.first(),
            Some(Effect::Send {
                message: Message::Version { .. },
                ..
            })
        ));
        b.handle(
            now,
            Input::PeerConnected {
                peer: 0,
                inbound: true,
            },
        );
        pump(now, a, b, hello, true);
        assert_eq!(a.ready_peer_count(), 1);
        assert_eq!(b.ready_peer_count(), 1);
    }

    fn gossip_engine(id: u64, gossip: GossipConfig) -> Engine {
        let mut config = EngineConfig::new(id, params());
        config.gossip = gossip;
        Engine::new(config)
    }

    #[test]
    fn compact_announcement_reconstructs_at_the_receiver() {
        let mut a = gossip_engine(1, GossipConfig::scalable());
        let mut b = gossip_engine(2, GossipConfig::scalable());
        connect(1_000, &mut a, &mut b);
        let mined = a.handle(1_100, Input::MineKeyBlock);
        pump(1_100, &mut a, &mut b, mined, true);
        assert_eq!(b.height(), 1);
        // Transactions still flood in overlay mode: both pools end up holding it,
        // which is exactly what compact reconstruction relies on.
        let submitted = a.handle(1_200, Input::SubmitTx(Box::new(test_tx(1))));
        pump(1_200, &mut a, &mut b, submitted, true);
        assert_eq!(b.mempool_len(), 1);
        let produced = a.handle(
            1_300,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        let full_micro = |e: &Effect| {
            matches!(
                e,
                Effect::Send {
                    message: Message::MicroBlock(_),
                    ..
                } | Effect::Broadcast {
                    message: Message::MicroBlock(_)
                }
            )
        };
        assert!(
            produced.iter().any(|e| matches!(
                e,
                Effect::Send {
                    message: Message::CmpctBlock(_),
                    ..
                }
            )),
            "the eager push is compact"
        );
        assert!(!produced.iter().any(full_micro), "no full carrier on the wire");
        pump(1_300, &mut a, &mut b, produced, true);
        assert_eq!(b.height(), 2, "b reconstructed the microblock from its pool");
        assert_eq!(b.mempool_len(), 0);
    }

    #[test]
    fn lazy_ihave_pull_recovers_a_block_never_pushed() {
        // A zero eager degree makes every link lazy: blocks are only advertised,
        // so delivery *must* go through the ihave → timeout → graft pull path.
        let gossip = GossipConfig {
            compact: false,
            overlay: true,
            eager_degree: 0,
            pull_timeout_ms: 50,
        };
        let mut a = gossip_engine(1, gossip);
        let mut b = gossip_engine(2, gossip);
        connect(1_000, &mut a, &mut b);
        let mined = a.handle(1_100, Input::MineKeyBlock);
        let ihave = mined
            .iter()
            .find_map(|e| match e {
                Effect::Send {
                    message: m @ Message::IHave(_),
                    ..
                } => Some(m.clone()),
                _ => None,
            })
            .expect("lazy link gets an ihave");
        b.handle(1_105, Input::Message { peer: 0, message: ihave });
        assert_eq!(b.height(), 0, "an ihave transfers nothing");
        // The pull timer expires: b grafts the advertising link and pulls.
        let expired = b.handle(1_200, Input::Tick);
        let graft = expired
            .iter()
            .find_map(|e| match e {
                Effect::Send {
                    message: m @ Message::Graft(_),
                    ..
                } => Some(m.clone()),
                _ => None,
            })
            .expect("timeout grafts the advertiser");
        let served = a.handle(1_205, Input::Message { peer: 0, message: graft });
        pump(1_205, &mut a, &mut b, served, true);
        assert_eq!(b.height(), 1, "the graft pulled the block in full");
        assert!(b.overlay_eager().contains(&0), "grafted link is eager now");
        assert!(a.overlay_eager().contains(&0), "the graft promoted a's end too");
    }

    #[test]
    fn handshake_completes_between_two_engines() {
        let mut a = engine(1);
        let mut b = engine(2);
        connect(1_000, &mut a, &mut b);
        assert_eq!(a.ready_peers(), vec![0]);
    }

    #[test]
    fn mined_key_block_is_broadcast_and_reported() {
        let mut a = engine(1);
        let mut b = engine(2);
        connect(1_000, &mut a, &mut b);
        let effects = a.handle(2_000, Input::MineKeyBlock);
        let mined = effects.iter().find_map(|e| match e {
            Effect::Report(ReportEvent::KeyBlockMined { id }) => Some(*id),
            _ => None,
        });
        assert!(mined.is_some());
        // Fresh local block: announced as a single broadcast inv.
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Broadcast { message: Message::Inv(_) })));
        // Delivering the inv to b triggers getdata → block → adoption.
        pump(2_000, &mut a, &mut b, effects, true);
        assert_eq!(b.tip(), mined.unwrap());
        assert_eq!(b.current_leader(), Some(1));
    }

    #[test]
    fn transactions_flow_into_leader_microblocks() {
        let mut a = engine(1);
        let mut b = engine(2);
        connect(1_000, &mut a, &mut b);
        let effects = a.handle(2_000, Input::MineKeyBlock);
        pump(2_000, &mut a, &mut b, effects, true);

        // Submit to the non-leader; gossip carries it to the leader.
        let effects = b.handle(2_100, Input::SubmitTx(Box::new(test_tx(1))));
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Report(ReportEvent::TxAccepted { .. }))));
        pump(2_100, &mut a, &mut b, effects, false);
        assert_eq!(a.mempool_len(), 1, "gossip delivered the tx to the leader");

        let effects = a.handle(
            2_200,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        let produced = effects.iter().any(|e| {
            matches!(e, Effect::Report(ReportEvent::MicroblockProduced { .. }))
        });
        assert!(produced);
        pump(2_200, &mut a, &mut b, effects, true);
        assert_eq!(a.tip(), b.tip());
        assert_eq!(a.utxo_commitment(), b.utxo_commitment());
        assert_eq!(a.mempool_len(), 0, "serialized tx left the mempool");
        assert_eq!(b.mempool_len(), 0, "confirmed tx rolled out of b's pool too");
    }

    /// A counting [`ng_storage::MemoryStorage`] shared with the test so hook
    /// invocations stay observable after the engine takes ownership of the box.
    #[derive(Clone, Debug, Default)]
    struct SharedMem(std::sync::Arc<std::sync::Mutex<ng_storage::MemoryStorage>>);

    impl ng_storage::ChainStorage for SharedMem {
        fn store_block(
            &mut self,
            block: &ng_core::block::NgBlock,
            height: u64,
        ) -> Result<(), ng_storage::StoreError> {
            self.0.lock().unwrap().store_block(block, height)
        }
        fn store_undo(
            &mut self,
            id: &Hash256,
            height: u64,
            undo: &ng_chain::undo::BlockUndo,
        ) -> Result<(), ng_storage::StoreError> {
            self.0.lock().unwrap().store_undo(id, height, undo)
        }
        fn commit_roll(&mut self, roll: &ng_storage::RollCommit) -> Result<(), ng_storage::StoreError> {
            self.0.lock().unwrap().commit_roll(roll)
        }
        fn note_invalidated(&mut self, id: &Hash256) -> Result<(), ng_storage::StoreError> {
            self.0.lock().unwrap().note_invalidated(id)
        }
        fn store_snapshot(
            &mut self,
            snapshot: &ng_storage::Snapshot,
        ) -> Result<(), ng_storage::StoreError> {
            self.0.lock().unwrap().store_snapshot(snapshot)
        }
    }

    #[test]
    fn persistence_hooks_fire_through_the_storage_trait() {
        let mut a = engine(1);
        let mem = SharedMem::default();
        a.set_storage(Box::new(mem.clone()));
        a.handle(1_000, Input::MineKeyBlock);
        a.handle(1_100, Input::SubmitTx(Box::new(test_tx(1))));
        a.handle(
            1_200,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        let m = mem.0.lock().unwrap();
        assert_eq!(m.blocks, 2, "key block + microblock persisted");
        assert_eq!(m.undos, 2, "one undo per connected block");
        assert_eq!(m.rolls, 2, "one durable commit per completed roll");
        assert_eq!(m.invalidated, 0);
        assert_eq!(m.snapshots, 0, "checkpoint cadence (256) not reached at height 2");
        let roll = m.last_roll.as_ref().expect("microblock roll recorded");
        assert_eq!(roll.anchor, a.tip());
        assert_eq!(roll.anchor_height, 2);
        assert_eq!(roll.connected.len(), 1);
        assert!(roll.disconnected.is_empty());
        assert_eq!(roll.rolling, a.chainstate().commitment());
    }

    #[test]
    fn duplicate_and_confirmed_transactions_are_ignored() {
        let mut a = engine(1);
        a.handle(1_000, Input::MineKeyBlock);
        let tx = test_tx(7);
        let accepted = a.handle(1_100, Input::SubmitTx(Box::new(tx.clone())));
        assert!(accepted
            .iter()
            .any(|e| matches!(e, Effect::Report(ReportEvent::TxAccepted { .. }))));
        // A duplicate produces no report.
        let dup = a.handle(1_101, Input::SubmitTx(Box::new(tx.clone())));
        assert!(dup.is_empty());
        // Serialize it; resubmitting the now-confirmed tx is also ignored.
        a.handle(
            1_200,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        assert_eq!(a.mempool_len(), 0);
        let confirmed = a.handle(1_300, Input::SubmitTx(Box::new(tx)));
        assert!(confirmed.is_empty());
        assert_eq!(a.mempool_len(), 0);
    }

    #[test]
    fn auto_mode_arms_timer_and_streams_on_tick() {
        let mut config = EngineConfig::new(1, params());
        config.auto_microblocks = true;
        let mut a = Engine::new(config);
        a.handle(1_000, Input::MineKeyBlock);
        // An empty mempool arms nothing.
        assert!(!a
            .handle(1_000, Input::Tick)
            .iter()
            .any(|e| matches!(e, Effect::SetTimer { .. })));

        // A submitted tx is streamed immediately (spacing already elapsed) and the
        // timer stays unarmed because the pool drained.
        let effects = a.handle(1_100, Input::SubmitTx(Box::new(test_tx(1))));
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Report(ReportEvent::MicroblockProduced { .. }))));
        assert_eq!(a.mempool_len(), 0);

        // A second tx inside the production interval cannot be streamed yet: the
        // engine arms the exact protocol deadline instead.
        let effects = a.handle(1_101, Input::SubmitTx(Box::new(test_tx(2))));
        let deadline = effects.iter().find_map(|e| match e {
            Effect::SetTimer { deadline_ms } => Some(*deadline_ms),
            _ => None,
        });
        assert_eq!(deadline, Some(1_102), "production interval is 2 ms");
        assert_eq!(a.mempool_len(), 1);

        // Re-arming with the same deadline is suppressed until a tick consumes it.
        let effects = a.handle(1_101, Input::SubmitTx(Box::new(test_tx(3))));
        assert!(!effects.iter().any(|e| matches!(e, Effect::SetTimer { .. })));

        // The tick at the deadline streams the pending transactions.
        let effects = a.handle(1_102, Input::Tick);
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Report(ReportEvent::MicroblockProduced { .. }))));
        assert_eq!(a.mempool_len(), 0);
    }

    #[test]
    fn misbehaving_peer_is_disconnected_and_forgotten() {
        let mut a = engine(1);
        a.handle(
            1_000,
            Input::PeerConnected {
                peer: 9,
                inbound: true,
            },
        );
        // A ping before the handshake is a protocol violation.
        let effects = a.handle(
            1_001,
            Input::Message {
                peer: 9,
                message: Message::Ping(1),
            },
        );
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Report(ReportEvent::PeerMisbehaved { .. }))));
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Disconnect { peer: 9 })));
        assert!(a.connected_peers().is_empty());
        // Later input on the dead connection is ignored.
        assert!(a
            .handle(
                1_002,
                Input::Message {
                    peer: 9,
                    message: Message::Ping(2),
                },
            )
            .is_empty());
    }

    #[test]
    fn handshake_sync_catches_a_fresh_node_up() {
        let mut a = engine(1);
        let mut b = engine(2);
        // b builds two epochs on its own before a ever connects.
        b.handle(1_000, Input::MineKeyBlock);
        b.handle(2_000, Input::MineKeyBlock);
        connect(3_000, &mut a, &mut b);
        assert_eq!(a.tip(), b.tip(), "handshake sync caught the fresh node up");
        assert_eq!(a.height(), 2);
    }

    #[test]
    fn orphan_block_triggers_header_sync_with_sender() {
        let mut a = engine(1);
        let mut b = engine(2);
        connect(1_000, &mut a, &mut b);
        // b mines two epochs, but the first announcement is dropped on the wire: a
        // only ever hears about the *second* key block, whose parent it lacks.
        let _lost = b.handle(2_000, Input::MineKeyBlock);
        let announced = b.handle(3_000, Input::MineKeyBlock);
        pump(3_000, &mut a, &mut b, announced, false);
        // Receiving the parentless block forced a header sync with its sender,
        // which backfilled the missing epoch and adopted the stashed orphan.
        assert_eq!(a.tip(), b.tip(), "orphan-triggered sync converged the chains");
        assert_eq!(a.height(), 2);
    }

    /// Validating parameters with immediately spendable coinbases.
    fn validated_params() -> NgParams {
        NgParams {
            min_microblock_interval_ms: 1,
            microblock_interval_ms: 2,
            coinbase_maturity: 0,
            ..NgParams::default()
        }
    }

    /// Registers a handshaken peer on `engine` under connection key `peer`.
    fn register_peer(engine: &mut Engine, peer: u64) {
        engine.handle(0, Input::PeerConnected { peer, inbound: true });
        engine.handle(
            0,
            Input::Message {
                peer,
                message: Message::Version {
                    node_id: 10_000 + peer,
                    protocol: ProtocolKind::BitcoinNg,
                    best_height: 0,
                    time_ms: 0,
                },
            },
        );
        engine.handle(0, Input::Message { peer, message: Message::Verack });
        engine.handle(0, Input::Message { peer, message: Message::Headers(vec![]) });
    }

    #[test]
    fn chained_unconfirmed_transactions_are_admitted_and_serialized() {
        use ng_crypto::signer::SchnorrSigner;
        let mut a = Engine::new(EngineConfig::new(1, validated_params()));
        a.handle(1_000, Input::MineKeyBlock);
        let kb_id = a.tip();
        let signer = SchnorrSigner::new(*a.node().keys());
        let mut parent = TransactionBuilder::new()
            .input(OutPoint::new(kb_id, 0))
            .output(Amount::from_coins(25), a.node().keys().address())
            .build();
        parent.sign_all_inputs(&signer);
        // The child spends the parent's output while the parent is still pending in
        // the mempool: admission cannot price it against the UTXO view yet, but it
        // must be pooled (not dropped) and serialize right behind its parent.
        let mut child = TransactionBuilder::new()
            .input(OutPoint::new(parent.txid(), 0))
            .output(Amount::from_coins(24), KeyPair::from_id(3).address())
            .build();
        child.sign_all_inputs(&signer);

        let (hits_before, misses_before) = a.chainstate().sig_cache_stats();
        assert!(!a
            .handle(1_100, Input::SubmitTx(Box::new(parent.clone())))
            .is_empty());
        let effects = a.handle(1_101, Input::SubmitTx(Box::new(child.clone())));
        assert!(
            effects
                .iter()
                .any(|e| matches!(e, Effect::Report(ReportEvent::TxAccepted { .. }))),
            "chained child must be admitted while its parent is unconfirmed"
        );
        assert_eq!(a.mempool_len(), 2);
        // One validation pass per admission: the child resolves its pooled input in
        // the same pass that looks up (and misses) its signatures in the cache.
        let (hits, misses) = a.chainstate().sig_cache_stats();
        assert_eq!((hits - hits_before, misses - misses_before), (0, 2));

        a.handle(
            1_200,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        assert_eq!(a.mempool_len(), 0, "parent and child both serialized");
        assert!(a.chainstate().is_confirmed(&parent.txid()));
        assert!(a.chainstate().is_confirmed(&child.txid()));
        assert_eq!(
            a.utxo().balance_of(&KeyPair::from_id(3).address()),
            Amount::from_coins(24)
        );
    }

    #[test]
    fn honest_relay_is_not_punished_for_a_byzantine_descendant() {
        use ng_core::block::{MicroBlock, MicroHeader};
        use ng_crypto::signer::{SchnorrSigner, Signer as _};

        // Engine `a` is leader with one valid tx-bearing microblock on its branch.
        let mut a = Engine::new(EngineConfig::new(1, validated_params()));
        a.handle(1_000, Input::MineKeyBlock);
        let kb1_id = a.tip();
        let signer_a = SchnorrSigner::new(*a.node().keys());
        let mut spend = TransactionBuilder::new()
            .input(OutPoint::new(kb1_id, 0))
            .output(Amount::from_coins(24), KeyPair::from_id(5).address())
            .build();
        spend.sign_all_inputs(&signer_a);
        a.handle(1_100, Input::SubmitTx(Box::new(spend.clone())));
        a.handle(
            1_200,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        assert!(a.chainstate().is_confirmed(&spend.txid()));

        // A rival miner on the same epoch mines a heavier key block, and — being
        // Byzantine — signs a microblock on it spending a nonexistent output.
        let kb1 = a.node().chain().get(&kb1_id).expect("key block").clone();
        let mut rival = ng_core::node::NgNode::new(2, validated_params(), 0);
        rival.on_block(kb1, 1_001).unwrap();
        let rival_kb = rival.mine_and_adopt_key_block(2_000);
        let bad_payload = Payload::Transactions(vec![TransactionBuilder::new()
            .input(OutPoint::new(sha256(b"phantom"), 0))
            .output(Amount::from_sats(1), KeyPair::from_id(9).address())
            .build()]);
        let bad_header = MicroHeader {
            prev: rival_kb.id(),
            time_ms: 2_010,
            payload_digest: bad_payload.digest(),
            leader: 2,
        };
        let bad = MicroBlock {
            signature: SchnorrSigner::new(*rival.keys()).sign(&bad_header.signing_hash()),
            header: bad_header,
            payload: bad_payload,
        };
        let bad_id = bad.id();

        // An honest peer relays the Byzantine microblock FIRST (it becomes a
        // pending child), then the valid rival key block. Adopting the key block
        // drags the pending child in: the reorg disconnects a's microblock,
        // connects the rival key block, and fails on the Byzantine child.
        register_peer(&mut a, 7);
        a.handle(
            3_000,
            Input::Message {
                peer: 7,
                message: Message::MicroBlock(Box::new(bad)),
            },
        );
        let effects = a.handle(
            3_001,
            Input::Message {
                peer: 7,
                message: Message::KeyBlock(Box::new(rival_kb.clone())),
            },
        );

        assert_eq!(a.tip(), rival_kb.id(), "heavier valid branch adopted");
        assert!(a.node().chain().is_invalid(&bad_id));
        assert!(
            effects
                .iter()
                .any(|e| matches!(e, Effect::Report(ReportEvent::BlockRejected { id }) if *id == bad_id)),
            "Byzantine child rejected"
        );
        // The peer delivered a *valid* carrier (the key block); it must not be
        // disconnected for the Byzantine child that rode behind it.
        assert!(
            !effects.iter().any(|e| matches!(e, Effect::Disconnect { .. })),
            "honest relay must not be punished"
        );
        assert!(a.connected_peers().contains(&7));
        // The transaction disconnected before the failed connect was not lost: the
        // accumulated delta re-admitted it to the mempool.
        assert!(
            a.mempool_contains(&spend.txid()),
            "disconnected tx re-admitted despite the mid-roll rejection"
        );
        assert!(!a.chainstate().is_confirmed(&spend.txid()));
    }

    #[test]
    fn reorg_readmits_chained_transactions_across_blocks() {
        use ng_crypto::signer::SchnorrSigner;
        // Parent and child serialized in two separate microblocks; a heavier rival
        // branch reorgs both out. The child's input only resolves through the
        // re-admitted parent, so re-admission must process chain order and fall
        // back to pool-resolved validation.
        let mut a = Engine::new(EngineConfig::new(1, validated_params()));
        a.handle(1_000, Input::MineKeyBlock);
        let kb1_id = a.tip();
        let signer = SchnorrSigner::new(*a.node().keys());
        let mut parent = TransactionBuilder::new()
            .input(OutPoint::new(kb1_id, 0))
            .output(Amount::from_coins(25), a.node().keys().address())
            .build();
        parent.sign_all_inputs(&signer);
        let mut child = TransactionBuilder::new()
            .input(OutPoint::new(parent.txid(), 0))
            .output(Amount::from_coins(24), KeyPair::from_id(4).address())
            .build();
        child.sign_all_inputs(&signer);
        a.handle(1_100, Input::SubmitTx(Box::new(parent.clone())));
        a.handle(
            1_200,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        a.handle(1_300, Input::SubmitTx(Box::new(child.clone())));
        a.handle(
            1_400,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        assert!(a.chainstate().is_confirmed(&parent.txid()));
        assert!(a.chainstate().is_confirmed(&child.txid()));

        // Rival branch: two key blocks on the shared epoch outweigh the microblocks.
        let kb1 = a.node().chain().get(&kb1_id).expect("key block").clone();
        let mut rival = ng_core::node::NgNode::new(2, validated_params(), 0);
        rival.on_block(kb1, 1_001).unwrap();
        let rival_kb1 = rival.mine_and_adopt_key_block(2_000);
        let rival_kb2 = rival.mine_and_adopt_key_block(2_100);
        register_peer(&mut a, 5);
        a.handle(
            3_000,
            Input::Message {
                peer: 5,
                message: Message::KeyBlock(Box::new(rival_kb1)),
            },
        );
        a.handle(
            3_001,
            Input::Message {
                peer: 5,
                message: Message::KeyBlock(Box::new(rival_kb2.clone())),
            },
        );
        assert_eq!(a.tip(), rival_kb2.id(), "reorg applied");
        assert!(
            a.mempool_contains(&parent.txid()),
            "disconnected parent re-admitted"
        );
        assert!(
            a.mempool_contains(&child.txid()),
            "disconnected child re-admitted through its pooled parent"
        );
        // The chain serializes again in order on the new branch.
        a.handle(
            4_000,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        assert!(!a.is_leader() || a.mempool_len() == 0);
    }

    #[test]
    fn direct_sender_of_invalid_microblock_is_disconnected() {
        use ng_core::block::{MicroBlock, MicroHeader};
        use ng_crypto::signer::{SchnorrSigner, Signer as _};

        let mut a = Engine::new(EngineConfig::new(1, validated_params()));
        register_peer(&mut a, 3);
        a.handle(1_000, Input::MineKeyBlock);
        let tip = a.tip();
        // The Byzantine leader (this engine's own id/keys, so the signature is
        // valid) sends a phantom-spend microblock directly.
        let payload = Payload::Transactions(vec![TransactionBuilder::new()
            .input(OutPoint::new(sha256(b"phantom"), 0))
            .output(Amount::from_sats(1), KeyPair::from_id(9).address())
            .build()]);
        let header = MicroHeader {
            prev: tip,
            time_ms: 1_500,
            payload_digest: payload.digest(),
            leader: 1,
        };
        let bad = MicroBlock {
            signature: SchnorrSigner::new(KeyPair::from_id(1)).sign(&header.signing_hash()),
            header,
            payload,
        };
        let bad_id = bad.id();
        let effects = a.handle(
            2_000,
            Input::Message {
                peer: 3,
                message: Message::MicroBlock(Box::new(bad)),
            },
        );
        assert_eq!(a.tip(), tip, "ledger unchanged");
        assert!(a.node().chain().is_invalid(&bad_id));
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Report(ReportEvent::PeerMisbehaved { peer: 3, .. }))));
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Disconnect { peer: 3 })));
        assert!(!a.connected_peers().contains(&3));
    }

    #[test]
    fn oversized_transaction_is_rejected() {
        let mut p = params();
        p.max_microblock_bytes = 512;
        let mut a = Engine::new(EngineConfig::new(1, p));
        a.handle(1_000, Input::MineKeyBlock);
        let mut builder = TransactionBuilder::new().input(OutPoint::new(sha256(b"big"), 0));
        for seq in 0..64u64 {
            builder = builder.output(Amount::from_sats(1 + seq), KeyPair::from_id(9).address());
        }
        let big = builder.build();
        assert!(big.serialized_size() as u64 > a.config().params.max_microblock_payload_bytes());
        // Rejected outright: no report, nothing pooled, no production timer to spin.
        let effects = a.handle(1_100, Input::SubmitTx(Box::new(big)));
        assert!(effects.is_empty());
        assert_eq!(a.mempool_len(), 0);
    }
}
