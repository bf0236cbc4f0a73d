//! The SimNet payment workloads: an open loop of payments submitted round-robin
//! over the nodes of a simulated network, with leaders rotating on a fixed
//! virtual schedule, measured from the first submission until every payment is
//! confirmed on every node.

use crate::common::{median, percentile, Outcome, ScratchDir, Spans};
use crate::layers::{self, LayerInputs, Tally};
use crate::payments::{self, Payment, Wallet};
use crate::replay;
use ng_chain::amount::Amount;
use ng_chain::transaction::{OutPoint, TxOutput};
use ng_core::params::NgParams;
use ng_crypto::keys::{Address, KeyPair};
use ng_crypto::sha256::Hash256;
use ng_metrics::counters::WireStats;
use ng_node::engine::{Engine, GossipConfig};
use ng_node::simnet::{SimConfig, SimNet};
use ng_storage::{FileStorage, StorageConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The shape of one SimNet payment workload.
pub struct PayConfig {
    pub nodes: usize,
    pub degree: usize,
    /// Full transaction validation (signatures, inputs, value) on every node.
    pub validate: bool,
    /// Open-loop offered load, payments per virtual second.
    pub rate_per_s: u64,
    /// Payments per `--seconds` of run length: fixes the work of a run, sized
    /// so the timed phase lasts about `--seconds` on a 2-core host.
    pub payments_per_second_of_run: usize,
    /// Signed payments from this many wallets; 0 means synthetic unsigned ones.
    pub wallets: usize,
    /// Per-directed-link throughput cap, bytes per virtual millisecond.
    pub link_bytes_per_ms: Option<u64>,
    /// Install the shared signature worker pool on every engine, as the TCP
    /// daemon does.
    pub worker_pool: bool,
    /// Independent networks a run is split into, one after another, each with
    /// its share of the payments; `tx_per_s` is their median. Splitting keeps
    /// each network's heap small: a memory-heavy network's speed swings with
    /// the host far more than a small one's.
    pub parts: usize,
}

pub const PAY_VALIDATED: PayConfig = PayConfig {
    nodes: 8,
    degree: 4,
    validate: true,
    rate_per_s: 400,
    payments_per_second_of_run: 550,
    wallets: 64,
    link_bytes_per_ms: None,
    worker_pool: true,
    parts: 1,
};

pub const PAY_WIDE: PayConfig = PayConfig {
    nodes: 64,
    degree: 8,
    validate: false,
    rate_per_s: 300,
    payments_per_second_of_run: 300,
    wallets: 0,
    link_bytes_per_ms: Some(1_250),
    worker_pool: false,
    parts: 4,
};

const MICROBLOCK_MS: u64 = 250;
const ROTATION_MS: u64 = 10_000;
/// Virtual time allowed after the last submission for every payment to confirm
/// everywhere; a payment still unconfirmed then counts as failed.
const DRAIN_LIMIT_MS: u64 = 60_000;
const DRAIN_STEP_MS: u64 = 10;
/// Set-ups per run, spread over its parts; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Restarts of the durable node per run, each checked against the network.
const RESTARTS: usize = 3;
const RESTART_DEADLINE: Duration = Duration::from_secs(30);
const FUNDING_FEE: Amount = Amount::from_sats(5_000);
const SYNTHETIC_FEE: Amount = Amount::from_sats(200);
/// Outputs per funding transaction for synthetic payments (keeps each funding
/// transaction under the microblock payload limit).
const FUNDING_OUTPUTS_PER_TX: usize = 1_500;

fn params(config: &PayConfig) -> NgParams {
    NgParams {
        microblock_interval_ms: MICROBLOCK_MS,
        coinbase_maturity: 0,
        validate_transactions: config.validate,
        ..NgParams::default()
    }
}

/// Everything the timed phase starts from.
struct Setup {
    net: SimNet,
    payments: Vec<Payment>,
    funding: Vec<Payment>,
    /// The node that writes its chain to a datadir (the restart subject).
    durable: usize,
    datadir: ScratchDir,
}

/// Runs the network in steps until every node has confirmed `txid`.
fn settle(net: &mut SimNet, txid: &Hash256) -> Result<(), String> {
    for _ in 0..1_200 {
        net.run(50);
        if (0..net.len()).all(|i| net.engine(i).chainstate().is_confirmed(txid)) {
            return Ok(());
        }
    }
    Err(format!("funding transaction {txid} never confirmed"))
}

fn setup(config: &PayConfig, seed: u64, count: usize, spans: &mut Spans) -> Result<Setup, String> {
    let params = params(config);
    let mut sim = SimConfig::new(config.nodes, seed);
    sim.params = params;
    sim.gossip = GossipConfig::scalable();
    sim.auto_microblocks = true;
    let mut net = SimNet::new(sim);
    if config.worker_pool {
        let pool = ng_node::parallel::shared_pool();
        for node in 0..net.len() {
            net.engine_mut(node).set_batch_executor(pool.clone());
        }
    }
    let durable = config.nodes - 1;
    let datadir = ScratchDir::new("pay").map_err(|e| e.to_string())?;
    let (storage, _) = FileStorage::open(datadir.path(), storage_config(&params))
        .map_err(|e| format!("open datadir: {e}"))?;
    net.engine_mut(durable).set_storage(Box::new(storage));
    net.connect_degree(config.degree);
    if let Some(rate) = config.link_bytes_per_ms {
        for a in 0..config.nodes {
            for b in 0..config.nodes {
                if a != b {
                    net.set_link_bandwidth(a, b, rate);
                }
            }
        }
    }
    net.run(2_000);

    let key_block = net.mine_key_block(0);
    let coinbase = net
        .engine(0)
        .node()
        .chain()
        .get(&key_block)
        .and_then(|block| block.as_key())
        .map(|kb| kb.coinbase[0])
        .ok_or("the first key block has no coinbase")?;
    let mut coin = (OutPoint::new(key_block, 0), coinbase);
    net.run(1_000);

    let mut funding = Vec::new();
    let payments = if config.wallets > 0 {
        let mut wallets: Vec<Wallet> = (0..config.wallets).map(|i| Wallet::new(seed, i)).collect();
        let addresses: Vec<Address> = wallets.iter().map(Wallet::address).collect();
        let each = Amount::from_sats(coin.1.amount.sats() / (config.wallets as u64 + 1));
        let leader = KeyPair::from_id(0);
        let fund = payments::split(coin, &addresses, each, FUNDING_FEE, Some(&leader));
        for (i, wallet) in wallets.iter_mut().enumerate() {
            wallet.receive(OutPoint::new(fund.txid, i as u32), each);
        }
        submit_and_settle(&mut net, &fund)?;
        funding.push(fund);
        payments::signed_chain(&mut wallets, count, seed, spans)
    } else {
        let sinks: Vec<Address> = (0..64)
            .map(|i| KeyPair::from_id(10_000 + i).address())
            .collect();
        let each = Amount::from_sats(30_000 + SYNTHETIC_FEE.sats());
        let mut coins: Vec<(OutPoint, TxOutput)> = Vec::with_capacity(count);
        while coins.len() < count {
            let k = FUNDING_OUTPUTS_PER_TX.min(count - coins.len());
            let addresses: Vec<Address> = (0..k).map(|i| sinks[i % sinks.len()]).collect();
            let fund = payments::split(coin, &addresses, each, FUNDING_FEE, None);
            for (i, output) in fund.tx.outputs[..k].iter().enumerate() {
                coins.push((OutPoint::new(fund.txid, i as u32), *output));
            }
            coin = (OutPoint::new(fund.txid, k as u32), fund.tx.outputs[k]);
            submit_and_settle(&mut net, &fund)?;
            funding.push(fund);
        }
        payments::unsigned_spends(&coins, &sinks, SYNTHETIC_FEE, seed)
    };
    Ok(Setup {
        net,
        payments,
        funding,
        durable,
        datadir,
    })
}

fn submit_and_settle(net: &mut SimNet, fund: &Payment) -> Result<(), String> {
    if !net.submit_tx(0, fund.tx.clone()) {
        return Err("funding transaction rejected".to_string());
    }
    settle(net, &fund.txid)
}

fn storage_config(params: &NgParams) -> StorageConfig {
    StorageConfig {
        finality_depth: params.finality_depth,
        fsync: false,
    }
}

/// Per-node confirmation times of every submitted payment.
struct Tracker {
    txids: Vec<Hash256>,
    submitted_at: Vec<Option<u64>>,
    confirmed_at: Vec<Vec<Option<u64>>>,
    /// Per node: submitted payments it has not confirmed yet.
    pending: Vec<Vec<usize>>,
    last_tip: Vec<Hash256>,
}

impl Tracker {
    fn new(net: &SimNet, payments: &[Payment]) -> Self {
        let nodes = net.len();
        Tracker {
            txids: payments.iter().map(|p| p.txid).collect(),
            submitted_at: vec![None; payments.len()],
            confirmed_at: vec![vec![None; payments.len()]; nodes],
            pending: vec![Vec::new(); nodes],
            last_tip: (0..nodes).map(|i| net.engine(i).tip()).collect(),
        }
    }

    fn submitted(&mut self, payment: usize, at: u64) {
        self.submitted_at[payment] = Some(at);
        for pending in &mut self.pending {
            pending.push(payment);
        }
    }

    fn unconfirmed(&self) -> usize {
        self.pending.iter().map(Vec::len).sum()
    }

    /// Records confirmations on every node whose tip moved. A tip that left
    /// the main chain means a reorg: confirmations it undid are taken back.
    fn observe(&mut self, net: &SimNet) {
        let now = net.now_ms();
        for node in 0..net.len() {
            let engine = net.engine(node);
            let tip = engine.tip();
            if tip == self.last_tip[node] {
                continue;
            }
            let view = engine.chainstate();
            if !engine
                .node()
                .chain()
                .store()
                .is_in_main_chain(&self.last_tip[node])
            {
                for (p, at) in self.confirmed_at[node].iter_mut().enumerate() {
                    if at.is_some() && !view.is_confirmed(&self.txids[p]) {
                        *at = None;
                        self.pending[node].push(p);
                    }
                }
            }
            self.last_tip[node] = tip;
            let (txids, confirmed) = (&self.txids, &mut self.confirmed_at[node]);
            self.pending[node].retain(|&p| {
                if view.is_confirmed(&txids[p]) {
                    confirmed[p] = Some(now);
                    false
                } else {
                    true
                }
            });
        }
    }
}

/// Drives the network to virtual time `target`, mining the scheduled key
/// blocks on the way and recording confirmations after every step.
struct Clock {
    next_rotation: u64,
    leader: usize,
}

impl Clock {
    fn advance(&mut self, net: &mut SimNet, target: u64, tracker: &mut Tracker, spans: &mut Spans) {
        while net.now_ms() < target {
            let step_end = target.min(self.next_rotation);
            if step_end > net.now_ms() {
                let budget = step_end - net.now_ms();
                spans.time("driver.run", || net.run(budget));
                tracker.observe(net);
            }
            if net.now_ms() >= self.next_rotation {
                self.leader = (self.leader + 1) % net.len();
                net.mine_key_block(self.leader);
                self.next_rotation += ROTATION_MS;
                tracker.observe(net);
            }
        }
    }
}

/// Counters of `nodes`, summed.
pub fn counters_tally(net: &SimNet, nodes: &[usize]) -> Tally {
    let snapshots = net.snapshots();
    nodes
        .iter()
        .map(|&i| Tally::from(&snapshots[i].counters))
        .fold(Tally::default(), |acc, t| acc.plus(&t))
}

pub fn wire_stats(net: &SimNet) -> Vec<WireStats> {
    (0..net.len()).map(|i| net.wire_stats(i).clone()).collect()
}

/// Sent `(messages, modelled bytes, inv + getdata + tx messages)` over `stats`.
pub fn wire_totals(stats: &[WireStats]) -> (u64, u64, u64) {
    let mut msgs = 0;
    let mut bytes = 0;
    let mut tx_relay = 0;
    for s in stats {
        for (command, traffic) in s.iter() {
            msgs += traffic.msgs_out;
            bytes += traffic.bytes_out;
            if matches!(command, "inv" | "getdata" | "tx") {
                tx_relay += traffic.msgs_out;
            }
        }
    }
    (msgs, bytes, tx_relay)
}

/// Signature-cache `(hits, misses)` of `nodes`, summed.
pub fn sig_totals(net: &SimNet, nodes: &[usize]) -> (u64, u64) {
    nodes
        .iter()
        .map(|&i| net.engine(i).chainstate().sig_cache_stats())
        .fold((0, 0), |(h, m), (dh, dm)| (h + dh, m + dm))
}

/// What one part of a run measured; a run reports the median throughput of
/// its parts and pools their latency samples.
struct Part {
    setup_times: Vec<f64>,
    timed_s: f64,
    confirmed: usize,
    attempted: u64,
    failed: u64,
    latencies: Vec<u64>,
    tally: Tally,
    wire: (u64, u64, u64),
    sig_cache: (u64, u64),
    microblocks: usize,
    chain: ng_core::chain::NgChainState,
    payments: Vec<Payment>,
    commitment: Hash256,
}

/// Sets up one network `setups` times, then runs the open loop of `count`
/// payments on the last one, checks the outcome and restarts its durable node.
fn part(
    config: &PayConfig,
    seed: u64,
    count: usize,
    setups: usize,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<Part, String> {
    let mut setup_times = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups {
        drop(last.take());
        let start = Instant::now();
        let built = setup(config, seed, count, spans)?;
        setup_times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    let Setup {
        mut net,
        payments,
        funding,
        durable,
        datadir,
    } = last.expect("at least one set-up");
    let params = params(config);
    let nodes = net.len();

    // ---- timed phase: submission through drain ----
    let all: Vec<usize> = (0..nodes).collect();
    let tally_before = counters_tally(&net, &all);
    let wire_before = wire_stats(&net);
    let sig_before = sig_totals(&net, &all);
    let mut tracker = Tracker::new(&net, &payments);
    let start_ms = net.now_ms();
    let mut clock = Clock {
        next_rotation: start_ms + ROTATION_MS,
        leader: 0,
    };
    let mut rejected = 0u64;
    let started = Instant::now();
    for (i, payment) in payments.iter().enumerate() {
        let due = start_ms + i as u64 * 1_000 / config.rate_per_s;
        clock.advance(&mut net, due, &mut tracker, spans);
        let tx = payment.tx.clone();
        let node = i % nodes;
        if spans.time("driver.submit", || net.submit_tx(node, tx)) {
            tracker.submitted(i, net.now_ms());
        } else {
            rejected += 1;
        }
    }
    let last_due = net.now_ms();
    while tracker.unconfirmed() > 0 && net.now_ms() < last_due + DRAIN_LIMIT_MS {
        let target = net.now_ms() + DRAIN_STEP_MS;
        clock.advance(&mut net, target, &mut tracker, spans);
    }
    let timed_s = started.elapsed().as_secs_f64();

    // ---- outcome: confirmations and latency ----
    let confirmed = (0..payments.len())
        .filter(|&p| {
            tracker.submitted_at[p].is_some() && tracker.confirmed_at.iter().all(|n| n[p].is_some())
        })
        .count();
    let unconfirmed = (payments.len() as u64 - rejected) - confirmed as u64;
    let mut latencies: Vec<u64> = Vec::with_capacity(confirmed * nodes);
    for (p, submitted) in tracker.submitted_at.iter().enumerate() {
        let Some(submitted) = submitted else { continue };
        for node_confirmed in &tracker.confirmed_at {
            if let Some(at) = node_confirmed[p] {
                latencies.push(at - submitted);
            }
        }
    }

    // ---- correctness ----
    net.run(2_000);
    out.check(net.converged(), || {
        "nodes disagree on tip or UTXO commitment".into()
    });
    out.check(rejected == 0, || {
        format!("{rejected} payments rejected at submit")
    });
    out.check(unconfirmed == 0, || {
        format!("{unconfirmed} payments unconfirmed after the drain")
    });
    let chain = net.engine(0).node().chain().clone();
    check_ledger(out, &net, &chain, &params, &payments, &funding);

    let tally = counters_tally(&net, &all).minus(&tally_before);
    let (msgs_after, bytes_after, relay_after) = wire_totals(&wire_stats(&net));
    let (msgs_before, bytes_before, relay_before) = wire_totals(&wire_before);
    let wire = (
        msgs_after - msgs_before,
        bytes_after - bytes_before,
        relay_after - relay_before,
    );
    let sig_after = sig_totals(&net, &all);
    let sig_cache = (sig_after.0 - sig_before.0, sig_after.1 - sig_before.1);
    let expected = (net.engine(0).tip(), net.engine(0).utxo_commitment());
    let microblocks = chain
        .microblocks_on_main_chain()
        .iter()
        .filter(|id| chain.get(id).is_some_and(|b| b.time_ms() > start_ms))
        .count();

    // ---- restart the durable node from its datadir ----
    let engine_config = net.engine(durable).config().clone();
    drop(net.crash(durable));
    let mut restart_failures = 0u64;
    for _ in 0..RESTARTS {
        let start = Instant::now();
        let opened = spans.time("storage.open", || {
            FileStorage::open(datadir.path(), storage_config(&params))
        });
        let (storage, recovery) = opened.map_err(|e| format!("reopen datadir: {e}"))?;
        let mut engine = spans.time("storage.restore", || {
            Engine::restore(engine_config.clone(), recovery)
        });
        if config.worker_pool {
            engine.set_batch_executor(ng_node::parallel::shared_pool());
        }
        engine.set_storage(Box::new(storage));
        let same = engine.tip() == expected.0 && engine.utxo_commitment() == expected.1;
        let elapsed = start.elapsed();
        drop(engine);
        if !same || elapsed > RESTART_DEADLINE {
            restart_failures += 1;
        }
    }
    out.check(restart_failures == 0, || {
        format!("{restart_failures} restarts missed their tip or deadline")
    });

    let part = out.fingerprint.len();
    for (key, value) in [
        ("tip", expected.0.to_string()),
        ("commitment", expected.1.to_string()),
        ("wire", format!("{wire:?}")),
        ("sig_cache", format!("{sig_cache:?}")),
        ("counters", format!("{tally:?}")),
    ] {
        out.pin(&format!("{key}.{part}"), value);
    }
    Ok(Part {
        setup_times,
        timed_s,
        confirmed,
        attempted: payments.len() as u64 + RESTARTS as u64,
        failed: rejected + unconfirmed + restart_failures,
        latencies,
        tally,
        wire,
        sig_cache,
        microblocks,
        chain,
        payments,
        commitment: expected.1,
    })
}

/// Runs one SimNet payment workload and reports its metrics.
pub fn run(
    config: &PayConfig,
    seed: u64,
    run_seconds: u64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut spans = Spans::new(trace);
    let mut out = Outcome::default();
    let count = config.payments_per_second_of_run * run_seconds as usize / config.parts;
    let setups = SETUP_REPEATS.div_ceil(config.parts);
    let mut parts = Vec::with_capacity(config.parts);
    for k in 0..config.parts {
        let part_seed = seed.wrapping_add(k as u64 * 0x9E37_79B9_7F4A_7C15);
        parts.push(part(
            config, part_seed, count, setups, &mut spans, &mut out,
        )?);
    }

    let setup_times: Vec<f64> = parts.iter().flat_map(|p| p.setup_times.clone()).collect();
    let rates: Vec<f64> = parts
        .iter()
        .map(|p| p.confirmed as f64 / p.timed_s)
        .collect();
    let mut latencies: Vec<u64> = parts.iter().flat_map(|p| p.latencies.clone()).collect();
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 50.0);
    let p99 = percentile(&latencies, 99.0);
    let confirmed: usize = parts.iter().map(|p| p.confirmed).sum();
    out.attempted = parts.iter().map(|p| p.attempted).sum();
    out.failed = parts.iter().map(|p| p.failed).sum();
    out.pin("confirm_p50_vms", p50);
    out.pin("confirm_p99_vms", p99);
    out.pin("latency_samples", latencies.len());

    if trace {
        let sum3 = |f: fn(&Part) -> (u64, u64, u64)| {
            parts
                .iter()
                .map(f)
                .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2))
        };
        let wire = sum3(|p| p.wire);
        let sig_cache = parts
            .iter()
            .fold((0, 0), |a, p| (a.0 + p.sig_cache.0, a.1 + p.sig_cache.1));
        let tally = parts
            .iter()
            .fold(Tally::default(), |acc, p| acc.plus(&p.tally));
        let timed_s: f64 = parts.iter().map(|p| p.timed_s).sum();
        let microblocks = parts.iter().map(|p| p.microblocks).sum();
        // The last part's chain and payments feed the replays.
        let last = parts.pop().expect("at least one part");
        let params = params(config);
        let replayed = replay::all(
            &params,
            last.chain,
            &last.payments,
            config.wallets > 0,
            seed,
            last.commitment,
            &mut out,
        )?;
        let (submit_total, submits) = spans.total_us("driver.submit");
        let (run_total, _) = spans.total_us("driver.run");
        let (build_total, builds) = spans.total_us("wallet.build");
        let restarts = (RESTARTS * config.parts) as f64;
        let inputs = LayerInputs {
            payments: confirmed,
            nodes: config.nodes,
            tally,
            wire,
            sig_cache,
            microblocks,
            timed_s,
            submit_us: submit_total / submits.max(1) as f64,
            run_us_per_tx: run_total / confirmed.max(1) as f64,
            wallet_build_us: (builds > 0).then(|| build_total / builds as f64),
            open_us: spans.total_us("storage.open").0 / restarts,
            restore_us: spans.total_us("storage.restore").0 / restarts,
            catchup: false,
        };
        layers::report(&mut out, &inputs, &replayed);
    } else {
        out.metric("setup_s", median(setup_times.clone()), "s", "wall");
        out.metric("tx_per_s", median(rates), "1/s", "wall");
        out.metric("confirm_p50_ms", p50 as f64, "ms", "virtual");
        out.metric("confirm_p99_ms", p99 as f64, "ms", "virtual");
        out.metric("rss_peak_mb", crate::common::rss_peak_mb(), "MB", "memory");
    }
    out.samples
        .insert("setup_s".into(), setup_times.len() as u64);
    out.samples.insert("tx_per_s".into(), config.parts as u64);
    out.samples
        .insert("confirm_p50_ms".into(), latencies.len() as u64);
    out.samples
        .insert("confirm_p99_ms".into(), latencies.len() as u64);
    Ok(out)
}

/// The ledger checks every run ends with: each payment serialized exactly once
/// on the main chain, and every node holding the same UTXO total, which lies
/// between the key-block subsidies minus every fee paid and the subsidies.
pub fn check_ledger(
    out: &mut Outcome,
    net: &SimNet,
    chain: &ng_core::chain::NgChainState,
    params: &NgParams,
    payments: &[Payment],
    funding: &[Payment],
) {
    let occurrences = occurrences(chain);
    check_unique(out, &occurrences, payments, funding);
    let totals: Vec<u64> = (0..net.len())
        .map(|i| net.engine(i).utxo().total_value().sats())
        .collect();
    out.check(totals.windows(2).all(|w| w[0] == w[1]), || {
        format!("UTXO totals differ across nodes: {totals:?}")
    });
    check_supply(out, totals[0], chain, params, payments, funding);
}

/// How many times each transaction id appears on the main chain.
pub fn occurrences(chain: &ng_core::chain::NgChainState) -> HashMap<Hash256, u32> {
    let mut seen: HashMap<Hash256, u32> = HashMap::new();
    for id in chain.microblocks_on_main_chain() {
        let txs = chain
            .get(&id)
            .and_then(|b| b.as_micro())
            .and_then(|m| m.payload.transactions());
        for tx in txs.into_iter().flatten() {
            *seen.entry(tx.txid()).or_default() += 1;
        }
    }
    seen
}

pub fn check_unique(
    out: &mut Outcome,
    seen: &HashMap<Hash256, u32>,
    payments: &[Payment],
    funding: &[Payment],
) {
    let wrong = payments
        .iter()
        .chain(funding)
        .filter(|p| seen.get(&p.txid).copied().unwrap_or(0) != 1)
        .count();
    out.check(wrong == 0, || {
        format!("{wrong} transactions not confirmed exactly once on the main chain")
    });
}

pub fn check_supply(
    out: &mut Outcome,
    total: u64,
    chain: &ng_core::chain::NgChainState,
    params: &NgParams,
    payments: &[Payment],
    funding: &[Payment],
) {
    let key_blocks = chain.key_blocks_on_main_chain().len() as u64 - 1; // genesis pays nothing
    let subsidy = key_blocks * params.key_block_reward.sats();
    let fees: u64 = payments.iter().chain(funding).map(|p| p.fee.sats()).sum();
    out.check(total <= subsidy && total + fees >= subsidy, || {
        format!(
            "UTXO total {total} outside [{}, {subsidy}]",
            subsidy.saturating_sub(fees)
        )
    });
}
