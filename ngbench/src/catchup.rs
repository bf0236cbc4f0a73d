//! The catch-up workload: in set-up one SimNet node builds a chain of signed
//! payments; then fresh nodes, each writing to its own datadir, join it one
//! after another and catch up, and the first few are restarted from their
//! datadirs.
//!
//! It runs on SimNet rather than over loopback TCP: over TCP the catch-up
//! stalls on sync request timeouts whenever the host runs slow (see
//! `NOTES.md`), which made its throughput bimodal. The frame codec and the
//! daemon therefore go unmeasured end to end here; the codec's unit cost is
//! still replayed in traced runs.

use crate::common::{median, percentile, Outcome, ScratchDir, Spans};
use crate::layers::{self, LayerInputs};
use crate::pay::{
    check_supply, check_unique, counters_tally, occurrences, wire_stats, wire_totals,
};
use crate::payments::{self, Payment, Wallet};
use crate::replay;
use ng_chain::amount::Amount;
use ng_chain::transaction::OutPoint;
use ng_core::params::NgParams;
use ng_crypto::keys::{Address, KeyPair};
use ng_crypto::sha256::Hash256;
use ng_node::engine::{Engine, EngineConfig, GossipConfig};
use ng_node::simnet::{SimConfig, SimNet};
use ng_storage::{FileStorage, StorageConfig};
use std::time::{Duration, Instant};

/// Payments per `--seconds` of run length.
const PAYMENTS_PER_SECOND_OF_RUN: usize = 800;
const BLOCK_TXS: usize = 250;
const WALLETS: usize = 64;
const SETUP_REPEATS: usize = 3;
/// Fresh nodes that catch up in turn; `tx_per_s` is their median. One
/// catch-up takes well under a second, so the median over many spreads the
/// measurement across the host's short speed swings.
const JOINERS: usize = 20;
/// Joiners that are also restarted from their datadir and checked.
const RESTARTS: usize = 3;
/// Virtual time a joiner has to catch up before it counts as failed.
const SYNC_LIMIT_MS: u64 = 120_000;
const RESTART_DEADLINE: Duration = Duration::from_secs(30);
const FUNDING_FEE: Amount = Amount::from_sats(5_000);
const SERVER: usize = 0;

fn params() -> NgParams {
    NgParams {
        min_microblock_interval_ms: 1,
        microblock_interval_ms: 1,
        coinbase_maturity: 0,
        validate_transactions: true,
        ..NgParams::default()
    }
}

fn storage_config(params: &NgParams) -> StorageConfig {
    StorageConfig {
        finality_depth: params.finality_depth,
        fsync: false,
    }
}

struct Setup {
    net: SimNet,
    payments: Vec<Payment>,
    funding: Payment,
    /// Height of the microblock that carries each payment.
    heights: Vec<u64>,
}

fn produce(net: &mut SimNet) -> Result<u64, String> {
    net.run(2);
    net.produce_microblock(SERVER)
        .ok_or("the server did not produce a microblock")?;
    Ok(net.engine(SERVER).height())
}

fn setup(seed: u64, run_seconds: u64, spans: &mut Spans) -> Result<Setup, String> {
    let params = params();
    let mut sim = SimConfig::new(1, seed);
    sim.params = params;
    sim.gossip = GossipConfig::scalable();
    let mut net = SimNet::new(sim);
    net.engine_mut(SERVER)
        .set_batch_executor(ng_node::parallel::shared_pool());

    let key_block = net.mine_key_block(SERVER);
    let coinbase = net
        .engine(SERVER)
        .node()
        .chain()
        .get(&key_block)
        .and_then(|block| block.as_key())
        .map(|kb| kb.coinbase[0])
        .ok_or("the first key block has no coinbase")?;
    let mut wallets: Vec<Wallet> = (0..WALLETS).map(|i| Wallet::new(seed, i)).collect();
    let addresses: Vec<Address> = wallets.iter().map(Wallet::address).collect();
    let each = Amount::from_sats(coinbase.amount.sats() / (WALLETS as u64 + 1));
    let leader = KeyPair::from_id(SERVER as u64);
    let funding = payments::split(
        (OutPoint::new(key_block, 0), coinbase),
        &addresses,
        each,
        FUNDING_FEE,
        Some(&leader),
    );
    for (i, wallet) in wallets.iter_mut().enumerate() {
        wallet.receive(OutPoint::new(funding.txid, i as u32), each);
    }
    if !net.submit_tx(SERVER, funding.tx.clone()) {
        return Err("funding transaction rejected".to_string());
    }
    produce(&mut net)?;

    let count = PAYMENTS_PER_SECOND_OF_RUN * run_seconds as usize;
    let payments = payments::signed_chain(&mut wallets, count, seed, spans);
    let mut heights = Vec::with_capacity(count);
    for block in payments.chunks(BLOCK_TXS) {
        for payment in block {
            let tx = payment.tx.clone();
            if !spans.time("driver.submit", || net.submit_tx(SERVER, tx)) {
                return Err(format!("server rejected payment {}", payment.txid));
            }
        }
        let height = produce(&mut net)?;
        heights.extend(std::iter::repeat_n(height, block.len()));
    }
    Ok(Setup {
        net,
        payments,
        funding,
        heights,
    })
}

/// One joiner's catch-up and restart.
struct Joined {
    wall_s: f64,
    synced: bool,
    restarted: bool,
}

/// Reopens a crashed joiner's datadir; true if it reports `expected` (tip and
/// commitment) within the deadline.
fn restart(
    datadir: &ScratchDir,
    config: EngineConfig,
    expected: (Hash256, Hash256),
    spans: &mut Spans,
) -> Result<bool, String> {
    let start = Instant::now();
    let opened = spans.time("storage.open", || {
        FileStorage::open(datadir.path(), storage_config(&config.params))
    });
    let (storage, recovery) = opened.map_err(|e| format!("reopen datadir: {e}"))?;
    let mut engine = spans.time("storage.restore", || Engine::restore(config, recovery));
    engine.set_batch_executor(ng_node::parallel::shared_pool());
    engine.set_storage(Box::new(storage));
    Ok(engine.tip() == expected.0
        && engine.utxo_commitment() == expected.1
        && start.elapsed() <= RESTART_DEADLINE)
}

pub fn run(seed: u64, run_seconds: u64, trace: bool) -> Result<Outcome, String> {
    let mut spans = Spans::new(trace);
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        let built = setup(seed, run_seconds, &mut spans)?;
        setup_times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    let Setup {
        mut net,
        payments,
        funding,
        heights,
    } = last.expect("at least one set-up");
    let params = params();
    let mut out = Outcome::default();
    let tip = net.engine(SERVER).tip();
    let commitment = net.engine(SERVER).utxo_commitment();
    let height = net.engine(SERVER).height();
    let wire_before = wire_stats(&net);

    // ---- timed phase: each joiner connects and catches up, then restarts ----
    let mut latencies: Vec<u64> = Vec::with_capacity(payments.len() * JOINERS);
    let mut joined = Vec::with_capacity(JOINERS);
    let mut joiners = Vec::with_capacity(JOINERS);
    let mut sig_cache = (0, 0);
    let mut chain = None;
    for _ in 0..JOINERS {
        let datadir = ScratchDir::new("joiner").map_err(|e| e.to_string())?;
        let joiner = net.add_node_with(|_| {});
        let (storage, _) = FileStorage::open(datadir.path(), storage_config(&params))
            .map_err(|e| format!("open datadir: {e}"))?;
        net.engine_mut(joiner).set_storage(Box::new(storage));
        net.engine_mut(joiner)
            .set_batch_executor(ng_node::parallel::shared_pool());
        joiners.push(joiner);

        let start_ms = net.now_ms();
        let started = Instant::now();
        net.connect(SERVER, joiner);
        let mut next = 0usize;
        let mut synced = false;
        while net.now_ms() < start_ms + SYNC_LIMIT_MS {
            spans.time("driver.run", || net.run(1));
            let engine = net.engine(joiner);
            let reached = engine.height();
            while next < heights.len() && heights[next] <= reached {
                latencies.push(net.now_ms() - start_ms);
                next += 1;
            }
            // The full commitment is costly, so it is compared only at the tip.
            if reached >= height && engine.tip() == tip && engine.utxo_commitment() == commitment {
                synced = true;
                break;
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        let (hits, misses) = net.engine(joiner).chainstate().sig_cache_stats();
        sig_cache = (sig_cache.0 + hits, sig_cache.1 + misses);
        if chain.is_none() {
            chain = Some(net.engine(joiner).node().chain().clone());
        }

        let config = net.engine(joiner).config().clone();
        drop(net.crash(joiner));
        let restarted = if joined.len() < RESTARTS {
            restart(&datadir, config, (tip, commitment), &mut spans)?
        } else {
            true
        };
        joined.push(Joined {
            wall_s,
            synced,
            restarted,
        });
    }
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 50.0);
    let p99 = percentile(&latencies, 99.0);

    // ---- correctness ----
    let chain = chain.expect("at least one joiner");
    let missed = joined.iter().filter(|j| !j.synced).count() as u64;
    let failed_restarts = joined.iter().filter(|j| !j.restarted).count() as u64;
    let unconfirmed = (payments.len() * JOINERS - latencies.len()) as u64;
    out.check(missed == 0, || {
        format!("{missed} joiners missed their catch-up deadline")
    });
    out.check(failed_restarts == 0, || {
        format!("{failed_restarts} restarts missed their tip or deadline")
    });
    out.check(unconfirmed == 0, || {
        format!("{unconfirmed} (payment, joiner) pairs never confirmed")
    });
    let funding = [funding];
    check_unique(&mut out, &occurrences(&chain), &payments, &funding);
    let total = net.engine(SERVER).utxo().total_value().sats();
    check_supply(&mut out, total, &chain, &params, &payments, &funding);

    let tally = counters_tally(&net, &joiners);
    let (msgs_after, bytes_after, relay_after) = wire_totals(&wire_stats(&net));
    let (msgs_before, bytes_before, relay_before) = wire_totals(&wire_before);
    out.pin("tip", tip);
    out.pin("commitment", commitment);
    out.pin("confirm_p50_vms", p50);
    out.pin("confirm_p99_vms", p99);
    out.pin("latency_samples", latencies.len());
    out.pin("wire_msgs", msgs_after - msgs_before);
    out.pin("wire_bytes", bytes_after - bytes_before);
    out.pin("sig_cache", format!("{sig_cache:?}"));
    out.pin("counters", format!("{tally:?}"));

    // Each payment is one operation; each catch-up and each restart another.
    out.attempted = (payments.len() + JOINERS + RESTARTS) as u64;
    out.failed = unconfirmed.min(payments.len() as u64) + missed + failed_restarts;

    let timed_s: f64 = joined.iter().map(|j| j.wall_s).sum();
    if trace {
        let replayed = replay::all(&params, chain, &payments, true, seed, commitment, &mut out)?;
        let (submit_total, submits) = spans.total_us("driver.submit");
        let (run_total, _) = spans.total_us("driver.run");
        let (build_total, builds) = spans.total_us("wallet.build");
        let inputs = LayerInputs {
            payments: payments.len(),
            nodes: JOINERS,
            tally,
            wire: (
                msgs_after - msgs_before,
                bytes_after - bytes_before,
                relay_after - relay_before,
            ),
            sig_cache,
            microblocks: payments.len().div_ceil(BLOCK_TXS),
            timed_s,
            submit_us: submit_total / submits.max(1) as f64,
            run_us_per_tx: run_total / (payments.len() * JOINERS).max(1) as f64,
            wallet_build_us: (builds > 0).then(|| build_total / builds as f64),
            open_us: spans.total_us("storage.open").0 / RESTARTS as f64,
            restore_us: spans.total_us("storage.restore").0 / RESTARTS as f64,
            catchup: true,
        };
        layers::report(&mut out, &inputs, &replayed);
    } else {
        let rates: Vec<f64> = joined
            .iter()
            .map(|j| payments.len() as f64 / j.wall_s)
            .collect();
        out.metric("setup_s", median(setup_times.clone()), "s", "wall");
        out.metric("tx_per_s", median(rates), "1/s", "wall");
        out.metric("confirm_p50_ms", p50 as f64, "ms", "virtual");
        out.metric("confirm_p99_ms", p99 as f64, "ms", "virtual");
        out.metric("rss_peak_mb", crate::common::rss_peak_mb(), "MB", "memory");
    }
    out.samples
        .insert("setup_s".into(), setup_times.len() as u64);
    out.samples.insert("tx_per_s".into(), JOINERS as u64);
    out.samples
        .insert("confirm_p50_ms".into(), latencies.len() as u64);
    out.samples
        .insert("confirm_p99_ms".into(), latencies.len() as u64);
    Ok(out)
}
