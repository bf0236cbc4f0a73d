//! Replays a finished run's own artefacts — its payments and its final main
//! chain — through each layer's public functions, one layer at a time, to get
//! that layer's unit cost on exactly this workload's data. Every replay also
//! checks its own result, so a layer that returns wrong answers fails the run.

use crate::common::{per_item_us, Outcome, ScratchDir};
use crate::payments::Payment;
use bytes::BytesMut;
use ng_chain::amount::Amount;
use ng_chain::mempool::Mempool;
use ng_chain::transaction::{OutPoint, Transaction, TxOutput};
use ng_core::block::NgBlock;
use ng_core::chain::NgChainState;
use ng_core::params::NgParams;
use ng_crypto::keys::KeyPair;
use ng_crypto::sha256::Hash256;
use ng_crypto::signer::SchnorrSigner;
use ng_net::codec::FrameCodec;
use ng_net::message::Message;
use ng_net::relay::{compact_announcement, CompactRelay, ReconstructOutcome};
use ng_node::chainstate::ChainView;
use ng_node::parallel::WorkerPool;
use ng_storage::{ChainStorage, FileStorage, StorageConfig};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Payments verified, and carried as `tx` frames, in the sampled replays.
const SAMPLE: usize = 1_000;
/// Signed copies made when a workload's payments carry no signatures.
const UNSIGNED_SAMPLE: usize = 256;
const SELECT_CALLS: usize = 20;

/// Unit costs (µs) and exact counts the replays produce.
#[derive(Debug, Default)]
pub struct Replayed {
    pub verify_us: f64,
    pub admit_us: f64,
    pub connect_us: f64,
    pub connect_pool_us: f64,
    /// Signature-cache `(hits, misses)` of the cold inline connect.
    pub connect_sig_cache: (u64, u64),
    /// Transactions on the main chain.
    pub chain_txs: u64,
    pub mempool_insert_us: f64,
    pub mempool_select_us: f64,
    pub reconstruct_us_per_block: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    /// Encoded `microblock` frame bytes per payment.
    pub codec_bytes_per_tx: f64,
    pub model_ratio: f64,
    pub append_us_per_block: f64,
    pub storage_bytes_per_tx: f64,
    pub wallet_build_us: f64,
}

/// Runs every replay. `signed` says whether the payments carry signatures;
/// `commitment` is the run's final UTXO commitment, which the cold connects
/// must reproduce.
pub fn all(
    params: &NgParams,
    chain: NgChainState,
    payments: &[Payment],
    signed: bool,
    seed: u64,
    commitment: Hash256,
    out: &mut Outcome,
) -> Result<Replayed, String> {
    let mut r = Replayed {
        verify_us: verify(payments, signed, out),
        admit_us: admit(params, &chain, out),
        ..Replayed::default()
    };
    let (inline_us, sig_cache, connected) = connect(params, &chain, None, commitment, out);
    r.connect_us = inline_us;
    r.connect_sig_cache = sig_cache;
    r.connect_pool_us = connect(
        params,
        &chain,
        Some(Arc::new(WorkerPool::new(2))),
        commitment,
        out,
    )
    .0;
    let (insert, select) = mempool(params, payments);
    r.mempool_insert_us = insert;
    r.mempool_select_us = select;
    r.reconstruct_us_per_block = reconstruct(&connected, out);
    codec(&connected, payments, &mut r, out);
    storage(params, &connected, &mut r)?;
    r.wallet_build_us = wallet_build(seed);
    Ok(r)
}

fn main_chain_blocks(chain: &NgChainState) -> Vec<(Hash256, u64, NgBlock)> {
    chain
        .store()
        .main_chain()
        .into_iter()
        .skip(1) // genesis
        .filter_map(|id| {
            let height = chain.store().height_of(&id)?;
            Some((id, height, chain.get(&id)?.clone()))
        })
        .collect()
}

fn block_txs(block: &NgBlock) -> &[Transaction] {
    block
        .as_micro()
        .and_then(|m| m.payload.transactions())
        .unwrap_or(&[])
}

/// µs per `Transaction::verify_input`. Unsigned payments are first signed
/// with a throwaway key so the replay still times a real verification.
fn verify(payments: &[Payment], signed: bool, out: &mut Outcome) -> f64 {
    let sample: Vec<(Transaction, Vec<TxOutput>)> = if signed {
        payments
            .iter()
            .take(SAMPLE)
            .map(|p| (p.tx.clone(), p.spent.clone()))
            .collect()
    } else {
        let keys = KeyPair::from_id(0x5eed);
        let signer = SchnorrSigner::new(keys);
        payments
            .iter()
            .take(UNSIGNED_SAMPLE)
            .map(|p| {
                let mut tx = p.tx.clone();
                tx.sign_all_inputs(&signer);
                let spent = p
                    .spent
                    .iter()
                    .map(|o| TxOutput::new(o.amount, keys.address()))
                    .collect();
                (tx, spent)
            })
            .collect()
    };
    let inputs: usize = sample.iter().map(|(tx, _)| tx.inputs.len()).sum();
    let mut bad = 0usize;
    let us = per_item_us(inputs, || {
        for (tx, spent) in &sample {
            for (i, output) in spent.iter().enumerate() {
                if !black_box(tx.verify_input(i, output)) {
                    bad += 1;
                }
            }
        }
    });
    out.check(bad == 0, || {
        format!("{bad} payment signatures failed to verify")
    });
    us
}

/// µs per `ChainView` admission of each main-chain transaction on a fresh
/// view (cold signature cache), walking the chain block by block so every
/// input exists; inputs created earlier in the same block resolve the way the
/// engine resolves pending parents.
fn admit(params: &NgParams, chain: &NgChainState, out: &mut Outcome) -> f64 {
    let mut chain = chain.clone();
    let mut view = ChainView::new(params, chain.genesis_id());
    let mut total = Duration::ZERO;
    let mut admitted = 0usize;
    let mut refused = 0usize;
    for (id, height, block) in main_chain_blocks(&chain) {
        let mut created: HashMap<OutPoint, TxOutput> = HashMap::new();
        for tx in block_txs(&block) {
            let start = Instant::now();
            let fee = if params.validate_transactions {
                let resolve = |outpoint: &OutPoint| created.get(outpoint).copied();
                view.chained_admission_fee(tx, height, &resolve)
            } else {
                view.admission_fee(tx, height)
            };
            total += start.elapsed();
            admitted += 1;
            if black_box(fee).is_err() {
                refused += 1;
            }
            let txid = tx.txid();
            for (vout, output) in tx.outputs.iter().enumerate() {
                created.insert(OutPoint::new(txid, vout as u32), *output);
            }
        }
        if view.sync_to(&mut chain, id).is_err() {
            refused += 1;
        }
    }
    out.check(refused == 0, || {
        format!("{refused} main-chain transactions refused on admission replay")
    });
    total.as_secs_f64() * 1e6 / admitted.max(1) as f64
}

/// µs per transaction of a cold `ChainView::sync` over the whole main chain,
/// and the view's signature-cache `(hits, misses)`. Returns the chain with its
/// undo records filled, for the storage replay.
fn connect(
    params: &NgParams,
    chain: &NgChainState,
    pool: Option<Arc<WorkerPool>>,
    commitment: Hash256,
    out: &mut Outcome,
) -> (f64, (u64, u64), NgChainState) {
    let mut chain = chain.clone();
    let txs: u64 = main_chain_blocks(&chain)
        .iter()
        .map(|(_, _, b)| b.tx_count())
        .sum();
    let mut view = ChainView::new(params, chain.genesis_id());
    if let Some(pool) = pool {
        view.set_batch_executor(pool);
    }
    let start = Instant::now();
    let synced = view.sync(&mut chain);
    let us = start.elapsed().as_secs_f64() * 1e6 / txs.max(1) as f64;
    out.check(
        synced.is_ok() && view.utxo().commitment() == commitment,
        || "cold connect replay did not reproduce the run's UTXO commitment".into(),
    );
    (us, view.sig_cache_stats(), chain)
}

/// µs per `Mempool::insert_with_fee` of every payment into a fresh pool, and
/// µs per `select_fifo` (the engine's microblock selection) on the full pool.
fn mempool(params: &NgParams, payments: &[Payment]) -> (f64, f64) {
    let entries: Vec<(Transaction, Amount)> =
        payments.iter().map(|p| (p.tx.clone(), p.fee)).collect();
    let mut pool = Mempool::new();
    let insert = per_item_us(entries.len(), || {
        for (tx, fee) in entries {
            black_box(pool.insert_with_fee(tx, fee));
        }
    });
    let budget = params.max_microblock_payload_bytes() as usize;
    let select = per_item_us(SELECT_CALLS, || {
        for _ in 0..SELECT_CALLS {
            black_box(pool.select_fifo(budget));
        }
    });
    (insert, select)
}

/// µs per block of `compact_announcement` plus `CompactRelay::begin` against
/// a mempool that holds the block's transactions.
fn reconstruct(chain: &NgChainState, out: &mut Outcome) -> f64 {
    let mut samples = Vec::new();
    let mut failed = 0usize;
    for (_, _, block) in main_chain_blocks(chain) {
        let txs = block_txs(&block);
        let NgBlock::Micro(micro) = block.clone() else {
            continue;
        };
        if txs.is_empty() {
            continue;
        }
        let mut pool = Mempool::new();
        for tx in txs {
            pool.insert_with_fee(tx.clone(), Amount::ZERO);
        }
        let carrier = Message::MicroBlock(Box::new(micro));
        let start = Instant::now();
        let outcome = match compact_announcement(1, &carrier) {
            Message::CmpctBlock(compact) => Some(CompactRelay::new().begin(*compact, &pool, 0)),
            _ => None,
        };
        samples.push(start.elapsed().as_secs_f64() * 1e6);
        if !matches!(outcome, Some(ReconstructOutcome::Complete(_))) {
            failed += 1;
        }
    }
    out.check(failed == 0, || {
        format!("{failed} compact reconstructions did not complete")
    });
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Encode and decode cost of the chain's `microblock` carriers and a sample
/// of `tx` carriers through the TCP frame codec, with the byte counts.
fn codec(chain: &NgChainState, payments: &[Payment], r: &mut Replayed, out: &mut Outcome) {
    let codec = FrameCodec::default();
    let mut carriers: Vec<Message> = main_chain_blocks(chain)
        .into_iter()
        .filter_map(|(_, _, block)| match block {
            NgBlock::Micro(micro) if micro.payload.tx_count() > 0 => {
                Some(Message::MicroBlock(Box::new(micro)))
            }
            _ => None,
        })
        .collect();
    let micro_count = carriers.len();
    let chain_txs: u64 = carriers
        .iter()
        .map(|m| match m {
            Message::MicroBlock(micro) => micro.payload.tx_count(),
            _ => 0,
        })
        .sum();
    let tx_sample = payments.len().min(SAMPLE);
    carriers.extend(
        payments
            .iter()
            .take(tx_sample)
            .map(|p| Message::Tx(Box::new(p.tx.clone()))),
    );

    let mut encode = [Duration::ZERO; 2];
    let mut decode = [Duration::ZERO; 2];
    let mut bytes = [0u64; 2];
    let mut model = 0u64;
    let mut mismatched = 0usize;
    for (i, message) in carriers.iter().enumerate() {
        let kind = usize::from(i >= micro_count);
        let start = Instant::now();
        let frame = codec.encode(message);
        encode[kind] += start.elapsed();
        let Ok(frame) = frame else {
            mismatched += 1;
            continue;
        };
        bytes[kind] += frame.len() as u64;
        model += message.wire_size();
        let mut buffer = BytesMut::from(&frame[..]);
        let start = Instant::now();
        let decoded = codec.decode(&mut buffer);
        decode[kind] += start.elapsed();
        if !matches!(decoded, Ok(Some(ref m)) if m == message) {
            mismatched += 1;
        }
    }
    out.check(mismatched == 0, || {
        format!("{mismatched} carriers failed the codec round trip")
    });
    let per_payment = |micro: Duration, tx: Duration| {
        micro.as_secs_f64() * 1e6 / chain_txs.max(1) as f64
            + tx.as_secs_f64() * 1e6 / tx_sample.max(1) as f64
    };
    r.encode_us = per_payment(encode[0], encode[1]);
    r.decode_us = per_payment(decode[0], decode[1]);
    r.codec_bytes_per_tx = bytes[0] as f64 / chain_txs.max(1) as f64;
    r.model_ratio = (bytes[0] + bytes[1]) as f64 / model.max(1) as f64;
}

/// µs per block of `store_block` plus `store_undo` into a fresh `FileStorage`,
/// and the bytes it wrote per transaction.
fn storage(params: &NgParams, chain: &NgChainState, r: &mut Replayed) -> Result<(), String> {
    let dir = ScratchDir::new("append").map_err(|e| e.to_string())?;
    let config = StorageConfig {
        finality_depth: params.finality_depth,
        fsync: false,
    };
    let (mut storage, _) = FileStorage::open(dir.path(), config).map_err(|e| e.to_string())?;
    let blocks = main_chain_blocks(chain);
    let txs: u64 = blocks.iter().map(|(_, _, b)| b.tx_count()).sum();
    let start = Instant::now();
    for (id, height, block) in &blocks {
        storage
            .store_block(block, *height)
            .map_err(|e| e.to_string())?;
        if let Some(undo) = chain.undo_of(id) {
            storage
                .store_undo(id, *height, undo)
                .map_err(|e| e.to_string())?;
        }
    }
    r.append_us_per_block = start.elapsed().as_secs_f64() * 1e6 / blocks.len().max(1) as f64;
    let (b, u, w) = storage.file_lengths().map_err(|e| e.to_string())?;
    r.storage_bytes_per_tx = (b + u + w) as f64 / txs.max(1) as f64;
    r.chain_txs = txs;
    Ok(())
}

/// µs per `PaymentBuilder::pay` on fresh wallets, for workloads whose own
/// set-up builds no signed payments.
fn wallet_build(seed: u64) -> f64 {
    let mut wallets: Vec<crate::payments::Wallet> = (0..8)
        .map(|i| {
            let mut w = crate::payments::Wallet::new(seed ^ 0x77, i);
            w.receive(
                OutPoint::new(ng_crypto::sha256::sha256(&(i as u64).to_le_bytes()), 0),
                Amount::from_coins(1),
            );
            w
        })
        .collect();
    let mut spans = crate::common::Spans::new(true);
    crate::payments::signed_chain(&mut wallets, UNSIGNED_SAMPLE, seed, &mut spans);
    let (total, calls) = spans.total_us("wallet.build");
    total / calls.max(1) as f64
}
