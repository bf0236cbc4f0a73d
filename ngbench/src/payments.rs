//! Payment generation. Signed payments come from `ng_wallet`, the way a user's
//! machine would build them; synthetic payments are unsigned transfers for
//! workloads that run with validation off. Either way each payment is one
//! input and two outputs (amount, change), and every input is a real output, so
//! the ledger's value stays conserved and checkable.

use crate::common::Spans;
use ng_chain::amount::Amount;
use ng_chain::transaction::{OutPoint, Transaction, TransactionBuilder, TxOutput};
use ng_crypto::keys::{Address, KeyPair};
use ng_crypto::rng::SimRng;
use ng_crypto::sha256::Hash256;
use ng_crypto::signer::SchnorrSigner;
use ng_wallet::{CoinStore, Keystore, OwnedCoin, PaymentBuilder};

/// One payment and what the benchmark needs to check and replay it.
#[derive(Clone, Debug)]
pub struct Payment {
    pub tx: Transaction,
    pub txid: Hash256,
    /// The outputs its inputs spend, in input order.
    pub spent: Vec<TxOutput>,
    pub fee: Amount,
}

impl Payment {
    fn new(tx: Transaction, spent: Vec<TxOutput>) -> Self {
        let input: u64 = spent.iter().map(|o| o.amount.sats()).sum();
        let fee = Amount::from_sats(input - tx.total_output().sats());
        Payment {
            txid: tx.txid(),
            tx,
            spent,
            fee,
        }
    }
}

/// Smallest and largest amount a payment sends, in sats.
const AMOUNT_RANGE: (u64, u64) = (1_000, 20_000);

/// A transaction that splits `coin` into one output of `each` per address,
/// plus a change output carrying the remainder back to the coin's address,
/// signed by `owner` when given.
pub fn split(
    coin: (OutPoint, TxOutput),
    addresses: &[Address],
    each: Amount,
    fee: Amount,
    owner: Option<&KeyPair>,
) -> Payment {
    let (outpoint, spent) = coin;
    let mut builder = TransactionBuilder::new().input(outpoint);
    for address in addresses {
        builder = builder.output(each, *address);
    }
    let used = each.sats() * addresses.len() as u64 + fee.sats();
    let change = spent.amount.sats() - used;
    builder = builder.output(Amount::from_sats(change), spent.address);
    let mut tx = builder.build();
    if let Some(keys) = owner {
        tx.sign_all_inputs(&SchnorrSigner::new(*keys));
    }
    Payment::new(tx, vec![spent])
}

/// A user wallet: its keys, its coins, and its receive address.
pub struct Wallet {
    keystore: Keystore,
    coins: CoinStore,
    address: Address,
}

impl Wallet {
    pub fn new(seed: u64, index: usize) -> Self {
        let mut keystore = Keystore::from_seed(format!("ngbench/{seed}/{index}").as_bytes());
        let address = keystore.new_address(None).address;
        Wallet {
            keystore,
            coins: CoinStore::with_maturity(0),
            address,
        }
    }

    pub fn address(&self) -> Address {
        self.address
    }

    pub fn receive(&mut self, outpoint: OutPoint, amount: Amount) {
        self.coins.add(OwnedCoin {
            outpoint,
            amount,
            address: self.address,
            height: 0,
            coinbase: false,
        });
    }
}

/// Builds `count` chained signed payments, round-robin over `wallets`: each
/// wallet's next payment spends the change of its previous one. Recipients
/// and amounts come from `seed`. Each `PaymentBuilder::pay` call is one
/// `wallet.build` span.
pub fn signed_chain(
    wallets: &mut [Wallet],
    count: usize,
    seed: u64,
    spans: &mut Spans,
) -> Vec<Payment> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x7061_796d_656e_7473);
    let builder = PaymentBuilder::default();
    let addresses: Vec<Address> = wallets.iter().map(Wallet::address).collect();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let w = i % wallets.len();
        let to = addresses
            [(w + 1 + rng.range_u64(0, wallets.len() as u64 - 1) as usize) % wallets.len()];
        let amount = Amount::from_sats(rng.range_u64(AMOUNT_RANGE.0, AMOUNT_RANGE.1));
        let wallet = &mut wallets[w];
        let built = spans
            .time("wallet.build", || {
                builder.pay(
                    &mut wallet.coins,
                    &wallet.keystore,
                    0,
                    to,
                    amount,
                    wallet.address,
                )
            })
            .expect("every wallet is funded for the whole run");
        let spent: Vec<TxOutput> = built
            .spent
            .iter()
            .map(|coin| TxOutput::new(coin.amount, coin.address))
            .collect();
        for coin in &built.spent {
            wallet.coins.remove(&coin.outpoint);
        }
        let payment = Payment::new(built.tx, spent);
        if !built.change.is_zero() {
            wallet.receive(OutPoint::new(payment.txid, 1), built.change);
        }
        out.push(payment);
    }
    out
}

/// Builds one unsigned payment per funding coin: an amount to one of
/// `recipients` and the change back to the coin's address.
pub fn unsigned_spends(
    coins: &[(OutPoint, TxOutput)],
    recipients: &[Address],
    fee: Amount,
    seed: u64,
) -> Vec<Payment> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x7379_6e74_6865_7469);
    coins
        .iter()
        .map(|(outpoint, spent)| {
            let to = recipients[rng.range_u64(0, recipients.len() as u64) as usize];
            let amount = rng.range_u64(AMOUNT_RANGE.0, AMOUNT_RANGE.1);
            let change = spent.amount.sats() - amount - fee.sats();
            let tx = TransactionBuilder::new()
                .input(*outpoint)
                .output(Amount::from_sats(amount), to)
                .output(Amount::from_sats(change), spent.address)
                .build();
            Payment::new(tx, vec![*spent])
        })
        .collect()
}
