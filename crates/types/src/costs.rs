//! The resource model: message sizes, cryptographic CPU costs, execution
//! speed, and NIC bandwidth.
//!
//! All constants default to the values §6.1 of the paper reports for
//! Apache ResilientDB on the Oracle Cloud e3 machines:
//!
//! * a proposal carrying a 100-transaction batch is **5400 B**;
//! * a client reply for 100 transactions is **1748 B**;
//! * every other replication message is **432 B**;
//! * sequential execution tops out at **340 ktxn/s**;
//! * replicas have **16 cores** at 3.4 GHz and (per Figure 14(b)) NICs
//!   shaped between 500 and 4000 Mbit/s — we default to 4000 Mbit/s,
//!   the unshaped operating point of the other experiments.
//!
//! Cryptographic costs are single-core latencies of Ed25519/SHA-256
//! class primitives on that hardware; the absolute values matter less
//! than their ratios (a signature verification is ~2 orders of magnitude
//! more expensive than a MAC), which is what drives the paper's
//! HotStuff-vs-SpotLess and Narwhal-HS CPU-bottleneck findings. The
//! repo's own from-scratch Ed25519 is faster than these defaults: the
//! `sig_verify` bench measures ≈ 17 µs sign / ≈ 27 µs serial verify over
//! a signing digest on a 2-vCPU x86-64 box with the SHA extensions, and
//! floors a one-sender 32-envelope batch at 1.25× the serial rate. The
//! 2× batch amortization [`CryptoCosts::batch_verify_k`] models is
//! therefore unmeasured; fitting these constants to the deployment is
//! ROADMAP item 8. They stay as they are until then, because the
//! simulator's pinned message and view counts depend on them.

/// Single-core CPU costs of cryptographic operations, in nanoseconds.
///
/// A signature's cost is flat plus hashing, which is how the message
/// types charge it (`verify_cost` = `verify_ns` + `hash_ns_per_byte` ×
/// body for a proposal): the deployment signs and verifies Ed25519 over
/// the message's 32-byte SHA-256 signing digest
/// (`spotless_crypto::signing::signing_digest`), so the curve work
/// `sign_ns`/`verify_ns` stands for does not grow with the message, and
/// the one pass over the message is SHA-256 at `hash_ns_per_byte`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CryptoCosts {
    /// Producing one digital signature (Ed25519-class) over a digest:
    /// the flat part, independent of the message's length.
    pub sign_ns: u64,
    /// Verifying one digital signature serially over a digest: the
    /// flat part.
    pub verify_ns: u64,
    /// Generating or verifying one MAC (HMAC-SHA256-class).
    pub mac_ns: u64,
    /// Hashing, per byte (batch digests, chain digests, and the signing
    /// digest every signature covers).
    pub hash_ns_per_byte: u64,
}

impl Default for CryptoCosts {
    fn default() -> Self {
        CryptoCosts {
            sign_ns: 35_000,
            verify_ns: 80_000,
            mac_ns: 900,
            hash_ns_per_byte: 3,
        }
    }
}

impl CryptoCosts {
    /// Cost of verifying `k` signatures serially (e.g. a HotStuff
    /// certificate represented as a list of `n − f` signatures, per
    /// §6.2 — the baselines verify one at a time, as the paper's
    /// deployment did).
    #[inline]
    pub fn verify_k(&self, k: u32) -> u64 {
        self.verify_ns * u64::from(k)
    }

    /// Cost of verifying `k` signatures in one batched pass (randomized
    /// linear combination over a shared doubling chain — the path the
    /// runtime's certificate re-checks take). The 2× amortization is a
    /// model figure, not a measurement: `benches/sig_verify.rs` floors
    /// the real implementation's one-sender 32-envelope batch at 1.25×
    /// (ROADMAP item 8). A single signature gains nothing from batching.
    #[inline]
    pub fn batch_verify_k(&self, k: u32) -> u64 {
        if k <= 1 {
            self.verify_k(k)
        } else {
            self.verify_k(k) / 2
        }
    }
}

/// Wire-size model for protocol messages, calibrated to §6.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeModel {
    /// Fixed size of a replication message that carries no batch and no
    /// certificate (PBFT prepare/commit, SpotLess `Sync`, HotStuff vote).
    pub protocol_msg: u64,
    /// Per-transaction framing overhead inside a proposal, added to the
    /// transaction payload itself. With the defaults, a 100 × 48 B batch
    /// proposal is `432 + 100 · (48 + 2) = 5432 B ≈ 5400 B`.
    pub per_txn_overhead: u64,
    /// Fixed part of a client reply (`Inform`).
    pub reply_base: u64,
    /// Per-transaction part of a client reply. Defaults give
    /// `48 + 100 · 17 = 1748 B`, the paper's reply size.
    pub reply_per_txn: u64,
    /// Size of one digital signature on the wire.
    pub signature: u64,
    /// Size of one digest on the wire.
    pub digest: u64,
}

impl Default for SizeModel {
    fn default() -> Self {
        SizeModel {
            protocol_msg: 432,
            per_txn_overhead: 2,
            reply_base: 48,
            reply_per_txn: 17,
            signature: 64,
            digest: 32,
        }
    }
}

impl SizeModel {
    /// Size of a proposal carrying `txns` transactions of `txn_size` bytes.
    #[inline]
    pub fn proposal(&self, txns: u32, txn_size: u32) -> u64 {
        self.protocol_msg + u64::from(txns) * (u64::from(txn_size) + self.per_txn_overhead)
    }

    /// Size of a certificate of `k` signatures attached to a message.
    #[inline]
    pub fn certificate(&self, k: u32) -> u64 {
        u64::from(k) * (self.signature + self.digest)
    }

    /// Size of a client reply for a `txns`-transaction batch.
    #[inline]
    pub fn reply(&self, txns: u32) -> u64 {
        self.reply_base + u64::from(txns) * self.reply_per_txn
    }
}

/// Per-replica hardware model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResourceModel {
    /// Number of CPU cores available to consensus (Figure 14(a) varies
    /// this between 4 and 32; machines default to 16).
    pub cores: u32,
    /// Outbound/inbound NIC bandwidth in bits per second (Figure 14(b)
    /// varies 500–4000 Mbit/s).
    pub nic_bps: u64,
    /// Single-core nanoseconds to execute one transaction. The paper's
    /// sequential execution ceiling is 340 ktxn/s ⇒ ~2941 ns/txn.
    pub exec_ns_per_txn: u64,
    /// Base CPU nanoseconds to handle any delivered message, independent
    /// of authentication (deserialization, dispatch, bookkeeping).
    pub handle_ns: u64,
    /// Cryptographic cost table.
    pub crypto: CryptoCosts,
    /// Message size table.
    pub sizes: SizeModel,
}

impl Default for ResourceModel {
    fn default() -> Self {
        ResourceModel {
            cores: 16,
            nic_bps: 4_000_000_000,
            exec_ns_per_txn: 2_941,
            handle_ns: 1_500,
            crypto: CryptoCosts::default(),
            sizes: SizeModel::default(),
        }
    }
}

impl ResourceModel {
    /// Nanoseconds the NIC needs to serialize `bytes` onto the wire.
    #[inline]
    pub fn tx_ns(&self, bytes: u64) -> u64 {
        // bytes * 8 bits / (bits/s) in nanoseconds = bytes * 8e9 / bps.
        bytes.saturating_mul(8_000_000_000) / self.nic_bps
    }

    /// Sets the NIC bandwidth in Mbit/s (Figure 14(b) units).
    pub fn with_bandwidth_mbps(mut self, mbps: u64) -> Self {
        self.nic_bps = mbps * 1_000_000;
        self
    }

    /// Sets the core count (Figure 14(a) units).
    pub fn with_cores(mut self, cores: u32) -> Self {
        assert!(cores >= 1);
        self.cores = cores;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sizes_match_section_6_1() {
        let s = SizeModel::default();
        // 100 txn × 48 B batch ⇒ ~5400 B proposal.
        let p = s.proposal(100, 48);
        assert!((5300..=5500).contains(&p), "proposal size {p}");
        // 100-transaction reply ⇒ 1748 B.
        assert_eq!(s.reply(100), 1748);
        // Non-batch messages are 432 B.
        assert_eq!(s.protocol_msg, 432);
    }

    #[test]
    fn default_execution_ceiling_is_340k() {
        let r = ResourceModel::default();
        let per_sec = 1_000_000_000 / r.exec_ns_per_txn;
        assert!((335_000..=345_000).contains(&per_sec), "{per_sec}");
    }

    #[test]
    fn tx_time_is_linear_in_bytes() {
        let r = ResourceModel::default().with_bandwidth_mbps(1000);
        // 1 Gbit/s: 1250 bytes take 10 µs.
        assert_eq!(r.tx_ns(1250), 10_000);
        assert_eq!(r.tx_ns(0), 0);
    }

    #[test]
    fn signature_much_slower_than_mac() {
        let c = CryptoCosts::default();
        assert!(c.verify_ns > 50 * c.mac_ns);
        assert!(
            c.sign_ns < c.verify_ns,
            "Ed25519 signs cheaper than it verifies"
        );
        assert_eq!(c.verify_k(3), 3 * c.verify_ns);
    }

    #[test]
    fn batch_verification_halves_quorum_cost() {
        let c = CryptoCosts::default();
        assert_eq!(c.batch_verify_k(0), 0);
        assert_eq!(
            c.batch_verify_k(1),
            c.verify_ns,
            "no gain for a single signature"
        );
        assert_eq!(c.batch_verify_k(64), 32 * c.verify_ns);
        assert!(c.batch_verify_k(3) < c.verify_k(3));
    }

    #[test]
    fn builders() {
        let r = ResourceModel::default()
            .with_cores(4)
            .with_bandwidth_mbps(500);
        assert_eq!(r.cores, 4);
        assert_eq!(r.nic_bps, 500_000_000);
    }
}
