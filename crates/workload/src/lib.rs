//! Workload substrate for the SpotLess evaluation: YCSB generation, the
//! replicated key-value execution engine, and client-side batching.
//!
//! Matches the paper's §6 setup: a YCSB table of 500 000 records, 90 %
//! writes, transactions grouped ~100 per batch, transaction sizes swept
//! from 48 B to 1600 B in the Figure 7(d) experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod kv;
pub mod ycsb;

pub use batch::{decode_txns, encode_txns, Batcher};
pub use kv::{
    batch_bucket_footprint, bucket_leaf_digest, bucket_of, record_digest, shard_of_bucket,
    shard_of_key, verify_bucket, BucketFootprint, ExecResult, KvStore, StateChunk, StateProver,
    EXEC_SHARDS, META_LEAF, SHARD_BUCKETS, STATE_BUCKETS,
};
pub use ycsb::{Operation, Transaction, WorkloadGen, YcsbConfig};
