//! Frequent itemset mining for Shahin.
//!
//! Shahin's central heuristic (paper §3) mines frequent itemsets over a
//! uniform sample of the batch to be explained: sets of
//! `attribute = value` pairs that co-occur in many tuples are the most
//! promising perturbation "freezes" to pre-materialize, because many tuples
//! will be able to reuse them.
//!
//! This crate provides:
//!
//! * [`Item`] / [`Itemset`] — `attribute = discretized-code` pairs,
//! * [`apriori()`] — level-wise Apriori mining over a [`DiscreteTable`],
//!   returning frequent itemsets *and* their negative border (needed by the
//!   streaming variant, paper §3.5),
//! * [`BitsetDomain`] — answers "which frequent itemsets are contained in
//!   this tuple?": tracked items are dictionary-encoded so tuples and
//!   itemsets become `[u64; W]` masks and containment is a handful of
//!   AND/EQ word ops,
//! * [`shahin_sample_size`] / [`sample_rows`] — the paper's
//!   `max(1000, 1% of batch)` sampling rule.
//!
//! [`DiscreteTable`]: shahin_tabular::DiscreteTable

pub mod apriori;
pub mod bitset;
pub mod item;
pub mod sample;

pub use apriori::{apriori, AprioriParams, AprioriResult};
pub use bitset::{BitsetDomain, MatchScratch};
pub use item::{Item, Itemset};
pub use sample::{sample_rows, shahin_sample_size};
