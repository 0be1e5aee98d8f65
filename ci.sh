#!/usr/bin/env sh
# Local mirror of .github/workflows/ci.yml (minus the fmt check, which
# needs a rustfmt matching the repo's edition settings).
set -eu

cargo build --release
cargo test -q
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings

# DOM identity at the Full profile: parse(write(doc)) must reproduce the
# generated DBLP, TreeBank and XMark documents node by node (labels,
# regions, text, attributes). The Quick variant runs in the workspace
# tests above; this is the #[ignore]d full-size one, in release.
cargo test --release -q -p twigbench --test dom_identity -- --ignored

# Notifications at the Full profile: the edit-churn workload's four
# standing queries on XMark under a 30-edit record chain; every
# notification must equal the brute-force delta, op by op and batched.
# The Quick variant runs in the workspace tests above.
cargo test --release -q -p twigbench --test notification_oracle -- --ignored

# Bounded fuzz smoke: fixed seed, all dataset generators, release build
# (~seconds). The corpus is replayed separately by `cargo test` above;
# this stage runs fresh pairs and fails on any invariant violation.
cargo run --release -q -p twigbench --bin twigfuzz -- \
    --seed 0xC1 --cases 400 --profile ci-smoke

# Edit-script fuzz smoke: the edited_vs_rebuilt invariant alone over 175
# pairs per dataset (700 seeded edit scripts — the floor is 500). Each
# script chains random inserts/deletes/replaces (root-adjacent and
# empty-document edges included) and asserts the incrementally
# maintained index stays byte-equal to a rebuild after every step, and
# that a subscription service driven by the same script publishes
# exactly the brute-force notification deltas.
cargo run --release -q -p twigbench --bin twigfuzz -- \
    --seed 0xED17 --cases 175 --invariant edited_vs_rebuilt \
    --profile ci-edit-smoke

# Subscription fuzz smoke: the subscribed_vs_solo invariant alone over
# 200 (document, query) pairs per dataset. Each pair derives a small
# registry (the query, a wildcard sibling, a duplicate registration),
# runs one shared-automaton pass, and asserts every subscription's
# results are byte-equal to its solo run on both the DOM and streaming
# paths, duplicates agree, and matcher feeds stay within the sharing
# bound.
cargo run --release -q -p twigbench --bin twigfuzz -- \
    --seed 0x5B --cases 200 --invariant subscribed_vs_solo \
    --profile ci-sub-smoke

# Figure S smoke: every figure-16 query through every algorithm's indexed
# driver with pruning on and off; the driver asserts the result sets are
# identical per cell, so this fails on any pruning soundness regression.
cargo run --release -q -p twigbench --bin experiments -- --quick figS \
    > /dev/null

# Figure M smoke: the mapped (v3) index vs the heap index on every
# dataset; the driver asserts per dataset that the two arms return
# identical result sets and identical stream counters (scanned, pruned,
# skips), so this fails on any zero-copy read-path divergence.
cargo run --release -q -p twigbench --bin experiments -- --quick figM \
    > /dev/null

# Serve smoke: the fixed-workload query service sweep (threads 1/2/4,
# plan cache off/on). The driver asserts per cell that concurrent cached
# results equal serial evaluation, zero requests were rejected, the
# cached arm scored hits, and it ran strictly fewer plan analyses than
# the uncached arm.
cargo run --release -q -p twigbench --bin experiments -- --quick figT \
    > /dev/null

# Figure A smoke: the cost-based planner over every figure-16 query on
# all three datasets. The driver asserts per cell that the adaptive arm
# is byte-equal to both fixed-pruning arms, that adaptive wall clock stays
# within 1.1x of the faster fixed arm, and that the planner disables
# pruning on XMark-Q2 (the measured pruning-hurts case) — so this fails
# on any cost-model or decision regression.
cargo run --release -q -p twigbench --bin experiments -- --quick figA \
    > /dev/null

# Figure E smoke: the incremental edit chain vs rebuild-from-scratch on
# every dataset. The driver asserts per step that a patched apply
# reindexes no more than the document size, per cell that the
# incremental and rebuilt indexes return identical result sets, per
# dataset that total incremental reindex work stays at or below the
# rebuild arm's, and that rotation never blocked or shed a concurrent
# reader — so this fails on any edit-path correctness or cost
# regression.
cargo run --release -q -p twigbench --bin experiments -- --quick figE \
    > /dev/null

# Figure U smoke: the sharded catalog under mixed traffic (240 fixed-
# seed documents at --quick). The driver asserts per query that
# scatter-gather results are byte-equal to serial per-document
# iteration and that no matching document was dropped by the Bloom
# router, plus the skip-rate, schema-plan-amortization, and >=2x
# 4-worker throughput contracts — so this fails on any routing,
# merge-order, or catalog performance regression.
cargo run --release -q -p twigbench --bin experiments -- --quick figU \
    > /dev/null

# Figure V smoke: 100 standing subscriptions through one shared
# prefix-merged automaton vs per-query solo streaming runs. The driver
# asserts byte-equality for every subscription at every registry size
# before timing, then the >=4x-over-solo-at-100 and sublinear-growth
# contracts — so this fails on any shared-dispatch soundness or
# amortization regression.
cargo run --release -q -p twigbench --bin experiments -- --quick figV \
    > /dev/null

# Docs freshness: every crates/... path ARCHITECTURE.md cites must exist
# and every workspace crate must be mentioned there.
sh scripts/check_docs.sh

# Documentation: the public API must be fully documented (the in-repo
# crates set `#![warn(missing_docs)]`; -D warnings turns that fatal) and
# every doc example must run. Third-party stubs are excluded — they are
# offline API shims, not part of the documented surface.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p xmldom -p gtpquery -p xmlindex -p xmlgen \
    -p twig2stack -p twigbaselines -p twig2stack-serve -p twig2stack-obs \
    -p twigbench -p twig2stack-fuzz
cargo test --workspace -q --doc

echo "ci.sh: all checks passed"
