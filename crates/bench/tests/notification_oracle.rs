//! Subscription notifications at corpus scale: the four standing queries
//! of the `edit-churn` workload (XMark-Q1–Q3 and Figure 19(b)) on XMark,
//! under a seeded chain of record-level edits (insert a copy of a
//! `person`/`item`/`open_auction`/`closed_auction` record, delete one,
//! replace one with a copy of another). Every notification must equal the
//! brute-force delta of `twigfuzz::expected_notification`, op by op and
//! as one batch, and every published match set must equal a solo
//! evaluation (`twigfuzz::check_notifications`).
//!
//! `Profile::Quick` runs in the default suite; the `Profile::Full`
//! variant is `#[ignore]`d and runs in CI's release stage:
//! `cargo test --release -p twigbench --test notification_oracle -- --ignored`.

use twigbench::workload::{fig19_variants, xmark, xmark_queries, Profile};
use twigfuzz::{check_notifications, Outcome};
use xmldom::{apply_op, Document, EditOp};

const RECORDS: [&str; 4] = ["person", "item", "open_auction", "closed_auction"];

/// splitmix64 draw in `0..bound`: a fixed, dependency-free sequence.
fn draw(state: &mut u64, bound: usize) -> usize {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) % bound as u64) as usize
}

/// `count` seeded record edits, each addressing the document as the
/// previous ones left it (simulated on a copy), and the edited document.
/// Deletes need at least 8 records of the kind, so no record kind dies
/// out.
fn record_edits(doc: &Document, mut seed: u64, count: usize) -> (Vec<EditOp>, Document) {
    let s = &mut seed;
    let mut cur = doc.clone();
    let mut ops = Vec::with_capacity(count);
    while ops.len() < count {
        let name = RECORDS[draw(s, RECORDS.len())];
        let label = cur
            .labels()
            .get(name)
            .expect("XMark has every record label");
        let records = cur.nodes_with_label(label);
        let op = match draw(s, 10) {
            0..4 => {
                let copy = xmlgen::extract_subtree(&cur, records[draw(s, records.len())]);
                let parent = cur
                    .parent(records[draw(s, records.len())])
                    .expect("records have parents");
                let arity = cur.children(parent).count();
                EditOp::InsertSubtree {
                    parent: Some(parent),
                    position: draw(s, arity + 1),
                    subtree: copy,
                }
            }
            4..8 if records.len() < 8 => continue,
            4..8 => EditOp::DeleteSubtree {
                target: records[draw(s, records.len())],
            },
            _ => EditOp::ReplaceSubtree {
                subtree: xmlgen::extract_subtree(&cur, records[draw(s, records.len())]),
                target: records[draw(s, records.len())],
            },
        };
        cur = apply_op(&cur, &op).expect("record edits apply").0;
        ops.push(op);
    }
    (ops, cur)
}

fn notifications_match_the_oracle(profile: Profile) {
    let ds = xmark(profile, 1);
    let mut standing = Vec::new();
    for nq in [xmark_queries(), fig19_variants()].concat() {
        if standing.len() < 4 && !standing.iter().any(|(text, _)| *text == nq.text) {
            standing.push((nq.text, nq.gtp));
        }
    }
    let gtps: Vec<_> = standing.into_iter().map(|(_, gtp)| gtp).collect();
    let (ops, edited) = record_edits(&ds.doc, 0x5eed_ed17, 30);
    let count = |doc: &Document| -> Vec<usize> {
        gtps.iter()
            .map(|g| twig2stack::evaluate(doc, g).len())
            .collect()
    };
    assert_ne!(
        count(&ds.doc),
        count(&edited),
        "the chain must change some match set"
    );
    assert_eq!(check_notifications(&ds.doc, &gtps, &ops), Outcome::Passed);
}

#[test]
fn quick_xmark_notifications_match_the_oracle() {
    notifications_match_the_oracle(Profile::Quick);
}

#[test]
#[ignore = "Full-profile corpus; run in release with --ignored"]
fn full_xmark_notifications_match_the_oracle() {
    notifications_match_the_oracle(Profile::Full);
}
