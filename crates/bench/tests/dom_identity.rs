//! DOM identity over the generated datasets: `parse(write(doc))` must
//! reproduce the generator's document node by node — labels, region
//! encodings, text and attributes. The tokenizer feeds every dataset's
//! ingest path, so this pins it at full corpus scale, not only on the
//! hand-written parser cases.
//!
//! `Profile::Quick` runs in the default suite; the `Profile::Full`
//! variant is `#[ignore]`d and runs in CI's release stage:
//! `cargo test --release -p twigbench --test dom_identity -- --ignored`.

use twigbench::workload::{documents, Profile};
use xmldom::{parse, write, Document, Indent};

fn assert_identical(name: &str, want: &Document, got: &Document) {
    assert_eq!(want.len(), got.len(), "{name}: element count");
    assert_eq!(
        want.labels().len(),
        got.labels().len(),
        "{name}: label count"
    );
    for (a, b) in want.labels().iter().zip(got.labels().iter()) {
        assert_eq!(a, b, "{name}: label interning order");
    }
    for (a, b) in want.iter().zip(got.iter()) {
        assert_eq!(want.label(a), got.label(b), "{name}: label of {a}");
        assert_eq!(want.region(a), got.region(b), "{name}: region of {a}");
        assert_eq!(want.parent(a), got.parent(b), "{name}: parent of {a}");
        assert_eq!(want.text(a), got.text(b), "{name}: text of {a}");
        assert_eq!(
            want.attributes(a),
            got.attributes(b),
            "{name}: attributes of {a}"
        );
    }
}

fn round_trip_all(profile: Profile) {
    for (name, doc) in documents(profile) {
        let xml = write(&doc, Indent::None);
        let parsed = parse(&xml).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_identical(&name, &doc, &parsed);
    }
}

#[test]
fn quick_datasets_round_trip_identically() {
    round_trip_all(Profile::Quick);
}

#[test]
#[ignore = "Full-profile corpus; run in release with --ignored"]
fn full_datasets_round_trip_identically() {
    round_trip_all(Profile::Full);
}
