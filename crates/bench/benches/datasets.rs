//! Benches for the substrate costs around the matching algorithms:
//! dataset generation (Figure 14's corpora), index construction (region
//! and extended-Dewey), and XML parsing (to a DOM, and to the SAX event
//! stream) — the fixed costs every system in the comparison shares.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use twigbench::workload::{dblp, Profile};
use xmlindex::{DeweyIndex, ElementIndex};
use xmlgen::{generate_dblp, generate_treebank, generate_xmark, DblpConfig, TreebankConfig, XmarkConfig};
use xmldom::{parse, write, EventParser, Indent};

fn generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/generate");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    group.bench_function("dblp", |b| {
        b.iter(|| generate_dblp(&DblpConfig::tiny(1)).len())
    });
    group.bench_function("treebank", |b| {
        b.iter(|| generate_treebank(&TreebankConfig::tiny(1)).len())
    });
    group.bench_function("xmark", |b| {
        b.iter(|| generate_xmark(&XmarkConfig::tiny(1)).len())
    });
    group.finish();
}

fn indexing(c: &mut Criterion) {
    let ds = dblp(Profile::Quick);
    let mut group = c.benchmark_group("substrate/index");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    group.bench_function("region_index", |b| {
        b.iter(|| ElementIndex::build(&ds.doc).label_count())
    });
    group.bench_function("dewey_index", |b| {
        b.iter(|| DeweyIndex::build(&ds.doc).schema().root_label())
    });
    group.finish();
}

fn parsing(c: &mut Criterion) {
    let ds = dblp(Profile::Quick);
    let xml = write(&ds.doc, Indent::None);
    let mut group = c.benchmark_group("substrate/xml");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    group.bench_function("parse_dom", |b| b.iter(|| parse(&xml).unwrap().len()));
    // The structure-only event path the streaming evaluators consume:
    // same tokenizer, no DOM.
    group.bench_function("stream_events", |b| {
        b.iter(|| {
            let mut events = EventParser::new(&xml);
            let mut n = 0usize;
            while events.next_event().unwrap().is_some() {
                n += 1;
            }
            n
        })
    });
    group.bench_function("serialize", |b| {
        b.iter(|| write(&ds.doc, Indent::None).len())
    });
    group.finish();
}

criterion_group!(benches, generation, indexing, parsing);
criterion_main!(benches);
