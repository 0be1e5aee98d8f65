//! End-to-end and per-layer benchmark of the Twig²Stack serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <query-mix|ingest-stream|edit-churn|catalog-fanout> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its workload from the seed, sets the services up
//! `SETUP_REPS` times, computes every reference answer by a second path,
//! then drives closed-loop clients for `--seconds`. With `--trace 1` the
//! first half of the time runs untraced and the second half records spans
//! around each layer call, so the difference is the tracing overhead. The
//! last line of standard output is one JSON object; see `README.md`.

mod catalog_fanout;
mod common;
mod edit_churn;
mod ingest_stream;
mod query_mix;
mod trace;

use common::{median, metric, peak_rss_mb, ratio, Metric, Outcome};
use trace::{Layers, Tracer};

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that never calls a layer reports 0 for it.
const LAYER_METRICS: [(&str, &str); 38] = [
    ("xmldom.parse_ms", "ms"),
    ("xmldom.parse_mb_s", "MB/s"),
    ("xmldom.apply_op_ms", "ms"),
    ("xmlindex.build_ms", "ms"),
    ("xmlindex.elements_indexed", "count"),
    ("xmlindex.apply_edit_ms", "ms"),
    ("xmlindex.patched_share", "ratio"),
    ("twig2stack.match_ms", "ms"),
    ("twig2stack.enumerate_ms", "ms"),
    ("twig2stack.elements_scanned", "count"),
    ("twig2stack.rows", "count"),
    ("twig2stack.rows_per_scanned", "ratio"),
    ("twig2stack.stream_ms", "ms"),
    ("twig2stack.subscribe_ms", "ms"),
    ("twig2stack.feeds_per_element", "ratio"),
    ("twigserve.execute_ms", "ms"),
    ("twigserve.plan_ms", "ms"),
    ("twigserve.overhead_ms", "ms"),
    ("twigserve.plan_cache_hit_rate", "ratio"),
    ("twigserve.plan_cache_evictions", "count"),
    ("twigserve.invalidations", "count"),
    ("twigserve.apply_edit_ms", "ms"),
    ("twigserve.rotation_ms", "ms"),
    ("twigserve.subscribe.notify_ms", "ms"),
    ("twigserve.catalog.route_ms", "ms"),
    ("twigserve.catalog.skip_rate", "ratio"),
    ("twigserve.catalog.execute_ms", "ms"),
    ("twigserve.catalog.serial_ms", "ms"),
    ("self.bench_ms", "ms"),
    ("self.xmldom_ms", "ms"),
    ("self.xmlindex_ms", "ms"),
    ("self.twig2stack_ms", "ms"),
    ("self.twigserve_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.overhead_p50_share", "ratio"),
    ("trace.overhead_p99_ms", "ms"),
    ("trace.overhead_ops_share", "ratio"),
];

const USAGE: &str =
    "usage: perfbench --workload <query-mix|ingest-stream|edit-churn|catalog-fanout> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Turn a traced run's samples, spans and the traced/untraced timings
/// into the per-layer metric list.
fn layer_metrics(out: &Outcome, layers: &Layers, tracer: &Tracer) -> Vec<Metric> {
    let traced = out
        .traced_ops
        .as_ref()
        .expect("a traced run times its traced phase");
    let ops = traced.count() as f64;
    for (layer, ms) in tracer.self_ms_by_layer() {
        let name = match layer {
            "xmldom" => "self.xmldom_ms",
            "xmlindex" => "self.xmlindex_ms",
            "twig2stack" => "self.twig2stack_ms",
            "twigserve" => "self.twigserve_ms",
            _ => "self.bench_ms",
        };
        layers.add(name, ms);
    }
    for name in [
        "self.bench_ms",
        "self.xmldom_ms",
        "self.xmlindex_ms",
        "self.twig2stack_ms",
        "self.twigserve_ms",
    ] {
        // Self time per traced operation (set-up spans included).
        layers.set(name, ratio(layers.sum(name), ops));
    }
    // Derived per-layer numbers; each stays 0 where its inputs were
    // never measured.
    let m = |name: &str| layers.mean(name);
    if m("twigserve.execute_ms") > 0.0 {
        let inner =
            m("twigserve.plan_ms") + m("twig2stack.match_ms") + m("twig2stack.enumerate_ms");
        layers.set("twigserve.overhead_ms", m("twigserve.execute_ms") - inner);
    }
    if m("twigserve.apply_edit_ms") > 0.0 {
        let inner = m("xmldom.apply_op_ms") + m("xmlindex.apply_edit_ms");
        layers.set(
            "twigserve.rotation_ms",
            m("twigserve.apply_edit_ms") - inner,
        );
        layers.set(
            "twigserve.subscribe.notify_ms",
            m("twigserve.subscribe.apply_edit_ms") - m("twigserve.apply_edit_ms"),
        );
    }
    let sum = |name: &str| layers.sum(name);
    layers.set(
        "xmldom.parse_mb_s",
        ratio(sum("xmldom.parse_mb"), sum("xmldom.parse_ms") / 1e3),
    );
    layers.set(
        "twig2stack.rows_per_scanned",
        ratio(sum("twig2stack.rows"), sum("twig2stack.elements_scanned")),
    );
    layers.set(
        "twig2stack.feeds_per_element",
        ratio(sum("twig2stack.sub_feeds"), sum("twig2stack.sub_elements")),
    );
    layers.set("trace.spans", tracer.span_count() as f64);
    layers.set("trace.overhead_p50_ms", traced.p50() - out.ops.p50());
    layers.set(
        "trace.overhead_p50_share",
        ratio(traced.p50() - out.ops.p50(), out.ops.p50()),
    );
    layers.set("trace.overhead_p99_ms", traced.p99() - out.ops.p99());
    layers.set(
        "trace.overhead_ops_share",
        ratio(out.ops.per_s() - traced.per_s(), out.ops.per_s()),
    );
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| metric(name, layers.mean(name), unit))
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new();
    let layers = Layers::default();
    let probe = args.trace.then_some(trace::Probe {
        tracer: &tracer,
        layers: &layers,
    });
    let out = match args.workload.as_str() {
        "query-mix" => query_mix::run(&args, probe),
        "ingest-stream" => ingest_stream::run(&args, probe),
        "edit-churn" => edit_churn::run(&args, probe),
        "catalog-fanout" => catalog_fanout::run(&args, probe),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let gated = vec![
        metric("setup_s", median(&out.setup_s), "s"),
        metric("p50_ms", out.ops.p50(), "ms"),
        metric("p99_ms", out.ops.p99(), "ms"),
        metric("ops_s", out.ops.per_s(), "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    for note in &out.notes {
        println!("# {note}");
    }
    println!(
        "# setup_s samples: {:?}; gated ops: {} ({}); whole-phase p50 {:.4} ms, p99 {:.4} ms, {:.2}/s",
        out.setup_s,
        out.ops.count(),
        out.gated_class,
        common::percentile(&out.ops.lat, 50.0),
        common::percentile(&out.ops.lat, 99.0),
        ratio(out.ops.count() as f64, out.ops.secs()),
    );
    let error_rate = ratio(out.failed as f64, out.attempted as f64);
    println!("{:<34} {error_rate:>14.6} ratio", "error_rate");
    for m in gated.iter().chain(&out.detail) {
        println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let metrics = if args.trace {
        let lm = layer_metrics(&out, &layers, &tracer);
        for m in &lm {
            println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written ({}): {e}", path.display()),
        }
        lm
    } else {
        gated
    };
    let correct = out.wrong == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
