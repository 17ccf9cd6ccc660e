//! Self-checks of the benchmark: its metric list agrees with
//! `BENCHMARK.json`, its sources pass the workspace determinism lint
//! wherever they are placed, and the `hexd` streams have the advertised
//! shape.

use std::path::Path;

use crate::layers::{unit_of, LAYER_METRICS};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |f: &str| {
                let at = entry.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
                entry[at..].split('"').next().unwrap().to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn per_layer_metrics_match_benchmark_json() {
    let json = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).unwrap();
    let listed = section(&json, "per_layer");
    let ours: Vec<(String, String)> = LAYER_METRICS
        .iter()
        .map(|n| (n.to_string(), unit_of(n).to_string()))
        .collect();
    assert_eq!(listed, ours);
}

#[test]
fn end_to_end_metrics_are_the_documented_ones() {
    let json = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).unwrap();
    let names: Vec<String> = section(&json, "end_to_end")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    // Every workload reports exactly these (batches.rs and hexd.rs).
    assert_eq!(
        names,
        [
            "sweep_s",
            "events_per_s",
            "queries_per_s",
            "setup_s",
            "peak_rss_mb",
        ]
    );
}

#[test]
fn sources_pass_the_determinism_lint_anywhere() {
    for entry in std::fs::read_dir(manifest_dir().join("src")).unwrap() {
        let path = entry.unwrap().path();
        let src = std::fs::read_to_string(&path).unwrap();
        let file = path.file_name().unwrap().to_string_lossy();
        for home in [
            "perfbench/src",
            "crates/perfbench/src",
            "crates/hex-sim/src",
            "src",
        ] {
            let ctx = hex_lint::FileCtx::classify(&format!("{home}/{file}"));
            let findings = hex_lint::lint_source(&ctx, &src);
            assert!(findings.is_empty(), "{home}/{file}: {findings:?}");
        }
    }
}

#[test]
fn streams_visit_every_spec_first_in_order() {
    for variant in [0, 7] {
        for client in 0..2 {
            let s = crate::hexd::stream(variant, client);
            let mut seen = 0;
            for &slot in &s {
                assert!(slot <= seen);
                if slot == seen {
                    seen += 1;
                }
            }
            assert_eq!(seen, crate::jobs::POOL);
            assert_eq!(s, crate::hexd::stream(variant, client));
        }
    }
}
