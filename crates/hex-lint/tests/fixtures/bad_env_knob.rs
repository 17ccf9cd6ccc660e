// Fixture: environment reads outside the knob module and a host probe
// outside hex_sim::batch (linted under the virtual path
// crates/hex-core/src/fixture.rs). Never compiled.

pub fn runs() -> usize {
    std::env::var("HEX_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

pub fn dump() {
    for (k, v) in std::env::vars() {
        println!("{k}={v}");
    }
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
