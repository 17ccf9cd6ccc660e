// Fixture: the same reads, suppressed.

pub fn runs() -> usize {
    std::env::var("HEX_RUNS") // hexlint: allow(env-knob, reason = "fixture: pre-knob call site")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

pub fn dump() {
    // hexlint: allow(env-knob, reason = "fixture: pre-knob call site")
    for (k, v) in std::env::vars() {
        println!("{k}={v}");
    }
}

pub fn threads() -> usize {
    // hexlint: allow(env-knob, reason = "fixture: uncached host probe")
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
