//! Canonical serialization and content hashing of [`RunSpec`]s.
//!
//! A [`RunSpec`] is a complete, deterministic run description: two specs
//! that encode to the same bytes produce byte-identical reduced results
//! (the determinism walls pin this). This module gives that fact teeth as
//! a *wire contract*: a versioned, byte-stable text encoding
//! ([`encode_spec`]) with a strict decoder ([`decode_spec`]) and an
//! FNV-1a content hash ([`spec_hash`]) — the cache key and request-dedup
//! identity of the `hexd` sweep service, and the serialization layer any
//! future remote-worker sharding reuses.
//!
//! ## What is (and is not) encoded
//!
//! Everything that determines the *result*: grid shape, run count, base
//! seed (the seed policy — run `r` simulates with `seed + r`, wrapping),
//! layer-0 scenario, fault regime (including explicit [`FaultPlan`]s,
//! link overrides and all), initial states, pulse count, timing policy,
//! the delay model, and any explicit schedule override.
//!
//! `threads` is deliberately **excluded**: batch reductions are pinned
//! independent of the worker-thread count, so it is an execution knob of
//! the machine, not part of the experiment description. Decoding yields
//! `threads = 0` (available parallelism).
//!
//! Every canonical spec also carries the constant line `queue calendar`.
//! It named the event-list policy while the engine had three; the engine
//! now has one, and the line stays so that canonical bytes, spec hashes
//! and cache entries written before keep their meaning. Any other queue
//! value is not canonical and does not decode.
//!
//! ## Stability
//!
//! The format is versioned by the `hexcanon/2` header line and
//! [`CANON_VERSION`]; [`engine_version`] combines it with the crate
//! version into the tag the result cache stores next to every entry.
//! Hashes are stable across processes and machines — pinned by a golden
//! value in the workspace serve tests. Any change to the encoding MUST
//! bump [`CANON_VERSION`], which retires every existing cache entry.
//!
//! ```
//! use hex_sim::canon::{decode_spec, spec_hash};
//! use hex_sim::RunSpec;
//!
//! let spec = RunSpec::grid(8, 6).runs(4).seed(7);
//! let bytes = spec.canonical_bytes();
//! let back = decode_spec(&bytes).unwrap();
//! assert_eq!(back.canonical_bytes(), bytes);
//! assert_eq!(spec_hash(&back), spec_hash(&spec));
//! ```

use std::fmt::Write as _;

use hex_clock::Scenario;
use hex_core::{
    DelayModel, DelayRange, FaultEvent, FaultPlan, FaultScript, LinkBehavior, NodeFault,
    RejoinState, SpatialVariation,
};
use hex_des::{Duration, Schedule, Time};

use crate::engine::InitState;
use crate::spec::{FaultRegime, RunSpec, TimingPolicy};

/// Canonical-format epoch. Bump on ANY change to the byte encoding; the
/// bump flows into [`engine_version`] and retires every cache entry.
/// Epoch 2 added the `faults script` regime (dynamic fault campaigns).
pub const CANON_VERSION: u32 = 2;

/// The header line every canonical spec starts with.
pub const HEADER: &str = "hexcanon/2";

/// The engine-version tag stored next to every cached result: the
/// `hex-sim` crate version plus the canonical-format epoch. Results are
/// only replayed from cache when this tag matches exactly.
pub fn engine_version() -> String {
    format!(
        "hex-sim-{}+canon{}",
        env!("CARGO_PKG_VERSION"),
        CANON_VERSION
    )
}

/// 64-bit FNV-1a over a byte string — the workspace's content hash
/// (dependency-free, byte-order independent, stable across platforms).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The content hash of a spec: FNV-1a over its canonical bytes.
pub fn spec_hash(spec: &RunSpec) -> u64 {
    fnv1a_64(&encode_spec(spec))
}

impl RunSpec {
    /// The canonical byte encoding of this spec ([`encode_spec`]).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        encode_spec(self)
    }
}

/// Encode a spec into its canonical bytes: a fixed sequence of
/// `field value…` text lines under a versioned header. The encoding is a
/// pure function of the spec's result-determining fields — see the
/// module docs for what is excluded and why.
pub fn encode_spec(spec: &RunSpec) -> Vec<u8> {
    let mut s = String::with_capacity(256);
    s.push_str(HEADER);
    s.push('\n');
    let _ = writeln!(s, "grid {} {}", spec.length, spec.width);
    let _ = writeln!(s, "runs {}", spec.runs);
    let _ = writeln!(s, "seed {}", spec.seed);
    let _ = writeln!(s, "scenario {}", spec.scenario.slug());
    encode_faults(&mut s, &spec.faults);
    let _ = writeln!(s, "init {}", init_label(spec.init));
    let _ = writeln!(s, "pulses {}", spec.pulses);
    encode_timing(&mut s, &spec.timing);
    encode_delays(&mut s, &spec.delays);
    s.push_str("queue calendar\n");
    encode_schedule(&mut s, spec.schedule.as_ref());
    s.into_bytes()
}

/// Decode canonical bytes back into a [`RunSpec`]. Strict: the header
/// must match, every field must appear exactly once in canonical order,
/// and no trailing bytes are tolerated — a decoded spec re-encodes to
/// the identical byte string, and bytes that would not (`runs 0250`,
/// doubled spaces, extra fields) are rejected, so one spec has exactly
/// one accepted spelling and `hexd` one cache key per spec.
/// `threads` is set to 0 (available parallelism); it is not part of the
/// canonical description.
pub fn decode_spec(bytes: &[u8]) -> Result<RunSpec, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty input")?;
    if header != HEADER {
        return Err(format!("bad header {header:?} (expected {HEADER:?})"));
    }

    let (l, w) = {
        let f = fields(&mut lines, "grid")?;
        (parse(&f, 0, "grid length")?, parse(&f, 1, "grid width")?)
    };
    let mut spec = RunSpec::grid(l, w).threads(0);
    spec.runs = parse(&fields(&mut lines, "runs")?, 0, "runs")?;
    spec.seed = parse(&fields(&mut lines, "seed")?, 0, "seed")?;
    spec.scenario = {
        let f = fields(&mut lines, "scenario")?;
        scenario_from_slug(f.first().copied().unwrap_or(""))?
    };
    spec.faults = decode_faults(&mut lines)?;
    spec.init = init_from_label(fields(&mut lines, "init")?.first().copied().unwrap_or(""))?;
    spec.pulses = parse(&fields(&mut lines, "pulses")?, 0, "pulses")?;
    spec.timing = decode_timing(&mut lines)?;
    spec.delays = decode_delays(&mut lines)?;
    fields(&mut lines, "queue")?;
    spec.schedule = decode_schedule(&mut lines)?;
    if let Some(extra) = lines.next() {
        return Err(format!("trailing line {extra:?} after schedule"));
    }
    if encode_spec(&spec) != bytes {
        return Err("not the canonical encoding of the spec it decodes to".to_string());
    }
    Ok(spec)
}

// ---------------------------------------------------------------------------
// Per-field encoders.

fn encode_faults(s: &mut String, faults: &FaultRegime) {
    match faults {
        FaultRegime::None => s.push_str("faults none\n"),
        FaultRegime::Byzantine(f) => {
            let _ = writeln!(s, "faults byzantine {f}");
        }
        FaultRegime::FailSilent(f) => {
            let _ = writeln!(s, "faults fail_silent {f}");
        }
        FaultRegime::FixedByzantine(layer, col) => {
            let _ = writeln!(s, "faults fixed_byzantine {layer} {col}");
        }
        FaultRegime::Mixed {
            byzantine,
            fail_silent,
        } => {
            let _ = writeln!(s, "faults mixed {byzantine} {fail_silent}");
        }
        FaultRegime::Plan(plan) => {
            let nodes: Vec<_> = plan.node_fault_entries().collect();
            let links: Vec<_> = plan.link_override_entries().collect();
            let _ = writeln!(s, "faults plan {} {}", nodes.len(), links.len());
            for (n, f) in nodes {
                let _ = writeln!(s, "fnode {n} {}", node_fault_label(f));
            }
            for (l, b) in links {
                let _ = writeln!(s, "flink {l} {}", link_behavior_label(b));
            }
        }
        FaultRegime::Script(script) => {
            let _ = writeln!(s, "faults script {}", script.len());
            for tr in script.transitions() {
                let at = tr.at.ps();
                match tr.event {
                    FaultEvent::Fail(node, fault) => {
                        let _ = writeln!(s, "ft {at} fail {node} {}", node_fault_label(fault));
                    }
                    FaultEvent::Heal(node, rejoin) => {
                        let _ = writeln!(s, "ft {at} heal {node} {}", rejoin_label(rejoin));
                    }
                    FaultEvent::LinkDown(link, behavior) => {
                        let _ = writeln!(
                            s,
                            "ft {at} link_down {link} {}",
                            link_behavior_label(behavior)
                        );
                    }
                    FaultEvent::LinkUp(link) => {
                        let _ = writeln!(s, "ft {at} link_up {link}");
                    }
                }
            }
        }
    }
}

fn encode_timing(s: &mut String, timing: &TimingPolicy) {
    match timing {
        TimingPolicy::Table3 => s.push_str("timing table3\n"),
        TimingPolicy::Generous => s.push_str("timing generous\n"),
        TimingPolicy::Fixed(t) => {
            let _ = writeln!(
                s,
                "timing fixed {} {} {} {}",
                t.link.lo.ps(),
                t.link.hi.ps(),
                t.sleep.lo.ps(),
                t.sleep.hi.ps()
            );
        }
    }
}

fn encode_delays(s: &mut String, delays: &DelayModel) {
    match delays {
        DelayModel::UniformPerMessage(r) => {
            let _ = writeln!(s, "delays per_message {} {}", r.lo.ps(), r.hi.ps());
        }
        DelayModel::UniformPerLink(r) => {
            let _ = writeln!(s, "delays per_link {} {}", r.lo.ps(), r.hi.ps());
        }
        DelayModel::Fixed(d) => {
            let _ = writeln!(s, "delays fixed {}", d.ps());
        }
        DelayModel::PerLinkFixed(ds) => {
            let _ = writeln!(s, "delays table {}", ds.len());
            let mut line = String::from("dl");
            for d in ds {
                let _ = write!(line, " {}", d.ps());
            }
            s.push_str(&line);
            s.push('\n');
        }
        // Exact f64 fields travel as to_bits hex: parsing them back is
        // bit-lossless, unlike any decimal rendering.
        DelayModel::Spatial(v) => {
            let _ = writeln!(
                s,
                "delays spatial {} {} {:016x} {:016x} {:016x}",
                v.range.lo.ps(),
                v.range.hi.ps(),
                v.layer_gradient.to_bits(),
                v.column_wave.to_bits(),
                v.jitter.to_bits()
            );
        }
    }
}

fn encode_schedule(s: &mut String, schedule: Option<&Schedule>) {
    match schedule {
        None => s.push_str("schedule none\n"),
        Some(sched) => {
            let _ = writeln!(s, "schedule {}", sched.sources());
            for i in 0..sched.sources() {
                let mut line = format!("s {i}");
                for t in sched.source(i) {
                    let _ = write!(line, " {}", t.ps());
                }
                s.push_str(&line);
                s.push('\n');
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-field decoders.

/// Read the next line, check it starts with `key`, and return the
/// whitespace-separated value fields after it.
fn fields<'a>(lines: &mut std::str::Lines<'a>, key: &str) -> Result<Vec<&'a str>, String> {
    let line = lines
        .next()
        .ok_or_else(|| format!("missing `{key}` line"))?;
    let mut parts = line.split_ascii_whitespace();
    match parts.next() {
        Some(k) if k == key => Ok(parts.collect()),
        Some(other) => Err(format!("expected `{key}` line, found `{other}`")),
        None => Err(format!("expected `{key}` line, found a blank line")),
    }
}

fn parse<T: std::str::FromStr>(fields: &[&str], ix: usize, what: &str) -> Result<T, String> {
    let raw = fields
        .get(ix)
        .ok_or_else(|| format!("missing {what} value"))?;
    raw.parse()
        .map_err(|_| format!("malformed {what} value {raw:?}"))
}

fn decode_faults(lines: &mut std::str::Lines<'_>) -> Result<FaultRegime, String> {
    let f = fields(lines, "faults")?;
    match f.first().copied().unwrap_or("") {
        "none" => Ok(FaultRegime::None),
        "byzantine" => Ok(FaultRegime::Byzantine(parse(&f, 1, "byzantine count")?)),
        "fail_silent" => Ok(FaultRegime::FailSilent(parse(&f, 1, "fail-silent count")?)),
        "fixed_byzantine" => Ok(FaultRegime::FixedByzantine(
            parse(&f, 1, "fixed layer")?,
            parse(&f, 2, "fixed column")?,
        )),
        "mixed" => Ok(FaultRegime::Mixed {
            byzantine: parse(&f, 1, "mixed byzantine count")?,
            fail_silent: parse(&f, 2, "mixed fail-silent count")?,
        }),
        "plan" => {
            let nodes: usize = parse(&f, 1, "plan node count")?;
            let links: usize = parse(&f, 2, "plan link count")?;
            let mut plan = FaultPlan::none();
            for _ in 0..nodes {
                let f = fields(lines, "fnode")?;
                let id = parse(&f, 0, "plan node id")?;
                let kind = node_fault_from_label(f.get(1).copied().unwrap_or(""))?;
                plan = plan.with_node(id, kind);
            }
            for _ in 0..links {
                let f = fields(lines, "flink")?;
                let id = parse(&f, 0, "plan link id")?;
                let b = link_behavior_from_label(f.get(1).copied().unwrap_or(""))?;
                plan = plan.with_link(id, b);
            }
            Ok(FaultRegime::Plan(plan))
        }
        "script" => {
            let count: usize = parse(&f, 1, "script transition count")?;
            let mut script = FaultScript::none();
            let mut last = i64::MIN;
            for _ in 0..count {
                let f = fields(lines, "ft")?;
                let at: i64 = parse(&f, 0, "transition time")?;
                // The canonical form is time-sorted; accepting unsorted
                // input would re-encode differently and break the
                // decode∘encode = id contract.
                if at < last {
                    return Err(format!("script transition at {at} ps out of order"));
                }
                last = at;
                let event = match f.get(1).copied().unwrap_or("") {
                    "fail" => FaultEvent::Fail(
                        parse(&f, 2, "fail node id")?,
                        node_fault_from_label(f.get(3).copied().unwrap_or(""))?,
                    ),
                    "heal" => FaultEvent::Heal(
                        parse(&f, 2, "heal node id")?,
                        rejoin_from_label(f.get(3).copied().unwrap_or(""))?,
                    ),
                    "link_down" => FaultEvent::LinkDown(
                        parse(&f, 2, "flapped link id")?,
                        link_behavior_from_label(f.get(3).copied().unwrap_or(""))?,
                    ),
                    "link_up" => FaultEvent::LinkUp(parse(&f, 2, "restored link id")?),
                    other => return Err(format!("unknown fault transition `{other}`")),
                };
                script = script.with(Time::from_ps(at), event);
            }
            Ok(FaultRegime::Script(script))
        }
        other => Err(format!("unknown fault regime `{other}`")),
    }
}

fn decode_timing(lines: &mut std::str::Lines<'_>) -> Result<TimingPolicy, String> {
    let f = fields(lines, "timing")?;
    match f.first().copied().unwrap_or("") {
        "table3" => Ok(TimingPolicy::Table3),
        "generous" => Ok(TimingPolicy::Generous),
        "fixed" => {
            let link = range(
                parse(&f, 1, "link timeout lo")?,
                parse(&f, 2, "link timeout hi")?,
            )?;
            let sleep = range(
                parse(&f, 3, "sleep timeout lo")?,
                parse(&f, 4, "sleep timeout hi")?,
            )?;
            Ok(TimingPolicy::Fixed(hex_core::Timing { link, sleep }))
        }
        other => Err(format!("unknown timing policy `{other}`")),
    }
}

fn decode_delays(lines: &mut std::str::Lines<'_>) -> Result<DelayModel, String> {
    let f = fields(lines, "delays")?;
    match f.first().copied().unwrap_or("") {
        "per_message" => Ok(DelayModel::UniformPerMessage(range(
            parse(&f, 1, "delay lo")?,
            parse(&f, 2, "delay hi")?,
        )?)),
        "per_link" => Ok(DelayModel::UniformPerLink(range(
            parse(&f, 1, "delay lo")?,
            parse(&f, 2, "delay hi")?,
        )?)),
        "fixed" => Ok(DelayModel::Fixed(Duration::from_ps(parse(
            &f,
            1,
            "fixed delay",
        )?))),
        "table" => {
            let n: usize = parse(&f, 1, "delay table length")?;
            let row = fields(lines, "dl")?;
            if row.len() != n {
                return Err(format!(
                    "delay table declares {n} entries, row has {}",
                    row.len()
                ));
            }
            let mut ds = Vec::with_capacity(n);
            for (ix, _) in row.iter().enumerate() {
                ds.push(Duration::from_ps(parse(&row, ix, "delay table entry")?));
            }
            if ds.is_empty() {
                return Err("empty per-link delay table".to_string());
            }
            Ok(DelayModel::PerLinkFixed(ds))
        }
        "spatial" => {
            let lo: i64 = parse(&f, 1, "spatial delay lo")?;
            let hi: i64 = parse(&f, 2, "spatial delay hi")?;
            Ok(DelayModel::Spatial(SpatialVariation {
                range: range(lo, hi)?,
                layer_gradient: f64_bits(&f, 3, "layer gradient")?,
                column_wave: f64_bits(&f, 4, "column wave")?,
                jitter: f64_bits(&f, 5, "jitter")?,
            }))
        }
        other => Err(format!("unknown delay model `{other}`")),
    }
}

fn decode_schedule(lines: &mut std::str::Lines<'_>) -> Result<Option<Schedule>, String> {
    let f = fields(lines, "schedule")?;
    match f.first().copied().unwrap_or("") {
        "none" => Ok(None),
        raw => {
            let sources: usize = raw
                .parse()
                .map_err(|_| format!("malformed schedule source count {raw:?}"))?;
            // The count is untrusted: grow with the `s` lines that actually
            // arrive (the input's size bounds them) instead of reserving it.
            let mut fires: Vec<Vec<Time>> = Vec::new();
            for expect in 0..sources {
                let f = fields(lines, "s")?;
                let ix: usize = parse(&f, 0, "schedule source index")?;
                if ix != expect {
                    return Err(format!(
                        "schedule source {ix} out of order (expected {expect})"
                    ));
                }
                let mut ts = Vec::with_capacity(f.len() - 1);
                for k in 1..f.len() {
                    ts.push(Time::from_ps(parse(&f, k, "schedule instant")?));
                }
                // Schedule::new would panic on unsorted input; a decoder
                // reports instead.
                if ts.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format!("schedule source {ix} not strictly increasing"));
                }
                fires.push(ts);
            }
            Ok(Some(Schedule::new(fires)))
        }
    }
}

fn range(lo: i64, hi: i64) -> Result<DelayRange, String> {
    if lo > hi || lo < 0 {
        return Err(format!("invalid range [{lo}, {hi}] ps"));
    }
    Ok(DelayRange::new(
        Duration::from_ps(lo),
        Duration::from_ps(hi),
    ))
}

fn f64_bits(fields: &[&str], ix: usize, what: &str) -> Result<f64, String> {
    let raw = fields
        .get(ix)
        .ok_or_else(|| format!("missing {what} value"))?;
    u64::from_str_radix(raw, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("malformed {what} bits {raw:?}"))
}

// ---------------------------------------------------------------------------
// Label tables (bijective; decode rejects anything else).

fn init_label(init: InitState) -> &'static str {
    match init {
        InitState::Clean => "clean",
        InitState::Arbitrary => "arbitrary",
        InitState::AllFlagsSet => "all_flags_set",
        InitState::AllAsleep => "all_asleep",
    }
}

fn init_from_label(label: &str) -> Result<InitState, String> {
    match label {
        "clean" => Ok(InitState::Clean),
        "arbitrary" => Ok(InitState::Arbitrary),
        "all_flags_set" => Ok(InitState::AllFlagsSet),
        "all_asleep" => Ok(InitState::AllAsleep),
        other => Err(format!("unknown init state `{other}`")),
    }
}

fn scenario_from_slug(slug: &str) -> Result<Scenario, String> {
    Scenario::ALL
        .iter()
        .copied()
        .find(|s| s.slug() == slug)
        .ok_or_else(|| format!("unknown scenario slug `{slug}`"))
}

fn node_fault_label(f: NodeFault) -> &'static str {
    match f {
        NodeFault::Byzantine => "byzantine",
        NodeFault::FailSilent => "fail_silent",
    }
}

fn node_fault_from_label(label: &str) -> Result<NodeFault, String> {
    match label {
        "byzantine" => Ok(NodeFault::Byzantine),
        "fail_silent" => Ok(NodeFault::FailSilent),
        other => Err(format!("unknown node fault `{other}`")),
    }
}

fn link_behavior_label(b: LinkBehavior) -> &'static str {
    match b {
        LinkBehavior::Correct => "correct",
        LinkBehavior::StuckZero => "stuck_zero",
        LinkBehavior::StuckOne => "stuck_one",
    }
}

fn link_behavior_from_label(label: &str) -> Result<LinkBehavior, String> {
    match label {
        "correct" => Ok(LinkBehavior::Correct),
        "stuck_zero" => Ok(LinkBehavior::StuckZero),
        "stuck_one" => Ok(LinkBehavior::StuckOne),
        other => Err(format!("unknown link behavior `{other}`")),
    }
}

fn rejoin_label(r: RejoinState) -> &'static str {
    match r {
        RejoinState::Clean => "clean",
        RejoinState::Arbitrary => "arbitrary",
    }
}

fn rejoin_from_label(label: &str) -> Result<RejoinState, String> {
    match label {
        "clean" => Ok(RejoinState::Clean),
        "arbitrary" => Ok(RejoinState::Arbitrary),
        other => Err(format!("unknown rejoin state `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hex_core::Timing;

    fn round_trip(spec: &RunSpec) {
        let bytes = encode_spec(spec);
        let back = decode_spec(&bytes)
            .unwrap_or_else(|e| panic!("decode failed: {e}\n{}", String::from_utf8_lossy(&bytes)));
        assert_eq!(
            encode_spec(&back),
            bytes,
            "re-encoding diverged:\n{}",
            String::from_utf8_lossy(&bytes)
        );
        assert_eq!(spec_hash(&back), spec_hash(spec));
        assert_eq!(back.threads, 0, "threads is not canonical");
    }

    #[test]
    fn default_spec_round_trips() {
        round_trip(&RunSpec::paper());
    }

    #[test]
    fn every_fault_regime_round_trips() {
        let plan = FaultPlan::none()
            .with_node(3, NodeFault::Byzantine)
            .with_node(17, NodeFault::FailSilent)
            .with_link(5, LinkBehavior::StuckOne)
            .with_link(9, LinkBehavior::Correct);
        let script = FaultScript::none()
            .with(
                Time::from_ps(10_000),
                FaultEvent::Fail(7, NodeFault::Byzantine),
            )
            .with(
                Time::from_ps(45_000),
                FaultEvent::Heal(7, RejoinState::Arbitrary),
            )
            .with(
                Time::from_ps(45_000),
                FaultEvent::LinkDown(2, LinkBehavior::StuckOne),
            )
            .with(Time::from_ps(60_000), FaultEvent::LinkUp(2));
        for faults in [
            FaultRegime::None,
            FaultRegime::Byzantine(2),
            FaultRegime::FailSilent(1),
            FaultRegime::FixedByzantine(1, 19),
            FaultRegime::Mixed {
                byzantine: 1,
                fail_silent: 2,
            },
            FaultRegime::Plan(plan),
            FaultRegime::Script(FaultScript::none()),
            FaultRegime::Script(script),
        ] {
            round_trip(&RunSpec::grid(6, 5).faults(faults));
        }
    }

    #[test]
    fn script_decoder_rejects_unsorted_and_unknown_transitions() {
        let text = encode_spec(&RunSpec::grid(4, 4));
        let text = String::from_utf8(text).unwrap();
        let unsorted = text.replace(
            "faults none",
            "faults script 2\nft 500 fail 3 byzantine\nft 100 heal 3 clean",
        );
        assert!(decode_spec(unsorted.as_bytes())
            .unwrap_err()
            .contains("out of order"));
        let unknown = text.replace("faults none", "faults script 1\nft 500 explode 3");
        assert!(decode_spec(unknown.as_bytes())
            .unwrap_err()
            .contains("unknown fault transition"));
    }

    #[test]
    fn every_init_and_timing_round_trips() {
        for init in [
            InitState::Clean,
            InitState::Arbitrary,
            InitState::AllFlagsSet,
            InitState::AllAsleep,
        ] {
            for timing in [
                TimingPolicy::Table3,
                TimingPolicy::Generous,
                TimingPolicy::Fixed(Timing::paper_scenario_iii()),
            ] {
                round_trip(&RunSpec::grid(5, 4).init(init).timing(timing));
            }
        }
    }

    #[test]
    fn every_delay_model_round_trips() {
        for delays in [
            DelayModel::paper(),
            DelayModel::UniformPerLink(DelayRange::paper()),
            DelayModel::Fixed(Duration::from_ps(7500)),
            DelayModel::PerLinkFixed(vec![
                Duration::from_ps(7161),
                Duration::from_ps(8197),
                Duration::from_ps(7700),
            ]),
            DelayModel::Spatial(SpatialVariation {
                range: DelayRange::paper(),
                layer_gradient: 0.3,
                column_wave: -0.125,
                jitter: 0.1 + 0.2, // a value with no short decimal rendering
            }),
        ] {
            round_trip(&RunSpec::grid(4, 4).delays(delays));
        }
    }

    #[test]
    fn schedule_override_round_trips() {
        let sched = Schedule::new(vec![
            vec![Time::from_ps(-200), Time::ZERO, Time::from_ps(550)],
            vec![],
            vec![Time::from_ps(8197)],
        ]);
        round_trip(&RunSpec::grid(4, 3).schedule(sched));
    }

    #[test]
    fn spatial_f64_survive_bit_exactly() {
        let v = SpatialVariation {
            range: DelayRange::paper(),
            layer_gradient: 0.1 + 0.2,
            column_wave: f64::MIN_POSITIVE,
            jitter: -0.0,
        };
        let spec = RunSpec::grid(4, 4).delays(DelayModel::Spatial(v));
        let back = decode_spec(&encode_spec(&spec)).unwrap();
        match back.delays {
            DelayModel::Spatial(got) => {
                assert_eq!(got.layer_gradient.to_bits(), v.layer_gradient.to_bits());
                assert_eq!(got.column_wave.to_bits(), v.column_wave.to_bits());
                assert_eq!(got.jitter.to_bits(), v.jitter.to_bits());
            }
            other => panic!("wrong delay model {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_malformed_input() {
        for (label, bytes) in [
            ("empty", &b""[..]),
            ("bad header", &b"hexcanon/9\n"[..]),
            ("stale epoch", &b"hexcanon/1\ngrid 4 4\n"[..]),
            ("truncated", &b"hexcanon/2\ngrid 4 4\n"[..]),
        ] {
            assert!(decode_spec(bytes).is_err(), "{label} accepted");
        }
        // Field out of canonical order.
        let good = encode_spec(&RunSpec::grid(4, 4));
        let text = String::from_utf8(good).unwrap();
        let swapped = text.replace("runs 250", "seeds 250");
        assert!(decode_spec(swapped.as_bytes()).is_err());
        // Trailing garbage.
        let trailing = format!("{text}junk\n");
        assert!(decode_spec(trailing.as_bytes()).is_err());
        // Unsorted schedule reports instead of panicking.
        let unsorted = text.replace("schedule none", "schedule 1\ns 0 5 5");
        assert!(decode_spec(unsorted.as_bytes())
            .unwrap_err()
            .contains("strictly increasing"));
        // A hostile source count reports the missing `s` lines instead of
        // reserving room for the count it claims.
        for count in ["1000000000000", "9223372036854775807"] {
            let huge = text.replace("schedule none", &format!("schedule {count}"));
            assert!(
                decode_spec(huge.as_bytes()).is_err(),
                "schedule {count} accepted"
            );
        }
        // Spellings that parse to a valid spec but are not its canonical
        // bytes, and every queue but the constant `calendar`.
        for (canonical, other) in [
            ("runs 250", "runs 0250"),
            ("runs 250", "runs +250"),
            ("runs 250", "runs 250 junk"),
            ("grid 4 4", "grid  4 4"),
            ("grid 4 4", "grid 4 4 9"),
            ("init clean", "init clean arbitrary"),
            ("queue calendar", "queue calendar x"),
            ("queue calendar", "queue binary_heap"),
        ] {
            let spelled = text.replace(canonical, other);
            assert_ne!(spelled, text);
            assert!(
                decode_spec(spelled.as_bytes()).is_err(),
                "{other:?} accepted"
            );
        }
    }

    #[test]
    fn hash_distinguishes_specs() {
        let base = RunSpec::grid(8, 6);
        let mut hashes = vec![spec_hash(&base)];
        hashes.push(spec_hash(&base.clone().seed(43)));
        hashes.push(spec_hash(&base.clone().runs(251)));
        hashes.push(spec_hash(&base.clone().scenario(Scenario::Ramp)));
        hashes.push(spec_hash(&base.clone().faults(FaultRegime::Byzantine(1))));
        hashes.push(spec_hash(&base.clone().pulses(2)));
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(
            hashes.len(),
            6,
            "hash collision among trivially distinct specs"
        );
    }

    #[test]
    fn threads_do_not_affect_the_hash() {
        let a = RunSpec::grid(8, 6).threads(1);
        let b = RunSpec::grid(8, 6).threads(64);
        assert_eq!(spec_hash(&a), spec_hash(&b));
        assert_eq!(encode_spec(&a), encode_spec(&b));
    }

    #[test]
    fn engine_version_names_the_canon_epoch() {
        let v = engine_version();
        assert!(v.contains("canon2"), "{v}");
        assert!(v.starts_with("hex-sim-"), "{v}");
    }

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }
}
