//! The committed correctness gate: one line per batch of every input
//! variant, holding the FNV-1a digest of the batch's table bytes and the
//! popped and stale event counts of its runs.
//!
//! ```text
//! # variant  label  table-fnv1a  popped  stale
//! v3  table1.zero  89ab01cd23ef4567  2371120  0
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// What one batch must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    pub table: u64,
    pub popped: u64,
    pub stale: u64,
}

/// Every pinned batch of one workload, keyed by `(variant, label)`.
#[derive(Debug, Default)]
pub struct Digests {
    pins: BTreeMap<(u32, String), Pin>,
}

impl Digests {
    pub fn load(path: &Path) -> Result<Digests, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read digests {}: {e}", path.display()))?;
        let mut pins = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("{}:{}: malformed digest line", path.display(), n + 1);
            let f: Vec<&str> = line.split_whitespace().collect();
            let [variant, label, table, popped, stale] = f[..] else {
                return Err(bad());
            };
            let variant = variant
                .strip_prefix('v')
                .and_then(|v| v.parse().ok())
                .ok_or_else(bad)?;
            let pin = Pin {
                table: u64::from_str_radix(table, 16).map_err(|_| bad())?,
                popped: popped.parse().map_err(|_| bad())?,
                stale: stale.parse().map_err(|_| bad())?,
            };
            pins.insert((variant, label.to_string()), pin);
        }
        Ok(Digests { pins })
    }

    pub fn get(&self, variant: u32, label: &str) -> Option<Pin> {
        self.pins.get(&(variant, label.to_string())).copied()
    }

    pub fn insert(&mut self, variant: u32, label: &str, pin: Pin) {
        self.pins.insert((variant, label.to_string()), pin);
    }

    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for line in header.lines() {
            let _ = writeln!(out, "# {line}");
        }
        let _ = writeln!(out, "# variant  label  table-fnv1a  popped  stale");
        for ((variant, label), pin) in &self.pins {
            let _ = writeln!(
                out,
                "v{variant} {label} {:016x} {} {}",
                pin.table, pin.popped, pin.stale
            );
        }
        std::fs::write(path, out)
    }
}
