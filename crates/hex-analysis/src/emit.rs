//! Machine-readable output for the experiment drivers (CSV / JSON).
//!
//! Every figure/table binary prints human-oriented text; external plotting
//! wants structured data next to it. Instead of each binary hand-rolling
//! its own output switch, drivers build [`Table`]s and hand them to an
//! [`Emitter`] configured from the environment:
//!
//! * `HEX_EMIT=csv` — emit CSV blocks;
//! * `HEX_EMIT=json` — emit one JSON object per table;
//! * unset / `HEX_EMIT=off` — emit nothing.
//!
//! ```
//! use hex_analysis::emit::{Emitter, Table, Value};
//!
//! let mut t = Table::new("wave_front", &["layer", "spread_ns"]);
//! t.row(vec![Value::Int(1), Value::Num(0.25)]);
//! t.row(vec![Value::Int(2), Value::Null]);
//! let csv = Emitter::csv().render(&t).unwrap();
//! assert_eq!(csv, "# wave_front\nlayer,spread_ns\n1,0.25\n2,\n");
//! let json = Emitter::json().render(&t).unwrap();
//! assert!(json.contains("\"table\":\"wave_front\""));
//! assert!(Emitter::disabled().render(&t).is_none());
//! ```

use std::fmt::Write as _;

/// Output format of an [`Emitter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Comma-separated values with a `# name` heading line.
    Csv,
    /// One JSON object per table: `{"table", "columns", "rows"}`.
    Json,
}

/// One cell of a [`Table`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer (counts, layers, run indices).
    Int(i64),
    /// A float (times and skews in ns).
    Num(f64),
    /// A string (labels).
    Str(String),
    /// Missing data (starved/faulty nodes): empty in CSV, `null` in JSON.
    Null,
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as i64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<Option<f64>> for Value {
    fn from(v: Option<f64>) -> Value {
        v.map_or(Value::Null, Value::Num)
    }
}

impl From<Option<usize>> for Value {
    /// Stabilization estimates are `Option<usize>` per run (`None` = the
    /// run never stabilized): missing data in the emitted tables.
    fn from(v: Option<usize>) -> Value {
        v.map_or(Value::Null, |k| Value::Int(k as i64))
    }
}

impl Value {
    fn csv_cell(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Num(v) => format_num(*v),
            Value::Str(s) => {
                if s.contains([',', '"', '\n']) {
                    format!("\"{}\"", s.replace('"', "\"\""))
                } else {
                    s.clone()
                }
            }
            Value::Null => String::new(),
        }
    }

    fn json_cell(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Num(v) => {
                if v.is_finite() {
                    format_num(*v)
                } else {
                    "null".to_string()
                }
            }
            Value::Str(s) => json_string(s),
            Value::Null => "null".to_string(),
        }
    }
}

/// Shortest-roundtrip float rendering (Rust's `{}` for `f64`).
fn format_num(v: f64) -> String {
    format!("{v}")
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A named, column-labeled block of rows.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// A new empty table.
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            name: name.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, row: Vec<Value>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "table {}: row has {} cells, {} columns declared",
            self.name,
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as CSV (heading comment + header + rows).
    pub fn to_csv(&self) -> String {
        let mut s = format!("# {}\n{}\n", self.name, self.columns.join(","));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Value::csv_cell).collect();
            s.push_str(&cells.join(","));
            s.push('\n');
        }
        s
    }

    /// Render as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let cols: Vec<String> = self.columns.iter().map(|c| json_string(c)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(Value::json_cell).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!(
            "{{\"table\":{},\"columns\":[{}],\"rows\":[{}]}}",
            json_string(&self.name),
            cols.join(","),
            rows.join(",")
        )
    }
}

/// Renders [`Table`]s in the configured [`Format`], or not at all.
#[derive(Debug, Clone, Copy)]
pub struct Emitter {
    format: Option<Format>,
}

impl Emitter {
    /// Configure from `HEX_EMIT` (`csv` / `json` / `off`; unset emits
    /// nothing).
    pub fn from_env() -> Emitter {
        match hex_sim::knobs::raw("HEX_EMIT").as_deref() {
            Some("csv") => Emitter::csv(),
            Some("json") => Emitter::json(),
            Some("off") | Some("") => Emitter::disabled(),
            Some(other) => panic!("HEX_EMIT must be csv|json|off, got {other:?}"),
            None => Emitter::disabled(),
        }
    }

    /// An emitter that renders nothing.
    pub fn disabled() -> Emitter {
        Emitter { format: None }
    }

    /// A CSV emitter.
    pub fn csv() -> Emitter {
        Emitter {
            format: Some(Format::Csv),
        }
    }

    /// A JSON emitter.
    pub fn json() -> Emitter {
        Emitter {
            format: Some(Format::Json),
        }
    }

    /// True iff tables will be rendered (drivers can skip building them
    /// otherwise).
    pub fn is_enabled(&self) -> bool {
        self.format.is_some()
    }

    /// Render a table in the configured format, if any.
    pub fn render(&self, table: &Table) -> Option<String> {
        self.format.map(|f| match f {
            Format::Csv => table.to_csv(),
            Format::Json => table.to_json(),
        })
    }

    /// Print a table to stdout (preceded by a blank line), if enabled.
    pub fn emit(&self, table: &Table) {
        if let Some(s) = self.render(table) {
            println!();
            print!("{s}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("skews", &["layer", "label", "max_ns"]);
        t.row(vec![Value::Int(1), Value::from("a,b"), Value::Num(1.5)]);
        t.row(vec![Value::Int(2), Value::from("q\"x\""), Value::Null]);
        t
    }

    #[test]
    fn csv_escapes_and_nulls() {
        let csv = sample().to_csv();
        assert_eq!(
            csv,
            "# skews\nlayer,label,max_ns\n1,\"a,b\",1.5\n2,\"q\"\"x\"\"\",\n"
        );
    }

    #[test]
    fn json_escapes_and_nulls() {
        let json = sample().to_json();
        assert_eq!(
            json,
            "{\"table\":\"skews\",\"columns\":[\"layer\",\"label\",\"max_ns\"],\
             \"rows\":[[1,\"a,b\",1.5],[2,\"q\\\"x\\\"\",null]]}"
        );
    }

    #[test]
    fn disabled_renders_nothing() {
        assert!(Emitter::disabled().render(&sample()).is_none());
        assert!(!Emitter::disabled().is_enabled());
        assert!(Emitter::csv().is_enabled());
    }

    #[test]
    #[should_panic(expected = "row has 2 cells")]
    fn row_arity_checked() {
        let mut t = Table::new("t", &["a", "b", "c"]);
        t.row(vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(Some(2.0)), Value::Num(2.0));
        assert_eq!(Value::from(None::<f64>), Value::Null);
        assert_eq!(Value::from(Some(4usize)), Value::Int(4));
        assert_eq!(Value::from(None::<usize>), Value::Null);
    }
}
