//! Validate a JSONL trace file against the structured-event schema:
//!
//! ```text
//! cargo run -p noc-sim --bin trace_validate -- out.jsonl
//! ```
//!
//! Every line must parse into a [`noc_sim::Record`] and re-serialise
//! byte-identically (the schema is canonical, so parse → print is the
//! identity). Exits non-zero on the first violation, making this the CI
//! gate for traces emitted by campaign runs.

use noc_sim::Record;

fn main() {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_validate <trace.jsonl>");
        std::process::exit(2);
    };
    let data = match std::fs::read_to_string(&path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("trace_validate: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let mut events = 0u64;
    for (i, line) in data.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = Record::from_jsonl(line).unwrap_or_else(|e| {
            eprintln!("{path}:{}: line does not match the schema: {e}", i + 1);
            eprintln!("  {line}");
            std::process::exit(1)
        });
        let back = rec.to_jsonl();
        if back != line {
            eprintln!("{path}:{}: line is not canonical:", i + 1);
            eprintln!("  read:  {line}");
            eprintln!("  canon: {back}");
            std::process::exit(1);
        }
        events += 1;
    }
    if events == 0 {
        eprintln!("{path}: no trace events found");
        std::process::exit(1);
    }
    println!("{path}: {events} events, schema OK");
}
