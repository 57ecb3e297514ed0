//! Hostile scenario files never panic. Generated scenarios' JSON is
//! mutated at random: a number set to 0, `u64::MAX`, a negative or a
//! fractional value; a member deleted or duplicated; a value's type
//! swapped; the text truncated at a random byte. `Scenario::parse` must
//! answer every mutant with a scenario or a typed error (one naming the
//! member at fault, unless the text is no longer JSON), and every
//! accepted scenario inside the generator's ranges must run through
//! `run_differential` to a report.

use htnoc_conformance::{
    run_differential, Rng, Scenario, TOPOLOGY_DEGRADED, TOPOLOGY_MESH, TOPOLOGY_TORUS,
};
use noc_sim::json::{Json, JsonError};
use std::panic::{catch_unwind, AssertUnwindSafe};

const FIXTURE: &str = include_str!("fixtures/quarantine_credit_regression.json");

/// Values in `v`, itself included.
fn count(v: &Json) -> usize {
    1 + match v {
        Json::Arr(items) => items.iter().map(count).sum(),
        Json::Obj(members) => members.iter().map(|(_, v)| count(v)).sum(),
        _ => 0,
    }
}

/// The `k`-th value of `v` in pre-order (`v` itself is the 0th).
fn nth<'a>(v: &'a mut Json, k: &mut usize) -> Option<&'a mut Json> {
    if *k == 0 {
        return Some(v);
    }
    *k -= 1;
    let children: Vec<&mut Json> = match v {
        Json::Arr(items) => items.iter_mut().collect(),
        Json::Obj(members) => members.iter_mut().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for child in children {
        if let Some(found) = nth(child, k) {
            return Some(found);
        }
    }
    None
}

/// A value of `root` (itself included), drawn uniformly among those
/// `keep` accepts.
fn pick<'a>(
    rng: &mut Rng,
    root: &'a mut Json,
    keep: impl Fn(&Json) -> bool,
) -> Option<&'a mut Json> {
    let hits: Vec<usize> = (0..count(root))
        .filter(|&k| nth(root, &mut { k }).is_some_and(|v| keep(v)))
        .collect();
    let k = *hits.get(rng.below(hits.len() as u64) as usize)?;
    nth(root, &mut { k })
}

/// One random mutation of a scenario document, as text.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut doc = Json::parse(text).expect("a generated scenario is JSON");
    let number = |v: &Json| matches!(v, Json::Int(_) | Json::Float(_));
    let object = |v: &Json| matches!(v, Json::Obj(m) if !m.is_empty());
    match rng.below(8) {
        0..=3 => {
            let kind = rng.below(4);
            if let Some(v) = pick(rng, &mut doc, number) {
                let n = v.as_f64().unwrap_or(0.0);
                *v = match kind {
                    0 => Json::Int(0),
                    1 => Json::Int(u64::MAX.into()),
                    2 => Json::Int(-1 - n as i128),
                    _ => Json::Float(n + 0.5),
                };
            }
        }
        4 | 5 => {
            let duplicate = rng.below(2) == 0;
            let at = rng.next_u64();
            if let Some(Json::Obj(members)) = pick(rng, &mut doc, object) {
                let i = (at % members.len() as u64) as usize;
                if duplicate {
                    let copy = members[i].clone();
                    members.insert(i + 1, copy);
                } else {
                    members.remove(i);
                }
            }
        }
        6 => {
            let swaps = [
                Json::Null,
                Json::Bool(true),
                Json::Int(1),
                Json::Str("x".into()),
                Json::Arr(Vec::new()),
                Json::Obj(Vec::new()),
            ];
            let to = swaps[rng.below(swaps.len() as u64) as usize].clone();
            let other = |v: &Json| std::mem::discriminant(v) != std::mem::discriminant(&to);
            // Below the document's root, which stays an object.
            if let Json::Obj(members) = &mut doc {
                let i = rng.below(members.len() as u64) as usize;
                if let Some(v) = pick(rng, &mut members[i].1, other) {
                    *v = to;
                }
            }
        }
        _ => {
            let cut = rng.below(text.len() as u64) as usize;
            return String::from_utf8_lossy(&text.as_bytes()[..cut]).into_owned();
        }
    }
    doc.to_string()
}

/// Within the generator's ranges: a mesh no larger than it makes, and a
/// cycle budget no longer than it gives the scenario's packets.
fn in_range(sc: &Scenario) -> bool {
    sc.width <= 4
        && sc.height <= 4
        && sc.routers() <= 16
        && sc.concentration <= 2
        && sc.max_cycles <= 4_000 + 200 * sc.packets.len() as u64
}

#[test]
fn mutated_scenarios_parse_or_fail_typed_and_run_without_panics() {
    let mut rng = Rng::new(0x5EED_F00D);
    let mut bases = vec![FIXTURE.trim().to_string()];
    for family in [TOPOLOGY_MESH, TOPOLOGY_TORUS, TOPOLOGY_DEGRADED] {
        for seed in 0..4 {
            bases.push(Scenario::generate_in(seed, Some(family)).to_json_string());
        }
    }
    let (mut accepted, mut ran) = (0, 0);
    for i in 0..600 {
        let base = &bases[i % bases.len()];
        let text = mutate(&mut rng, base);
        let parsed = catch_unwind(|| Scenario::parse(&text))
            .unwrap_or_else(|_| panic!("parse panicked on mutant {i}: {text}"));
        let sc = match parsed {
            Ok(sc) => sc,
            Err(JsonError::Field { path, what }) => {
                assert!(
                    !path.is_empty(),
                    "mutant {i}: unnamed fault '{what}': {text}"
                );
                continue;
            }
            Err(err) => {
                assert!(
                    Json::parse(&text).is_err(),
                    "mutant {i}: {err} on JSON: {text}"
                );
                continue;
            }
        };
        accepted += 1;
        if in_range(&sc) {
            ran += 1;
            catch_unwind(AssertUnwindSafe(|| run_differential(&sc)))
                .unwrap_or_else(|_| panic!("run_differential panicked on mutant {i}: {text}"));
        }
    }
    assert!(ran >= 100, "only {ran} of {accepted} accepted mutants ran");
}
