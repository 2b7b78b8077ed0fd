//! Answer checking against the reference evaluator.
//!
//! Every result is reduced to an order-independent [`Checksum`] over its
//! rows, each row rendered as the line protocol renders it (`Display` of
//! each value, joined by `|`). In-process results and `ROW` frames off
//! the wire therefore check against the same precomputed answer.

use crate::workload::Instance;
use qs_storage::{Catalog, Value};
use std::fmt::Write as _;

/// Multiset hash of a result: row count plus the wrapping sum of a
/// mixed hash of each row's text. Row order does not change it; a
/// missing, extra or altered row does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checksum {
    rows: u64,
    sum: u64,
}

impl Checksum {
    /// Add one row given as protocol text (`v1|v2|...`).
    pub fn add_row(&mut self, text: &str) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        // Finalize so that the sum is not linear in the row bytes.
        h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
    }
}

/// Render decoded values as one protocol row into `out` (cleared first).
pub fn row_text(values: impl IntoIterator<Item = Value>, out: &mut String) {
    out.clear();
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push('|');
        }
        let _ = write!(out, "{v}");
    }
}

/// The reference answer of one instantiation, evaluated from the
/// template's own plan (not from its SQL), so the SQL front end and the
/// optimizer are checked along with the engine.
fn answer(catalog: &Catalog, inst: &Instance) -> Result<Checksum, String> {
    let plan = inst
        .template
        .plan(catalog, &inst.params)
        .map_err(|e| format!("{}: {e}", inst.template.name()))?;
    let rows = qs_engine::reference::eval(&plan, catalog)
        .map_err(|e| format!("reference {}: {e}", inst.template.name()))?;
    let mut sum = Checksum::default();
    let mut text = String::new();
    for row in rows {
        row_text(row, &mut text);
        sum.add_row(&text);
    }
    Ok(sum)
}

/// Reference answers for the whole pool, evaluated on `threads` threads.
pub fn answers(
    catalog: &Catalog,
    pool: &[Instance],
    threads: usize,
) -> Result<Vec<Checksum>, String> {
    let chunk = pool.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = pool
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|inst| answer(catalog, inst))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(pool.len());
        for p in parts {
            out.extend(
                p.join()
                    .map_err(|_| "oracle thread panicked".to_string())??,
            );
        }
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(rows: &[&str]) -> Checksum {
        let mut c = Checksum::default();
        for r in rows {
            c.add_row(r);
        }
        c
    }

    #[test]
    fn checksum_ignores_row_order() {
        assert_eq!(sum(&["1|a", "2|b", "3|c"]), sum(&["3|c", "1|a", "2|b"]));
    }

    #[test]
    fn checksum_sees_changed_missing_and_repeated_rows() {
        let base = sum(&["1|a", "2|b"]);
        assert_ne!(base, sum(&["1|a", "2|c"]));
        assert_ne!(base, sum(&["1|a"]));
        assert_ne!(base, sum(&["1|a", "2|b", "2|b"]));
        assert_ne!(sum(&["1|a", "1|a"]), sum(&["2|b", "2|b"]));
    }

    #[test]
    fn row_text_matches_the_wire_format() {
        let mut s = String::new();
        row_text(
            vec![
                Value::Int(1997),
                Value::Str("MFGR#2221".into()),
                Value::Int(-3),
            ],
            &mut s,
        );
        assert_eq!(s, "1997|MFGR#2221|-3");
    }
}
