//! Output records and the golden check.
//!
//! Every pass renders its outputs as keyed text lines: a `structure` line
//! per design (seed-independent), a `rows` line per Table 2 column and a
//! `kernel` line per graded kernel (both seed-dependent unless the
//! workload's stream ignores the seed). The golden files hold the lines
//! the parent commit printed at the product's default seed.

use crate::workload::{Column, Graded, Size, Workload};
use bibs_core::delay::maximal_delay;
use bibs_core::schedule::{schedule_test_time, sequential_test_time};
use bibs_netlist::Netlist;
use std::collections::BTreeMap;

/// The seed the golden records were taken at: the product's default
/// (`Table2Options::default().seed`).
pub const GOLDEN_SEED: u64 = 0x51B5_1994;

/// FNV-1a over the first-detection indices.
pub fn digest(indices: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in indices {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The record of one graded kernel.
pub fn kernel_line(label: &str, g: &Graded) -> String {
    let s = &g.stats;
    format!(
        "kernel {label} faults={} detected={} redundant={} aborted={} unreached={} \
         patterns={} digest={:016x} source={} clocks={}",
        s.faults,
        s.detected,
        s.redundant,
        s.aborted,
        s.unreached,
        g.patterns,
        digest(&s.detection_indices),
        g.source_kind,
        g.clocks
    )
}

/// Consistency every graded kernel must satisfy, whatever the seed.
pub fn invariant_error(g: &Graded) -> Option<String> {
    let s = &g.stats;
    if s.detected + s.unreached + s.redundant + s.aborted != s.faults {
        return Some(format!(
            "fault accounting: {} detected + {} unreached + {} redundant + {} aborted != {} faults",
            s.detected, s.unreached, s.redundant, s.aborted, s.faults
        ));
    }
    if s.detection_indices.len() != s.detected {
        return Some("detection index count differs from the detected count".into());
    }
    if s.detection_indices.windows(2).any(|w| w[0] > w[1])
        || s.detection_indices.last().is_some_and(|&i| i >= g.patterns)
    {
        return Some("detection indices unsorted or past the patterns applied".into());
    }
    None
}

/// The seed-independent record of a design: Table 2 rows 1–4.
pub fn structure_line(col: &Column) -> String {
    format!(
        "structure {} kernels={} sessions={} bilbo={} max_delay={}",
        col.label,
        col.kernels.len(),
        col.sessions.len(),
        col.design.register_count(),
        maximal_delay(&col.circuit, &col.design).unwrap_or(0)
    )
}

/// The seed-independent record of a gate-level netlist.
pub fn netlist_line(name: &str, netlist: &Netlist) -> String {
    format!(
        "structure {name} inputs={} gates={}",
        netlist.input_width(),
        netlist.gate_count()
    )
}

/// Table 2 rows 5–8 of a column from its kernels' statistics.
pub fn rows_line(col: &Column, graded: &[Graded]) -> String {
    let per_kernel = |fraction: f64| -> Vec<u64> {
        graded
            .iter()
            .map(|g| g.stats.patterns_for(fraction))
            .collect()
    };
    let (p995, p100) = (per_kernel(0.995), per_kernel(1.0));
    format!(
        "rows {} patterns_995={} time_995={} patterns_100={} time_100={}",
        col.label,
        sequential_test_time(&p995),
        schedule_test_time(&col.sessions, &p995),
        sequential_test_time(&p100),
        schedule_test_time(&col.sessions, &p100)
    )
}

/// The key of a record line: its kind and label, everything before the
/// first `name=value` field.
pub fn key(line: &str) -> &str {
    match line.find('=') {
        Some(eq) => line[..eq].rsplit_once(' ').map_or(line, |(k, _)| k),
        None => line,
    }
}

/// The golden lines of a workload at a size, keyed by [`key`].
pub fn golden(workload: Workload, size: Size) -> BTreeMap<String, String> {
    let text = match (workload, size) {
        (Workload::Table2Paper, Size::Full) => include_str!("../golden/table2-paper.full.txt"),
        (Workload::Table2Paper, Size::Smoke) => include_str!("../golden/table2-paper.smoke.txt"),
        (Workload::WideArith, Size::Full) => include_str!("../golden/wide-arith.full.txt"),
        (Workload::WideArith, Size::Smoke) => include_str!("../golden/wide-arith.smoke.txt"),
        (Workload::KchainMintpg, Size::Full) => include_str!("../golden/kchain-mintpg.full.txt"),
        (Workload::KchainMintpg, Size::Smoke) => include_str!("../golden/kchain-mintpg.smoke.txt"),
    };
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| (key(l).to_string(), l.to_string()))
        .collect()
}

/// Where [`golden`] reads from, for `--record-golden`.
pub fn golden_path(workload: Workload, size: Size) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.{}.txt", workload.name(), size.name()))
}

/// Keys whose lines differ between `produced` and `golden`, over the keys
/// `checked` selects on either side (missing lines count as differing).
pub fn mismatches(
    produced: &BTreeMap<String, String>,
    golden: &BTreeMap<String, String>,
    checked: impl Fn(&str) -> bool,
) -> Vec<String> {
    let mut keys: Vec<&String> = produced.keys().chain(golden.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .filter(|k| checked(k) && produced.get(*k) != golden.get(*k))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_stop_before_the_first_field() {
        assert_eq!(
            key("kernel c5a2m [3] k4 faults=3 detected=2"),
            "kernel c5a2m [3] k4"
        );
        assert_eq!(key("structure mul32 inputs=64"), "structure mul32");
        assert_eq!(key("plain"), "plain");
    }

    #[test]
    fn mismatches_cover_missing_and_changed_lines() {
        let map = |ls: &[&str]| -> BTreeMap<String, String> {
            ls.iter()
                .map(|l| (key(l).to_string(), l.to_string()))
                .collect()
        };
        let golden = map(&["kernel a x=1", "kernel b x=2", "rows a y=1"]);
        let produced = map(&["kernel a x=1", "kernel b x=3", "rows a y=9"]);
        assert_eq!(
            mismatches(&produced, &golden, |_| true),
            vec!["kernel b".to_string(), "rows a".to_string()]
        );
        assert_eq!(
            mismatches(&map(&["kernel a x=1"]), &golden, |k| k
                .starts_with("kernel")),
            vec!["kernel b".to_string()]
        );
    }

    #[test]
    fn digest_depends_on_order_and_values() {
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_ne!(digest(&[1, 2]), digest(&[1, 3]));
        assert_eq!(digest(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
