//! Corollary 1: the `(n,x)`-liveness hierarchy, as a verdict table.
//!
//! ```text
//! (n,0) ≺ (n,1) ≺ … ≺ (n,x) ≺ … ≺ (n,n−1) ≃ (n,n)
//! ```
//!
//! For each liveness degree `x` the table records:
//!
//! * the consensus number claimed by Theorem 3 (`x+1`, or `n` at the top);
//! * whether the constructive direction was verified exhaustively
//!   (`(x+1,x)`-live object solves `x+1`-consensus — every schedule, every
//!   crash pattern within budget);
//! * whether the negative direction produced a machine-checked starvation
//!   certificate (`x+2` processes cannot all be served).
//!
//! [`hierarchy_table`] is what the `theorem_lab` example prints — the
//! repository's equivalent of the paper's central "table".

use std::fmt;

use apc_core::liveness::Liveness;

use crate::theorem3::{theorem3_constructive, theorem3_negative};

/// One row of the hierarchy table.
#[derive(Clone, Debug)]
pub struct HierarchyRow {
    /// Liveness degree `x`.
    pub x: usize,
    /// Consensus number per Theorem 3 (computed by
    /// [`Liveness::consensus_number`] on an `(x+2, x)` spec, i.e. `x+1`).
    pub consensus_number: usize,
    /// Constructive direction exhaustively verified?
    pub constructive_verified: bool,
    /// States explored in the constructive verification.
    pub states_explored: usize,
    /// Negative direction certificate found (guests provably starve)?
    pub negative_certified: bool,
}

impl fmt::Display for HierarchyRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "x={:2}  consensus#={}  solves {}-proc consensus: {}  cannot serve {}+: {}",
            self.x,
            self.consensus_number,
            self.x + 1,
            if self.constructive_verified { "verified" } else { "FAILED" },
            self.x + 2,
            if self.negative_certified { "certified" } else { "FAILED" },
        )
    }
}

/// Computes the hierarchy table for liveness degrees `0 ..= max_x`.
///
/// Cost grows quickly with `x` (the constructive direction explores all
/// schedules of `x+1` processes); `max_x ≤ 3` runs in seconds.
pub fn hierarchy_table(max_x: usize, window: u8) -> Vec<HierarchyRow> {
    (0..=max_x)
        .map(|x| {
            let constructive = theorem3_constructive(x, window, 1);
            let negative = theorem3_negative(x, window);
            let spec = Liveness::new_first_n(x + 2, x);
            HierarchyRow {
                x,
                consensus_number: spec.consensus_number(),
                constructive_verified: constructive.verified(),
                states_explored: constructive.states,
                negative_certified: negative.is_some(),
            }
        })
        .collect()
}

/// Renders the full table with a header (used by the example binaries).
pub fn render_table(rows: &[HierarchyRow]) -> String {
    let mut out = String::from(
        "The (n,x)-liveness hierarchy (Corollary 1): (n,0) ≺ (n,1) ≺ … ≺ (n,n−1) ≃ (n,n)\n",
    );
    for row in rows {
        out.push_str(&format!("  {row}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_verify_for_small_x() {
        let rows = hierarchy_table(2, 1);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.consensus_number, row.x + 1, "Theorem 3 arithmetic");
            assert!(row.constructive_verified, "constructive direction x={}", row.x);
            assert!(row.negative_certified, "negative direction x={}", row.x);
        }
    }

    #[test]
    fn rendered_table_mentions_hierarchy() {
        let rows = hierarchy_table(1, 1);
        let s = render_table(&rows);
        assert!(s.contains("Corollary 1"), "{s}");
        assert!(s.lines().count() >= 3);
    }

    #[test]
    fn strictness_of_hierarchy_in_liveness_type() {
        // The ≺ relation is strictly increasing in x below n−1.
        let n = 6;
        for x in 0..n - 2 {
            let lo = Liveness::new_first_n(n, x);
            let hi = Liveness::new_first_n(n, x + 1);
            assert!(lo.consensus_number() < hi.consensus_number());
        }
    }
}
