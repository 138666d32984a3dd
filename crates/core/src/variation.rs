//! Allocation of variation (slides 81–93): how much of the response's
//! variability each factor explains.
//!
//! For an unreplicated 2^k design:
//! `SST = Σ(yᵢ − ȳ)² = 2^k · Σ_{S≠∅} q_S²`, and the fraction
//! `2^k q_S² / SST` is the importance of effect `S`.
//!
//! With replication, `SST = SS(effects) + SSE`, and the error term SSE is
//! exactly what common-mistake #1 ("variation due to experimental error is
//! ignored") says you must compare factor effects against.

use crate::effects::{estimate_effects, estimate_effects_replicated, EffectModel};
use crate::twolevel::TwoLevelDesign;
use crate::DesignError;

/// One row of an allocation-of-variation table.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationShare {
    /// Effect label ("A", "A·B", …).
    pub effect: String,
    /// Effect mask.
    pub mask: u32,
    /// The effect's coefficient q.
    pub q: f64,
    /// Sum of squares attributed to the effect.
    pub sum_of_squares: f64,
    /// Fraction of SST explained, in `[0, 1]`.
    pub fraction: f64,
}

/// The full allocation result.
#[derive(Debug, Clone)]
pub struct VariationTable {
    /// Per-effect shares, largest first.
    pub shares: Vec<VariationShare>,
    /// Total sum of squares.
    pub sst: f64,
    /// Error sum of squares (0 without replication).
    pub sse: f64,
    /// Fraction of SST attributed to experimental error.
    pub error_fraction: f64,
    /// The underlying effect model.
    pub model: EffectModel,
}

impl VariationTable {
    /// Share of a named effect.
    pub fn fraction_of(&self, design: &TwoLevelDesign, factors: &[&str]) -> Option<f64> {
        let mask = design.effect_mask(factors).ok()?;
        self.shares
            .iter()
            .find(|s| s.mask == mask)
            .map(|s| s.fraction)
    }

    /// Renders the "Variation explained (%)" table of slide 92.
    pub fn render(&self) -> String {
        let mut out = String::from("effect      q        SS       %\n");
        for s in &self.shares {
            out.push_str(&format!(
                "{:<8} {:>8.4} {:>9.4} {:>6.1}\n",
                s.effect,
                s.q,
                s.sum_of_squares,
                s.fraction * 100.0
            ));
        }
        if self.sse > 0.0 {
            out.push_str(&format!(
                "{:<8} {:>8} {:>9.4} {:>6.1}\n",
                "error",
                "",
                self.sse,
                self.error_fraction * 100.0
            ));
        }
        out
    }

    /// Effects ranked by explained fraction, most important first.
    pub fn ranked_effects(&self) -> Vec<(&str, f64)> {
        self.shares
            .iter()
            .map(|s| (s.effect.as_str(), s.fraction))
            .collect()
    }
}

fn build_table(
    design: &TwoLevelDesign,
    model: EffectModel,
    sst_total: f64,
    sse: f64,
) -> VariationTable {
    let n_runs = design.run_count() as f64;
    let mut shares: Vec<VariationShare> = model
        .coefficients()
        .filter(|(mask, _)| *mask != 0)
        .map(|(mask, q)| {
            let ss = n_runs * q * q;
            VariationShare {
                effect: design.effect_label(mask),
                mask,
                q,
                sum_of_squares: ss,
                fraction: if sst_total > 0.0 { ss / sst_total } else { 0.0 },
            }
        })
        .collect();
    shares.sort_by(|a, b| {
        b.fraction
            .partial_cmp(&a.fraction)
            .expect("fractions are finite")
    });
    VariationTable {
        shares,
        sst: sst_total,
        sse,
        error_fraction: if sst_total > 0.0 {
            sse / sst_total
        } else {
            0.0
        },
        model,
    }
}

/// Allocation of variation for an unreplicated two-level design.
pub fn allocate_variation(
    design: &TwoLevelDesign,
    responses: &[f64],
) -> Result<VariationTable, DesignError> {
    let model = estimate_effects(design, responses)?;
    let mean = model.mean();
    let sst: f64 = responses.iter().map(|y| (y - mean) * (y - mean)).sum();
    Ok(build_table(design, model, sst, 0.0))
}

/// Allocation of variation with replication: SST decomposes into effect
/// sums of squares (computed from per-run means, scaled by the replication
/// count) plus SSE, the within-run spread.
pub fn allocate_variation_replicated(
    design: &TwoLevelDesign,
    replicates: &[Vec<f64>],
) -> Result<VariationTable, DesignError> {
    let model = estimate_effects_replicated(design, replicates)?;
    let reps = replicates[0].len();
    if replicates.iter().any(|r| r.len() != reps) {
        return Err(DesignError::Invalid(
            "replicated allocation requires equal replication per run".into(),
        ));
    }
    let grand_mean = model.mean();
    let sst: f64 = replicates
        .iter()
        .flatten()
        .map(|y| (y - grand_mean) * (y - grand_mean))
        .sum();
    let sse: f64 = replicates
        .iter()
        .map(|r| {
            let m = r.iter().sum::<f64>() / r.len() as f64;
            r.iter().map(|y| (y - m) * (y - m)).sum::<f64>()
        })
        .sum();
    // Effect SS must be scaled by the replication count: each run mean
    // represents `reps` observations.
    let n_runs = design.run_count() as f64;
    let mut table = build_table(design, model, sst, sse);
    for share in &mut table.shares {
        share.sum_of_squares = n_runs * reps as f64 * share.q * share.q;
        share.fraction = if sst > 0.0 {
            share.sum_of_squares / sst
        } else {
            0.0
        };
    }
    table
        .shares
        .sort_by(|a, b| b.fraction.partial_cmp(&a.fraction).expect("finite"));
    Ok(table)
}

/// Sums of squares of a replicated two-factor experiment whose factors
/// have any number of levels (the sign-table shortcut above covers two
/// levels only): `sst = ss_a + ss_b + ss_ab + sse`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoFactorVariation {
    /// Explained by the first factor's level means.
    pub ss_a: f64,
    /// Explained by the second factor's level means.
    pub ss_b: f64,
    /// Explained by their interaction (cell means beyond both main effects).
    pub ss_ab: f64,
    /// Within-cell spread: the replicates around their cell mean.
    pub sse: f64,
    /// Total variation around the grand mean.
    pub sst: f64,
}

/// Allocation of variation for two factors with general level counts and
/// equal replication, from cell means directly: responses are indexed
/// `y[a][b][r]` (level of the first factor, level of the second, replicate).
///
/// # Errors
/// `Invalid` when `y` is empty or not rectangular — every level of the
/// first factor must list the same levels of the second, and every cell
/// the same number of replicates.
pub fn allocate_variation_general(y: &[Vec<Vec<f64>>]) -> Result<TwoFactorVariation, DesignError> {
    let a = y.len();
    let b = y.first().map_or(0, Vec::len);
    let r = y.first().and_then(|row| row.first()).map_or(0, Vec::len);
    if r == 0
        || y.iter()
            .any(|row| row.len() != b || row.iter().any(|cell| cell.len() != r))
    {
        return Err(DesignError::Invalid(
            "general allocation requires a non-empty a x b x r table with equal replication".into(),
        ));
    }
    let grand: f64 = y.iter().flatten().flatten().sum::<f64>() / (a * b * r) as f64;
    let cell_mean = |i: usize, j: usize| -> f64 { y[i][j].iter().sum::<f64>() / r as f64 };
    let a_mean = |i: usize| -> f64 { (0..b).map(|j| cell_mean(i, j)).sum::<f64>() / b as f64 };
    let b_mean = |j: usize| -> f64 { (0..a).map(|i| cell_mean(i, j)).sum::<f64>() / a as f64 };

    let ss_a: f64 = (0..a)
        .map(|i| (b * r) as f64 * (a_mean(i) - grand).powi(2))
        .sum();
    let ss_b: f64 = (0..b)
        .map(|j| (a * r) as f64 * (b_mean(j) - grand).powi(2))
        .sum();
    let mut ss_ab = 0.0;
    let mut sse = 0.0;
    let mut sst = 0.0;
    for (i, row) in y.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            let cm = cell_mean(i, j);
            ss_ab += r as f64 * (cm - a_mean(i) - b_mean(j) + grand).powi(2);
            for &v in cell {
                sse += (v - cm).powi(2);
                sst += (v - grand).powi(2);
            }
        }
    }
    Ok(TwoFactorVariation {
        ss_a,
        ss_b,
        ss_ab,
        sse,
        sst,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slide 90–93: interconnection-network example. The slides' data table
    /// lists the sign columns in the order (address pattern, network type):
    /// computing the allocation from the printed responses yields the
    /// printed percentages only under that reading, so we name the factors
    /// accordingly (B = address pattern first, A = network type second) and
    /// reproduce the published table exactly.
    fn networks() -> (TwoLevelDesign, [f64; 4], [f64; 4], [f64; 4]) {
        let d = TwoLevelDesign::full(&["B", "A"]);
        let t = [0.6041, 0.4220, 0.7922, 0.4717]; // throughput
        let n = [3.0, 5.0, 2.0, 4.0]; // 90% transit time
        let r = [1.655, 2.378, 1.262, 2.190]; // response time
        (d, t, n, r)
    }

    #[test]
    fn slide_92_throughput_allocation() {
        let (d, t, _, _) = networks();
        let table = allocate_variation(&d, &t).unwrap();
        let qa = table.fraction_of(&d, &["A"]).unwrap();
        let qb = table.fraction_of(&d, &["B"]).unwrap();
        let qab = table.fraction_of(&d, &["B", "A"]).unwrap();
        assert!((qa * 100.0 - 17.2).abs() < 0.2, "qA% = {}", qa * 100.0);
        assert!((qb * 100.0 - 77.0).abs() < 0.2, "qB% = {}", qb * 100.0);
        assert!((qab * 100.0 - 5.8).abs() < 0.2, "qAB% = {}", qab * 100.0);
    }

    #[test]
    fn slide_92_transit_time_allocation() {
        let (d, _, n, _) = networks();
        let table = allocate_variation(&d, &n).unwrap();
        assert!((table.fraction_of(&d, &["A"]).unwrap() * 100.0 - 20.0).abs() < 1e-9);
        assert!((table.fraction_of(&d, &["B"]).unwrap() * 100.0 - 80.0).abs() < 1e-9);
        assert!(table.fraction_of(&d, &["B", "A"]).unwrap().abs() < 1e-9);
    }

    #[test]
    fn slide_92_response_time_allocation() {
        let (d, _, _, r) = networks();
        let table = allocate_variation(&d, &r).unwrap();
        let qa = table.fraction_of(&d, &["A"]).unwrap() * 100.0;
        let qb = table.fraction_of(&d, &["B"]).unwrap() * 100.0;
        let qab = table.fraction_of(&d, &["B", "A"]).unwrap() * 100.0;
        assert!((qa - 10.9).abs() < 0.2, "qA% = {qa}");
        assert!((qb - 87.8).abs() < 0.2, "qB% = {qb}");
        assert!((qab - 1.3).abs() < 0.2, "qAB% = {qab}");
    }

    #[test]
    fn conclusion_address_pattern_dominates() {
        // "Conclusion: the address pattern influences most."
        let (d, t, n, r) = networks();
        for responses in [t, n, r] {
            let table = allocate_variation(&d, &responses).unwrap();
            assert_eq!(table.ranked_effects()[0].0, "B");
        }
    }

    #[test]
    fn fractions_sum_to_one_without_error() {
        let (d, t, _, _) = networks();
        let table = allocate_variation(&d, &t).unwrap();
        let total: f64 = table.shares.iter().map(|s| s.fraction).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(table.sse, 0.0);
    }

    #[test]
    fn sst_identity_holds() {
        // SST = 2^k Σ q² (slide 81).
        let (d, t, _, _) = networks();
        let table = allocate_variation(&d, &t).unwrap();
        let from_effects: f64 = table.shares.iter().map(|s| s.sum_of_squares).sum();
        assert!((table.sst - from_effects).abs() < 1e-9);
    }

    #[test]
    fn constant_responses_have_zero_sst() {
        let d = TwoLevelDesign::full(&["A", "B"]);
        let table = allocate_variation(&d, &[5.0; 4]).unwrap();
        assert_eq!(table.sst, 0.0);
        assert!(table.shares.iter().all(|s| s.fraction == 0.0));
    }

    #[test]
    fn replicated_allocation_decomposes_sst() {
        let d = TwoLevelDesign::full(&["A", "B"]);
        // Strong A effect + noise.
        let reps = vec![
            vec![9.0, 11.0],  // (-,-): mean 10
            vec![29.0, 31.0], // (+,-): mean 30
            vec![11.0, 9.0],  // (-,+): mean 10
            vec![31.0, 29.0], // (+,+): mean 30
        ];
        let table = allocate_variation_replicated(&d, &reps).unwrap();
        // SSE = 4 runs × 2 reps, each ±1 around its mean: Σ = 8·1 = 8.
        assert!((table.sse - 8.0).abs() < 1e-9);
        // qA = 10 -> SS_A = 4·2·100 = 800. SST = 808.
        assert!((table.sst - 808.0).abs() < 1e-9);
        let a = table.fraction_of(&d, &["A"]).unwrap();
        assert!((a - 800.0 / 808.0).abs() < 1e-9);
        // Effects + error account for everything.
        let explained: f64 = table.shares.iter().map(|s| s.sum_of_squares).sum();
        assert!((explained + table.sse - table.sst).abs() < 1e-9);
    }

    #[test]
    fn replicated_requires_equal_counts() {
        let d = TwoLevelDesign::full(&["A", "B"]);
        let reps = vec![vec![1.0, 2.0], vec![1.0], vec![1.0, 2.0], vec![1.0, 2.0]];
        assert!(allocate_variation_replicated(&d, &reps).is_err());
    }

    #[test]
    fn render_contains_percentages() {
        let (d, t, _, _) = networks();
        let table = allocate_variation(&d, &t).unwrap();
        let text = table.render();
        assert!(text.contains('%'));
        // 76.945% — the slide rounds it to 77.0.
        assert!(text.contains("76.9"), "{text}");
    }

    #[test]
    fn pure_noise_unreplicated_spreads_blame() {
        // Without replication, noise lands on effects (common mistake #1) —
        // this is detectable only with replication, which mistakes.rs
        // checks. Here we just assert fractions still sum to 1.
        let d = TwoLevelDesign::full(&["A", "B", "C"]);
        let y = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0, 6.0];
        let table = allocate_variation(&d, &y).unwrap();
        let sum: f64 = table.shares.iter().map(|s| s.fraction).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn general_allocation_decomposes_sst_on_a_seeded_table() {
        // 3 x 4 x 5, seeded: level effects, an interaction and noise.
        let mut rng = perfeval_stats::rng::SplitMix64::new(20080408);
        let y: Vec<Vec<Vec<f64>>> = (0..3)
            .map(|i| {
                (0..4)
                    .map(|j| {
                        (0..5)
                            .map(|_| {
                                10.0 * i as f64
                                    + 3.0 * j as f64
                                    + (i * j) as f64
                                    + rng.next_range_f64(-2.0, 2.0)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let v = allocate_variation_general(&y).unwrap();
        let parts = v.ss_a + v.ss_b + v.ss_ab + v.sse;
        assert!(
            ((parts - v.sst) / v.sst).abs() < 1e-9,
            "SSA+SSB+SSAB+SSE = {parts}, SST = {}",
            v.sst
        );
        assert!(v.ss_a > v.ss_b && v.ss_b > v.ss_ab && v.sse > 0.0);
    }

    #[test]
    fn general_allocation_agrees_with_the_sign_table_on_two_levels() {
        // The 2 x 2 x r table of `replicated_allocation_decomposes_sst`,
        // indexed y[a][b][r]; the design's standard order is
        // (-,-), (+,-), (-,+), (+,+) with A toggling fastest.
        let y = vec![
            vec![vec![9.0, 11.5, 10.0], vec![11.0, 9.0, 13.0]],
            vec![vec![29.0, 31.0, 33.0], vec![36.0, 29.0, 31.0]],
        ];
        let d = TwoLevelDesign::full(&["A", "B"]);
        let runs = vec![
            y[0][0].clone(),
            y[1][0].clone(),
            y[0][1].clone(),
            y[1][1].clone(),
        ];
        let table = allocate_variation_replicated(&d, &runs).unwrap();
        let v = allocate_variation_general(&y).unwrap();
        let ss = |factors: &[&str]| table.fraction_of(&d, factors).unwrap() * table.sst;
        for (general, sign_table) in [
            (v.ss_a, ss(&["A"])),
            (v.ss_b, ss(&["B"])),
            (v.ss_ab, ss(&["A", "B"])),
            (v.sse, table.sse),
            (v.sst, table.sst),
        ] {
            assert!(
                (general - sign_table).abs() < 1e-9 * table.sst,
                "{general} vs {sign_table}"
            );
        }
    }

    #[test]
    fn general_allocation_worked_example() {
        // 3 x 2 x 2, by hand. Cells (replicates -> mean):
        //          b0            b1
        //   a0   1, 3 -> 2     5, 7 -> 6       row mean 4
        //   a1   4, 6 -> 5     8, 10 -> 9      row mean 7
        //   a2   9, 11 -> 10   15, 17 -> 16    row mean 13
        //   column means   17/3          31/3          grand 8
        // SSA  = b*r * sum (row - grand)^2 = 4 * (16 + 1 + 25)        = 168
        // SSB  = a*r * sum (col - grand)^2 = 6 * 2 * (7/3)^2          = 196/3
        // SSAB = r * sum (cell - row - col + grand)^2:
        //        the residuals are +-1/3 (a0, a1) and +-2/3 (a2),
        //        2 * (4 * 1/9 + 2 * 4/9)                              = 8/3
        // SSE  = every replicate sits 1 from its cell mean: 12 * 1    = 12
        // SST  = 168 + 196/3 + 8/3 + 12                               = 248
        //      = sum y^2 - n * grand^2 = 1016 - 12 * 64 (checked).
        let y = vec![
            vec![vec![1.0, 3.0], vec![5.0, 7.0]],
            vec![vec![4.0, 6.0], vec![8.0, 10.0]],
            vec![vec![9.0, 11.0], vec![15.0, 17.0]],
        ];
        let v = allocate_variation_general(&y).unwrap();
        for (got, want) in [
            (v.ss_a, 168.0),
            (v.ss_b, 196.0 / 3.0),
            (v.ss_ab, 8.0 / 3.0),
            (v.sse, 12.0),
            (v.sst, 248.0),
        ] {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn general_allocation_refuses_ragged_and_empty_tables() {
        assert!(allocate_variation_general(&[]).is_err());
        assert!(allocate_variation_general(&[vec![]]).is_err());
        assert!(allocate_variation_general(&[vec![vec![]]]).is_err());
        let ragged_cells = vec![vec![vec![1.0, 2.0], vec![1.0]]];
        assert!(allocate_variation_general(&ragged_cells).is_err());
        let ragged_rows = vec![vec![vec![1.0], vec![2.0]], vec![vec![3.0]]];
        assert!(allocate_variation_general(&ragged_rows).is_err());
    }
}
