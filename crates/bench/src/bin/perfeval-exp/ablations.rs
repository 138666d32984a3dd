//! Ablations — each optimizer rule as a two-level factor (slide 42: "DBMS
//! configuration and tuning ⇒ factor x").
//!
//! Three rules DESIGN.md calls out as design choices worth ablating, each
//! switched off alone against the all-rules-on default, on the one
//! statement that isolates it:
//!
//! * **correctness gate first**: rows with the rule on must equal rows with
//!   it off before a single timing is kept — an optimizer rule may change
//!   the plan, never the answer.
//! * **interleaved replicates** of `server_user_ms`, on/off alternating, so
//!   host drift lands on both levels alike.
//! * **effect size with its interval**: the Kalibera–Jones interval on
//!   off/on − 1; "the rule pays" is claimed only where it clears zero.
//!
//! No knob: replication and scale are constants; `--smoke` shrinks both and
//! keeps only the gate and the printout. The engine is held at OPT, the
//! level the table in EXPERIMENTS.md was measured on: the rules are the
//! factor here, the tier a constant this exhibit names rather than
//! inherits from `Session::new`.

use crate::Ctx;
use minidb::optimizer::OptimizerConfig;
use minidb::{ExecMode, Session};
use perfeval_bench::{catalog_at, median};
use perfeval_stats::effect_size_ci;

/// One rule: the statement that isolates it, how to switch it, and whether
/// its effect must clear zero.
struct Rule {
    name: &'static str,
    sql: &'static str,
    set: fn(&mut OptimizerConfig, bool),
    must_pay: bool,
}

const RULES: &[Rule] = &[
    // A narrow aggregate over the wide lineitem table: the gain is bounded
    // by what an unpruned scan hands up, so it is reported, not required.
    Rule {
        name: "projection_pruning",
        sql: "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate < 1500",
        set: |c, on| c.projection_pruning = on,
        must_pay: false,
    },
    // Both conjuncts pushed below the join: the build and probe sides
    // shrink before a single key is hashed.
    Rule {
        name: "filter_pushdown",
        sql: "SELECT COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey \
              WHERE o_orderdate < 300 AND l_shipdate < 400",
        set: |c, on| c.filter_pushdown = on,
        must_pay: true,
    },
    // ORDER BY … LIMIT 10: a bounded heap against a full sort.
    Rule {
        name: "topn_fusion",
        sql: "SELECT l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 10",
        set: |c, on| c.topn_fusion = on,
        must_pay: true,
    },
];

pub fn run(ctx: &Ctx) {
    let smoke = ctx.smoke();
    let (reps, sf) = if smoke { (3, 0.002) } else { (15, 0.01) };
    println!(
        "design: {} rules x {{on, off}}, r={reps} interleaved replicates, sf={sf}, engine {}\n",
        RULES.len(),
        ExecMode::Optimized
    );

    let catalog = catalog_at(sf);
    println!(
        "{:<20} {:>9} {:>9}   {:>7}  off/on - 1 (95% CI)",
        "rule", "on ms", "off ms", "off/on"
    );
    for rule in RULES {
        // levels[0] = rule on (the default), levels[1] = rule off.
        let mut levels = [true, false].map(|on| {
            let mut config = OptimizerConfig::all();
            (rule.set)(&mut config, on);
            let mut session = Session::new(catalog.clone()).with_mode(ExecMode::Optimized);
            session.set_optimizer(config);
            session
        });

        // Correctness gate (doubles as the warm-up of both levels).
        let [on_rows, off_rows] = levels
            .each_mut()
            .map(|s| s.query(rule.sql).run().expect("gate run").rows);
        assert_eq!(on_rows, off_rows, "{} changed the answer", rule.name);

        let mut y = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
        for _ in 0..reps {
            for (session, sample) in levels.iter_mut().zip(&mut y) {
                let run = session.query(rule.sql).run().expect("measured run");
                sample.push(run.server_user_ms());
            }
        }
        let [on, off] = y;
        let e = effect_size_ci(&off, &on, 0.95).expect("effect");
        println!(
            "{:<20} {:>9.3} {:>9.3}   {:>6.2}x  {:+7.1}%  [{:+7.1}%, {:+7.1}%]",
            rule.name,
            median(on),
            median(off),
            1.0 + e.effect.estimate,
            e.effect.estimate * 100.0,
            e.effect.lower * 100.0,
            e.effect.upper * 100.0,
        );
        if !smoke && rule.must_pay {
            assert!(
                e.is_regression(),
                "the interval on switching {} off must exclude zero: [{:+.1}%, {:+.1}%]",
                rule.name,
                e.effect.lower * 100.0,
                e.effect.upper * 100.0
            );
        }
    }
    println!("\ncorrectness gate: rows on == rows off for every rule, before any timing");
    println!("conclusion: a rule is a factor like any other — its effect is a ratio with");
    println!("an interval, and the untuned engine is a different system under test.");
}
