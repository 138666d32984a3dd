//! Deterministic TPC-H-like data generation.
//!
//! Table populations follow the TPC-H ratios (at scale factor 1: 150 k
//! customers, 1.5 M orders, ~6 M lineitems, 200 k parts, 10 k suppliers,
//! 800 k partsupps, 25 nations, 5 regions), scaled by a fractional
//! `scale_factor`. Dates are integers (days since 1992-01-01, spanning seven
//! years like TPC-H's 1992–1998). All value choices come from a single
//! recorded seed, so a config file line (`seed=42 sf=0.01`) fully
//! reproduces a data set — the repeatability chapter's requirement.
//!
//! Seed derivation is **splittable**: each table draws from
//! `SplitMix64::split(seed, TABLE_STREAM)`, and the orders/lineitem pair is
//! generated in fixed-size chunks of orders, each from its own substream.
//! A stream is a pure function of `(seed, stream id)` — not of how many
//! values other streams consumed — so any piece can be generated on any
//! thread in any order and the data set is bit-identical to serial
//! generation ([`generate_parallel`] asserts exactly that in the tests).

use minidb::{Catalog, DataType, Table, TableBuilder, Value};
use perfeval_stats::dist::{Distribution, Uniform, Zipf};
use perfeval_stats::rng::SplitMix64;

/// Days covered by the date columns (7 years).
pub const DATE_MAX: i64 = 2557;

/// Orders generated per chunk. One chunk is the unit of parallel work for
/// the orders/lineitem pair; its rng is `split(seed, STREAM_ORDERS)` then
/// `substream(chunk)`, so the chunk's rows never depend on which worker
/// generated the chunks before it.
pub const ORDERS_PER_CHUNK: usize = 1024;

// Per-table stream ids. Each table's generator is a pure function of
// `(config.seed, stream)`, never of how many values another table consumed.
const STREAM_SUPPLIER: u64 = 1;
const STREAM_CUSTOMER: u64 = 2;
const STREAM_PART: u64 = 3;
const STREAM_PARTSUPP: u64 = 4;
const STREAM_ORDERS: u64 = 5;

/// Generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// TPC-H-style scale factor (1.0 = full size; 0.01 is the test
    /// default).
    pub scale_factor: f64,
    /// Root seed; split into one independent stream per table (and per
    /// orders chunk), so pieces can be generated in any order.
    pub seed: u64,
    /// Optional Zipf exponent for part-key popularity in lineitem
    /// (None/0.0 = uniform). Skew is the knob optimizers hate.
    pub part_skew: Option<f64>,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            scale_factor: 0.01,
            seed: 20080408, // the ICDE 2008 seminar date
            part_skew: None,
        }
    }
}

impl GenConfig {
    fn scaled(&self, base: u64) -> usize {
        ((base as f64 * self.scale_factor).round() as usize).max(1)
    }

    /// Number of customers at this scale.
    pub fn customers(&self) -> usize {
        self.scaled(150_000)
    }

    /// Number of orders at this scale.
    pub fn orders(&self) -> usize {
        self.scaled(1_500_000)
    }

    /// Number of parts at this scale.
    pub fn parts(&self) -> usize {
        self.scaled(200_000)
    }

    /// Number of suppliers at this scale.
    pub fn suppliers(&self) -> usize {
        self.scaled(10_000)
    }

    /// Number of orders/lineitem chunks at this scale.
    pub fn order_chunks(&self) -> usize {
        self.orders().div_ceil(ORDERS_PER_CHUNK)
    }
}

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("ROMANIA", 3),
    ("RUSSIA", 3),
    ("SAUDI ARABIA", 4),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
    ("VIETNAM", 2),
    ("CHINA", 2),
];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const BRANDS: [&str; 25] = [
    "Brand#11", "Brand#12", "Brand#13", "Brand#14", "Brand#15", "Brand#21", "Brand#22", "Brand#23",
    "Brand#24", "Brand#25", "Brand#31", "Brand#32", "Brand#33", "Brand#34", "Brand#35", "Brand#41",
    "Brand#42", "Brand#43", "Brand#44", "Brand#45", "Brand#51", "Brand#52", "Brand#53", "Brand#54",
    "Brand#55",
];
const TYPE_ADJ: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_MAT: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

/// Generates the full catalog serially.
pub fn generate(config: &GenConfig) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(gen_region()).expect("fresh catalog");
    catalog.register(gen_nation()).expect("fresh catalog");
    catalog
        .register(gen_supplier(config))
        .expect("fresh catalog");
    catalog
        .register(gen_customer(config))
        .expect("fresh catalog");
    catalog.register(gen_part(config)).expect("fresh catalog");
    catalog
        .register(gen_partsupp(config))
        .expect("fresh catalog");
    let mut orders = orders_builder();
    let mut lineitem = lineitem_builder();
    for chunk in 0..config.order_chunks() {
        let (order_rows, line_rows) = gen_orders_chunk(config, chunk);
        for row in order_rows {
            orders.push_row(row).expect("static schema");
        }
        for row in line_rows {
            lineitem.push_row(row).expect("static schema");
        }
    }
    catalog.register(orders).expect("fresh catalog");
    catalog.register(lineitem).expect("fresh catalog");
    catalog
}

/// One unit of parallel generation work: a whole small table, or one chunk
/// of the orders/lineitem pair.
enum Piece {
    Table(Table),
    OrderChunk(Vec<Vec<Value>>, Vec<Vec<Value>>),
}

/// Generates the full catalog on `threads` workers, bit-identical to
/// [`generate`]: every piece draws from its own split stream, so neither
/// the worker that runs a piece nor the order pieces complete in can change
/// a single value. `threads <= 1` is the serial path.
pub fn generate_parallel(config: &GenConfig, threads: usize) -> Catalog {
    let chunks = config.order_chunks();
    let pieces = perfeval_pool::parallel_map(4 + chunks, threads, |i| match i {
        0 => Piece::Table(gen_supplier(config)),
        1 => Piece::Table(gen_customer(config)),
        2 => Piece::Table(gen_part(config)),
        3 => Piece::Table(gen_partsupp(config)),
        chunk => {
            let (order_rows, line_rows) = gen_orders_chunk(config, chunk - 4);
            Piece::OrderChunk(order_rows, line_rows)
        }
    })
    .0;

    let mut catalog = Catalog::new();
    catalog.register(gen_region()).expect("fresh catalog");
    catalog.register(gen_nation()).expect("fresh catalog");
    let mut orders = orders_builder();
    let mut lineitem = lineitem_builder();
    // parallel_map returns results in piece order, so assembling them in
    // sequence reproduces the canonical (serial) row order exactly.
    for piece in pieces {
        match piece {
            Piece::Table(table) => catalog.register(table).expect("fresh catalog"),
            Piece::OrderChunk(order_rows, line_rows) => {
                for row in order_rows {
                    orders.push_row(row).expect("static schema");
                }
                for row in line_rows {
                    lineitem.push_row(row).expect("static schema");
                }
            }
        }
    }
    catalog.register(orders).expect("fresh catalog");
    catalog.register(lineitem).expect("fresh catalog");
    catalog
}

fn gen_region() -> Table {
    let mut t = TableBuilder::new("region")
        .column("r_regionkey", DataType::Int)
        .column("r_name", DataType::Str)
        .build();
    for (i, name) in REGIONS.iter().enumerate() {
        t.push_row(vec![Value::Int(i as i64), Value::Str((*name).to_owned())])
            .expect("static schema");
    }
    t
}

fn gen_nation() -> Table {
    let mut t = TableBuilder::new("nation")
        .column("n_nationkey", DataType::Int)
        .column("n_name", DataType::Str)
        .column("n_regionkey", DataType::Int)
        .build();
    for (i, (name, region)) in NATIONS.iter().enumerate() {
        t.push_row(vec![
            Value::Int(i as i64),
            Value::Str((*name).to_owned()),
            Value::Int(*region),
        ])
        .expect("static schema");
    }
    t
}

fn gen_supplier(config: &GenConfig) -> Table {
    let mut rng = SplitMix64::split(config.seed, STREAM_SUPPLIER);
    let mut t = TableBuilder::new("supplier")
        .column("s_suppkey", DataType::Int)
        .column("s_name", DataType::Str)
        .column("s_nationkey", DataType::Int)
        .column("s_acctbal", DataType::Float)
        .build();
    for i in 0..config.suppliers() {
        t.push_row(vec![
            Value::Int(i as i64),
            Value::Str(format!("Supplier#{i:09}")),
            Value::Int(rng.next_range_i64(0, 24)),
            Value::Float((rng.next_range_f64(-999.99, 9999.99) * 100.0).round() / 100.0),
        ])
        .expect("static schema");
    }
    t
}

fn gen_customer(config: &GenConfig) -> Table {
    let mut rng = SplitMix64::split(config.seed, STREAM_CUSTOMER);
    let mut t = TableBuilder::new("customer")
        .column("c_custkey", DataType::Int)
        .column("c_name", DataType::Str)
        .column("c_nationkey", DataType::Int)
        .column("c_acctbal", DataType::Float)
        .column("c_mktsegment", DataType::Str)
        .build();
    for i in 0..config.customers() {
        t.push_row(vec![
            Value::Int(i as i64),
            Value::Str(format!("Customer#{i:09}")),
            Value::Int(rng.next_range_i64(0, 24)),
            Value::Float((rng.next_range_f64(-999.99, 9999.99) * 100.0).round() / 100.0),
            Value::Str(SEGMENTS[rng.next_below(5) as usize].to_owned()),
        ])
        .expect("static schema");
    }
    t
}

fn gen_part(config: &GenConfig) -> Table {
    let mut rng = SplitMix64::split(config.seed, STREAM_PART);
    let mut t = TableBuilder::new("part")
        .column("p_partkey", DataType::Int)
        .column("p_name", DataType::Str)
        .column("p_brand", DataType::Str)
        .column("p_type", DataType::Str)
        .column("p_size", DataType::Int)
        .column("p_retailprice", DataType::Float)
        .build();
    for i in 0..config.parts() {
        let adj = TYPE_ADJ[rng.next_below(6) as usize];
        let mat = TYPE_MAT[rng.next_below(5) as usize];
        t.push_row(vec![
            Value::Int(i as i64),
            Value::Str(format!("part-{i}")),
            Value::Str(BRANDS[rng.next_below(25) as usize].to_owned()),
            Value::Str(format!("{adj} {mat}")),
            Value::Int(rng.next_range_i64(1, 50)),
            Value::Float(900.0 + (i % 1000) as f64 / 10.0),
        ])
        .expect("static schema");
    }
    t
}

fn gen_partsupp(config: &GenConfig) -> Table {
    let mut rng = SplitMix64::split(config.seed, STREAM_PARTSUPP);
    let mut t = TableBuilder::new("partsupp")
        .column("ps_partkey", DataType::Int)
        .column("ps_suppkey", DataType::Int)
        .column("ps_availqty", DataType::Int)
        .column("ps_supplycost", DataType::Float)
        .build();
    let suppliers = config.suppliers() as i64;
    for part in 0..config.parts() {
        // Four suppliers per part, like TPC-H.
        for s in 0..4i64 {
            let supp = (part as i64 + s * (suppliers / 4 + 1)) % suppliers;
            t.push_row(vec![
                Value::Int(part as i64),
                Value::Int(supp),
                Value::Int(rng.next_range_i64(1, 9999)),
                Value::Float((rng.next_range_f64(1.0, 1000.0) * 100.0).round() / 100.0),
            ])
            .expect("static schema");
        }
    }
    t
}

fn orders_builder() -> Table {
    TableBuilder::new("orders")
        .column("o_orderkey", DataType::Int)
        .column("o_custkey", DataType::Int)
        .column("o_orderstatus", DataType::Str)
        .column("o_totalprice", DataType::Float)
        .column("o_orderdate", DataType::Int)
        .column("o_orderpriority", DataType::Str)
        .build()
}

fn lineitem_builder() -> Table {
    TableBuilder::new("lineitem")
        .column("l_orderkey", DataType::Int)
        .column("l_partkey", DataType::Int)
        .column("l_suppkey", DataType::Int)
        .column("l_quantity", DataType::Int)
        .column("l_extendedprice", DataType::Float)
        .column("l_discount", DataType::Float)
        .column("l_tax", DataType::Float)
        .column("l_returnflag", DataType::Str)
        .column("l_linestatus", DataType::Str)
        .column("l_shipdate", DataType::Int)
        .build()
}

/// Generates chunk `chunk` of the orders/lineitem pair as raw rows, from a
/// rng derived purely from `(seed, STREAM_ORDERS, chunk)`.
fn gen_orders_chunk(config: &GenConfig, chunk: usize) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let mut rng = SplitMix64::split(config.seed, STREAM_ORDERS).substream(chunk as u64);
    let lo = chunk * ORDERS_PER_CHUNK;
    let hi = (lo + ORDERS_PER_CHUNK).min(config.orders());
    let mut order_rows = Vec::with_capacity(hi - lo);
    // Mean 4 lineitems per order.
    let mut line_rows = Vec::with_capacity((hi - lo) * 4);

    let customers = config.customers() as i64;
    let parts = config.parts() as i64;
    let suppliers = config.suppliers() as i64;
    let mut price_dist = Uniform::new(901.0, 104_949.5);
    let zipf = config
        .part_skew
        .filter(|s| *s > 0.0)
        .map(|s| Zipf::new(parts as usize, s));

    for o in lo..hi {
        let orderdate = rng.next_range_i64(0, DATE_MAX - 151);
        let lines = rng.next_range_i64(1, 7);
        let mut total = 0.0;
        for _ in 0..lines {
            let partkey = match &zipf {
                Some(z) => (z.sample_rank(&mut rng) - 1) as i64,
                None => rng.next_below(parts as u64) as i64,
            };
            let suppkey = (partkey + rng.next_range_i64(0, 3) * (suppliers / 4 + 1)) % suppliers;
            let quantity = rng.next_range_i64(1, 50);
            let extendedprice =
                (quantity as f64 * price_dist.sample(&mut rng) / 50.0 * 100.0).round() / 100.0;
            let discount = rng.next_range_i64(0, 10) as f64 / 100.0;
            let tax = rng.next_range_i64(0, 8) as f64 / 100.0;
            let shipdate = orderdate + rng.next_range_i64(1, 121);
            // Return flag correlates with ship date like TPC-H: old lines
            // are returned or accepted, recent ones still none.
            let returnflag = if shipdate < DATE_MAX - 600 {
                if rng.next_bool(0.5) {
                    "R"
                } else {
                    "A"
                }
            } else {
                "N"
            };
            let linestatus = if shipdate < DATE_MAX - 365 { "F" } else { "O" };
            total += extendedprice;
            line_rows.push(vec![
                Value::Int(o as i64),
                Value::Int(partkey),
                Value::Int(suppkey),
                Value::Int(quantity),
                Value::Float(extendedprice),
                Value::Float(discount),
                Value::Float(tax),
                Value::Str(returnflag.to_owned()),
                Value::Str(linestatus.to_owned()),
                Value::Int(shipdate),
            ]);
        }
        order_rows.push(vec![
            Value::Int(o as i64),
            Value::Int(rng.next_below(customers as u64) as i64),
            Value::Str(if orderdate < DATE_MAX - 365 { "F" } else { "O" }.to_owned()),
            Value::Float((total * 100.0).round() / 100.0),
            Value::Int(orderdate),
            Value::Str(PRIORITIES[rng.next_below(5) as usize].to_owned()),
        ]);
    }
    (order_rows, line_rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GenConfig {
        GenConfig {
            scale_factor: 0.001,
            ..GenConfig::default()
        }
    }

    #[test]
    fn generates_all_eight_tables() {
        let c = generate(&tiny());
        for t in [
            "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
        ] {
            assert!(c.table(t).is_ok(), "missing {t}");
        }
    }

    #[test]
    fn row_counts_follow_tpch_ratios() {
        let cfg = tiny();
        let c = generate(&cfg);
        assert_eq!(c.table("region").unwrap().row_count(), 5);
        assert_eq!(c.table("nation").unwrap().row_count(), 25);
        assert_eq!(c.table("customer").unwrap().row_count(), 150);
        assert_eq!(c.table("orders").unwrap().row_count(), 1500);
        assert_eq!(c.table("part").unwrap().row_count(), 200);
        assert_eq!(c.table("partsupp").unwrap().row_count(), 800);
        let li = c.table("lineitem").unwrap().row_count();
        // 1..=7 lines per order, mean 4: expect ~6000.
        assert!((4500..7500).contains(&li), "lineitem rows {li}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&tiny());
        let b = generate(&tiny());
        let la = a.table("lineitem").unwrap();
        let lb = b.table("lineitem").unwrap();
        assert_eq!(la.row_count(), lb.row_count());
        for i in (0..la.row_count()).step_by(97) {
            assert_eq!(la.row(i), lb.row(i), "row {i}");
        }
    }

    #[test]
    fn different_seed_different_data() {
        let a = generate(&tiny());
        let b = generate(&GenConfig { seed: 1, ..tiny() });
        let la = a.table("lineitem").unwrap();
        let lb = b.table("lineitem").unwrap();
        let differs = (0..la.row_count().min(lb.row_count())).any(|i| la.row(i) != lb.row(i));
        assert!(differs);
    }

    #[test]
    fn scale_factor_scales_linearly() {
        let small = generate(&tiny());
        let large = generate(&GenConfig {
            scale_factor: 0.002,
            ..tiny()
        });
        let rs = small.table("orders").unwrap().row_count();
        let rl = large.table("orders").unwrap().row_count();
        assert_eq!(rl, 2 * rs);
    }

    #[test]
    fn foreign_keys_are_in_range() {
        let cfg = tiny();
        let c = generate(&cfg);
        let li = c.table("lineitem").unwrap();
        let parts = cfg.parts() as i64;
        let supps = cfg.suppliers() as i64;
        for i in 0..li.row_count() {
            let row = li.row(i);
            let pk = row[1].as_i64().unwrap();
            let sk = row[2].as_i64().unwrap();
            assert!((0..parts).contains(&pk), "partkey {pk}");
            assert!((0..supps).contains(&sk), "suppkey {sk}");
        }
        let orders = c.table("orders").unwrap();
        let custs = cfg.customers() as i64;
        for i in 0..orders.row_count() {
            let ck = orders.row(i)[1].as_i64().unwrap();
            assert!((0..custs).contains(&ck));
        }
    }

    #[test]
    fn dates_and_flags_are_consistent() {
        let c = generate(&tiny());
        let li = c.table("lineitem").unwrap();
        for i in 0..li.row_count() {
            let row = li.row(i);
            let ship = row[9].as_i64().unwrap();
            assert!((0..=DATE_MAX).contains(&ship), "shipdate {ship}");
            let flag = row[7].as_str().unwrap().to_owned();
            if ship >= DATE_MAX - 600 {
                assert_eq!(flag, "N", "recent lines are not returned");
            }
            let disc = row[5].as_f64().unwrap();
            assert!((0.0..=0.10).contains(&disc));
        }
    }

    /// The satellite requirement: parallel generation cannot change the
    /// data. Every table, every row, bit-identical across thread counts.
    #[test]
    fn parallel_generation_is_bit_identical_to_serial() {
        let cfg = tiny();
        assert!(cfg.order_chunks() >= 2, "test must span multiple chunks");
        let serial = generate(&cfg);
        for threads in [1, 4] {
            let parallel = generate_parallel(&cfg, threads);
            for name in [
                "region", "nation", "supplier", "customer", "part", "partsupp", "orders",
                "lineitem",
            ] {
                let a = serial.table(name).unwrap();
                let b = parallel.table(name).unwrap();
                assert_eq!(
                    a.row_count(),
                    b.row_count(),
                    "{name} rows ({threads} threads)"
                );
                for i in 0..a.row_count() {
                    assert_eq!(a.row(i), b.row(i), "{name} row {i} ({threads} threads)");
                }
            }
        }
    }

    /// Chunk streams are pure functions of `(seed, chunk)`: generating a
    /// chunk does not require (or disturb) any other chunk.
    #[test]
    fn order_chunks_are_independent_of_generation_order() {
        let cfg = tiny();
        let forward: Vec<_> = (0..cfg.order_chunks())
            .map(|c| gen_orders_chunk(&cfg, c))
            .collect();
        let mut backward: Vec<_> = (0..cfg.order_chunks())
            .rev()
            .map(|c| gen_orders_chunk(&cfg, c))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn skewed_generation_concentrates_part_popularity() {
        let uniform = generate(&tiny());
        let skewed = generate(&GenConfig {
            part_skew: Some(1.0),
            ..tiny()
        });
        let count_top_part = |c: &Catalog| {
            let li = c.table("lineitem").unwrap();
            let mut counts = std::collections::HashMap::new();
            for i in 0..li.row_count() {
                *counts.entry(li.row(i)[1].as_i64().unwrap()).or_insert(0u32) += 1;
            }
            counts.values().copied().max().unwrap_or(0) as f64 / li.row_count() as f64
        };
        let u = count_top_part(&uniform);
        let s = count_top_part(&skewed);
        assert!(
            s > 3.0 * u,
            "skewed top-part share {s:.4} should dwarf uniform {u:.4}"
        );
    }
}
