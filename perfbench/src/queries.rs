//! SQL generators shared by the library workloads. Templates (table,
//! column, key) are fixed by position in the sequence and thresholds sit
//! in fixed strata, moved a little by the seed. Steps therefore do not
//! repeat, their costs spread out, and every seed yields the same spread
//! of costs.

use fedex_bench::workload::SplitMix64;

/// `(table, column, comparison, lo, hi, decimals)` of a drawn predicate.
type PredicateTemplate = (&'static str, &'static str, &'static str, f64, f64, usize);

pub const SPOTIFY_PREDICATES: [PredicateTemplate; 6] = [
    ("spotify", "popularity", ">", 20.0, 80.0, 0),
    ("spotify", "year", ">", 1950.0, 2015.0, 0),
    ("spotify", "tempo", ">", 80.0, 160.0, 1),
    ("spotify", "loudness", ">", -20.0, -4.0, 2),
    ("spotify", "duration_minutes", "<", 2.0, 5.0, 2),
    ("spotify", "danceability", ">", 0.3, 0.8, 3),
];

pub const BANK_PREDICATES: [PredicateTemplate; 4] = [
    ("Bank", "Customer_Age", "<", 28.0, 60.0, 0),
    ("Bank", "Credit_Limit", ">", 2000.0, 20000.0, 0),
    ("Bank", "Total_Trans_Ct", ">", 30.0, 100.0, 0),
    ("Bank", "Avg_Utilization_Ratio", ">", 0.1, 0.7, 3),
];

/// Share of a stratum's width the seed may move a threshold by.
const JITTER: f64 = 0.2;

/// The centre of stratum `i` of `n`, moved a little by the seed: strata
/// spread thresholds evenly over each template's range, and every seed
/// lands near the same points, so costs barely depend on the seed.
pub fn stratum(rng: &mut SplitMix64, i: usize, n: usize) -> f64 {
    (i as f64 + 0.5 + JITTER * (rng.gen_f64() - 0.5)) / n.max(1) as f64
}

/// `t`'s predicate at quantile `u` (0..1) of its threshold range.
pub fn predicate(t: &PredicateTemplate, u: f64) -> String {
    let (_, column, cmp, lo, hi, decimals) = *t;
    format!("{column} {cmp} {:.*}", decimals, lo + (hi - lo) * u)
}

pub fn filter(t: &PredicateTemplate, u: f64) -> String {
    format!("SELECT * FROM {} WHERE {}", t.0, predicate(t, u))
}

/// A union of two differently filtered arms of one table.
pub fn union(a: &PredicateTemplate, ua: f64, b: &PredicateTemplate, ub: f64) -> String {
    debug_assert_eq!(a.0, b.0, "union arms share a table");
    format!(
        "SELECT * FROM [SELECT * FROM {t} WHERE {}] UNION SELECT * FROM [SELECT * FROM {t} WHERE {}]",
        predicate(a, ua),
        predicate(b, ub),
        t = a.0
    )
}

/// Group-by keys and aggregated columns of one table.
pub struct GroupByTemplate {
    pub table: &'static str,
    pub keys: &'static [&'static str],
    pub columns: &'static [&'static str],
}

pub const SPOTIFY_GROUP_BY: GroupByTemplate = GroupByTemplate {
    table: "spotify",
    keys: &["decade", "key", "genre", "mode", "explicit", "decade, mode"],
    columns: &[
        "popularity",
        "danceability",
        "energy",
        "loudness",
        "tempo",
        "valence",
        "duration_minutes",
        "acousticness",
    ],
};

pub const BANK_GROUP_BY: GroupByTemplate = GroupByTemplate {
    table: "Bank",
    keys: &[
        "Gender",
        "Income_Category",
        "Education_Level",
        "Marital_Status",
        "Card_Category",
        "Gender, Income_Category",
    ],
    columns: &[
        "Customer_Age",
        "Credit_Limit",
        "Credit_Used",
        "Total_Transitions_Amount",
        "Total_Trans_Ct",
        "Avg_Utilization_Ratio",
    ],
};

/// `n_aggs` distinct seeded aggregates of `t` grouped by its key `key`.
pub fn group_by(rng: &mut SplitMix64, t: &GroupByTemplate, key: usize, n_aggs: usize) -> String {
    const FUNCS: [&str; 4] = ["mean", "max", "min", "sum"];
    let mut aggs: Vec<String> = Vec::new();
    while aggs.len() < n_aggs {
        let agg = format!("{}({})", rng.pick(&FUNCS), rng.pick(t.columns));
        if !aggs.contains(&agg) {
            aggs.push(agg);
        }
    }
    format!(
        "SELECT {} FROM {} GROUP BY {}",
        aggs.join(", "),
        t.table,
        t.keys[key % t.keys.len()]
    )
}
