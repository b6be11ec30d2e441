//! Seeded inputs: the DAT-2 catalog, the Figure 7 query family, and the
//! knob sequence. Everything here is a pure function of the run seed.

use sjcore::catalog::Catalog;
use sjcore::engine::{Query, QueryValue};
use sjdata::{dat2, Dat2Config};
use sjdf::ExecCtx;
use sjserve::protocol::{QuerySpec, ValueSpec};

/// SplitMix64: a tiny seeded generator for knob jitter and rotation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// DAT-2 at its default size (papi 16,080 rows, ipmi 8,040, ldms
/// 2,010), with the generator seeded from the run seed.
pub fn dat2_catalog(ctx: &ExecCtx, seed: u64) -> Result<Catalog, String> {
    let cfg = Dat2Config {
        seed: seed ^ 0xDA72,
        ..Dat2Config::default()
    };
    dat2(ctx, &cfg)
        .map(|(catalog, _)| catalog)
        .map_err(|e| e.to_string())
}

/// A value dimension with optional units.
pub type Value = (&'static str, Option<&'static str>);

const FREQUENCY: Value = ("frequency", None);
const INSTRUCTIONS: Value = ("instructions", Some("instructions-per-ms"));
const MEMORY_READS: Value = ("memory-reads", Some("memory-reads-per-ms"));
const POWER: Value = ("power", None);
const THERMAL_MARGIN: Value = ("thermal-margin", None);

/// Domains of the Figure 7 query.
pub const FIG7_DOMAINS: [&str; 3] = ["cpu", "node", "socket"];

/// The Figure 7 query (active frequency against instruction rate,
/// memory traffic, power and thermal margin).
pub const FIG7: [Value; 5] = [FREQUENCY, INSTRUCTIONS, MEMORY_READS, POWER, THERMAL_MARGIN];

/// The Figure 7 query and its four-value subsets. Every member joins
/// PAPI and IPMI samples with an interpolation join, so its plan
/// fingerprint changes with `window_secs` and a fresh window misses
/// both service caches.
pub fn fig7_family() -> Vec<Vec<Value>> {
    let mut family = vec![FIG7.to_vec()];
    for skip in 0..FIG7.len() {
        family.push(
            FIG7.iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, v)| *v)
                .collect(),
        );
    }
    family
}

pub fn spec(values: &[Value], window_secs: Option<f64>, step_secs: Option<f64>) -> QuerySpec {
    QuerySpec {
        domains: FIG7_DOMAINS.iter().map(|d| d.to_string()).collect(),
        values: values
            .iter()
            .map(|(dim, units)| match units {
                Some(u) => ValueSpec::with_units(dim, u),
                None => ValueSpec::dim(dim),
            })
            .collect(),
        window_secs,
        step_secs,
        limit: None,
    }
}

/// The engine-level query a spec asks for.
pub fn query(spec: &QuerySpec) -> Query {
    Query {
        domains: spec.domains.clone(),
        values: spec
            .values
            .iter()
            .map(|v| QueryValue {
                dimension: v.dimension.clone(),
                units: v.units.clone(),
            })
            .collect(),
    }
}
