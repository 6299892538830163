//! Workload specification and transaction-plan generation.
//!
//! The paper's standard workload (§6.1.2) is a logical request of two
//! functions, each performing one 4 KB write and two 4 KB reads, with keys
//! drawn from a Zipfian distribution. Other experiments vary the number of
//! functions (Figure 6), the read/write mix over 10 total IOs (Figure 5), the
//! key-space size and skew (Figure 4), and the request rate (Figures 7-10).
//! [`WorkloadConfig`] captures those knobs and [`WorkloadGenerator`] turns
//! them into concrete [`TransactionPlan`]s.

use aft_types::Key;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::zipf::ZipfGenerator;

/// The tunable parameters of an experiment's workload.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Functions per logical request (transaction).
    pub functions: usize,
    /// Reads performed by each function.
    pub reads_per_function: usize,
    /// Writes performed by each function.
    pub writes_per_function: usize,
    /// Payload size of every read/written object, in bytes (paper: 4 KB).
    pub value_size: usize,
    /// Number of distinct keys in the key space.
    pub num_keys: usize,
    /// Zipf exponent of the key-popularity distribution (0 = uniform).
    pub zipf_exponent: f64,
}

impl WorkloadConfig {
    /// The paper's standard workload: 2 functions × (2 reads + 1 write) of
    /// 4 KB objects over 1,000 keys at Zipf 1.0 (§6.1.2).
    pub fn standard() -> Self {
        WorkloadConfig {
            functions: 2,
            reads_per_function: 2,
            writes_per_function: 1,
            value_size: 4 * 1024,
            num_keys: 1_000,
            zipf_exponent: 1.0,
        }
    }

    /// The Figure 4 workload: same per-function shape but a 100,000-key space
    /// and configurable skew.
    pub fn caching_skew(zipf_exponent: f64) -> Self {
        WorkloadConfig {
            num_keys: 100_000,
            zipf_exponent,
            ..WorkloadConfig::standard()
        }
    }

    /// The Figure 5 workload: 10 total IOs per request with the given
    /// percentage of reads, split over 2 functions.
    ///
    /// `read_percent` is clamped to multiples of 20 in `[0, 100]`, matching
    /// the paper's sweep (0%, 20%, ..., 100%).
    pub fn read_write_ratio(read_percent: u32) -> Self {
        let read_percent = read_percent.min(100) / 20 * 20;
        let total_reads = (10 * read_percent / 100) as usize;
        let total_writes = 10 - total_reads;
        WorkloadConfig {
            functions: 2,
            reads_per_function: total_reads / 2,
            writes_per_function: total_writes / 2,
            ..WorkloadConfig::standard()
        }
    }

    /// The Figure 6 workload: `functions` functions of 2 reads + 1 write each.
    pub fn transaction_length(functions: usize) -> Self {
        WorkloadConfig {
            functions,
            ..WorkloadConfig::standard()
        }
    }

    /// Sets the Zipf exponent.
    pub fn with_zipf(mut self, exponent: f64) -> Self {
        self.zipf_exponent = exponent;
        self
    }

    /// Sets the key-space size.
    pub fn with_keys(mut self, num_keys: usize) -> Self {
        self.num_keys = num_keys;
        self
    }

    /// Sets the payload size.
    pub fn with_value_size(mut self, value_size: usize) -> Self {
        self.value_size = value_size;
        self
    }
}

/// The operations one function performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionPlan {
    /// Keys to read, in order.
    pub reads: Vec<Key>,
    /// Keys to write, in order.
    pub writes: Vec<Key>,
}

/// A fully materialised logical request: one entry per function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionPlan {
    /// Per-function operations, executed in order.
    pub functions: Vec<FunctionPlan>,
    /// Size of every written payload, in bytes.
    pub value_size: usize,
}

impl TransactionPlan {
    /// Every key this request will write, across all functions.
    pub fn write_set(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = self
            .functions
            .iter()
            .flat_map(|f| f.writes.iter().cloned())
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }
}

/// Generates transaction plans from a [`WorkloadConfig`].
#[derive(Debug)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
    zipf: ZipfGenerator,
    rng: StdRng,
}

impl WorkloadGenerator {
    /// Creates a generator with its own seeded RNG (one per client thread).
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        let zipf = ZipfGenerator::new(config.num_keys, config.zipf_exponent);
        WorkloadGenerator {
            config,
            zipf,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configuration this generator was built from.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    fn sample_key(&mut self) -> Key {
        let index = self.zipf.sample(&mut self.rng);
        Key::new(format!("key-{index:08}"))
    }

    /// Generates the next transaction plan.
    pub fn next_plan(&mut self) -> TransactionPlan {
        let functions = (0..self.config.functions)
            .map(|_| FunctionPlan {
                reads: (0..self.config.reads_per_function)
                    .map(|_| self.sample_key())
                    .collect(),
                writes: (0..self.config.writes_per_function)
                    .map(|_| self.sample_key())
                    .collect(),
            })
            .collect();
        TransactionPlan {
            functions,
            value_size: self.config.value_size,
        }
    }

    /// Generates a plan that touches every key exactly once (used to preload
    /// the key space before measuring, so that reads never hit empty keys).
    pub fn preload_plan(&self) -> Vec<Key> {
        (0..self.config.num_keys)
            .map(|index| Key::new(format!("key-{index:08}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total IOs per request.
    fn total_ios(config: &WorkloadConfig) -> usize {
        config.functions * (config.reads_per_function + config.writes_per_function)
    }

    #[test]
    fn standard_workload_matches_the_paper() {
        let config = WorkloadConfig::standard();
        assert_eq!(config.functions, 2);
        assert_eq!(config.reads_per_function, 2);
        assert_eq!(config.writes_per_function, 1);
        assert_eq!(config.value_size, 4096);
        assert_eq!(total_ios(&config), 6);
    }

    #[test]
    fn read_write_ratio_sweep_produces_ten_ios() {
        for pct in [0u32, 20, 40, 60, 80, 100] {
            let config = WorkloadConfig::read_write_ratio(pct);
            assert_eq!(total_ios(&config), 10, "at {pct}% reads");
            let reads = config.functions * config.reads_per_function;
            assert_eq!(reads as u32, pct / 10, "at {pct}% reads");
        }
    }

    #[test]
    fn transaction_length_sweep() {
        for n in 1..=10 {
            let config = WorkloadConfig::transaction_length(n);
            assert_eq!(config.functions, n);
            assert_eq!(total_ios(&config), 3 * n);
        }
    }

    #[test]
    fn plans_follow_the_config_shape() {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::standard(), 7);
        let plan = generator.next_plan();
        assert_eq!(plan.functions.len(), 2);
        assert_eq!(plan.value_size, 4096);
        assert!(plan.write_set().len() <= 2);
        for function in &plan.functions {
            assert_eq!(function.reads.len(), 2);
            assert_eq!(function.writes.len(), 1);
        }
    }

    #[test]
    fn generators_with_the_same_seed_agree() {
        let mut a = WorkloadGenerator::new(WorkloadConfig::standard(), 42);
        let mut b = WorkloadGenerator::new(WorkloadConfig::standard(), 42);
        assert_eq!(a.next_plan(), b.next_plan());
        let mut c = WorkloadGenerator::new(WorkloadConfig::standard(), 43);
        assert_ne!(a.next_plan(), c.next_plan());
    }

    #[test]
    fn skewed_generators_prefer_popular_keys() {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::standard().with_zipf(2.0), 11);
        let mut hot = 0;
        let mut total = 0;
        for _ in 0..500 {
            let plan = generator.next_plan();
            for f in &plan.functions {
                for k in f.reads.iter().chain(f.writes.iter()) {
                    total += 1;
                    if k.as_str() == "key-00000000" {
                        hot += 1;
                    }
                }
            }
        }
        assert!(
            hot as f64 / total as f64 > 0.3,
            "under Zipf 2.0 the hottest key dominates ({hot}/{total})"
        );
    }

    #[test]
    fn preload_covers_the_key_space() {
        let generator = WorkloadGenerator::new(WorkloadConfig::standard().with_keys(50), 1);
        let keys = generator.preload_plan();
        assert_eq!(keys.len(), 50);
        assert_eq!(keys[0].as_str(), "key-00000000");
        assert_eq!(keys[49].as_str(), "key-00000049");
    }
}
