//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] makes the server misbehave on purpose — worker panics
//! mid-explain, artificial stage latency, torn or slowed response writes,
//! and mid-response disconnects — so the workload replayer (a trace whose
//! header carries a `faults` spec, e.g. `fedex-bench`'s `chaos` preset)
//! and `tests/faults.rs` can assert the recovery machinery
//! (panic isolation, deadlines, waiter detachment, typed error codes)
//! under sustained injected failure instead of hoping production finds
//! the gaps first.
//!
//! Decisions are drawn from a seeded counter-based generator
//! (SplitMix64), so a given seed yields the same fault *sequence* run to
//! run: the n-th decision of each kind is reproducible, independent of
//! thread scheduling. Plans are parsed from a compact spec string
//! (`"seed=7,panic=0.1,disconnect=0.05,torn=0.05,delay_ms=10"`) and
//! installed in-process with
//! [`ExplainService::set_faults`](crate::service::ExplainService::set_faults).
//! Rates are probabilities in `[0, 1]`; `delay_ms` is added to every
//! explain.
//!
//! The plan is injected **behind** the robustness layer under test: a
//! panic fires inside the session lock (exercising poisoned-lock
//! recovery), write faults fire on the response path (exercising write
//! timeouts and disconnect accounting). The `fedex serve` binary never
//! installs a plan — every hook is an `Option` that defaults to `None`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A seeded schedule of injected faults. See the module docs.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Independent decision counters per fault kind, so e.g. disconnect
    /// rolls don't perturb the panic sequence.
    rolls: [AtomicU64; 3],
    /// Probability an explain panics mid-run (inside the session lock).
    pub panic_rate: f64,
    /// Probability a response write is abandoned before any byte.
    pub disconnect_rate: f64,
    /// Probability a response write is torn: half the bytes, then close.
    pub torn_write_rate: f64,
    /// Artificial latency added to every explain (before the pipeline).
    pub stage_delay: Duration,
}

/// Index into [`FaultPlan::rolls`] per fault kind.
const ROLL_PANIC: usize = 0;
const ROLL_DISCONNECT: usize = 1;
const ROLL_TORN: usize = 2;

/// SplitMix64: the standard 64-bit finalizer-based generator — counter in,
/// well-mixed word out.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with every rate zero (useful as a parse base).
    fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rolls: Default::default(),
            panic_rate: 0.0,
            disconnect_rate: 0.0,
            torn_write_rate: 0.0,
            stage_delay: Duration::ZERO,
        }
    }

    /// Parse a spec string: comma-separated `key=value` pairs with keys
    /// `seed`, `panic`, `disconnect`, `torn` (rates in `[0,1]`) and
    /// `delay_ms`. Unknown keys are errors; an empty spec is a quiet plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::quiet(7);
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec {part:?} is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let rate = |v: &str| -> Result<f64, String> {
                let r: f64 = v
                    .parse()
                    .map_err(|e| format!("fault rate {key}={v:?}: {e}"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("fault rate {key}={v:?} outside [0,1]"));
                }
                Ok(r)
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|e| format!("fault seed {value:?}: {e}"))?;
                }
                "panic" => plan.panic_rate = rate(value)?,
                "disconnect" => plan.disconnect_rate = rate(value)?,
                "torn" => plan.torn_write_rate = rate(value)?,
                "delay_ms" => {
                    plan.stage_delay = Duration::from_millis(
                        value
                            .parse()
                            .map_err(|e| format!("fault delay_ms {value:?}: {e}"))?,
                    );
                }
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// The seed the plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draw the next decision of kind `kind` against `rate`.
    fn roll(&self, kind: usize, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let n = self.rolls[kind].fetch_add(1, Ordering::Relaxed);
        let word = splitmix64(self.seed ^ ((kind as u64) << 56) ^ n);
        // Top 53 bits → uniform in [0, 1).
        let u = (word >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }

    /// Should the current explain panic? (Checked inside the session
    /// lock, so a `true` exercises poisoned-lock recovery end to end.)
    pub fn should_panic(&self) -> bool {
        self.roll(ROLL_PANIC, self.panic_rate)
    }

    /// Should this response write be abandoned entirely?
    pub fn should_disconnect(&self) -> bool {
        self.roll(ROLL_DISCONNECT, self.disconnect_rate)
    }

    /// Should this response write be torn mid-line?
    pub fn should_tear_write(&self) -> bool {
        self.roll(ROLL_TORN, self.torn_write_rate)
    }

    /// Sleep the configured artificial stage latency (no-op when zero).
    pub fn inject_stage_delay(&self) {
        if !self.stage_delay.is_zero() {
            std::thread::sleep(self.stage_delay);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let p = FaultPlan::parse("seed=11,panic=0.5,disconnect=0.25,torn=1.0,delay_ms=3").unwrap();
        assert_eq!(p.seed(), 11);
        assert_eq!(p.panic_rate, 0.5);
        assert_eq!(p.disconnect_rate, 0.25);
        assert_eq!(p.torn_write_rate, 1.0);
        assert_eq!(p.stage_delay, Duration::from_millis(3));
        assert!(p.should_tear_write(), "rate 1.0 always fires");
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(FaultPlan::parse("panic=1.5").is_err());
        assert!(FaultPlan::parse("wat=0.1").is_err());
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
    }

    #[test]
    fn empty_spec_is_quiet() {
        let p = FaultPlan::parse("").unwrap();
        for _ in 0..64 {
            assert!(!p.should_panic());
            assert!(!p.should_disconnect());
            assert!(!p.should_tear_write());
        }
    }

    #[test]
    fn sequences_are_deterministic_per_seed() {
        let a = FaultPlan::parse("seed=9,panic=0.3").unwrap();
        let b = FaultPlan::parse("seed=9,panic=0.3").unwrap();
        let seq = |p: &FaultPlan| (0..256).map(|_| p.should_panic()).collect::<Vec<_>>();
        assert_eq!(seq(&a), seq(&b));
        let fired = seq(&a).iter().filter(|&&x| x).count();
        // 256 more draws from the same plan: the rate holds statistically.
        assert!(fired > 40 && fired < 120, "{fired} of 256 at rate 0.3");
    }

    #[test]
    fn kinds_roll_independently() {
        let p = FaultPlan::parse("seed=9,panic=0.3,disconnect=0.3").unwrap();
        let q = FaultPlan::parse("seed=9,panic=0.3,disconnect=0.3").unwrap();
        // Interleaving disconnect draws must not shift the panic sequence.
        let seq_p: Vec<bool> = (0..64)
            .map(|_| {
                let _ = p.should_disconnect();
                p.should_panic()
            })
            .collect();
        let seq_q: Vec<bool> = (0..64).map(|_| q.should_panic()).collect();
        assert_eq!(seq_p, seq_q);
    }
}
