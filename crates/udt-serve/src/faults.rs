//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] is a parsed description of *what* to break and
//! *when* — e.g. "panic in a worker on the 2nd batch", "stall the
//! connection reader with probability 0.3". Plans come from the
//! `--faults` flag of `udt-serve` and are armed into a
//! [`FaultInjector`] that the batcher, server and registry paths consult
//! at their injection points. With no plan configured every check is a
//! single branch on an empty slice — serving pays nothing.
//!
//! **Determinism**: triggers are either counter-based (`nth=N`,
//! `every=N` — exact, independent of thread interleaving per point) or
//! probability-based with a per-point SplitMix64 stream seeded from
//! `--fault-seed` (the decision *sequence* per point reproduces given
//! the same seed and per-point hit order). The chaos suite
//! (`tests/chaos.rs`) uses counter triggers so every run exercises the
//! same failure.
//!
//! ## Spec grammar
//!
//! ```text
//! --faults "point:trigger[:delay],point:trigger[:delay],…"
//!
//! point   := delay_in_worker | panic_in_worker | truncate_frame
//!          | stall_reader | fail_model_load
//! trigger := nth=N | every=N | prob=P | always
//! delay   := <millis>ms        (delay_in_worker / stall_reader only)
//! ```
//!
//! Example: `--faults "panic_in_worker:nth=2,stall_reader:every=3:50ms"`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::error::ServeError;
use crate::Result;

/// A place in the serving stack where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Sleep in a batch worker before serving a flush (simulates a slow
    /// model / CPU contention; drives queue growth and deadline expiry).
    DelayInWorker,
    /// Panic inside the per-job classification path (exercises the
    /// catch-unwind isolation and the no-poisoned-mutex guarantee).
    PanicInWorker,
    /// Write only half of a response frame, then sever the connection
    /// (exercises client-side framing errors and retries).
    TruncateFrame,
    /// Sleep in the connection read loop before servicing the next
    /// request (simulates a stalled handler pinning its connection).
    StallReader,
    /// Fail a `load_model`/`swap` request before it reaches the registry
    /// (exercises "old model keeps serving" semantics).
    FailModelLoad,
}

impl FaultPoint {
    /// Every injection point, for parsers and reports.
    pub const ALL: [FaultPoint; 5] = [
        FaultPoint::DelayInWorker,
        FaultPoint::PanicInWorker,
        FaultPoint::TruncateFrame,
        FaultPoint::StallReader,
        FaultPoint::FailModelLoad,
    ];

    /// The spec-grammar name of the point.
    pub fn name(&self) -> &'static str {
        match self {
            FaultPoint::DelayInWorker => "delay_in_worker",
            FaultPoint::PanicInWorker => "panic_in_worker",
            FaultPoint::TruncateFrame => "truncate_frame",
            FaultPoint::StallReader => "stall_reader",
            FaultPoint::FailModelLoad => "fail_model_load",
        }
    }
}

/// When a fault fires, relative to the sequence of hits on its point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire exactly once, on the Nth hit (1-based).
    Nth(u64),
    /// Fire on every Nth hit (`every=1` fires on all of them).
    Every(u64),
    /// Fire with probability `p` per hit, from the seeded per-point
    /// stream.
    Prob(f64),
    /// Fire on every hit.
    Always,
}

/// One parsed fault: where, when, and (for the sleep points) how long.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// The injection point.
    pub point: FaultPoint,
    /// The firing rule.
    pub trigger: Trigger,
    /// Sleep duration for [`FaultPoint::DelayInWorker`] /
    /// [`FaultPoint::StallReader`] (default 20 ms).
    pub delay: Duration,
}

/// A parsed, inert fault configuration (cheap to clone and compare;
/// carried inside `ServeConfig`). Armed into a live [`FaultInjector`]
/// when the server starts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The faults to arm.
    pub specs: Vec<FaultSpec>,
    /// Seed for the probability streams.
    pub seed: u64,
}

impl FaultPlan {
    /// Parses a comma-separated spec list (see the module docs for the
    /// grammar). An empty string is the empty plan.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan> {
        let mut specs = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            specs.push(parse_spec(part)?);
        }
        Ok(FaultPlan { specs, seed })
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

fn parse_spec(part: &str) -> Result<FaultSpec> {
    let bad = |why: String| ServeError::Config(format!("fault spec `{part}`: {why}"));
    let mut fields = part.split(':');
    let point_name = fields.next().unwrap_or_default();
    let point = FaultPoint::ALL
        .iter()
        .copied()
        .find(|p| p.name() == point_name)
        .ok_or_else(|| {
            bad(format!(
                "unknown point `{point_name}` (expected one of: {})",
                FaultPoint::ALL.map(|p| p.name()).join(", ")
            ))
        })?;
    let trigger_raw = fields
        .next()
        .ok_or_else(|| bad("missing trigger (nth=N, every=N, prob=P or always)".into()))?;
    let trigger = if trigger_raw == "always" {
        Trigger::Always
    } else if let Some(n) = trigger_raw.strip_prefix("nth=") {
        Trigger::Nth(
            n.parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| bad(format!("nth wants an integer >= 1, got `{n}`")))?,
        )
    } else if let Some(n) = trigger_raw.strip_prefix("every=") {
        Trigger::Every(
            n.parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| bad(format!("every wants an integer >= 1, got `{n}`")))?,
        )
    } else if let Some(p) = trigger_raw.strip_prefix("prob=") {
        Trigger::Prob(
            p.parse()
                .ok()
                .filter(|p: &f64| (0.0..=1.0).contains(p))
                .ok_or_else(|| bad(format!("prob wants a number in [0, 1], got `{p}`")))?,
        )
    } else {
        return Err(bad(format!(
            "unknown trigger `{trigger_raw}` (expected nth=N, every=N, prob=P or always)"
        )));
    };
    let delay = match fields.next() {
        None => Duration::from_millis(20),
        Some(raw) => {
            let ms = raw
                .strip_suffix("ms")
                .and_then(|n| n.parse::<u64>().ok())
                .ok_or_else(|| bad(format!("delay wants `<millis>ms`, got `{raw}`")))?;
            Duration::from_millis(ms)
        }
    };
    if let Some(extra) = fields.next() {
        return Err(bad(format!("trailing field `{extra}`")));
    }
    Ok(FaultSpec {
        point,
        trigger,
        delay,
    })
}

/// One armed fault: the spec plus its live counters.
#[derive(Debug)]
struct Armed {
    spec: FaultSpec,
    /// Times the point was consulted for this spec.
    hits: AtomicU64,
    /// Times the fault actually fired.
    fired: AtomicU64,
    /// SplitMix64 state for [`Trigger::Prob`].
    rng: Mutex<u64>,
}

/// Count of one armed fault's activity, for reports and assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCount {
    /// The spec-grammar name of the point.
    pub point: &'static str,
    /// Times the point was consulted.
    pub hits: u64,
    /// Times the fault fired.
    pub fired: u64,
}

/// The live injection registry the serving stack consults. Disabled
/// (empty) injectors cost one slice-length check per consultation.
#[derive(Debug, Default)]
pub struct FaultInjector {
    armed: Vec<Armed>,
}

impl FaultInjector {
    /// An injector that never fires.
    pub fn disabled() -> Arc<FaultInjector> {
        Arc::new(FaultInjector::default())
    }

    /// Arms a plan. Each spec gets an independent probability stream
    /// derived from the plan seed and its position, so adding a spec
    /// does not shift the decisions of the others.
    pub fn from_plan(plan: &FaultPlan) -> Arc<FaultInjector> {
        let armed = plan
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut state = plan.seed ^ ((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                // One warm-up step decorrelates near-identical seeds.
                rand::split_mix64(&mut state);
                Armed {
                    spec: spec.clone(),
                    hits: AtomicU64::new(0),
                    fired: AtomicU64::new(0),
                    rng: Mutex::new(state),
                }
            })
            .collect();
        Arc::new(FaultInjector { armed })
    }

    /// Whether any fault is armed at all (lets call sites skip work like
    /// formatting panic messages).
    pub fn active(&self) -> bool {
        !self.armed.is_empty()
    }

    /// Consults the injector at `point`: counts the hit and decides
    /// whether the fault fires there.
    pub fn fires(&self, point: FaultPoint) -> bool {
        let mut any = false;
        for armed in self.armed.iter().filter(|a| a.spec.point == point) {
            let hit = armed.hits.fetch_add(1, Ordering::SeqCst) + 1;
            let fire = match armed.spec.trigger {
                Trigger::Nth(n) => hit == n,
                Trigger::Every(n) => hit % n == 0,
                Trigger::Always => true,
                Trigger::Prob(p) => {
                    let mut state = armed.rng.lock().unwrap_or_else(|e| e.into_inner());
                    let draw =
                        (rand::split_mix64(&mut state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                    draw < p
                }
            };
            if fire {
                armed.fired.fetch_add(1, Ordering::SeqCst);
                any = true;
            }
        }
        any
    }

    /// Consults a sleep point: `Some(duration)` when the fault fires.
    /// The longest configured delay wins if several specs fire at once.
    pub fn sleep_for(&self, point: FaultPoint) -> Option<Duration> {
        // `fires` counts all matching specs in one pass; re-derive the
        // duration from the armed list (all specs for a sleep point
        // share the hit, so take the max delay among them).
        if self.armed.iter().any(|a| a.spec.point == point) && self.fires(point) {
            self.armed
                .iter()
                .filter(|a| a.spec.point == point)
                .map(|a| a.spec.delay)
                .max()
        } else {
            None
        }
    }

    /// Activity counts per armed fault, in plan order.
    pub fn counts(&self) -> Vec<FaultCount> {
        self.armed
            .iter()
            .map(|a| FaultCount {
                point: a.spec.point.name(),
                hits: a.hits.load(Ordering::SeqCst),
                fired: a.fired.load(Ordering::SeqCst),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips_and_rejects_garbage() {
        let plan = FaultPlan::parse("panic_in_worker:nth=2,stall_reader:every=3:50ms", 7).unwrap();
        assert_eq!(plan.specs.len(), 2);
        assert_eq!(plan.specs[0].point, FaultPoint::PanicInWorker);
        assert_eq!(plan.specs[0].trigger, Trigger::Nth(2));
        assert_eq!(plan.specs[1].trigger, Trigger::Every(3));
        assert_eq!(plan.specs[1].delay, Duration::from_millis(50));
        assert!(FaultPlan::parse("", 0).unwrap().is_empty());
        assert!(FaultPlan::parse("delay_in_worker:always", 0).is_ok());
        assert!(FaultPlan::parse("delay_in_worker:prob=0.5:5ms", 0).is_ok());

        for bad in [
            "frobnicate:nth=1",
            "panic_in_worker",
            "panic_in_worker:soon",
            "panic_in_worker:nth=0",
            "panic_in_worker:prob=1.5",
            "stall_reader:always:fast",
            "stall_reader:always:50ms:extra",
        ] {
            let err = FaultPlan::parse(bad, 0).unwrap_err();
            assert!(
                matches!(err, ServeError::Config(_)),
                "{bad} should be a config error, got {err:?}"
            );
        }
    }

    #[test]
    fn counter_triggers_fire_exactly_where_asked() {
        let plan = FaultPlan::parse("panic_in_worker:nth=3", 0).unwrap();
        let inj = FaultInjector::from_plan(&plan);
        assert!(inj.active());
        let fired: Vec<bool> = (0..6)
            .map(|_| inj.fires(FaultPoint::PanicInWorker))
            .collect();
        assert_eq!(fired, [false, false, true, false, false, false]);
        // Other points are untouched.
        assert!(!inj.fires(FaultPoint::TruncateFrame));
        let counts = inj.counts();
        assert_eq!(counts[0].fired, 1);
        assert_eq!(counts[0].hits, 6);

        let plan = FaultPlan::parse("truncate_frame:every=2", 0).unwrap();
        let inj = FaultInjector::from_plan(&plan);
        let fired: Vec<bool> = (0..6)
            .map(|_| inj.fires(FaultPoint::TruncateFrame))
            .collect();
        assert_eq!(fired, [false, true, false, true, false, true]);
    }

    #[test]
    fn probability_triggers_are_seed_deterministic() {
        let draw = |seed| {
            let plan = FaultPlan::parse("stall_reader:prob=0.5", seed).unwrap();
            let inj = FaultInjector::from_plan(&plan);
            (0..64)
                .map(|_| inj.fires(FaultPoint::StallReader))
                .collect::<Vec<bool>>()
        };
        assert_eq!(draw(42), draw(42), "same seed, same decisions");
        assert_ne!(draw(42), draw(43), "different seed, different stream");
        let fired = draw(42).iter().filter(|&&f| f).count();
        assert!(
            (8..=56).contains(&fired),
            "p=0.5 over 64 draws fired {fired} times"
        );
    }

    #[test]
    fn sleep_points_report_their_delay() {
        let plan = FaultPlan::parse("delay_in_worker:nth=2:75ms", 0).unwrap();
        let inj = FaultInjector::from_plan(&plan);
        assert_eq!(inj.sleep_for(FaultPoint::DelayInWorker), None);
        assert_eq!(
            inj.sleep_for(FaultPoint::DelayInWorker),
            Some(Duration::from_millis(75))
        );
        assert_eq!(inj.sleep_for(FaultPoint::DelayInWorker), None);
        // Disabled injectors never sleep.
        assert_eq!(
            FaultInjector::disabled().sleep_for(FaultPoint::DelayInWorker),
            None
        );
    }
}
