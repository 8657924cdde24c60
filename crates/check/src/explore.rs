//! Bounded-exhaustive schedule exploration and replayable schedules.
//!
//! The explorer is a stateless model checker in the CHESS tradition: a
//! run is identified by the sequence of choices taken at multi-candidate
//! dispatch decisions, and the search tree is walked by *re-executing*
//! the model under a forced prefix and branching on every decision the
//! continuation made by default. Because [`crate::model::run_model`] is
//! deterministic in its chooser, each distinct prefix yields a distinct
//! complete schedule, and any schedule can be reproduced later from its
//! printed [`ScheduleString`] — the property the CI `check` job and the
//! committed regression corpus rely on.
//!
//! A *preemption bound* (Musuvathi & Qadeer's context bounding) caps how
//! many times a branch may switch away from a thread that could have
//! continued. Most real concurrency bugs need only one or two
//! preemptions, so a small bound explores the high-yield slice of an
//! otherwise exponential tree — which is what makes the 3-thread models
//! tractable in CI.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::lockdep::LockGraph;
use crate::model::{run_model, Model, PrefixChooser, RunOutcome, Variant};

/// How many failing schedules a report keeps (the rest are counted only).
const MAX_KEPT_FAILURES: usize = 5;

/// A replayable schedule: `v1/<model>/<variant>/<c0.c1...>` (or `-` for
/// the empty choice sequence). The choices are the chosen-candidate
/// indices at each multi-candidate dispatch decision, in order; replaying
/// them through a [`PrefixChooser`] reproduces the run exactly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScheduleString {
    /// Name of the model the schedule belongs to.
    pub model: String,
    /// Variant the model ran under.
    pub variant: Variant,
    /// The chosen-candidate indices.
    pub choices: Vec<u32>,
}

impl fmt::Display for ScheduleString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v1/{}/{}/", self.model, self.variant.name())?;
        if self.choices.is_empty() {
            return write!(f, "-");
        }
        for (i, c) in self.choices.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl ScheduleString {
    /// Parses the `Display` format back. Returns a description of what is
    /// wrong on malformed input.
    pub fn parse(s: &str) -> Result<ScheduleString, String> {
        let mut it = s.split('/');
        let (Some(ver), Some(model), Some(variant), Some(choices), None) =
            (it.next(), it.next(), it.next(), it.next(), it.next())
        else {
            return Err(format!(
                "expected v1/<model>/<variant>/<choices>, got {s:?}"
            ));
        };
        if ver != "v1" {
            return Err(format!("unknown schedule version {ver:?}"));
        }
        let variant =
            Variant::parse(variant).ok_or_else(|| format!("unknown variant {variant:?}"))?;
        let choices = if choices == "-" {
            Vec::new()
        } else {
            choices
                .split('.')
                .map(|c| {
                    c.parse::<u32>()
                        .map_err(|e| format!("bad choice {c:?}: {e}"))
                })
                .collect::<Result<_, _>>()?
        };
        Ok(ScheduleString {
            model: model.to_string(),
            variant,
            choices,
        })
    }
}

/// One failing schedule found during exploration.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The replayable schedule.
    pub schedule: ScheduleString,
    /// The classified failure message.
    pub message: String,
}

/// Knobs for the exhaustive sweep.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Maximum preemptive context switches per schedule (`None` =
    /// unbounded — the fully exhaustive sweep).
    pub preemption_bound: Option<u32>,
    /// Stop after this many schedules even if the tree is not exhausted.
    pub max_schedules: u64,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            preemption_bound: None,
            max_schedules: 200_000,
        }
    }
}

/// What an exhaustive sweep found.
pub struct ExploreReport {
    /// Distinct complete schedules executed.
    pub schedules: u64,
    /// Total runs that failed (only the first few are kept in
    /// [`ExploreReport::failures`]).
    pub failed_runs: u64,
    /// Representative failures, at most [`MAX_KEPT_FAILURES`].
    pub failures: Vec<Failure>,
    /// True if the sweep stopped at `max_schedules` before exhausting the
    /// tree (the count is then a lower bound on the schedule space).
    pub capped: bool,
    /// Lock-order graph aggregated across every executed schedule.
    pub lockdep: LockGraph,
}

/// Exhaustively explores `model` under `variant`.
///
/// Every complete schedule within the preemption bound is executed
/// exactly once: a run's choice sequence extends its forced prefix with
/// fewest-preemption defaults, and each decision beyond the prefix spawns
/// one child per untaken alternative. Distinct prefixes end in a
/// non-default choice at distinct positions, so no schedule is visited
/// twice.
pub fn explore(model: &Model, variant: Variant, cfg: &ExploreConfig) -> ExploreReport {
    let mut report = ExploreReport {
        schedules: 0,
        failed_runs: 0,
        failures: Vec::new(),
        capped: false,
        lockdep: LockGraph::new(),
    };
    // Work stack of forced prefixes, with the preemptions already spent
    // inside each prefix.
    let mut stack: Vec<(Vec<u32>, u32)> = vec![(Vec::new(), 0)];
    while let Some((prefix, spent)) = stack.pop() {
        if report.schedules >= cfg.max_schedules {
            report.capped = true;
            break;
        }
        let plen = prefix.len();
        let out = run_model(
            model,
            variant,
            Rc::new(RefCell::new(PrefixChooser { prefix })),
        );
        report.schedules += 1;
        report.lockdep.ingest(&out.events);
        if let Some(msg) = &out.failure {
            report.failed_runs += 1;
            if report.failures.len() < MAX_KEPT_FAILURES {
                report.failures.push(Failure {
                    schedule: ScheduleString {
                        model: model.name.to_string(),
                        variant,
                        choices: out.taken.clone(),
                    },
                    message: msg.clone(),
                });
            }
        }
        // Branch on every decision the continuation made by default.
        // Children are pushed deepest-first so the walk stays depth-first
        // in natural left-to-right order.
        for i in (plen..out.points.len()).rev() {
            let p = out.points[i];
            for alt in (0..p.arity).rev() {
                if alt == p.chosen {
                    continue;
                }
                // Beyond the prefix the default continues the running
                // thread whenever it can, so every alternative where a
                // continuation existed is a preemption.
                let preemptive = p.cont.is_some();
                let cost = spent + u32::from(preemptive);
                if cfg.preemption_bound.is_some_and(|b| preemptive && cost > b) {
                    continue;
                }
                let mut child = out.taken[..i].to_vec();
                child.push(alt);
                stack.push((child, cost));
            }
        }
    }
    report
}

/// Replays a schedule string against a model catalogue. Returns the
/// reproduced run, or a description of why the string does not apply.
pub fn replay(models: &[Model], s: &ScheduleString) -> Result<RunOutcome, String> {
    let model = models
        .iter()
        .find(|m| m.name == s.model)
        .ok_or_else(|| format!("no model named {:?}", s.model))?;
    if !model.has_variant(s.variant) {
        return Err(format!(
            "model {:?} does not run under variant {:?}",
            s.model,
            s.variant.name()
        ));
    }
    Ok(run_model(
        model,
        s.variant,
        Rc::new(RefCell::new(PrefixChooser {
            prefix: s.choices.clone(),
        })),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Expect, SyncOp};

    fn racy_incr() -> Model {
        Model {
            name: "racy",
            about: "",
            threads: vec![vec![SyncOp::Incr(0)], vec![SyncOp::Incr(0)]],
            mutexes: 0,
            cvs: 0,
            sema_init: vec![],
            rws: 0,
            counters: 1,
            flags: 0,
            crits: 0,
            runq_shards: 0,
            chan_caps: vec![],
            io_shards: 0,
            io_fds: 0,
            thread_pris: vec![],
            final_counters: vec![(0, 2)],
            expect: Expect::FailContaining("counter"),
            min_schedules: 0,
            preemption_bound: None,
            variants: vec![Variant::Default],
        }
    }

    #[test]
    fn schedule_string_round_trips() {
        for s in ["v1/m/default/0.1.2", "v1/cv_pingpong/shared/-"] {
            let parsed = ScheduleString::parse(s).unwrap();
            assert_eq!(parsed.to_string(), s);
        }
        assert!(ScheduleString::parse("v2/m/default/0").is_err());
        assert!(ScheduleString::parse("v1/m/bogus/0").is_err());
        assert!(ScheduleString::parse("v1/m/default/0.x").is_err());
    }

    #[test]
    fn exhaustive_sweep_finds_the_lost_update() {
        let m = racy_incr();
        let rep = explore(&m, Variant::Default, &ExploreConfig::default());
        assert!(!rep.capped);
        // Two threads, two micro-steps each: 6 interleavings, some torn.
        assert!(rep.schedules >= 4, "only {} schedules", rep.schedules);
        assert!(rep.failed_runs > 0);
        let f = &rep.failures[0];
        assert!(f.message.contains("counter"));
        // The printed schedule replays to the identical failure.
        let out = replay(&[m], &f.schedule).unwrap();
        assert_eq!(out.failure.as_deref(), Some(f.message.as_str()));
    }

    #[test]
    fn preemption_bound_zero_explores_only_serial_orders() {
        let m = racy_incr();
        let cfg = ExploreConfig {
            preemption_bound: Some(0),
            ..ExploreConfig::default()
        };
        let rep = explore(&m, Variant::Default, &cfg);
        // Without preemptions only thread-at-a-time orders exist, and the
        // serialized increments always pass.
        assert!(rep.schedules >= 2);
        assert_eq!(rep.failed_runs, 0, "serial orders cannot tear");
        let unbounded = explore(&m, Variant::Default, &ExploreConfig::default());
        assert!(unbounded.schedules > rep.schedules);
    }

    #[test]
    fn max_schedules_caps_the_sweep() {
        let m = racy_incr();
        let cfg = ExploreConfig {
            preemption_bound: None,
            max_schedules: 2,
        };
        let rep = explore(&m, Variant::Default, &cfg);
        assert!(rep.capped);
        assert_eq!(rep.schedules, 2);
    }
}
