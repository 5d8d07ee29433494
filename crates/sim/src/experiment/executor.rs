//! The one control-loop executor: drives a control loop per engine lane
//! against any plant engine, and picks that engine.

use std::panic::{catch_unwind, AssertUnwindSafe};

use soc_model::{FanLevel, PlatformState, SocSpec};
use workload::Demand;

use super::control::{ControlLoop, IntervalDecision};
use super::RunReport;
use crate::engine::{EnginePrecision, LaneInput, PlantEngine, ScalarEngine};
use crate::plant::{PlantPowerParams, PlantStep};
use crate::resilience::ResiliencePolicy;
use crate::{MixedPanelEngine, PanelEngine, SimError};

/// One engine lane's bookkeeping inside [`drive_engine`]: which result slot
/// it reports to and on which attempt, its control loop while a scenario is
/// in flight, and the frozen plant inputs replayed while the lane idles.
pub(super) struct LaneSlot {
    /// Index into the caller's configuration (and result) order.
    slot: usize,
    /// Which execution of the slot this is: 0 on first admission, one more
    /// on every retry.
    attempt: u32,
    /// `None` once the lane has retired its scenario (and no replacement was
    /// admitted from the work queue).
    control: Option<ControlLoop>,
    /// This interval's decision, between decide and absorb.
    decision: Option<IntervalDecision>,
    /// The plant inputs replayed while the lane idles, captured once when
    /// its scenario retires: the final platform state with idle demand and
    /// the fan off (the finished scenario's platform cooling down). An idle
    /// lane's results are already captured and engine lanes are strictly
    /// isolated, so the replayed inputs only keep the engine call well
    /// formed — they cannot perturb the surviving lanes' trajectories.
    frozen: (PlatformState, Demand, FanLevel, f64),
}

impl LaneSlot {
    /// A lane holding a freshly admitted control loop.
    pub(super) fn holding(slot: usize, attempt: u32, control: ControlLoop) -> Self {
        LaneSlot {
            slot,
            attempt,
            frozen: frozen_inputs(&control),
            control: Some(control),
            decision: None,
        }
    }
}

/// The idle-replay inputs captured when a lane's scenario retires: its final
/// platform state winding down with idle demand and the fan off. Every
/// retire site uses this one helper so retire-on-done and retire-on-error
/// lanes idle identically.
fn frozen_inputs(control: &ControlLoop) -> (PlatformState, Demand, FanLevel, f64) {
    (
        control.state,
        Demand::idle(),
        FanLevel::Off,
        control.config.ambient_c,
    )
}

/// Renders a contained panic payload as a structured
/// [`SimError::Panicked`], preserving the panic message when it is a string
/// (the overwhelmingly common case: `panic!`, `assert!`, index/overflow
/// panics all carry one).
pub(super) fn panic_error(payload: &(dyn std::any::Any + Send)) -> SimError {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    SimError::Panicked(message)
}

/// Empties `buffer` and returns its allocation for inputs of another
/// lifetime. An interval's engine inputs borrow the lanes, which the
/// executor mutates between intervals, so no one `Vec` can hold them from
/// one interval to the next; its allocation can. The map never runs, and
/// collecting an emptied `Vec` into one of the same layout reuses its
/// allocation.
fn recycle<'b>(mut buffer: Vec<LaneInput<'_>>) -> Vec<LaneInput<'b>> {
    buffer.clear();
    buffer.into_iter().map(|_| unreachable!()).collect()
}

/// One lane's engine inputs for the current interval: the decided inputs
/// while a scenario is in flight, the frozen retire snapshot while it idles.
fn lane_input(lane: &LaneSlot) -> LaneInput<'_> {
    match (&lane.control, &lane.decision) {
        (Some(control), Some(decision)) => LaneInput {
            state: &control.state,
            demand: &decision.demand,
            fan_level: decision.fan_level,
            ambient_c: control.config.ambient_c,
        },
        _ => LaneInput {
            state: &lane.frozen.0,
            demand: &lane.frozen.1,
            fan_level: lane.frozen.2,
            ambient_c: lane.frozen.3,
        },
    }
}

/// The unified control-loop executor: drives one [`ControlLoop`] per engine
/// lane against any [`PlantEngine`] until every scenario has finished and
/// the work queue is dry.
///
/// Per control interval the executor
///
/// 1. walks the lanes once: each lane **retires** its scenario when it is
///    done (publishing the result), **admits** a replacement from `next`
///    into a freed lane (retire → compact → admit; the lane restarts at the
///    new scenario's initial state via [`PlantEngine::admit`]), and
///    **decides** its next interval ([`ControlLoop::decide`]; a DTPM lane
///    predicts its proposal one horizon ahead through its own policy). A
///    lane whose decision fails retires on the spot and admits the next
///    queued scenario in its place,
/// 2. advances the engine by one interval with per-lane inputs (idle lanes
///    replay their frozen inputs), and
/// 3. absorbs the per-lane plant steps back into the control loops.
///
/// Control decisions stay strictly per-lane; only the plant integration is
/// delegated to the engine, which [`engine_for`] picks.
/// [`Experiment::run`](super::Experiment::run) is this function over a
/// single-lane engine with an empty queue, and the lane-compacting
/// [`ScenarioSweep`](super::ScenarioSweep) over per-worker engines refilled
/// from a shared scenario queue (a one-thread sweep as wide as its
/// configuration list is plain lockstep).
///
/// Every lane's result is reported through `publish` exactly once, keyed by
/// the slot index and attempt handed out by `next` (or pre-assigned in
/// `lanes`); individual lane failures never abort the other lanes. Every
/// `publish` is followed by a call to `next` before this function returns:
/// a lane that retires in phase 1 admits in place, and a lane that retires
/// in phase 3 admits at the next interval's phase 1 — so a caller whose
/// `publish` queues a retry for its own `next` never strands it. An
/// engine-level error (malformed call, lost device) is unattributable to
/// one lane and is reported on every unfinished lane *and* every scenario
/// remaining in the queue, so no result slot is ever left unfilled.
///
/// **Cell-level fault containment.** Every per-lane control-loop call
/// (decide, absorb, finish) runs under
/// `catch_unwind`: a panicking cell retires with a structured
/// [`SimError::Panicked`] — its partially-mutated control loop is discarded
/// whole — while sibling lanes continue untouched (lanes are strictly
/// isolated, so a quarantined lane's idle replay cannot perturb survivors).
/// `policy` additionally arms the cooperative per-cell deadline: a cell
/// still running after `deadline_intervals` absorbed intervals is cancelled
/// at the next interval boundary with [`SimError::Deadline`] instead of
/// hanging its worker.
pub(super) fn drive_engine<E, N, P>(
    engine: &mut E,
    period_s: f64,
    lanes: &mut [LaneSlot],
    policy: &ResiliencePolicy,
    next: &mut N,
    publish: &mut P,
) where
    E: PlantEngine + ?Sized,
    N: FnMut() -> Option<(usize, u32, ControlLoop)>,
    P: FnMut(usize, u32, Result<RunReport, SimError>),
{
    debug_assert_eq!(engine.lanes(), lanes.len(), "engine width matches lanes");
    let mut steps: Vec<Result<PlantStep, SimError>> = Vec::with_capacity(lanes.len());
    let mut spare_inputs: Vec<LaneInput<'static>> = Vec::with_capacity(lanes.len());
    loop {
        // Phase 1: retire → admit → decide, per lane.
        let mut any_active = false;
        for (index, lane) in lanes.iter_mut().enumerate() {
            loop {
                match lane.control.as_mut() {
                    Some(control) if control.is_done() => {
                        lane.frozen = frozen_inputs(control);
                        let control = lane.control.take().expect("control is present");
                        let report = catch_unwind(AssertUnwindSafe(move || control.finish()))
                            .map_err(|payload| panic_error(payload.as_ref()));
                        publish(lane.slot, lane.attempt, report);
                        // Fall through to the admission arm.
                    }
                    Some(control) if policy.exceeds_deadline(control.steps_taken) => {
                        // The cooperative watchdog: the cell overran its
                        // interval budget — cancel it cleanly at this
                        // interval boundary instead of hanging the worker.
                        lane.frozen = frozen_inputs(control);
                        publish(
                            lane.slot,
                            lane.attempt,
                            Err(SimError::Deadline {
                                intervals: control.steps_taken,
                            }),
                        );
                        lane.control = None;
                        // Fall through to the admission arm.
                    }
                    Some(control) => {
                        let decided = catch_unwind(AssertUnwindSafe(|| control.decide()))
                            .unwrap_or_else(|payload| Err(panic_error(payload.as_ref())));
                        match decided {
                            Ok(decision) => {
                                lane.decision = Some(decision);
                                any_active = true;
                                break;
                            }
                            Err(e) => {
                                lane.frozen = frozen_inputs(control);
                                publish(lane.slot, lane.attempt, Err(e));
                                lane.control = None;
                                // Fall through to the admission arm.
                            }
                        }
                    }
                    None => match next() {
                        Some((slot, attempt, control)) => {
                            engine.admit(index, control.config.plant);
                            lane.slot = slot;
                            lane.attempt = attempt;
                            lane.control = Some(control);
                            // `frozen` still holds the previous occupant's
                            // retire snapshot; every retire path recaptures
                            // it before this lane can idle again.
                            // Loop back so the fresh scenario decides now.
                        }
                        None => break,
                    },
                }
            }
        }
        if !any_active {
            break;
        }

        // Phase 2: advance every engine lane one interval (frozen inputs for
        // idle lanes), with the inputs built in the one buffer this call
        // carries from interval to interval.
        let mut inputs = recycle(std::mem::take(&mut spare_inputs));
        inputs.extend(lanes.iter().map(lane_input));
        let stepped = engine.step_interval(&inputs, period_s, &mut steps);
        spare_inputs = recycle(inputs);
        if let Err(e) = stepped {
            // An engine-level error (malformed call, lost device) cannot be
            // attributed to one lane; report it on all unfinished lanes. The
            // engine is unusable now, so the queue's remaining scenarios can
            // never run here either — drain it with the same error so every
            // result slot is filled.
            for lane in lanes.iter_mut() {
                if lane.control.take().is_some() {
                    publish(lane.slot, lane.attempt, Err(e.clone()));
                }
            }
            while let Some((slot, attempt, _control)) = next() {
                publish(slot, attempt, Err(e.clone()));
            }
            break;
        }

        // Phase 3: absorb per lane.
        for (lane, step) in lanes.iter_mut().zip(steps.drain(..)) {
            let Some(control) = lane.control.as_mut() else {
                continue;
            };
            let Some(decision) = lane.decision.take() else {
                continue;
            };
            match step {
                Ok(step) => {
                    if let Err(payload) =
                        catch_unwind(AssertUnwindSafe(|| control.absorb(&decision, &step)))
                    {
                        lane.frozen = frozen_inputs(control);
                        publish(lane.slot, lane.attempt, Err(panic_error(payload.as_ref())));
                        lane.control = None;
                    }
                }
                Err(e) => {
                    lane.frozen = frozen_inputs(control);
                    publish(lane.slot, lane.attempt, Err(e));
                    lane.control = None;
                }
            }
        }
    }
}

/// Builds the engine for one run or sweep group: `params` holds the plant
/// parameters of the lanes it starts with, `lanes` the group's configured
/// batch width. One f64 lane gets the [`ScalarEngine`], wider f64 batches
/// the [`PanelEngine`], and [`EnginePrecision::F32`] the
/// [`MixedPanelEngine`] at every width. This is the only place an engine
/// for [`drive_engine`] is built.
pub(super) fn engine_for(
    spec: SocSpec,
    params: &[PlantPowerParams],
    lanes: usize,
    precision: EnginePrecision,
) -> Box<dyn PlantEngine> {
    match precision {
        EnginePrecision::F64 if lanes == 1 => Box::new(ScalarEngine::new(spec, params)),
        EnginePrecision::F64 => Box::new(PanelEngine::new(spec, params)),
        EnginePrecision::F32 => Box::new(MixedPanelEngine::new(spec, params)),
    }
}
