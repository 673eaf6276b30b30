/**
 * @file
 * Umbrella header of the public swan API — the one supported way to
 * drive the system (docs/api.md). Layering:
 *
 *   swan/session.hh     runtime policy (threads, caches, budgets)
 *   swan/experiment.hh  fluent grid builder -> Results
 *   swan/results.hh     iteration / find / where / emit
 *   swan/kernels.hh     kernel metadata, Registry, Options
 *   swan/runner.hh      trace capture, the Impl axis, KernelRun
 *   swan/sim.hh         core timing + power models, config presets
 *   swan/trace.hh       instruction traces, mix stats, packed encoding
 *   swan/sweep.hh       the engine under Experiment (specs, scheduler,
 *                       cache, emitters)
 *   swan/obs.hh         telemetry spans, run reports, trace sinks
 *   swan/report.hh      tables and number formatting
 *
 * Domain extras, included separately where needed: swan/gpu.hh,
 * swan/autovec.hh, swan/workloads.hh, swan/simd.hh, swan/faults.hh.
 */

#ifndef SWAN_SWAN_HH
#define SWAN_SWAN_HH

#include "swan/error.hh"
#include "swan/experiment.hh"
#include "swan/kernels.hh"
#include "swan/obs.hh"
#include "swan/report.hh"
#include "swan/results.hh"
#include "swan/runner.hh"
#include "swan/session.hh"
#include "swan/sim.hh"
#include "swan/sweep.hh"
#include "swan/trace.hh"
#include "swan/version.hh"

#endif // SWAN_SWAN_HH
