/**
 * @file
 * Public re-export: trace capture. core::Runner's static capture
 * functions (one implementation's dynamic trace, buffered or encoded
 * on emit), the Impl axis and KernelRun, one point's measured result.
 * Measurements go through swan::Experiment (grids of registered
 * kernels: cached, parallel) or Session::run (one custom workload
 * instance); both replay a capture through a core timing model and
 * the power model.
 */

#ifndef SWAN_RUNNER_HH
#define SWAN_RUNNER_HH

#include "core/runner.hh"

#endif // SWAN_RUNNER_HH
