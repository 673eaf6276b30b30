/**
 * @file
 * Public re-export: the sweep engine underneath swan::Experiment.
 * Declarative SweepSpec grids, the multi-threaded scheduler, the
 * ResultCache (in-process map plus cache directory) and the
 * table/csv/jsonl emitters. Most consumers want the swan::Experiment
 * façade (swan/experiment.hh) instead; these types are public for code
 * that post-processes SweepResult streams or embeds the engine
 * directly.
 */

#ifndef SWAN_SWEEP_HH
#define SWAN_SWEEP_HH

#include "sweep/cache.hh"
#include "sweep/emit.hh"
#include "sweep/grid.hh"
#include "sweep/scheduler.hh"

#endif // SWAN_SWEEP_HH
