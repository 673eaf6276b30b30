/**
 * @file
 * Public re-export: dynamic instruction traces. The Instr record and
 * recorder, MixStats instruction-class accounting, and the packed
 * (columnar varint) trace encoding, whose checksummed payload is the
 * one trace file format (the sweep cache's `.swtp` entries and `swan
 * run --dump-trace` files).
 */

#ifndef SWAN_TRACE_HH
#define SWAN_TRACE_HH

#include "trace/instr.hh"
#include "trace/packed.hh"
#include "trace/recorder.hh"
#include "trace/stats.hh"

#endif // SWAN_TRACE_HH
