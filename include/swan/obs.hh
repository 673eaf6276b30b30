/**
 * @file
 * Public re-export: the swan::obs telemetry subsystem — the
 * phase-structured span registry (obs/telemetry.hh) and the report
 * layer (obs/report.hh: run-report aggregation, Chrome trace-event
 * output, the Collector scope that writes both). Most consumers get
 * telemetry implicitly through SessionOptions::metricsOut /
 * SWAN_METRICS; these types are public for embedders that collect
 * around their own code, bracket it with obs::Span guards, or
 * serialize a report themselves.
 */

#ifndef SWAN_OBS_HH
#define SWAN_OBS_HH

#include "obs/report.hh"
#include "obs/telemetry.hh"

#endif // SWAN_OBS_HH
