/**
 * @file
 * Public re-export: report formatting (core::Table, banner, fmt/fmtX/
 * fmtPct) and the geomean/mean helpers used by the per-figure
 * reproductions (per-group aggregation over Results is swan::geomeanBy,
 * swan/results.hh).
 */

#ifndef SWAN_REPORT_HH
#define SWAN_REPORT_HH

#include "core/metrics.hh"
#include "core/report.hh"

#endif // SWAN_REPORT_HH
