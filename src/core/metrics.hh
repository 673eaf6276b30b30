/**
 * @file
 * Aggregation helpers: geometric and arithmetic means (the paper
 * reports per-library geomeans; swan::geomeanBy groups them).
 */

#ifndef SWAN_CORE_METRICS_HH
#define SWAN_CORE_METRICS_HH

#include <vector>

namespace swan::core
{

/** Geometric mean; 0 for an empty set. */
double geomean(const std::vector<double> &xs);

/** Arithmetic mean; 0 for an empty set. */
double mean(const std::vector<double> &xs);

} // namespace swan::core

#endif // SWAN_CORE_METRICS_HH
