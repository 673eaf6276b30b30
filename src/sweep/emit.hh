/**
 * @file
 * Sweep reports. One SweepResult stream renders in three formats: the
 * core::Table console text, CSV (header + one row per point) and
 * JSON-lines (one object per point). Results render in point-index
 * order, so every format is byte-stable across thread counts. The
 * cache summary goes through a separate call so callers can route it
 * to a diagnostic stream and keep the data stream comparable between
 * cold and warm runs.
 */

#ifndef SWAN_SWEEP_EMIT_HH
#define SWAN_SWEEP_EMIT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "sweep/scheduler.hh"

namespace swan::sweep
{

/** Report formats. */
enum class Format
{
    Table,
    Csv,
    JsonLines,
};

/** Parse "table" / "csv" / "jsonl"; false on anything else. */
bool formatForName(const std::string &name, Format *out);

/** Does any result carry an enabled fault scenario? (Decides the
 *  "fault" identifier column for a whole report; clean sweeps keep the
 *  historic schema byte-for-byte.) */
bool anyFaulted(const std::vector<SweepResult> &results);

/** Render @p results in @p format, in point-index order. */
void emitResults(std::ostream &os, const std::vector<SweepResult> &results,
                 Format format);

/** One-line cache summary, e.g. "cache: 12 hits, 3 misses, ...". */
std::string cacheSummary(const CacheStats &stats);

} // namespace swan::sweep

#endif // SWAN_SWEEP_EMIT_HH
