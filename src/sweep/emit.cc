#include "sweep/emit.hh"

#include <ostream>

#include "core/report.hh"

namespace swan::sweep
{

namespace
{

/**
 * The shared row schema. Every format renders exactly these columns,
 * so switching --format never changes which data is reported. The
 * fault column appears only when the sweep has a fault axis (some
 * point carries a scenario) — clean sweeps keep the historic schema
 * byte-for-byte.
 */
std::vector<std::string>
columns(bool with_fault)
{
    std::vector<std::string> cols = {"kernel", "impl", "bits", "core",
                                     "ws"};
    if (with_fault)
        cols.push_back("fault");
    const char *rest[] = {"instrs",   "cycles",  "ipc",      "time_us",
                          "l1_mpki",  "llc_mpki", "power_w", "energy_mj"};
    cols.insert(cols.end(), std::begin(rest), std::end(rest));
    return cols;
}

/** Identifier (string-typed) column count; the rest are numeric. */
size_t
idColumns(bool with_fault)
{
    return with_fault ? 6 : 5;
}

std::vector<std::string>
cells(const SweepResult &r, bool with_fault)
{
    const auto &s = r.run.sim;
    std::vector<std::string> row = {r.point.spec->info.qualifiedName(),
                                    std::string(core::name(r.point.impl)),
                                    std::to_string(r.point.vecBits),
                                    r.point.configName,
                                    r.point.workingSetName};
    if (with_fault)
        row.push_back(r.point.faultName);
    const std::string rest[] = {std::to_string(r.run.mix.total()),
                                std::to_string(s.cycles),
                                core::fmt(s.ipc, 3),
                                core::fmt(s.timeSec * 1e6, 2),
                                core::fmt(s.l1Mpki, 2),
                                core::fmt(s.llcMpki, 2),
                                core::fmt(s.powerW, 3),
                                core::fmt(s.energyJ * 1e3, 4)};
    row.insert(row.end(), std::begin(rest), std::end(rest));
    return row;
}

} // namespace

bool
formatForName(const std::string &name, Format *out)
{
    if (name == "table")
        *out = Format::Table;
    else if (name == "csv")
        *out = Format::Csv;
    else if (name == "jsonl")
        *out = Format::JsonLines;
    else
        return false;
    return true;
}

bool
anyFaulted(const std::vector<SweepResult> &results)
{
    for (const auto &r : results)
        if (r.point.fault.enabled())
            return true;
    return false;
}

void
emitResults(std::ostream &os, const std::vector<SweepResult> &results,
            Format format)
{
    const bool withFault = anyFaulted(results);
    const auto cols = columns(withFault);
    if (format == Format::Csv) {
        const auto writeRow = [&os](const std::vector<std::string> &row) {
            for (size_t i = 0; i < row.size(); ++i)
                os << (i ? "," : "") << row[i];
            os << "\n";
        };
        writeRow(cols);
        for (const auto &r : results)
            writeRow(cells(r, withFault));
        return;
    }
    if (format == Format::JsonLines) {
        const size_t nid = idColumns(withFault);
        for (const auto &r : results) {
            const auto vals = cells(r, withFault);
            os << "{";
            for (size_t i = 0; i < cols.size(); ++i) {
                os << (i ? "," : "") << "\"" << cols[i] << "\":";
                // Identifier columns are strings; the rest numeric.
                if (i < nid)
                    os << "\"" << vals[i] << "\"";
                else
                    os << vals[i];
            }
            os << "}\n";
        }
        return;
    }
    core::Table table(cols);
    for (const auto &r : results)
        table.addRow(cells(r, withFault));
    table.print(os);
}

std::string
cacheSummary(const CacheStats &stats)
{
    std::string s = "cache: " + std::to_string(stats.hits) +
                    " memory hits, " + std::to_string(stats.diskHits) +
                    " disk hits, " + std::to_string(stats.misses) +
                    " misses, " + std::to_string(stats.stores) +
                    " stored";
    if (stats.traceHits || stats.traceStores)
        s += "; traces: " + std::to_string(stats.traceHits) +
             " disk hits, " + std::to_string(stats.traceStores) +
             " stored";
    if (stats.corruptEntriesQuarantined)
        s += "; " + std::to_string(stats.corruptEntriesQuarantined) +
             " corrupt entries quarantined";
    return s;
}

} // namespace swan::sweep
