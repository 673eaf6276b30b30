#include "sweep/grid.hh"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "core/registry.hh"

namespace swan::sweep
{

namespace
{

/** Parse a Figure 5(b) name like "4W-2V"; false if not of that shape. */
bool
parseScalability(const std::string &name, int *ways, int *vunits)
{
    size_t i = 0;
    int w = 0, v = 0;
    // Valid values are <= 16; more than two digits cannot be valid and
    // unbounded accumulation would overflow on hostile CLI input.
    while (i < name.size() && std::isdigit(uint8_t(name[i]))) {
        if (i >= 2)
            return false;
        w = w * 10 + (name[i++] - '0');
    }
    if (i == 0 || i + 1 >= name.size() || name[i] != 'W' ||
        name[i + 1] != '-')
        return false;
    i += 2;
    const size_t vstart = i;
    while (i < name.size() && std::isdigit(uint8_t(name[i]))) {
        if (i - vstart >= 2)
            return false;
        v = v * 10 + (name[i++] - '0');
    }
    if (i == vstart || i + 1 != name.size() || name[i] != 'V')
        return false;
    if (w <= 0 || v <= 0 || w > 16 || v > 16)
        return false;
    *ways = w;
    *vunits = v;
    return true;
}

} // namespace

bool
configForName(const std::string &name, int vec_bits, sim::CoreConfig *out)
{
    if (name == "prime")
        *out = sim::primeConfig();
    else if (name == "gold")
        *out = sim::goldConfig();
    else if (name == "silver")
        *out = sim::silverConfig();
    else if (name == "wider")
        *out = sim::widerVectorConfig(vec_bits);
    else {
        int ways = 0, vunits = 0;
        if (!parseScalability(name, &ways, &vunits))
            return false;
        *out = sim::scalabilityConfig(ways, vunits);
    }
    return true;
}

bool
workingSetForName(const std::string &name, core::Options *out)
{
    if (name == "default") {
        *out = core::Options::fromEnv();
    } else if (name == "full") {
        *out = core::Options::full();
    } else if (name == "tiny") {
        *out = core::Options::tiny();
    } else if (name == "scalability") {
        *out = scalabilityOptions(core::Options::fromEnv());
    } else {
        return false;
    }
    return true;
}

core::Options
scalabilityOptions(core::Options o)
{
    // Image kernels use up to 8 B/px across input+output, so 96x48
    // stays inside the 64 KiB L1 once warmed.
    o.imageWidth = std::min(o.imageWidth, 96);
    o.imageHeight = std::min(o.imageHeight, 48);
    o.bufferBytes = std::min(o.bufferBytes, 16 * 1024);
    o.audioSamples = std::min(o.audioSamples, 4096);
    o.videoBlocks = std::min(o.videoBlocks, 16);
    return o;
}

std::vector<SweepPoint>
expand(const SweepSpec &spec, std::string *err)
{
    const auto fail = [err](std::string msg) {
        if (err)
            *err = std::move(msg);
        return std::vector<SweepPoint>{};
    };
    const auto &reg = core::Registry::instance();

    // Resolve the kernel axis first so filter errors surface by name.
    std::vector<const core::KernelSpec *> kernels;
    if (!spec.kernels.names.empty()) {
        for (const auto &name : spec.kernels.names) {
            const auto *k = reg.find(name);
            if (!k)
                return fail("unknown kernel '" + name + "'");
            kernels.push_back(k);
        }
    } else {
        for (const auto &k : reg.kernels())
            kernels.push_back(&k);
    }
    kernels.erase(
        std::remove_if(
            kernels.begin(), kernels.end(),
            [&spec](const core::KernelSpec *k) {
                if (!spec.kernels.library.empty() &&
                    k->info.symbol != spec.kernels.library)
                    return true;
                if (spec.kernels.widerOnly && !k->info.widerWidths)
                    return true;
                // An explicit name list opts into study kernels.
                if (spec.kernels.names.empty() && k->info.excluded &&
                    !spec.kernels.includeExcluded)
                    return true;
                return false;
            }),
        kernels.end());
    if (kernels.empty())
        return fail("sweep grid matches no kernels");
    if (spec.impls.empty() || spec.vecBits.empty() ||
        spec.configs.empty() || spec.workingSets.empty())
        return fail("sweep grid has an empty axis");

    for (int bits : spec.vecBits)
        if (bits != 128 && bits != 256 && bits != 512 && bits != 1024)
            return fail("vector width must be 128/256/512/1024");

    std::vector<core::Options> wsOptions;
    for (const auto &ws : spec.workingSets) {
        core::Options o;
        if (!workingSetForName(ws, &o))
            return fail("unknown working set '" + ws + "'");
        wsOptions.push_back(o);
    }

    // Fault axis: an empty list is the historic clean grid, one clean
    // point per combination. Otherwise every entry is validated here
    // so a typo'd scenario fails the whole expand with the catalog
    // attached (see FaultSpec::parse), before any capture or
    // simulation runs. A point is labelled with its entry as written,
    // and an entry written as "" (a disabled spec) as "none".
    std::vector<sim::FaultSpec> faults;
    for (const auto &fname : spec.faults) {
        sim::FaultSpec f;
        std::string ferr;
        if (!sim::FaultSpec::parse(fname, &f, &ferr))
            return fail(ferr);
        faults.push_back(f);
    }
    const size_t faultCount = faults.empty() ? 1 : faults.size();

    std::vector<SweepPoint> points;
    for (const auto *k : kernels) {
        for (size_t wi = 0; wi < spec.workingSets.size(); ++wi) {
            for (size_t fi = 0; fi < faultCount; ++fi) {
                for (const auto &cfgName : spec.configs) {
                    for (core::Impl impl : spec.impls) {
                        bool emittedScalar = false;
                        for (int bits : spec.vecBits) {
                            // Scalar/Auto code has no width axis.
                            if (impl != core::Impl::Neon) {
                                if (emittedScalar)
                                    continue;
                                emittedScalar = true;
                                bits = 128;
                            } else if (bits != 128 &&
                                       !k->info.widerWidths) {
                                continue;
                            }
                            SweepPoint p;
                            p.index = points.size();
                            p.spec = k;
                            p.impl = impl;
                            p.vecBits = bits;
                            p.configName = cfgName;
                            if (!configForName(cfgName, bits, &p.config))
                                return fail("unknown core config '" +
                                            cfgName + "'");
                            p.workingSetName = spec.workingSets[wi];
                            p.options = wsOptions[wi];
                            if (!faults.empty()) {
                                p.fault = faults[fi];
                                if (!spec.faults[fi].empty())
                                    p.faultName = spec.faults[fi];
                            }
                            points.push_back(std::move(p));
                        }
                    }
                }
            }
        }
    }
    if (points.empty())
        return fail("sweep grid expands to no runnable points");
    return points;
}

} // namespace swan::sweep
