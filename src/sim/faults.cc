#include "sim/faults.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace swan::sim
{

namespace
{

/** splitmix64 — the standard seeded mixer; drives window jitter. */
inline uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

struct ScenarioInfo
{
    FaultScenario scenario;
    const char *name;
    double defaultIntensity;
    double maxIntensity; //!< largest explicit intensity parse() accepts
};

// The caps keep every use of the intensity defined and meaningful: a
// mispredict rate is at most 1; flush and element counts convert to
// uint32_t (an element count past 255 never truncates a vector op);
// a DRAM spike multiplies the latency, and the issue window grows with
// the cycles a load can complete past its dispatch.
constexpr ScenarioInfo kScenarios[] = {
    {FaultScenario::None, "none", 0.0, 0.0},
    {FaultScenario::DramSpike, "dram-spike", 8.0, 100.0},
    {FaultScenario::CacheFlush, "cache-flush", 4.0, 1000.0},
    {FaultScenario::MispredictBurst, "mispredict-burst", 0.25, 1.0},
    {FaultScenario::FirstFault, "firstfault", 1.0, 255.0},
};

/** Parse a run of ASCII decimal digits that fits in 64 bits (no sign,
 *  no blanks, no base prefix). */
bool
parseU64(const std::string &s, uint64_t *out)
{
    if (s.empty())
        return false;
    uint64_t n = 0;
    for (const char ch : s) {
        if (ch < '0' || ch > '9')
            return false;
        const uint64_t digit = uint64_t(ch - '0');
        if (n > (UINT64_MAX - digit) / 10)
            return false;
        n = n * 10 + digit;
    }
    *out = n;
    return true;
}

const ScenarioInfo &
infoFor(FaultScenario s)
{
    for (const auto &i : kScenarios)
        if (i.scenario == s)
            return i;
    return kScenarios[0];
}

/** What a count-valued scenario applies for @p s's intensity: a
 *  cache-flush storm fires clamp(floor(x), 1, duration) flushes per
 *  window, at most one per window instruction; firstfault keeps
 *  max(floor(x), 1) elements. */
uint64_t
appliedCount(const FaultSpec &s)
{
    const uint64_t n =
        std::max<uint64_t>(uint64_t(s.effectiveIntensity()), 1);
    if (s.scenario == FaultScenario::CacheFlush)
        return std::min<uint64_t>(n, std::max<uint64_t>(s.duration, 1));
    return n;
}

} // namespace

double
FaultSpec::effectiveIntensity() const
{
    return intensity > 0.0 ? intensity : infoFor(scenario).defaultIntensity;
}

const char *
FaultSpec::name(FaultScenario s)
{
    return infoFor(s).name;
}

bool
FaultSpec::parse(const std::string &text, FaultSpec *out, std::string *err)
{
    const auto fail = [&](const std::string &what) {
        if (err)
            *err = "bad fault scenario \"" + text + "\": " + what + "\n\n" +
                   catalog();
        return false;
    };

    FaultSpec spec;
    // Colon-separated so a spec can sit inside a comma-separated axis
    // list: scenario[:key=value]...
    std::vector<std::string> parts;
    size_t from = 0;
    while (true) {
        const size_t colon = text.find(':', from);
        parts.push_back(text.substr(from, colon - from));
        if (colon == std::string::npos)
            break;
        from = colon + 1;
    }

    const std::string &sname = parts[0];
    bool known = false;
    for (const auto &i : kScenarios) {
        if (sname == i.name || (sname.empty() && i.scenario ==
                                                     FaultScenario::None)) {
            spec.scenario = i.scenario;
            known = true;
            break;
        }
    }
    if (!known)
        return fail("unknown scenario \"" + sname + "\"");

    for (size_t i = 1; i < parts.size(); ++i) {
        const std::string &kv = parts[i];
        const size_t eq = kv.find('=');
        if (eq == std::string::npos)
            return fail("expected key=value, got \"" + kv + "\"");
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        if (key == "seed" || key == "period" || key == "duration") {
            uint64_t v = 0;
            if (!parseU64(val, &v))
                return fail("bad integer for " + key + ": \"" + val +
                            "\" (decimal digits, at most 2^64-1)");
            if (key == "seed")
                spec.seed = v;
            else if (key == "period")
                spec.period = v;
            else
                spec.duration = v;
        } else if (key == "intensity") {
            char *endp = nullptr;
            const double v = std::strtod(val.c_str(), &endp);
            if (endp == val.c_str() || *endp != '\0' || !std::isfinite(v) ||
                v < 0.0)
                return fail("bad intensity: \"" + val + "\"");
            spec.intensity = v;
        } else {
            return fail("unknown parameter \"" + key + "\"");
        }
    }

    if (spec.enabled()) {
        const double cap = infoFor(spec.scenario).maxIntensity;
        if (spec.intensity > cap) {
            char buf[96];
            std::snprintf(buf, sizeof buf, "%s intensity must be <= %g",
                          name(spec.scenario), cap);
            return fail(buf);
        }
        if (spec.period == 0)
            return fail("period must be >= 1");
        if (spec.duration == 0)
            return fail("duration must be >= 1");
        // A window must fit its slot (windows never overlap).
        spec.duration = std::min(spec.duration, spec.period);
        // Keep the count that applies, so specs that replay alike
        // share one label and one cache identity.
        if (spec.scenario == FaultScenario::CacheFlush ||
            spec.scenario == FaultScenario::FirstFault)
            spec.intensity = double(appliedCount(spec));
    }
    if (out)
        *out = spec;
    return true;
}

std::string
FaultSpec::describe() const
{
    if (!enabled())
        return "none";
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s:seed=%llu:period=%llu:duration=%llu:intensity=%g",
                  name(scenario), (unsigned long long)seed,
                  (unsigned long long)period, (unsigned long long)duration,
                  effectiveIntensity());
    return buf;
}

uint64_t
FaultSpec::fingerprint() const
{
    if (!enabled())
        return 0;
    // FNV-1a over the normalized fields (effective intensity, so an
    // explicit default and an elided one share an identity).
    uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(uint64_t(scenario));
    mix(seed);
    mix(period);
    mix(duration);
    const double ei = effectiveIntensity();
    uint64_t bits;
    std::memcpy(&bits, &ei, sizeof bits);
    mix(bits);
    return h ? h : 1;
}

std::string
FaultSpec::catalog()
{
    return "fault scenario catalog (values for the --faults axis, "
           "comma-separated):\n"
           "  none              clean run (an explicit clean point in a "
           "fault sweep)\n"
           "  dram-spike        DRAM idle latency x intensity while a "
           "window is open\n"
           "                    (default intensity 8, at most 100)\n"
           "  cache-flush       flush L1/L2/LLC <intensity> times per "
           "window (default 4,\n"
           "                    at most 1000; fractions round down, "
           "at least 1, at most\n"
           "                    one per window instruction: "
           "min(intensity, duration))\n"
           "  mispredict-burst  branch mispredict rate = intensity while "
           "open (default 0.25,\n"
           "                    at most 1)\n"
           "  firstfault        gather/scatter/strided ops truncated to "
           "<intensity>\n"
           "                    element(s) while open (default 1, at "
           "most 255; fractions\n"
           "                    round down, at least 1)\n"
           "cache-flush and firstfault keep the count that applies, so "
           "intensity=2.5 and\n"
           "intensity=2 name (and cache as) one scenario.\n"
           "\n"
           "parameters, colon-separated after the scenario name:\n"
           "  seed=N       window jitter seed            (default 1)\n"
           "  period=N     instructions per window slot  (default 50000)\n"
           "  duration=N   window length in instructions (default 5000)\n"
           "  intensity=X  scenario strength, see above: finite, "
           ">= 0 (0 = the default)\n"
           "N is 0 to 2^64-1 in decimal digits (no sign); period and "
           "duration are >= 1.\n"
           "\n"
           "Window k opens at k*period + splitmix64(seed^k) % (period - "
           "duration + 1)\n"
           "instructions (counted across all replay passes) and closes "
           "duration later.\n"
           "Same spec => byte-identical results for any --jobs value.\n"
           "\n"
           "example: swan sweep --kernels saxpy --faults "
           "none,dram-spike:seed=7:intensity=16\n";
}

FaultObserver::FaultObserver(const FaultSpec &spec) : spec_(spec)
{
    // A storm fires at most one flush per window instruction, so its
    // last flush lands inside the window and the window closes on time.
    if (spec_.scenario == FaultScenario::CacheFlush)
        flashes_ = uint32_t(appliedCount(spec_));
}

uint64_t
FaultObserver::windowStart(uint64_t k) const
{
    const uint64_t range = spec_.period - spec_.duration + 1;
    return k * spec_.period + splitmix64(spec_.seed ^ k) % range;
}

uint64_t
FaultObserver::nextEventPos() const
{
    if (!spec_.enabled())
        return kNoBoundary;
    const uint64_t open = windowStart(window_);
    if (!open_)
        return open;
    if (spec_.scenario == FaultScenario::CacheFlush &&
        flashIdx_ < flashes_) {
        const uint64_t stride =
            std::max<uint64_t>(spec_.duration / flashes_, 1);
        return open + flashIdx_ * stride;
    }
    return open + spec_.duration;
}

void
FaultObserver::applyWindow(std::span<CoreModel *const> models)
{
    switch (spec_.scenario) {
    case FaultScenario::DramSpike:
        for (size_t i = 0; i < models.size(); ++i) {
            const uint64_t spiked = std::max<uint64_t>(
                1, uint64_t(double(baseDramLatency_[i]) *
                            spec_.effectiveIntensity()));
            setDramLatency(*models[i], spiked);
        }
        break;
    case FaultScenario::CacheFlush:
        for (CoreModel *m : models)
            flushCaches(*m);
        flashIdx_ = 1;
        break;
    case FaultScenario::MispredictBurst:
        for (CoreModel *m : models)
            setBranchMispredictRate(*m, spec_.effectiveIntensity());
        break;
    case FaultScenario::FirstFault:
        clamp_ = uint32_t(appliedCount(spec_));
        break;
    case FaultScenario::None:
        break;
    }
}

void
FaultObserver::revertWindow(std::span<CoreModel *const> models)
{
    switch (spec_.scenario) {
    case FaultScenario::DramSpike:
        for (size_t i = 0; i < models.size(); ++i)
            setDramLatency(*models[i], baseDramLatency_[i]);
        break;
    case FaultScenario::MispredictBurst:
        for (size_t i = 0; i < models.size(); ++i)
            setBranchMispredictRate(*models[i], baseMispredictRate_[i]);
        break;
    case FaultScenario::FirstFault:
        clamp_ = 0;
        break;
    case FaultScenario::CacheFlush:
    case FaultScenario::None:
        break;
    }
}

void
FaultObserver::runEventsThrough(uint64_t g,
                                std::span<CoreModel *const> models)
{
    while (true) {
        const uint64_t p = nextEventPos();
        if (p == kNoBoundary || p > g)
            break;
        if (!open_) {
            open_ = true;
            flashIdx_ = 0;
            applyWindow(models);
        } else if (spec_.scenario == FaultScenario::CacheFlush &&
                   flashIdx_ < flashes_) {
            for (CoreModel *m : models)
                flushCaches(*m);
            ++flashIdx_;
        } else {
            revertWindow(models);
            open_ = false;
            ++window_;
        }
    }
}

void
FaultObserver::begin(std::span<CoreModel *const> models)
{
    if (!saved_) {
        saved_ = true;
        baseDramLatency_.reserve(models.size());
        baseMispredictRate_.reserve(models.size());
        for (const CoreModel *m : models) {
            baseDramLatency_.push_back(dramLatency(*m));
            baseMispredictRate_.push_back(branchMispredictRate(*m));
        }
    }
    // A window opening exactly at this pass's first instruction must
    // be applied before that instruction is stepped.
    runEventsThrough(base_, models);
}

uint64_t
FaultObserver::nextBoundary(uint64_t pos)
{
    const uint64_t p = nextEventPos();
    if (p == kNoBoundary)
        return kNoBoundary;
    const uint64_t g = base_ + pos;
    return p > g ? p - base_ : pos + 1;
}

void
FaultObserver::atBoundary(uint64_t pos, std::span<CoreModel *const> models)
{
    runEventsThrough(base_ + pos, models);
}

void
FaultObserver::end(uint64_t total, std::span<CoreModel *const>)
{
    base_ += total;
}

uint32_t
FaultObserver::elemClamp() const
{
    return clamp_;
}

std::vector<SimResult>
simulateTraceMany(const trace::PackedTrace &trace,
                  const std::vector<CoreConfig> &cfgs,
                  const FaultSpec &fault, int warmup_passes)
{
    if (!fault.enabled())
        return simulateTraceMany(trace, cfgs, warmup_passes);
    FaultObserver payload(fault);
    return simulateTraceMany(trace, cfgs, warmup_passes, &payload);
}

} // namespace swan::sim
