#include "sweep/cache.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "obs/telemetry.hh"

namespace swan::sweep
{

namespace
{

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

struct Fnv
{
    uint64_t h = kFnvOffset;

    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= kFnvPrime;
        }
    }
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void i32(int32_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void b(bool v) { u64(v ? 1 : 0); }
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
};

void
hashCache(Fnv &f, const sim::CacheConfig &c)
{
    f.i32(c.sizeBytes);
    f.i32(c.ways);
    f.i32(c.lineBytes);
    f.i32(c.latency);
    f.b(c.nextLinePrefetch);
}

/** On-disk result entry header: kMagicStem + format version. v3 holds
 *  results simulated from canonical-address traces (trace/canon.hh) on
 *  the exact, dispatch-anchored issue window (sim/core_model.hh); a
 *  point whose reservations wrapped the earlier fixed issue ring
 *  simulates differently. Entries of any other version are plain
 *  misses. */
constexpr std::string_view kMagicStem = "swan-sweep-result v";
constexpr const char *kMagic = "swan-sweep-result v3";

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Doubles round-trip bit-exactly as hexfloat. */
std::string
f64str(double v)
{
    std::ostringstream os;
    os << std::hexfloat << v;
    return os.str();
}

/**
 * Parse the 16 lowercase hex digits at @p s (hex64's format): a cache
 * entry's file stem, the join between on-disk entries and the
 * last-use stamps, or a `.swr` checksum. False on any other character.
 */
bool
parseHex16(const char *s, uint64_t *out)
{
    uint64_t h = 0;
    for (int i = 0; i < 16; ++i) {
        const char c = s[i];
        uint64_t d = 0;
        if (c >= '0' && c <= '9')
            d = uint64_t(c - '0');
        else if (c >= 'a' && c <= 'f')
            d = uint64_t(c - 'a') + 10;
        else
            return false;
        h = (h << 4) | d;
    }
    *out = h;
    return true;
}

/**
 * Read the whole entry file @p path in one sized read (a trace blob can
 * be tens of MB, so no stream copies). False when it is absent — the
 * ordinary cold-cache case — or unreadable: nothing can be judged about
 * its bytes, so the caller misses.
 */
bool
readEntry(const std::filesystem::path &path, std::string *buf)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec)
        return false;
    buf->assign(size, '\0');
    std::ifstream in(path, std::ios::binary);
    return in && in.read(buf->data(), std::streamsize(size));
}

} // namespace

uint64_t
fingerprint(const sim::CoreConfig &cfg)
{
    Fnv f;
    f.str(cfg.name);
    f.f64(cfg.freqGHz);
    f.b(cfg.outOfOrder);
    f.i32(cfg.robSize);
    f.i32(cfg.decodeWidth);
    f.i32(cfg.issueWidth);
    f.i32(cfg.commitWidth);
    f.i32(cfg.vecBits);
    for (int n : cfg.fuCount)
        f.i32(n);
    f.i32(cfg.mshrs);
    hashCache(f, cfg.l1d);
    hashCache(f, cfg.l2);
    hashCache(f, cfg.llc);
    f.f64(cfg.dramLatencyNs);
    f.f64(cfg.dramGBs);
    f.f64(cfg.l2ServiceCycles);
    f.f64(cfg.llcServiceCycles);
    f.f64(cfg.branchMispredictRate);
    f.i32(cfg.branchPenalty);
    f.i32(cfg.lsuCrackPerCycle);
    return f.h;
}

uint64_t
fingerprint(const core::Options &opts)
{
    Fnv f;
    f.i32(opts.imageWidth);
    f.i32(opts.imageHeight);
    f.i32(opts.audioSamples);
    f.i32(opts.audioFrame);
    f.i32(opts.bufferBytes);
    f.i32(opts.gemmM);
    f.i32(opts.gemmN);
    f.i32(opts.gemmK);
    f.f64(opts.spmmSparsity);
    f.i32(opts.videoBlocks);
    f.u64(opts.seed);
    return f.h;
}

uint64_t
CacheKey::hash() const
{
    Fnv f;
    f.str(kernel);
    f.i32(int(impl));
    f.i32(vecBits);
    f.u64(configFp);
    f.u64(optionsFp);
    f.i32(warmupPasses);
    // Clean points (faultFp == 0) hash exactly as they did before the
    // fault axis existed, so pre-fault disk tiers keep their hits;
    // faulted points get a disjoint hash (and file stem).
    if (faultFp)
        f.u64(faultFp);
    return f.h;
}

std::string
CacheKey::hex() const
{
    return hex64(hash());
}

CacheKey
keyFor(const SweepPoint &point, int warmup_passes)
{
    CacheKey k;
    k.kernel = point.spec->info.qualifiedName();
    k.impl = point.impl;
    k.vecBits = point.vecBits;
    k.configFp = fingerprint(point.config);
    k.optionsFp = fingerprint(point.options);
    k.warmupPasses = warmup_passes;
    // XOR-fold the 64-bit fingerprint; pin nonzero so an enabled
    // scenario can never alias the clean key even if the fold lands
    // on zero.
    const uint64_t fp = point.fault().fingerprint();
    k.faultFp = uint32_t(fp) ^ uint32_t(fp >> 32);
    if (fp != 0 && k.faultFp == 0)
        k.faultFp = 1;
    return k;
}

uint64_t
TraceKey::hash() const
{
    Fnv f;
    f.str("trace"); // never collides with a CacheKey file stem
    f.str(kernel);
    f.i32(int(impl));
    f.i32(vecBits);
    f.u64(optionsFp);
    return f.h;
}

std::string
TraceKey::hex() const
{
    return hex64(hash());
}

TraceKey
traceKeyFor(const SweepPoint &point)
{
    // No fault field: faults perturb replay, never capture, so faulted
    // and clean points share one captured trace.
    TraceKey k;
    k.kernel = point.spec->info.qualifiedName();
    k.impl = point.impl;
    k.vecBits = point.vecBits;
    k.optionsFp = fingerprint(point.options);
    return k;
}

ResultCache::ResultCache(std::string disk_dir, uint64_t max_disk_bytes)
    : diskDir_(std::move(disk_dir)), maxDiskBytes_(max_disk_bytes)
{
    if (!diskDir_.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(diskDir_, ec);
        if (ec)
            diskDir_.clear(); // unusable directory: memory-only
    }
}

std::string
ResultCache::envDiskDir()
{
    const char *v = std::getenv("SWAN_SWEEP_CACHE_DIR");
    return v ? std::string(v) : std::string();
}

bool
parseByteCount(const char *s, uint64_t *out)
{
    if (!s || !*s)
        return false;
    uint64_t n = 0;
    for (; *s; ++s) {
        if (*s < '0' || *s > '9')
            return false;
        const uint64_t digit = uint64_t(*s - '0');
        if (n > (UINT64_MAX - digit) / 10)
            return false;
        n = n * 10 + digit;
    }
    *out = n;
    return true;
}

uint64_t
ResultCache::envMaxDiskBytes()
{
    uint64_t n = 0;
    parseByteCount(std::getenv("SWAN_SWEEP_CACHE_MAX_BYTES"), &n);
    return n;
}

bool
ResultCache::lookup(const CacheKey &key, core::KernelRun *out)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        touchLocked(key.hash());
        auto it = map_.find(key);
        if (it != map_.end()) {
            *out = it->second;
            ++stats_.hits;
            return true;
        }
    }
    const DiskLoad got =
        diskDir_.empty() ? DiskLoad::Miss : loadDisk(key, out);
    std::lock_guard<std::mutex> lock(mu_);
    if (got == DiskLoad::Hit) {
        map_.emplace(key, *out);
        ++stats_.diskHits;
        return true;
    }
    if (got == DiskLoad::Corrupt)
        quarantineEntry(key.hex() + ".swr");
    ++stats_.misses;
    return false;
}

void
ResultCache::store(const CacheKey &key, const core::KernelRun &run)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        touchLocked(key.hash());
        map_.insert_or_assign(key, run);
        ++stats_.stores;
    }
    if (!diskDir_.empty())
        pruneDisk(storeDisk(key, run));
}

void
ResultCache::quarantineEntry(const std::string &name)
{
    // Rename, never delete: the damaged bytes stay on disk for
    // post-mortem, out of the lookup namespace. The rename is the
    // cross-process race arbiter — every process that trips over the
    // same bad entry tries it, exactly one succeeds and counts it.
    const auto path = std::filesystem::path(diskDir_) / name;
    std::error_code ec;
    std::filesystem::rename(path, path.string() + ".quarantined", ec);
    if (!ec)
        ++stats_.corruptEntriesQuarantined;
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

namespace
{

/** On-disk packed-trace entry: magic, version, whole-blob FNV-1a
 *  checksum, key echo, mix counters, payload. The blob checksum covers
 *  everything after itself — the payload carries its own internal
 *  checksum, but the key echo and mix counters would otherwise be
 *  trusted unverified, and a flipped counter byte must quarantine the
 *  entry, not silently skew a warm run's instruction mix. v4 traces
 *  record canonical addresses (trace/canon.hh) with every workload
 *  table in a registered region (BS/sha256 and BS/aes_encrypt loaded
 *  static tables through the page map up to v3); entries of any other
 *  version are plain misses. */
constexpr char kTraceMagic[4] = {'S', 'W', 'T', 'P'};
constexpr uint32_t kTraceTierVersion = 4;

template <typename T>
void
appendRaw(std::string *out, T v)
{
    out->append(reinterpret_cast<const char *>(&v), sizeof v);
}

template <typename T>
bool
readRaw(const std::string &buf, size_t *at, T *v)
{
    if (buf.size() - *at < sizeof(T))
        return false;
    std::memcpy(v, buf.data() + *at, sizeof(T));
    *at += sizeof(T);
    return true;
}

/** Serialize one packed-trace entry into `<dir>/<stem>.swtp`
 *  (write-then-rename). @return bytes written, 0 on failure. */
uint64_t
writeTraceBlob(const std::string &dir_s, const TraceKey &key,
               const trace::PackedTrace &t, const trace::MixStats &mix)
{
    // Everything after the checksum field except the payload body,
    // which is hashed and written in place rather than copied.
    const auto counters = mix.counters();
    std::string head;
    appendRaw(&head, uint32_t(key.kernel.size()));
    head.append(key.kernel);
    appendRaw(&head, int32_t(key.impl));
    appendRaw(&head, int32_t(key.vecBits));
    appendRaw(&head, key.optionsFp);
    appendRaw(&head, uint32_t(counters.size()));
    for (uint64_t v : counters)
        appendRaw(&head, v);
    t.appendPayloadHeader(&head);
    Fnv blobSum;
    blobSum.bytes(head.data(), head.size());
    blobSum.bytes(t.payloadBody(), t.byteSize());
    std::string prefix(kTraceMagic, 4);
    appendRaw(&prefix, kTraceTierVersion);
    appendRaw(&prefix, blobSum.h);

    const auto dir = std::filesystem::path(dir_s);
    const auto path = dir / (key.hex() + ".swtp");
    // Write-then-rename so concurrent readers never see a torn entry.
    const auto tmp = dir / (key.hex() + ".swtp.tmp");
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return 0;
        os.write(prefix.data(), std::streamsize(prefix.size()));
        os.write(head.data(), std::streamsize(head.size()));
        os.write(reinterpret_cast<const char *>(t.payloadBody()),
                 std::streamsize(t.byteSize()));
        if (!os)
            return 0;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return 0;
    }
    return prefix.size() + head.size() + t.byteSize();
}

} // namespace

bool
ResultCache::lookupTrace(const TraceKey &key, trace::PackedTrace *out,
                         trace::MixStats *mix)
{
    const DiskLoad got =
        diskDir_.empty() ? DiskLoad::Miss : loadTraceDisk(key, out, mix);
    std::lock_guard<std::mutex> lock(mu_);
    touchLocked(key.hash());
    if (got == DiskLoad::Hit) {
        ++stats_.traceHits;
        return true;
    }
    if (got == DiskLoad::Corrupt)
        quarantineEntry(key.hex() + ".swtp");
    ++stats_.traceMisses;
    return false;
}

ResultCache::DiskLoad
ResultCache::loadTraceDisk(const TraceKey &key, trace::PackedTrace *out,
                           trace::MixStats *mix)
{
    std::string buf;
    if (!readEntry(std::filesystem::path(diskDir_) / (key.hex() + ".swtp"),
                   &buf))
        return DiskLoad::Miss;

    size_t at = 0;
    char magic[4];
    uint32_t version = 0;
    if (!readRaw(buf, &at, &magic) ||
        std::memcmp(magic, kTraceMagic, 4) != 0 ||
        !readRaw(buf, &at, &version))
        return DiskLoad::Corrupt;
    // Another format version (older or newer build) is a foreign entry,
    // not damage: miss, and let the next store overwrite it.
    if (version != kTraceTierVersion)
        return DiskLoad::Miss;
    // Whole-blob checksum: any damaged byte after this field — key
    // echo, counters or payload — reads as corruption, never as data.
    uint64_t want = 0;
    if (!readRaw(buf, &at, &want))
        return DiskLoad::Corrupt;
    Fnv blobSum;
    blobSum.bytes(buf.data() + at, buf.size() - at);
    if (blobSum.h != want)
        return DiskLoad::Corrupt;
    // Key echo: a hash collision or stale rename must read as a miss.
    uint32_t kernelLen = 0;
    if (!readRaw(buf, &at, &kernelLen) || buf.size() - at < kernelLen)
        return DiskLoad::Corrupt;
    TraceKey seen;
    seen.kernel.assign(buf.data() + at, kernelLen);
    at += kernelLen;
    int32_t impl = -1;
    if (!readRaw(buf, &at, &impl) || !readRaw(buf, &at, &seen.vecBits) ||
        !readRaw(buf, &at, &seen.optionsFp))
        return DiskLoad::Corrupt;
    seen.impl = core::Impl(impl);
    if (!(seen == key))
        return DiskLoad::Miss;
    // Mix counter snapshot, so a warm hit skips a full trace decode.
    uint32_t mixLen = 0;
    if (!readRaw(buf, &at, &mixLen) ||
        (buf.size() - at) / sizeof(uint64_t) < mixLen)
        return DiskLoad::Corrupt;
    std::vector<uint64_t> counters(mixLen);
    for (auto &v : counters)
        if (!readRaw(buf, &at, &v))
            return DiskLoad::Corrupt;
    trace::MixStats seenMix;
    if (!trace::MixStats::fromCounters(counters, &seenMix))
        return DiskLoad::Corrupt;
    if (!trace::PackedTrace::parsePayload(
            reinterpret_cast<const uint8_t *>(buf.data()) + at,
            buf.size() - at, out))
        return DiskLoad::Corrupt;
    *mix = seenMix;
    return DiskLoad::Hit;
}

void
ResultCache::storeTrace(const TraceKey &key, const trace::PackedTrace &t,
                        const trace::MixStats &mix)
{
    if (diskDir_.empty())
        return;
    const uint64_t wrote = writeTraceBlob(diskDir_, key, t, mix);
    {
        std::lock_guard<std::mutex> lock(mu_);
        touchLocked(key.hash());
        if (wrote)
            ++stats_.traceStores;
    }
    if (wrote)
        pruneDisk(wrote);
}

namespace
{

/** One file of the cap's accounting. */
struct DirEntry
{
    uint64_t lastUse = 0; //!< logical-clock stamp; 0 = never touched
    uint64_t size = 0;
    std::string name;
};

/** The files in @p dir the cap accounts for: .swr results, .swtp
 *  packed traces, and .quarantined corpses (never served, but they
 *  hold disk and age out under the same cap). Temporaries (.tmp) and
 *  foreign files are ignored. */
std::vector<DirEntry>
scanEntries(const std::string &dir)
{
    std::vector<DirEntry> entries;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        const auto &p = it->path();
        const auto ext = p.extension();
        if (ext != ".swr" && ext != ".swtp" && ext != ".quarantined")
            continue;
        std::error_code fec;
        DirEntry e;
        e.size = std::filesystem::file_size(p, fec);
        if (fec)
            continue;
        e.name = p.filename().string();
        entries.push_back(std::move(e));
    }
    return entries;
}

} // namespace

uint64_t
ResultCache::diskBytes() const
{
    uint64_t total = 0;
    if (!diskDir_.empty())
        for (const DirEntry &e : scanEntries(diskDir_))
            total += e.size;
    return total;
}

void
ResultCache::pruneDisk(uint64_t stored_bytes)
{
    if (diskDir_.empty() || maxDiskBytes_ == 0)
        return;

    // Fast path: bump the running total and skip the directory walk
    // while it stays under the cap. Entries written by other processes
    // are only picked up at the next full scan, so a shared capped
    // directory can transiently overshoot by what the neighbors wrote
    // since this process last scanned.
    uint64_t baseline = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (diskTotalKnown_) {
            diskTotal_ += stored_bytes;
            if (diskTotal_ <= maxDiskBytes_)
                return;
        }
        baseline = diskTotal_;
    }

    std::vector<DirEntry> entries = scanEntries(diskDir_);
    uint64_t total = 0;
    {
        // Join each entry to its last-use stamp via the file-name stem.
        // Entries this cache never touched (other processes' writes,
        // foreign names) keep 0 and go first, in name order.
        std::lock_guard<std::mutex> lock(mu_);
        for (DirEntry &e : entries) {
            total += e.size;
            uint64_t stem = 0;
            if (e.name.size() >= 16 && parseHex16(e.name.data(), &stem)) {
                const auto it = lastUse_.find(stem);
                if (it != lastUse_.end())
                    e.lastUse = it->second;
            }
        }
    }
    // Resync the estimate. Stores racing with the scan bumped
    // diskTotal_ past `baseline`; re-apply that delta on top of the
    // scanned total (their files may also have been seen by the scan,
    // so this can double-count — a deliberate over-estimate: the worst
    // case is one extra scan, never a missed cap violation).
    const auto resync = [&](uint64_t scanned) {
        std::lock_guard<std::mutex> lock(mu_);
        diskTotal_ = scanned + (diskTotal_ - baseline);
        diskTotalKnown_ = true;
    };
    if (total <= maxDiskBytes_) {
        resync(total);
        return;
    }

    // Least recently used first: (last use, name). A pure function of
    // this cache's operations — never file mtimes, whose coarse,
    // filesystem-dependent clocks would make two runs of the same
    // command prune different entries (and whose reads the nondet lint
    // rejects in this file).
    std::sort(entries.begin(), entries.end(),
              [](const DirEntry &a, const DirEntry &b) {
                  if (a.lastUse != b.lastUse)
                      return a.lastUse < b.lastUse;
                  return a.name < b.name;
              });

    const auto dir = std::filesystem::path(diskDir_);
    uint64_t evicted = 0;
    obs::Span span(obs::Phase::Evict);
    for (const auto &e : entries) {
        if (total <= maxDiskBytes_)
            break;
        std::error_code rec;
        // A concurrent process may have removed it already; only count
        // (and discount) files this call actually deleted.
        if (std::filesystem::remove(dir / e.name, rec) && !rec) {
            total -= e.size;
            ++evicted;
            span.addArg(e.size);
        }
    }
    span.close();
    resync(total);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.evictions += evicted;
}

ResultCache::DiskLoad
ResultCache::loadDisk(const CacheKey &key, core::KernelRun *out)
{
    std::string buf;
    if (!readEntry(std::filesystem::path(diskDir_) / (key.hex() + ".swr"),
                   &buf))
        return DiskLoad::Miss;

    size_t bodyStart = buf.find('\n');
    if (bodyStart == std::string::npos)
        return DiskLoad::Corrupt;
    if (buf.compare(0, bodyStart, kMagic) != 0) {
        // A well-formed header of another format version (older or
        // newer build) is a foreign entry, not damage: miss, and let
        // the next store overwrite it.
        const std::string_view head(buf.data(), bodyStart);
        const bool otherVersion =
            head.size() > kMagicStem.size() &&
            head.substr(0, kMagicStem.size()) == kMagicStem &&
            head.find_first_not_of("0123456789", kMagicStem.size()) ==
                std::string_view::npos;
        return otherVersion ? DiskLoad::Miss : DiskLoad::Corrupt;
    }
    ++bodyStart;
    // Self-checksum line, `checksum <16 hex digits>`: FNV-1a over every
    // byte after this line, so any flipped bit or truncation in the
    // body is detected before a field of it is trusted. Every v3 writer
    // writes it, so a missing or malformed line is damage too.
    constexpr std::string_view kChecksumTag = "checksum ";
    const size_t sumAt = bodyStart + kChecksumTag.size();
    const size_t eol = buf.find('\n', bodyStart);
    uint64_t want = 0;
    if (eol == std::string::npos || eol != sumAt + 16 ||
        buf.compare(bodyStart, kChecksumTag.size(), kChecksumTag) != 0 ||
        !parseHex16(buf.data() + sumAt, &want))
        return DiskLoad::Corrupt;
    bodyStart = eol + 1;
    Fnv f;
    f.bytes(buf.data() + bodyStart, buf.size() - bodyStart);
    if (f.h != want)
        return DiskLoad::Corrupt;

    std::istringstream in(buf.substr(bodyStart));
    std::string line;
    core::KernelRun run;
    CacheKey seen;
    std::vector<uint64_t> mixFlat;
    bool haveMix = false;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag;
        if (!(ls >> tag))
            continue;
        auto &s = run.sim;
        const auto rd = [&ls](auto &field) { ls >> field; };
        // istream extraction does not accept hexfloat; go via strtod.
        const auto rdf = [&ls](double &field) {
            std::string tok;
            if (ls >> tok)
                field = std::strtod(tok.c_str(), nullptr);
        };
        if (tag == "kernel")
            rd(seen.kernel);
        else if (tag == "impl") {
            int v = -1;
            ls >> v;
            seen.impl = core::Impl(v);
        } else if (tag == "vec_bits")
            rd(seen.vecBits);
        else if (tag == "config_fp")
            ls >> std::hex >> seen.configFp >> std::dec;
        else if (tag == "options_fp")
            ls >> std::hex >> seen.optionsFp >> std::dec;
        else if (tag == "warmup")
            rd(seen.warmupPasses);
        else if (tag == "fault_fp")
            ls >> std::hex >> seen.faultFp >> std::dec;
        else if (tag == "sim.config")
            rd(s.config);
        else if (tag == "sim.instrs")
            rd(s.instrs);
        else if (tag == "sim.cycles")
            rd(s.cycles);
        else if (tag == "sim.ipc")
            rdf(s.ipc);
        else if (tag == "sim.time_sec")
            rdf(s.timeSec);
        else if (tag == "sim.l1_mpki")
            rdf(s.l1Mpki);
        else if (tag == "sim.l2_mpki")
            rdf(s.l2Mpki);
        else if (tag == "sim.llc_mpki")
            rdf(s.llcMpki);
        else if (tag == "sim.l1_hit_rate")
            rdf(s.l1HitRate);
        else if (tag == "sim.fe_stall_pct")
            rdf(s.feStallPct);
        else if (tag == "sim.be_stall_pct")
            rdf(s.beStallPct);
        else if (tag == "sim.dram_reads")
            rd(s.dramReads);
        else if (tag == "sim.dram_writes")
            rd(s.dramWrites);
        else if (tag == "sim.dram_per_kcycle")
            rdf(s.dramAccessPerKCycle);
        else if (tag == "sim.by_class") {
            for (auto &v : s.byClass)
                ls >> v;
        } else if (tag == "sim.vec_bytes")
            rd(s.vecBytes);
        else if (tag == "sim.l1_accesses")
            rd(s.l1Accesses);
        else if (tag == "sim.l2_accesses")
            rd(s.l2Accesses);
        else if (tag == "sim.llc_accesses")
            rd(s.llcAccesses);
        else if (tag == "sim.energy_j")
            rdf(s.energyJ);
        else if (tag == "sim.power_w")
            rdf(s.powerW);
        else if (tag == "mix") {
            uint64_t v;
            while (ls >> v)
                mixFlat.push_back(v);
            haveMix = true;
        }
    }
    // Structural damage first, then the key echo: a hash collision or
    // stale rename is a foreign-but-intact entry — a plain miss.
    if (!haveMix || !trace::MixStats::fromCounters(mixFlat, &run.mix))
        return DiskLoad::Corrupt;
    if (!(seen == key))
        return DiskLoad::Miss;
    *out = run;
    return DiskLoad::Hit;
}

uint64_t
ResultCache::storeDisk(const CacheKey &key, const core::KernelRun &run)
{
    const auto dir = std::filesystem::path(diskDir_);
    const auto path = dir / (key.hex() + ".swr");
    // Write-then-rename so concurrent readers never see a torn entry.
    const auto tmp = dir / (key.hex() + ".tmp");
    // The body is built in memory first so the header can carry its
    // FNV-1a self-checksum (what loadDisk verifies before trusting a
    // single field).
    std::ostringstream os;
    {
        const auto &s = run.sim;
        os << "kernel " << key.kernel << "\n"
           << "impl " << int(key.impl) << "\n"
           << "vec_bits " << key.vecBits << "\n"
           << "config_fp " << hex64(key.configFp) << "\n"
           << "options_fp " << hex64(key.optionsFp) << "\n"
           << "warmup " << key.warmupPasses << "\n";
        // Written only for faulted keys: clean .swr bodies stay
        // byte-identical to pre-fault builds (the reader treats a
        // missing tag as faultFp 0).
        if (key.faultFp)
            os << "fault_fp " << hex64(uint64_t(key.faultFp)) << "\n";
        os << "sim.config " << s.config << "\n"
           << "sim.instrs " << s.instrs << "\n"
           << "sim.cycles " << s.cycles << "\n"
           << "sim.ipc " << f64str(s.ipc) << "\n"
           << "sim.time_sec " << f64str(s.timeSec) << "\n"
           << "sim.l1_mpki " << f64str(s.l1Mpki) << "\n"
           << "sim.l2_mpki " << f64str(s.l2Mpki) << "\n"
           << "sim.llc_mpki " << f64str(s.llcMpki) << "\n"
           << "sim.l1_hit_rate " << f64str(s.l1HitRate) << "\n"
           << "sim.fe_stall_pct " << f64str(s.feStallPct) << "\n"
           << "sim.be_stall_pct " << f64str(s.beStallPct) << "\n"
           << "sim.dram_reads " << s.dramReads << "\n"
           << "sim.dram_writes " << s.dramWrites << "\n"
           << "sim.dram_per_kcycle " << f64str(s.dramAccessPerKCycle)
           << "\n";
        os << "sim.by_class";
        for (auto v : s.byClass)
            os << " " << v;
        os << "\n"
           << "sim.vec_bytes " << s.vecBytes << "\n"
           << "sim.l1_accesses " << s.l1Accesses << "\n"
           << "sim.l2_accesses " << s.l2Accesses << "\n"
           << "sim.llc_accesses " << s.llcAccesses << "\n"
           << "sim.energy_j " << f64str(s.energyJ) << "\n"
           << "sim.power_w " << f64str(s.powerW) << "\n";
        os << "mix";
        for (auto v : run.mix.counters())
            os << " " << v;
        os << "\n";
    }
    const std::string body = os.str();
    Fnv sum;
    sum.bytes(body.data(), body.size());
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f)
            return 0;
        f << kMagic << "\n"
          << "checksum " << hex64(sum.h) << "\n";
        f.write(body.data(), std::streamsize(body.size()));
        if (!f)
            return 0;
    }
    std::error_code ec;
    const auto size = std::filesystem::file_size(tmp, ec);
    const uint64_t written = ec ? 0 : uint64_t(size);
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return 0;
    }
    return written;
}

} // namespace swan::sweep
