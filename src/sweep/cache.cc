#include "sweep/cache.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <concepts>
#include <fstream>
#include <string_view>
#include <type_traits>
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

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Parse the 16 lowercase hex digits at @p s (hex64's format): a cache
 * entry's file stem, the join between on-disk entries and the
 * last-use stamps. False on any other character.
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
    const uint64_t fp = point.fault.fingerprint();
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

namespace
{

/*
 * The one entry frame, shared by `.swr` results and `.swtp` traces:
 *
 *     tag[4] | version u32 | head length u64 | FNV-1a(head) u64 | head | tail
 *
 * The head is the key echo (every key field) and then the record. A
 * result's record is its SimResult fields and mix counters; it has no
 * tail. A trace's record is its mix counters and its PackedTrace
 * payload header, and the tail is the payload body: the header's own
 * checksum covers the body (parsePayload verifies it), so each trace
 * byte is hashed once per store and once per load. Fields are native
 * endian, a same-host format like the payload.
 *
 * An absent or unreadable file, another version or a key-echo mismatch
 * is a plain miss. A wrong tag, a short header, a head checksum
 * mismatch or a record that does not fill its head exactly is damage.
 *
 * Bump kEntryVersion when the layout changes or a model change makes a
 * key's result or trace differ. Version 5 is the first frame. Its tags
 * are the bytes both earlier formats began with, so their entries read
 * as another version: a text `.swr` ("swan-sweep-result vN") has the
 * version bytes "-swe", and a `.swtp` v2-v4 its own version number.
 */
constexpr uint32_t kEntryVersion = 5;

/** Frame tag and file extension of each key type's entries. */
struct EntryKind
{
    char tag[4];
    const char *ext;
};

constexpr EntryKind
kindOf(const CacheKey &)
{
    return {{'s', 'w', 'a', 'n'}, ".swr"};
}

constexpr EntryKind
kindOf(const TraceKey &)
{
    return {{'S', 'W', 'T', 'P'}, ".swtp"};
}

template <typename Key>
std::string
entryName(const Key &key)
{
    return key.hex() + kindOf(key).ext;
}

/** Fields of variable length: a u64 element count, then the elements.
 *  Every other field is trivially copyable and stored as its bytes. */
template <typename T>
constexpr bool kCounted = std::is_same_v<T, std::string> ||
                          std::is_same_v<T, std::vector<uint64_t>>;

/** Appends fields to an entry. */
struct Put
{
    std::string *out;

    template <typename T>
    void
    operator()(const T &v)
    {
        if constexpr (kCounted<T>) {
            (*this)(uint64_t(v.size()));
            out->append(reinterpret_cast<const char *>(v.data()),
                        v.size() * sizeof(typename T::value_type));
        } else {
            static_assert(std::is_trivially_copyable_v<T>);
            out->append(reinterpret_cast<const char *>(&v), sizeof v);
        }
    }
};

/** Reads fields back as Put wrote them from [p, end); ok turns false,
 *  and stays false, at the first field that would run past end. */
struct Get
{
    const char *p = nullptr;
    const char *end = nullptr;
    bool ok = true;

    void
    take(void *dst, size_t n)
    {
        if (!ok || size_t(end - p) < n) {
            ok = false;
            return;
        }
        if (n)
            std::memcpy(dst, p, n);
        p += n;
    }

    template <typename T>
    void
    operator()(T &v)
    {
        if constexpr (kCounted<T>) {
            constexpr size_t kElem = sizeof(typename T::value_type);
            uint64_t n = 0;
            (*this)(n);
            if (!ok || n > size_t(end - p) / kElem) {
                ok = false;
                return;
            }
            v.resize(n);
            take(v.data(), n * kElem);
        } else {
            take(&v, sizeof v);
        }
    }
};

/** T is U, const or not: each field list below is walked by Put on
 *  store and by Get on load, so it names every field once. */
template <typename T, typename U>
concept Either = std::same_as<std::remove_const_t<T>, U>;

void
fields(Either<CacheKey> auto &k, auto &f)
{
    f(k.kernel);
    f(k.impl);
    f(k.vecBits);
    f(k.configFp);
    f(k.optionsFp);
    f(k.warmupPasses);
    f(k.faultFp);
}

void
fields(Either<TraceKey> auto &k, auto &f)
{
    f(k.kernel);
    f(k.impl);
    f(k.vecBits);
    f(k.optionsFp);
}

void
fields(Either<sim::SimResult> auto &s, auto &f)
{
    f(s.config);
    f(s.instrs);
    f(s.cycles);
    f(s.ipc);
    f(s.timeSec);
    f(s.l1Mpki);
    f(s.l2Mpki);
    f(s.llcMpki);
    f(s.l1HitRate);
    f(s.feStallPct);
    f(s.beStallPct);
    f(s.dramReads);
    f(s.dramWrites);
    f(s.dramAccessPerKCycle);
    f(s.byClass);
    f(s.vecBytes);
    f(s.l1Accesses);
    f(s.l2Accesses);
    f(s.llcAccesses);
    f(s.energyJ);
    f(s.powerW);
}

/**
 * Write @p key's entry into @p dir: the frame over the key echo and
 * @p record, then @p tail. Write-then-rename, so concurrent readers
 * never see a torn entry. @return bytes written, 0 on failure.
 */
template <typename Key>
uint64_t
writeEntry(const std::string &dir, const Key &key, std::string_view record,
           std::string_view tail = {})
{
    std::string head;
    Put put{&head};
    fields(key, put);
    head.append(record);
    Fnv sum;
    sum.bytes(head.data(), head.size());
    std::string frame;
    Put frameOut{&frame};
    frameOut(kindOf(key).tag);
    frameOut(kEntryVersion);
    frameOut(uint64_t(head.size()));
    frameOut(sum.h);

    const auto path = std::filesystem::path(dir) / entryName(key);
    auto tmp = path;
    tmp += ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return 0;
        os.write(frame.data(), std::streamsize(frame.size()));
        os.write(head.data(), std::streamsize(head.size()));
        if (!tail.empty())
            os.write(tail.data(), std::streamsize(tail.size()));
        if (!os)
            return 0;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return 0;
    }
    return frame.size() + head.size() + tail.size();
}

/** Disk lookup outcome: Corrupt means the entry's bytes are damaged
 *  (not merely foreign), and the caller quarantines it. */
enum class DiskLoad
{
    Miss,
    Hit,
    Corrupt,
};

/**
 * Read @p key's entry from @p dir into @p buf and verify its frame and
 * key echo. On Hit, @p record reads the rest of the head, and the tail
 * runs from record->end to the end of @p buf.
 */
template <typename Key>
DiskLoad
readEntry(const std::string &dir, const Key &key, std::string *buf,
          Get *record)
{
    // One sized read: a trace entry can be tens of MB.
    const auto path = std::filesystem::path(dir) / entryName(key);
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec)
        return DiskLoad::Miss;
    buf->assign(size, '\0');
    std::ifstream in(path, std::ios::binary);
    if (!in || !in.read(buf->data(), std::streamsize(size)))
        return DiskLoad::Miss;

    Get frame{buf->data(), buf->data() + buf->size()};
    char tag[4] = {};
    uint32_t version = 0;
    frame(tag);
    frame(version);
    if (!frame.ok || std::memcmp(tag, kindOf(key).tag, sizeof tag) != 0)
        return DiskLoad::Corrupt;
    if (version != kEntryVersion)
        return DiskLoad::Miss;
    uint64_t headLen = 0, headSum = 0;
    frame(headLen);
    frame(headSum);
    if (!frame.ok || headLen > size_t(frame.end - frame.p))
        return DiskLoad::Corrupt;
    Fnv sum;
    sum.bytes(frame.p, headLen);
    if (sum.h != headSum)
        return DiskLoad::Corrupt;

    *record = Get{frame.p, frame.p + headLen};
    Key seen;
    fields(seen, *record);
    if (!record->ok)
        return DiskLoad::Corrupt;
    // A hash collision or a stale rename: intact, but another key's.
    return seen == key ? DiskLoad::Hit : DiskLoad::Miss;
}

DiskLoad
loadResult(const std::string &dir, const CacheKey &key,
           core::KernelRun *out)
{
    std::string buf;
    Get get;
    const DiskLoad verdict = readEntry(dir, key, &buf, &get);
    if (verdict != DiskLoad::Hit)
        return verdict;
    core::KernelRun run;
    std::vector<uint64_t> mix;
    fields(run.sim, get);
    get(mix);
    // No tail: the record ends the head and the file.
    if (!get.ok || get.p != buf.data() + buf.size() ||
        !trace::MixStats::fromCounters(mix, &run.mix))
        return DiskLoad::Corrupt;
    *out = std::move(run);
    return DiskLoad::Hit;
}

DiskLoad
loadTrace(const std::string &dir, const TraceKey &key,
          trace::PackedTrace *out, trace::MixStats *mix)
{
    std::string buf;
    Get get;
    const DiskLoad verdict = readEntry(dir, key, &buf, &get);
    if (verdict != DiskLoad::Hit)
        return verdict;
    std::vector<uint64_t> counters;
    trace::MixStats seenMix;
    get(counters);
    // The payload header ends the head, and the tail is its body.
    const auto *payload = reinterpret_cast<const uint8_t *>(get.p);
    if (!get.ok || !trace::MixStats::fromCounters(counters, &seenMix) ||
        !trace::PackedTrace::parsePayload(
            payload, size_t(buf.data() + buf.size() - get.p), out))
        return DiskLoad::Corrupt;
    *mix = seenMix;
    return DiskLoad::Hit;
}

} // namespace

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
        diskDir_.empty() ? DiskLoad::Miss : loadResult(diskDir_, key, out);
    std::lock_guard<std::mutex> lock(mu_);
    if (got == DiskLoad::Hit) {
        map_.emplace(key, *out);
        ++stats_.diskHits;
        return true;
    }
    if (got == DiskLoad::Corrupt)
        quarantineEntry(entryName(key));
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
    if (diskDir_.empty())
        return;
    std::string record;
    Put put{&record};
    fields(run.sim, put);
    put(run.mix.counters());
    pruneDisk(writeEntry(diskDir_, key, record));
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

bool
ResultCache::lookupTrace(const TraceKey &key, trace::PackedTrace *out,
                         trace::MixStats *mix)
{
    const DiskLoad got =
        diskDir_.empty() ? DiskLoad::Miss : loadTrace(diskDir_, key, out, mix);
    std::lock_guard<std::mutex> lock(mu_);
    touchLocked(key.hash());
    if (got == DiskLoad::Hit) {
        ++stats_.traceHits;
        return true;
    }
    if (got == DiskLoad::Corrupt)
        quarantineEntry(entryName(key));
    ++stats_.traceMisses;
    return false;
}

void
ResultCache::storeTrace(const TraceKey &key, const trace::PackedTrace &t,
                        const trace::MixStats &mix)
{
    if (diskDir_.empty())
        return;
    std::string record;
    Put put{&record};
    put(mix.counters());
    t.appendPayloadHeader(&record);
    const uint64_t wrote = writeEntry(
        diskDir_, key, record,
        {reinterpret_cast<const char *>(t.payloadBody()), t.byteSize()});
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

} // namespace swan::sweep
