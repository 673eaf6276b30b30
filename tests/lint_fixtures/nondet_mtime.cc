// Fixture: filesystem-time reads in a cache-eviction path — the
// `nondet` check's mtime patterns. Never compiled — lint fodder for
// tests/test_lint.cc. File timestamps move with the wall clock,
// `cp -p`/rsync, and filesystem granularity, so an mtime-keyed
// eviction policy decides differently run to run; swan orders
// eviction by a logical clock of its lookups and stores instead.
#include <filesystem>
#include <utility>
#include <vector>

namespace fs = std::filesystem;

void badEvictionOrder(const fs::path &dir)
{
    std::vector<std::pair<fs::file_time_type, fs::path>> order;
    for (const auto &e : fs::directory_iterator(dir))
        order.emplace_back(fs::last_write_time(e.path()), // flagged
                           e.path());
    const auto now = fs::file_time_type::clock::now(); // flagged
    (void)now;
    // Oldest-mtime-first is the classic LRU-by-timestamp bug.
}

void fine(const fs::path &p)
{
    // A file_time_type value merely passed through is deterministic
    // data, not a clock read: must not be flagged. Neither must the
    // comments above naming last_write_time().
    fs::file_time_type stamp{};
    (void)stamp;
    (void)p;
}
