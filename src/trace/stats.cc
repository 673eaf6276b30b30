#include "trace/stats.hh"

namespace swan::trace
{

void
MixStats::add(const Instr &shape, uint64_t n)
{
    total_ += n;
    byClass_[size_t(shape.cls)] += n;
    byPaper_[size_t(paperClass(shape.cls))] += n;
    byStride_[size_t(shape.stride)] += n;
    if (shape.isVector()) {
        vecInstrs_ += n;
        laneSum_ += n * shape.lanes;
        activeLaneSum_ += n * shape.activeLanes;
        if (shape.vecBytes && shape.lanes) {
            activeByteSum_ += n * uint64_t(shape.activeLanes) *
                              uint64_t(shape.vecBytes / shape.lanes);
        }
    }
    if (shape.isLoad())
        loadBytes_ += n * shape.size;
    else if (shape.isStore())
        storeBytes_ += n * shape.size;
}

double
MixStats::fraction(PaperClass cls) const
{
    if (total_ == 0)
        return 0.0;
    return double(byPaper_[size_t(cls)]) / double(total_);
}

double
MixStats::laneUtilization() const
{
    if (laneSum_ == 0)
        return 0.0;
    return double(activeLaneSum_) / double(laneSum_);
}

double
MixStats::machineUtilization(int machine_bytes) const
{
    if (vecInstrs_ == 0 || machine_bytes <= 0)
        return 0.0;
    return double(activeByteSum_) /
           double(vecInstrs_ * uint64_t(machine_bytes));
}

double
MixStats::strideFraction(StrideKind kind) const
{
    if (total_ == 0)
        return 0.0;
    return double(byStride_[size_t(kind)]) / double(total_);
}


std::vector<uint64_t>
MixStats::counters() const
{
    std::vector<uint64_t> flat = {total_,         vecInstrs_,
                                  laneSum_,       activeLaneSum_,
                                  activeByteSum_, loadBytes_,
                                  storeBytes_};
    const auto append = [&flat](const auto &arr) {
        flat.push_back(arr.size());
        flat.insert(flat.end(), arr.begin(), arr.end());
    };
    append(byClass_);
    append(byPaper_);
    append(byStride_);
    return flat;
}

bool
MixStats::fromCounters(const std::vector<uint64_t> &flat, MixStats *out)
{
    MixStats s;
    size_t i = 0;
    const auto scalar = [&](uint64_t &field) {
        if (i >= flat.size())
            return false;
        field = flat[i++];
        return true;
    };
    if (!scalar(s.total_) || !scalar(s.vecInstrs_) ||
        !scalar(s.laneSum_) || !scalar(s.activeLaneSum_) ||
        !scalar(s.activeByteSum_) || !scalar(s.loadBytes_) ||
        !scalar(s.storeBytes_))
        return false;
    const auto array = [&](auto &arr) {
        if (i >= flat.size() || flat[i] != arr.size() ||
            flat.size() - i - 1 < arr.size())
            return false;
        ++i;
        for (auto &v : arr)
            v = flat[i++];
        return true;
    };
    if (!array(s.byClass_) || !array(s.byPaper_) || !array(s.byStride_))
        return false;
    if (i != flat.size())
        return false;
    *out = s;
    return true;
}
} // namespace swan::trace
