#include "core/kernel.hh"

#include <new>

#include "trace/canon.hh"

namespace swan::core
{

void *
Workload::operator new(size_t bytes)
{
    void *p = ::operator new(bytes);
    trace::registerRegion(p, bytes);
    return p;
}

void
Workload::operator delete(void *p, size_t bytes)
{
    trace::unregisterRegion(p);
    ::operator delete(p, bytes);
}

std::string_view
name(Domain d)
{
    switch (d) {
      case Domain::ImageProcessing: return "Image Processing";
      case Domain::Graphics: return "Graphics";
      case Domain::AudioProcessing: return "Audio Processing";
      case Domain::DataCompression: return "Data Compression";
      case Domain::Cryptography: return "Cryptography";
      case Domain::StringUtilities: return "String Utilities";
      case Domain::VideoProcessing: return "Video Processing";
      case Domain::MachineLearning: return "Machine Learning";
      default: return "?";
    }
}

std::string_view
name(Pattern p)
{
    switch (p) {
      case Pattern::Reduction: return "reduction";
      case Pattern::RandomAccess: return "random-access";
      case Pattern::StridedAccess: return "strided-access";
      case Pattern::Transpose: return "matrix-transposition";
      case Pattern::VectorApi: return "vector-api";
      case Pattern::LoopDistribution: return "loop-distribution";
      default: return "none";
    }
}

} // namespace swan::core
