#include "core/options.hh"

#include <cstdlib>
#include <cstring>

namespace swan::core
{

namespace
{

bool
envSet(const char *name)
{
    const char *v = std::getenv(name);
    return v && std::strcmp(v, "0") != 0 && std::strcmp(v, "") != 0;
}

} // namespace

Options
Options::full()
{
    Options o;
    o.imageWidth = 1280;
    o.imageHeight = 720;
    o.audioSamples = 44100;
    o.bufferBytes = 128 * 1024;
    o.gemmM = 256;
    o.gemmN = 252;
    o.gemmK = 256;
    o.videoBlocks = 1024;
    return o;
}

Options
Options::tiny()
{
    Options o;
    o.imageWidth = 96;
    o.imageHeight = 48;
    o.audioSamples = 1024;
    o.bufferBytes = 4 * 1024;
    o.gemmM = 32;
    o.gemmN = 32;
    o.gemmK = 32;
    o.videoBlocks = 16;
    return o;
}

Options
Options::fromEnv()
{
    if (envSet("SWAN_FULL"))
        return full();
    if (envSet("SWAN_FAST"))
        return tiny();
    return {};
}

} // namespace swan::core
