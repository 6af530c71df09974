#include "fastpath.hh"

#include <cstdlib>
#include <cstring>

#include "base/logging.hh"

namespace pacman
{

namespace
{

constexpr FastPath Levels[] = {FastPath::Reference, FastPath::Decode,
                               FastPath::Superblocks, FastPath::Traces};

} // anonymous namespace

const char *
fastPathName(FastPath level)
{
    switch (level) {
      case FastPath::Reference: return "reference";
      case FastPath::Decode: return "decode";
      case FastPath::Superblocks: return "superblocks";
      case FastPath::Traces: return "traces";
    }
    panic("fastPathName: bad level %d", int(level));
}

FastPath
parseFastPath(const char *value)
{
    if (value == nullptr)
        return FastPath::Traces;
    for (const FastPath level : Levels) {
        if (std::strcmp(value, fastPathName(level)) == 0)
            return level;
    }
    throw FastPathError(std::string("PACMAN_FASTPATH='") + value +
                        "' is not a level; accepted: reference, "
                        "decode, superblocks, traces");
}

FastPath
defaultFastPath()
{
    static const FastPath level = [] {
        try {
            return parseFastPath(std::getenv("PACMAN_FASTPATH"));
        } catch (const FastPathError &e) {
            fatal("%s", e.what());
        }
    }();
    return level;
}

} // namespace pacman
