#include "predictor.hh"

#include "base/bitfield.hh"
#include "base/logging.hh"

namespace pacman::cpu
{

BimodalPredictor::BimodalPredictor(unsigned entries)
    : counters_(entries, 1) // weakly not-taken
{
    if (!isPowerOf2(entries))
        fatal("bimodal predictor: %u entries not a power of two",
              entries);
}

void
BimodalPredictor::reset()
{
    for (auto &ctr : counters_)
        ctr = 1;
}

Btb::Btb(unsigned entries)
    : entries_(entries)
{
    if (!isPowerOf2(entries))
        fatal("btb: %u entries not a power of two", entries);
}

void
Btb::reset()
{
    for (auto &entry : entries_)
        entry.valid = false;
}

} // namespace pacman::cpu
