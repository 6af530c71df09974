#include "cache.hh"

#include "base/bitfield.hh"
#include "base/logging.hh"

namespace pacman::mem
{

Cache::Cache(const SetAssocConfig &cfg, ReplPolicy policy, Random *rng)
    : cfg_(cfg), policy_(policy), rng_(rng),
      lines_(size_t(cfg.sets) * cfg.ways), setGen_(cfg.sets, 0)
{
    if (!isPowerOf2(cfg.sets))
        fatal("cache %s: set count %u not a power of two",
              cfg.name.c_str(), cfg.sets);
    if (!isPowerOf2(cfg.lineBytes))
        fatal("cache %s: line size %u not a power of two",
              cfg.name.c_str(), cfg.lineBytes);
    if (policy_ == ReplPolicy::Random && rng_ == nullptr)
        fatal("cache %s: random replacement requires an RNG",
              cfg.name.c_str());
    lineShift_ = floorLog2(cfg_.lineBytes);
    setShift_ = floorLog2(cfg_.sets);
    setMask_ = cfg_.sets - 1;
}

Cache::Line &
Cache::victimIn(uint64_t set)
{
    Line *base = &lines_[set * cfg_.ways];
    // Invalid line first.
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (!base[w].valid)
            return base[w];
    }
    if (policy_ == ReplPolicy::Random)
        return base[rng_->next(cfg_.ways)];
    Line *victim = &base[0];
    for (unsigned w = 1; w < cfg_.ways; ++w) {
        if (base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }
    return *victim;
}

Cache::Line *
Cache::fillMiss(Addr pa)
{
    ++misses_;
    const uint64_t set = setIndex(pa);
    Line &victim = victimIn(set);
    journalTouch(&victim);
    bumpSet(set);
    victim.valid = true;
    victim.tag = tagOf(lineNumber(pa));
    victim.lruStamp = tick_;
    return &victim;
}

bool
Cache::contains(Addr pa) const
{
    return findLine(pa) != nullptr;
}

void
Cache::invalidate(Addr pa)
{
    if (Line *line = findLine(pa)) {
        journalTouch(line);
        bumpSet(setIndex(pa));
        line->valid = false;
    }
}

void
Cache::flushAll()
{
    journalBulk();
    for (Line &line : lines_)
        line.valid = false;
    for (uint64_t set = 0; set < cfg_.sets; ++set)
        bumpSet(set);
}

void
Cache::resetStats()
{
    journalBulk();
    hits_ = misses_ = 0;
    uint64_t min_stamp = tick_;
    for (const Line &line : lines_) {
        if (line.valid && line.lruStamp < min_stamp)
            min_stamp = line.lruStamp;
    }
    tick_ -= min_stamp;
    for (Line &line : lines_) {
        if (line.valid)
            line.lruStamp -= min_stamp;
    }
}

Cache::Snapshot
Cache::takeSnapshot() const
{
    ++journalEpoch_;
    journalOff_ = false;
    journal_.clear();
    journaled_.assign(lines_.size(), 0);
    return {lines_, setGen_, tick_, hits_, misses_, journalEpoch_};
}

void
Cache::restore(const Snapshot &snap)
{
    tick_ = snap.tick;
    hits_ = snap.hits;
    misses_ = snap.misses;
    if (snap.journalEpoch == journalEpoch_ && !journalOff_) {
        // The journal lists exactly the lines dirtied since this
        // snapshot was captured; everything else is already identical.
        // A set's generation label only moves when a line in it is
        // structurally mutated — which always journals that line — so
        // rewinding the journaled lines' sets covers every moved label.
        for (const uint32_t idx : journal_) {
            const uint64_t set = idx / cfg_.ways;
            lines_[idx] = snap.lines[idx];
            setGen_[set] = snap.setGen[set];
            journaled_[idx] = 0;
        }
        journal_.clear();
        return;
    }
    lines_ = snap.lines;
    setGen_ = snap.setGen;
    if (snap.journalEpoch == journalEpoch_) {
        // The journal overflowed, but the full copy just made the
        // live state equal this (still armed) snapshot again: re-arm.
        journal_.clear();
        journaled_.assign(lines_.size(), 0);
        journalOff_ = false;
    } else {
        // Restored a snapshot the journal was not armed against; its
        // contents no longer describe the divergence from anything.
        journalOff_ = true;
    }
}

} // namespace pacman::mem
