#include "tlb.hh"

#include "base/bitfield.hh"
#include "base/logging.hh"

namespace pacman::mem
{

Tlb::Tlb(const SetAssocConfig &cfg, ReplPolicy policy, Random *rng)
    : cfg_(cfg), policy_(policy), rng_(rng),
      ways_(size_t(cfg.sets) * cfg.ways), setGen_(cfg.sets, 0)
{
    if (!isPowerOf2(cfg.sets))
        fatal("tlb %s: set count %u not a power of two",
              cfg.name.c_str(), cfg.sets);
    if (policy_ == ReplPolicy::Random && rng_ == nullptr)
        fatal("tlb %s: random replacement requires an RNG",
              cfg.name.c_str());
}

Tlb::Way &
Tlb::victimIn(uint64_t set)
{
    Way *base = &ways_[set * cfg_.ways];
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (!base[w].valid)
            return base[w];
    }
    if (policy_ == ReplPolicy::Random)
        return base[rng_->next(cfg_.ways)];
    Way *victim = &base[0];
    for (unsigned w = 1; w < cfg_.ways; ++w) {
        if (base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }
    return *victim;
}

bool
Tlb::contains(uint64_t vpn, Asid asid) const
{
    return find(vpn, asid) != nullptr;
}

std::optional<TlbEntry>
Tlb::insert(const TlbEntry &entry)
{
    ++tick_;
    // Refresh in place if already present. Still a structural change:
    // the refreshed entry may map a different frame or permissions
    // (remap + re-walk), so the set label moves.
    if (Way *way = find(entry.vpn, entry.asid)) {
        journalTouch(way);
        bumpSet(setIndex(entry.vpn));
        way->entry = entry;
        way->lruStamp = tick_;
        return std::nullopt;
    }
    Way &victim = victimIn(setIndex(entry.vpn));
    journalTouch(&victim);
    bumpSet(setIndex(entry.vpn));
    std::optional<TlbEntry> evicted;
    if (victim.valid)
        evicted = victim.entry;
    victim.valid = true;
    victim.entry = entry;
    victim.lruStamp = tick_;
    return evicted;
}

std::optional<TlbEntry>
Tlb::remove(uint64_t vpn, Asid asid)
{
    if (Way *way = find(vpn, asid)) {
        journalTouch(way);
        bumpSet(setIndex(vpn));
        way->valid = false;
        return way->entry;
    }
    return std::nullopt;
}

void
Tlb::flushAll()
{
    journalBulk();
    for (Way &way : ways_)
        way.valid = false;
    for (uint64_t set = 0; set < cfg_.sets; ++set)
        bumpSet(set);
}

unsigned
Tlb::flushAsid(Asid asid)
{
    journalBulk();
    unsigned n = 0;
    for (size_t idx = 0; idx < ways_.size(); ++idx) {
        Way &way = ways_[idx];
        if (way.valid && way.entry.asid == asid) {
            way.valid = false;
            bumpSet(idx / cfg_.ways);
            ++n;
        }
    }
    return n;
}

void
Tlb::resetStats()
{
    journalBulk();
    hits_ = misses_ = 0;
    uint64_t min_stamp = tick_;
    for (const Way &way : ways_) {
        if (way.valid && way.lruStamp < min_stamp)
            min_stamp = way.lruStamp;
    }
    tick_ -= min_stamp;
    for (Way &way : ways_) {
        if (way.valid)
            way.lruStamp -= min_stamp;
    }
}

unsigned
Tlb::flushSetAsid(uint64_t set, Asid asid)
{
    unsigned n = 0;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        Way &way = ways_[set * cfg_.ways + w];
        if (way.valid && way.entry.asid == asid) {
            journalTouch(&way);
            bumpSet(set);
            way.valid = false;
            ++n;
        }
    }
    return n;
}

Tlb::Snapshot
Tlb::takeSnapshot() const
{
    ++journalEpoch_;
    journalOff_ = false;
    journal_.clear();
    journaled_.assign(ways_.size(), 0);
    return {ways_, setGen_, tick_, hits_, misses_, journalEpoch_};
}

void
Tlb::restore(const Snapshot &snap)
{
    tick_ = snap.tick;
    hits_ = snap.hits;
    misses_ = snap.misses;
    if (snap.journalEpoch == journalEpoch_ && !journalOff_) {
        // The journal lists exactly the ways dirtied since this
        // snapshot was captured; everything else is already identical.
        // Every structural mutation journals a way in the set it
        // relabels, so rewinding the journaled ways' sets covers
        // every moved generation label.
        for (const uint32_t idx : journal_) {
            const uint64_t set = idx / cfg_.ways;
            ways_[idx] = snap.ways[idx];
            setGen_[set] = snap.setGen[set];
            journaled_[idx] = 0;
        }
        journal_.clear();
        return;
    }
    ways_ = snap.ways;
    setGen_ = snap.setGen;
    if (snap.journalEpoch == journalEpoch_) {
        // Journal overflowed; the full copy re-synced us with this
        // (still armed) snapshot: re-arm.
        journal_.clear();
        journaled_.assign(ways_.size(), 0);
        journalOff_ = false;
    } else {
        journalOff_ = true;
    }
}

} // namespace pacman::mem
