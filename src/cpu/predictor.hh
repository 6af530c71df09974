/**
 * @file
 * Branch prediction structures: a bimodal (2-bit counter) conditional
 * predictor and a branch target buffer for indirect branches.
 *
 * The attack interacts with both: the conditional predictor is
 * trained so the PACMAN gadget's guard branch mis-speculates into the
 * gadget body, and the BTB supplies the (stale) predicted target of
 * the gadget's indirect branch until the authenticated pointer
 * resolves.
 *
 * Both are consulted on every simulated branch, so their lookups and
 * updates are defined in this header for the core to inline.
 */

#ifndef PACMAN_CPU_PREDICTOR_HH
#define PACMAN_CPU_PREDICTOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "isa/pointer.hh"

namespace pacman::cpu
{

/** Bimodal conditional-branch predictor (2-bit saturating counters). */
class BimodalPredictor
{
  public:
    /** @param entries Power-of-two table size. */
    explicit BimodalPredictor(unsigned entries);

    /** Predict taken/not-taken for the branch at @p pc. */
    bool predict(isa::Addr pc) const { return counters_[indexOf(pc)] >= 2; }

    /** Train with the resolved direction. */
    void update(isa::Addr pc, bool taken)
    {
        uint8_t &ctr = counters_[indexOf(pc)];
        if (taken) {
            if (ctr < 3)
                ++ctr;
        } else {
            if (ctr > 0)
                --ctr;
        }
    }

    /** Reset all counters to weakly not-taken. */
    void reset();

    /** Complete state: the counter table. */
    using Snapshot = std::vector<uint8_t>;

    Snapshot takeSnapshot() const { return counters_; }
    void restore(const Snapshot &snap) { counters_ = snap; }

  private:
    uint64_t indexOf(isa::Addr pc) const
    {
        return (pc >> 2) & (counters_.size() - 1);
    }

    std::vector<uint8_t> counters_;
};

/** Direct-mapped branch target buffer. */
class Btb
{
  public:
    explicit Btb(unsigned entries);

    /** Predicted target for the indirect branch at @p pc, if any. */
    std::optional<isa::Addr> lookup(isa::Addr pc) const
    {
        const Entry &entry = entries_[indexOf(pc)];
        if (entry.valid && entry.tag == pc)
            return entry.target;
        return std::nullopt;
    }

    /** Record the resolved target. */
    void update(isa::Addr pc, isa::Addr target)
    {
        Entry &entry = entries_[indexOf(pc)];
        entry.valid = true;
        entry.tag = pc;
        entry.target = target;
    }

    /** Invalidate all entries. */
    void reset();

    /** One BTB entry (exposed so Snapshot can hold the table). */
    struct Entry
    {
        bool valid = false;
        isa::Addr tag = 0;
        isa::Addr target = 0;
    };

    /** Complete state: the entry table. */
    using Snapshot = std::vector<Entry>;

    Snapshot takeSnapshot() const { return entries_; }
    void restore(const Snapshot &snap) { entries_ = snap; }

  private:
    uint64_t indexOf(isa::Addr pc) const
    {
        return (pc >> 2) & (entries_.size() - 1);
    }

    std::vector<Entry> entries_;
};

} // namespace pacman::cpu

#endif // PACMAN_CPU_PREDICTOR_HH
