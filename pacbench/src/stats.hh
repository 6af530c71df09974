/**
 * @file
 * The benchmark's statistics helper: every timing it prints is a
 * median, a tail percentile and a sample count.
 *
 * A tail percentile is reported only when at least ten samples lie
 * beyond it; with fewer, the number is one or two order statistics
 * and moves with every run. The helper tries the tails in the order
 * given (p99 before p90) and keeps the first that qualifies.
 */

#ifndef PACBENCH_STATS_HH
#define PACBENCH_STATS_HH

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "base/stats.hh"

namespace pacbench
{

/** Samples needed beyond a percentile before it is reported. */
constexpr uint64_t MinBeyond = 10;

/**
 * Order statistics strictly above the interpolation point of
 * percentile @p p in @p n sorted samples (SampleStat::percentile
 * interpolates at rank p/100 * (n - 1)).
 */
inline uint64_t
samplesBeyond(double p, uint64_t n)
{
    if (n == 0)
        return 0;
    const double rank = p / 100.0 * double(n - 1);
    return n - 1 - uint64_t(std::floor(rank));
}

/** Median, qualifying tail and count of one set of samples. */
struct Summary
{
    uint64_t n = 0;
    double median = 0;
    double tailPct = 0; //!< 0 when no candidate tail qualified
    double tail = 0;

    bool hasTail() const { return tailPct > 0; }

    /** "p99 2.34 ms", or why no tail is reported. */
    std::string
    tailText(const char *unit) const
    {
        if (hasTail())
            return pacman::strprintf("p%g %.4g %s", tailPct, tail, unit);
        return pacman::strprintf("no tail: < %llu samples beyond p90",
                                 (unsigned long long)MinBeyond);
    }
};

/** Summarize @p s, reporting the first of @p tails that has at least
 *  MinBeyond samples beyond it. */
inline Summary
summarize(const pacman::SampleStat &s,
          std::initializer_list<double> tails = {99.0, 90.0})
{
    Summary out;
    out.n = s.count();
    if (out.n == 0)
        return out;
    out.median = s.median();
    for (double p : tails) {
        if (samplesBeyond(p, out.n) >= MinBeyond) {
            out.tailPct = p;
            out.tail = s.percentile(p);
            break;
        }
    }
    return out;
}

} // namespace pacbench

#endif // PACBENCH_STATS_HH
