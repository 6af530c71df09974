/**
 * @file
 * Shared pieces of the benchmark workloads: the span recorder of the
 * traced run, per-item timing records and their windowed rates, the
 * exact counter snapshot read from the simulator's public accessors,
 * and the report every workload fills in and main() prints.
 */

#ifndef PACBENCH_BENCH_HH
#define PACBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/stats.hh"
#include "kernel/machine.hh"
#include "stats.hh"

namespace pacbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned jobs = 1; //!< bruteforce campaign workers (1 or 2)
    std::string outDir = ".bench_run";
};

/**
 * In-memory span store of the traced run. Each span has a name, a
 * start and end relative to the recorder's epoch, the id of its
 * parent span (-1 for none) and the id of the item it belongs to.
 * When the recorder is off, begin() returns -1 and nothing is kept.
 * Spans are written out once, after the run.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        double start;
        double end;
        int64_t parent;
        uint64_t item;
    };

    Tracer() : epoch_(Clock::now()) {}

    /** Record spans only while on() (the timed phase of a traced run
     *  toggles this per window). */
    void setOn(bool on) { on_.store(on, std::memory_order_relaxed); }
    bool on() const { return on_.load(std::memory_order_relaxed); }

    int64_t
    begin(const char *name, uint64_t item = 0, int64_t parent = -1)
    {
        if (!on())
            return -1;
        const double t = seconds(epoch_, Clock::now());
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({name, t, -1.0, parent, item});
        return int64_t(spans_.size() - 1);
    }

    void
    end(int64_t id)
    {
        if (id < 0)
            return;
        const double t = seconds(epoch_, Clock::now());
        std::lock_guard<std::mutex> lock(mu_);
        spans_[size_t(id)].end = t;
    }

    /** Run @p fn inside a span; returns its duration in seconds. */
    template <typename Fn>
    double
    timed(const char *name, Fn &&fn, uint64_t item = 0,
          int64_t parent = -1)
    {
        const int64_t id = begin(name, item, parent);
        const Clock::time_point t0 = Clock::now();
        fn();
        const double s = seconds(t0, Clock::now());
        end(id);
        return s;
    }

    /** Durations (seconds) of every closed span called @p name. */
    pacman::SampleStat durations(const std::string &name) const;

    /** Summed child-span time inside spans called @p parent_name. */
    double childSeconds(const std::string &parent_name) const;

    /** Write every span as one JSON object per line. */
    void write(const std::string &path) const;

    size_t size() const { return spans_.size(); }

  private:
    Clock::time_point epoch_;
    std::atomic<bool> on_{false};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Rates of each full window of a timed phase. */
struct WindowRates
{
    std::vector<double> itemsPerS;
    std::vector<double> mips;
};

/**
 * What a timed phase completed: per-window sums of items and guest
 * instructions, and one latency per record. The latency buffer is
 * sized and touched before the phase, so the log's memory does not
 * grow with the number of items and a faster workload does not show
 * as a larger peak_rss_mb. Not thread-safe.
 */
class PhaseLog
{
  public:
    /** A log for a phase of about @p seconds in windows of
     *  @p window seconds. */
    PhaseLog(double seconds, double window);

    /**
     * One completed unit of work (a query, a chunk, a trial) over
     * [start, end], in seconds since the phase began. Its items and
     * instructions are spread evenly over the interval, so a chunk
     * straddling a window edge counts in each window by its share.
     */
    void add(double start, double end, double items, double insts,
             bool failed);

    size_t records() const { return latency_.size(); }
    double window() const { return window_; }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    /** Summed record durations (worker-busy time). */
    double busySeconds() const { return busy_; }

    /** Rates of the full windows in the first @p span seconds. */
    WindowRates rates(double span) const;

    /** Record durations, in seconds. */
    pacman::SampleStat latencies() const;

  private:
    double window_;
    std::vector<double> items_, insts_; //!< per window
    std::vector<float> latency_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    double busy_ = 0;
};

/**
 * Exact counters read through the simulator's public accessors.
 * "sim" counters belong to the simulated machine (CoreStats, cycles,
 * cache/TLB misses): they rewind with a checkpoint restore, so
 * per-item deltas are a pure function of the item. "host" counters
 * are the monotonic SuperblockStats of one replica's host-side
 * caches; they repeat run to run only when the same items run on the
 * same replica in the same order.
 */
struct Counters
{
    uint64_t insts = 0;
    uint64_t cycles = 0;
    uint64_t wrongPathInsts = 0;
    uint64_t syscalls = 0;
    uint64_t dtlbMisses = 0;
    uint64_t l1dMisses = 0;
    uint64_t l2tlbMisses = 0;

    uint64_t blockInsts = 0;
    uint64_t decodeHits = 0;
    uint64_t decodeMisses = 0;
    uint64_t traceReplays = 0;
    uint64_t traceRecords = 0;
    uint64_t traceBreaksNoise = 0;
    uint64_t traceBreaksEviction = 0;

    static Counters read(pacman::kernel::Machine &m);

    /**
     * One campaign item's counters on a checkpointed replica, read
     * right after the item: the simulated counters rewind to
     * @p checkpoint at every restore, so their share is now minus
     * checkpoint; the monotonic host counters take now minus
     * @p previous (the reading after the replica's last item).
     */
    static Counters itemDelta(const Counters &now,
                              const Counters &checkpoint,
                              const Counters &previous);

    Counters operator-(const Counters &o) const;
    Counters &operator+=(const Counters &o);
};

/** One metric line. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    uint64_t samples = 0; //!< 0 = not a sampled quantity
    std::string note;     //!< why a value is absent, or what it is
};

/** What a workload hands back to main(). */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> checks; //!< "PASS ..." / "FAIL ..."

    std::vector<Metric> endToEnd;
    std::vector<Metric> detail; //!< per-workload latency names
    std::vector<Metric> layers;

    /** Exact counts; "sim." keys are pure functions of the seed at
     *  any --jobs, "host." keys are reported only when one replica ran
     *  the count pass. */
    std::map<std::string, uint64_t> counts;

    /** items_per_s of each window, for the DIAG line. */
    std::vector<double> windowItemsPerS;

    void check(bool ok, const std::string &what);

    void
    e2e(const std::string &name, double v, const std::string &unit,
        uint64_t n = 0)
    {
        endToEnd.push_back({name, v, unit, n, {}});
    }

    void
    layer(const std::string &name, double v, const std::string &unit,
          uint64_t n = 0, const std::string &note = {})
    {
        layers.push_back({name, v, unit, n, note});
    }

    /** Add the latency metrics of @p s (seconds) under both the
     *  shared names and the workload's own @p prefix. */
    void latency(const pacman::SampleStat &s, const std::string &prefix,
                 bool micro);

    /** Set-up time: setup_s is the median of the repetitions, and the
     *  detail setup_first_s the first (cold) one. */
    void setup(const pacman::SampleStat &setup_seconds);

    /** items_per_s, guest_mips and the latency metrics from the
     *  timed phase's log, and peak_rss_mb as read right after the
     *  timed phase (the checks that follow are not the workload). */
    void timedPhase(const PhaseLog &log, double span,
                    const std::string &prefix, bool micro_latency,
                    double rss_mb);

    /** success_ratio = 1 - failed / attempted. */
    void finishFailures();

    /**
     * A per-layer timing from samples in seconds: the median times
     * @p scale is the value, and the note gives the qualifying tail
     * (src/stats.hh), then @p note.
     */
    void timing(const std::string &name, const pacman::SampleStat &secs,
                double scale, const std::string &unit,
                const std::string &note = {});

    /** Value of the layer metric @p name; 0 if it is not reported. */
    double layerValue(const std::string &name) const;

    /** Per-layer metrics derived from count-pass counters over
     *  @p items items. */
    void cpuMemLayers(const Counters &c, double items);
};

/** Set-ups per run; setup_s is their median. The first runs before
 *  the timed phase, the others after it in the same, by then warm,
 *  process. */
constexpr unsigned SetupRepetitions = 25;

/** Timed phases run at least this many items, so the p90 latency
 *  always has MinBeyond samples beyond it. */
constexpr size_t MinItems = 120;

/** Records per second a PhaseLog holds without growing (fig8 runs
 *  about 6 600 queries per second on the development host). */
constexpr double MaxRecordsPerSecond = 50000;

/** Throughput windows per run; items_per_s is their median. */
constexpr double WindowsPerRun = 20;

/** The CPUs this process may run on, as read at the first call
 *  (the first TimedPhase, before any thread is pinned). */
const std::vector<int> &processCpus();

/**
 * While alive, pins the calling thread to CPU @p index (modulo their
 * number) of processCpus(). Single-threaded set-up repetitions run
 * one per CPU in turn, so their median samples every vCPU instead of
 * the one the thread happens to sit on (see CpuRotation).
 */
class PinnedCpu
{
  public:
    explicit PinnedCpu(size_t index);
    /** Gives the thread every CPU of processCpus() again. */
    ~PinnedCpu();
    PinnedCpu(const PinnedCpu &) = delete;
    PinnedCpu &operator=(const PinnedCpu &) = delete;
};

/**
 * While alive, moves the process's busiest threads to the next CPU of
 * its affinity set every RotationPeriod, each thread on a CPU of its
 * own; a thread that used no CPU time in the last period may run on
 * any of them. On the 4-vCPU development host one vCPU can run the
 * simulator 1.5x slower than another at the same moment, for tens of
 * seconds, while an integer loop runs at one speed on all of them. A
 * thread that stays on one vCPU draws one of those speeds for the
 * whole run; rotating averages them (fig8's items_per_s spread over
 * ten 20-second runs fell from 0.29 to 0.07). With one CPU it does
 * nothing. Affinity does not change what the simulator computes.
 */
class CpuRotation
{
  public:
    CpuRotation();
    /** Stops rotating and gives every thread the whole set again. */
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

  private:
    void loop();

    std::vector<int> cpus_;
    std::mutex mu_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_;
};

/**
 * The closed-loop timed phase: runs for Options::seconds and at least
 * MinItems items, under a CpuRotation. In a traced run the windows
 * alternate untraced (even) and traced (odd), so trace.overhead
 * compares the two halves of one run instead of two runs that the
 * host may run at different speeds.
 */
class TimedPhase
{
  public:
    TimedPhase(const Options &opt, Tracer &tr)
        : seconds_(opt.seconds), window_(opt.seconds / WindowsPerRun),
          trace_(opt.trace), tr_(tr), log_(seconds_, window_),
          t0_(Clock::now())
    {
        tr_.setOn(false);
    }

    double now() const { return seconds(t0_, Clock::now()); }

    /** End the phase (stop the rotation); returns its length. */
    double
    finish()
    {
        const double span = now();
        rotation_.reset();
        return span;
    }
    PhaseLog &log() { return log_; }
    const PhaseLog &log() const { return log_; }

    bool
    done(size_t items) const
    {
        return items >= MinItems && now() >= seconds_;
    }

    /** Switch span recording on in odd windows of a traced run. */
    void
    toggleTrace()
    {
        if (trace_)
            tr_.setOn(size_t(now() / window_) % 2 == 1);
    }

    /** 1 - (median traced-window rate / median untraced-window rate)
     *  over the phase's first @p span seconds. */
    double traceOverhead(double span) const;

  private:
    double seconds_;
    double window_;
    bool trace_;
    Tracer &tr_;
    PhaseLog log_;
    std::optional<CpuRotation> rotation_{std::in_place};
    Clock::time_point t0_; //!< last: the log is allocated before it
};

/** Time @p fn over @p reps batches of @p per calls, each batch a span
 *  called @p name; one sample (seconds per call) per batch. */
pacman::SampleStat perCallSeconds(Tracer &tr, const char *name,
                                  unsigned reps, unsigned per,
                                  const std::function<void()> &fn);

/** Milliseconds a fixed integer loop takes (host-speed diagnostic). */
double hostReferenceMs();

/** Peak resident set of this process, in MB. */
double peakRssMb();

/** Per-workload entry points. */
Report runFig8(const Options &opt, Tracer &tracer);
Report runBruteforce(const Options &opt, Tracer &tracer);
Report runAccuracyRemote(const Options &opt, Tracer &tracer);

} // namespace pacbench

#endif // PACBENCH_BENCH_HH
