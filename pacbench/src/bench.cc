#include "bench.hh"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace pacbench
{

using pacman::SampleStat;
using pacman::strprintf;

SampleStat
Tracer::durations(const std::string &name) const
{
    SampleStat s;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span &sp : spans_) {
        if (sp.end >= 0 && name == sp.name)
            s.add(sp.end - sp.start);
    }
    return s;
}

double
Tracer::childSeconds(const std::string &parent_name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    double sum = 0;
    for (const Span &sp : spans_) {
        if (sp.parent >= 0 && sp.end >= 0 &&
            parent_name == spans_[size_t(sp.parent)].name)
            sum += sp.end - sp.start;
    }
    return sum;
}

void
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path, std::ios::trunc);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &sp = spans_[i];
        out << strprintf("{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                         "\"end\":%.9f,\"parent\":%lld,\"item\":%llu}\n",
                         i, sp.name, sp.start, sp.end,
                         (long long)sp.parent,
                         (unsigned long long)sp.item);
    }
}

PhaseLog::PhaseLog(double seconds, double window)
    : window_(window), items_(size_t(seconds / window) + 2, 0.0),
      insts_(items_.size(), 0.0)
{
    // Touch the whole buffer now, so its pages are resident before
    // the phase and the phase allocates nothing.
    latency_.assign(size_t(seconds * MaxRecordsPerSecond), 0.0f);
    latency_.clear();
}

void
PhaseLog::add(double start, double end, double items, double insts,
              bool failed)
{
    latency_.push_back(float(end - start));
    busy_ += end - start;
    attempted_ += uint64_t(items);
    if (failed)
        failed_ += uint64_t(items);
    const double len = std::max(end - start, 1e-12);
    for (size_t w = size_t(start / window_);; ++w) {
        const double lo = std::max(start, double(w) * window_);
        const double hi = std::min(end, double(w + 1) * window_);
        if (hi <= lo)
            break;
        if (w >= items_.size()) {
            items_.resize(w + 1, 0.0);
            insts_.resize(w + 1, 0.0);
        }
        items_[w] += (hi - lo) / len * items;
        insts_[w] += (hi - lo) / len * insts;
    }
}

WindowRates
PhaseLog::rates(double span) const
{
    WindowRates out;
    const size_t n = std::min(size_t(span / window_), items_.size());
    for (size_t w = 0; w < n; ++w) {
        out.itemsPerS.push_back(items_[w] / window_);
        out.mips.push_back(insts_[w] / window_ / 1e6);
    }
    return out;
}

SampleStat
PhaseLog::latencies() const
{
    SampleStat s;
    for (float v : latency_)
        s.add(double(v));
    return s;
}

double
TimedPhase::traceOverhead(double span) const
{
    const WindowRates rates = log_.rates(span);
    SampleStat untraced, traced;
    for (size_t w = 0; w < rates.itemsPerS.size(); ++w)
        (w % 2 ? traced : untraced).add(rates.itemsPerS[w]);
    if (!traced.count() || !untraced.count())
        return 0.0;
    return 1.0 - traced.median() / untraced.median();
}

namespace
{

constexpr std::chrono::milliseconds RotationPeriod{100};

/** CPU time (user + system, in clock ticks) thread @p tid of this
 *  process has used; -1 if the thread is gone. */
long long
threadTicks(const std::string &tid)
{
    std::ifstream f("/proc/self/task/" + tid + "/stat");
    std::string line;
    std::getline(f, line);
    // The fields after the parenthesised name start at field 3
    // (state); utime and stime are fields 14 and 15.
    const size_t paren = line.rfind(')');
    if (paren == std::string::npos)
        return -1;
    std::istringstream in(line.substr(paren + 1));
    std::string field;
    long long ticks = 0;
    for (int i = 3; i <= 15 && in >> field; ++i) {
        if (i >= 14)
            ticks += std::stoll(field);
    }
    return ticks;
}

/** Every thread of this process, by id. */
std::vector<std::string>
threadIds()
{
    std::vector<std::string> ids;
    std::error_code ec;
    for (const auto &e :
         std::filesystem::directory_iterator("/proc/self/task", ec))
        ids.push_back(e.path().filename().string());
    return ids;
}

void
setAffinity(const std::string &tid, const cpu_set_t &set)
{
    // A thread may have exited since it was listed.
    (void)sched_setaffinity(pid_t(std::stol(tid)), sizeof set, &set);
}

cpu_set_t
cpuSet(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    return set;
}

} // namespace

const std::vector<int> &
processCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> v;
        cpu_set_t set;
        if (sched_getaffinity(0, sizeof set, &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set))
                    v.push_back(c);
            }
        }
        return v;
    }();
    return cpus;
}

PinnedCpu::PinnedCpu(size_t index)
{
    const std::vector<int> &cpus = processCpus();
    if (cpus.size() > 1) {
        const cpu_set_t one = cpuSet({cpus[index % cpus.size()]});
        (void)sched_setaffinity(0, sizeof one, &one);
    }
}

PinnedCpu::~PinnedCpu()
{
    const std::vector<int> &cpus = processCpus();
    if (cpus.size() > 1) {
        const cpu_set_t all = cpuSet(cpus);
        (void)sched_setaffinity(0, sizeof all, &all);
    }
}

CpuRotation::CpuRotation() : cpus_(processCpus())
{
    if (cpus_.size() > 1)
        thread_ = std::thread([this] { loop(); });
}

CpuRotation::~CpuRotation()
{
    if (!thread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
    const cpu_set_t all = cpuSet(cpus_);
    for (const std::string &tid : threadIds())
        setAffinity(tid, all);
}

void
CpuRotation::loop()
{
    const std::string self = std::to_string(gettid());
    const cpu_set_t all = cpuSet(cpus_);
    std::map<std::string, long long> last;
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t turn = 0; !stop_; ++turn) {
        // Rank threads by CPU time used since the previous turn.
        std::vector<std::pair<long long, std::string>> used;
        std::map<std::string, long long> now;
        for (const std::string &tid : threadIds()) {
            const long long t = tid == self ? -1 : threadTicks(tid);
            if (t < 0)
                continue;
            now[tid] = t;
            const auto it = last.find(tid);
            used.push_back({t - (it == last.end() ? 0 : it->second), tid});
        }
        last = std::move(now);
        std::sort(used.rbegin(), used.rend());
        for (size_t r = 0; r < used.size(); ++r) {
            if (r < cpus_.size() && used[r].first > 0) {
                setAffinity(used[r].second,
                            cpuSet({cpus_[(turn + r) % cpus_.size()]}));
            } else {
                setAffinity(used[r].second, all);
            }
        }
        wake_.wait_for(lock, RotationPeriod, [this] { return stop_; });
    }
}

Counters
Counters::read(pacman::kernel::Machine &m)
{
    Counters c;
    const pacman::cpu::CoreStats &cs = m.core().stats();
    c.insts = cs.instsRetired;
    c.cycles = m.core().cycle();
    c.wrongPathInsts = cs.wrongPathInsts;
    c.syscalls = cs.syscalls;
    c.dtlbMisses = m.mem().dtlb().misses();
    c.l1dMisses = m.mem().l1d().misses();
    c.l2tlbMisses = m.mem().l2tlb().misses();
    const pacman::cpu::SuperblockStats &sb = m.core().superblockStats();
    c.blockInsts = sb.blockInsts;
    c.decodeHits = sb.decodeHits;
    c.decodeMisses = sb.decodeMisses;
    c.traceReplays = sb.traceReplays;
    c.traceRecords = sb.tracesRecorded;
    c.traceBreaksNoise = sb.traceBreakNoise;
    c.traceBreaksEviction = sb.traceBreakEviction;
    return c;
}

#define PACBENCH_COUNTER_FIELDS(X)                                        \
    X(insts) X(cycles) X(wrongPathInsts) X(syscalls) X(dtlbMisses)       \
    X(l1dMisses) X(l2tlbMisses) X(blockInsts) X(decodeHits)              \
    X(decodeMisses) X(traceReplays) X(traceRecords) X(traceBreaksNoise)  \
    X(traceBreaksEviction)

Counters
Counters::operator-(const Counters &o) const
{
    Counters d;
#define X(f) d.f = f - o.f;
    PACBENCH_COUNTER_FIELDS(X)
#undef X
    return d;
}

Counters
Counters::itemDelta(const Counters &now, const Counters &checkpoint,
                    const Counters &previous)
{
    Counters d = now - checkpoint;
    const Counters host = now - previous;
    d.blockInsts = host.blockInsts;
    d.decodeHits = host.decodeHits;
    d.decodeMisses = host.decodeMisses;
    d.traceReplays = host.traceReplays;
    d.traceRecords = host.traceRecords;
    d.traceBreaksNoise = host.traceBreaksNoise;
    d.traceBreaksEviction = host.traceBreaksEviction;
    return d;
}

Counters &
Counters::operator+=(const Counters &o)
{
#define X(f) f += o.f;
    PACBENCH_COUNTER_FIELDS(X)
#undef X
    return *this;
}

void
Report::check(bool ok, const std::string &what)
{
    checks.push_back((ok ? "PASS " : "FAIL ") + what);
    correct = correct && ok;
}

void
Report::timing(const std::string &name, const SampleStat &secs, double scale,
               const std::string &unit, const std::string &note)
{
    SampleStat scaled;
    for (double v : secs.samples())
        scaled.add(v * scale);
    const Summary sum = summarize(scaled);
    layer(name, sum.median, unit, sum.n,
          sum.tailText(unit.c_str()) + (note.empty() ? "" : "; " + note));
}

double
Report::layerValue(const std::string &name) const
{
    for (const Metric &m : layers) {
        if (m.name == name)
            return m.value;
    }
    return 0.0;
}

void
Report::latency(const SampleStat &s, const std::string &prefix,
                bool micro)
{
    // One tail for the shared JSON name on every workload (p90), and
    // the workload's own names, median included, for the text table,
    // where fig8 has enough queries for p99. The median is not a JSON
    // metric: per-item latencies are bimodal on a host whose vCPUs run
    // at two speeds, and the median jumps between the modes as their
    // shares shift (README "Steadiness"). items_per_s is the central
    // figure; in a closed loop the mean latency is its inverse.
    const Summary shared = summarize(s, {90.0});
    e2e("latency_p90_ms", shared.tail * 1e3, "ms", shared.n);
    if (!shared.hasTail())
        check(false, strprintf("latency p90 needs %llu samples beyond "
                               "it; only %llu items ran",
                               (unsigned long long)MinBeyond,
                               (unsigned long long)shared.n));

    const Summary own = summarize(s);
    const double scale = micro ? 1e6 : 1e3;
    const char *unit = micro ? "us" : "ms";
    detail.push_back({prefix + "_p50_" + unit, own.median * scale, unit,
                      own.n, {}});
    if (own.hasTail())
        detail.push_back({strprintf("%s_p%g_%s", prefix.c_str(),
                                    own.tailPct, unit),
                          own.tail * scale, unit, own.n, {}});
}

void
Report::setup(const SampleStat &setup_seconds)
{
    e2e("setup_s", setup_seconds.median(), "s", setup_seconds.count());
    // The first set-up alone pays the process's one-time costs (page
    // faults on fresh memory, lazy statics, code page-in); the median
    // is a warm re-set-up, so that first one is shown beside it.
    detail.push_back({"setup_first_s", setup_seconds.samples().at(0), "s", 1,
                      "cold: the process's first set-up"});
}

void
Report::timedPhase(const PhaseLog &log, double span,
                   const std::string &prefix, bool micro_latency,
                   double rss_mb)
{
    const WindowRates rates = log.rates(span);
    SampleStat ips, mips;
    for (double v : rates.itemsPerS)
        ips.add(v);
    for (double v : rates.mips)
        mips.add(v);
    attempted += log.attempted();
    failed += log.failed();
    windowItemsPerS = rates.itemsPerS;
    e2e("items_per_s", ips.median(), "1/s", ips.count());
    e2e("guest_mips", mips.median(), "MIPS", mips.count());
    latency(log.latencies(), prefix, micro_latency);
    e2e("peak_rss_mb", rss_mb, "MB");
}

void
Report::finishFailures()
{
    if (!correct) // a failed output check fails every item
        failed = attempted;
    e2e("success_ratio",
        attempted ? 1.0 - double(failed) / double(attempted) : 0.0,
        "ratio", attempted);
}

void
Report::cpuMemLayers(const Counters &c, double items)
{
    auto per = [&](uint64_t v) { return double(v) / items; };
    layer("cpu.guest_insts_per_item", per(c.insts), "insts");
    layer("cpu.sim_cycles_per_item", per(c.cycles), "cycles");
    layer("cpu.wrongpath_insts_per_item", per(c.wrongPathInsts),
          "insts");
    layer("cpu.superblock_inst_share",
          c.insts ? double(c.blockInsts) / double(c.insts) : 0.0,
          "ratio");
    layer("cpu.decode_hit_rate",
          double(c.decodeHits) /
              double(std::max<uint64_t>(1, c.decodeHits + c.decodeMisses)),
          "ratio");
    layer("cpu.trace_replays_per_item", per(c.traceReplays), "count");
    layer("cpu.trace_records_per_item", per(c.traceRecords), "count");
    layer("cpu.trace_breaks_noise_per_item", per(c.traceBreaksNoise),
          "count");
    layer("cpu.trace_breaks_eviction_per_item",
          per(c.traceBreaksEviction), "count");
    layer("mem.dtlb_misses_per_item", per(c.dtlbMisses), "count");
    layer("mem.l1d_misses_per_item", per(c.l1dMisses), "count");
    layer("mem.l2tlb_misses_per_item", per(c.l2tlbMisses), "count");
    layer("kernel.syscalls_per_item", per(c.syscalls), "count");

    counts["sim.insts"] = c.insts;
    counts["sim.cycles"] = c.cycles;
    counts["sim.wrongpath_insts"] = c.wrongPathInsts;
    counts["sim.syscalls"] = c.syscalls;
    counts["sim.dtlb_misses"] = c.dtlbMisses;
    counts["sim.l1d_misses"] = c.l1dMisses;
    counts["sim.l2tlb_misses"] = c.l2tlbMisses;
    counts["host.block_insts"] = c.blockInsts;
    counts["host.decode_hits"] = c.decodeHits;
    counts["host.decode_misses"] = c.decodeMisses;
    counts["host.trace_replays"] = c.traceReplays;
    counts["host.trace_records"] = c.traceRecords;
    counts["host.trace_breaks_noise"] = c.traceBreaksNoise;
    counts["host.trace_breaks_eviction"] = c.traceBreaksEviction;
}

SampleStat
perCallSeconds(Tracer &tr, const char *name, unsigned reps, unsigned per,
               const std::function<void()> &fn)
{
    SampleStat s;
    for (unsigned r = 0; r < reps; ++r) {
        s.add(tr.timed(name, [&] {
            for (unsigned i = 0; i < per; ++i)
                fn();
        }, r) / per);
    }
    return s;
}

double
hostReferenceMs()
{
    // A dependent multiply-xorshift chain: no memory traffic, no
    // calls, so its time tracks only how fast the host runs us.
    const Clock::time_point t0 = Clock::now();
    volatile uint64_t sink = 0;
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint64_t i = 0; i < 40'000'000; ++i) {
        x ^= x >> 29;
        x *= 0xBF58476D1CE4E5B9ull;
    }
    sink = x;
    (void)sink;
    return seconds(t0, Clock::now()) * 1e3;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

} // namespace pacbench
