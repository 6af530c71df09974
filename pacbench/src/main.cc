/**
 * @file
 * pacbench_workload: runs one benchmark workload in this process and
 * prints its report. The last line of standard output is the result
 * object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics, or with --trace 1 the per-layer metrics.
 *
 *   pacbench_workload --workload fig8|bruteforce|accuracy_remote
 *                     --seed N --seconds S --trace 0|1
 *                     [--jobs 1|2] [--out-dir DIR]
 *
 * --jobs: bruteforce campaign workers (default 1); the self-test
 * compares the exact counts of 1 and 2.
 *
 * Lines before it: the output checks, every metric with its unit and
 * sample count, the exact counts (COUNTS, a JSON object the
 * determinism test compares), and a host-speed diagnostic (DIAG):
 * a fixed integer loop timed before and after the workload.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "bench.hh"

using namespace pacbench;
using pacman::strprintf;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: pacbench_workload --workload "
                 "fig8|bruteforce|accuracy_remote --seed N --seconds S "
                 "--trace 0|1 [--jobs 1|2] [--out-dir DIR]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, &end, 0);
        else if (a == "--seconds")
            o.seconds = std::strtod(v, &end);
        else if (a == "--trace")
            o.trace = std::strtoul(v, &end, 0) != 0;
        else if (a == "--jobs")
            o.jobs = unsigned(std::strtoul(v, &end, 0));
        else if (a == "--out-dir")
            o.outDir = v;
        else
            usage(("unknown flag " + a).c_str());
        if (end && *end)
            usage(("malformed value for " + a).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    // bruteforce defaults to one worker: at two, its throughput spread
    // across runs was twice fig8's on the 4-vCPU development host
    // (pacbench/README.md, "Steadiness").
    if (!(o.seconds > 0) || o.jobs < 1 || o.jobs > 2)
        usage("need --seconds > 0 and --jobs 1..2");
    if (o.jobs != 1 && o.workload != "bruteforce")
        usage("--jobs applies to bruteforce only");
    return o;
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out;
    for (const Metric &m : ms) {
        out += strprintf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                         out.empty() ? "" : ",", m.name.c_str(), m.value,
                         m.unit.c_str());
    }
    return "{" + out + "}";
}

void
printMetrics(const char *kind, const std::vector<Metric> &ms)
{
    for (const Metric &m : ms) {
        std::printf("%-7s %-36s %14.6g %-6s", kind, m.name.c_str(),
                    m.value, m.unit.c_str());
        if (m.samples)
            std::printf(" n=%llu", (unsigned long long)m.samples);
        if (!m.note.empty())
            std::printf("  (%s)", m.note.c_str());
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    Report (*run)(const Options &, Tracer &) = nullptr;
    if (opt.workload == "fig8")
        run = runFig8;
    else if (opt.workload == "bruteforce")
        run = runBruteforce;
    else if (opt.workload == "accuracy_remote")
        run = runAccuracyRemote;
    else
        usage(("unknown workload " + opt.workload).c_str());
    std::filesystem::create_directories(opt.outDir);

    std::printf("== pacbench %s: seed %llu, %.3g s, trace %d ==\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                opt.seconds, int(opt.trace));
    const double ref_before = hostReferenceMs();
    Tracer tracer;
    Report rep = run(opt, tracer);
    const double ref_after = hostReferenceMs();

    for (const std::string &c : rep.checks)
        std::printf("check   %s\n", c.c_str());
    printMetrics("metric", rep.endToEnd);
    printMetrics("detail", rep.detail);
    printMetrics("layer", rep.layers);

    std::string counts;
    for (const auto &[k, v] : rep.counts)
        counts += strprintf("%s\"%s\":%llu", counts.empty() ? "" : ",",
                            k.c_str(), (unsigned long long)v);
    std::printf("COUNTS {%s}\n", counts.c_str());

    std::string trace_file;
    if (opt.trace) {
        trace_file = strprintf("%s/trace-%s-%llu-%d.jsonl",
                               opt.outDir.c_str(), opt.workload.c_str(),
                               (unsigned long long)opt.seed, int(getpid()));
        tracer.write(trace_file);
    }
    std::string windows;
    for (double v : rep.windowItemsPerS)
        windows += strprintf("%s%.6g", windows.empty() ? "" : ",", v);
    std::printf("DIAG {\"host_ref_ms_before\":%.3f,\"host_ref_ms_after\":"
                "%.3f,\"window_items_per_s\":[%s],\"spans\":%zu,"
                "\"trace_file\":\"%s\"}\n",
                ref_before, ref_after, windows.c_str(), tracer.size(),
                trace_file.c_str());

    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":%s}\n",
                rep.correct ? "true" : "false",
                (unsigned long long)rep.attempted,
                (unsigned long long)rep.failed,
                metricsJson(opt.trace ? rep.layers : rep.endToEnd).c_str());
    return 0;
}
