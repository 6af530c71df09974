/**
 * @file
 * Build a PAC oracle against the kernel (paper Section 8.1) and watch
 * it separate the one correct PAC from wrong guesses without a single
 * crash — the core PACMAN primitive.
 *
 *   $ ./example_pac_oracle_demo [--jobs N] [--no-snapshot]
 *                               [--server ENDPOINT]
 *                               [--endpoints A,B,...]
 *
 * --jobs N runs the closing brute-force demo on the deterministic
 * parallel campaign runner with N worker threads (default 1). The
 * found PAC and merged statistics are bit-identical for every N.
 * --no-snapshot makes each work item re-provision its replica from
 * scratch instead of restoring a checkpoint (see --help).
 * --server ENDPOINT additionally dispatches the campaign's chunks to
 * a running pacman-oracled (e.g. unix:/tmp/oracled.sock) and checks
 * the remote fingerprint against the in-process one.
 * --endpoints A,B,... does the same over several daemons with
 * health-tracked failover (runner/dispatch.hh): endpoints may die or
 * wedge mid-campaign and the fingerprint still matches.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "attack/bruteforce.hh"
#include "attack/oracle.hh"
#include "kernel/layout.hh"
#include "runner/campaign.hh"
#include "runner/client.hh"
#include "runner/dispatch.hh"

using namespace pacman;
using namespace pacman::attack;
using namespace pacman::kernel;

namespace
{

void
demoOracle(Machine &machine, AttackerProcess &proc, GadgetKind kind)
{
    const bool data = kind == GadgetKind::Data;
    std::printf("--- %s PACMAN gadget ---\n",
                data ? "data" : "instruction");

    OracleConfig cfg;
    cfg.kind = kind;
    PacOracle oracle(proc, cfg);

    // Forge a pointer to a kernel object of our choosing.
    const isa::Addr target =
        data ? BenignDataBase + 37 * isa::PageSize
             : TrampolineBase + 37 * isa::PageSize;
    const uint64_t modifier = 0x5A5A;
    oracle.setTarget(target, modifier);
    std::printf("target kernel address 0x%016llx, modifier 0x%llx\n",
                (unsigned long long)target,
                (unsigned long long)modifier);

    // The ground truth (the kernel's secret — shown only to grade the
    // oracle, never used by it).
    const uint16_t truth = machine.kernel().truePac(
        target, modifier,
        data ? crypto::PacKeySelect::DA : crypto::PacKeySelect::IA);

    std::printf("%-12s %-14s %s\n", "guess", "probe misses",
                "oracle verdict");
    for (int delta : {-2, -1, 0, 1, 2}) {
        const uint16_t guess = uint16_t(truth + delta);
        const unsigned misses = oracle.probeMisses(guess);
        std::printf("0x%04x       %-14u %s%s\n", guess, misses,
                    misses >= cfg.missThreshold ? "CORRECT PAC"
                                                : "wrong",
                    delta == 0 ? "   <-- truth" : "");
    }
    std::printf("oracle queries so far: %llu, machine alive: %s\n\n",
                (unsigned long long)oracle.queries(),
                machine.core().el() == 0 ? "yes" : "no");
}

void
usage(const char *prog)
{
    std::printf(
        "usage: %s [--jobs N] [--no-snapshot] [--server ENDPOINT]\n"
        "          [--endpoints A,B,...] [--help]\n"
        "\n"
        "  --jobs N       run the closing brute-force demo on the\n"
        "                 parallel campaign runner with N worker\n"
        "                 threads (default 1).\n"
        "  --no-snapshot  re-provision each work item's replica from\n"
        "                 scratch instead of restoring a checkpoint.\n"
        "  --server E     also dispatch the campaign to a running\n"
        "                 pacman-oracled at E (unix:PATH,\n"
        "                 tcp:HOST:PORT or tcp:[V6]:PORT) and verify\n"
        "                 the remote fingerprint matches the\n"
        "                 in-process one.\n"
        "  --endpoints L  like --server, but spread the chunks over a\n"
        "                 comma-separated list of endpoints with\n"
        "                 health-tracked failover (runner/dispatch.hh):\n"
        "                 chunks on a dead or wedged endpoint are\n"
        "                 redispatched to the survivors, and the\n"
        "                 merged fingerprint still matches.\n"
        "  --help         show this message.\n"
        "\n"
        "The campaign splits the guess range into fixed-size chunks\n"
        "(8 guesses here); workers claim chunks from a shared queue,\n"
        "so the chunk size only sets the work-stealing granularity.\n"
        "Every chunk seeds its RNG from (campaign seed, item index),\n"
        "never from the claiming thread, and results merge in index\n"
        "order — the found PAC and merged statistics are therefore\n"
        "bit-identical for every --jobs value, and identical again\n"
        "with or without --no-snapshot (checkpoint restore rewinds\n"
        "the replica bit-exactly; tests/runner/test_snapshot_equiv.cc\n"
        "holds that line). Only the wall time changes.\n",
        prog);
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 1;
    bool snapshot = true;
    std::string server;
    std::vector<std::string> endpoints;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            jobs = unsigned(std::strtoul(argv[++i], nullptr, 0));
        } else if (!std::strcmp(argv[i], "--no-snapshot")) {
            snapshot = false;
        } else if (!std::strcmp(argv[i], "--server") && i + 1 < argc) {
            server = argv[++i];
        } else if (!std::strcmp(argv[i], "--endpoints") &&
                   i + 1 < argc) {
            const std::string list = argv[++i];
            size_t pos = 0;
            while (pos < list.size()) {
                size_t next = list.find(',', pos);
                if (next == std::string::npos)
                    next = list.size();
                if (next > pos)
                    endpoints.push_back(list.substr(pos, next - pos));
                pos = next + 1;
            }
        } else if (!std::strcmp(argv[i], "--help")) {
            usage(argv[0]);
            return 0;
        }
    }

    Machine machine;
    AttackerProcess proc(machine);
    std::printf("== PAC oracle demo (Section 8.1) ==\n\n");

    demoOracle(machine, proc, GadgetKind::Data);
    demoOracle(machine, proc, GadgetKind::Instruction);

    // Mini brute force over a small window around the truth, run as
    // a campaign on the parallel runner. The campaign replicas boot
    // from this machine's seed, so they search for the same keys'
    // PAC; the output is identical for any --jobs value.
    const unsigned workers = runner::effectiveJobs(jobs);
    std::printf("--- brute force (windowed demo, %u worker%s) ---\n",
                workers, workers == 1 ? "" : "s");
    const isa::Addr target = BenignDataBase + 41 * isa::PageSize;
    const uint16_t truth = machine.kernel().truePac(
        target, 0x77, crypto::PacKeySelect::DA);
    const uint16_t start = uint16_t(truth & 0xFFF0);

    runner::BruteForceCampaignConfig cfg;
    cfg.replica.machine = machine.config();
    cfg.replica.target = target;
    cfg.replica.modifier = 0x77;
    cfg.first = start;
    cfg.last = uint16_t(start + 31);
    cfg.pool.jobs = jobs;
    cfg.pool.chunkSize = 8;
    cfg.replica.snapshot = snapshot;
    const auto campaign = runner::runBruteForceCampaign(cfg);
    const auto &stats = campaign.stats;
    if (stats.found) {
        std::printf("found PAC 0x%04x after %llu guesses "
                    "(truth 0x%04x) — %s\n",
                    *stats.found,
                    (unsigned long long)stats.guessesTested, truth,
                    *stats.found == truth ? "MATCH" : "MISMATCH");
        std::printf("campaign: %u worker%s, %.3f s wall, %llu/%llu "
                    "chunks merged\n", campaign.jobs,
                    campaign.jobs == 1 ? "" : "s", campaign.wallSeconds,
                    (unsigned long long)campaign.chunksMerged,
                    (unsigned long long)(campaign.chunksRun +
                                         campaign.chunksSkipped));
    } else {
        std::printf("no PAC found in the window (rerun; oracle "
                    "false negatives are retryable)\n");
    }

    // Client mode: the same campaign, chunk execution delegated to
    // pacman-oracled over the wire — one endpoint (--server) or a
    // failover pool (--endpoints). The merged output must be
    // byte-identical — the server runs the same chunk codec against
    // a replica provisioned from the bit-exact decoded config, and
    // which endpoint served a chunk never changes its payload.
    if (!server.empty() || !endpoints.empty()) {
        if (!server.empty())
            endpoints.insert(endpoints.begin(), server);
        std::printf("\n--- remote campaign via %zu endpoint%s ---\n",
                    endpoints.size(),
                    endpoints.size() == 1 ? "" : "s");
        try {
            runner::DispatchConfig dcfg;
            dcfg.endpoints = endpoints;
            dcfg.chunkDeadlineSeconds = 30;
            const auto remote =
                runner::runBruteForceCampaignRemote(cfg, dcfg);
            const bool identical =
                remote.fingerprint() == campaign.fingerprint();
            if (remote.stats.found) {
                std::printf("server found PAC 0x%04x — %s\n",
                            *remote.stats.found,
                            *remote.stats.found == truth ? "MATCH"
                                                         : "MISMATCH");
            }
            if (remote.dispatch.faults() > 0) {
                std::printf(
                    "survived %llu endpoint fault%s (%llu chunk%s "
                    "redispatched)\n",
                    (unsigned long long)remote.dispatch.faults(),
                    remote.dispatch.faults() == 1 ? "" : "s",
                    (unsigned long long)remote.dispatch.retries,
                    remote.dispatch.retries == 1 ? "" : "s");
            }
            std::printf("remote fingerprint %s the in-process one\n",
                        identical ? "IDENTICAL to"
                                  : "DIVERGED from");
            if (!identical)
                return 1;
        } catch (const std::exception &e) {
            std::printf("remote campaign failed: %s\n", e.what());
            std::printf("(is pacman-oracled running? start it with\n"
                        "   pacman-oracled --socket /tmp/oracled.sock)\n");
            return 1;
        }
    }
    return 0;
}
