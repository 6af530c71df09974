#include "probes.hh"

#include "crypto/pac.hh"
#include "isa/pointer.hh"
#include "sim/snapshot.hh"

namespace pacbench
{

using namespace pacman;

void
probeLayers(Report &rep, Tracer &tr, kernel::Machine &machine,
            attack::PacOracle &oracle, isa::Addr target, uint64_t modifier,
            crypto::PacKeySelect sel)
{
    volatile uint16_t sink = 0;
    const uint64_t ptr = isa::stripPac(target);
    const crypto::PacKey live = machine.core().pacKey(sel);
    rep.timing("crypto.pac_hit_ns",
               perCallSeconds(tr, "probe.pac_hit", 15, 2000, [&] {
                   sink = crypto::computePac(ptr, modifier, live,
                                             isa::PacBits);
               }),
               1e9, "ns");
    uint64_t fresh = 0;
    rep.timing("crypto.pac_miss_ns",
               perCallSeconds(tr, "probe.pac_miss", 15, 200, [&] {
                   ++fresh;
                   const crypto::PacKey key{
                       live.w0 ^ (fresh * 0x9E3779B97F4A7C15ull),
                       live.k0 + fresh};
                   sink = crypto::computePac(ptr, modifier, key,
                                             isa::PacBits);
               }),
               1e9, "ns");
    (void)sink;

    uint16_t guess = 0;
    if (rep.layerValue("attack.query_us") == 0) {
        for (unsigned i = 0; i < 16; ++i) // refill caches after the run
            oracle.probeMisses(++guess);
        rep.timing("attack.query_us",
                   perCallSeconds(tr, "probe.query", 31, 16,
                                  [&] { oracle.probeMisses(++guess); }),
                   1e6, "us", "probe: probeMisses on the workload replica");
    }

    // Capture, then restore after a query dirtied the replica: the
    // restore cost a campaign item pays.
    std::optional<sim::ReplicaCheckpoint> cp;
    rep.timing("sim.capture_ms",
               perCallSeconds(tr, "probe.capture", 5, 1,
                              [&] {
                                  cp.reset();
                                  cp.emplace(machine, oracle);
                              }),
               1e3, "ms");
    SampleStat restore_s;
    for (unsigned i = 0; i < 31; ++i) {
        oracle.probeMisses(++guess);
        restore_s.add(tr.timed("probe.restore", [&] { cp->restore(); }, i));
    }
    rep.timing("sim.restore_us", restore_s, 1e6, "us");
    const sim::CheckpointStats &cs = cp->stats();
    rep.layer("sim.pages_copied_per_restore",
              double(cs.pagesCopied) / double(cs.restores), "pages");

    rep.timing("kernel.noise_us",
               perCallSeconds(tr, "probe.noise", 15, 200,
                              [&] { machine.injectNoise(); }),
               1e6, "us");
    uint64_t key_seed = 0;
    rep.timing("kernel.rekey_us",
               perCallSeconds(tr, "probe.rekey", 15, 20,
                              [&] { machine.rekey(++key_seed); }),
               1e6, "us");
}

void
absentLayer(Report &rep, const std::string &name, const std::string &unit,
            const std::string &why)
{
    rep.layer(name, 0.0, unit, 0, "absent: " + why);
}

void
absentRunnerLayers(Report &rep, const std::string &why)
{
    absentLayer(rep, "runner.chunk_ms", "ms", why);
    absentLayer(rep, "runner.worker_busy_share", "ratio", why);
    absentLayer(rep, "runner.codec_us", "us", why);
    absentLayer(rep, "runner.ipc_rtt_us", "us", why);
    absentLayer(rep, "runner.remote_overhead_share", "ratio", why);
    absentLayer(rep, "runner.busy_rejections", "count", why);
    absentLayer(rep, "base.journal_append_us", "us", why);
}

} // namespace pacbench
