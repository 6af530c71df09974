/**
 * @file
 * Layer probes of the traced run: short timed loops over one layer's
 * public functions, run on the workload's own replica after its timed
 * phase (they perturb the replica, so they always run last).
 */

#ifndef PACBENCH_PROBES_HH
#define PACBENCH_PROBES_HH

#include "attack/oracle.hh"
#include "bench.hh"

namespace pacbench
{

/**
 * crypto.pac_hit_ns / pac_miss_ns, kernel.noise_us / rekey_us,
 * sim.capture_ms / restore_us / pages_copied_per_restore, and
 * attack.query_us unless the report already has it. Rekeys @p machine
 * last, so the replica is unusable afterwards.
 */
void probeLayers(Report &rep, Tracer &tr, pacman::kernel::Machine &machine,
                 pacman::attack::PacOracle &oracle, pacman::isa::Addr target,
                 uint64_t modifier, pacman::crypto::PacKeySelect sel);

/** Report a layer metric the workload does not exercise as 0, with
 *  the reason in its note. */
void absentLayer(Report &rep, const std::string &name,
                 const std::string &unit, const std::string &why);

/** absentLayer() for every runner.* metric and base.journal_append_us. */
void absentRunnerLayers(Report &rep, const std::string &why);

} // namespace pacbench

#endif // PACBENCH_PROBES_HH
