#include "worker.hh"

#include <chrono>

#include "base/logging.hh"
#include "base/stats.hh"
#include "sim/fingerprint.hh"
#include "sim/snapshot.hh"

namespace pacman::runner
{

namespace
{

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // anonymous namespace

/**
 * The worker's replica: a private machine stack. Construction
 * provisions it completely — boot (PAC keys drawn from the config's
 * machine seed), guest-program assembly, eviction-set build, target
 * binding, calibration — all under the boot stream, so the
 * post-provisioning state is a pure function of the configuration.
 */
struct Worker::Stack
{
    explicit Stack(const ReplicaConfig &cfg)
        : machine(cfg.machine), proc(machine), oracle(proc, cfg.oracle)
    {
        oracle.setTarget(cfg.target, cfg.modifier);
    }

    kernel::Machine machine;
    attack::AttackerProcess proc;
    attack::PacOracle oracle;
    std::optional<sim::ReplicaCheckpoint> checkpoint;
    std::optional<sim::FaultInjector> injector;
};

Worker::Worker(const ReplicaConfig &cfg, const SupervisionConfig &sup)
    : cfg_(cfg), sup_(sup)
{
    cfg_.faults.validate();
}

Worker::~Worker() = default;

void
Worker::ensureProvisioned()
{
    if (stack_)
        return;
    stack_ = std::make_unique<Stack>(cfg_);
    ++provisions_;
    if (cfg_.snapshot) {
        stack_->checkpoint.emplace(stack_->machine, stack_->oracle);
        provisionFp_ =
            sup_.verifyFingerprint
                ? sim::replicaFingerprint(stack_->machine, stack_->oracle)
                : 0;
    }
}

attack::PacOracle &
Worker::oracle()
{
    ensureProvisioned();
    return stack_->oracle;
}

kernel::Machine &
Worker::machine()
{
    ensureProvisioned();
    return stack_->machine;
}

void
Worker::beginItem(const WorkRequest &req)
{
    Stack &st = *stack_;

    // Detach the previous item's hook and injector before touching
    // any machine state; neither must observe the rewind.
    st.machine.setDisturbanceHook(nullptr);
    st.injector.reset();
    if (st.checkpoint)
        st.checkpoint->restore();
    if (req.rekeySeed) {
        st.machine.rekey(*req.rekeySeed);
        st.oracle.refreshLegitPointer();
    }
    st.machine.reseedRng(req.streamSeed);

    // Faults attach only after provisioning: set construction and
    // calibration run undisturbed, and the injector's own stream
    // keeps the replica a pure function of the item.
    if (cfg_.faults.enabled())
        st.injector.emplace(st.machine, cfg_.faults,
                            Random::deriveSeed(req.streamSeed,
                                               sim::FaultSeedStream));

    // Arm the watchdogs. The machine's disturbance slot has exactly
    // one consumer, so the supervisor owns it and forwards each
    // opportunity to the injector itself (never injector->attach());
    // budget checks therefore run first and observe the cycles any
    // previously injected wedge burned.
    itemStartCycle_ = st.machine.core().cycle();
    deadlineAt_ = sup_.budget.hostDeadlineSeconds > 0
                      ? monotonicSeconds() + sup_.budget.hostDeadlineSeconds
                      : 0;
    if (sup_.budget.maxGuestCycles > 0 || deadlineAt_ > 0 ||
        st.injector) {
        st.machine.setDisturbanceHook([this] { onOpportunity(); });
    }
}

void
Worker::endItem()
{
    // Disarm the watchdog; the injector stays constructed so
    // faultStats() reflects the attempt just finished.
    if (stack_)
        stack_->machine.setDisturbanceHook(nullptr);
    deadlineAt_ = 0;
}

void
Worker::onOpportunity()
{
    Stack &st = *stack_;
    if (sup_.budget.maxGuestCycles > 0) {
        const uint64_t used =
            st.machine.core().cycle() - itemStartCycle_;
        if (used > sup_.budget.maxGuestCycles) {
            throw WorkerError{
                WorkerFaultKind::Hang,
                strprintf("guest budget exhausted: %llu cycles used, "
                          "budget %llu",
                          (unsigned long long)used,
                          (unsigned long long)sup_.budget.maxGuestCycles)};
        }
    }
    if (deadlineAt_ > 0 && monotonicSeconds() > deadlineAt_) {
        throw WorkerError{
            WorkerFaultKind::Hang,
            strprintf("host deadline exceeded (%.3f s per attempt)",
                      sup_.budget.hostDeadlineSeconds)};
    }
    if (st.injector)
        st.injector->onOpportunity();
}

bool
Worker::integrityOk()
{
    Stack &st = *stack_;
    if (!st.checkpoint)
        return false; // nothing to rewind to — caller escalates
    st.machine.setDisturbanceHook(nullptr);
    st.injector.reset();
    st.checkpoint->restore();
    if (!sup_.verifyFingerprint)
        return true;
    ++recovery_.fingerprintChecks;
    if (!st.proc.verifyRoutines())
        return false;
    return sim::replicaFingerprint(st.machine, st.oracle) ==
           provisionFp_;
}

WorkOutcome
Worker::run(const WorkRequest &req, const WorkFn &fn)
{
    WorkOutcome out;
    std::optional<WorkerFaultKind> firstKind;
    std::string firstDetail;
    unsigned rung = 0; // 0 first try, 1 restore retry, 2 re-provision

    for (;;) {
        // The fresh-provision reference mode rebuilds per item.
        if (!cfg_.snapshot)
            stack_.reset();
        ensureProvisioned();
        try {
            beginItem(req);
            fn(stack_->oracle, stack_->machine);
            endItem();
            out.attempts = rung + 1;
            if (rung > 0) {
                // The failure cleared on a pure retry: transient,
                // unless integrity verification already pinned it on
                // the replica.
                const WorkerFaultKind resolved =
                    firstKind == WorkerFaultKind::ReplicaCorrupt
                        ? WorkerFaultKind::ReplicaCorrupt
                        : WorkerFaultKind::TransientFault;
                if (resolved == WorkerFaultKind::TransientFault)
                    ++recovery_.transientFaults;
                stack_->proc.notifyRecovery(resolved, rung);
            }
            return out;
        } catch (const WorkerError &err) {
            endItem();
            if (err.kind == WorkerFaultKind::Hang)
                ++recovery_.hangs;
            if (!firstKind) {
                firstKind = err.kind;
                firstDetail = err.detail;
            }

            if (rung == 0 && cfg_.snapshot) {
                // Rung 1: rewind the checkpoint; retry only if the
                // restored replica passes its integrity checks.
                rung = 1;
                ++recovery_.restoreRetries;
                if (integrityOk())
                    continue;
                ++recovery_.replicaCorruptions;
                firstKind = WorkerFaultKind::ReplicaCorrupt;
                firstDetail = strprintf(
                    "state fingerprint diverged from provisioning "
                    "(%016llx)",
                    (unsigned long long)provisionFp_);
                // fall through: a corrupt replica goes straight to
                // a full rebuild
            }
            if (rung <= 1) {
                // Rung 2: rebuild the whole stack from configuration.
                rung = 2;
                ++recovery_.reprovisions;
                stack_.reset();
                continue;
            }

            // Rung 3: the item failed a fresh replica too — give up
            // and report it for quarantine.
            ++recovery_.quarantines;
            out.completed = false;
            out.attempts = rung + 1;
            if (firstKind == WorkerFaultKind::ReplicaCorrupt)
                out.quarantined = WorkerFaultKind::ReplicaCorrupt;
            else if (err.kind == WorkerFaultKind::Hang)
                out.quarantined = WorkerFaultKind::Hang;
            else
                out.quarantined = WorkerFaultKind::PoisonedItem;
            out.detail = strprintf(
                "first: %s (%s); final: %s (%s)",
                workerFaultName(*firstKind), firstDetail.c_str(),
                workerFaultName(err.kind), err.detail.c_str());
            return out;
        }
    }
}

FaultStats
Worker::faultStats() const
{
    return (stack_ && stack_->injector) ? stack_->injector->stats()
                                        : FaultStats{};
}

void
Worker::corruptCheckpointForTest(isa::Addr va, uint64_t value)
{
    ensureProvisioned();
    PACMAN_ASSERT(stack_->checkpoint,
                  "corruptCheckpointForTest requires snapshot mode");
    // Damage the guest word, then recapture so the *checkpoint image*
    // carries the corruption — exactly what a torn or bit-flipped
    // snapshot would look like to the recovery ladder. The provision
    // fingerprint is deliberately left at its honest value.
    stack_->machine.mem().writeVirt64(va, value);
    stack_->checkpoint->capture();
}

} // namespace pacman::runner
