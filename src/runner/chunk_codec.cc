#include "chunk_codec.hh"

#include <array>
#include <bit>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <type_traits>

#include "base/logging.hh"

namespace pacman::runner
{

namespace
{

/** Stream id for per-trial PAC-key rotation (accuracy campaigns):
 *  key draws must come from a stream distinct from the trial's main
 *  stream or the first jitter draws would correlate with the keys. */
constexpr uint64_t KeySeedStream = 0x4B65'7973ull; // "Keys"

// --- Chunk payload (de)serialization -------------------------------
//
// One tagged line per embedded struct. The unsigned fields of the S
// (after found + 1), O and F lines, in wire order, as pointers into a
// const or mutable struct:
constexpr auto statsFields = [](auto &s) {
    return std::array{&s.guessesTested,   &s.oracleQueries,
                      &s.cyclesSimulated, &s.samplesTaken,
                      &s.escalations,     &s.candidateRetries};
};

constexpr auto oracleFields = [](auto &o) {
    return std::array{&o.busyRetries, &o.disturbedQueries,
                      &o.retriedQueries, &o.calibrations, &o.repairs};
};

constexpr auto faultFields = [](auto &f) {
    return std::array{&f.contextSwitches, &f.fullFlushes,
                      &f.partialFlushes,  &f.preemptions,
                      &f.preemptedCycles, &f.timerStalls,
                      &f.timerSkews,      &f.jitterBursts,
                      &f.busyArms,        &f.migrations,
                      &f.hangs};
};

template <class Fields>
void
appendFields(std::string &out, const Fields &fields)
{
    char buf[24];
    for (const uint64_t *f : fields) {
        out += ' ';
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), *f).ptr);
    }
}

template <class Fields>
bool
decodeFields(std::istringstream &in, const Fields &fields)
{
    for (uint64_t *f : fields)
        if (!(in >> *f))
            return false;
    return true;
}

/** Append one result's S, O and F lines, a brute-force chunk's D line
 *  and the Q line of a quarantine. D holds the samples in insertion
 *  order: mean() sums in that order, so keeping it keeps rounding
 *  identical on decode. */
template <class R>
void
appendResult(std::string &out, const R &r)
{
    const uint64_t found1 = r.stats.found ? *r.stats.found + 1 : 0;
    out += 'S';
    appendFields(out, std::array{&found1});
    appendFields(out, statsFields(r.stats));
    out += "\nO";
    appendFields(out, oracleFields(r.oracle));
    out += "\nF";
    appendFields(out, faultFields(r.faults));
    out += '\n';
    if constexpr (std::is_same_v<R, BfChunkResult>) {
        const std::vector<double> &samples = r.decisions.samples();
        const uint64_t n = samples.size();
        out += 'D';
        appendFields(out, std::array{&n});
        char hex[20];
        for (double v : samples) {
            std::snprintf(hex, sizeof(hex), " %016llx",
                          (unsigned long long)std::bit_cast<uint64_t>(v));
            out += hex;
        }
        out += '\n';
    }
    if (r.quarantine)
        out += "Q " + r.quarantine->serialize() + "\n";
}

bool
decodeSamples(std::istringstream &in, SampleStat &s)
{
    unsigned long long n = 0;
    if (!(in >> n))
        return false;
    for (unsigned long long i = 0; i < n; ++i) {
        uint64_t bits = 0;
        if (!parseHex64(in, bits))
            return false;
        s.add(std::bit_cast<double>(bits));
    }
    return true;
}

/** Bits of the line tags a decoder has seen for one result. */
constexpr unsigned SeenS = 1, SeenO = 2, SeenF = 4, SeenQ = 8, SeenD = 16;

/**
 * Decode one tagged line of a brute-force chunk or of one trial into
 * @p r, which starts default. False on a malformed line or on a tag
 * already in @p seen; unknown tags are skipped.
 */
template <class R>
bool
decodeResultLine(const std::string &tag, std::istringstream &in, R &r,
                 unsigned &seen)
{
    unsigned bit = 0;
    bool ok = true;
    if (tag == "S") {
        unsigned long long found1 = 0;
        bit = SeenS;
        ok = (in >> found1) && found1 <= 0x10000 &&
             decodeFields(in, statsFields(r.stats));
        if (found1)
            r.stats.found = uint16_t(found1 - 1);
    } else if (tag == "O") {
        bit = SeenO;
        ok = decodeFields(in, oracleFields(r.oracle));
    } else if (tag == "F") {
        bit = SeenF;
        ok = decodeFields(in, faultFields(r.faults));
    } else if (tag == "Q") {
        std::string rest;
        std::getline(in, rest);
        bit = SeenQ;
        r.quarantine = QuarantineRecord::parse(
            rest.empty() || rest.front() != ' ' ? rest : rest.substr(1));
        ok = r.quarantine.has_value();
    } else if constexpr (std::is_same_v<R, BfChunkResult>) {
        if (tag == "D") {
            bit = SeenD;
            ok = decodeSamples(in, r.decisions);
        }
    }
    if (seen & bit)
        return false;
    seen |= bit;
    return ok;
}

/**
 * Run one supervised work item into @p r, which covers items
 * [first, last] of chunk @p chunk_index. An item no ladder rung
 * completed keeps only its quarantine record: the partial attempt's
 * statistics are dropped. Returns whether the item completed.
 */
template <class Config, class R>
bool
runItem(Worker &w, const Config &cfg, const WorkRequest &req,
        const WorkFn &fn, R &r, uint64_t chunk_index, uint64_t first,
        uint64_t last)
{
    const WorkOutcome oc = w.run(req, fn);
    r.faults = w.faultStats();
    if (oc.completed)
        return true;
    r = R{};
    r.quarantine = QuarantineRecord{
        CampaignKind<Config>::Name, cfg.seed, chunk_index, first, last,
        req.streamSeed, req.rekeySeed.value_or(0),
        req.rekeySeed.has_value(),
        oc.quarantined.value_or(WorkerFaultKind::PoisonedItem),
        oc.detail};
    return false;
}

} // anonymous namespace

attack::ResamplePolicy
resamplePolicy(const ReplicaConfig &cfg)
{
    attack::ResamplePolicy policy;
    policy.samples = cfg.samples;
    policy.maxSamples = cfg.maxSamples;
    policy.candidateRetries = cfg.candidateRetries;
    return policy;
}

std::string
encodeBfChunk(const BfChunkResult &r)
{
    std::string out;
    appendResult(out, r);
    return out;
}

bool
decodeBfChunk(const std::string &payload, BfChunkResult &r)
{
    r = BfChunkResult{};
    std::istringstream lines(payload);
    std::string line, tag;
    unsigned seen = 0;
    while (std::getline(lines, line)) {
        std::istringstream in(line);
        if ((in >> tag) && !decodeResultLine(tag, in, r, seen))
            return false;
    }
    const unsigned required = SeenS | SeenO | SeenF | SeenD;
    return (seen & required) == required;
}

std::string
encodeTrialChunk(const std::vector<TrialResult> &trials,
                 const Chunk &chunk)
{
    std::string out;
    for (uint64_t t = chunk.firstItem; t <= chunk.lastItem; ++t) {
        const TrialResult &r = trials[t - chunk.firstItem];
        out += strprintf("T %llu %u\n", (unsigned long long)t,
                         unsigned(r.verdict));
        appendResult(out, r);
    }
    return out;
}

bool
decodeTrialChunk(const std::string &payload,
                 std::vector<TrialResult> &trials, const Chunk &chunk)
{
    // Trials must arrive in order, each once, each with its S, O and
    // F lines: a payload is bytes from outside the process (the
    // journal, or a server's reply), and a repeated or missing trial
    // must not decode to a silent default.
    const uint64_t count = chunk.size();
    if (trials.size() != count)
        trials.assign(count, TrialResult{});
    const unsigned required = SeenS | SeenO | SeenF;
    std::istringstream lines(payload);
    std::string line, tag;
    uint64_t decoded = 0;
    unsigned seen = required;
    while (std::getline(lines, line)) {
        std::istringstream in(line);
        if (!(in >> tag))
            continue;
        if (tag == "T") {
            unsigned long long t = 0;
            unsigned v = 0;
            if ((seen & required) != required || decoded == count ||
                !(in >> t >> v) || t != chunk.firstItem + decoded ||
                v > unsigned(TrialVerdict::Quarantined))
                return false;
            TrialResult &r = trials[decoded++];
            r = TrialResult{};
            r.verdict = TrialVerdict(v);
            seen = 0;
        } else if (decoded == 0 ||
                   !decodeResultLine(tag, in, trials[decoded - 1],
                                     seen)) {
            return false;
        }
    }
    return decoded == count && (seen & required) == required;
}

std::string
executeBfChunk(Worker &w, const BruteForceCampaignConfig &cfg,
               const Chunk &chunk)
{
    BfChunkResult r;
    // Same provision seed on every replica (same PAC keys — they are
    // sweeping for the *same* PAC), per-chunk RNG stream from the
    // item's index.
    const WorkRequest req{Random::deriveSeed(cfg.seed, chunk.index),
                          std::nullopt};
    runItem(
        w, cfg, req,
        [&](attack::PacOracle &oracle, kernel::Machine &) {
            // Reset first: the recovery ladder may run this several
            // times for one chunk.
            r = BfChunkResult{};
            attack::PacBruteForcer forcer(oracle,
                                          resamplePolicy(cfg.replica));
            r.stats = forcer.search(
                uint16_t(cfg.first + chunk.firstItem),
                uint16_t(cfg.first + chunk.lastItem), &r.decisions);
            r.oracle = oracle.stats();
        },
        r, chunk.index, cfg.first + chunk.firstItem,
        cfg.first + chunk.lastItem);
    return encodeBfChunk(r);
}

std::string
executeAccuracyChunk(Worker &w, const AccuracyCampaignConfig &cfg,
                     const Chunk &chunk)
{
    std::vector<TrialResult> trials(chunk.size());
    for (uint64_t trial = chunk.firstItem; trial <= chunk.lastItem;
         ++trial) {
        // Fresh keys per trial — rekey from a dedicated key stream
        // (the checkpointed equivalent of a per-trial reboot) — then
        // the per-trial main stream.
        const uint64_t stream = Random::deriveSeed(cfg.seed, trial);
        const WorkRequest req{stream,
                              Random::deriveSeed(stream, KeySeedStream)};
        TrialResult &r = trials[trial - chunk.firstItem];
        if (!runItem(
                w, cfg, req,
                [&](attack::PacOracle &oracle, kernel::Machine &machine) {
                    runAccuracyTrial(cfg, oracle, machine, r);
                },
                r, chunk.index, trial, trial))
            r.verdict = TrialVerdict::Quarantined;
    }
    return encodeTrialChunk(trials, chunk);
}

void
runAccuracyTrial(const AccuracyCampaignConfig &cfg,
                 attack::PacOracle &oracle, kernel::Machine &machine,
                 TrialResult &r)
{
    r = TrialResult{};
    const auto sel =
        cfg.replica.oracle.kind == attack::GadgetKind::Data
            ? crypto::PacKeySelect::DA
            : crypto::PacKeySelect::IA;
    const uint16_t truth = machine.kernel().truePac(
        cfg.replica.target, cfg.replica.modifier, sel);

    uint16_t first = 0x0000, last = 0xFFFF;
    if (cfg.window != 0) {
        // Window placed from ground truth for scaling only; each
        // candidate is decided by the oracle.
        const uint32_t start = truth >= cfg.window / 2
                                   ? truth - cfg.window / 2
                                   : 0;
        first = uint16_t(start);
        last = uint16_t(
            std::min<uint32_t>(start + cfg.window - 1, 0xFFFF));
    }

    attack::PacBruteForcer forcer(oracle, resamplePolicy(cfg.replica));
    r.stats = forcer.search(first, last);
    r.oracle = oracle.stats();
    if (!r.stats.found)
        r.verdict = TrialVerdict::FalseNegative;
    else if (*r.stats.found == truth)
        r.verdict = TrialVerdict::TruePositive;
    else
        r.verdict = TrialVerdict::FalsePositive;
}

} // namespace pacman::runner
