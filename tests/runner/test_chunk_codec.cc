/**
 * The chunk codec and the journal meta lines are the bytes a campaign
 * hands across a process boundary (the server's CHUNK reply) or a
 * restart (the journal). These tests pin their formats with golden
 * literals, check that doubles round-trip bit for bit, and feed the
 * decoders malformed payloads that must all be rejected.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "base/journal.hh"
#include "runner/campaign.hh"
#include "runner/chunk_codec.hh"
#include "runner/protocol.hh"

namespace pacman
{
namespace
{

using namespace pacman::runner;

QuarantineRecord
sampleRecord(const char *campaign)
{
    QuarantineRecord q;
    q.campaign = campaign;
    q.campaignSeed = 0x2a;
    q.chunkIndex = 2;
    q.firstItem = 6;
    q.lastItem = 6;
    q.streamSeed = 0x0123456789abcdefull;
    q.rekeySeed = 0xfedcba9876543210ull;
    q.hasRekey = true;
    q.kind = WorkerFaultKind::Hang;
    q.detail = "guest budget spent twice";
    return q;
}

attack::BruteForceStats
sampleStats(uint64_t base)
{
    attack::BruteForceStats s;
    s.found = uint16_t(0x1230 + base);
    s.guessesTested = 128 + base;
    s.oracleQueries = 131 + base;
    s.cyclesSimulated = 9876543 + base;
    s.samplesTaken = 140 + base;
    s.escalations = 3 + base;
    s.candidateRetries = 1 + base;
    return s;
}

attack::OracleStats
sampleOracle()
{
    attack::OracleStats o;
    o.busyRetries = 1;
    o.disturbedQueries = 2;
    o.retriedQueries = 3;
    o.calibrations = 4;
    o.repairs = 5;
    return o;
}

FaultStats
sampleFaults()
{
    FaultStats f;
    f.contextSwitches = 1;
    f.fullFlushes = 2;
    f.partialFlushes = 3;
    f.preemptions = 4;
    f.preemptedCycles = 5;
    f.timerStalls = 6;
    f.timerSkews = 7;
    f.jitterBursts = 8;
    f.busyArms = 9;
    f.migrations = 10;
    f.hangs = 11;
    return f;
}

BfChunkResult
sampleBfChunk()
{
    BfChunkResult r;
    r.stats = sampleStats(0);
    r.decisions.add(3.0);
    r.decisions.add(0.5);
    r.decisions.add(-0.0);
    r.oracle = sampleOracle();
    r.faults = sampleFaults();
    r.quarantine = sampleRecord("bruteforce");
    return r;
}

/** Trials 5 and 6 of chunk 2: a true positive and a quarantine. */
const Chunk TrialChunk{2, 5, 6};

std::vector<TrialResult>
sampleTrials()
{
    std::vector<TrialResult> t(2);
    t[0].verdict = TrialVerdict::TruePositive;
    t[0].stats = sampleStats(1);
    t[0].oracle = sampleOracle();
    t[0].faults = sampleFaults();
    t[1].verdict = TrialVerdict::Quarantined;
    t[1].quarantine = sampleRecord("accuracy");
    return t;
}

const std::string BfChunkGolden =
    "S 4657 128 131 9876543 140 3 1\n"
    "O 1 2 3 4 5\n"
    "F 1 2 3 4 5 6 7 8 9 10 11\n"
    "D 3 4008000000000000 3fe0000000000000 8000000000000000\n"
    "Q campaign=bruteforce seed=000000000000002a chunk=2 first=6 "
    "last=6 stream=0123456789abcdef rekey=fedcba9876543210 kind=hang "
    "detail=guest budget spent twice\n";

const std::string TrialChunkGolden =
    "T 5 0\n"
    "S 4658 129 132 9876544 141 4 2\n"
    "O 1 2 3 4 5\n"
    "F 1 2 3 4 5 6 7 8 9 10 11\n"
    "T 6 3\n"
    "S 0 0 0 0 0 0 0\n"
    "O 0 0 0 0 0\n"
    "F 0 0 0 0 0 0 0 0 0 0 0\n"
    "Q campaign=accuracy seed=000000000000002a chunk=2 first=6 "
    "last=6 stream=0123456789abcdef rekey=fedcba9876543210 kind=hang "
    "detail=guest budget spent twice\n";

TEST(ChunkCodec, BfChunkMatchesGolden)
{
    EXPECT_EQ(encodeBfChunk(sampleBfChunk()), BfChunkGolden);
    BfChunkResult back;
    ASSERT_TRUE(decodeBfChunk(BfChunkGolden, back));
    EXPECT_EQ(encodeBfChunk(back), BfChunkGolden);
}

TEST(ChunkCodec, TrialChunkMatchesGolden)
{
    EXPECT_EQ(encodeTrialChunk(sampleTrials(), TrialChunk),
              TrialChunkGolden);
    std::vector<TrialResult> back;
    ASSERT_TRUE(decodeTrialChunk(TrialChunkGolden, back, TrialChunk));
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].verdict, TrialVerdict::TruePositive);
    EXPECT_EQ(back[1].verdict, TrialVerdict::Quarantined);
    EXPECT_EQ(encodeTrialChunk(back, TrialChunk), TrialChunkGolden);
}

/** encodeReplicaWire() of a default replica and supervision. */
const std::string ReplicaWireGolden =
    "V pacman-oracle-wire-v1\n"
    "M 000000000000002a 400 1 0000000000000000 4\n"
    "C 1 1 1 0 0 0\n"
    "O 0 0 8 30 3 0 24 0 0 0\n"
    "R 0000000000000000 0000000000000000 1 0 0 1\n"
    "F 0000000000000000 3fe0000000000000 24 8 0000000000000000 400 4000 "
    "6 0000000000000000 300 2500 870 1130 5 3000 0000000000000000 1 2 "
    "0000000000000000 3fd3333333333333 0000000000000000 1099511627776\n"
    "B 0 0000000000000000 1\n";

TEST(ChunkCodec, ChunkRequestsMatchGolden)
{
    BruteForceCampaignConfig bf;
    bf.seed = 0x2a;
    bf.first = 0x100;
    bf.last = 0x1ff;
    EXPECT_EQ(encodeBfChunkRequest(bf, Chunk{1, 128, 255}),
              ReplicaWireGolden +
                  "G bf 000000000000002a 256 511\n"
                  "K 1 128 255\n");

    AccuracyCampaignConfig acc;
    acc.seed = 1000;
    acc.trials = 50;
    acc.window = 96;
    EXPECT_EQ(encodeAccuracyChunkRequest(acc, Chunk{3, 6, 7}),
              ReplicaWireGolden +
                  "G acc 00000000000003e8 50 96\n"
                  "K 3 6 7\n");
}

/** The journal records a campaign writes, read back from disk. */
std::vector<Journal::Record>
journalRecords(const std::string &path)
{
    std::vector<Journal::Record> records = Journal::replay(path).records;
    std::remove(path.c_str());
    std::remove((path + ".quarantine").c_str());
    return records;
}

TEST(ChunkCodec, JournalLinesMatchGolden)
{
    const std::string path = ::testing::TempDir() +
                             "pacman_codec_golden.journal";
    std::remove(path.c_str());

    BruteForceCampaignConfig bf;
    bf.seed = 0x2a;
    bf.first = 0x10;
    bf.last = 0x2f;
    bf.pool.chunkSize = 16;
    bf.supervision.journalPath = path;
    runBruteForceCampaignWith(bf, [](unsigned, const Chunk &) {
        return encodeBfChunk(BfChunkResult{});
    });
    std::vector<Journal::Record> rec = journalRecords(path);
    ASSERT_EQ(rec.size(), 3u);
    EXPECT_EQ(rec[0].key, "meta");
    EXPECT_EQ(rec[0].payload,
              "campaign=bruteforce seed=000000000000002a first=16 "
              "last=47 chunk_size=16");
    EXPECT_EQ(rec[1].key, "chunk/000000000000002a/0");
    EXPECT_EQ(rec[1].payload, "S 0 0 0 0 0 0 0\nO 0 0 0 0 0\n"
                              "F 0 0 0 0 0 0 0 0 0 0 0\nD 0\n");

    AccuracyCampaignConfig acc;
    acc.seed = 1000;
    acc.trials = 1;
    acc.window = 24;
    acc.pool.chunkSize = 2;
    acc.supervision.journalPath = path;
    runAccuracyCampaignWith(acc, [](unsigned, const Chunk &chunk) {
        return encodeTrialChunk(std::vector<TrialResult>(1), chunk);
    });
    rec = journalRecords(path);
    ASSERT_EQ(rec.size(), 2u);
    EXPECT_EQ(rec[0].payload,
              "campaign=accuracy seed=00000000000003e8 trials=1 "
              "window=24 chunk_size=2");
    EXPECT_EQ(rec[1].key, "chunk/00000000000003e8/0");
    EXPECT_EQ(rec[1].payload, "T 0 2\nS 0 0 0 0 0 0 0\nO 0 0 0 0 0\n"
                              "F 0 0 0 0 0 0 0 0 0 0 0\n");
}

TEST(ChunkCodec, SamplesRoundTripBitExactInInsertionOrder)
{
    const double values[] = {
        2.5,
        -0.0,
        0.0,
        std::bit_cast<double>(uint64_t(0x7ff8000000000123ull)), // NaN
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min() * 3,
        std::numeric_limits<double>::infinity(),
        -1e300,
        0.1,
    };
    BfChunkResult r;
    for (double v : values)
        r.decisions.add(v);
    BfChunkResult back;
    ASSERT_TRUE(decodeBfChunk(encodeBfChunk(r), back));
    ASSERT_EQ(back.decisions.samples().size(), std::size(values));
    for (size_t i = 0; i < std::size(values); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(back.decisions.samples()[i]),
                  std::bit_cast<uint64_t>(values[i]))
            << "sample " << i;
    }
}

/** Replace the first occurrence of @p from in @p s with @p to. */
std::string
replaced(std::string s, const std::string &from, const std::string &to)
{
    const size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        s.replace(at, from.size(), to);
    return s;
}

TEST(ChunkCodec, RejectsMalformedTrialChunks)
{
    const std::string g = TrialChunkGolden;
    const size_t second = g.find("T 6 3\n");
    const std::string trial5 = g.substr(0, second);
    const struct
    {
        const char *name;
        std::string payload;
    } cases[] = {
        // Trial 5's block twice, trial 6 left out.
        {"duplicate trial", trial5 + trial5},
        {"missing trial", trial5},
        {"index past the chunk", replaced(g, "T 6 3", "T 7 3")},
        {"index before the chunk", replaced(g, "T 5 0", "T 4 0")},
        {"verdict above 3", replaced(g, "T 5 0", "T 5 4")},
        {"missing O line", replaced(g, "O 1 2 3 4 5\n", "")},
        {"missing S line", replaced(g, "S 4658 129 132 9876544 141 4 2\n",
                                    "")},
        {"T line alone", trial5 + "T 6 0\n"},
        {"repeated F line",
         replaced(g, "T 6 3\n", "F 0 0 0 0 0 0 0 0 0 0 0\nT 6 3\n")},
        {"bad Q record", replaced(g, "kind=hang", "kind=melted")},
        {"line before any T", "S 0 0 0 0 0 0 0\n" + g},
        {"empty payload", ""},
    };
    for (const auto &c : cases) {
        std::vector<TrialResult> out;
        EXPECT_FALSE(decodeTrialChunk(c.payload, out, TrialChunk))
            << c.name;
    }
}

TEST(ChunkCodec, RejectsMalformedBfChunks)
{
    const std::string g = BfChunkGolden;
    const struct
    {
        const char *name;
        std::string payload;
    } cases[] = {
        {"non-hex sample word",
         replaced(g, "3fe0000000000000", "3fe00000000000zz")},
        {"sample word not hex at all", replaced(g, "3fe0000000000000", "x")},
        {"sample missing", replaced(g, "D 3 ", "D 4 ")},
        {"missing D line", replaced(g, "D 3 4008000000000000 "
                                       "3fe0000000000000 "
                                       "8000000000000000\n",
                                    "")},
        {"missing F line", replaced(g, "F 1 2 3 4 5 6 7 8 9 10 11\n", "")},
        {"short S line", replaced(g, "S 4657 128 ", "S 4657 ")},
        {"repeated S line", "S 0 0 0 0 0 0 0\n" + g},
        {"repeated O line", g + "O 1 2 3 4 5\n"},
        {"repeated F line", g + "F 0 0 0 0 0 0 0 0 0 0 0\n"},
        {"repeated D line", g + "D 0\n"},
        {"bad Q record", replaced(g, "kind=hang", "kind=")},
    };
    for (const auto &c : cases) {
        BfChunkResult out;
        EXPECT_FALSE(decodeBfChunk(c.payload, out)) << c.name;
    }
}

TEST(ChunkCodec, CampaignAbortsOnAHitOutsideItsChunk)
{
    BruteForceCampaignConfig bf;
    bf.first = 0x10;
    bf.last = 0x2f;
    bf.pool.chunkSize = 16; // chunk 0 covers PACs 0x10-0x1f
    // Chunk 0 reports @p found; chunk 1 finds nothing.
    auto reporting = [](uint16_t found) {
        return [found](unsigned, const Chunk &chunk) {
            BfChunkResult r;
            if (chunk.index == 0)
                r.stats.found = found;
            return encodeBfChunk(r);
        };
    };
    // Below cfg.first, above cfg.last, and in chunk 1's range.
    for (uint16_t found : {0x05, 0x40, 0x25}) {
        SCOPED_TRACE(found);
        EXPECT_THROW(runBruteForceCampaignWith(bf, reporting(found)),
                     CampaignAborted);
    }

    const BruteForceCampaignResult ok =
        runBruteForceCampaignWith(bf, reporting(0x13));
    ASSERT_TRUE(ok.stats.found);
    EXPECT_EQ(*ok.stats.found, 0x13);
    EXPECT_EQ(ok.chunksMerged, 1u);

    // On resume, a journaled chunk 0 that names PAC 0x40 is not
    // merged: the chunk is dispatched again.
    const std::string path = ::testing::TempDir() +
                             "pacman_codec_forged.journal";
    {
        BfChunkResult forged;
        forged.stats.found = 0x40;
        Journal j;
        std::remove(path.c_str());
        j.open(path);
        j.append("meta", "campaign=bruteforce seed=0000000000000001 "
                         "first=16 last=47 chunk_size=16");
        j.append("chunk/0000000000000001/0", encodeBfChunk(forged));
    }
    bf.supervision.journalPath = path;
    bf.supervision.resume = true;
    const BruteForceCampaignResult resumed =
        runBruteForceCampaignWith(bf, reporting(0x13));
    EXPECT_EQ(resumed.chunksResumed, 0u);
    ASSERT_TRUE(resumed.stats.found);
    EXPECT_EQ(*resumed.stats.found, 0x13);
    std::remove(path.c_str());
    std::remove((path + ".quarantine").c_str());
}

} // namespace
} // namespace pacman
