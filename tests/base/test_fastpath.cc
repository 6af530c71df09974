#include <gtest/gtest.h>

#include <string>

#include "base/fastpath.hh"

namespace pacman
{
namespace
{

TEST(FastPath, ParsesEveryLevelName)
{
    EXPECT_EQ(parseFastPath("reference"), FastPath::Reference);
    EXPECT_EQ(parseFastPath("decode"), FastPath::Decode);
    EXPECT_EQ(parseFastPath("superblocks"), FastPath::Superblocks);
    EXPECT_EQ(parseFastPath("traces"), FastPath::Traces);
    for (const FastPath level :
         {FastPath::Reference, FastPath::Decode, FastPath::Superblocks,
          FastPath::Traces}) {
        EXPECT_EQ(parseFastPath(fastPathName(level)), level);
    }
}

TEST(FastPath, UnsetMeansTraces)
{
    EXPECT_EQ(parseFastPath(nullptr), FastPath::Traces);
}

TEST(FastPath, LevelsAreOrdered)
{
    EXPECT_LT(FastPath::Reference, FastPath::Decode);
    EXPECT_LT(FastPath::Decode, FastPath::Superblocks);
    EXPECT_LT(FastPath::Superblocks, FastPath::Traces);
}

TEST(FastPath, BadValuesThrowNamingTheAcceptedLevels)
{
    for (const char *bad :
         {"", "Traces", "trace", "fast", "traces ", "traces\n",
          "reference,decode", "3"}) {
        try {
            parseFastPath(bad);
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const FastPathError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("PACMAN_FASTPATH"), std::string::npos);
            for (const char *name :
                 {"reference", "decode", "superblocks", "traces"}) {
                EXPECT_NE(what.find(name), std::string::npos)
                    << "message for '" << bad << "' omits " << name;
            }
        }
    }
}

} // namespace
} // namespace pacman
