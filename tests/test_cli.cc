/**
 * @file
 * End-to-end smoke tests for the wslicer-sim command-line driver,
 * run as a subprocess. CTest executes these from build/tests, so the
 * driver lives at ../tools/wslicer-sim.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

namespace {

/** Locate the driver relative to common working directories. */
std::string
cliPath()
{
    for (const char *cand : {"../tools/wslicer-sim",
                             "build/tools/wslicer-sim",
                             "tools/wslicer-sim"}) {
        if (std::ifstream(cand).good())
            return cand;
    }
    return {};
}

/** Run a command, returning (exit status, stdout). */
std::pair<int, std::string>
run(const std::string &args)
{
    const std::string cmd = cliPath() + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return {-1, ""};
    std::string out;
    std::array<char, 512> buf;
    while (fgets(buf.data(), buf.size(), pipe))
        out += buf.data();
    const int status = pclose(pipe);
    return {status, out};
}

bool
cliAvailable()
{
    return !cliPath().empty();
}

} // namespace

#define REQUIRE_CLI()                                                  \
    if (!cliAvailable())                                               \
        GTEST_SKIP() << "wslicer-sim not built next to the tests"

TEST(Cli, ListShowsAllBenchmarks)
{
    REQUIRE_CLI();
    const auto [status, out] = run("list");
    EXPECT_EQ(status, 0);
    for (const char *name : {"BLK", "BFS", "DXT", "HOT", "IMG", "KNN",
                             "LBM", "MM", "MVP", "NN"})
        EXPECT_NE(out.find(name), std::string::npos) << name;
}

TEST(Cli, SoloRunPrintsMetrics)
{
    REQUIRE_CLI();
    const auto [status, out] = run("solo IMG --cycles 4000");
    EXPECT_EQ(status, 0);
    EXPECT_NE(out.find("warp_ipc"), std::string::npos);
    EXPECT_NE(out.find("l2_mpki"), std::string::npos);
}

TEST(Cli, CorunFixedPolicyWorks)
{
    REQUIRE_CLI();
    const auto [status, out] =
        run("corun IMG NN --policy fixed:4,4 --window 6000");
    EXPECT_EQ(status, 0);
    EXPECT_NE(out.find("system_ipc"), std::string::npos);
    EXPECT_NE(out.find("fairness_min_speedup"), std::string::npos);
}

TEST(Cli, CsvOutputIsWritten)
{
    REQUIRE_CLI();
    const auto [status, out] =
        run("solo MM --cycles 3000 --csv /tmp/wsl_cli_test.csv");
    EXPECT_EQ(status, 0);
    std::ifstream csv("/tmp/wsl_cli_test.csv");
    ASSERT_TRUE(csv.good());
    std::string header;
    std::getline(csv, header);
    EXPECT_EQ(header, "metric,value");
}

TEST(Cli, UnknownCommandFails)
{
    REQUIRE_CLI();
    const auto [status, out] = run("frobnicate");
    EXPECT_NE(status, 0);
    EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(Cli, UnknownBenchmarkFails)
{
    REQUIRE_CLI();
    const auto [status, out] = run("solo NOPE --cycles 1000");
    EXPECT_NE(status, 0);
    EXPECT_NE(out.find("config error"), std::string::npos);
    EXPECT_NE(out.find("unknown benchmark"), std::string::npos);
}

TEST(Cli, AuditedSoloRunSucceeds)
{
    REQUIRE_CLI();
    const auto [status, out] =
        run("solo IMG --cycles 4000 --audit=500 --watchdog-cycles 2000");
    EXPECT_EQ(status, 0);
    EXPECT_NE(out.find("warp_ipc"), std::string::npos);
}

TEST(Cli, AuditedCorunMatchesUnaudited)
{
    REQUIRE_CLI();
    const std::string base = "corun IMG NN --policy fixed:4,4 --window 6000";
    const auto [s0, out0] = run(base);
    const auto [s1, out1] = run(base + " --audit=1000 --watchdog-cycles 5000");
    EXPECT_EQ(s0, 0);
    EXPECT_EQ(s1, 0);
    // Audits and the watchdog must not perturb the simulation.
    EXPECT_EQ(out0, out1);
}

TEST(Cli, ZeroAuditCadenceIsRejected)
{
    REQUIRE_CLI();
    const auto [status, out] = run("solo IMG --cycles 1000 --audit=0");
    EXPECT_NE(status, 0);
    EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(Cli, TickThreadsFlagIsAUsageError)
{
    REQUIRE_CLI();
    // The tick engine is serial; the retired flag must not be
    // silently accepted.
    const auto [status, out] = run("corun MM BFS --tick-threads 4");
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
    EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(Cli, NoSkipFlagIsAUsageError)
{
    REQUIRE_CLI();
    // Gpu::run ticks every cycle; the retired flag must not be
    // silently accepted.
    const auto [status, out] = run("corun MM BFS --no-skip");
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
    EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(Cli, MalformedNumbersAreUsageErrors)
{
    REQUIRE_CLI();
    // Each of these used to run: "abc" as 0 cycles, "3000x" as 3000,
    // "-1" wrapped to the largest cycle count.
    for (const char *bad : {"abc", "3000x", "-1"}) {
        const auto [status, out] =
            run(std::string("corun MM BFS --cycles ") + bad);
        ASSERT_TRUE(WIFEXITED(status)) << bad;
        EXPECT_EQ(WEXITSTATUS(status), 2) << bad;
        EXPECT_NE(out.find("--cycles: '" + std::string(bad) + "'"),
                  std::string::npos)
            << out;
        EXPECT_NE(out.find("usage"), std::string::npos) << bad;
    }
}

TEST(Cli, UnknownSchedulerIsAUsageError)
{
    REQUIRE_CLI();
    // A typo used to fall back to GTO silently.
    const auto [status, out] = run("corun MM BFS --sched lrrr");
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
    EXPECT_NE(out.find("unknown scheduler 'lrrr'"), std::string::npos);
    EXPECT_NE(out.find("usage"), std::string::npos);
}
