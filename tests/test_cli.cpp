// The cybok CLI's usage errors, checked by running the binary: a numeric
// value that does not parse whole or does not fit its type, a stray
// argument, a missing required option, or an unknown enumerated value is
// a usage error (exit 1) reported before any work starts. Every case here
// fails in option parsing, so none of them loads a corpus or starts a
// thread.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct CliRun {
    int exit_code = -1;
    std::string output; ///< stdout and stderr, interleaved
};

CliRun run_cli(const std::string& args) {
    // The timeout bounds a regression that would start serving instead of
    // rejecting the command line.
    const std::string command = "timeout 60 " + std::string(CYBOK_CLI) + " " + args + " 2>&1";
    CliRun run;
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) return run;
    std::array<char, 512> buf{};
    while (std::fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr)
        run.output += buf.data();
    const int status = pclose(pipe);
    if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
    return run;
}

/// `cybok args` exits 1 with "usage error: <message>" on its output.
void expect_usage_message(const std::string& args, const std::string& message) {
    const CliRun run = run_cli(args);
    EXPECT_EQ(run.exit_code, 1) << "cybok " << args << "\n" << run.output;
    EXPECT_NE(run.output.find("usage error: " + message), std::string::npos)
        << "cybok " << args << "\n" << run.output;
}

void expect_usage_error(const std::string& args, const std::string& option) {
    expect_usage_message(args, "--" + option);
}

} // namespace

TEST(Cli, NonNumericOptionIsUsageError) {
    expect_usage_error("fleet --threads abc", "threads");
    expect_usage_error("lint --threads 4x --corpus c.json --model m.sysm", "threads");
    expect_usage_error("serve --lanes 1.5", "lanes");
    expect_usage_error("generate --scale fast --out unused.json", "scale");
    expect_usage_error("fleet --systems", "systems");
}

TEST(Cli, NegativeCountIsUsageError) {
    expect_usage_error("fleet --threads -1", "threads");
    expect_usage_error("serve --lanes -1", "lanes");
    expect_usage_error("client --type query --limit -3 --port 1", "limit");
}

TEST(Cli, OutOfRangePortIsUsageError) {
    expect_usage_error("serve --port 70000", "port");
    expect_usage_error("serve --port 65536", "port");
    expect_usage_error("client --type hello --port 70000", "port");
}

TEST(Cli, StrayArgumentIsUsageError) {
    expect_usage_message("table1 stray", "unexpected argument: stray");
}

TEST(Cli, MissingRequiredOptionIsUsageError) {
    expect_usage_message("associate --model m.sysm", "missing required option --corpus");
}

TEST(Cli, UnknownValueIsUsageError) {
    // The value is checked before the corpus loads: this path does not exist.
    expect_usage_message("search --corpus /nonexistent --query x --class bogus",
                         "unknown --class: bogus");
    expect_usage_message("client --type bogus", "unknown --type: bogus");
    expect_usage_message("model --demo bogus", "unknown demo model: bogus");
    expect_usage_message("model --zoo bogus", "unknown --zoo domain: bogus");
    expect_usage_message("fleet --domains bogus", "unknown --domains entry: bogus");
    expect_usage_message("lint --corpus /nonexistent --model m.sysm --severity C001=loud",
                         "bad --severity entry: C001=loud");
}
