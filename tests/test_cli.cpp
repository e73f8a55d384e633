// The noisewin CLI driver, exercised in-process (file and demo flows).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "gen/bus.hpp"
#include "library/liberty_io.hpp"
#include "netlist/verilog.hpp"
#include "parasitics/spef.hpp"
#include "tools/cli.hpp"
#include "util/units.hpp"

namespace nw {
namespace {

namespace fs = std::filesystem;

int run(const std::vector<std::string>& args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::ostringstream out;
  std::ostringstream err;
  const int rc = cli::run_cli(args, out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return rc;
}

TEST(Cli, UsageErrors) {
  std::string err;
  EXPECT_EQ(run({}, nullptr, &err), 1);
  EXPECT_NE(err.find("usage:"), std::string::npos);
  EXPECT_EQ(run({"--bogus"}, nullptr, &err), 1);
  EXPECT_EQ(run({"--mode", "nonsense", "--demo", "bus"}, nullptr, &err), 1);
  EXPECT_EQ(run({"--demo"}, nullptr, &err), 1);               // missing value
  EXPECT_EQ(run({"--demo", "bus", "--lib", "x"}, nullptr, &err), 1);  // both sources
}

TEST(Cli, DemoRuns) {
  for (const char* demo : {"bus", "logic", "pipeline"}) {
    std::string out;
    const int rc = run({"--demo", demo, "--mode", "noise-windows"}, &out);
    EXPECT_TRUE(rc == 0 || rc == 2) << demo;
    EXPECT_NE(out.find("noisewin report"), std::string::npos) << demo;
  }
}

TEST(Cli, DemoUnknownFails) {
  std::string err;
  EXPECT_EQ(run({"--demo", "nope"}, nullptr, &err), 1);
  EXPECT_NE(err.find("unknown demo"), std::string::npos);
}

TEST(Cli, FileFlowEndToEnd) {
  // Write library/netlist/spef/arrivals for a generated bus, then run the
  // CLI against the files.
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 8;
  cfg.segments = 2;
  const gen::Generated g = gen::make_bus(library, cfg);

  const fs::path dir = fs::temp_directory_path() / "noisewin_cli_test";
  fs::create_directories(dir);
  const auto lib_path = (dir / "lib.nlib").string();
  const auto nv_path = (dir / "top.nv").string();
  const auto spef_path = (dir / "top.nwspef").string();
  const auto arr_path = (dir / "arrivals.txt").string();
  const auto rpt_path = (dir / "out.rpt").string();

  {
    std::ofstream f(lib_path);
    lib::write_library(f, library);
  }
  {
    std::ofstream f(nv_path);
    net::write_netlist(f, g.design);
  }
  {
    std::ofstream f(spef_path);
    para::write_spef(f, g.design, g.para);
  }
  {
    std::ofstream f(arr_path);
    f << "# port lo hi\n";
    for (const auto& [port, win] : g.sta_options.input_arrivals) {
      f << port << ' ' << win.lo << ' ' << win.hi << "\n";
    }
  }

  std::string out;
  std::string err;
  const int rc = run({"--lib", lib_path, "--netlist", nv_path, "--spef", spef_path,
                      "--arrivals", arr_path, "--mode", "noise-windows", "--period",
                      "2e-9", "--report", rpt_path, "--delay-impact"},
                     &out, &err);
  EXPECT_TRUE(rc == 0 || rc == 2) << err;
  EXPECT_NE(out.find("report written to"), std::string::npos);
  std::ifstream rpt(rpt_path);
  ASSERT_TRUE(rpt.good());
  std::stringstream content;
  content << rpt.rdbuf();
  EXPECT_NE(content.str().find("noisewin report: design 'bus8'"), std::string::npos);
  EXPECT_NE(content.str().find("crosstalk delay impact"), std::string::npos);

  fs::remove_all(dir);
}

TEST(Cli, MissingFileFails) {
  std::string err;
  EXPECT_EQ(run({"--lib", "/nonexistent.nlib", "--netlist", "/x.nv", "--spef", "/x.sp"},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("cannot open"), std::string::npos);
}

TEST(Cli, ModelSelection) {
  std::string out;
  const int rc =
      run({"--demo", "bus", "--model", "reduced-mna", "--mode", "switching-windows"}, &out);
  EXPECT_TRUE(rc == 0 || rc == 2);
  EXPECT_NE(out.find("model: reduced-mna"), std::string::npos);
}

TEST(Cli, TraceAndStatsJsonOutputs) {
  const fs::path dir = fs::temp_directory_path() / "noisewin_cli_obs_test";
  fs::create_directories(dir);
  const auto trace_path = (dir / "trace.json").string();
  const auto stats_path = (dir / "stats.json").string();

  std::string err;
  const int rc = run({"--demo", "bus", "--threads", "2", "--trace-out", trace_path,
                      "--stats-json", stats_path},
                     nullptr, &err);
  EXPECT_TRUE(rc == 0 || rc == 2) << err;

  std::stringstream trace;
  {
    std::ifstream f(trace_path);
    ASSERT_TRUE(f.good());
    trace << f.rdbuf();
  }
  EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.str().find("\"estimate-injected\""), std::string::npos);
  EXPECT_NE(trace.str().find("\"thread_name\""), std::string::npos);

  std::stringstream stats;
  {
    std::ifstream f(stats_path);
    ASSERT_TRUE(f.good());
    stats << f.rdbuf();
  }
  EXPECT_NE(stats.str().find("\"schema_version\":5"), std::string::npos);
  EXPECT_NE(stats.str().find("\"design\":\"bus64\""), std::string::npos);
  EXPECT_NE(stats.str().find("\"victims_estimated\""), std::string::npos);
  EXPECT_NE(stats.str().find("\"glitch_peak_v\""), std::string::npos);
  fs::remove_all(dir);
}

TEST(Cli, VerboseLogsToErrorStream) {
  std::string err;
  const int rc = run({"--demo", "bus", "--verbose", "--verbose"}, nullptr, &err);
  EXPECT_TRUE(rc == 0 || rc == 2);
  // Debug-level pass summary from the analyzer, routed to the CLI's err.
  EXPECT_NE(err.find("[nw:debug]"), std::string::npos) << err;
}

TEST(Cli, StatsFooterLandsInReportFile) {
  const fs::path dir = fs::temp_directory_path() / "noisewin_cli_footer_test";
  fs::create_directories(dir);
  const auto rpt_path = (dir / "out.rpt").string();
  std::string out;
  const int rc =
      run({"--demo", "bus", "--stats", "--report", rpt_path}, &out);
  EXPECT_TRUE(rc == 0 || rc == 2);
  // --stats still prints the table on stdout...
  EXPECT_NE(out.find("analysis stats"), std::string::npos);
  std::stringstream content;
  {
    std::ifstream f(rpt_path);
    ASSERT_TRUE(f.good());
    content << f.rdbuf();
  }
  // ...and the report file carries the same footer.
  EXPECT_NE(content.str().find("analysis stats"), std::string::npos);
  EXPECT_NE(content.str().find("estimate-injected"), std::string::npos);
  fs::remove_all(dir);
}

TEST(Cli, UnwritableOutputPathsFailFastWithClearErrors) {
  // A typo'd output directory must fail before analysis, with a message
  // naming the flag that supplied the path, and a non-zero exit.
  const std::string bad = "/nonexistent_dir_for_noisewin_tests/out.file";
  for (const char* flag :
       {"--report", "--stats-json", "--trace-out", "--html-report",
        "--profile-out"}) {
    std::string err;
    EXPECT_EQ(run({"--demo", "bus", flag, bad}, nullptr, &err), 1) << flag;
    EXPECT_NE(err.find(std::string("cannot write ") + flag), std::string::npos)
        << flag << ": " << err;
    EXPECT_NE(err.find(bad), std::string::npos) << flag << ": " << err;
  }
  // serve validates its --stats-json destination up front too.
  std::string err;
  std::istringstream in("");
  std::ostringstream out, serr;
  EXPECT_EQ(cli::run_cli(std::vector<std::string>{"serve", "--demo", "bus",
                                                  "--stats-json", bad},
                         in, out, serr),
            1);
  EXPECT_NE(serr.str().find("cannot write --stats-json"), std::string::npos)
      << serr.str();
}

TEST(Cli, ProfileHzRejectsJunkAndOutOfRangeValues) {
  std::string err;
  EXPECT_EQ(run({"--demo", "bus", "--profile-hz", "abc"}, nullptr, &err), 1);
  EXPECT_NE(err.find("noisewin:"), std::string::npos) << err;
  EXPECT_EQ(run({"--demo", "bus", "--profile-hz", "99999"}, nullptr, &err), 1);
  EXPECT_NE(err.find("--profile-hz 99999 too high (max 20000)"),
            std::string::npos)
      << err;
  EXPECT_EQ(run({"--demo", "bus", "--profile-hz"}, nullptr, &err), 1);  // no value
}

TEST(Cli, ProfileOutWritesFoldedArtifactWithoutChangingTheReport) {
  const fs::path dir = fs::temp_directory_path() / "nw_cli_profile_test";
  fs::create_directories(dir);
  const std::string folded = (dir / "p.folded").string();

  // Reference report with profiling off.
  std::string plain_out;
  const int rc_plain = run({"--demo", "logic", "--mode", "noise-windows"},
                           &plain_out);
  ASSERT_TRUE(rc_plain == 0 || rc_plain == 2);

  // Same run, profiled hard: the report must be byte-identical (the
  // determinism contract) and the folded artifact well-formed.
  std::string prof_out;
  const int rc_prof = run({"--demo", "logic", "--mode", "noise-windows",
                           "--profile-out", folded, "--profile-hz", "9973"},
                          &prof_out);
  EXPECT_EQ(rc_prof, rc_plain);
  EXPECT_EQ(prof_out, plain_out);
  std::ifstream pf(folded);
  ASSERT_TRUE(pf.good());
  std::string line;
  while (std::getline(pf, line)) {
    const std::size_t sep = line.rfind(' ');
    ASSERT_NE(sep, std::string::npos) << line;
    EXPECT_GT(std::stoull(line.substr(sep + 1)), 0u) << line;
  }

  // --profile-hz 0 means off, but the (empty) artifact is still written so
  // downstream tooling never trips over a missing file.
  const std::string off = (dir / "off.folded").string();
  const int rc_off = run({"--demo", "bus", "--profile-out", off,
                          "--profile-hz", "0"});
  EXPECT_TRUE(rc_off == 0 || rc_off == 2);
  EXPECT_TRUE(fs::exists(off));
  EXPECT_EQ(fs::file_size(off), 0u);
  fs::remove_all(dir);
}

TEST(Cli, ExplainCommandPrintsProvenance) {
  // A clean net still explains (with a "no violations" note) and exits 0.
  std::string out;
  EXPECT_EQ(run({"explain", "w1", "--demo", "bus"}, &out), 0);
  EXPECT_NE(out.find("net 'w1'"), std::string::npos) << out;

  std::string err;
  EXPECT_EQ(run({"explain", "definitely_not_a_net", "--demo", "bus"}, nullptr, &err), 1);
  EXPECT_NE(err.find("unknown net"), std::string::npos) << err;

  EXPECT_EQ(run({"explain", "--demo", "bus"}, nullptr, &err), 1);
  EXPECT_NE(err.find("explain needs a net name"), std::string::npos) << err;
}

TEST(Cli, HtmlReportArtifactIsSelfContained) {
  const fs::path dir = fs::temp_directory_path() / "noisewin_cli_html_test";
  fs::create_directories(dir);
  const auto html_path = (dir / "report.html").string();
  std::string err;
  const int rc = run({"--demo", "bus", "--html-report", html_path}, nullptr, &err);
  EXPECT_TRUE(rc == 0 || rc == 2) << err;

  std::stringstream html;
  {
    std::ifstream f(html_path);
    ASSERT_TRUE(f.good());
    html << f.rdbuf();
  }
  EXPECT_EQ(html.str().rfind("<!DOCTYPE html", 0), 0u);
  EXPECT_NE(html.str().find("<svg"), std::string::npos);
  for (const char* id : {"id=\"meta\"", "id=\"summary\"", "id=\"timelines\"",
                         "id=\"pareto\"", "id=\"slack\"", "id=\"phases\""}) {
    EXPECT_NE(html.str().find(id), std::string::npos) << id;
  }
  for (const char* banned : {"http", "<script", "<link", "url("}) {
    EXPECT_EQ(html.str().find(banned), std::string::npos) << banned;
  }
  fs::remove_all(dir);
}

TEST(Cli, ProgressFlagDrawsStderrMeter) {
  std::string err;
  const int rc = run({"--demo", "bus", "--progress"}, nullptr, &err);
  EXPECT_TRUE(rc == 0 || rc == 2);
  EXPECT_NE(err.find("[check-endpoints]"), std::string::npos) << err;
  // The meter redraws in place and ends with a newline, not a dangling line.
  EXPECT_NE(err.find('\r'), std::string::npos);
}

TEST(Cli, ServeProgressStreamsEventsWithTheResponse) {
  std::istringstream in("{\"id\":1,\"cmd\":\"violations\"}\n");
  std::ostringstream out, err;
  const int rc = cli::run_cli(
      std::vector<std::string>{"serve", "--demo", "bus", "--progress"}, in, out, err);
  EXPECT_EQ(rc, 0) << err.str();
  // The analyzing request streams progress events before its response.
  EXPECT_NE(out.str().find("\"event\":\"progress\""), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("\"phase\":"), std::string::npos);
  EXPECT_NE(out.str().find("\"id\":1"), std::string::npos);
}

TEST(Cli, ServeProgressAnswersIdleCancel) {
  // No analysis in flight: the cancel reaches the dispatcher and reports
  // there was nothing to cancel. (Mid-analyze cancellation is exercised at
  // the session layer in test_progress.cpp and end-to-end by nwclient.py.)
  std::istringstream in("{\"id\":2,\"cmd\":\"cancel\"}\n");
  std::ostringstream out, err;
  const int rc = cli::run_cli(
      std::vector<std::string>{"serve", "--demo", "bus", "--progress"}, in, out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("\"cancelled\":false"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("\"id\":2"), std::string::npos);
}

TEST(Cli, ServeSubcommandSpeaksJsonl) {
  std::istringstream in(
      "{\"id\":1,\"cmd\":\"hello\"}\n"
      "{\"id\":2,\"cmd\":\"scale_net_parasitics\","
      "\"args\":{\"net\":\"w1\",\"cap_factor\":2.0,\"res_factor\":1.0}}\n"
      "{\"id\":3,\"cmd\":\"violations\",\"args\":{\"limit\":3}}\n"
      "junk line\n"
      "{\"id\":4,\"cmd\":\"undo\"}\n");
  std::ostringstream out, err;
  const fs::path dir = fs::temp_directory_path() / "noisewin_cli_serve_test";
  fs::create_directories(dir);
  const auto stats_path = (dir / "session.json").string();
  const int rc = cli::run_cli(
      std::vector<std::string>{"serve", "--demo", "bus", "--stats-json", stats_path},
      in, out, err);
  EXPECT_EQ(rc, 0) << err.str();

  // One response per line, ids echoed in order.
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> responses;
  while (std::getline(lines, line)) responses.push_back(line);
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_NE(responses[0].find("\"id\":1"), std::string::npos);
  EXPECT_NE(responses[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses[0].find("\"design\":\"bus64\""), std::string::npos);
  EXPECT_NE(responses[3].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(responses[4].find("\"undone\":true"), std::string::npos);

  // The per-session stats artifact carries the session counters.
  std::stringstream stats;
  {
    std::ifstream f(stats_path);
    ASSERT_TRUE(f.good());
    stats << f.rdbuf();
  }
  EXPECT_NE(stats.str().find("\"session_full_analyses\":1"), std::string::npos)
      << stats.str();
  EXPECT_NE(stats.str().find("\"protocol_requests\":5"), std::string::npos);
  fs::remove_all(dir);
}

TEST(Cli, ShellSubcommandRunsCommands) {
  std::istringstream in(
      "violations 3\n"
      "noise w1\n"
      "scale w1 2.0 1.0\n"
      "undo\n"
      "bogus_command\n"
      "quit\n");
  std::ostringstream out, err;
  const int rc = cli::run_cli(std::vector<std::string>{"shell", "--demo", "bus"}, in,
                              out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("noisewin>"), std::string::npos);
  EXPECT_NE(out.str().find("endpoints checked"), std::string::npos);
  EXPECT_NE(out.str().find("net w1:"), std::string::npos);
  EXPECT_NE(out.str().find("ok [epoch 1]"), std::string::npos);
  EXPECT_NE(out.str().find("undone"), std::string::npos);
  EXPECT_NE(out.str().find("unknown command 'bogus_command'"), std::string::npos);
}

TEST(Cli, ShellCountsClampAndRefuseNonFiniteValues) {
  std::istringstream in(
      "slack 1e19\n"
      "slack 1e20\n"
      "slack inf\n"
      "slack nan\n"
      "slack 2.5\n"
      "quit\n");
  std::ostringstream out, err;
  const int rc = cli::run_cli(std::vector<std::string>{"shell", "--demo", "bus"}, in,
                              out, err);
  EXPECT_EQ(rc, 0) << err.str();
  // One segment per command, each starting right after its prompt.
  std::vector<std::string> answers;
  const std::string text = out.str();
  const std::string prompt = "noisewin> ";
  for (std::size_t at = text.find(prompt); at != std::string::npos;) {
    const std::size_t begin = at + prompt.size();
    at = text.find(prompt, begin);
    answers.push_back(text.substr(begin, at == std::string::npos ? at : at - begin));
  }
  ASSERT_GE(answers.size(), 5u) << text;
  // Past size_t clamps to every endpoint instead of wrapping to none.
  EXPECT_NE(answers[0].find("(net "), std::string::npos) << answers[0];
  EXPECT_EQ(answers[1], answers[0]);
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(answers[i].rfind("error: ", 0), 0u) << answers[i];
    EXPECT_EQ(answers[i].find("(net "), std::string::npos) << answers[i];
  }
}

TEST(Cli, UnknownSubcommandFails) {
  std::string err;
  EXPECT_EQ(run({"listen", "--demo", "bus"}, nullptr, &err), 1);
  EXPECT_NE(err.find("unknown command 'listen'"), std::string::npos);
}

}  // namespace
}  // namespace nw
