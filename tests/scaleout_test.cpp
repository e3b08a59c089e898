// Scale-out backend tests: streaming runs vs materialized runs, the
// shard partition, the partial-file wire format, `emc_repro run --shard`
// + `merge` byte-identity through the driver, and the flag validation
// surface.
//
// Like repro_test.cpp, this binary registers its own synthetic figures
// (the real benches link into emc_repro only), so every run here is a
// tiny deterministic body writing into a per-test temp directory.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/aggregate.hpp"
#include "analysis/csv.hpp"
#include "analysis/table.hpp"
#include "exp/workbench.hpp"
#include "repro/driver.hpp"
#include "repro/partial.hpp"
#include "repro/registry.hpp"

namespace fs = std::filesystem;
using emc::repro::RunContext;

namespace {

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  return static_cast<bool>(out);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- synthetic shardable figure ----------------------------------------
//
// zz_scale mirrors the real replicated benches' shape: a small grid, a
// trial axis, a body pure in (x, trial_seed), the sharded/unsharded
// split on ctx.sharded(), and a shard model naming the shared
// Aggregate spec.

emc::analysis::Aggregate zz_scale_aggregate() {
  return emc::analysis::Aggregate({"x"}).stats("v").yield("ok");
}

void zz_scale_body(const emc::exp::ParamSet& p, emc::exp::Recorder& rec) {
  const int x = p.get<int>("x");
  const std::uint64_t s = p.get<std::uint64_t>("trial_seed");
  const double v =
      static_cast<double>(x) + static_cast<double>(s % 1000) * 1e-3;
  rec.row()
      .set("x", x)
      .set("trial", p.get<int>("trial"))
      .set("v", v, 6)
      .set("ok", v > 1.5 ? 1 : 0);
}

emc::exp::Workbench zz_scale_bench(const RunContext& ctx) {
  emc::exp::Workbench wb("zz_scale_trials");
  wb.threads(ctx.threads);
  wb.grid().over("x", {1, 2, 3});
  wb.replicate(ctx.trials_or(8, 2), ctx.seed);
  wb.shard(ctx.shard_index, ctx.shard_count);
  wb.columns({"x", "trial", "v", "ok"});
  return wb;
}

int run_zz_scale(const RunContext& ctx) {
  emc::exp::Workbench wb = zz_scale_bench(ctx);
  if (ctx.sharded()) {
    emc::repro::PartialWriter pw(
        ctx.partial_path("zz_scale"),
        emc::repro::make_partial_header(ctx, "zz_scale", wb.schema(),
                                        wb.total_scenarios()));
    const auto& report = wb.run_streaming(
        [&](std::size_t g, const std::vector<std::string>& cells) {
          pw.row(g, cells);
        },
        zz_scale_body);
    pw.finish(report.kernel_stats);
    return 0;
  }
  emc::analysis::CsvStream trials_out("zz_scale_trials.csv", wb.schema());
  emc::analysis::Aggregate::Sink sink = zz_scale_aggregate().sink(wb.schema());
  wb.run_streaming(
      [&](std::size_t, const std::vector<std::string>& cells) {
        trials_out.row(cells);
        sink.consume(cells);
      },
      zz_scale_body);
  if (!trials_out.close()) return 1;
  return sink.finish().write_csv("zz_scale.csv") ? 0 : 1;
}

REPRO_FIGURE(zz_scale)
    .title("synthetic: shardable replicated figure")
    .artifact("zz_scale_trials.csv")
    .artifact("zz_scale.csv")
    .shard_model("zz_scale_trials.csv", "zz_scale.csv", zz_scale_aggregate)
    .seed(77)
    .smoke_mode()
    .run(run_zz_scale);

// A figure without a shard model: --shard/--trials must refuse it.
int run_zz_scale_plain(const RunContext&) {
  return write_file("zz_scale_plain.csv", "a\n1\n") ? 0 : 1;
}

REPRO_FIGURE(zz_scale_plain)
    .title("synthetic: not shardable")
    .artifact("zz_scale_plain.csv")
    .run(run_zz_scale_plain);

// Per-test temp working directory (figure bodies write relative to the
// cwd).
class ScaleOutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    old_cwd_ = fs::current_path();
    work_ = fs::temp_directory_path() /
            ("emc_scaleout_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(work_);
    fs::create_directories(work_);
    fs::current_path(work_);
  }
  void TearDown() override {
    fs::current_path(old_cwd_);
    fs::remove_all(work_);
  }

  fs::path old_cwd_;
  fs::path work_;
};

/// Streaming run at `threads`/`shard` collecting (gidx, row-csv) pairs.
std::vector<std::pair<std::size_t, std::string>> stream_rows(
    unsigned threads, std::size_t shard_index, std::size_t shard_count) {
  RunContext ctx;
  ctx.seed = 77;
  ctx.threads = threads;
  ctx.shard_index = shard_index;
  ctx.shard_count = shard_count;
  emc::exp::Workbench wb = zz_scale_bench(ctx);
  std::vector<std::pair<std::size_t, std::string>> rows;
  wb.run_streaming(
      [&](std::size_t g, const std::vector<std::string>& cells) {
        std::string joined;
        for (std::size_t i = 0; i < cells.size(); ++i) {
          if (i) joined += ',';
          joined += cells[i];
        }
        rows.emplace_back(g, joined);
      },
      zz_scale_body);
  return rows;
}

}  // namespace

// --- streaming vs materialized ----------------------------------------

TEST_F(ScaleOutTest, RunStreamingMatchesMaterializedRunAtAnyThreadCount) {
  RunContext ctx;
  ctx.seed = 77;
  emc::exp::Workbench materialized = zz_scale_bench(ctx);
  materialized.run(zz_scale_body);
  const std::string want = materialized.table().to_csv();

  for (unsigned threads : {1u, 4u, 7u}) {
    const auto rows = stream_rows(threads, 0, 1);
    std::string got;
    for (std::size_t i = 0; i < materialized.schema().size(); ++i) {
      if (i) got += ',';
      got += materialized.schema()[i];
    }
    got += '\n';
    for (std::size_t i = 0; i < rows.size(); ++i) {
      // Global indices arrive in order and dense on an unsharded run.
      EXPECT_EQ(rows[i].first, i);
      got += rows[i].second;
      got += '\n';
    }
    EXPECT_EQ(got, want) << "threads = " << threads;
  }
}

// --- shard partition ---------------------------------------------------

TEST_F(ScaleOutTest, ShardsPartitionTheGlobalIndexSpace) {
  const auto all = stream_rows(1, 0, 1);
  for (std::size_t n : {2u, 3u, 4u}) {
    std::set<std::size_t> seen;
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto part = stream_rows(1, i, n);
      std::size_t last = 0;
      bool first = true;
      for (const auto& [g, row] : part) {
        // Disjoint across shards, ascending within a shard, and every
        // row is byte-identical to the unsharded run's row at g.
        EXPECT_TRUE(seen.insert(g).second) << "duplicate gidx " << g;
        EXPECT_TRUE(first || g > last);
        first = false;
        last = g;
        ASSERT_LT(g, all.size());
        EXPECT_EQ(row, all[g].second);
      }
      total += part.size();
    }
    EXPECT_EQ(total, all.size()) << "shard count " << n;
  }
}

// --- partial files through the driver ---------------------------------

TEST_F(ScaleOutTest, MergedShardsAreByteIdenticalToSingleProcessRun) {
  ASSERT_EQ(emc::repro::driver_run({"run", "zz_scale"}), 0);
  const std::string trials = read_file("zz_scale_trials.csv");
  const std::string agg = read_file("zz_scale.csv");
  ASSERT_FALSE(trials.empty());
  ASSERT_FALSE(agg.empty());
  fs::remove("zz_scale_trials.csv");
  fs::remove("zz_scale.csv");

  for (std::size_t n : {2u, 3u}) {
    const std::string dir = "parts" + std::to_string(n);
    std::vector<std::string> merge_args = {"merge"};
    for (std::size_t i = 0; i < n; ++i) {
      const std::string spec =
          std::to_string(i) + "/" + std::to_string(n);
      ASSERT_EQ(emc::repro::driver_run(
                    {"run", "zz_scale", "--shard", spec, "--partial", dir}),
                0)
          << spec;
      merge_args.push_back(dir + "/zz_scale.shard" + std::to_string(i) +
                           "of" + std::to_string(n) + ".partial");
    }
    ASSERT_EQ(emc::repro::driver_run(merge_args), 0) << n << " shards";
    EXPECT_EQ(read_file("zz_scale_trials.csv"), trials) << n << " shards";
    EXPECT_EQ(read_file("zz_scale.csv"), agg) << n << " shards";
    fs::remove("zz_scale_trials.csv");
    fs::remove("zz_scale.csv");
  }
}

TEST_F(ScaleOutTest, PartialInfoRoundTripsAndRejectsTruncation) {
  ASSERT_EQ(emc::repro::driver_run(
                {"run", "zz_scale", "--shard", "1/2", "--partial", "p"}),
            0);
  const std::string path = "p/zz_scale.shard1of2.partial";
  emc::repro::PartialInfo info;
  std::string error;
  ASSERT_TRUE(emc::repro::read_partial_info(path, &info, &error)) << error;
  EXPECT_EQ(info.header.figure, "zz_scale");
  EXPECT_EQ(info.header.shard_index, 1u);
  EXPECT_EQ(info.header.shard_count, 2u);
  EXPECT_EQ(info.header.seed, 77u);
  EXPECT_FALSE(info.header.smoke);
  EXPECT_EQ(info.header.total_scenarios, 24u);  // 3 grid points x 8 trials
  EXPECT_EQ(info.header.schema,
            (std::vector<std::string>{"x", "trial", "v", "ok"}));
  EXPECT_EQ(info.rows, 12u);  // trials 1,3,5,7 of 8, at 3 grid points

  // Strip the "end" guard: the file must be rejected as truncated.
  std::string text = read_file(path);
  const std::size_t end_pos = text.rfind("end\n");
  ASSERT_NE(end_pos, std::string::npos);
  ASSERT_TRUE(write_file("truncated.partial", text.substr(0, end_pos)));
  error.clear();
  EXPECT_FALSE(
      emc::repro::read_partial_info("truncated.partial", &info, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(ScaleOutTest, MergeRejectsBrokenShardSets) {
  ASSERT_EQ(emc::repro::driver_run(
                {"run", "zz_scale", "--shard", "0/2", "--partial", "a"}),
            0);
  ASSERT_EQ(emc::repro::driver_run(
                {"run", "zz_scale", "--shard", "1/2", "--partial", "a"}),
            0);
  // Same shard slot recorded under a different seed: identity mismatch.
  ASSERT_EQ(emc::repro::driver_run({"run", "zz_scale", "--shard", "1/2",
                                    "--partial", "b", "--seed", "99"}),
            0);
  const std::string s0 = "a/zz_scale.shard0of2.partial";
  const std::string s1 = "a/zz_scale.shard1of2.partial";
  const std::string s1_seed99 = "b/zz_scale.shard1of2.partial";

  // Incomplete set, duplicate slot, mixed identity, unreadable path.
  EXPECT_EQ(emc::repro::driver_run({"merge", s0}), 1);
  EXPECT_EQ(emc::repro::driver_run({"merge", s0, s0}), 1);
  EXPECT_EQ(emc::repro::driver_run({"merge", s0, s1_seed99}), 1);
  EXPECT_EQ(emc::repro::driver_run({"merge", s0, "a/no_such.partial"}), 1);

  // The intact set still merges after all those rejections.
  EXPECT_EQ(emc::repro::driver_run({"merge", s0, s1}), 0);
}

// --- flag validation ---------------------------------------------------

TEST_F(ScaleOutTest, ShardFlagValidation) {
  // --shard without --partial, with --check, malformed specs, and a
  // figure with no shard model are all usage errors (exit 2).
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_scale", "--shard", "0/2"}), 2);
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_scale", "--shard", "0/2",
                                    "--partial", "p", "--check"}),
            2);
  for (const char* spec : {"2/2", "3/2", "x/2", "0/0", "0", "0/2/3"}) {
    EXPECT_EQ(emc::repro::driver_run({"run", "zz_scale", "--shard", spec,
                                      "--partial", "p"}),
              2)
        << spec;
  }
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_scale_plain", "--shard", "0/2",
                                    "--partial", "p"}),
            2);
  EXPECT_EQ(
      emc::repro::driver_run({"run", "zz_scale_plain", "--trials", "10"}), 2);
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_scale", "--trials", "0"}), 2);
}

TEST_F(ScaleOutTest, TrialsOverrideScalesTheTrialAxis) {
  ASSERT_EQ(emc::repro::driver_run({"run", "zz_scale", "--trials", "20"}), 0);
  // Header + 3 grid points x 20 trials.
  std::istringstream in(read_file("zz_scale_trials.csv"));
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 61u);
}

TEST_F(ScaleOutTest, SingleTrialRunStillCarriesTrialSeed) {
  // --trials 1 is still a replicated run: its rows carry trial 0 and the
  // same trial seed as trial 0 of a larger run, on both the streaming
  // (driver) and the materialized (Workbench::run) path.
  ASSERT_EQ(emc::repro::driver_run({"run", "zz_scale", "--trials", "1"}), 0);
  const std::string one = read_file("zz_scale_trials.csv");
  ASSERT_EQ(emc::repro::driver_run({"run", "zz_scale", "--trials", "2"}), 0);
  std::istringstream two(read_file("zz_scale_trials.csv"));
  std::string want;
  std::string line;
  for (std::size_t i = 0; std::getline(two, line); ++i) {
    // Header, then every grid point's trial-0 row.
    if (i == 0 || i % 2 == 1) want += line + "\n";
  }
  EXPECT_EQ(one, want);

  RunContext ctx;
  ctx.seed = 77;
  ctx.trials_override = 1;
  emc::exp::Workbench materialized = zz_scale_bench(ctx);
  materialized.run(zz_scale_body);
  EXPECT_EQ(materialized.table().to_csv(), want);
}
