// Unit tests for the paper-fidelity validation layer: fidelity statistics
// (Spearman with ties, sign agreement, tolerance bands), the golden-file
// round trip, the scale fingerprint that keys golden entries, and the exact
// text the gate renders from two hand-built figures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "validation/fidelity.hpp"
#include "validation/figures.hpp"
#include "validation/golden.hpp"
#include "validation/scale.hpp"
#include "validation/scorecard.hpp"

namespace esteem::validation {
namespace {

// ---------------------------------------------------------------------------
// rank_with_ties / spearman
// ---------------------------------------------------------------------------

TEST(RankWithTies, DistinctValuesGetOrdinalRanks) {
  const std::vector<double> ranks = rank_with_ties({30.0, 10.0, 20.0});
  ASSERT_EQ(ranks.size(), 3u);
  EXPECT_DOUBLE_EQ(ranks[0], 3.0);
  EXPECT_DOUBLE_EQ(ranks[1], 1.0);
  EXPECT_DOUBLE_EQ(ranks[2], 2.0);
}

TEST(RankWithTies, TiesShareTheAverageRank) {
  // 5 appears at sorted positions 2 and 3 -> both rank 2.5.
  const std::vector<double> ranks = rank_with_ties({5.0, 1.0, 5.0, 9.0});
  EXPECT_DOUBLE_EQ(ranks[0], 2.5);
  EXPECT_DOUBLE_EQ(ranks[1], 1.0);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(Spearman, PerfectMonotoneAgreementIsOne) {
  // Monotone but non-linear: rank correlation sees a perfect relationship.
  EXPECT_DOUBLE_EQ(spearman({1.0, 2.0, 3.0, 4.0}, {1.0, 4.0, 9.0, 16.0}), 1.0);
}

TEST(Spearman, ReversedOrderIsMinusOne) {
  EXPECT_DOUBLE_EQ(spearman({1.0, 2.0, 3.0, 4.0}, {8.0, 6.0, 4.0, 2.0}), -1.0);
}

TEST(Spearman, TiesStillYieldPerfectCorrelationWhenOrdersMatch) {
  // Identical tie structure on both sides keeps rho at exactly 1.
  const std::vector<double> a{1.0, 2.0, 2.0, 3.0};
  const std::vector<double> b{10.0, 20.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(spearman(a, b), 1.0);
}

TEST(Spearman, UndefinedCasesReturnNaN) {
  EXPECT_TRUE(std::isnan(spearman({1.0, 2.0}, {1.0})));        // size mismatch
  EXPECT_TRUE(std::isnan(spearman({1.0}, {1.0})));             // < 2 pairs
  EXPECT_TRUE(std::isnan(spearman({3.0, 3.0}, {1.0, 2.0})));   // constant side
}

// ---------------------------------------------------------------------------
// sign_agreement / BandCheck
// ---------------------------------------------------------------------------

TEST(SignAgreement, CountsAgreeingClaims) {
  const std::vector<SignClaim> claims{
      {"a", true, true}, {"b", true, false}, {"c", false, false}};
  EXPECT_DOUBLE_EQ(sign_agreement(claims), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(sign_agreement({}), 1.0);
}

TEST(BandCheck, RelativeBand) {
  BandCheck b{"rel", 103.0, 100.0, 0.05, true};
  EXPECT_NEAR(b.error(), 0.03, 1e-12);
  EXPECT_TRUE(b.pass());
  b.measured = 106.0;
  EXPECT_FALSE(b.pass());
}

TEST(BandCheck, AbsoluteBand) {
  BandCheck b{"abs", 1.004, 1.0, 0.01, false};
  EXPECT_TRUE(b.pass());
  b.measured = 1.02;
  EXPECT_FALSE(b.pass());
}

TEST(BandCheck, NearZeroReferenceReadsAsLargeRelativeError) {
  const BandCheck b{"zero-ref", 0.5, 0.0, 0.10, true};
  EXPECT_FALSE(b.pass());
}

// ---------------------------------------------------------------------------
// Golden file round trip
// ---------------------------------------------------------------------------

GoldenFile sample_golden() {
  GoldenFile file;
  file.generator = "unit test \"quoted\"\nsecond line";
  GoldenScale scale;
  scale.fingerprint = "v1;instr=300000;warmup=60000;seed=42;ifactor=4;hyst=2;shrink=2";
  scale.label = "smoke";
  GoldenFigure fig;
  fig.id = "fig3";
  fig.esteem_energy_pct = 23.456789012345678;
  fig.rpv_energy_pct = 19.75;
  fig.esteem_ws = 1.0009765625;
  fig.rpv_ws = 0.999;
  fig.esteem_rpki_dec = 433.25;
  fig.rpv_rpki_dec = 161.5;
  fig.esteem_mpki_inc = 0.125;
  fig.esteem_active_pct = 57.3;
  fig.workloads = {"gamess", "mcf", "h264ref"};
  fig.esteem_energy_savings = {30.1, 10.2, 25.3};
  fig.rpv_energy_savings = {20.0, 8.0, 15.0};
  scale.figures.push_back(fig);
  file.scales.push_back(scale);
  return file;
}

TEST(Golden, RoundTripIsExact) {
  const GoldenFile before = sample_golden();
  const GoldenFile after = golden_from_json(golden_to_json(before));

  ASSERT_EQ(after.scales.size(), 1u);
  EXPECT_EQ(after.generator, before.generator);
  const GoldenScale& s = after.scales[0];
  EXPECT_EQ(s.fingerprint, before.scales[0].fingerprint);
  EXPECT_EQ(s.label, "smoke");
  ASSERT_EQ(s.figures.size(), 1u);
  const GoldenFigure& a = s.figures[0];
  const GoldenFigure& b = before.scales[0].figures[0];
  // %.17g serialization: doubles survive bit-exactly.
  EXPECT_EQ(a.esteem_energy_pct, b.esteem_energy_pct);
  EXPECT_EQ(a.esteem_ws, b.esteem_ws);
  EXPECT_EQ(a.workloads, b.workloads);
  EXPECT_EQ(a.esteem_energy_savings, b.esteem_energy_savings);
  EXPECT_EQ(a.rpv_energy_savings, b.rpv_energy_savings);
}

TEST(Golden, SerializationIsStable) {
  // Render -> parse -> render must be byte-identical (CI diffs the file).
  const std::string once = golden_to_json(sample_golden());
  EXPECT_EQ(golden_to_json(golden_from_json(once)), once);
}

TEST(Golden, CommittedFileReserializesByteIdentical) {
  const std::string path = std::string(ESTEEM_SOURCE_DIR) + "/validation/golden.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(golden_to_json(load_golden(path)), bytes.str());
}

TEST(Golden, ReRecordingAnUnchangedEntryIsByteIdentical) {
  // What `--update-golden` does on an unchanged tree: re-record a whole
  // entry, or one figure of it (--figures fig3). Neither may touch the file.
  const std::string path = std::string(ESTEEM_SOURCE_DIR) + "/validation/golden.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  GoldenFile file = golden_from_json(text.str());
  ASSERT_FALSE(file.scales.empty());
  const std::vector<GoldenScale> entries = file.scales;
  for (const GoldenScale& entry : entries) {
    file.record(entry);
    EXPECT_EQ(golden_to_json(file), text.str()) << entry.fingerprint;
    GoldenScale one = entry;
    one.figures.resize(1);
    file.record(one);
    EXPECT_EQ(golden_to_json(file), text.str()) << entry.fingerprint << " one figure";
  }
}

TEST(Golden, VersionMismatchIsRejected) {
  GoldenFile file = sample_golden();
  file.version = kGoldenVersion + 1;
  const std::string json = golden_to_json(file);
  EXPECT_THROW(golden_from_json(json), std::runtime_error);
}

TEST(Golden, MalformedInputIsRejected) {
  EXPECT_THROW(golden_from_json(""), std::runtime_error);
  EXPECT_THROW(golden_from_json("{\"version\": 1"), std::runtime_error);
  EXPECT_THROW(golden_from_json("[1, 2]"), std::runtime_error);
  EXPECT_THROW(golden_from_json("{\"version\": 1, \"generator\": \"g\"}"),
               std::runtime_error);
  // The version is a whole number, not any double that casts to 1.
  for (const char* version : {"1.7", "1e0"}) {
    std::string json = golden_to_json(sample_golden());
    json.replace(json.find("\"version\": 1"), 12, std::string("\"version\": ") + version);
    EXPECT_THROW(golden_from_json(json), std::runtime_error) << version;
  }
}

TEST(Golden, FindAndUpsertScale) {
  GoldenFile file = sample_golden();
  EXPECT_NE(file.find_scale(file.scales[0].fingerprint), nullptr);
  EXPECT_EQ(file.find_scale("v1;other"), nullptr);

  GoldenScale replacement = file.scales[0];
  replacement.figures[0].esteem_energy_pct = 99.0;
  file.upsert_scale(replacement);
  ASSERT_EQ(file.scales.size(), 1u);  // replaced, not appended
  EXPECT_DOUBLE_EQ(file.scales[0].figures[0].esteem_energy_pct, 99.0);

  GoldenScale fresh;
  fresh.fingerprint = "v1;other";
  file.upsert_scale(fresh);
  EXPECT_EQ(file.scales.size(), 2u);

  // Re-recording a subset of figures (--update-golden --figures fig3) merges
  // into the scale entry: fig3 is replaced, fig4 is kept, fig5 is added.
  GoldenScale both = file.scales[0];
  both.figures.push_back(both.figures[0]);
  both.figures[1].id = "fig4";
  both.figures[1].esteem_energy_pct = 44.0;
  file.upsert_scale(both);
  GoldenScale partial;
  partial.fingerprint = both.fingerprint;
  partial.label = both.label;
  partial.figures = {both.figures[0], both.figures[0]};
  partial.figures[0].esteem_energy_pct = 33.0;
  partial.figures[1].id = "fig5";
  file.upsert_scale(partial);
  ASSERT_EQ(file.scales[0].figures.size(), 3u);
  EXPECT_EQ(file.scales[0].figures[0].id, "fig3");
  EXPECT_DOUBLE_EQ(file.scales[0].find_figure("fig3")->esteem_energy_pct, 33.0);
  ASSERT_NE(file.scales[0].find_figure("fig4"), nullptr);
  EXPECT_DOUBLE_EQ(file.scales[0].find_figure("fig4")->esteem_energy_pct, 44.0);
  EXPECT_NE(file.scales[0].find_figure("fig5"), nullptr);
}

// ---------------------------------------------------------------------------
// Scale fingerprints and the figure matrix
// ---------------------------------------------------------------------------

TEST(Scale, FingerprintSeparatesScales) {
  EXPECT_NE(scale_fingerprint(smoke_scale()), scale_fingerprint(ScaleSpec{}));
  ScaleSpec a = smoke_scale();
  ScaleSpec b = smoke_scale();
  b.seed = 43;
  EXPECT_NE(scale_fingerprint(a), scale_fingerprint(b));
  b = smoke_scale();
  b.threads = 7;  // threads do not change results, so not in the fingerprint
  EXPECT_EQ(scale_fingerprint(a), scale_fingerprint(b));
}

TEST(Figures, MatrixCoversAllFourFiguresWithDistinctConfigs) {
  ASSERT_EQ(figure_matrix().size(), 4u);
  EXPECT_NE(find_figure("fig3"), nullptr);
  EXPECT_EQ(find_figure("fig9"), nullptr);

  const ScaleSpec scale = smoke_scale();
  const SystemConfig f3 = figure_config(*find_figure("fig3"), scale);
  const SystemConfig f4 = figure_config(*find_figure("fig4"), scale);
  const SystemConfig f5 = figure_config(*find_figure("fig5"), scale);
  EXPECT_EQ(f3.ncores, 1u);
  EXPECT_EQ(f4.ncores, 2u);
  EXPECT_DOUBLE_EQ(f3.edram.retention_us, 50.0);
  EXPECT_DOUBLE_EQ(f5.edram.retention_us, 40.0);
  // The scaled interval is floored at one retention period, so the 40 us
  // figure floors lower than the 50 us one at smoke scale.
  EXPECT_LE(f5.esteem.interval_cycles, f3.esteem.interval_cycles);
}

// ---------------------------------------------------------------------------
// Gate output pins: the scorecard, the golden writer, the golden diff and the
// figure summary, rendered from two hand-built figures (fig3 and fig4, three
// workloads each). No simulation runs; the rows are real SweepResult rows
// and the averages come from SweepResult::summary, as in run_figure.
// ---------------------------------------------------------------------------

/// The metrics one technique reports for one workload.
struct Cell {
  double energy_pct, ws, rpki_dec, mpki_inc, active_pct;
};

sim::TechniqueComparison comparison(const std::string& workload,
                                    sim::Technique technique, const Cell& c) {
  sim::TechniqueComparison out;
  out.workload = workload;
  out.technique = technique;
  out.energy_saving_pct = c.energy_pct;
  out.weighted_speedup = c.ws;
  out.rpki_decrease = c.rpki_dec;
  out.mpki_increase = c.mpki_inc;
  out.active_ratio_pct = c.active_pct;
  return out;
}

struct Row {
  std::string workload;
  Cell esteem, rpv;
};

/// A FigureResult as run_figure leaves it: slot 0 ESTEEM, slot 1 RPV.
FigureResult hand_built(const char* id, const ScaleSpec& scale,
                        const std::vector<Row>& rows) {
  FigureResult r;
  r.spec = find_figure(id);
  r.scale = scale;
  r.config = figure_config(*r.spec, scale);
  r.sweep.techniques = {sim::Technique::Esteem, sim::Technique::RefrintRPV};
  for (const Row& row : rows) {
    sim::WorkloadRow w;
    w.workload = row.workload;
    w.completed = true;
    w.comparisons = {comparison(row.workload, sim::Technique::Esteem, row.esteem),
                     comparison(row.workload, sim::Technique::RefrintRPV, row.rpv)};
    r.sweep.rows.push_back(std::move(w));
  }
  r.esteem = r.sweep.summary(sim::Technique::Esteem);
  r.rpv = r.sweep.summary(sim::Technique::RefrintRPV);
  return r;
}

/// fig3 passes every paper-shape check; fig4's RPV energy saving sits far
/// outside its paper band.
std::vector<FigureResult> pinned_matrix(const ScaleSpec& scale) {
  return {hand_built("fig3", scale,
                     {{"As", {30.5, 1.02, 420.0, 0.25, 40.0}, {18.0, 1.01, 150.0, 0.0, 100.0}},
                      {"Bw", {12.0, 0.99, 380.0, 0.5, 55.5}, {10.5, 1.0, 160.0, 0.0, 100.0}},
                      {"Bz", {33.0, 1.05, 510.0, 0.125, 30.0}, {19.5, 1.03, 170.0, 0.0, 100.0}}}),
          hand_built("fig4", scale,
                     {{"GmDl", {40.0, 1.1, 600.0, 0.75, 25.0}, {38.0, 1.08, 590.0, 0.0, 100.0}},
                      {"AsXb", {45.0, 1.15, 650.0, 0.5, 28.0}, {42.0, 1.1, 640.0, 0.0, 100.0}},
                      {"GcGa", {50.0, 1.2, 700.0, 0.6, 22.0}, {46.0, 1.12, 700.0, 0.0, 100.0}}})};
}

ScaleSpec labelled(ScaleSpec scale, const char* label) {
  scale.label = label;
  return scale;
}

GoldenFile matching_golden(const std::vector<FigureResult>& results) {
  GoldenFile file;
  file.record(to_golden(results));
  return file;
}

/// fig3: ESTEEM WS past its 0.01 band, RPV RPKI decrease 1% off (inside the
/// 2% band), ESTEEM energy ranks reversed. fig4: workload order changed.
GoldenFile drifted_golden(const std::vector<FigureResult>& results) {
  GoldenFile file = matching_golden(results);
  GoldenFigure& f3 = file.scales[0].figures[0];
  f3.esteem_ws += 0.02;
  f3.rpv_rpki_dec *= 1.01;
  std::reverse(f3.esteem_energy_savings.begin(), f3.esteem_energy_savings.end());
  GoldenFigure& f4 = file.scales[0].figures[1];
  std::swap(f4.workloads[0], f4.workloads[1]);
  return file;
}

Scorecard score(const std::vector<FigureResult>& results, const GoldenFile& golden) {
  return build_scorecard(results, &golden);
}

std::vector<FigureResult> smoke_matrix() {
  return pinned_matrix(labelled(smoke_scale(), "smoke"));
}

std::vector<FigureResult> bench_matrix() {
  return pinned_matrix(labelled(bench_scale(), "bench"));
}

TEST(GatePins, ScorecardTextAtSmokeSkipsPaperChecks) {
  const std::vector<FigureResult> results = smoke_matrix();
  EXPECT_EQ(scorecard_text(score(results, matching_golden(results))),
            R"pin(Paper-fidelity scorecard — scale 'smoke' (v1;instr=300000;warmup=60000;seed=42;ifactor=4;hyst=2;shrink=2)
Paper-shape checks: skipped (non-bench scale)

Figure 3: single-core, 50us retention — PASS
  [PASS] drift fig3: ESTEEM energy saving %: 25.1667 vs golden 25.1667 (|err| 0.0000, tol 0.75)
  [PASS] drift fig3: RPV energy saving %: 16.0000 vs golden 16.0000 (|err| 0.0000, tol 0.75)
  [PASS] drift fig3: ESTEEM weighted speedup: 1.0197 vs golden 1.0197 (|err| 0.0000, tol 0.01)
  [PASS] drift fig3: RPV weighted speedup: 1.0133 vs golden 1.0133 (|err| 0.0000, tol 0.01)
  [PASS] drift fig3: ESTEEM RPKI decrease: 436.6667 vs golden 436.6667 (err 0.00%, tol 2%)
  [PASS] drift fig3: RPV RPKI decrease: 160.0000 vs golden 160.0000 (err 0.00%, tol 2%)
  [PASS] drift fig3: ESTEEM MPKI increase: 0.2917 vs golden 0.2917 (|err| 0.0000, tol 0.05)
  [PASS] drift fig3: ESTEEM active ratio %: 41.8333 vs golden 41.8333 (|err| 0.0000, tol 1.00)
  [PASS] rank  fig3: Spearman vs golden 1.000 (min 0.95)

Figure 4: dual-core, 50us retention — PASS
  [PASS] drift fig4: ESTEEM energy saving %: 45.0000 vs golden 45.0000 (|err| 0.0000, tol 0.75)
  [PASS] drift fig4: RPV energy saving %: 42.0000 vs golden 42.0000 (|err| 0.0000, tol 0.75)
  [PASS] drift fig4: ESTEEM weighted speedup: 1.1493 vs golden 1.1493 (|err| 0.0000, tol 0.01)
  [PASS] drift fig4: RPV weighted speedup: 1.0999 vs golden 1.0999 (|err| 0.0000, tol 0.01)
  [PASS] drift fig4: ESTEEM RPKI decrease: 650.0000 vs golden 650.0000 (err 0.00%, tol 2%)
  [PASS] drift fig4: RPV RPKI decrease: 643.3333 vs golden 643.3333 (err 0.00%, tol 2%)
  [PASS] drift fig4: ESTEEM MPKI increase: 0.6167 vs golden 0.6167 (|err| 0.0000, tol 0.05)
  [PASS] drift fig4: ESTEEM active ratio %: 25.0000 vs golden 25.0000 (|err| 0.0000, tol 1.00)
  [PASS] rank  fig4: Spearman vs golden 1.000 (min 0.95)

Overall: PASS
)pin");
}

TEST(GatePins, ScorecardTextAtBenchWithMatchingGolden) {
  const std::vector<FigureResult> results = bench_matrix();
  EXPECT_EQ(scorecard_text(score(results, matching_golden(results))),
            R"pin(Paper-fidelity scorecard — scale 'bench' (v1;instr=8000000;warmup=1600000;seed=42;ifactor=4;hyst=2;shrink=2)
Paper-shape checks: enabled

Figure 3: single-core, 50us retention — PASS
  [PASS] sign  fig3: ESTEEM saves more energy than RPV
  [PASS] sign  fig3: ESTEEM cuts more refreshes than RPV
  [PASS] sign  fig3: ESTEEM energy saving is positive
  [PASS] band  fig3: ESTEEM energy saving vs paper: measured 25.17 vs paper 25.82 (err 2.5%, tol 45%)
  [PASS] band  fig3: RPV energy saving vs paper: measured 16.00 vs paper 15.93 (err 0.4%, tol 45%)
  [PASS] drift fig3: ESTEEM energy saving %: 25.1667 vs golden 25.1667 (|err| 0.0000, tol 0.75)
  [PASS] drift fig3: RPV energy saving %: 16.0000 vs golden 16.0000 (|err| 0.0000, tol 0.75)
  [PASS] drift fig3: ESTEEM weighted speedup: 1.0197 vs golden 1.0197 (|err| 0.0000, tol 0.01)
  [PASS] drift fig3: RPV weighted speedup: 1.0133 vs golden 1.0133 (|err| 0.0000, tol 0.01)
  [PASS] drift fig3: ESTEEM RPKI decrease: 436.6667 vs golden 436.6667 (err 0.00%, tol 2%)
  [PASS] drift fig3: RPV RPKI decrease: 160.0000 vs golden 160.0000 (err 0.00%, tol 2%)
  [PASS] drift fig3: ESTEEM MPKI increase: 0.2917 vs golden 0.2917 (|err| 0.0000, tol 0.05)
  [PASS] drift fig3: ESTEEM active ratio %: 41.8333 vs golden 41.8333 (|err| 0.0000, tol 1.00)
  [PASS] rank  fig3: Spearman vs golden 1.000 (min 0.95)

Figure 4: dual-core, 50us retention — FAIL
  [PASS] sign  fig4: ESTEEM saves more energy than RPV
  [PASS] sign  fig4: ESTEEM cuts more refreshes than RPV
  [PASS] sign  fig4: ESTEEM energy saving is positive
  [PASS] band  fig4: ESTEEM energy saving vs paper: measured 45.00 vs paper 32.63 (err 37.9%, tol 45%)
  [FAIL] band  fig4: RPV energy saving vs paper: measured 42.00 vs paper 14.30 (err 193.7%, tol 45%)
  [PASS] drift fig4: ESTEEM energy saving %: 45.0000 vs golden 45.0000 (|err| 0.0000, tol 0.75)
  [PASS] drift fig4: RPV energy saving %: 42.0000 vs golden 42.0000 (|err| 0.0000, tol 0.75)
  [PASS] drift fig4: ESTEEM weighted speedup: 1.1493 vs golden 1.1493 (|err| 0.0000, tol 0.01)
  [PASS] drift fig4: RPV weighted speedup: 1.0999 vs golden 1.0999 (|err| 0.0000, tol 0.01)
  [PASS] drift fig4: ESTEEM RPKI decrease: 650.0000 vs golden 650.0000 (err 0.00%, tol 2%)
  [PASS] drift fig4: RPV RPKI decrease: 643.3333 vs golden 643.3333 (err 0.00%, tol 2%)
  [PASS] drift fig4: ESTEEM MPKI increase: 0.6167 vs golden 0.6167 (|err| 0.0000, tol 0.05)
  [PASS] drift fig4: ESTEEM active ratio %: 25.0000 vs golden 25.0000 (|err| 0.0000, tol 1.00)
  [PASS] rank  fig4: Spearman vs golden 1.000 (min 0.95)

Cross-figure claims
  [PASS] dual-core saves more than single-core (fig4 > fig3)

Overall: FAIL
)pin");
}

TEST(GatePins, ScorecardTextAtBenchWithDriftedGolden) {
  const std::vector<FigureResult> results = bench_matrix();
  EXPECT_EQ(scorecard_text(score(results, drifted_golden(results))),
            R"pin(Paper-fidelity scorecard — scale 'bench' (v1;instr=8000000;warmup=1600000;seed=42;ifactor=4;hyst=2;shrink=2)
Paper-shape checks: enabled

Figure 3: single-core, 50us retention — FAIL
  [PASS] sign  fig3: ESTEEM saves more energy than RPV
  [PASS] sign  fig3: ESTEEM cuts more refreshes than RPV
  [PASS] sign  fig3: ESTEEM energy saving is positive
  [PASS] band  fig3: ESTEEM energy saving vs paper: measured 25.17 vs paper 25.82 (err 2.5%, tol 45%)
  [PASS] band  fig3: RPV energy saving vs paper: measured 16.00 vs paper 15.93 (err 0.4%, tol 45%)
  [PASS] drift fig3: ESTEEM energy saving %: 25.1667 vs golden 25.1667 (|err| 0.0000, tol 0.75)
  [PASS] drift fig3: RPV energy saving %: 16.0000 vs golden 16.0000 (|err| 0.0000, tol 0.75)
  [FAIL] drift fig3: ESTEEM weighted speedup: 1.0197 vs golden 1.0397 (|err| 0.0200, tol 0.01)
  [PASS] drift fig3: RPV weighted speedup: 1.0133 vs golden 1.0133 (|err| 0.0000, tol 0.01)
  [PASS] drift fig3: ESTEEM RPKI decrease: 436.6667 vs golden 436.6667 (err 0.00%, tol 2%)
  [PASS] drift fig3: RPV RPKI decrease: 160.0000 vs golden 161.6000 (err 0.99%, tol 2%)
  [PASS] drift fig3: ESTEEM MPKI increase: 0.2917 vs golden 0.2917 (|err| 0.0000, tol 0.05)
  [PASS] drift fig3: ESTEEM active ratio %: 41.8333 vs golden 41.8333 (|err| 0.0000, tol 1.00)
  [FAIL] rank  fig3: Spearman vs golden 0.500 (min 0.95)

Figure 4: dual-core, 50us retention — FAIL
  [PASS] sign  fig4: ESTEEM saves more energy than RPV
  [PASS] sign  fig4: ESTEEM cuts more refreshes than RPV
  [PASS] sign  fig4: ESTEEM energy saving is positive
  [PASS] band  fig4: ESTEEM energy saving vs paper: measured 45.00 vs paper 32.63 (err 37.9%, tol 45%)
  [FAIL] band  fig4: RPV energy saving vs paper: measured 42.00 vs paper 14.30 (err 193.7%, tol 45%)
  [PASS] drift fig4: ESTEEM energy saving %: 45.0000 vs golden 45.0000 (|err| 0.0000, tol 0.75)
  [PASS] drift fig4: RPV energy saving %: 42.0000 vs golden 42.0000 (|err| 0.0000, tol 0.75)
  [PASS] drift fig4: ESTEEM weighted speedup: 1.1493 vs golden 1.1493 (|err| 0.0000, tol 0.01)
  [PASS] drift fig4: RPV weighted speedup: 1.0999 vs golden 1.0999 (|err| 0.0000, tol 0.01)
  [PASS] drift fig4: ESTEEM RPKI decrease: 650.0000 vs golden 650.0000 (err 0.00%, tol 2%)
  [PASS] drift fig4: RPV RPKI decrease: 643.3333 vs golden 643.3333 (err 0.00%, tol 2%)
  [PASS] drift fig4: ESTEEM MPKI increase: 0.6167 vs golden 0.6167 (|err| 0.0000, tol 0.05)
  [PASS] drift fig4: ESTEEM active ratio %: 25.0000 vs golden 25.0000 (|err| 0.0000, tol 1.00)
  [FAIL] rank  fig4: workload set differs from golden

Cross-figure claims
  [PASS] dual-core saves more than single-core (fig4 > fig3)

Overall: FAIL
)pin");
}

TEST(GatePins, ScorecardMarkdown) {
  const std::vector<FigureResult> smoke = smoke_matrix();
  EXPECT_EQ(scorecard_markdown(score(smoke, matching_golden(smoke))),
            R"pin(| figure | sweep | paper shape | drift vs golden | rank (Spearman) | verdict |
|---|---|---|---|---|---|
| fig3 | ok | skipped | ok (8 bands) | 1.00 | **PASS** |
| fig4 | ok | skipped | ok (8 bands) | 1.00 | **PASS** |

Overall: **PASS**
)pin");
  const std::vector<FigureResult> bench = bench_matrix();
  EXPECT_EQ(scorecard_markdown(score(bench, drifted_golden(bench))),
            R"pin(| figure | sweep | paper shape | drift vs golden | rank (Spearman) | verdict |
|---|---|---|---|---|---|
| fig3 | ok | ok (3 signs, 2 bands) | 1 failed | 0.50 | **FAIL** |
| fig4 | ok | 1 failed | ok (8 bands) | workloads differ | **FAIL** |

Cross-figure claims:

- ✅ dual-core saves more than single-core (fig4 > fig3)

Overall: **FAIL**
)pin");
}

TEST(GatePins, GoldenJsonOfAMeasuredMatrix) {
  EXPECT_EQ(golden_to_json(matching_golden(smoke_matrix())),
            R"pin({
  "version": 1,
  "generator": "esteem_validate --update-golden",
  "scales": [
    {
      "fingerprint": "v1;instr=300000;warmup=60000;seed=42;ifactor=4;hyst=2;shrink=2",
      "label": "smoke",
      "figures": [
        {
          "id": "fig3",
          "esteem_energy_pct": 25.166666666666668,
          "rpv_energy_pct": 16,
          "esteem_ws": 1.0197057975031496,
          "rpv_ws": 1.0132568136278941,
          "esteem_rpki_dec": 436.66666666666669,
          "rpv_rpki_dec": 160,
          "esteem_mpki_inc": 0.29166666666666669,
          "esteem_active_pct": 41.833333333333336,
          "workloads": ["As", "Bw", "Bz"],
          "esteem_energy_savings": [30.5, 12, 33],
          "rpv_energy_savings": [18, 10.5, 19.5]
        },
        {
          "id": "fig4",
          "esteem_energy_pct": 45,
          "rpv_energy_pct": 42,
          "esteem_ws": 1.1492749052302107,
          "rpv_ws": 1.0998787745196268,
          "esteem_rpki_dec": 650,
          "rpv_rpki_dec": 643.33333333333337,
          "esteem_mpki_inc": 0.6166666666666667,
          "esteem_active_pct": 25,
          "workloads": ["GmDl", "AsXb", "GcGa"],
          "esteem_energy_savings": [40, 45, 50],
          "rpv_energy_savings": [38, 42, 46]
        }
      ]
    }
  ]
}
)pin");
}

TEST(GatePins, GoldenDiffNamesTheChangedMetric) {
  const GoldenScale before = to_golden(smoke_matrix());
  GoldenScale after = before;
  after.figures[1].rpv_rpki_dec = 650.5;
  EXPECT_EQ(golden_diff_text(before, after),
            R"pin(  fig4.rpv_rpki_dec                              643.3333 ->     650.5000  (+7.1667)
)pin");
  EXPECT_EQ(golden_diff_text(before, before), "");
}

TEST(GatePins, FigureTextSummaryTable) {
  const std::string text = figure_text(bench_matrix()[0]);
  const std::size_t at = text.find("Summary vs.");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(text.substr(at),
            R"pin(Summary vs. paper-reported averages (shape, not absolutes):
+-------------------------+-------+----------+
| average metric          | paper | measured |
+-------------------------+-------+----------+
| ESTEEM energy saving %  | 25.82 |    25.17 |
| RPV energy saving %     | 15.93 |    16.00 |
| ESTEEM weighted speedup |  1.09 |    1.020 |
| RPV weighted speedup    |  1.06 |    1.013 |
| ESTEEM RPKI decrease    | 467.0 |    436.7 |
| RPV RPKI decrease       | 161.0 |    160.0 |
| ESTEEM MPKI increase    |     - |    0.292 |
| ESTEEM active ratio %   |     - |     41.8 |
+-------------------------+-------+----------+

)pin");
}

}  // namespace
}  // namespace esteem::validation
