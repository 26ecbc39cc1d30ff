#include "summarize/summarizer.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "summarize/summary.hpp"
#include "trace/background.hpp"

namespace jaal::summarize {
namespace {

std::vector<packet::PacketRecord> batch(std::size_t n, std::uint64_t seed = 1) {
  trace::BackgroundTraffic gen(trace::trace1_profile(), seed);
  return trace::take(gen, n);
}

SummarizerConfig config(std::size_t n = 1000, std::size_t r = 12,
                        std::size_t k = 200) {
  SummarizerConfig cfg;
  cfg.batch_size = n;
  cfg.min_batch = n / 2;
  cfg.rank = r;
  cfg.centroids = k;
  return cfg;
}

TEST(Summarizer, ValidatesConfig) {
  SummarizerConfig bad = config();
  bad.rank = 0;
  EXPECT_THROW(Summarizer{bad}, std::invalid_argument);
  bad = config();
  bad.rank = packet::kFieldCount + 1;
  EXPECT_THROW(Summarizer{bad}, std::invalid_argument);
  bad = config();
  bad.centroids = 0;
  EXPECT_THROW(Summarizer{bad}, std::invalid_argument);
  bad = config();
  bad.min_batch = bad.batch_size + 1;
  EXPECT_THROW(Summarizer{bad}, std::invalid_argument);
  bad = config();
  bad.min_batch = 0;
  EXPECT_THROW(Summarizer{bad}, std::invalid_argument);
}

TEST(Summarizer, RejectsBatchBelowMinimum) {
  Summarizer s(config(1000));
  const auto small = batch(100);
  EXPECT_THROW((void)s.summarize(small), std::invalid_argument);
}

TEST(Summarizer, CostFormulas) {
  const Summarizer s(config(1000, 12, 200));
  EXPECT_EQ(s.combined_cost(), 200u * 19u);
  EXPECT_EQ(s.split_cost(), 12u * 219u + 200u);
}

TEST(Summarizer, AutoPicksSplitWhenCheaper) {
  // r=12, k=200, p=18: split (2828) < combined (3800).
  Summarizer s(config(1000, 12, 200));
  const auto out = s.summarize(batch(1000));
  EXPECT_TRUE(std::holds_alternative<SplitSummary>(out.summary));
  EXPECT_EQ(element_count(out.summary), s.split_cost());
}

TEST(Summarizer, AutoPicksCombinedWhenCheaper) {
  // r=17, k=200: combined (3800) < split (3923).
  Summarizer s(config(1000, 17, 200));
  const auto out = s.summarize(batch(1000));
  EXPECT_TRUE(std::holds_alternative<CombinedSummary>(out.summary));
}

TEST(Summarizer, ForcedFormatsHonored) {
  SummarizerConfig cfg = config(1000, 12, 100);
  cfg.format = SummaryFormat::kCombined;
  Summarizer forced_combined(cfg);
  EXPECT_TRUE(std::holds_alternative<CombinedSummary>(
      forced_combined.summarize(batch(1000)).summary));
  cfg.format = SummaryFormat::kSplit;
  Summarizer forced_split(cfg);
  EXPECT_TRUE(std::holds_alternative<SplitSummary>(
      forced_split.summarize(batch(1000)).summary));
}

TEST(Summarizer, AssignmentCoversEveryPacket) {
  Summarizer s(config(800, 12, 50));
  const auto packets = batch(800);
  const auto out = s.summarize(packets);
  EXPECT_EQ(out.assignment.size(), 800u);
  for (std::size_t a : out.assignment) EXPECT_LT(a, 50u);
}

TEST(Summarizer, CountsSumToBatchSize) {
  Summarizer s(config(1000, 12, 200));
  const auto out = s.summarize(batch(1000));
  const auto& split = std::get<SplitSummary>(out.summary);
  std::uint64_t total = 0;
  for (std::uint64_t c : split.counts) total += c;
  EXPECT_EQ(total, 1000u);
}

TEST(Summarizer, CentroidsRepresentPackets) {
  // Every packet's normalized vector must be close to its centroid after
  // reconstruction (rank-12 keeps ~all energy of backbone traffic).
  SummarizerConfig cfg = config(500, 12, 100);
  Summarizer s(cfg);
  const auto packets = batch(500);
  const auto out = s.summarize(packets);
  const CombinedSummary combined =
      std::get<SplitSummary>(out.summary).reconstruct();
  double total_err = 0.0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const auto v = packet::to_normalized_vector(packets[i]);
    const auto c = combined.centroids.row(out.assignment[i]);
    double err = 0.0;
    for (std::size_t j = 0; j < packet::kFieldCount; ++j) {
      err += std::abs(v[j] - c[j]);
    }
    total_err += err / packet::kFieldCount;
  }
  EXPECT_LT(total_err / static_cast<double>(packets.size()), 0.05);
}

TEST(Summarizer, SplitAndCombinedCarryEquivalentInformation) {
  // §4.3: "the information compiled in S1 is equivalent to that in S2".
  // Cluster the same batch both ways with the same seed and compare the
  // reconstructed centroid sets' quantization error.
  const auto packets = batch(600, 9);
  SummarizerConfig cfg = config(600, 12, 80);
  cfg.format = SummaryFormat::kSplit;
  Summarizer split_s(cfg);
  const auto split_out = split_s.summarize(packets);
  const auto split_centroids =
      std::get<SplitSummary>(split_out.summary).reconstruct().centroids;
  EXPECT_EQ(split_centroids.rows(), 80u);
  EXPECT_EQ(split_centroids.cols(), packet::kFieldCount);
  for (double v : split_centroids.data()) {
    EXPECT_GT(v, -0.35);
    EXPECT_LT(v, 1.35);
  }
}

TEST(Summarizer, DeterministicAcrossInstancesWithSameSeed) {
  const auto packets = batch(700, 4);
  Summarizer a(config(700, 12, 64));
  Summarizer b(config(700, 12, 64));
  const auto oa = a.summarize(packets);
  const auto ob = b.summarize(packets);
  EXPECT_EQ(oa.assignment, ob.assignment);
  EXPECT_EQ(serialize(oa.summary), serialize(ob.summary));
}

TEST(Summarizer, CentroidsSurviveTheWireBitForBit) {
  // k-means clusters at float32 precision, so the centroids a summary
  // carries are float values and the float32 wire drops none of their bits
  // (sigma and V^T are still rounded by it).  Both formats.
  for (const SummaryFormat format :
       {SummaryFormat::kSplit, SummaryFormat::kCombined}) {
    SummarizerConfig cfg = config(900, 12, 80);
    cfg.format = format;
    Summarizer s(cfg);
    const auto out = s.summarize(batch(900, 6));
    const auto bytes = serialize(out.summary);
    const SummaryView view = parse_summary(bytes);
    const linalg::Matrix& want =
        format == SummaryFormat::kSplit
            ? std::get<SplitSummary>(out.summary).u_centroids
            : std::get<CombinedSummary>(out.summary).centroids;
    const WireScalars& wire =
        format == SummaryFormat::kSplit ? view.u_centroids : view.centroids;
    ASSERT_EQ(wire.size, want.data().size());
    std::vector<double> got(wire.size);
    wire.decode(got.data());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(std::memcmp(&got[i], &want.data()[i], sizeof(double)), 0)
          << (format == SummaryFormat::kSplit ? "split" : "combined")
          << " element " << i;
    }
  }
}

TEST(Summarizer, TinyRankStillWorks) {
  Summarizer s(config(600, 1, 10));
  const auto out = s.summarize(batch(600));
  EXPECT_EQ(out.assignment.size(), 600u);
}

}  // namespace
}  // namespace jaal::summarize
