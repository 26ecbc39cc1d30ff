#include "summarize/summary.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>

#include "linalg/svd.hpp"

namespace jaal::summarize {
namespace {

CombinedSummary sample_combined() {
  CombinedSummary s;
  s.monitor = 3;
  s.centroids = linalg::Matrix{{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}};
  s.counts = {10, 20};
  return s;
}

SplitSummary sample_split() {
  SplitSummary s;
  s.monitor = 7;
  s.u_centroids = linalg::Matrix{{0.5, 0.1}, {0.2, 0.9}, {0.3, 0.3}};  // k=3, r=2
  s.sigma = {2.0, 0.5};
  s.vt = linalg::Matrix{{0.6, 0.8, 0.0, 0.0}, {0.0, 0.0, 1.0, 0.0}};   // r=2, p=4
  s.counts = {5, 6, 7};
  return s;
}

TEST(Summary, CombinedElementCountFormula) {
  // k(p+1) with k=2, p=3.
  EXPECT_EQ(sample_combined().element_count(), 2u * 4u);
}

TEST(Summary, SplitElementCountFormula) {
  // r(k+p+1)+k with r=2, k=3, p=4.
  EXPECT_EQ(sample_split().element_count(), 2u * 8u + 3u);
}

TEST(Summary, InvariantViolationsThrow) {
  CombinedSummary c = sample_combined();
  c.counts.push_back(1);
  EXPECT_THROW(c.check_invariants(), std::logic_error);

  SplitSummary s = sample_split();
  s.sigma.push_back(0.1);
  EXPECT_THROW(s.check_invariants(), std::logic_error);
}

TEST(Summary, SplitReconstructMatchesFactorProduct) {
  const SplitSummary s = sample_split();
  const CombinedSummary c = s.reconstruct();
  EXPECT_EQ(c.monitor, s.monitor);
  EXPECT_EQ(c.counts, s.counts);
  ASSERT_EQ(c.centroids.rows(), 3u);
  ASSERT_EQ(c.centroids.cols(), 4u);
  // Row 0: [0.5, 0.1] * diag(2, .5) * vt = [1.0, 0.05] * vt.
  EXPECT_NEAR(c.centroids(0, 0), 1.0 * 0.6, 1e-12);
  EXPECT_NEAR(c.centroids(0, 1), 1.0 * 0.8, 1e-12);
  EXPECT_NEAR(c.centroids(0, 2), 0.05, 1e-12);
  EXPECT_NEAR(c.centroids(0, 3), 0.0, 1e-12);
}

TEST(Summary, ReconstructionFidelityAgainstSvd) {
  // Round-trip: SVD a random matrix, package as split summary (each row its
  // own "centroid"), reconstruct, compare to the rank-r approximation.
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  linalg::Matrix x(20, 6);
  for (double& v : x.data()) v = unit(rng);
  const auto svd = linalg::truncated_svd(x, 3);

  SplitSummary s;
  s.u_centroids = svd.u;
  s.sigma = svd.sigma;
  s.vt = svd.v.transposed();
  s.counts.assign(20, 1);
  const CombinedSummary c = s.reconstruct();
  EXPECT_LT(c.centroids.max_abs_diff(svd.reconstruct()), 1e-9);
}

TEST(Summary, WireBytesIsFourPerElement) {
  const MonitorSummary combined = sample_combined();
  const MonitorSummary split = sample_split();
  EXPECT_EQ(wire_bytes(combined), element_count(combined) * 4);
  EXPECT_EQ(wire_bytes(split), element_count(split) * 4);
}

TEST(Summary, SerializeDeserializeCombined) {
  const MonitorSummary original = sample_combined();
  const auto bytes = serialize(original);
  const MonitorSummary restored = deserialize(bytes);
  const auto& c = std::get<CombinedSummary>(restored);
  const auto& expected = std::get<CombinedSummary>(original);
  EXPECT_EQ(c.monitor, expected.monitor);
  EXPECT_EQ(c.counts, expected.counts);
  EXPECT_LT(c.centroids.max_abs_diff(expected.centroids), 1e-6);
}

TEST(Summary, SerializeDeserializeSplit) {
  const MonitorSummary original = sample_split();
  const auto bytes = serialize(original);
  const MonitorSummary restored = deserialize(bytes);
  const auto& s = std::get<SplitSummary>(restored);
  const auto& expected = std::get<SplitSummary>(original);
  EXPECT_EQ(s.monitor, expected.monitor);
  EXPECT_EQ(s.counts, expected.counts);
  ASSERT_EQ(s.sigma.size(), expected.sigma.size());
  for (std::size_t i = 0; i < s.sigma.size(); ++i) {
    EXPECT_NEAR(s.sigma[i], expected.sigma[i], 1e-6);
  }
  EXPECT_LT(s.vt.max_abs_diff(expected.vt), 1e-6);
}

TEST(Summary, DeserializeRejectsGarbage) {
  EXPECT_THROW((void)deserialize(std::vector<std::uint8_t>{}),
               std::runtime_error);
  EXPECT_THROW((void)deserialize(std::vector<std::uint8_t>{99, 1, 2}),
               std::runtime_error);
  auto bytes = serialize(MonitorSummary{sample_combined()});
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW((void)deserialize(bytes), std::runtime_error);
}

TEST(Summary, WireFormatIsVersioned) {
  const auto f32 = serialize(MonitorSummary{sample_combined()});
  ASSERT_GE(f32.size(), 2u);
  EXPECT_EQ(f32[0], kWireMagic);
  EXPECT_EQ(f32[1], kWireVersion);

  // A pre-versioning buffer started with the bare record tag (1/2) — today
  // that reads as a bad magic byte and is rejected instead of decoding as
  // garbage.
  auto stale = f32;
  stale.erase(stale.begin(), stale.begin() + 2);
  EXPECT_THROW((void)deserialize(stale), std::runtime_error);

  // An unknown future version is rejected with a clear error.
  auto future = f32;
  future[1] = 9;
  EXPECT_THROW((void)deserialize(future), std::runtime_error);
}

TEST(Summary, Version2BufferIsRefused) {
  // Version 2 carried float64 scalars for the store; nothing writes it, so
  // a v2 buffer (say, a summary record of a store written by an older
  // build) is refused rather than misread as float32.
  SplitSummary s = sample_split();
  s.sigma[0] = 1.0 / 3.0;
  auto bytes = serialize(MonitorSummary{s});
  bytes[1] = 2;
  try {
    (void)parse_summary(bytes);
    FAIL() << "a v2 buffer parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 2"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)deserialize(bytes), std::runtime_error);
}

// Round-trip fuzz over random Combined/Split instances:
// deserialize(serialize(x)) must re-serialize to the identical buffer (the
// serialized form is a fixpoint).
TEST(Summary, FuzzRandomSummariesRoundTrip) {
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> value(-10.0, 10.0);
  std::uniform_int_distribution<std::size_t> dim(1, 24);
  std::uniform_int_distribution<std::uint64_t> count(0, 1u << 20);
  for (int iter = 0; iter < 200; ++iter) {
    MonitorSummary s;
    if (iter % 2 == 0) {
      CombinedSummary c;
      c.monitor = static_cast<MonitorId>(iter);
      c.centroids = linalg::Matrix(dim(rng), dim(rng));
      for (double& v : c.centroids.data()) v = value(rng);
      c.counts.resize(c.centroids.rows());
      for (auto& n : c.counts) n = count(rng);
      s = std::move(c);
    } else {
      SplitSummary sp;
      sp.monitor = static_cast<MonitorId>(iter);
      const std::size_t k = dim(rng), r = dim(rng), p = dim(rng);
      sp.u_centroids = linalg::Matrix(k, r);
      sp.vt = linalg::Matrix(r, p);
      for (double& v : sp.u_centroids.data()) v = value(rng);
      for (double& v : sp.vt.data()) v = value(rng);
      sp.sigma.resize(r);
      for (double& v : sp.sigma) v = value(rng);
      sp.counts.resize(k);
      for (auto& n : sp.counts) n = count(rng);
      s = std::move(sp);
    }
    const auto bytes = serialize(s);
    const MonitorSummary restored = deserialize(bytes);
    EXPECT_EQ(restored.index(), s.index());
    // Re-serializing the round-tripped value reproduces the buffer.
    EXPECT_EQ(serialize(restored), bytes) << iter;
  }
}

TEST(Summary, FormatCrossoverMatchesPaperFormula) {
  // S2 is cheaper iff r(k+p+1)+k < k(p+1)  (§4.3).  With p=18, k=200:
  // S1 = 3800; r=12 -> S2 = 12*219+200 = 2828 < 3800 (split wins);
  // r=17 -> S2 = 17*219+200 = 3923 > 3800 (combined wins).
  const std::size_t p = 18, k = 200;
  const auto s1 = k * (p + 1);
  const auto s2 = [&](std::size_t r) { return r * (k + p + 1) + k; };
  EXPECT_LT(s2(12), s1);
  EXPECT_GT(s2(17), s1);
}

}  // namespace
}  // namespace jaal::summarize
