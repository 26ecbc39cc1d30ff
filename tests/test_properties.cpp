// Parameterized property tests: invariants that must hold across sweeps of
// configuration space (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <random>

#include "attack/generators.hpp"
#include "core/experiment.hpp"
#include "linalg/svd.hpp"
#include "netsim/topology.hpp"
#include "summarize/summarizer.hpp"
#include "trace/mix.hpp"

namespace jaal {
namespace {

// --- SVD reconstruction error decreases with rank, across shapes ----------

struct SvdShape {
  std::size_t rows;
  std::size_t cols;
  std::uint64_t seed;
};

class SvdProperty : public ::testing::TestWithParam<SvdShape> {};

TEST_P(SvdProperty, ReconstructionErrorMatchesTailEnergy) {
  const SvdShape shape = GetParam();
  std::mt19937_64 rng(shape.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  linalg::Matrix x(shape.rows, shape.cols);
  for (double& v : x.data()) v = unit(rng);

  const auto full = linalg::svd(x);
  const std::size_t m = std::min(shape.rows, shape.cols);
  for (std::size_t r = 1; r <= m; r += std::max<std::size_t>(1, m / 4)) {
    double tail = 0.0;
    for (std::size_t i = r; i < m; ++i) tail += full.sigma[i] * full.sigma[i];
    const double err = (x - full.reconstruct_rank(r)).frobenius_norm();
    EXPECT_NEAR(err * err, tail, 1e-6 * std::max(1.0, tail))
        << shape.rows << "x" << shape.cols << " rank " << r;
  }
}

TEST_P(SvdProperty, FactorsReproduceWithinTolerance) {
  const SvdShape shape = GetParam();
  std::mt19937_64 rng(shape.seed ^ 0xABCD);
  std::normal_distribution<double> gauss(0.0, 1.0);
  linalg::Matrix x(shape.rows, shape.cols);
  for (double& v : x.data()) v = gauss(rng);
  const auto r = linalg::svd(x);
  EXPECT_LT(x.max_abs_diff(r.reconstruct()), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdProperty,
    ::testing::Values(SvdShape{10, 10, 1}, SvdShape{50, 18, 2},
                      SvdShape{18, 50, 3}, SvdShape{200, 18, 4},
                      SvdShape{5, 3, 5}, SvdShape{3, 5, 6},
                      SvdShape{100, 2, 7}, SvdShape{2, 100, 8}));

// --- Summarizer invariants across (n, r, k) -------------------------------

struct SummarizerParams {
  std::size_t n;
  std::size_t r;
  std::size_t k;
};

class SummarizerProperty : public ::testing::TestWithParam<SummarizerParams> {
};

TEST_P(SummarizerProperty, CountsAndCostsConsistent) {
  const auto [n, r, k] = GetParam();
  summarize::SummarizerConfig cfg;
  cfg.batch_size = n;
  cfg.min_batch = n / 2;
  cfg.rank = r;
  cfg.centroids = k;
  summarize::Summarizer summarizer(cfg);

  trace::BackgroundTraffic gen(trace::trace1_profile(), n * 31 + r * 7 + k);
  const auto batch = trace::take(gen, n);
  const auto out = summarizer.summarize(batch);

  // Counts sum to n.
  std::uint64_t total = 0;
  if (const auto* split =
          std::get_if<summarize::SplitSummary>(&out.summary)) {
    for (auto c : split->counts) total += c;
  } else {
    for (auto c : std::get<summarize::CombinedSummary>(out.summary).counts) {
      total += c;
    }
  }
  EXPECT_EQ(total, n);

  // The auto format choice is the cheaper of the two cost formulas.
  const std::size_t actual = summarize::element_count(out.summary);
  EXPECT_EQ(actual,
            std::min(summarizer.combined_cost(), summarizer.split_cost()));

  // Every packet maps to a valid centroid.
  EXPECT_EQ(out.assignment.size(), n);
  const std::size_t k_eff = std::min(k, n);
  for (std::size_t a : out.assignment) EXPECT_LT(a, k_eff);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SummarizerProperty,
    ::testing::Values(SummarizerParams{400, 6, 40},
                      SummarizerParams{400, 12, 80},
                      SummarizerParams{700, 12, 140},
                      SummarizerParams{700, 15, 70},
                      SummarizerParams{500, 17, 100},
                      SummarizerParams{300, 18, 60},
                      SummarizerParams{256, 10, 256}));

// --- Mix quota holds for any fraction -------------------------------------

class MixProperty : public ::testing::TestWithParam<double> {};

TEST_P(MixProperty, AttackFractionNeverExceedsQuota) {
  const double fraction = GetParam();
  trace::BackgroundTraffic background(trace::trace1_profile(), 77);
  attack::AttackConfig acfg;
  acfg.victim_ip = packet::make_ip(203, 0, 10, 5);
  acfg.packets_per_second = 60000.0;  // oversubscribed on purpose
  acfg.seed = 78;
  attack::DistributedSynFlood flood(acfg);
  trace::TrafficMix mix(background, {&flood}, fraction);
  std::uint64_t attack_count = 0;
  const std::uint64_t total = 8000;
  for (std::uint64_t i = 0; i < total; ++i) {
    if (mix.next().label != packet::AttackType::kNone) ++attack_count;
  }
  EXPECT_LE(static_cast<double>(attack_count),
            fraction * static_cast<double>(total) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Fractions, MixProperty,
                         ::testing::Values(0.0, 0.01, 0.05, 0.1, 0.25, 0.5));

// --- Question/centroid distance symmetry across attacks -------------------

class AttackSignatureProperty
    : public ::testing::TestWithParam<packet::AttackType> {};

TEST_P(AttackSignatureProperty, PureAttackBatchMatchesItsQuestion) {
  // Summarize a batch of pure attack traffic; the matching question must be
  // within a small distance of at least one centroid (this is the essence
  // of why Jaal detects attacks from summaries).
  const packet::AttackType attack = GetParam();
  core::TrialConfig cfg;
  cfg.summarizer.batch_size = 400;
  cfg.summarizer.min_batch = 200;
  cfg.summarizer.rank = 12;
  cfg.summarizer.centroids = 80;
  cfg.monitor_count = 1;
  cfg.profile = trace::trace1_profile();
  cfg.attack_fraction = 0.10;
  cfg.attack_intensity_min = 1.0;
  cfg.attack_intensity_max = 1.0;
  cfg.seed = 5;

  const core::Trial trial = core::make_trial(attack, cfg, 1234);
  const auto rules = rules::parse_rules(rules::default_ruleset_text(),
                                        core::evaluation_rule_vars());
  const auto questions = rules::translate(rules);

  double best = 1e300;
  for (const auto& question : questions) {
    bool relevant = false;
    for (std::uint32_t sid : core::sids_for(attack)) {
      relevant |= question.sid == sid;
    }
    if (!relevant) continue;
    for (std::size_t row = 0; row < trial.aggregate.rows(); ++row) {
      best = std::min(best,
                      question.distance(trial.aggregate.centroids.row(row)));
    }
  }
  EXPECT_LT(best, 0.05) << packet::attack_name(attack);
}

INSTANTIATE_TEST_SUITE_P(
    Attacks, AttackSignatureProperty,
    ::testing::Values(packet::AttackType::kSynFlood,
                      packet::AttackType::kDistributedSynFlood,
                      packet::AttackType::kPortScan,
                      packet::AttackType::kSshBruteForce,
                      packet::AttackType::kSockstress,
                      packet::AttackType::kMiraiScan),
    [](const ::testing::TestParamInfo<packet::AttackType>& info) {
      return packet::attack_name(info.param);
    });

// --- Topology invariants across profiles and seeds -------------------------

// gtest names each case by the parameter's bytes. A `bool` flag would leave
// seven padding bytes holding whatever was on the stack, so the case names
// would change from run to run; a full-width flag leaves no padding.
struct TopoParams {
  std::uint64_t abovenet;  // 1 = Abovenet profile, 0 = Exodus
  std::uint64_t seed;
};

class TopologyProperty : public ::testing::TestWithParam<TopoParams> {};

TEST_P(TopologyProperty, StructuralInvariants) {
  const auto [abovenet, seed] = GetParam();
  const netsim::IspProfile profile =
      abovenet != 0 ? netsim::abovenet_profile() : netsim::exodus_profile();
  const netsim::Topology topo = netsim::make_isp_topology(profile, seed);

  EXPECT_EQ(topo.node_count(), profile.target_router_count);
  // Construction succeeding implies connectivity; verify adjacency symmetry
  // and that shortest paths are symmetric in length.
  for (netsim::NodeId n = 0; n < 20; ++n) {
    for (netsim::NodeId nb : topo.neighbors(n)) {
      const auto& back = topo.neighbors(nb);
      EXPECT_TRUE(std::find(back.begin(), back.end(), n) != back.end());
    }
  }
  const auto edges = topo.edge_nodes();
  ASSERT_GE(edges.size(), 2u);
  for (std::size_t i = 0; i + 1 < std::min<std::size_t>(edges.size(), 8);
       ++i) {
    const auto forward = topo.shortest_path(edges[i], edges[i + 1]);
    const auto backward = topo.shortest_path(edges[i + 1], edges[i]);
    EXPECT_EQ(forward.size(), backward.size());
    EXPECT_EQ(forward.front(), edges[i]);
    EXPECT_EQ(forward.back(), edges[i + 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyProperty,
                         ::testing::Values(TopoParams{1, 1},
                                           TopoParams{1, 7},
                                           TopoParams{1, 13},
                                           TopoParams{0, 1},
                                           TopoParams{0, 7},
                                           TopoParams{0, 13}));

// --- Summary serialization round-trips across formats/shapes ---------------

struct SummaryShape {
  std::size_t n;
  std::size_t r;
  std::size_t k;
  // A full word, not a bool: gtest names each case by the parameter's raw
  // bytes, and a bool would leave seven bytes of stack padding in them.
  std::uint64_t split;  // 1 = split format, 0 = combined
};

class SummarySerializationProperty
    : public ::testing::TestWithParam<SummaryShape> {};

TEST_P(SummarySerializationProperty, SerializeDeserializeIdentity) {
  const auto [n, r, k, split] = GetParam();
  trace::BackgroundTraffic gen(trace::trace1_profile(), n + r + k);
  const auto batch = trace::take(gen, n);
  summarize::SummarizerConfig cfg;
  cfg.batch_size = n;
  cfg.min_batch = 1;
  cfg.rank = r;
  cfg.centroids = k;
  cfg.format = split ? summarize::SummaryFormat::kSplit
                     : summarize::SummaryFormat::kCombined;
  summarize::Summarizer summarizer(cfg);
  const auto out = summarizer.summarize(batch);

  const auto bytes = serialize(out.summary);
  // The frame carries the elements plus small headers (tags, dimensions).
  EXPECT_GE(bytes.size(), summarize::wire_bytes(out.summary));
  EXPECT_LE(bytes.size(), summarize::wire_bytes(out.summary) + 64);
  const auto restored = summarize::deserialize(bytes);
  // Round-trip through float32 must be byte-stable on a second pass.
  EXPECT_EQ(serialize(restored), bytes);
  EXPECT_EQ(summarize::element_count(restored),
            summarize::element_count(out.summary));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SummarySerializationProperty,
    ::testing::Values(SummaryShape{300, 6, 30, true},
                      SummaryShape{300, 6, 30, false},
                      SummaryShape{500, 12, 100, true},
                      SummaryShape{500, 12, 100, false},
                      SummaryShape{200, 18, 200, false},
                      SummaryShape{128, 1, 8, true}));

// --- Port/address spec algebra ---------------------------------------------

class PortSpecProperty : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(PortSpecProperty, NegationIsExactComplement) {
  const std::uint16_t port = GetParam();
  rules::RuleVars vars;
  const auto positive = rules::parse_rule(
      "alert tcp any any -> any [22,80,8000:8080] (msg:\"p\"; sid:1;)", vars);
  const auto negative = rules::parse_rule(
      "alert tcp any any -> any ![22,80,8000:8080] (msg:\"n\"; sid:2;)", vars);
  EXPECT_NE(positive.dst_port.matches(port), negative.dst_port.matches(port))
      << "port " << port;
}

INSTANTIATE_TEST_SUITE_P(Ports, PortSpecProperty,
                         ::testing::Values(0, 21, 22, 23, 79, 80, 81, 443,
                                           7999, 8000, 8040, 8080, 8081,
                                           65535));

}  // namespace
}  // namespace jaal
