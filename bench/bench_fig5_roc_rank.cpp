// Fig. 5: ROC curves per attack while varying the retained rank
// r in {10, 12, 15}; batch n = 2000, k = 500, Trace 1, topology 1.
//
// Paper shape: r = 12 performs about as well as r = 15 (the top 12 singular
// values carry nearly all the information, Fig. 10); dropping to r = 10
// costs accuracy across attacks.
//
// Writes BENCH_roc_rank.json: AUC and TPR at FPR <= 0.10 per (r, attack),
// the input of the ROC floors in bench/check_bench_regression.py.
#include "common.hpp"

int main() {
  using namespace jaal;
  bench::print_header(
      "Fig. 5: ROC vs retained rank r (n=2000, k=500, Trace 1)");

  constexpr std::size_t kPositives = 16;
  constexpr std::size_t kNegatives = 16;
  const auto taus = bench::roc_taus();

  std::vector<std::vector<std::pair<std::string, double>>> rows;
  for (std::size_t r : {10u, 12u, 15u}) {
    std::printf("\n--- r = %zu ---\n", r);
    const core::TrialConfig cfg = bench::trial_config(2000, r, 500);
    const auto trials = core::make_trial_set(core::evaluation_attacks(),
                                             kPositives, kNegatives, cfg);
    const double scale = core::tau_c_scale_for(cfg);
    for (packet::AttackType attack : core::evaluation_attacks()) {
      const core::RocCurve curve = core::roc_sweep(
          trials, attack, bench::evaluation_ruleset(), taus,
          core::default_tau_c_scales(), scale);
      bench::print_roc(curve);
      rows.push_back(bench::roc_row(500, r, attack, curve));
    }
  }
  bench::write_bench_json("roc_rank", rows);
  return 0;
}
