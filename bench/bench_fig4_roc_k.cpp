// Fig. 4: ROC curves per attack while varying the number of centroids
// k in {100, 200, 500}; batch n = 1000, rank r = 12, Trace 1, topology 1.
//
// Paper shape: k = 200 (k/n = 20%) already yields high accuracy for every
// attack; k = 500 adds little; k = 100 costs significant accuracy for all
// attacks except plain SYN floods (boolean flags keep SYN centroids
// separable even at coarse resolution).
//
// Writes BENCH_roc_k.json: AUC and TPR at FPR <= 0.10 per (k, attack), the
// input of the ROC floors in bench/check_bench_regression.py.
#include "common.hpp"

int main() {
  using namespace jaal;
  bench::print_header(
      "Fig. 4: ROC vs number of centroids k (n=1000, r=12, Trace 1)");

  constexpr std::size_t kPositives = 24;
  constexpr std::size_t kNegatives = 24;
  const auto taus = bench::roc_taus();

  std::vector<std::vector<std::pair<std::string, double>>> rows;
  for (std::size_t k : {100u, 200u, 500u}) {
    std::printf("\n--- k = %zu (k/n = %.0f%%) ---\n", k,
                100.0 * static_cast<double>(k) / 1000.0);
    const core::TrialConfig cfg = bench::trial_config(1000, 12, k);
    const auto trials = core::make_trial_set(core::evaluation_attacks(),
                                             kPositives, kNegatives, cfg);
    const double scale = core::tau_c_scale_for(cfg);
    for (packet::AttackType attack : core::evaluation_attacks()) {
      const core::RocCurve curve = core::roc_sweep(
          trials, attack, bench::evaluation_ruleset(), taus,
          core::default_tau_c_scales(), scale);
      bench::print_roc(curve);
      rows.push_back(bench::roc_row(k, 12, attack, curve));
    }
  }
  bench::write_bench_json("roc_k", rows);
  return 0;
}
