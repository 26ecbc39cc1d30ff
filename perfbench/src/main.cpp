// jaal_perfbench — the end-to-end benchmark binary.
//
//   jaal_perfbench --workload paper_point|wide_faulty|retro_replay
//                  --seed N --seconds S --trace 0|1
//                  [--workdir DIR] [--trace-out FILE] [--epochs N] [--toy]
//
// --trace 0 drives the program through its public API only —
// JaalController construction, ingest and close_epoch for the live
// workloads, StoreReplayer for retro_replay — and prints the end-to-end
// metrics.  --trace 1 runs the traced composition (pipeline.hpp) next to an
// untraced controller run and prints the per-layer metrics.  Every run
// checks its outputs; the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --epochs N replaces the time budget by N timed epochs (or replay passes)
// and --toy shrinks every size; the self-test uses both.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "jaal.hpp"
#include "linalg/simd.hpp"
#include "pipeline.hpp"
#include "telemetry/chrome_trace.hpp"
#include "util.hpp"
#include "workload.hpp"

namespace fs = std::filesystem;
using namespace perfbench;
using jaal::packet::AttackType;
using jaal::telemetry::SpanRecord;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  long epochs = -1;  ///< Fixed timed epochs / passes; < 0 = time budget.
  std::string workdir;
  std::string trace_out;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every metric a run prints, in BENCHMARK.json order.
constexpr MetricSpec kEndToEnd[] = {
    {"throughput_pps", "packets/s"}, {"epoch_ms_p50", "ms"},
    {"epoch_ms_p90", "ms"},          {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},          {"comm_ratio", "ratio"},
    {"attack_recall", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.ingest.ns_per_pkt", "ns"},
    {"summarize.flush.busy_ms", "ms"},
    {"summarize.flush.ms_p90", "ms"},
    {"summarize.flush.silent", "count/epoch"},
    {"summarize.normalize.ms", "ms"},
    {"summarize.svd.ms", "ms"},
    {"summarize.svd.sweeps", "count"},
    {"summarize.kmeans.seed_ms", "ms"},
    {"summarize.kmeans.lloyd_ms", "ms"},
    {"summarize.kmeans.iterations", "count"},
    {"summarize.kmeans.capped_share", "ratio"},
    {"summarize.wire_bytes", "B"},
    {"summarize.simd_speedup", "ratio"},
    {"runtime.flush.wall_ms", "ms"},
    {"runtime.flush.wait_ms", "ms"},
    {"runtime.parallel_efficiency", "ratio"},
    {"runtime.straggler_ratio", "ratio"},
    {"faults.ship.us", "us"},
    {"faults.ship.dropped", "count/epoch"},
    {"faults.ship.late", "count/epoch"},
    {"faults.ship.rolled", "count/epoch"},
    {"faults.fetch.attempts", "count/epoch"},
    {"faults.fetch.giveups", "count/epoch"},
    {"inference.aggregate.ms", "ms"},
    {"inference.aggregate.rows", "count"},
    {"inference.infer.ms", "ms"},
    {"inference.match.ms", "ms"},
    {"inference.feedback.calls", "count/epoch"},
    {"inference.feedback.ms", "ms"},
    {"inference.feedback.raw_packets", "count"},
    {"inference.feedback.confirm_share", "ratio"},
    {"observe.ms", "ms"},
    {"observe.drift_events", "count/epoch"},
    {"store.append.ms", "ms"},
    {"store.append.records", "count/epoch"},
    {"store.commit.ms", "ms"},
    {"store.bytes_per_epoch", "B"},
    {"store.open.ms", "ms"},
    {"store.scan.mb_per_s", "MiB/s"},
    {"store.replay.ms_per_epoch", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
    {"benign_alert_rate", "ratio"},
    {"failed_ops_share", "ratio"},
};

template <std::size_t N>
const char* unit_of(const MetricSpec (&specs)[N], const std::string& name) {
  for (const MetricSpec& s : specs) {
    if (name == s.name) return s.unit;
  }
  throw std::logic_error("metric not declared: " + name);
}

struct RunResult {
  MetricSet metrics;
  bool traced = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::uint64_t alerts = 0;
  std::uint64_t alerts_digest = kFnvBasis;
  std::uint64_t trace_digest = 0;
  std::size_t timed = 0;  ///< Timed epochs (live) or passes (replay).

  explicit RunResult(bool trace) : traced(trace) {
    if (trace) {
      for (const MetricSpec& s : kPerLayer) metrics.set(s.name, 0.0, s.unit);
    } else {
      for (const MetricSpec& s : kEndToEnd) metrics.set(s.name, 0.0, s.unit);
    }
  }
  void set(const std::string& name, double value) {
    metrics.set(name, value,
                traced ? unit_of(kPerLayer, name) : unit_of(kEndToEnd, name));
  }
  void fail(const std::string& why) {
    correct = false;
    ++failed;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  void digest_lines(const std::vector<std::string>& lines) {
    for (const std::string& l : lines) {
      alerts_digest = fnv1a(l.data(), l.size(), alerts_digest);
    }
    alerts += lines.size();
  }
};

/// Runs a phase until its time budget is spent and the step count is a
/// whole number of `cycle`s (so every attack is weighed equally), or for
/// exactly `fixed` steps.
struct Budget {
  double seconds = 0.0;
  long fixed = -1;
  std::size_t cycle = 1;
  std::size_t min_steps = 1;

  [[nodiscard]] bool more(const Stopwatch& clock, std::size_t done) const {
    if (fixed >= 0) return done < static_cast<std::size_t>(fixed);
    if (done < min_steps) return true;
    return clock.seconds() < seconds || done % cycle != 0;
  }
};

Budget budget_for(const Workload& w, const Options& o, double share,
                  std::size_t min_steps) {
  Budget b;
  b.seconds = o.seconds * share;
  b.fixed = o.epochs;
  b.cycle = w.mode == Mode::kLive ? 2 * std::max<std::size_t>(w.attacks.size(), 1)
                                  : 1;
  b.min_steps = min_steps;
  return b;
}

/// A deployment config with its own fresh store directory and, for
/// ops-stack workloads, the telemetry registry it must outlive.
struct Deployment {
  std::unique_ptr<jaal::telemetry::Telemetry> telemetry;
  jaal::core::JaalConfig config;
};

Deployment deployment(const Workload& w, const std::string& store_dir) {
  Deployment d;
  d.config = w.config;
  fs::remove_all(store_dir);
  d.config.store_dir = store_dir;
  if (w.ops_stack) {
    d.telemetry = std::make_unique<jaal::telemetry::Telemetry>();
    d.config.telemetry = d.telemetry.get();
  }
  return d;
}

void ingest_all(jaal::core::JaalController& ctl, const EpochTraffic& ep) {
  for (const auto& pkt : ep.packets) ctl.ingest(pkt);
}

/// Checks the controller's store after closing `epoch`.
void check_store(const jaal::core::JaalController& ctl, std::uint64_t epoch,
                 RunResult& r) {
  const auto* store = ctl.store();
  if (store == nullptr) return;
  if (store->failed()) r.fail("store failed at epoch " + std::to_string(epoch));
  if (store->last_committed_epoch() != epoch) {
    r.fail("store lost committed epoch " + std::to_string(epoch));
  }
}

/// Alert lines per epoch index.
using EpochLines = std::vector<std::vector<std::string>>;

/// Whether both sides must cover the same epochs, or only the epochs both
/// closed are compared (the traced and untraced live runs stop at different
/// epoch counts by design).
enum class Cover { kSame, kCommonPrefix };

void compare_lines(const EpochLines& expected, const EpochLines& actual,
                   const char* what, Cover cover, RunResult& r) {
  ++r.attempted;
  if (cover == Cover::kSame && expected.size() != actual.size()) {
    r.fail(std::string(what) + ": " + std::to_string(actual.size()) +
           " epochs, expected " + std::to_string(expected.size()));
    return;
  }
  const std::size_t n = std::min(expected.size(), actual.size());
  for (std::size_t e = 0; e < n; ++e) {
    if (expected[e] != actual[e]) {
      r.fail(std::string(what) + ": alert lines differ at epoch " +
             std::to_string(e));
      return;
    }
  }
  std::size_t lines = 0;
  for (std::size_t e = 0; e < n; ++e) lines += expected[e].size();
  std::printf("check: %s — %zu epochs, %zu alert lines byte-identical\n",
              what, n, lines);
}

void print_quality(const Quality& q) {
  std::printf("quality: attack epochs %llu (hit %llu), benign epochs %llu "
              "(alerted %llu), benign_alert_rate %.4f\n",
              static_cast<unsigned long long>(q.attack_epochs),
              static_cast<unsigned long long>(q.attack_hits),
              static_cast<unsigned long long>(q.benign_epochs),
              static_cast<unsigned long long>(q.benign_alerted),
              q.benign_alert_rate());
}

// ---------------------------------------------------------------------------
// Live workloads, untraced: the end-to-end metrics.

void run_live(const Workload& w, const Options& o, RunResult& r) {
  TraceGenerator gen(w, o.seed);
  std::vector<EpochTraffic> warm;
  std::size_t warm_bytes = 0;
  for (std::size_t i = 0; i < w.warmup_epochs; ++i) {
    warm.push_back(gen.next());
    warm_bytes += warm.back().packets.capacity() * sizeof(jaal::packet::PacketRecord);
  }

  // Set-up: construction (rule translation, pool start, store open) plus
  // the warm-up epochs.  Half the set-ups run before the timed loop, the
  // last of them being the timed deployment, and half after it, so their
  // median spans the run as the timed metrics do.
  const std::string store_dir = o.workdir + "/live_store";
  std::vector<double> setup_s;
  Deployment dep;
  std::unique_ptr<jaal::core::JaalController> ctl;
  EpochLines lines;
  const auto set_up = [&] {
    ctl.reset();
    dep = deployment(w, store_dir);
    lines.clear();
    const Stopwatch sw;
    ctl = std::make_unique<jaal::core::JaalController>(dep.config, w.rules);
    for (const EpochTraffic& ep : warm) {
      ingest_all(*ctl, ep);
      const auto res = ctl->close_epoch(ep.end_time);
      lines.emplace_back();
      append_alert_lines(res.alerts, ep.end_time, lines.back());
    }
    setup_s.push_back(sw.seconds());
  };
  for (std::size_t rep = 0; rep < w.setup_repeats; ++rep) set_up();
  if (!warm.empty()) check_store(*ctl, warm.back().index, r);

  // `warm` stays resident until the peak is read, so subtracting its bytes
  // below takes off exactly what the benchmark holds.
  reset_peak_rss();
  // Memory grows with the epochs a run gets through (store mappings, span
  // archives), so the peak is read at a fixed epoch count, not at the end.
  constexpr std::size_t kRssEpochs = 100;
  std::optional<double> peak_rss;
  Quality quality;
  std::vector<double> close_ms;
  double busy_ms = 0.0;
  std::uint64_t packets = 0;
  std::size_t buffer_bytes = 0;
  const Budget budget = budget_for(w, o, 1.0, 20);
  const Stopwatch clock;
  while (budget.more(clock, r.timed)) {
    const EpochTraffic ep = gen.next();
    buffer_bytes = std::max(
        buffer_bytes, ep.packets.capacity() * sizeof(jaal::packet::PacketRecord));
    ++r.timed;
    ++r.attempted;
    const Stopwatch epoch_clock;
    ingest_all(*ctl, ep);
    const Stopwatch close_clock;
    jaal::core::EpochResult res;
    try {
      res = ctl->close_epoch(ep.end_time);
    } catch (const std::exception& e) {
      r.fail(std::string("close_epoch threw: ") + e.what());
      continue;
    }
    close_ms.push_back(close_clock.ms());
    busy_ms += epoch_clock.ms();
    packets += ep.packets.size();
    check_store(*ctl, ep.index, r);
    quality.add(ep.label, res.alerts);
    lines.emplace_back();
    append_alert_lines(res.alerts, ep.end_time, lines.back());
    if (r.timed == kRssEpochs) peak_rss = peak_rss_mib();
  }
  const double rss =
      peak_rss.value_or(peak_rss_mib()) -
      static_cast<double>(warm_bytes + buffer_bytes) / (1024.0 * 1024.0);
  const double comm = ctl->comm().overhead_ratio();
  EpochLines timed_lines = std::move(lines);
  for (std::size_t rep = 0; rep < w.setup_repeats; ++rep) set_up();
  ctl.reset();
  for (const auto& l : timed_lines) r.digest_lines(l);
  r.trace_digest = gen.digest();

  // Output check: the composition must reproduce the controller's alert
  // lines over the leading epochs.
  timed_lines.resize(std::min(timed_lines.size(), w.check_epochs));
  {
    Deployment cdep = deployment(w, o.workdir + "/check_store");
    ComposedPipeline pipe(cdep.config, w.rules, nullptr);
    TraceGenerator cgen(w, o.seed);
    EpochLines composed;
    for (std::size_t e = 0; e < timed_lines.size(); ++e) {
      const EpochTraffic ep = cgen.next();
      const EpochStats st = pipe.run_epoch(ep);
      composed.emplace_back();
      append_alert_lines(st.alerts, ep.end_time, composed.back());
    }
    compare_lines(timed_lines, composed, "composed pipeline vs JaalController",
                  Cover::kSame, r);
  }

  r.set("throughput_pps",
        ratio(static_cast<double>(packets), busy_ms / 1000.0));
  r.set("epoch_ms_p50", quantile(close_ms, 0.5));
  r.set("epoch_ms_p90", quantile(close_ms, 0.9));
  r.set("setup_s", quantile(setup_s, 0.5));
  r.set("peak_rss_mb", rss);
  r.set("comm_ratio", comm);
  r.set("attack_recall", quality.recall());
  std::printf("epochs: %zu timed (%zu close samples; p90 has %zu beyond "
              "it), %zu set-ups\n",
              r.timed, close_ms.size(), close_ms.size() / 10, setup_s.size());
  print_quality(quality);
}

// ---------------------------------------------------------------------------
// Live workloads, traced: the composition with spans, plus probes.

struct TracedLive {
  EpochLines ref_lines;          ///< Untraced controller, every epoch.
  std::vector<AttackType> labels;  ///< Per epoch index.
  std::string ref_store;         ///< The controller's store (kept).
  std::vector<SpanRecord> spans;
};

/// Self and inclusive time per stage name, summed over traces.
struct StageTotals {
  std::map<std::string, double> self_ms;
  std::map<std::string, double> incl_ms;
  std::vector<double> coverage;  ///< Per trace.
  std::vector<double> root_ms;   ///< Per trace.
  jaal::telemetry::ProfileReport report;

  void add(const std::vector<SpanRecord>& spans, std::uint64_t trace_id,
           const char* root) {
    const auto cp = jaal::telemetry::CriticalPath::build(spans, trace_id);
    if (cp.span_count == 0) return;
    double root_self = 0.0;
    for (const auto& st : cp.stages) {
      self_ms[st.name] += st.exclusive_ms;
      incl_ms[st.name] += st.inclusive_ms;
      if (st.name == root) root_self = st.exclusive_ms;
    }
    coverage.push_back(1.0 - ratio(root_self, cp.root_inclusive_ms));
    root_ms.push_back(cp.root_inclusive_ms);
    report.add(cp);
  }
  [[nodiscard]] double self(const std::string& name) const {
    const auto it = self_ms.find(name);
    return it == self_ms.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double incl(const std::string& name) const {
    const auto it = incl_ms.find(name);
    return it == incl_ms.end() ? 0.0 : it->second;
  }
};

TracedLive run_live_traced(const Workload& w, const Options& o,
                           const Budget& untraced, const Budget& traced,
                           RunResult& r) {
  TracedLive out;
  out.ref_store = o.workdir + "/ref_store";

  // 1. The untraced reference: the controller over the same epochs.
  std::vector<double> ref_epoch_ms;
  Quality ref_quality;
  {
    Deployment dep = deployment(w, out.ref_store);
    jaal::core::JaalController ctl(dep.config, w.rules);
    TraceGenerator gen(w, o.seed);
    std::size_t done = 0;
    const Stopwatch clock;
    while (out.ref_lines.size() < w.warmup_epochs ||
           untraced.more(clock, done)) {
      const EpochTraffic ep = gen.next();
      const Stopwatch t;
      ingest_all(ctl, ep);
      const auto res = ctl.close_epoch(ep.end_time);
      const double ms = t.ms();
      ++r.attempted;
      check_store(ctl, ep.index, r);
      if (ep.index >= w.warmup_epochs) {
        ref_epoch_ms.push_back(ms);
        ref_quality.add(ep.label, res.alerts);
        ++done;
      }
      out.ref_lines.emplace_back();
      append_alert_lines(res.alerts, ep.end_time, out.ref_lines.back());
      out.labels.push_back(ep.label);
    }
    r.trace_digest = gen.digest();
  }

  // 2. The traced composition, with the side probes after each epoch.
  jaal::telemetry::Tracer tracer;
  EpochLines traced_lines;
  std::vector<EpochStats> stats;
  std::vector<std::uint64_t> measured;
  ProbeStats probes;
  double store_open_ms = 0.0;
  std::uint64_t store_bytes = 0;
  double scan_mib_s = 0.0;
  std::size_t threads = 1;
  const std::string traced_store = o.workdir + "/traced_store";
  {
    Deployment dep = deployment(w, traced_store);
    ComposedPipeline pipe(dep.config, w.rules, &tracer);
    store_open_ms = pipe.store_open_ms();
    threads = pipe.threads();
    TraceGenerator gen(w, o.seed);
    std::size_t done = 0;
    const Stopwatch clock;
    while (traced_lines.size() < w.warmup_epochs || traced.more(clock, done)) {
      const EpochTraffic ep = gen.next();
      EpochStats st = pipe.run_epoch(ep);
      traced_lines.emplace_back();
      append_alert_lines(st.alerts, ep.end_time, traced_lines.back());
      if (ep.index < w.warmup_epochs) continue;
      pipe.probe(2, done % 4 == 0, probes);
      st.alerts.clear();
      stats.push_back(std::move(st));
      measured.push_back(ep.index);
      ++done;
    }
    if (const auto* store = pipe.store()) {
      if (store->failed()) r.fail("traced store failed");
      store_bytes = dir_bytes(traced_store);
      const Stopwatch scan;
      store->each_summary([](std::uint64_t, std::uint32_t,
                             const jaal::summarize::MonitorSummary&) {
        return true;
      });
      scan_mib_s = ratio(static_cast<double>(dir_bytes(traced_store, "summaries")) /
                             (1024.0 * 1024.0),
                         scan.seconds());
    }
  }
  compare_lines(out.ref_lines, traced_lines,
                "traced composition vs JaalController", Cover::kCommonPrefix,
                r);

  // Replay of the traced store through the deployment's own rules.
  double replay_ms_per_epoch = 0.0;
  {
    const jaal::store::StoreReplayer replayer(
        {traced_store, w.config.store_epochs_per_shard});
    jaal::shard::InferenceTier tier({}, w.rules, w.config.engine);
    const Stopwatch t;
    const auto epochs = replayer.replay(tier.engine(), w.config.engine.tau_c_scale);
    replay_ms_per_epoch = ratio(t.ms(), static_cast<double>(epochs.size()));
  }

  // 3. Per-layer numbers from the spans.
  out.spans = tracer.records();
  StageTotals stages;
  std::map<std::uint64_t, std::vector<double>> flush_by_epoch;
  std::vector<double> flush_ms;
  for (const SpanRecord& s : out.spans) {
    if (s.name != "flush" || s.trace_id < w.warmup_epochs) continue;
    flush_by_epoch[s.trace_id].push_back(s.duration_ms);
    flush_ms.push_back(s.duration_ms);
  }
  for (std::uint64_t e : measured) stages.add(out.spans, e, "epoch");
  std::vector<double> straggler;
  for (const auto& [epoch, durations] : flush_by_epoch) {
    if (durations.size() < 2) continue;
    straggler.push_back(ratio(*std::max_element(durations.begin(), durations.end()),
                              quantile(durations, 0.5)));
  }
  EpochStats sum;
  std::vector<double> waits;
  for (const EpochStats& st : stats) {
    sum.packets += st.packets;
    sum.silent += st.silent;
    sum.summaries += st.summaries;
    sum.wire_bytes += st.wire_bytes;
    sum.ships += st.ships;
    sum.ship_us += st.ship_us;
    sum.dropped += st.dropped;
    sum.late += st.late;
    sum.rolled_in += st.rolled_in;
    sum.rows += st.rows;
    sum.feedback_calls += st.feedback_calls;
    sum.feedback_attempts += st.feedback_attempts;
    sum.feedback_giveups += st.feedback_giveups;
    sum.feedback_packets += st.feedback_packets;
    sum.via_feedback += st.via_feedback;
    sum.drift_events += st.drift_events;
    sum.store_records += st.store_records;
    waits.insert(waits.end(), st.wait_ms.begin(), st.wait_ms.end());
  }
  const double n = static_cast<double>(std::max<std::size_t>(stats.size(), 1));
  const auto per_epoch = [&](double v) { return v / n; };
  const double calls = static_cast<double>(sum.feedback_calls);
  r.set("core.ingest.ns_per_pkt",
        ratio(stages.incl("ingest") * 1e6, static_cast<double>(sum.packets)));
  r.set("summarize.flush.busy_ms", per_epoch(stages.incl("flush")));
  r.set("summarize.flush.ms_p90", quantile(flush_ms, 0.9));
  r.set("summarize.flush.silent", per_epoch(static_cast<double>(sum.silent)));
  const double batches = static_cast<double>(probes.batches);
  r.set("summarize.normalize.ms", ratio(probes.normalize_ms, batches));
  r.set("summarize.svd.ms", ratio(probes.svd_ms, batches));
  r.set("summarize.svd.sweeps", ratio(probes.svd_sweeps, batches));
  r.set("summarize.kmeans.seed_ms", ratio(probes.kmeans_seed_ms, batches));
  r.set("summarize.kmeans.lloyd_ms",
        ratio(probes.kmeans_ms - probes.kmeans_seed_ms, batches));
  r.set("summarize.kmeans.iterations", ratio(probes.kmeans_iterations, batches));
  r.set("summarize.kmeans.capped_share",
        ratio(static_cast<double>(probes.kmeans_capped), batches));
  r.set("summarize.wire_bytes",
        ratio(sum.wire_bytes, static_cast<double>(sum.summaries)));
  r.set("summarize.simd_speedup",
        ratio(probes.flush_scalar_ms, probes.flush_simd_ms));
  r.set("runtime.flush.wall_ms", per_epoch(stages.incl("summarize")));
  r.set("runtime.flush.wait_ms", mean(waits));
  r.set("runtime.parallel_efficiency",
        ratio(stages.incl("flush"),
              stages.incl("summarize") * static_cast<double>(threads)));
  r.set("runtime.straggler_ratio", mean(straggler));
  r.set("faults.ship.us", ratio(sum.ship_us, static_cast<double>(sum.ships)));
  r.set("faults.ship.dropped", per_epoch(static_cast<double>(sum.dropped)));
  r.set("faults.ship.late", per_epoch(static_cast<double>(sum.late)));
  r.set("faults.ship.rolled", per_epoch(static_cast<double>(sum.rolled_in)));
  r.set("faults.fetch.attempts",
        per_epoch(static_cast<double>(sum.feedback_attempts)));
  r.set("faults.fetch.giveups",
        per_epoch(static_cast<double>(sum.feedback_giveups)));
  r.set("inference.aggregate.ms", per_epoch(stages.self("aggregate")));
  r.set("inference.aggregate.rows", per_epoch(static_cast<double>(sum.rows)));
  r.set("inference.infer.ms", per_epoch(stages.self("infer")));
  r.set("inference.match.ms",
        ratio(probes.match_ms, static_cast<double>(probes.matches)));
  r.set("inference.feedback.calls", per_epoch(calls));
  r.set("inference.feedback.ms", ratio(stages.incl("feedback"), calls));
  r.set("inference.feedback.raw_packets",
        ratio(static_cast<double>(sum.feedback_packets), calls));
  r.set("inference.feedback.confirm_share",
        ratio(static_cast<double>(sum.via_feedback), calls));
  r.set("observe.ms",
        per_epoch(stages.incl("fidelity") + stages.incl("observe")));
  r.set("observe.drift_events",
        per_epoch(static_cast<double>(sum.drift_events)));
  r.set("store.append.ms", per_epoch(stages.incl("store_append")));
  r.set("store.append.records",
        per_epoch(static_cast<double>(sum.store_records)));
  r.set("store.commit.ms", per_epoch(stages.incl("store_commit")));
  r.set("store.bytes_per_epoch",
        ratio(static_cast<double>(store_bytes),
              static_cast<double>(traced_lines.size())));
  r.set("store.open.ms", store_open_ms);
  r.set("store.scan.mb_per_s", scan_mib_s);
  r.set("store.replay.ms_per_epoch", replay_ms_per_epoch);
  r.set("trace.coverage", mean(stages.coverage));
  r.set("trace.overhead",
        ratio(quantile(stages.root_ms, 0.5), quantile(ref_epoch_ms, 0.5)));
  r.set("benign_alert_rate", ref_quality.benign_alert_rate());
  r.timed = stats.size();
  for (const auto& l : out.ref_lines) r.digest_lines(l);

  std::printf("traced epochs: %zu (untraced reference: %zu), %zu threads, "
              "simd level %s; per-stage self time over the traced epochs:\n%s",
              stats.size(), ref_epoch_ms.size(), threads,
              std::string(jaal::linalg::simd::level_name(
                              jaal::linalg::simd::detected()))
                  .c_str(),
              stages.report.to_text().c_str());
  return out;
}

// ---------------------------------------------------------------------------
// retro_replay.

/// The fixture run through the controller (feedback-free, store on).
EpochLines run_fixture(const Workload& w, const Options& o,
                       const std::string& store_dir,
                       std::vector<AttackType>& labels, double& comm,
                       RunResult& r) {
  Deployment dep = deployment(w, store_dir);
  jaal::core::JaalController ctl(dep.config, w.rules);
  TraceGenerator gen(w, o.seed);
  EpochLines lines;
  for (std::size_t e = 0; e < w.fixture_epochs; ++e) {
    const EpochTraffic ep = gen.next();
    ingest_all(ctl, ep);
    const auto res = ctl.close_epoch(ep.end_time);
    ++r.attempted;
    check_store(ctl, ep.index, r);
    lines.emplace_back();
    append_alert_lines(res.alerts, ep.end_time, lines.back());
    labels.push_back(ep.label);
  }
  comm = ctl.comm().overhead_ratio();
  r.trace_digest = gen.digest();
  return lines;
}

EpochLines replay_lines(const std::vector<jaal::store::ReplayEpoch>& epochs) {
  EpochLines lines;
  for (const auto& e : epochs) {
    lines.emplace_back();
    append_alert_lines(e.alerts, e.end_time, lines.back());
  }
  return lines;
}

/// Replays the fixture store with the fixture's own ruleset: it must give
/// back the fixture run's alert lines.
void check_fixture_replay(const Workload& w, const std::string& fixture_store,
                          const EpochLines& fixture_lines, RunResult& r) {
  const jaal::store::StoreReplayer replayer(
      {fixture_store, w.config.store_epochs_per_shard});
  jaal::shard::InferenceTier tier({}, w.rules, w.config.engine);
  const auto epochs = replayer.replay(tier.engine(), w.config.engine.tau_c_scale);
  compare_lines(fixture_lines, replay_lines(epochs),
                "fixture replay vs fixture run", Cover::kSame, r);
}

/// Copies the fixture's epochs, cyclically, into a store of
/// w.stored_epochs epochs through put_summary/commit_epoch.  Returns the
/// label of every stored epoch.
std::vector<AttackType> build_replay_store(
    const Workload& w, const std::string& from, const std::string& to,
    const std::vector<AttackType>& fixture_labels) {
  const jaal::store::DeploymentStore src(
      {from, w.config.store_epochs_per_shard}, /*writable=*/false);
  std::map<std::uint64_t, std::vector<jaal::summarize::MonitorSummary>> by_epoch;
  src.each_summary([&](std::uint64_t e, std::uint32_t,
                       const jaal::summarize::MonitorSummary& s) {
    by_epoch[e].push_back(s);
    return true;
  });
  std::vector<jaal::store::EpochMeta> metas;
  src.each_epoch_meta([&](const jaal::store::EpochMeta& m) {
    metas.push_back(m);
    return true;
  });
  if (metas.empty()) throw std::runtime_error("fixture store is empty");
  fs::remove_all(to);
  jaal::store::DeploymentStore dst({to, w.config.store_epochs_per_shard},
                                   /*writable=*/true);
  std::vector<AttackType> labels;
  for (std::uint64_t e = 0; e < w.stored_epochs; ++e) {
    jaal::store::EpochMeta meta = metas[e % metas.size()];
    for (const auto& s : by_epoch[meta.epoch]) dst.put_summary(e, s);
    labels.push_back(fixture_labels.at(meta.epoch));
    meta.epoch = e;
    meta.end_time = static_cast<double>(e + 1) * w.config.epoch_seconds;
    dst.commit_epoch(meta);
  }
  dst.sync();
  if (dst.failed()) throw std::runtime_error("writing the replay store failed");
  return labels;
}

/// The replay engine: the full ruleset on an inference tier whose matching
/// runs on a pool as wide as the fixture deployment's.
std::unique_ptr<jaal::shard::InferenceTier> replay_tier(const Workload& w) {
  auto tier = std::make_unique<jaal::shard::InferenceTier>(
      jaal::shard::ShardingConfig{}, full_ruleset(), w.config.engine);
  if (w.config.threads > 1) {
    tier->set_pool(std::make_shared<jaal::runtime::ThreadPool>(w.config.threads));
  }
  return tier;
}

void run_replay(const Workload& w, const Options& o, RunResult& r) {
  const std::string fixture_store = o.workdir + "/fixture_store";
  const std::string replay_store = o.workdir + "/replay_store";
  std::vector<AttackType> fixture_labels;
  double comm = 0.0;
  const EpochLines fixture_lines =
      run_fixture(w, o, fixture_store, fixture_labels, comm, r);
  check_fixture_replay(w, fixture_store, fixture_lines, r);
  const std::vector<AttackType> labels =
      build_replay_store(w, fixture_store, replay_store, fixture_labels);

  // Set-up: open the store and build the engine from the full ruleset.
  std::vector<double> setup_s;
  std::unique_ptr<jaal::store::StoreReplayer> replayer;
  std::unique_ptr<jaal::shard::InferenceTier> tier;
  for (std::size_t rep = 0; rep < w.setup_repeats; ++rep) {
    replayer.reset();
    tier.reset();
    const Stopwatch sw;
    replayer = std::make_unique<jaal::store::StoreReplayer>(
        jaal::store::StoreConfig{replay_store, w.config.store_epochs_per_shard});
    tier = replay_tier(w);
    setup_s.push_back(sw.seconds());
  }

  reset_peak_rss();
  Quality quality;
  std::vector<double> epoch_ms;
  double busy_ms = 0.0;
  std::uint64_t packets = 0;
  std::size_t first_alerts = 0;
  const Budget budget = budget_for(w, o, 1.0, 3);
  const Stopwatch clock;
  while (budget.more(clock, r.timed)) {
    ++r.attempted;
    const Stopwatch t;
    const auto epochs =
        replayer->replay(tier->engine(), w.config.engine.tau_c_scale);
    const double ms = t.ms();
    busy_ms += ms;
    epoch_ms.push_back(ratio(ms, static_cast<double>(epochs.size())));
    std::size_t alerts = 0;
    for (const auto& e : epochs) {
      packets += e.packets;
      alerts += e.alerts.size();
    }
    if (epochs.size() != w.stored_epochs) {
      r.fail("replay returned " + std::to_string(epochs.size()) + " epochs");
    }
    if (r.timed == 0) {
      first_alerts = alerts;
      for (const auto& e : epochs) quality.add(labels.at(e.epoch), e.alerts);
      for (const auto& l : replay_lines(epochs)) r.digest_lines(l);
    } else if (alerts != first_alerts) {
      r.fail("replay pass raised a different alert count");
    }
    ++r.timed;
  }
  const double rss = peak_rss_mib();

  r.set("throughput_pps", ratio(static_cast<double>(packets), busy_ms / 1000.0));
  r.set("epoch_ms_p50", quantile(epoch_ms, 0.5));
  r.set("epoch_ms_p90", quantile(epoch_ms, 0.9));
  r.set("setup_s", quantile(setup_s, 0.5));
  r.set("peak_rss_mb", rss);
  r.set("comm_ratio", comm);
  r.set("attack_recall", quality.recall());
  std::printf("replay passes: %zu over %zu stored epochs (epoch_ms samples "
              "are per-pass means), %zu set-ups\n",
              r.timed, w.stored_epochs, setup_s.size());
  print_quality(quality);
}

/// One traced replay pass composed from the store's and the engine's public
/// calls: each_summary (store_read spans cover the time inside the store
/// between callbacks), Aggregator (aggregate_add / aggregate) and
/// InferenceEngine::infer (infer), under one replay_pass root.
EpochLines composed_replay_pass(
    const jaal::store::DeploymentStore& store,
    const std::map<std::uint64_t, jaal::store::EpochMeta>& metas,
    jaal::inference::InferenceEngine& engine, double base_tau_c_scale,
    jaal::telemetry::Tracer& tracer, std::uint64_t trace_id,
    std::size_t match_probes, ProbeStats& probes) {
  EpochLines lines;
  jaal::telemetry::Span root = tracer.span("replay_pass", {}, trace_id);
  const jaal::telemetry::SpanContext ctx = root.context();
  jaal::inference::Aggregator aggregator;
  std::optional<std::uint64_t> current;
  std::uint64_t seq = 0;
  const auto finish = [&](std::uint64_t epoch) {
    const auto it = metas.find(epoch);
    jaal::inference::AggregatedSummary aggregate;
    {
      jaal::telemetry::Span s = tracer.span("aggregate", ctx, epoch);
      aggregate = aggregator.take();
    }
    if (it == metas.end()) return;  // uncommitted: replay ignores it
    const jaal::store::EpochMeta& meta = it->second;
    engine.set_tau_c_scale(base_tau_c_scale *
                           static_cast<double>(meta.packets) / 2000.0);
    engine.set_report_fraction(meta.report_fraction);
    engine.set_caution(meta.caution);
    std::vector<jaal::inference::Alert> alerts;
    {
      jaal::telemetry::Span s = tracer.span("infer", ctx, epoch);
      alerts = engine.infer(aggregate, nullptr);
    }
    lines.emplace_back();
    append_alert_lines(alerts, meta.end_time, lines.back());
    if (lines.size() <= match_probes) {
      const Stopwatch tm;
      (void)engine.match(aggregate);
      probes.match_ms += tm.ms();
      ++probes.matches;
    }
  };
  std::optional<jaal::telemetry::Span> read(
      tracer.span("store_read", ctx, seq++));
  store.each_summary([&](std::uint64_t epoch, std::uint32_t,
                         const jaal::summarize::MonitorSummary& s) {
    read.reset();
    if (current && *current != epoch) finish(*current);
    current = epoch;
    {
      jaal::telemetry::Span add = tracer.span("aggregate_add", ctx, seq++);
      aggregator.add(s);
    }
    read.emplace(tracer.span("store_read", ctx, seq++));
    return true;
  });
  read.reset();
  if (current) finish(*current);
  return lines;
}

void run_replay_traced(const Workload& w, const Options& o, RunResult& r) {
  // The fixture, traced: live per-layer numbers at full aggregate width.
  const Budget fixed{0.0, static_cast<long>(w.fixture_epochs), 1, 0};
  Workload fixture = w;
  fixture.warmup_epochs = 0;
  TracedLive live = run_live_traced(fixture, o, fixed, fixed, r);
  EpochLines fixture_lines = live.ref_lines;
  check_fixture_replay(w, live.ref_store, fixture_lines, r);
  const std::string replay_store = o.workdir + "/replay_store";
  const std::vector<AttackType> labels =
      build_replay_store(w, live.ref_store, replay_store, live.labels);

  std::vector<double> open_ms;
  for (std::size_t rep = 0; rep < w.setup_repeats; ++rep) {
    const Stopwatch t;
    const jaal::store::StoreReplayer replayer(
        {replay_store, w.config.store_epochs_per_shard});
    open_ms.push_back(t.ms());
  }
  const jaal::store::StoreReplayer replayer(
      {replay_store, w.config.store_epochs_per_shard});
  const auto tier = replay_tier(w);
  const double base = w.config.engine.tau_c_scale;

  // Untraced StoreReplayer passes.
  std::vector<double> untraced_ms;
  EpochLines reference;
  {
    const Budget b = budget_for(w, o, 0.3, 2);
    const Stopwatch clock;
    while (b.more(clock, untraced_ms.size())) {
      const Stopwatch t;
      const auto epochs = replayer.replay(tier->engine(), base);
      untraced_ms.push_back(ratio(t.ms(), static_cast<double>(epochs.size())));
      ++r.attempted;
      if (reference.empty()) {
        reference = replay_lines(epochs);
        Quality quality;
        for (const auto& e : epochs) quality.add(labels.at(e.epoch), e.alerts);
        r.set("benign_alert_rate", quality.benign_alert_rate());
      }
    }
  }

  // Traced composed passes.
  std::map<std::uint64_t, jaal::store::EpochMeta> metas;
  replayer.store().each_epoch_meta([&](const jaal::store::EpochMeta& m) {
    metas[m.epoch] = m;
    return true;
  });
  jaal::telemetry::Tracer tracer;
  ProbeStats probes;
  std::vector<std::uint64_t> passes;
  constexpr std::uint64_t kPassTraceBase = 1'000'000;
  {
    const Budget b = budget_for(w, o, 0.3, 2);
    const Stopwatch clock;
    while (b.more(clock, passes.size())) {
      const std::uint64_t id = kPassTraceBase + passes.size();
      const EpochLines lines = composed_replay_pass(
          replayer.store(), metas, tier->engine(), base, tracer, id, 5, probes);
      if (passes.empty()) {
        compare_lines(reference, lines, "composed replay vs StoreReplayer",
                      Cover::kSame, r);
      }
      passes.push_back(id);
    }
  }
  const std::vector<SpanRecord> spans = tracer.records();
  StageTotals stages;
  std::vector<double> pass_ms_per_epoch;
  for (std::uint64_t id : passes) {
    stages.add(spans, id, "replay_pass");
    pass_ms_per_epoch.push_back(
        ratio(stages.root_ms.back(), static_cast<double>(metas.size())));
  }

  std::vector<double> scan_s;
  for (int i = 0; i < 3; ++i) {
    const Stopwatch t;
    replayer.store().each_summary(
        [](std::uint64_t, std::uint32_t, const jaal::summarize::MonitorSummary&) {
          return true;
        });
    scan_s.push_back(t.seconds());
  }
  const double epochs_traced =
      static_cast<double>(passes.size() * metas.size());
  r.set("inference.infer.ms", ratio(stages.self("infer"), epochs_traced));
  r.set("inference.match.ms",
        ratio(probes.match_ms, static_cast<double>(probes.matches)));
  r.set("store.bytes_per_epoch",
        ratio(static_cast<double>(dir_bytes(replay_store)),
              static_cast<double>(metas.size())));
  r.set("store.open.ms", quantile(open_ms, 0.5));
  r.set("store.scan.mb_per_s",
        ratio(static_cast<double>(dir_bytes(replay_store, "summaries")) /
                  (1024.0 * 1024.0),
              quantile(scan_s, 0.5)));
  r.set("store.replay.ms_per_epoch", quantile(untraced_ms, 0.5));
  r.set("trace.coverage", mean(stages.coverage));
  r.set("trace.overhead", ratio(quantile(pass_ms_per_epoch, 0.5),
                                quantile(untraced_ms, 0.5)));
  live.spans.insert(live.spans.end(), spans.begin(), spans.end());
  if (!o.trace_out.empty()) {
    std::ofstream(o.trace_out) << jaal::telemetry::export_chrome_trace(live.spans);
  }
  std::printf("replay: %zu untraced and %zu traced passes over %zu stored "
              "epochs; per-stage self time over the traced passes:\n%s",
              untraced_ms.size(), passes.size(), metas.size(),
              stages.report.to_text().c_str());
}

void usage() {
  std::fprintf(stderr,
               "usage: jaal_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--trace-out FILE] [--epochs N] "
               "[--toy]\n");
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = std::stoi(value()) != 0;
    } else if (arg == "--workdir") {
      o.workdir = value();
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--epochs") {
      o.epochs = std::stol(value());
    } else if (arg == "--toy") {
      o.toy = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    parse(argc, argv, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jaal_perfbench: %s\n", e.what());
    usage();
    return 2;
  }
  if (o.workdir.empty()) {
    o.workdir = ".bench_build/work-" + std::to_string(::getpid());
  }
  RunResult r(o.trace);
  int rc = 0;
  try {
    fs::create_directories(o.workdir);
    const Workload w = make_workload(o.workload, o.seed, o.toy);
    std::printf("workload %s, seed %llu, %s run, %.3g s budget\n",
                w.name.c_str(), static_cast<unsigned long long>(o.seed),
                o.trace ? "traced" : "untraced", o.seconds);
    if (w.mode == Mode::kLive && !o.trace) {
      run_live(w, o, r);
    } else if (w.mode == Mode::kLive) {
      const TracedLive t = run_live_traced(w, o, budget_for(w, o, 0.35, 10),
                                           budget_for(w, o, 0.65, 10), r);
      if (!o.trace_out.empty()) {
        std::ofstream(o.trace_out) << jaal::telemetry::export_chrome_trace(t.spans);
      }
    } else if (!o.trace) {
      run_replay(w, o, r);
    } else {
      run_replay_traced(w, o, r);
    }
    if (o.trace) {
      r.set("failed_ops_share", ratio(static_cast<double>(r.failed),
                                      static_cast<double>(r.attempted)));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jaal_perfbench: %s\n", e.what());
    rc = 1;
  }
  std::error_code ec;
  fs::remove_all(o.workdir, ec);
  if (rc != 0) return rc;

  std::printf("%s", r.metrics.to_text().c_str());
  std::printf("failed_ops_share: %.6g (%llu of %llu operations)\n",
              ratio(static_cast<double>(r.failed),
                    static_cast<double>(r.attempted)),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("trace_digest: %016llx\n",
              static_cast<unsigned long long>(r.trace_digest));
  std::printf("alerts_digest: %016llx (%llu alert lines, %zu timed)\n",
              static_cast<unsigned long long>(r.alerts_digest),
              static_cast<unsigned long long>(r.alerts), r.timed);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(r.attempted, 1)),
              static_cast<unsigned long long>(r.failed),
              r.metrics.to_json().c_str());
  return r.correct && r.failed == 0 ? 0 : 1;
}
