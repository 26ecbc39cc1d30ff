// jaal.hpp — the supported public surface of the Jaal library.
//
// Consumers include this one header (examples/ are the reference usage).
// Everything it exports is the API we keep stable:
//
//   deployment      core::DeploymentConfig, core::JaalConfig,
//                   core::JaalController, core::EpochResult, core::Monitor,
//                   core::CommStats, core::AlertLogger (JSONL of
//                   inference::alert_to_json, the bytes the store keeps)
//   evaluation      core::TrialConfig, core::make_trial/make_trial_set,
//                   core::roc_sweep / evaluate / evaluate_with_feedback,
//                   core::ConfusionCounts, core::RocCurve
//   rules           rules::Rule, rules::parse_rules,
//                   rules::default_ruleset_text, rules::RuleVars
//   inference       shard::InferenceTier, inference::AggregationPolicy,
//                   inference::Alert, inference::AggregatedSummary,
//                   inference::AlertCorrelator (the tier is the
//                   deployment-facing detection API: one engine plus the
//                   per-epoch aggregate/infer flow; inference::InferenceEngine
//                   remains exported for embedding and store replay.
//                   shard::ShardingConfig is an empty struct kept for the
//                   end-to-end benchmark)
//   traffic         trace::BackgroundTraffic, trace::TrafficMix,
//                   trace::PcapReader/Writer, attack::* generators
//   fault model     faults::FaultScenario, faults::CrashWindow,
//                   faults::ShardCrashWindow, faults::RetryPolicy,
//                   faults::LatePolicy, faults::SummaryTransport,
//                   faults::TransportStats
//   network sim     netsim::Topology, netsim::EventQueue, netsim::LinkQueue,
//                   netsim::latency/replication models, assign::*
//   telemetry       telemetry::Telemetry (JaalConfig::telemetry; null,
//                   the default, is the one off switch),
//                   telemetry::to_jsonl, telemetry::prometheus_text
//   observability   observe::ObserveConfig, observe::AlertProvenance,
//                   observe::DriftDetector, observe::HealthTracker,
//                   observe::HealthReport, observe::FlightRecorder,
//                   observe::SloTracker (alert causal chains, summary
//                   drift monitors, the epoch health report, the flight
//                   recorder ring and SLO error budgets —
//                   examples/jaal_doctor is the reference consumer)
//   persistence     store::StoreConfig, store::DeploymentStore,
//                   store::StoreReplayer, store::EpochMeta,
//                   store::diagnose_store (one time-sharded .jstore log
//                   of summaries/alerts/ops, crash-safe
//                   restart, retroactive rule replay, offline timeline
//                   diagnosis — JaalConfig::store_dir wires it in;
//                   examples/retroactive_query and jaal_doctor --store
//                   are the reference consumers)
//   payload         payload::TermMatrix (payload-mode detection)
//
// Error policy (library-wide, enforced at this surface):
//
//   * Construction-time misconfiguration throws std::invalid_argument —
//     constructors and config validation (JaalController, InferenceEngine,
//     Summarizer, FaultScenario::validate, LinkQueue, DriftConfig::validate,
//     ...) are the only places the library throws on bad input.
//   * Runtime degradation never throws: it is reported through status and
//     optional returns.  A silent monitor is a nullopt summary; a failed
//     feedback retrieval is a RawFetch with nullopt packets (the engine
//     degrades to summary-only inference); transport loss is a ShipStatus;
//     a partial epoch is an EpochResult with report_fraction < 1.
//   * The per-epoch hot path — JaalController::ingest/close_epoch,
//     InferenceEngine::infer, SummaryTransport::ship/fetch — does not
//     throw.  (Documented preconditions still hold: e.g.
//     Summarizer::summarize requires min_batch packets, which its only
//     caller, Monitor::flush_epoch, gates on.)
#pragma once

#include "assign/assigner.hpp"
#include "assign/flow_groups.hpp"
#include "attack/generators.hpp"
#include "attack/mirai.hpp"
#include "core/alert_log.hpp"
#include "core/assignment_service.hpp"
#include "core/controller.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/monitor.hpp"
#include "faults/scenario.hpp"
#include "faults/transport.hpp"
#include "inference/alert_json.hpp"
#include "inference/correlator.hpp"
#include "inference/engine.hpp"
#include "netsim/event.hpp"
#include "netsim/latency.hpp"
#include "netsim/link.hpp"
#include "netsim/replication.hpp"
#include "netsim/topology.hpp"
#include "observe/observe.hpp"
#include "payload/term_matrix.hpp"
#include "rules/rule.hpp"
#include "shard/tier.hpp"
#include "store/doctor.hpp"
#include "store/replay.hpp"
#include "store/store.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/background.hpp"
#include "trace/mix.hpp"
#include "trace/pcap.hpp"
