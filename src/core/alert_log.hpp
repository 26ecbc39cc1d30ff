// Operator-facing alert log: one JSON object per line (JSONL), the format
// SIEM pipelines ingest.  The §10 discussion expects "analysts to parse
// logs just as they would for an enterprise IDS" — this is that log.  Each
// line is inference::alert_to_json, the same bytes the store persists.
#pragma once

#include <iosfwd>

#include "inference/engine.hpp"

namespace jaal::core {

/// Streaming JSONL sink.  Not thread-safe; one logger per engine loop.
class AlertLogger {
 public:
  /// The stream must outlive the logger.
  explicit AlertLogger(std::ostream& out);

  /// Writes every alert of an epoch; returns lines written.
  std::size_t log_epoch(double epoch_end_time,
                        const std::vector<inference::Alert>& alerts);

  [[nodiscard]] std::uint64_t lines_written() const noexcept {
    return lines_;
  }

 private:
  std::ostream* out_;
  std::uint64_t lines_ = 0;
};

}  // namespace jaal::core
