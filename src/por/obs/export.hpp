// por/obs/export.hpp
//
// Snapshot serialization as a JSON document: the run-report format,
// also used as the wire format when per-rank snapshots travel over
// vmpi.  `snapshot_from_json` inverts `to_json` exactly, so a snapshot
// round-trips losslessly — the RunReport gather relies on it.
#pragma once

#include <string>

#include "por/obs/registry.hpp"

namespace por::obs {

/// JSON document with four top-level objects: "counters", "gauges",
/// "histograms", "spans".  Deterministic key order (snapshots are
/// sorted maps), no external dependencies.
[[nodiscard]] std::string to_json(const Snapshot& snapshot);

/// Parse a document produced by to_json back into a Snapshot.
/// Throws std::runtime_error on malformed input.
[[nodiscard]] Snapshot snapshot_from_json(const std::string& json);

/// Write `content` to `path`, throwing std::runtime_error on failure.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace por::obs
