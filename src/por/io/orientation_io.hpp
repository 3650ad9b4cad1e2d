// por/io/orientation_io.hpp
//
// Text orientation files: one record per experimental view, holding
// the three Euler angles and the particle center — the O_init file
// read in step (c) and the O_refined file written in step (o).
//
// Format: '#'-prefixed comment lines, then one line per view:
//   <index> <theta> <phi> <omega> <center_x> <center_y>
// Angles in degrees, centers in pixels.
#pragma once

#include <string>
#include <vector>

#include "por/em/orientation.hpp"

namespace por::io {

/// One view's orientation record.
struct ViewOrientation {
  std::size_t view_index = 0;
  em::Orientation orientation;
  double center_x = 0.0;  ///< particle center relative to floor(l/2)
  double center_y = 0.0;

  bool operator==(const ViewOrientation&) const = default;
};

/// Write records in index order with a provenance comment.
void write_orientations(const std::string& path,
                        const std::vector<ViewOrientation>& records,
                        const std::string& comment = "");

/// Read an orientation file.  Record k must carry index k.  Throws
/// resilience::Error — kTransient when the file cannot be opened,
/// kCorrupt on a malformed line, a trailing field, a non-finite value
/// or an index out of place.
[[nodiscard]] std::vector<ViewOrientation> read_orientations(
    const std::string& path);

}  // namespace por::io
