#include "por/io/orientation_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "por/resilience/atomic_file.hpp"
#include "por/resilience/error.hpp"

namespace por::io {

void write_orientations(const std::string& path,
                        const std::vector<ViewOrientation>& records,
                        const std::string& comment) {
  // Atomic replacement: the orientation file is the artifact the next
  // refinement cycle (and a resumed run) trusts; a crash mid-write
  // must leave the previous complete file, not a prefix.
  resilience::atomic_write_file(path, [&](std::ostream& out) {
    out << "# por orientation file: index theta phi omega center_x center_y\n";
    if (!comment.empty()) out << "# " << comment << "\n";
    out.precision(10);
    for (const auto& rec : records) {
      out << rec.view_index << ' ' << rec.orientation.theta << ' '
          << rec.orientation.phi << ' ' << rec.orientation.omega << ' '
          << rec.center_x << ' ' << rec.center_y << '\n';
    }
  });
}

std::vector<ViewOrientation> read_orientations(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw resilience::transient_error("read_orientations: cannot open " +
                                      path);
  }
  std::vector<ViewOrientation> records;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    ViewOrientation rec;
    std::string extra;
    if (!(fields >> rec.view_index >> rec.orientation.theta >>
          rec.orientation.phi >> rec.orientation.omega >> rec.center_x >>
          rec.center_y) ||
        fields >> extra) {
      throw resilience::corrupt_error("read_orientations: malformed line " +
                                      std::to_string(line_number) + " in " +
                                      path);
    }
    // Non-finite angles/centers would silently poison every matching
    // downstream; classify them as corrupt input here.
    if (!std::isfinite(rec.orientation.theta) ||
        !std::isfinite(rec.orientation.phi) ||
        !std::isfinite(rec.orientation.omega) ||
        !std::isfinite(rec.center_x) || !std::isfinite(rec.center_y)) {
      throw resilience::corrupt_error(
          "read_orientations: non-finite value on line " +
          std::to_string(line_number) + " in " + path);
    }
    // The drivers pair record k with view k; an index out of place
    // would start a view from another view's orientation.
    if (rec.view_index != records.size()) {
      throw resilience::corrupt_error(
          "read_orientations: record index " +
          std::to_string(rec.view_index) + " at position " +
          std::to_string(records.size()) + " on line " +
          std::to_string(line_number) + " in " + path);
    }
    records.push_back(rec);
  }
  return records;
}

}  // namespace por::io
