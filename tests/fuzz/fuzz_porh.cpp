// Fuzz target: the PORH shard parser (por/stream/sharded_stack).
//
// A shard is only ever read through a manifest, so the harness builds
// one small valid stack per process (manifest + one shard), then
// replaces the SHARD's bytes with the fuzz input and reads every view
// twice — once with corruption quarantined (views must degrade to
// NaN-filled rejects, never crash), once in throwing mode (typed
// kCorrupt).  This drives header parsing, the per-view CRC table, the
// payload-length check and the per-view CRC checks against hostile
// bytes.
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz_common.hpp"
#include "por/em/grid.hpp"
#include "por/stream/sharded_stack.hpp"

namespace {

/// Base path of the scratch stack; the manifest stays valid forever.
const std::string& stack_base() {
  static const std::string base = [] {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(por::fuzz::scratch_path("porh")).parent_path();
    const std::string root = (dir / "stack").string();
    std::vector<por::em::Image<double>> views;
    for (std::size_t v = 0; v < 3; ++v) {
      por::em::Image<double> view(6, 5, 0.0);
      for (std::size_t i = 0; i < view.size(); ++i) {
        view.data()[i] = static_cast<double>(v * 100 + i);
      }
      views.push_back(std::move(view));
    }
    por::stream::ShardedStackOptions options;
    options.views_per_shard = 8;  // everything lands in shard 0
    por::stream::write_sharded_stack(root, views, options);
    return root;
  }();
  return base;
}

void read_everything(const por::stream::ShardedStackOptions& options) {
  try {
    por::stream::ShardedStack stack(stack_base(), options);
    std::vector<double> view(stack.view_pixels());
    for (std::uint64_t index = 0; index < stack.count(); ++index) {
      (void)stack.read_view(index, view.data());
    }
  } catch (const std::exception&) {
    // Typed rejection is the expected outcome for malformed input.
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string shard = por::stream::shard_path(stack_base(), 0);
  por::fuzz::write_scratch(shard, data, size);

  por::stream::ShardedStackOptions strict;
  read_everything(strict);

  por::stream::ShardedStackOptions tolerant;
  tolerant.quarantine_corrupt = true;
  tolerant.use_mmap = false;  // the read() fallback parses the same bytes
  read_everything(tolerant);
  return 0;
}
