// Seed-corpus generator: writes one known-good artifact per fuzz
// target into the given directory (default tests/fuzz/corpus), using
// the project's own writers so the seeds track the formats by
// construction.  Usage: fuzz_make_corpus [corpus-root]
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "por/em/grid.hpp"
#include "por/io/map_io.hpp"
#include "por/journal/journal.hpp"
#include "por/resilience/checkpoint.hpp"
#include "por/serve/job_record.hpp"
#include "por/stream/sharded_stack.hpp"

namespace fs = std::filesystem;

namespace {

std::vector<por::em::Image<double>> sample_views() {
  std::vector<por::em::Image<double>> views;
  for (std::size_t v = 0; v < 3; ++v) {
    por::em::Image<double> view(6, 5, 0.0);
    for (std::size_t i = 0; i < view.size(); ++i) {
      view.data()[i] = static_cast<double>(v) * 0.5 + static_cast<double>(i);
    }
    views.push_back(std::move(view));
  }
  return views;
}

void copy_into(const fs::path& src, const fs::path& dst) {
  fs::create_directories(dst.parent_path());
  fs::copy_file(src, dst, fs::copy_options::overwrite_existing);
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root = argc > 1 ? fs::path(argv[1]) : fs::path("corpus");
  const fs::path scratch =
      fs::temp_directory_path() / ("por_fuzz_corpus_" + std::to_string(::getpid()));
  fs::create_directories(scratch);

  // fuzz_porm: a small volume.
  por::em::Volume<double> volume(4, 3, 3, 0.0);
  for (std::size_t i = 0; i < volume.size(); ++i) {
    volume.data()[i] = static_cast<double>(i) * 0.25;
  }
  por::io::write_map((scratch / "seed.porm").string(), volume);
  copy_into(scratch / "seed.porm", root / "fuzz_porm" / "seed.porm");

  // fuzz_porh: shard 0 of a sharded stack (the harness supplies its
  // own manifest; the seed is the shard bytes).
  {
    por::stream::ShardedStackOptions options;
    options.views_per_shard = 8;
    const std::string base = (scratch / "stack").string();
    por::stream::write_sharded_stack(base, sample_views(), options);
    copy_into(por::stream::shard_path(base, 0),
              root / "fuzz_porh" / "seed.porh");
  }

  // fuzz_porc: a two-record checkpoint.
  {
    por::resilience::CheckpointWriter writer(
        (scratch / "seed.porc").string(), /*flush_every=*/1);
    for (std::uint64_t view = 0; view < 2; ++view) {
      por::resilience::CheckpointRecord record;
      record.view_index = view;
      record.theta = 10.0 + static_cast<double>(view);
      record.phi = 20.0;
      record.omega = 30.0;
      record.center_x = 0.5;
      record.center_y = -0.5;
      record.final_distance = 0.125;
      record.matchings = 7;
      writer.append(record);
    }
    writer.flush();
    copy_into(scratch / "seed.porc", root / "fuzz_porc" / "seed.porc");
  }

  // fuzz_journal: a segment holding one submitted job + lifecycle.
  {
    const fs::path dir = scratch / "journal";
    por::journal::Journal journal(dir.string());
    por::serve::SubmittedJob job;
    job.job = 1;
    job.tenant = "seed";
    job.model = "phantom";
    job.idempotency_key = "seed-key";
    job.views = {sample_views()[0]};
    job.initial = {por::em::Orientation{10.0, 20.0, 30.0}};
    journal.append(
        static_cast<std::uint32_t>(por::serve::JobRecordType::kSubmitted),
        por::serve::encode_submitted(job));
    por::serve::LifecycleEvent done;
    done.job = 1;
    done.views_done = 1;
    journal.append(
        static_cast<std::uint32_t>(por::serve::JobRecordType::kDone),
        por::serve::encode_lifecycle(done), /*durable=*/false);
    journal.sync();
    copy_into(dir / "wal-00000001.porj",
              root / "fuzz_journal" / "seed.porj");
  }

  fs::remove_all(scratch);
  std::printf("corpus written under %s\n", root.string().c_str());
  return 0;
}
