#include "era/subtree_writer.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/timer.h"
#include "suffixtree/serializer.h"

namespace era {

namespace {

/// One queued write. Heap-allocated and shared because ThreadPool tasks are
/// std::function (copyable) while TreeBuffer is move-only in spirit.
struct WriteJob {
  std::string path;
  std::string prefix;
  TreeBuffer tree;
  uint64_t bytes = 0;
  BackgroundSubTreeWriter::WriteDone done;
};

}  // namespace

BackgroundSubTreeWriter::BackgroundSubTreeWriter(Env* env,
                                                 std::size_t num_threads,
                                                 uint64_t max_queued_bytes)
    : env_(env),
      max_queued_bytes_(std::max<uint64_t>(max_queued_bytes, 1)),
      pool_(num_threads) {}

BackgroundSubTreeWriter::~BackgroundSubTreeWriter() { (void)Drain(); }

void BackgroundSubTreeWriter::Enqueue(std::string path, std::string prefix,
                                      TreeBuffer tree, WriteDone done) {
  auto job = std::make_shared<WriteJob>();
  job->path = std::move(path);
  job->prefix = std::move(prefix);
  job->bytes = tree.MemoryBytes();
  job->tree = std::move(tree);
  job->done = std::move(done);

  {
    std::unique_lock<std::mutex> lock(mu_);
    // A failed build must not keep blocking producers on backpressure —
    // fail fast instead of draining a doomed backlog through the device.
    cv_.wait(lock, [this, &job] {
      return !first_error_.ok() || queued_bytes_ == 0 ||
             queued_bytes_ + job->bytes <= max_queued_bytes_;
    });
    if (!first_error_.ok()) {
      // Build is failing; drop the work (outside the lock for the callback).
      Status err = first_error_;
      lock.unlock();
      if (job->done) job->done(err, 0);
      return;
    }
    queued_bytes_ += job->bytes;
    peak_queued_bytes_ = std::max(peak_queued_bytes_, queued_bytes_);
  }

  pool_.Submit([this, job] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_.ok()) {
        // Skip the device for work queued before the first failure.
        Status err = first_error_;
        queued_bytes_ -= job->bytes;
        cv_.notify_all();
        if (job->done) job->done(err, 0);
        return;
      }
    }
    IoStats local;
    uint32_t file_crc = 0;
    WallTimer write_timer;
    Status s = WriteSubTree(env_, job->path, job->prefix, job->tree, &local,
                            &file_crc);
    const double write_seconds = write_timer.Seconds();
    {
      std::lock_guard<std::mutex> lock(mu_);
      io_.Add(local);
      write_seconds_ += write_seconds;
      ++jobs_written_;
      if (!s.ok() && first_error_.ok()) {
        first_error_ = s;
        failed_.store(true, std::memory_order_release);
      }
      queued_bytes_ -= job->bytes;
      cv_.notify_all();
    }
    if (job->done) job->done(s, file_crc);
  });
}

bool BackgroundSubTreeWriter::Failed() const {
  return failed_.load(std::memory_order_acquire);
}

Status BackgroundSubTreeWriter::Drain() {
  pool_.WaitIdle();
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

}  // namespace era
