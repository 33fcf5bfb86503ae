#include "gate.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "core/wire.h"
#include "crypto/poi_codec.h"

namespace perfbench {

using ppgnn::Point;

bool SameAnswer(const std::vector<Point>& got,
                const std::vector<ppgnn::RankedPoi>& reference) {
  if (got.size() != reference.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    const Point& ref = reference[i].poi.location;
    if (ppgnn::QuantizeCoord(got[i].x) != ppgnn::QuantizeCoord(ref.x) ||
        ppgnn::QuantizeCoord(got[i].y) != ppgnn::QuantizeCoord(ref.y)) {
      return false;
    }
  }
  return true;
}

FrameVerdict JudgeFrame(const std::vector<uint8_t>& got,
                        const std::vector<uint8_t>& reference) {
  if (got == reference) return FrameVerdict::kCorrect;
  auto frame = ppgnn::ResponseFrame::Decode(got);
  if (!frame.ok()) return FrameVerdict::kUndecodable;
  if (!frame->is_error) return FrameVerdict::kWrongAnswer;
  const ppgnn::WireError code = frame->error.code;
  return code == ppgnn::WireError::kOverloaded ||
                 code == ppgnn::WireError::kDeadlineExceeded
             ? FrameVerdict::kRefused
             : FrameVerdict::kErrorFrame;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  saved_ = sched_getaffinity(0, sizeof(original_), &original_) == 0;
  if (!saved_) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (saved_) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Pin(size_t turn) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[turn % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

ProcessSample SampleProcess() {
  ProcessSample sample;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return sample;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long value = 0;
    if (std::sscanf(line, "Threads: %ld", &value) == 1) {
      sample.threads = static_cast<int>(value);
    } else if (std::sscanf(line, "VmRSS: %ld kB", &value) == 1) {
      sample.rss_mb = static_cast<double>(value) / 1024.0;
    }
  }
  std::fclose(f);
  return sample;
}

}  // namespace perfbench
