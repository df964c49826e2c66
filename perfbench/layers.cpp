// Per-layer tool of the campaign-service benchmark (perfbench/run.py).
//
//   perfbench_layers check <records-file>
//       Parses every entry line (digest included); exit 1 on the first bad
//       one. The daemon's streamed records are checked here in bulk.
//   perfbench_layers reference <request-file> <out-file> [--serial]
//       Runs the request in-process on a CampaignScheduler and writes its
//       records as sorted entry lines: the result the daemon's stream must
//       equal as a set. --serial runs one worker and prints, as JSON, the
//       mean gap between RecordCallbacks per job kind (harness.execute_ms.*).
//   perfbench_layers layers <request-file> <records-file> <store-file>
//       Times each module's public functions on the workload's inputs and
//       prints one JSON object of per-layer metrics.
//
// Every timing wraps a call into src/ from here; nothing inside src/ is
// instrumented. A timing is the median of repeated calls (batched so one
// sample lasts well above the clock's resolution).

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "accelerate/reference_blas.hpp"
#include "core/system.hpp"
#include "gemm/gemm_interface.hpp"
#include "harness/experiment.hpp"
#include "harness/matrix_workload.hpp"
#include "orchestrator/campaign.hpp"
#include "orchestrator/result_cache.hpp"
#include "orchestrator/scheduler.hpp"
#include "orchestrator/store_index.hpp"
#include "service/campaign_queue.hpp"
#include "service/frame.hpp"
#include "service/protocol.hpp"

namespace {

using namespace ao;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : (values[mid - 1] + values[mid]) / 2.0;
}

// Median over `samples` calls of fn(), in milliseconds.
template <typename Fn>
double median_ms(int samples, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < samples; ++i) {
    const auto start = Clock::now();
    fn();
    times.push_back(ms_since(start));
  }
  return median(times);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

service::CampaignRequest read_request(const std::string& path) {
  std::string error;
  auto request = service::parse_request_lines(read_lines(path), &error);
  if (!request) {
    throw std::runtime_error("bad request file " + path + ": " + error);
  }
  return *request;
}

std::vector<orchestrator::ResultCache::Entry> parse_records(
    const std::vector<std::string>& lines) {
  std::vector<orchestrator::ResultCache::Entry> entries;
  entries.reserve(lines.size());
  for (const std::string& line : lines) {
    auto entry = orchestrator::parse_store_entry(line);
    if (!entry) {
      throw std::runtime_error("malformed entry line: " + line.substr(0, 80));
    }
    entries.push_back(std::move(*entry));
  }
  return entries;
}

class JsonOut {
 public:
  JsonOut() {
    out_ << std::setprecision(std::numeric_limits<double>::max_digits10);
  }

  void add(const std::string& name, double value) {
    out_ << (first_ ? "{" : ", ") << '"' << name << "\": " << value;
    first_ = false;
  }
  std::string str() const { return out_.str() + (first_ ? "{}" : "}"); }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

// ------------------------------------------------------------- reference ---

int reference(const std::string& request_path, const std::string& out_path,
              bool serial) {
  const service::CampaignRequest request = read_request(request_path);
  const std::uint64_t options_fp =
      orchestrator::options_fingerprint(request.options());
  orchestrator::JobQueue queue;
  request.to_campaign().expand(queue);
  orchestrator::CampaignScheduler scheduler(
      request.options(), {serial ? std::size_t{1} : request.workers});

  std::mutex mutex;
  std::vector<std::string> lines;
  std::map<std::string, std::vector<double>> gaps;
  auto last = Clock::now();
  scheduler.run(queue, [&](const orchestrator::ExperimentJob& job,
                           const orchestrator::MeasurementRecord& record,
                           bool /*from_cache*/) {
    std::string line = orchestrator::format_store_entry(
        orchestrator::key_for_job(job, options_fp), record);
    std::lock_guard lock(mutex);
    if (serial) {
      const auto now = Clock::now();
      gaps[orchestrator::to_string(job.kind)].push_back(
          std::chrono::duration<double, std::milli>(now - last).count());
      last = now;
    }
    lines.push_back(std::move(line));
  });
  std::sort(lines.begin(), lines.end());
  std::ofstream out(out_path);
  for (const std::string& line : lines) {
    out << line << '\n';
  }
  if (!out.flush()) {
    throw std::runtime_error("cannot write " + out_path);
  }
  if (serial) {
    JsonOut json;
    for (const auto& [kind, values] : gaps) {
      double sum = 0;
      for (double v : values) {
        sum += v;
      }
      json.add("harness.execute_ms." + kind, sum / values.size());
    }
    std::cout << json.str() << '\n';
  }
  return 0;
}

// ---------------------------------------------------------------- layers ---

void service_layers(const service::CampaignRequest& request,
                    const std::vector<std::string>& records, JsonOut& json) {
  // Admission: one uncontended submit + try_start + release, batched.
  service::CampaignQueue queue;
  const service::ResourceMask mask = service::resources_for(request);
  constexpr int kBatch = 200;
  json.add("service.campaign_queue.submit_start_us",
           1000.0 * median_ms(15, [&] {
             for (int i = 0; i < kBatch; ++i) {
               auto ticket = queue.submit(request.client, request.priority,
                                          mask);
               if (!ticket || !ticket->try_start()) {
                 throw std::runtime_error("uncontended admission refused");
               }
             }
           }) / kBatch);

  // Wire frames: the workload's records in 16-record `records` batches.
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < records.size(); i += 16) {
    std::string payload;
    for (std::size_t j = i; j < std::min(records.size(), i + 16); ++j) {
      if (j > i) {
        payload += '\n';
      }
      payload += records[j];
    }
    payloads.push_back(std::move(payload));
  }
  // encode_frame_into appends; clearing keeps the buffer's capacity, as the
  // daemon's FrameWriter does.
  std::string wire;
  std::string buffer;
  for (const std::string& payload : payloads) {
    buffer.clear();
    service::encode_frame_into(buffer, service::kFrameRecords, payload);
    wire += buffer;
  }
  const double batches = static_cast<double>(payloads.size());
  json.add("service.frame.encode_us", 1000.0 * median_ms(9, [&] {
             for (const std::string& payload : payloads) {
               buffer.clear();
               service::encode_frame_into(buffer, service::kFrameRecords,
                                          payload);
             }
           }) / batches);
  json.add("service.frame.decode_us", 1000.0 * median_ms(9, [&] {
             std::istringstream in(wire);
             for (std::size_t i = 0; i < payloads.size(); ++i) {
               if (!service::read_frame(in)) {
                 throw std::runtime_error("frame did not decode");
               }
             }
           }) / batches);
  json.add("service.frame.bytes_per_record",
           static_cast<double>(wire.size()) / records.size());
}

void orchestrator_layers(const service::CampaignRequest& request,
                         const std::vector<std::string>& records,
                         const std::string& store_path, JsonOut& json) {
  // Planning: request -> Campaign -> expanded job graph.
  std::size_t jobs = 0;
  json.add("orchestrator.plan.expand_us", 1000.0 * median_ms(9, [&] {
             orchestrator::JobQueue queue;
             request.to_campaign().expand(queue);
             jobs = queue.jobs().size();
           }));
  json.add("orchestrator.plan.jobs", static_cast<double>(jobs));

  // Store entry codec.
  const auto entries = parse_records(records);
  const double n = static_cast<double>(entries.size());
  json.add("orchestrator.result_cache.format_us", 1000.0 * median_ms(5, [&] {
             for (const auto& [key, record] : entries) {
               if (orchestrator::format_store_entry(key, record).empty()) {
                 throw std::runtime_error("empty entry");
               }
             }
           }) / n);
  json.add("orchestrator.result_cache.parse_us", 1000.0 * median_ms(5, [&] {
             for (const std::string& line : records) {
               if (!orchestrator::parse_store_entry(line)) {
                 throw std::runtime_error("entry did not parse");
               }
             }
           }) / n);

  // Scheduler dispatch over a warm cache: every cacheable job is a hit.
  orchestrator::ResultCache warm(entries.size() + 16);
  for (const auto& [key, record] : entries) {
    warm.insert(key, record);
  }
  json.add("orchestrator.scheduler.hit_us_per_job", 1000.0 * median_ms(5, [&] {
             orchestrator::JobQueue queue;
             request.to_campaign().expand(queue);
             orchestrator::CampaignScheduler scheduler(request.options(), {1},
                                                       &warm);
             const auto out = scheduler.run(queue);
             if (out.stats.jobs_executed != 0) {
               throw std::runtime_error("warm scheduler run executed jobs");
             }
           }) / static_cast<double>(jobs));

  // Whole-store buffers: the wire `store` frame's payload both ways.
  std::string serialized;
  json.add("orchestrator.result_cache.serialize_ms",
           median_ms(5, [&] { serialized = warm.serialize_store(); }));
  json.add("orchestrator.result_cache.merge_buffer_ms", median_ms(5, [&] {
             orchestrator::ResultCache fresh(entries.size() + 16);
             if (fresh.merge_buffer(serialized) != entries.size()) {
               throw std::runtime_error("merge_buffer lost entries");
             }
           }));

  // Store attach as the daemon does it: load(), then persist_to(), whose
  // cold scan rebuilds the StoreIndex. Run on a copy; attach may append.
  const std::string copy = store_path + ".layers";
  std::filesystem::copy_file(store_path, copy,
                             std::filesystem::copy_options::overwrite_existing);
  json.add("orchestrator.result_cache.load_ms", median_ms(5, [&] {
             orchestrator::ResultCache cache;
             cache.load(copy);
           }));
  json.add("orchestrator.store_index.rebuild_ms", median_ms(5, [&] {
             orchestrator::ResultCache cache;
             cache.persist_to(copy);
           }));

  // Index-served pages of a full traversal.
  orchestrator::ResultCache attached;
  attached.load(copy);
  attached.persist_to(copy);
  std::vector<double> page_ms;
  std::size_t pages = 0;
  std::size_t lines_read = 0;
  std::string cursor;
  for (;;) {
    std::string error;
    const auto start = Clock::now();
    const auto page = attached.query({}, 64, cursor, &error);
    page_ms.push_back(ms_since(start));
    if (!page) {
      throw std::runtime_error("query failed: " + error);
    }
    ++pages;
    lines_read += page->entries_read;
    if (page->exhausted) {
      break;
    }
    cursor = page->cursor;
  }
  attached.persist_to("");
  std::filesystem::remove(copy);
  json.add("orchestrator.store_index.page_us", 1000.0 * median(page_ms));
  json.add("orchestrator.store_index.lines_read_per_page",
           static_cast<double>(lines_read) / pages);

  // Operand batches of the paper's model-only sizes (page-faulted, zeroed).
  for (const std::size_t size : {4096, 8192}) {
    json.add("orchestrator.matrix_batch.alloc_ms." + std::to_string(size),
             median_ms(3, [&] {
               orchestrator::MatrixBatch batch(size, /*fill=*/false, 42);
               batch.acquire_out();
             }));
  }
}

void substrate_layers(JsonOut& json) {
  // Verification of a functional 256^3 product against the reference.
  {
    harness::MatrixSet set(256);
    accelerate::reference::sgemm(false, false, 256, 256, 256, 1.0f,
                                 set.left(), 256, set.right(), 256, 0.0f,
                                 set.out(), 256);
    json.add("harness.verify_ms", median_ms(5, [&] {
               harness::GemmMeasurement m;
               m.n = 256;
               m.functional = true;
               harness::verify_measurement(m, set.view());
               if (!m.verified) {
                 throw std::runtime_error("reference product failed verify");
               }
             }));
  }
  for (const std::size_t n : {64, 128, 256}) {
    harness::MatrixSet set(n);
    json.add("accelerate.reference_sgemm_ms." + std::to_string(n),
             median_ms(5, [&] {
               accelerate::reference::sgemm(false, false, n, n, n, 1.0f,
                                            set.left(), n, set.right(), n,
                                            0.0f, set.out(), n);
             }));
  }
  // Each GEMM implementation at its default functional ceiling.
  const harness::GemmExperiment::Options defaults;
  core::System system(soc::ChipModel::kM2);
  for (const auto& [impl, ceiling] : defaults.functional_n_max) {
    auto gemm = gemm::create_gemm(impl, system.gemm_context());
    harness::MatrixSet set(ceiling);
    std::string name = soc::to_string(impl);
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    json.add("gemm." + name + ".multiply_ms",
             median_ms(3, [&] {
               gemm->multiply(ceiling, set.memory_length(), set.left(),
                              set.right(), set.out(), true);
             }));
  }
}

int layers(const std::string& request_path, const std::string& records_path,
           const std::string& store_path) {
  const service::CampaignRequest request = read_request(request_path);
  const std::vector<std::string> records = read_lines(records_path);
  if (records.empty()) {
    throw std::runtime_error("no records in " + records_path);
  }
  JsonOut json;
  service_layers(request, records, json);
  orchestrator_layers(request, records, store_path, json);
  substrate_layers(json);
  std::cout << json.str() << '\n';
  return 0;
}

int check(const std::string& records_path) {
  std::size_t count = 0;
  for (const std::string& line : read_lines(records_path)) {
    if (!orchestrator::parse_store_entry(line)) {
      std::cerr << "perfbench_layers: corrupt entry: " << line.substr(0, 80)
                << '\n';
      return 1;
    }
    ++count;
  }
  std::cout << count << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 2 && args[0] == "check") {
      return check(args[1]);
    }
    if ((args.size() == 3 || (args.size() == 4 && args[3] == "--serial")) &&
        args[0] == "reference") {
      return reference(args[1], args[2], args.size() == 4);
    }
    if (args.size() == 4 && args[0] == "layers") {
      return layers(args[1], args[2], args[3]);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_layers: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "usage: perfbench_layers check <records> | reference "
               "<request> <out> [--serial] | layers <request> <records> "
               "<store>\n";
  return 2;
}
