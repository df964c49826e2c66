#include "service/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <iomanip>
#include <limits>
#include <sstream>

#include "orchestrator/result_cache.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"

namespace ao::service {
namespace {

std::vector<std::string> split_csv(const std::string& token) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(token);
  while (std::getline(in, part, ',')) {
    if (!part.empty()) {
      parts.push_back(part);
    }
  }
  return parts;
}

std::string lowercase(const std::string& s) {
  std::string out(s.size(), '\0');
  std::transform(s.begin(), s.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// A list setter's values must be distinct: a repeated value would plan
/// the same job, and so the same cache key, more than once.
template <typename T>
bool distinct_values(std::vector<T> values) {
  std::sort(values.begin(), values.end());
  return std::adjacent_find(values.begin(), values.end()) == values.end();
}

/// Parses a comma-separated list of distinct unsigned values that fit T.
/// `out` is assigned only on success, so a rejected line leaves the request
/// as it was.
template <typename T>
bool parse_list(const std::string& token, std::vector<T>& out) {
  std::vector<T> values;
  for (const std::string& part : split_csv(token)) {
    std::uint64_t value = 0;
    if (!parse_u64_token(part, value) ||
        value > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
      return false;
    }
    values.push_back(static_cast<T>(value));
  }
  if (values.empty() || !distinct_values(values)) {
    return false;
  }
  out = std::move(values);
  return true;
}

bool parse_double_token(const std::string& token, double& value) {
  std::istringstream in(token);
  return static_cast<bool>(in >> value) && in.eof();
}

std::string join_sizes(const std::vector<std::size_t>& values) {
  std::string out;
  for (const std::size_t v : values) {
    if (!out.empty()) {
      out += ',';
    }
    out += std::to_string(v);
  }
  return out;
}

std::string join_ints(const std::vector<int>& values) {
  std::string out;
  for (const int v : values) {
    if (!out.empty()) {
      out += ',';
    }
    out += std::to_string(v);
  }
  return out;
}

}  // namespace

bool parse_u64_token(const std::string& token, std::uint64_t& value) {
  if (token.empty()) {
    return false;
  }
  value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') {
      return false;
    }
    if (value > (UINT64_MAX - static_cast<std::uint64_t>(c - '0')) / 10) {
      return false;  // overflow
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

std::vector<std::string> split_words(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> words;
  std::string word;
  while (in >> word) {
    words.push_back(word);
  }
  return words;
}

bool valid_campaign_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || name == "." || name == "..") {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](unsigned char c) {
    return std::isalnum(c) != 0 || c == '.' || c == '_' || c == '-';
  });
}

soc::GemmImpl gemm_impl_from_string(const std::string& name) {
  const std::string lowered = lowercase(name);
  for (const auto impl : soc::kAllGemmImpls) {
    if (lowered == lowercase(soc::to_string(impl))) {
      return impl;
    }
  }
  throw util::InvalidArgument("unknown GEMM implementation: " + name);
}

bool CampaignRequest::has_work() const {
  const bool gemm = !impls.empty() && !sizes.empty();
  return gemm || !stream_threads.empty() || gpu_stream ||
         !precision_sizes.empty() || !ane_sizes.empty() ||
         !fp64emu_sizes.empty() || !sme_sizes.empty() || power_idle;
}

harness::GemmExperiment::Options CampaignRequest::options() const {
  harness::GemmExperiment::Options options;
  options.repetitions = repetitions;
  options.matrix_seed = matrix_seed;
  options.verify_n_max = verify_n_max;
  if (functional_n_max.has_value()) {
    for (auto& [impl, ceiling] : options.functional_n_max) {
      ceiling = *functional_n_max;
    }
  }
  return options;
}

orchestrator::Campaign CampaignRequest::to_campaign() const {
  orchestrator::Campaign campaign;
  campaign.chips(chips).impls(impls).sizes(sizes).options(options());
  if (!stream_threads.empty()) {
    campaign.stream_sweep(stream_threads, stream_repetitions, stream_elements);
  }
  if (gpu_stream) {
    campaign.gpu_stream(gpu_stream_repetitions, gpu_stream_elements);
  }
  if (!precision_sizes.empty()) {
    campaign.precision_study(precision_sizes, precision_seed);
  }
  if (!ane_sizes.empty()) {
    campaign.ane_inference(ane_sizes, ane_functional);
  }
  if (!fp64emu_sizes.empty()) {
    campaign.fp64_emulation(fp64emu_sizes, fp64emu_seed);
  }
  if (!sme_sizes.empty()) {
    campaign.sme_gemm(sme_sizes, sme_seed);
  }
  if (power_idle) {
    campaign.power_idle(power_window_seconds);
  }
  return campaign;
}

std::vector<std::string> CampaignRequest::to_lines() const {
  std::vector<std::string> lines;
  lines.push_back("begin " + name);
  lines.push_back("client " + client);
  lines.push_back("priority " + std::to_string(priority));
  if (!chips.empty()) {
    std::string value;
    for (const auto chip : chips) {
      if (!value.empty()) {
        value += ',';
      }
      value += lowercase(soc::to_string(chip));
    }
    lines.push_back("chips " + value);
  }
  if (!impls.empty()) {
    std::string value;
    for (const auto impl : impls) {
      if (!value.empty()) {
        value += ',';
      }
      value += lowercase(soc::to_string(impl));
    }
    lines.push_back("impls " + value);
  }
  if (!sizes.empty()) {
    lines.push_back("sizes " + join_sizes(sizes));
  }
  lines.push_back("repetitions " + std::to_string(repetitions));
  lines.push_back("seed " + std::to_string(matrix_seed));
  lines.push_back("verify-max " + std::to_string(verify_n_max));
  if (functional_n_max.has_value()) {
    lines.push_back("functional-max " + std::to_string(*functional_n_max));
  }
  if (!stream_threads.empty()) {
    lines.push_back("stream " + join_ints(stream_threads) + ' ' +
                    std::to_string(stream_repetitions) + ' ' +
                    std::to_string(stream_elements));
  }
  if (gpu_stream) {
    lines.push_back("gpu-stream " + std::to_string(gpu_stream_repetitions) +
                    ' ' + std::to_string(gpu_stream_elements));
  }
  if (!precision_sizes.empty()) {
    lines.push_back("precision " + join_sizes(precision_sizes) + ' ' +
                    std::to_string(precision_seed));
  }
  if (!ane_sizes.empty()) {
    lines.push_back("ane " + join_sizes(ane_sizes) + ' ' +
                    std::string(ane_functional ? "functional" : "model"));
  }
  if (!fp64emu_sizes.empty()) {
    lines.push_back("fp64emu " + join_sizes(fp64emu_sizes) + ' ' +
                    std::to_string(fp64emu_seed));
  }
  if (!sme_sizes.empty()) {
    lines.push_back("sme " + join_sizes(sme_sizes) + ' ' +
                    std::to_string(sme_seed));
  }
  if (power_idle) {
    std::ostringstream power;
    // max_digits10 so the window survives the text round trip exactly.
    power << "power " << std::setprecision(17) << power_window_seconds;
    lines.push_back(power.str());
  }
  lines.push_back("workers " + std::to_string(workers));
  lines.push_back("shards " + std::to_string(shards));
  if (deadline_ms != 0) {
    lines.push_back("deadline " + std::to_string(deadline_ms));
  }
  lines.push_back("retries " + std::to_string(shard_retries));
  lines.push_back("run");
  return lines;
}

std::string plan_key(const CampaignRequest& request) {
  // Expansion depends on every to_lines() line EXCEPT identity and
  // scheduling: to_campaign() never reads name/client/priority or
  // workers/shards/deadline/retries, so requests differing only there share
  // a compiled plan (that sharing is the point of the cache).
  static constexpr const char* kSkipPrefixes[] = {
      "begin ",   "client ",   "priority ", "workers ",
      "shards ",  "deadline ", "retries ",
  };
  std::string key;
  for (const std::string& line : request.to_lines()) {
    if (line == "run") {
      continue;
    }
    bool skip = false;
    for (const char* prefix : kSkipPrefixes) {
      if (line.rfind(prefix, 0) == 0) {
        skip = true;
        break;
      }
    }
    if (skip) {
      continue;
    }
    key += line;
    key += '\n';
  }
  return key;
}

std::optional<ProtocolError> RequestBuilder::begin(const std::string& name) {
  if (open_) {
    return ProtocolError{
        "bad-state",
        "nested begin (finish the open request with 'run' or 'abort')"};
  }
  if (!name.empty() && !valid_campaign_name(name)) {
    // The name becomes part of shard-store file paths; never let a client
    // smuggle path separators (or an unprintable mess) into the filesystem.
    return ProtocolError{
        "bad-name",
        "invalid campaign name (use [A-Za-z0-9._-], at most 64 chars)"};
  }
  request_ = CampaignRequest{};
  if (!name.empty()) {
    request_.name = name;
  }
  open_ = true;
  return std::nullopt;
}

namespace {

/// The setter grammar proper; returns the error message for a bad line.
/// apply() wraps every message in the "bad-directive" protocol code.
std::optional<std::string> apply_setter(CampaignRequest& request_,
                                        const std::string& line) {
  const std::vector<std::string> words = split_words(line);
  if (words.empty()) {
    return std::nullopt;  // blank lines are ignored
  }
  const std::string& directive = words[0];
  const auto arg = [&](std::size_t i) -> const std::string& {
    static const std::string kEmpty;
    return i < words.size() ? words[i] : kEmpty;
  };
  const auto require_u64 = [&](std::size_t i,
                               std::uint64_t& value) -> bool {
    return parse_u64_token(arg(i), value);
  };

  std::uint64_t u64 = 0;
  if (directive == "chips") {
    std::vector<soc::ChipModel> chips;
    for (const std::string& part : split_csv(arg(1))) {
      try {
        chips.push_back(soc::chip_model_from_string(part));
      } catch (const util::Error&) {
        return "unknown chip: " + part;
      }
    }
    if (chips.empty() || !distinct_values(chips)) {
      return "chips needs a comma-separated list of distinct chips (m1,m2,...)";
    }
    request_.chips = std::move(chips);
  } else if (directive == "impls") {
    std::vector<soc::GemmImpl> impls;
    for (const std::string& part : split_csv(arg(1))) {
      try {
        impls.push_back(gemm_impl_from_string(part));
      } catch (const util::Error&) {
        return "unknown implementation: " + part;
      }
    }
    if (impls.empty() || !distinct_values(impls)) {
      return "impls needs a comma-separated list of distinct implementations "
             "(cpu-single,gpu-mps,...)";
    }
    request_.impls = std::move(impls);
  } else if (directive == "sizes") {
    if (!parse_list(arg(1), request_.sizes)) {
      return "sizes needs a comma-separated list of distinct matrix sizes";
    }
  } else if (directive == "repetitions") {
    if (!require_u64(1, u64) || u64 == 0 || u64 > 1000) {
      return "repetitions needs an integer in [1, 1000]";
    }
    request_.repetitions = static_cast<int>(u64);
  } else if (directive == "seed") {
    if (!require_u64(1, u64)) {
      return "seed needs an unsigned integer";
    }
    request_.matrix_seed = u64;
  } else if (directive == "verify-max") {
    if (!require_u64(1, u64)) {
      return "verify-max needs an unsigned integer";
    }
    request_.verify_n_max = static_cast<std::size_t>(u64);
  } else if (directive == "functional-max") {
    if (!require_u64(1, u64)) {
      return "functional-max needs an unsigned integer";
    }
    request_.functional_n_max = static_cast<std::size_t>(u64);
  } else if (directive == "stream") {
    if (!parse_list(arg(1), request_.stream_threads)) {
      return "stream needs a comma-separated list of distinct thread counts";
    }
    if (words.size() > 2) {
      if (!require_u64(2, u64) || u64 == 0) {
        return "stream repetitions must be a positive integer";
      }
      request_.stream_repetitions = static_cast<int>(u64);
    }
    if (words.size() > 3) {
      if (!require_u64(3, u64)) {
        return "stream elements must be an unsigned integer";
      }
      request_.stream_elements = static_cast<std::size_t>(u64);
    }
  } else if (directive == "gpu-stream") {
    request_.gpu_stream = true;
    if (words.size() > 1) {
      if (!require_u64(1, u64) || u64 == 0) {
        return "gpu-stream repetitions must be a positive integer";
      }
      request_.gpu_stream_repetitions = static_cast<int>(u64);
    }
    if (words.size() > 2) {
      if (!require_u64(2, u64)) {
        return "gpu-stream elements must be an unsigned integer";
      }
      request_.gpu_stream_elements = static_cast<std::size_t>(u64);
    }
  } else if (directive == "precision") {
    if (!parse_list(arg(1), request_.precision_sizes)) {
      return "precision needs a comma-separated list of distinct matrix sizes";
    }
    if (words.size() > 2) {
      if (!require_u64(2, u64)) {
        return "precision seed must be an unsigned integer";
      }
      request_.precision_seed = u64;
    }
  } else if (directive == "ane") {
    if (!parse_list(arg(1), request_.ane_sizes)) {
      return "ane needs a comma-separated list of distinct matrix sizes";
    }
    if (words.size() > 2) {
      const std::string mode = lowercase(arg(2));
      if (mode == "functional") {
        request_.ane_functional = true;
      } else if (mode == "model") {
        request_.ane_functional = false;
      } else {
        return "ane mode must be 'functional' or 'model'";
      }
    }
  } else if (directive == "fp64emu") {
    if (!parse_list(arg(1), request_.fp64emu_sizes)) {
      return "fp64emu needs a comma-separated list of distinct matrix sizes";
    }
    if (words.size() > 2) {
      if (!require_u64(2, u64)) {
        return "fp64emu seed must be an unsigned integer";
      }
      request_.fp64emu_seed = u64;
    }
  } else if (directive == "sme") {
    if (!parse_list(arg(1), request_.sme_sizes)) {
      return "sme needs a comma-separated list of distinct matrix sizes";
    }
    if (words.size() > 2) {
      if (!require_u64(2, u64)) {
        return "sme seed must be an unsigned integer";
      }
      request_.sme_seed = u64;
    }
  } else if (directive == "power") {
    request_.power_idle = true;
    if (words.size() > 1) {
      double window = 0.0;
      if (!parse_double_token(arg(1), window) || window <= 0.0) {
        return "power window must be a positive number of seconds";
      }
      request_.power_window_seconds = window;
    }
  } else if (directive == "workers") {
    if (!require_u64(1, u64) || u64 == 0 || u64 > 256) {
      return "workers needs an integer in [1, 256]";
    }
    request_.workers = static_cast<std::size_t>(u64);
  } else if (directive == "shards") {
    if (!require_u64(1, u64) || u64 == 0 || u64 > 64) {
      return "shards needs an integer in [1, 64]";
    }
    request_.shards = static_cast<std::size_t>(u64);
  } else if (directive == "deadline") {
    // 0 clears the deadline, matching the field default; the ceiling only
    // guards against a typo'd token overflowing downstream ns arithmetic.
    if (!require_u64(1, u64) || u64 > 86'400'000) {
      return "deadline needs a millisecond budget in [0, 86400000]";
    }
    request_.deadline_ms = u64;
  } else if (directive == "retries") {
    if (!require_u64(1, u64) || u64 > 16) {
      return "retries needs an integer in [0, 16]";
    }
    request_.shard_retries = static_cast<std::size_t>(u64);
  } else if (directive == "priority") {
    if (!require_u64(1, u64) || u64 > 100) {
      return "priority needs an integer in [0, 100]";
    }
    request_.priority = static_cast<int>(u64);
  } else if (directive == "client") {
    // Client ids key quotas and stats lines; same charset as names.
    if (!valid_campaign_name(arg(1))) {
      return "client needs an id of [A-Za-z0-9._-], at most 64 chars";
    }
    request_.client = arg(1);
  } else {
    return "unknown directive: " + directive;
  }
  return std::nullopt;
}

}  // namespace

std::optional<ProtocolError> RequestBuilder::apply(const std::string& line) {
  if (!open_) {
    return ProtocolError{"bad-state", "no open request (send 'begin' first)"};
  }
  if (auto message = apply_setter(request_, line)) {
    return ProtocolError{"bad-directive", std::move(*message)};
  }
  return std::nullopt;
}

CampaignRequest RequestBuilder::take() {
  open_ = false;
  return std::move(request_);
}

void RequestBuilder::discard() {
  open_ = false;
  request_ = CampaignRequest{};
}

std::optional<CampaignRequest> parse_request_lines(
    const std::vector<std::string>& lines, std::string* error) {
  RequestBuilder builder;
  for (const std::string& line : lines) {
    const std::vector<std::string> words = split_words(line);
    if (words.empty()) {
      continue;
    }
    if (words[0] == "begin") {
      if (const auto begin_error =
              builder.begin(words.size() > 1 ? words[1] : "")) {
        if (error != nullptr) {
          *error = begin_error->message;
        }
        return std::nullopt;
      }
      continue;
    }
    if (words[0] == "run") {
      if (!builder.open()) {
        if (error != nullptr) {
          *error = "run without begin";
        }
        return std::nullopt;
      }
      return builder.take();
    }
    if (const auto line_error = builder.apply(line)) {
      if (error != nullptr) {
        *error = line_error->message;
      }
      return std::nullopt;
    }
  }
  if (error != nullptr) {
    *error = "request block never reached 'run'";
  }
  return std::nullopt;
}

std::string encode_follow_cursor(std::uint64_t campaign_id,
                                 std::uint64_t position) {
  std::string body = "aof1.";
  body += util::to_hex_u64(campaign_id);
  body += '.';
  body += util::to_hex_u64(position);
  return body + '.' +
         util::to_hex_u64(
             orchestrator::store_digest(body.data(), body.size()));
}

std::optional<FollowCursor> decode_follow_cursor(const std::string& token) {
  // aof1.<campaign-id>.<position>.<digest>
  const std::size_t first = token.find('.');
  if (first == std::string::npos || token.substr(0, first) != "aof1") {
    return std::nullopt;
  }
  const std::size_t second = token.find('.', first + 1);
  const std::size_t third =
      second == std::string::npos ? second : token.find('.', second + 1);
  if (third == std::string::npos ||
      token.find('.', third + 1) != std::string::npos) {
    return std::nullopt;
  }
  std::uint64_t digest = 0;
  if (!util::parse_hex_u64(token.substr(third + 1), digest) ||
      digest != orchestrator::store_digest(token.data(), third)) {
    return std::nullopt;
  }
  FollowCursor cursor;
  if (!util::parse_hex_u64(token.substr(first + 1, second - first - 1),
                           cursor.campaign_id) ||
      !util::parse_hex_u64(token.substr(second + 1, third - second - 1),
                           cursor.position)) {
    return std::nullopt;
  }
  return cursor;
}

}  // namespace ao::service
