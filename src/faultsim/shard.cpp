#include "faultsim/shard.hpp"

#include <signal.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

namespace motsim::shard {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::Assign: return "assign";
    case MsgType::Shutdown: return "shutdown";
    case MsgType::FaultStart: return "fault-start";
    case MsgType::FaultResult: return "fault-result";
    case MsgType::GroupDone: return "group-done";
    case MsgType::Heartbeat: return "heartbeat";
    case MsgType::Hello: return "hello";
    case MsgType::Welcome: return "welcome";
    case MsgType::Reject: return "reject";
  }
  return "?";
}

std::string encode_assign(std::span<const std::size_t> fault_indices) {
  std::string out;
  for (const std::size_t k : fault_indices) {
    if (!out.empty()) out.push_back(' ');
    out += std::to_string(k);
  }
  return out;
}

namespace {

bool parse_size(std::string_view token, std::size_t& out) {
  if (token.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

}  // namespace

bool decode_assign(std::string_view payload, std::vector<std::size_t>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos < payload.size()) {
    const std::size_t space = payload.find(' ', pos);
    const std::size_t end = space == std::string_view::npos ? payload.size() : space;
    std::size_t value = 0;
    if (!parse_size(payload.substr(pos, end - pos), value)) return false;
    out.push_back(value);
    pos = end == payload.size() ? end : end + 1;
    // A trailing or doubled separator would produce an empty token, which
    // parse_size rejects on the next round.
    if (pos == payload.size() && space != std::string_view::npos) return false;
  }
  return !out.empty();
}

std::string encode_fault_start(std::size_t fault_index) {
  return std::to_string(fault_index);
}

bool decode_fault_start(std::string_view payload, std::size_t& out) {
  return parse_size(payload, out);
}

namespace {

bool parse_u64(std::string_view token, std::uint64_t& out) {
  if (token.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

/// Splits on single spaces; false on empty tokens (doubled/leading/trailing
/// separators) or the wrong token count.
bool split_tokens(std::string_view payload, std::size_t count,
                  std::vector<std::string_view>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos <= payload.size()) {
    const std::size_t space = payload.find(' ', pos);
    const std::size_t end =
        space == std::string_view::npos ? payload.size() : space;
    if (end == pos) return false;
    out.push_back(payload.substr(pos, end - pos));
    if (space == std::string_view::npos) break;
    pos = space + 1;
    if (pos > payload.size()) return false;
  }
  return out.size() == count;
}

}  // namespace

std::string encode_hello(const JournalMeta& meta) {
  std::string out;
  out += std::to_string(meta.num_faults);
  out += ' ';
  out += std::to_string(meta.test_length);
  out += ' ';
  out += std::to_string(meta.test_hash);
  out += ' ';
  out += std::to_string(meta.options_hash);
  out += ' ';
  out += meta.baseline ? '1' : '0';
  out += ' ';
  out += meta.circuit;
  return out;
}

bool decode_hello(std::string_view payload, JournalMeta& out) {
  std::vector<std::string_view> tokens;
  if (!split_tokens(payload, 6, tokens)) return false;
  JournalMeta meta;
  if (!parse_u64(tokens[0], meta.num_faults)) return false;
  if (!parse_u64(tokens[1], meta.test_length)) return false;
  if (!parse_u64(tokens[2], meta.test_hash)) return false;
  if (!parse_u64(tokens[3], meta.options_hash)) return false;
  if (tokens[4] == "1") {
    meta.baseline = true;
  } else if (tokens[4] == "0") {
    meta.baseline = false;
  } else {
    return false;
  }
  meta.circuit = std::string(tokens[5]);
  out = meta;
  return true;
}

std::string encode_welcome(const WelcomeInfo& info) {
  return std::to_string(info.slot) + " " + std::to_string(info.incarnation) +
         " " + std::to_string(info.heartbeat_period_ms);
}

bool decode_welcome(std::string_view payload, WelcomeInfo& out) {
  std::vector<std::string_view> tokens;
  if (!split_tokens(payload, 3, tokens)) return false;
  WelcomeInfo info;
  if (!parse_size(tokens[0], info.slot)) return false;
  if (!parse_size(tokens[1], info.incarnation)) return false;
  if (!parse_u64(tokens[2], info.heartbeat_period_ms)) return false;
  out = info;
  return true;
}

std::vector<std::vector<std::size_t>> plan_fault_groups(
    std::span<const std::size_t> fault_indices, std::size_t workers,
    std::size_t group_size) {
  std::vector<std::vector<std::size_t>> groups;
  if (fault_indices.empty()) return groups;
  if (group_size == 0) {
    // ~8 claimable groups per worker keeps stealing granular without
    // drowning the pipe in assignment round trips; MOT cost per fault is
    // wildly skewed, so small groups matter more than batching.
    const std::size_t w = std::max<std::size_t>(workers, 1);
    group_size = std::clamp<std::size_t>(fault_indices.size() / (w * 8),
                                         std::size_t{1}, std::size_t{32});
  }
  for (std::size_t begin = 0; begin < fault_indices.size();
       begin += group_size) {
    const std::size_t end =
        std::min(begin + group_size, fault_indices.size());
    groups.emplace_back(fault_indices.begin() + begin,
                        fault_indices.begin() + end);
  }
  return groups;
}

bool chaos_should_kill(std::uint64_t seed, std::size_t fault_index,
                       std::size_t incarnation, std::uint64_t permille) {
  if (permille == 0) return false;
  std::uint64_t z = seed ^ (0x9e3779b97f4a7c15ull * (fault_index + 1)) ^
                    (0xc2b2ae3d27d4eb4full * (incarnation + 1));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z % 1000 < permille;
}

namespace {

/// Calls `beat` every `period_ms` on its own thread for as long as it lives
/// (0 = no thread), until a beat fails. It sleeps until the next beat is due
/// instead of polling a short tick, and the destructor interrupts that wait
/// and joins — on every exit path of the serve loop, exceptions included.
class HeartbeatThread {
 public:
  HeartbeatThread(std::uint64_t period_ms, std::function<int()> beat) {
    if (period_ms == 0) return;
    thread_ = std::thread([this, period_ms, beat = std::move(beat)] {
      const auto period = std::chrono::milliseconds(period_ms);
      std::unique_lock<std::mutex> lk(mu_);
      auto next = std::chrono::steady_clock::now() + period;
      while (!cv_.wait_until(lk, next, [&] { return stop_; })) {
        if (beat() != 0) break;
        next = std::chrono::steady_clock::now() + period;
      }
    });
  }
  ~HeartbeatThread() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  HeartbeatThread(const HeartbeatThread&) = delete;
  HeartbeatThread& operator=(const HeartbeatThread&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

}  // namespace

ServeEnd serve_assignments(netio::ByteChannel& chan,
                           subprocess::FrameReader& reader,
                           const WorkerLane& lane, const ServeOptions& opts,
                           const ResultSink& on_result) {
  namespace sp = subprocess;
  using Feed = sp::FrameReader::FeedStatus;

  std::mutex write_mu;
  auto send = [&](MsgType type, std::string_view payload) {
    std::lock_guard<std::mutex> lk(write_mu);
    return sp::write_frame(chan, static_cast<std::uint8_t>(type), payload);
  };

  const HeartbeatThread heartbeat(
      opts.heartbeat_period_ms, [&] { return send(MsgType::Heartbeat, ""); });

  auto cancelled = [&] {
    return opts.cancel != nullptr && opts.cancel->cancelled();
  };
  // Without a cancel token there is nothing to wake up for while idle.
  const int idle_poll_ms = opts.cancel != nullptr ? 200 : -1;
  // Blocks until a frame arrives; false = link gone (or cancelled).
  auto next_frame = [&](std::uint8_t& type, std::string& payload) {
    while (true) {
      if (reader.next(type, payload)) return true;
      if (reader.corrupt() || cancelled()) return false;
      const int ready = sp::poll_readable(chan.poll_fd(), idle_poll_ms);
      if (ready < 0) return false;
      if (ready == 0) continue;
      int err = 0;
      const Feed fs = reader.feed(err);
      if (fs == Feed::Eof || fs == Feed::Error) return false;
    }
  };
  // Non-blocking look at the command stream between faults: a buffered
  // Shutdown and a dead link are different verdicts.
  auto peek_control = [&]() -> std::optional<ServeEnd> {
    while (true) {
      std::uint8_t type = 0;
      std::string payload;
      if (reader.next(type, payload)) {
        if (static_cast<MsgType>(type) == MsgType::Shutdown) {
          return ServeEnd::Shutdown;
        }
        continue;  // unexpected mid-group frame; ignore
      }
      if (reader.corrupt()) return ServeEnd::Lost;
      if (sp::poll_readable(chan.poll_fd(), 0) <= 0) return std::nullopt;
      int err = 0;
      const Feed fs = reader.feed(err);
      if (fs == Feed::Eof || fs == Feed::Error) return ServeEnd::Lost;
      if (fs == Feed::WouldBlock) return std::nullopt;
    }
  };

  // Runs one Assign payload; nullopt = group done, keep serving.
  auto serve_group = [&](std::string_view payload) -> std::optional<ServeEnd> {
    std::vector<std::size_t> group;
    if (!decode_assign(payload, group)) return ServeEnd::Lost;
    for (const std::size_t k : group) {
      if (cancelled()) return ServeEnd::Cancelled;
      if (const auto end = peek_control()) return end;
      if (send(MsgType::FaultStart, encode_fault_start(k)) != 0) {
        return ServeEnd::Lost;
      }
      // Chaos: die exactly where a crashing engine would — fault announced,
      // result not yet produced.
      if (k == opts.chaos_abort_fault ||
          chaos_should_kill(opts.chaos_kill_seed, k, opts.incarnation,
                            opts.chaos_kill_permille)) {
        if (opts.die_hard) ::raise(SIGKILL);
        return ServeEnd::ChaosKilled;
      }
      const std::size_t one[] = {k};
      const std::vector<MotBatchItem> out =
          lane.runner.run(lane.test, lane.good, lane.faults, one);
      const std::string record =
          encode_journal_record(out[0], lane.run_baseline);
      on_result(out[0], record);
      if (send(MsgType::FaultResult, record) != 0) return ServeEnd::Lost;
    }
    if (send(MsgType::GroupDone, "") != 0) return ServeEnd::Lost;
    return std::nullopt;
  };

  while (true) {
    std::uint8_t type = 0;
    std::string payload;
    if (!next_frame(type, payload)) {
      return cancelled() ? ServeEnd::Cancelled : ServeEnd::Lost;
    }
    const auto mt = static_cast<MsgType>(type);
    if (mt == MsgType::Shutdown) return ServeEnd::Shutdown;
    if (mt != MsgType::Assign) continue;  // nothing else is sent mid-serve
    if (const auto end = serve_group(payload)) return *end;
  }
}

}  // namespace motsim::shard
