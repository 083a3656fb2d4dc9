// The `serve` workload: the daemon as csr_serve configures it (batch width 8,
// coalescing on, a journal, 1 event thread, 2 compute threads, 1 sweep
// thread per query), run in this process on a loopback port, and one client
// thread with 4 keep-alive, pipelined connections playing a seeded corpus of
// distinct bodies:
//
//   * 2/3 compute requests: cells never asked before;
//   * 1/6 cell-cache hits: an earlier compute query under a new spelling;
//   * 1/6 memo hits: a byte-identical repeat of an earlier cell-hit body.
//
// Phase 1 is open loop at the fixed rate given by --serve-rate (well below
// the server's capacity even on a slowed host), latency timed from each
// request's scheduled arrival. Phase 2 is closed loop on the same connections, one
// request outstanding per connection, for capacity. Every 200 body must be
// byte-identical to the offline run_sweep export of its query.
//
// The traced run adds a socket-free replay of the same bodies through
// parse_query, try_fast and execute on a fresh SweepService, and replays
// that service's journal records through ResultJournal.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <deque>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "common.hpp"
#include "driver/config.hpp"
#include "driver/export.hpp"
#include "serve/config.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "spans.hpp"
#include "support/journal.hpp"

namespace perfbench {
namespace {

constexpr int kConnections = 4;
constexpr double kPhase1Share = 0.6;  ///< of --seconds; phase 2 gets the rest
constexpr double kTimeoutSeconds = 20;  ///< a response later than this fails
constexpr std::size_t kMinPhase1Requests = 1000;  ///< >= 10 samples beyond p99
/// Requests between a body and a later cell-hit or memo request that reuses
/// it, so the earlier answer has landed in the cache or memo.
constexpr std::size_t kReuseDistance = 32;
constexpr int kSetupRounds = 15;
constexpr std::size_t kWindows = 8;  ///< phase-2 throughput windows

enum class Kind { kCompute, kCellHit, kMemo };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCompute: return "compute";
    case Kind::kCellHit: return "cell_hit";
    case Kind::kMemo: return "memo";
  }
  return "?";
}

struct Request {
  Kind kind = Kind::kCompute;
  std::string body;
  std::size_t query = 0;  ///< index of the compute query it asks
  std::size_t cells = 0;
};

/// One compute query: a table benchmark at a trip count under one of the
/// transform sets below.
struct QuerySpec {
  std::string benchmark;
  std::int64_t n = 0;
  int set = 0;
};

/// Transform sets of the compute queries, three cells each and of similar
/// cost; no two sets share a (transform, factor) pair, so no two queries
/// share a cell.
constexpr int kSets = 4;
constexpr const char* kTransforms[kSets][3] = {
    {"retimed_csr", "unfolded_csr", "retimed_unfolded_csr"},
    {"retimed", "unfolded", "retimed_unfolded"},
    {"original", "unfolded_csr", "retimed_unfolded_csr"},
    {"unfolded", "retimed_unfolded", "unfolded_csr"},
};
constexpr int kFactor[kSets] = {2, 3, 3, 4};
constexpr std::size_t kCellsPerQuery = 3;
constexpr std::int64_t kMinTrip = 64;
constexpr std::int64_t kMaxTrip = 767;

/// The body of `spec`; `variant` 0 is the canonical spelling, each other
/// value a distinct whitespace spelling of the same JSON.
std::string render_body(const QuerySpec& spec, std::uint64_t variant) {
  std::string out;
  int slot = 0;
  const auto sep = [&](const char* text) {
    out += text;
    if ((variant >> slot++) & 1U) out += ' ';
  };
  out += '{';
  sep("");
  out += "\"benchmarks\":";
  sep("");
  out += "[\"" + spec.benchmark + "\"],";
  sep("");
  out += "\"trip_counts\":";
  sep("");
  out += "[" + std::to_string(spec.n) + "],";
  sep("");
  out += "\"transforms\":";
  sep("");
  out += '[';
  for (std::size_t i = 0; i < std::size(kTransforms[spec.set]); ++i) {
    if (i > 0) sep(",");
    out += '"';
    out += kTransforms[spec.set][i];
    out += '"';
  }
  out += "],";
  sep("");
  out += "\"factors\":";
  sep("");
  out += "[" + std::to_string(kFactor[spec.set]) + "]}";
  return out;
}

/// The seeded request stream. Deterministic: request i depends only on the
/// seed and i.
class Corpus {
 public:
  /// Queries come in blocks that ask every (benchmark, transform set) pair
  /// once, in shuffled order and each at a fresh trip count, so every prefix
  /// of the stream has the same mix whatever the seed.
  explicit Corpus(std::uint64_t seed) : rng_(seed ^ 0x7365727665ULL) {
    std::vector<QuerySpec> pairs;
    for (const auto& info : csr::benchmarks::table_benchmarks()) {
      for (int set = 0; set < kSets; ++set) pairs.push_back({info.name, 0, set});
    }
    std::vector<std::vector<std::int64_t>> trips(pairs.size());
    for (auto& list : trips) {
      for (std::int64_t n = kMinTrip; n <= kMaxTrip; ++n) list.push_back(n);
      rng_.shuffle(list);
    }
    std::vector<std::size_t> order(pairs.size());
    for (std::size_t block = 0; block < trips.front().size(); ++block) {
      for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
      rng_.shuffle(order);
      for (const std::size_t j : order) {
        pool_.push_back({pairs[j].benchmark, trips[j][block], pairs[j].set});
      }
    }
  }

  const Request& at(std::size_t i) {
    while (requests_.size() <= i) generate();
    return requests_[i];
  }
  [[nodiscard]] const std::vector<QuerySpec>& queries() const { return queries_; }

 private:
  void generate() {
    const std::size_t i = requests_.size();
    // Kinds come in shuffled blocks of six (four compute, one cell hit, one
    // memo), so every prefix of the stream has the same mix.
    if (i % 6 == 0) {
      kinds_ = {Kind::kCompute, Kind::kCompute, Kind::kCompute,
                Kind::kCompute, Kind::kCellHit, Kind::kMemo};
      rng_.shuffle(kinds_);
    }
    Kind kind = kinds_[i % 6];
    // Only bodies sent kReuseDistance requests ago are reused: their answer
    // has landed in the cell cache (or the memo) by now. Until such bodies
    // exist, the stream computes.
    const std::size_t ready_queries = sent_before(query_sent_at_, i);
    const std::size_t ready_hits = sent_before(cell_hit_sent_at_, i);
    if (kind == Kind::kMemo && ready_hits == 0) kind = Kind::kCellHit;
    if (kind == Kind::kCellHit && ready_queries == 0) kind = Kind::kCompute;
    Request req;
    if (kind == Kind::kMemo) {
      req = requests_[cell_hit_sent_at_[rng_.next() % ready_hits]];
      req.kind = Kind::kMemo;
    } else if (kind == Kind::kCellHit) {
      req.kind = Kind::kCellHit;
      req.query = rng_.next() % ready_queries;
      req.body = render_body(queries_[req.query], ++variants_[req.query]);
      cell_hit_sent_at_.push_back(i);
    } else {
      if (queries_.size() == pool_.size()) throw std::runtime_error("serve corpus exhausted");
      req.kind = Kind::kCompute;
      req.query = queries_.size();
      queries_.push_back(pool_[queries_.size()]);
      variants_.push_back(0);
      query_sent_at_.push_back(i);
      req.body = render_body(queries_.back(), 0);
    }
    req.cells = kCellsPerQuery;
    requests_.push_back(std::move(req));
  }

  /// How many of the ascending request indices in `sent` lie at least
  /// kReuseDistance before request `i`.
  static std::size_t sent_before(const std::vector<std::size_t>& sent, std::size_t i) {
    if (i < kReuseDistance) return 0;
    return static_cast<std::size_t>(
        std::upper_bound(sent.begin(), sent.end(), i - kReuseDistance) - sent.begin());
  }

  Rng rng_;
  std::vector<QuerySpec> pool_;
  std::vector<QuerySpec> queries_;
  std::vector<std::uint64_t> variants_;
  std::vector<std::size_t> query_sent_at_;     ///< request that first asked each query
  std::vector<std::size_t> cell_hit_sent_at_;  ///< requests of kind kCellHit
  std::vector<Request> requests_;
  std::vector<Kind> kinds_;
};

// --- loopback client ---------------------------------------------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Blocking GET with Connection: close; returns the body ("" on failure).
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = connect_loopback(port);
  if (fd < 0) return "";
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return "";
  }
  std::string response;
  char buf[65536];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) break;
    response.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  const std::size_t head = response.find("\r\n\r\n");
  return head == std::string::npos ? "" : response.substr(head + 4);
}

/// Prometheus exposition value of `name` (unlabelled series), 0 if absent.
double metric_value(const std::string& exposition, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = exposition.find(name, pos)) != std::string::npos) {
    const bool line_start = pos == 0 || exposition[pos - 1] == '\n';
    const std::size_t after = pos + name.size();
    if (line_start && after < exposition.size() && exposition[after] == ' ') {
      return std::strtod(exposition.c_str() + after + 1, nullptr);
    }
    pos = after;
  }
  return 0;
}

struct Completion {
  std::size_t request = 0;
  int phase = 0;
  int status = 0;        ///< 0 = connect failure, timeout or broken connection
  double latency = 0;    ///< seconds from scheduled arrival (phase 1) or send
  double late = 0;       ///< send time minus scheduled arrival
  double done = 0;       ///< completion time, seconds since the client started
  std::string body;
};

class Client {
 public:
  Client(std::uint16_t port, Corpus& corpus) : port_(port), corpus_(corpus) {}
  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Phase 1: requests [0, count) at `rate` per second, open loop.
  void open_loop(std::size_t count, double rate) {
    const double start = now();
    std::size_t next = 0;
    while (next < count || outstanding() > 0) {
      const double t = now();
      while (next < count && start + static_cast<double>(next) / rate <= t) {
        send(least_loaded(), next, 1, start + static_cast<double>(next) / rate);
        ++next_request_;
        ++next;
      }
      const double wake =
          next < count ? start + static_cast<double>(next) / rate : t + 0.05;
      pump(std::max(0.0, wake - now()));
    }
  }

  /// Phase 2: one request outstanding per connection for `seconds`.
  void closed_loop(double seconds) {
    const double start = now();
    const double end = start + seconds;
    for (;;) {
      const double t = now();
      if (t < end) {
        for (int c = 0; c < kConnections; ++c) {
          if (conns_[c].pending.empty()) {
            send(c, next_request_, 2, t);
            ++next_request_;
          }
        }
      } else if (outstanding() == 0) {
        break;
      }
      pump(t < end ? std::min(0.01, end - t) : 0.05);
    }
    window_start_ = start;
    window_end_ = end;
  }

  [[nodiscard]] const std::vector<Completion>& completions() const { return done_; }
  [[nodiscard]] std::size_t requests_issued() const { return next_request_; }
  [[nodiscard]] double window_start() const { return window_start_; }
  [[nodiscard]] double window_end() const { return window_end_; }

 private:
  struct Pending {
    std::size_t request;
    int phase;
    double scheduled;
    double sent;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    std::string in;
    std::deque<Pending> pending;
  };

  double now() const { return seconds_since(origin_); }

  /// The connection with the fewest requests outstanding, so a cheap
  /// request is not queued behind a compute request another one is free of.
  int least_loaded() const {
    int best = 0;
    for (int i = 1; i < kConnections; ++i) {
      if (conns_[i].pending.size() < conns_[best].pending.size()) best = i;
    }
    return best;
  }

  std::size_t outstanding() const {
    std::size_t total = 0;
    for (const Conn& c : conns_) total += c.pending.size();
    return total;
  }

  void send(int index, std::size_t request, int phase, double scheduled) {
    Conn& c = conns_[index];
    const double t = now();
    if (c.fd < 0) {
      c.fd = connect_loopback(port_);
      if (c.fd < 0) {
        done_.push_back({request, phase, 0, kTimeoutSeconds, t - scheduled, t, {}});
        return;
      }
      c.in.clear();
      c.out.clear();
    }
    const std::string& body = corpus_.at(request).body;
    c.out += "POST /v1/sweep HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
             "Content-Length: " +
             std::to_string(body.size()) + "\r\n\r\n" + body;
    c.pending.push_back({request, phase, scheduled, t});
    flush(c);
  }

  void flush(Conn& c) {
    while (!c.out.empty() && c.fd >= 0) {
      const ssize_t wrote = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
      if (wrote > 0) {
        c.out.erase(0, static_cast<std::size_t>(wrote));
      } else if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (wrote < 0 && errno == EINTR) {
        continue;
      } else {
        fail(c);
        return;
      }
    }
  }

  /// Fails every request outstanding on `c` and closes it.
  void fail(Conn& c) {
    const double t = now();
    for (const Pending& p : c.pending) {
      done_.push_back({p.request, p.phase, 0, kTimeoutSeconds, p.sent - p.scheduled, t, {}});
    }
    c.pending.clear();
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
    c.in.clear();
    c.out.clear();
  }

  /// Waits up to `timeout` seconds for socket events and consumes them.
  void pump(double timeout) {
    pollfd fds[kConnections];
    for (int i = 0; i < kConnections; ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    timespec wait{};
    wait.tv_sec = static_cast<time_t>(timeout);
    wait.tv_nsec = static_cast<long>((timeout - static_cast<double>(wait.tv_sec)) * 1e9);
    if (::ppoll(fds, kConnections, &wait, nullptr) < 0 && errno != EINTR) return;
    const double t = now();
    for (int i = 0; i < kConnections; ++i) {
      Conn& c = conns_[i];
      if (c.fd < 0) continue;
      if (fds[i].revents & POLLOUT) flush(c);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read(c);
      if (!c.pending.empty() && t - c.pending.front().sent > kTimeoutSeconds) fail(c);
    }
  }

  void read(Conn& c) {
    char buf[65536];
    for (;;) {
      const ssize_t got = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (got > 0) {
        c.in.append(buf, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      parse(c);
      fail(c);  // EOF or error: anything still outstanding is lost
      return;
    }
    parse(c);
  }

  void parse(Conn& c) {
    for (;;) {
      const std::size_t head = c.in.find("\r\n\r\n");
      if (head == std::string::npos || c.pending.empty()) return;
      const std::string headers = c.in.substr(0, head);
      const std::size_t cl = headers.find("Content-Length: ");
      const std::size_t length =
          cl == std::string::npos ? 0 : std::strtoull(headers.c_str() + cl + 16, nullptr, 10);
      if (c.in.size() < head + 4 + length) return;
      const int status = headers.size() > 12 ? std::atoi(headers.c_str() + 9) : 0;
      const Pending p = c.pending.front();
      c.pending.pop_front();
      const double t = now();
      done_.push_back({p.request, p.phase, status, t - p.scheduled, p.sent - p.scheduled, t,
                       c.in.substr(head + 4, length)});
      c.in.erase(0, head + 4 + length);
    }
  }

  std::uint16_t port_;
  Corpus& corpus_;
  Clock::time_point origin_ = Clock::now();
  Conn conns_[kConnections];
  std::vector<Completion> done_;
  std::size_t next_request_ = 0;
  double window_start_ = 0;
  double window_end_ = 0;
};

// --- server life cycle --------------------------------------------------------

csr::serve::ServerConfig server_config(const std::string& journal) {
  csr::serve::ServerConfig config;
  config.port(0)
      .event_threads(1)
      .compute_threads(2)
      .sweep_threads(1)
      .batch_width(8)
      .coalesce(true)
      .journal(journal);
  return config;
}

struct Daemon {
  std::unique_ptr<csr::serve::SweepService> service;
  std::unique_ptr<csr::serve::Server> server;
};

/// Set-up: service construction (journal open) until the port accepts.
Daemon start_daemon(const csr::serve::ServerConfig& config, double* seconds) {
  const auto start = Clock::now();
  Daemon d;
  d.service = std::make_unique<csr::serve::SweepService>(config);
  d.server = std::make_unique<csr::serve::Server>(*d.service, config);
  std::string error;
  if (!d.server->start(&error)) throw std::runtime_error("server start failed: " + error);
  for (;;) {
    const int fd = connect_loopback(d.server->port());
    if (fd >= 0) {
      ::close(fd);
      break;
    }
    if (seconds_since(start) > 30) throw std::runtime_error("server port never accepted");
  }
  *seconds = seconds_since(start);
  return d;
}

/// Offline reference exports, one per compute query, computed like
/// csr_serve --oneshot on a few threads.
std::vector<std::string> offline_exports(const std::vector<QuerySpec>& queries,
                                         std::vector<std::int64_t>* code_sizes) {
  std::vector<std::string> exports(queries.size());
  code_sizes->assign(queries.size(), 0);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < queries.size(); i = next++) {
      csr::serve::QueryResult rejection;
      const auto query = csr::serve::parse_query(render_body(queries[i], 0), &rejection);
      if (!query) continue;
      csr::driver::SweepConfig config;
      config.grid() = query->config.grid();
      config.options().verify = query->config.options().verify;
      const csr::driver::SweepRun run = csr::driver::run_sweep(config);
      exports[i] = csr::driver::to_json(run.results);
      for (const auto& r : run.results) {
        if (r.measured_size > 0) (*code_sizes)[i] += r.measured_size;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return exports;
}

struct Counters {
  double queries = 0, memo_hits = 0, cells = 0, cell_hits = 0, lanes = 0, batches = 0;
};

Counters scrape(std::uint16_t port) {
  const std::string text = http_get(port, "/metrics");
  return {metric_value(text, "csr_serve_queries_total"),
          metric_value(text, "csr_serve_memo_hits_total"),
          metric_value(text, "csr_serve_cells_total"),
          metric_value(text, "csr_serve_cell_cache_hits_total"),
          metric_value(text, "csr_serve_coalesce_lanes_total"),
          metric_value(text, "csr_serve_coalesce_batches_total")};
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The socket-free replay of the traced run (see the file comment).
void socket_free_replay(const Args& args, Corpus& corpus, std::size_t count,
                        const std::vector<std::string>& exports,
                        const std::vector<double>& loopback_p50_ms, Outcome& out) {
  SpanRecorder spans;
  const std::filesystem::path dir = std::filesystem::path(args.work_dir) / "replay";
  std::filesystem::create_directories(dir);
  std::vector<double> memo_fast, compute_exec;
  {
    csr::serve::SweepService service(server_config((dir / "serve.journal").string()));
    for (std::size_t i = 0; i < count; ++i) {
      const Request& req = corpus.at(i);
      const auto id = static_cast<std::int64_t>(i);
      {
        csr::serve::QueryResult rejection;
        const SpanRecorder::Scope span(spans, "serve.parse", id);
        (void)csr::serve::parse_query(req.body, &rejection);
      }
      csr::serve::Query query;
      csr::serve::QueryResult result;
      SpanRecorder::Scope fast(spans, "serve.try_fast", id);
      const bool answered = service.try_fast(req.body, &query, &result);
      const double fast_s = fast.end();
      if (req.kind == Kind::kMemo) memo_fast.push_back(fast_s);
      if (!answered) {
        SpanRecorder::Scope exec(spans, "serve.execute", id);
        result = service.execute(query);
        const double exec_s = exec.end();
        if (req.kind == Kind::kCompute) compute_exec.push_back(exec_s);
      }
      out.check(result.status == 200 && result.body == exports[req.query],
                "socket-free replay of request " + std::to_string(i) +
                    " differs from the offline export");
    }
  }

  // Journal: the run's records appended to a fresh journal, then opened.
  csr::ResultJournal source;
  out.check(source.open((dir / "serve.journal").string()), "open the replay journal");
  const auto records = source.snapshot();
  {
    csr::ResultJournal copy;
    out.check(copy.open((dir / "copy.journal").string()), "create the journal copy");
    for (std::size_t i = 0; i < records.size(); ++i) {
      const SpanRecorder::Scope span(spans, "journal.append", static_cast<std::int64_t>(i));
      copy.append(records[i].first, records[i].second);
    }
  }
  {
    csr::ResultJournal reopened;
    const SpanRecorder::Scope span(spans, "journal.open", 0);
    out.check(reopened.open((dir / "copy.journal").string()), "reopen the journal copy");
  }

  out.add("journal.appends", static_cast<double>(spans.count("journal.append")), "count");
  out.add("journal.append_s", spans.total("journal.append"), "s");
  out.add("journal.replay_s", spans.total("journal.open"), "s");
  out.add("serve.parse_s", spans.total("serve.parse"), "s");
  out.add("serve.try_fast_s", spans.total("serve.try_fast"), "s");
  out.add("serve.execute_s", spans.total("serve.execute"), "s");
  out.add("serve.transport_ms", loopback_p50_ms[0] - median(memo_fast) * 1e3, "ms");
  out.add("serve.queue_ms", loopback_p50_ms[2] - median(compute_exec) * 1e3, "ms");
  if (!args.trace_out.empty() && !spans.write_chrome_json(args.trace_out)) {
    std::cerr << "perfbench: cannot write " << args.trace_out << "\n";
  }
}

}  // namespace

Outcome run_serve(const Args& args) {
  Outcome out;
  const std::size_t phase1 =
      static_cast<std::size_t>(std::lround(args.serve_rate * args.seconds * kPhase1Share));
  const double phase2_seconds = args.seconds * (1 - kPhase1Share);
  out.check(phase1 >= kMinPhase1Requests,
            "phase 1 needs >= " + std::to_string(kMinPhase1Requests) +
                " requests for a p99 with 10 samples beyond it; raise --serve-rate or --seconds");

  std::vector<double> setups;
  Daemon daemon;
  for (int i = 0; i < kSetupRounds; ++i) {
    const std::string journal =
        (std::filesystem::path(args.work_dir) / ("serve-" + std::to_string(i) + ".journal"))
            .string();
    daemon.server.reset();  // the previous round's server goes first
    daemon.service.reset();
    double seconds = 0;
    daemon = start_daemon(server_config(journal), &seconds);
    setups.push_back(seconds);
  }
  const std::uint16_t port = daemon.server->port();

  Corpus corpus(args.seed);
  Client client(port, corpus);
  const Counters before = scrape(port);
  client.open_loop(phase1, args.serve_rate);
  client.closed_loop(phase2_seconds);
  const Counters after = scrape(port);
  daemon.server->stop();

  // Offline reference of every query the run asked.
  const std::size_t issued = client.requests_issued();
  std::size_t query_count = 0;
  for (std::size_t i = 0; i < issued; ++i) {
    query_count = std::max(query_count, corpus.at(i).query + 1);
  }
  const std::vector<QuerySpec> queries(corpus.queries().begin(),
                                       corpus.queries().begin() +
                                           static_cast<std::ptrdiff_t>(query_count));
  std::vector<std::int64_t> code_sizes;
  const std::vector<std::string> exports = offline_exports(queries, &code_sizes);

  // Checks, failure accounting and per-class latency.
  std::vector<double> phase1_ms;
  std::vector<double> class_ms[3];
  std::vector<double> late_ms;
  // Phase 2 throughput is the median over kWindows equal windows, so one
  // host hiccup moves a window, not the figure.
  std::vector<double> window_ok(kWindows, 0), window_cells(kWindows, 0);
  std::size_t phase2_ok = 0;
  std::vector<char> phase1_query(query_count, 0);
  for (const Completion& c : client.completions()) {
    const Request& req = corpus.at(c.request);
    ++out.attempted;
    const bool ok = c.status == 200;
    if (!ok) {
      ++out.failed;
      out.check(false, "request " + std::to_string(c.request) + " (" + kind_name(req.kind) +
                           ") got status " + std::to_string(c.status));
    } else {
      out.check(c.body == exports[req.query],
                "served body of request " + std::to_string(c.request) +
                    " differs from the offline run_sweep export");
    }
    if (c.phase == 1) {
      phase1_ms.push_back(ok ? c.latency * 1e3 : kTimeoutSeconds * 1e3);
      late_ms.push_back(c.late * 1e3);
      if (ok) class_ms[static_cast<int>(req.kind)].push_back(c.latency * 1e3);
      phase1_query[req.query] = 1;
    } else if (ok && c.done >= client.window_start() && c.done < client.window_end()) {
      const auto w = static_cast<std::size_t>((c.done - client.window_start()) /
                                              (client.window_end() - client.window_start()) *
                                              kWindows);
      window_ok[w] += 1;
      window_cells[w] += static_cast<double>(req.cells);
      ++phase2_ok;
    }
  }
  std::int64_t code_size = 0;
  for (std::size_t q = 0; q < query_count; ++q) {
    if (phase1_query[q]) code_size += code_sizes[q];
  }
  std::cerr << "perfbench: serve: phase 1 " << phase1_ms.size() << " requests at "
            << args.serve_rate << " req/s (generator late p50 " << median(late_ms)
            << " ms, max " << percentile(late_ms, 1.0) << " ms); phase 2 " << phase2_ok
            << " requests in " << phase2_seconds << " s; p50 memo "
            << median(class_ms[2]) << " ms, cell hit " << median(class_ms[1])
            << " ms, compute " << median(class_ms[0]) << " ms\n";

  if (args.trace) {
    out.add("serve.memo_ratio", ratio(after.memo_hits - before.memo_hits,
                                      after.queries - before.queries), "ratio");
    out.add("serve.cell_hit_ratio", ratio(after.cell_hits - before.cell_hits,
                                          after.cells - before.cells), "ratio");
    out.add("serve.lanes_per_batch", ratio(after.lanes - before.lanes,
                                           after.batches - before.batches), "ratio");
    const std::vector<double> p50{median(class_ms[2]), median(class_ms[1]), median(class_ms[0])};
    out.add("serve.memo_p50_ms", p50[0], "ms");
    out.add("serve.cell_hit_p50_ms", p50[1], "ms");
    out.add("serve.compute_p50_ms", p50[2], "ms");
    socket_free_replay(args, corpus, issued, exports, p50, out);
    return out;
  }

  const double window_seconds = phase2_seconds / kWindows;
  out.add("cells_per_s", median(window_cells) / window_seconds, "cells/s");
  out.add("setup_s", median(setups), "s");
  out.add("code_size_total", static_cast<double>(code_size), "instr");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("latency_p50_ms", median(phase1_ms), "ms");
  out.add("latency_p99_ms", percentile(phase1_ms, 0.99), "ms");
  out.add("rps", median(window_ok) / window_seconds, "req/s");
  return out;
}

}  // namespace perfbench
