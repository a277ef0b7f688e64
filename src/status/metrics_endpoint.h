// Prometheus text exposition endpoint for the status plane (ISSUE 5).
//
// A minimal HTTP/1.0 server that renders the process-wide obs::Registry in
// Prometheus text format on GET /metrics — the deployment-shaped face of
// the metrics registry, sitting next to the UDP status daemon the way a
// node exporter sits next to a service. GET / returns a one-line index,
// anything else 404. One request per connection (Connection: close), one
// accept thread; rendering happens outside any registry hot path. A client
// gets kClientDeadline for each receive and each send, so one that connects
// and sends nothing, or never reads, cannot stall later scrapes or Stop().
//
// Scrape it with:
//   curl http://127.0.0.1:<port>/metrics
// or point a Prometheus job at it (see docs/OBSERVABILITY.md).
#ifndef CLOUDTALK_SRC_STATUS_METRICS_ENDPOINT_H_
#define CLOUDTALK_SRC_STATUS_METRICS_ENDPOINT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace cloudtalk {

class MetricsEndpoint {
 public:
  static constexpr std::chrono::milliseconds kClientDeadline{500};

  MetricsEndpoint() = default;
  ~MetricsEndpoint();
  MetricsEndpoint(const MetricsEndpoint&) = delete;
  MetricsEndpoint& operator=(const MetricsEndpoint&) = delete;

  // Binds 127.0.0.1 on `port` (0 = ephemeral) and starts the accept thread.
  // Returns false on socket errors.
  bool Start(uint16_t port = 0);
  void Stop();

  uint16_t port() const { return port_; }
  int64_t requests_served() const { return requests_served_.load(); }

 private:
  void Loop();

  int fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<int64_t> requests_served_{0};
};

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_STATUS_METRICS_ENDPOINT_H_
