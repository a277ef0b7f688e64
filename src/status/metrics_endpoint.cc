#include "src/status/metrics_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "src/obs/metrics.h"

namespace cloudtalk {

namespace {

void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      return;
    }
    sent += static_cast<size_t>(n);
  }
}

std::string HttpResponse(const char* status, const char* content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

MetricsEndpoint::~MetricsEndpoint() { Stop(); }

bool MetricsEndpoint::Start(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd_, 8) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  port_ = ntohs(addr.sin_port);
  running_.store(true);
  thread_ = std::thread([this] { Loop(); });
  return true;
}

void MetricsEndpoint::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  if (thread_.joinable()) {
    thread_.join();
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void MetricsEndpoint::Loop() {
  while (running_.load()) {
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);  // Re-check running_ regularly.
    if (ready <= 0) {
      continue;
    }
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) {
      continue;
    }
    timeval deadline{};
    deadline.tv_sec = kClientDeadline.count() / 1000;
    deadline.tv_usec = (kClientDeadline.count() % 1000) * 1000;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof(deadline));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &deadline, sizeof(deadline));
    char request[1024];
    const ssize_t n = ::recv(client, request, sizeof(request) - 1, 0);
    if (n > 0) {
      request[n] = '\0';
      // Only the request line matters: "GET <path> HTTP/1.x".
      const char* path_begin = std::strchr(request, ' ');
      std::string path;
      if (path_begin != nullptr) {
        const char* path_end = std::strchr(path_begin + 1, ' ');
        if (path_end != nullptr) {
          path.assign(path_begin + 1, path_end);
        }
      }
      if (std::strncmp(request, "GET ", 4) != 0) {
        SendAll(client, HttpResponse("405 Method Not Allowed", "text/plain",
                                     "only GET is supported\n"));
      } else if (path == "/metrics") {
        SendAll(client,
                HttpResponse("200 OK", "text/plain; version=0.0.4; charset=utf-8",
                             obs::Registry::Instance().RenderPrometheus()));
      } else if (path == "/") {
        SendAll(client, HttpResponse("200 OK", "text/plain",
                                     "cloudtalk metrics endpoint; scrape /metrics\n"));
      } else {
        SendAll(client, HttpResponse("404 Not Found", "text/plain", "not found\n"));
      }
      requests_served_.fetch_add(1);
    }
    ::close(client);
  }
}

}  // namespace cloudtalk
