// Prometheus exposition (S47): format fidelity of obs::render_prometheus,
// name sanitization, cumulative histogram buckets, and the mpss_served
// --metrics-port HTTP listener answering a raw-socket scrape.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fd_limit.hpp"
#include "mpss/net/framing.hpp"
#include "mpss/net/metrics_http.hpp"
#include "mpss/obs/counters.hpp"
#include "mpss/obs/export.hpp"
#include "mpss/obs/histogram.hpp"
#include "mpss/obs/registry.hpp"

namespace mpss::obs {
namespace {

// ---- exposition-format checker ---------------------------------------------

/// Validates the text exposition format 0.0.4 line by line: comments are
/// "# HELP name ..." or "# TYPE name counter|histogram"; samples are
/// "name[{labels}] value" with a parseable value; every sample's base name was
/// announced by a preceding TYPE line; counter samples end in _total.
void check_exposition(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  std::string current_metric;
  std::string current_type;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      std::istringstream comment(line);
      std::string hash, keyword, name;
      comment >> hash >> keyword >> name;
      ASSERT_TRUE(keyword == "HELP" || keyword == "TYPE") << line;
      if (keyword == "TYPE") {
        std::string type;
        comment >> type;
        ASSERT_TRUE(type == "counter" || type == "histogram") << line;
        current_metric = name;
        current_type = type;
      }
      continue;
    }
    auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string sample = line.substr(0, space);
    EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
    std::string base = sample.substr(0, sample.find('{'));
    for (char c : base) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << line;
    }
    if (current_type == "counter") {
      EXPECT_EQ(base, current_metric) << line;
      EXPECT_TRUE(base.size() >= 6 &&
                  base.compare(base.size() - 6, 6, "_total") == 0)
          << line;
    } else {
      // Histogram samples are metric_bucket / metric_sum / metric_count.
      EXPECT_EQ(base.rfind(current_metric, 0), 0u) << line;
    }
  }
}

// ---- render_prometheus -----------------------------------------------------

TEST(Export, SanitizesMetricNames) {
  EXPECT_EQ(prometheus_name("net.request_us"), "net_request_us");
  EXPECT_EQ(prometheus_name("a-b c.d"), "a_b_c_d");
  EXPECT_EQ(prometheus_name("9lives"), "_9lives");
  EXPECT_EQ(prometheus_name("ok_name:sub"), "ok_name:sub");
}

TEST(Export, EscapesLabelValues) {
  EXPECT_EQ(prometheus_escape("plain"), "plain");
  EXPECT_EQ(prometheus_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Export, RendersCountersWithTotalSuffix) {
  Counters counters;
  counters.add("net.requests", 42);
  counters.add("service.cache_hit", 7);
  std::string text = render_prometheus(counters, HistogramMap{});
  EXPECT_NE(text.find("# HELP mpss_net_requests_total mpss counter "
                      "net.requests\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE mpss_net_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nmpss_net_requests_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("mpss_service_cache_hit_total 7"), std::string::npos);
  check_exposition(text);
}

TEST(Export, RendersHistogramsAsCumulativeBuckets) {
  HistogramData data;
  for (std::uint64_t v : {1, 2, 3, 100, 1000}) data.record(v);
  HistogramMap histograms;
  histograms["net.request_us"] = data;
  std::string text = render_prometheus(Counters{}, histograms);
  EXPECT_NE(text.find("# TYPE mpss_net_request_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("mpss_net_request_us_bucket{le=\"+Inf\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("mpss_net_request_us_sum 1106"), std::string::npos);
  EXPECT_NE(text.find("mpss_net_request_us_count 5"), std::string::npos);
  check_exposition(text);

  // Bucket counts are cumulative: each le= line's count is >= the previous.
  std::istringstream lines(text);
  std::string line;
  std::uint64_t previous = 0;
  std::size_t buckets = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("mpss_net_request_us_bucket", 0) != 0) continue;
    ++buckets;
    std::uint64_t count = std::stoull(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(count, previous) << line;
    previous = count;
  }
  EXPECT_GT(buckets, 2u);
  EXPECT_EQ(previous, 5u);  // the +Inf bucket equals the total count
}

TEST(Export, EmptyRegistryRendersEmptyDocument) {
  EXPECT_EQ(render_prometheus(Counters{}, HistogramMap{}), "");
}

TEST(Export, GlobalSnapshotFormIncludesRegistryHistograms) {
  Registry::global().add("export_test.counter", 3);
  Registry::global().histogram("export_test.latency_us").record(250);
  std::string text = render_prometheus();
  EXPECT_NE(text.find("mpss_export_test_counter_total"), std::string::npos);
  EXPECT_NE(text.find("mpss_export_test_latency_us_count 1"),
            std::string::npos);
  check_exposition(text);
}

// ---- percentiles helper ----------------------------------------------------

TEST(Export, PercentilesAreMonotoneAndBracketTheSamples) {
  HistogramData data;
  for (std::uint64_t v = 1; v <= 1000; ++v) data.record(v);
  Percentiles p = percentiles(data);
  EXPECT_LE(p.p50, p.p90);
  EXPECT_LE(p.p90, p.p99);
  // Log2 buckets: quantiles are approximate but must stay within a bucket
  // (factor of two) of the exact answer.
  EXPECT_GE(p.p50, 250u);
  EXPECT_LE(p.p50, 1024u);
  EXPECT_GE(p.p99, 512u);
  EXPECT_LE(p.p99, 2048u);
}

}  // namespace
}  // namespace mpss::obs

// ---- live HTTP scrape ------------------------------------------------------

namespace mpss::net {
namespace {

/// Sends `request` on a connected socket; the response up to EOF or 2 s.
std::string http_exchange(int fd, const std::string& request) {
  set_recv_timeout(fd, 2000, "http_exchange");
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof buffer, 0)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  return response;
}

/// One HTTP/1.0 exchange against localhost:port.
std::string http_get(std::uint16_t port, const std::string& request) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  EXPECT_TRUE(fd.valid());
  EXPECT_TRUE(connect_loopback(fd.get(), port));
  return http_exchange(fd.get(), request);
}

TEST(MetricsHttp, ServesPrometheusSnapshotOnGetMetrics) {
  obs::Registry::global().add("http_test.scraped", 5);
  MetricsHttpServer server("127.0.0.1", 0);
  ASSERT_NE(server.port(), 0);

  std::string response =
      http_get(server.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  auto body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  std::string body = response.substr(body_at + 4);
  EXPECT_NE(body.find("mpss_http_test_scraped_total"), std::string::npos);
  mpss::obs::check_exposition(body);

  // The scrape itself is counted, and the listener serves repeat connections.
  std::string again =
      http_get(server.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(again.find("mpss_net_metrics_scrapes_total"), std::string::npos);
}

TEST(MetricsHttp, AcceptErrorsAreCountedAndRetried) {
  auto accept_errors = [] {
    return obs::Registry::global().snapshot().value("net.accept_errors");
  };
  const std::uint64_t before = accept_errors();
  // connect() takes no descriptor. The listener starts with one to spare,
  // which its listening socket takes, so its accept() meets EMFILE.
  ScopedFd pending(::socket(AF_INET, SOCK_STREAM, 0));
  std::optional<MetricsHttpServer> server;
  {
    ScopedFdLimit limit(16);
    ASSERT_TRUE(limit.ok());
    limit.exhaust(/*spare=*/1);
    server.emplace("127.0.0.1", 0);
    EXPECT_TRUE(connect_loopback(pending.get(), server->port()));
    for (int i = 0; i < 200 && accept_errors() == before; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GT(accept_errors(), before);
  }
  // With the descriptors back, the backlog's connection and a fresh one are
  // both served within 2 s.
  const std::string scrape = "GET /metrics HTTP/1.0\r\n\r\n";
  EXPECT_EQ(http_exchange(pending.get(), scrape).rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_EQ(http_get(server->port(), scrape).rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
}

TEST(MetricsHttp, UnknownRoutesGet404) {
  MetricsHttpServer server("127.0.0.1", 0);
  std::string response =
      http_get(server.port(), "GET /other HTTP/1.0\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u) << response;
  std::string post = http_get(server.port(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(post.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u) << post;
}

}  // namespace
}  // namespace mpss::net
