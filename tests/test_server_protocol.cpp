// server/server_protocol: encode/decode round-trips (including bit-exact
// doubles in result payloads) and the hostile-input contract — truncated
// frames, bit-flipped bytes, oversized fields, unknown verbs, and
// out-of-range values must all land in a structured mpe::Error (kParse or
// kBadData), never a crash, hang, or silent misparse. The ASan/UBSan CI
// legs run this suite to back the "never crash" half of that promise.
#include "server/server_protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "maxpower/campaign.hpp"
#include "util/status.hpp"

namespace {

namespace ms = mpe::server;
namespace mp = mpe::maxpower;
using mpe::Error;
using mpe::ErrorCode;

mp::CampaignJobOutcome done_outcome() {
  mp::CampaignJobOutcome outcome;
  outcome.name = "j1";
  outcome.status = mp::JobStatus::kDone;
  outcome.attempts = 1;
  outcome.result.estimate = 0.1234567890123456789;
  outcome.result.ci.lower = 0.1111111111111111;
  outcome.result.ci.upper = 0.1333333333333333;
  outcome.result.hyper_samples = 17;
  outcome.result.units_used = 5100;
  outcome.result.converged = true;
  return outcome;
}

TEST(ServerProtocol, HelloRoundTrip) {
  const auto msg = ms::decode_server_message(ms::encode_hello("client-a"));
  EXPECT_EQ(msg.kind, ms::ServerMessageKind::kHello);
  EXPECT_EQ(msg.client, "client-a");
  EXPECT_EQ(msg.proto, ms::kServerProtocolVersion);
}

TEST(ServerProtocol, SubmitRoundTripKeepsSpecAndDeadline) {
  const std::string spec = R"({"job":"j1","circuit":"c432","seed":3})";
  const auto msg =
      ms::decode_server_message(ms::encode_submit("j1", spec, 2500));
  EXPECT_EQ(msg.kind, ms::ServerMessageKind::kSubmit);
  EXPECT_EQ(msg.id, "j1");
  EXPECT_EQ(msg.spec, spec);
  EXPECT_EQ(msg.deadline_ms, 2500u);
}

TEST(ServerProtocol, ControlVerbsRoundTrip) {
  EXPECT_EQ(ms::decode_server_message(ms::encode_cancel("j9")).kind,
            ms::ServerMessageKind::kCancel);
  EXPECT_EQ(ms::decode_server_message(ms::encode_cancel("j9")).id, "j9");
  EXPECT_EQ(ms::decode_server_message(ms::encode_scrape()).kind,
            ms::ServerMessageKind::kScrape);
  EXPECT_EQ(ms::decode_server_message(ms::encode_stats()).kind,
            ms::ServerMessageKind::kStats);
  EXPECT_EQ(ms::decode_server_message(ms::encode_welcome()).kind,
            ms::ServerMessageKind::kWelcome);
  EXPECT_EQ(ms::decode_server_message(ms::encode_drain()).kind,
            ms::ServerMessageKind::kDrain);
}

TEST(ServerProtocol, AcceptedRejectedAckRoundTrip) {
  EXPECT_EQ(ms::decode_server_message(ms::encode_accepted("a")).id, "a");
  const auto rejected = ms::decode_server_message(ms::encode_rejected(
      "b", ErrorCode::kResourceExhausted, "queue full"));
  EXPECT_EQ(rejected.kind, ms::ServerMessageKind::kRejected);
  EXPECT_EQ(rejected.id, "b");
  EXPECT_EQ(rejected.code, ErrorCode::kResourceExhausted);
  EXPECT_EQ(rejected.detail, "queue full");
  EXPECT_EQ(ms::decode_server_message(ms::encode_ack("c")).kind,
            ms::ServerMessageKind::kAck);
}

TEST(ServerProtocol, EventRoundTrip) {
  const auto msg = ms::decode_server_message(
      ms::encode_event("j1", 42, "hyper_sample", R"("k":7)"));
  EXPECT_EQ(msg.kind, ms::ServerMessageKind::kEvent);
  EXPECT_EQ(msg.id, "j1");
  EXPECT_EQ(msg.seq, 42u);
  EXPECT_EQ(msg.name, "hyper_sample");
  EXPECT_EQ(msg.fields, R"("k":7)");
}

TEST(ServerProtocol, ResultDoneRoundTripIsBitExact) {
  const auto outcome = done_outcome();
  const auto msg = ms::decode_server_message(
      ms::encode_result("j1", outcome, "line1\\nline2"));
  EXPECT_EQ(msg.kind, ms::ServerMessageKind::kResult);
  EXPECT_EQ(msg.status, mp::JobStatus::kDone);
  // Doubles must survive the wire exactly: byte-identity of server results
  // against batch runs stands on this.
  EXPECT_EQ(msg.estimate, outcome.result.estimate);
  EXPECT_EQ(msg.ci_lower, outcome.result.ci.lower);
  EXPECT_EQ(msg.ci_upper, outcome.result.ci.upper);
  EXPECT_EQ(msg.hyper_samples, 17u);
  EXPECT_EQ(msg.units, 5100u);
  EXPECT_TRUE(msg.converged);
}

TEST(ServerProtocol, ResultStoppedCarriesErrorCode) {
  mp::CampaignJobOutcome outcome;
  outcome.name = "j2";
  outcome.status = mp::JobStatus::kStopped;
  outcome.error = ErrorCode::kDeadline;
  const auto msg =
      ms::decode_server_message(ms::encode_result("j2", outcome, ""));
  EXPECT_EQ(msg.status, mp::JobStatus::kStopped);
  EXPECT_EQ(msg.code, ErrorCode::kDeadline);
}

TEST(ServerProtocol, MetricsRoundTrip) {
  const auto msg = ms::decode_server_message(
      ms::encode_metrics("mpe_server_cache_hits_total 3\n"));
  EXPECT_EQ(msg.kind, ms::ServerMessageKind::kMetrics);
  EXPECT_EQ(msg.text, "mpe_server_cache_hits_total 3\n");
}

TEST(ServerProtocol, ServerStatsRoundTrip) {
  ms::ServerStats stats;
  stats.submits = 10;
  stats.accepted = 8;
  stats.rejected = 2;
  stats.done = 5;
  stats.failed = 1;
  stats.stopped = 2;
  stats.queued = 1;
  stats.running = 2;
  stats.clients = 3;
  stats.cache_hits = 7;
  stats.cache_misses = 4;
  stats.cache_evictions = 1;
  stats.cache_size = 3;
  stats.cache_capacity = 16;
  stats.draining = true;
  const auto msg =
      ms::decode_server_message(ms::encode_server_stats(stats));
  EXPECT_EQ(msg.kind, ms::ServerMessageKind::kServerStats);
  EXPECT_EQ(msg.stats.submits, 10u);
  EXPECT_EQ(msg.stats.accepted, 8u);
  EXPECT_EQ(msg.stats.rejected, 2u);
  EXPECT_EQ(msg.stats.done, 5u);
  EXPECT_EQ(msg.stats.failed, 1u);
  EXPECT_EQ(msg.stats.stopped, 2u);
  EXPECT_EQ(msg.stats.queued, 1u);
  EXPECT_EQ(msg.stats.running, 2u);
  EXPECT_EQ(msg.stats.clients, 3u);
  EXPECT_EQ(msg.stats.cache_hits, 7u);
  EXPECT_EQ(msg.stats.cache_misses, 4u);
  EXPECT_EQ(msg.stats.cache_evictions, 1u);
  EXPECT_EQ(msg.stats.cache_size, 3u);
  EXPECT_EQ(msg.stats.cache_capacity, 16u);
  EXPECT_TRUE(msg.stats.draining);
}

TEST(ServerProtocol, ErrorRoundTrip) {
  const auto msg =
      ms::decode_server_message(ms::encode_error("bad frame"));
  EXPECT_EQ(msg.kind, ms::ServerMessageKind::kError);
  EXPECT_EQ(msg.detail, "bad frame");
}

// ---- hostile input ---------------------------------------------------------

TEST(ServerProtocolFuzz, UnknownVerbIsBadData) {
  try {
    ms::decode_server_message(
        R"({"schema":"mpe.server","v":1,"type":"reboot"})");
    FAIL() << "unknown verb decoded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadData);
  }
}

TEST(ServerProtocolFuzz, WrongSchemaOrVersionIsRejected) {
  EXPECT_THROW(ms::decode_server_message(
                   R"({"schema":"mpe.dist","v":1,"type":"hello"})"),
               Error);
  EXPECT_THROW(ms::decode_server_message(
                   R"({"schema":"mpe.server","v":99,"type":"hello"})"),
               Error);
}

TEST(ServerProtocolFuzz, MissingAndMistypedFieldsThrow) {
  // submit without an id, with a numeric id, with a non-string spec.
  EXPECT_THROW(ms::decode_server_message(
                   R"({"schema":"mpe.server","v":1,"type":"submit"})"),
               Error);
  EXPECT_THROW(
      ms::decode_server_message(
          R"({"schema":"mpe.server","v":1,"type":"submit","id":7,"spec":"{}"})"),
      Error);
  EXPECT_THROW(
      ms::decode_server_message(
          R"({"schema":"mpe.server","v":1,"type":"submit","id":"a","spec":4})"),
      Error);
}

TEST(ServerProtocolFuzz, OversizedFieldsAreRejectedNotBuffered) {
  const std::string big_id(ms::kMaxIdBytes + 1, 'x');
  EXPECT_THROW(ms::decode_server_message(ms::encode_cancel(big_id)), Error);
  const std::string big_spec =
      "{\"pad\":\"" + std::string(ms::kMaxSpecBytes + 1, 'y') + "\"}";
  EXPECT_THROW(ms::decode_server_message(ms::encode_submit("a", big_spec)),
               Error);
}

TEST(ServerProtocolFuzz, OutOfRangeValuesAreRejected) {
  // A deadline past the one-day cap, and negative numbers where unsigned
  // fields are expected.
  EXPECT_THROW(ms::decode_server_message(ms::encode_submit(
                   "a", "{}", ms::kMaxDeadlineMs + 1)),
               Error);
  EXPECT_THROW(
      ms::decode_server_message(
          R"({"schema":"mpe.server","v":1,"type":"event","id":"a","seq":-3,"name":"n"})"),
      Error);
  EXPECT_THROW(
      ms::decode_server_message(
          R"({"schema":"mpe.server","v":1,"type":"hello","client":"c","proto":-1})"),
      Error);
  // 2^64 and beyond do not fit an unsigned field: refused, never cast.
  for (const std::string seq : {"18446744073709551616", "1e300"}) {
    EXPECT_THROW(ms::decode_server_message(
                     R"({"schema":"mpe.server","v":1,"type":"event","id":"a",)"
                     R"("seq":)" + seq + R"(,"name":"n"})"),
                 Error)
        << seq;
  }
}

TEST(ServerProtocolFuzz, TruncatedFramesNeverCrash) {
  const std::vector<std::string> lines = {
      ms::encode_hello("client"),
      ms::encode_submit("j1", R"({"job":"j1","circuit":"c432"})", 100),
      ms::encode_result("j1", done_outcome(), "report body"),
      ms::encode_server_stats(ms::ServerStats{}),
  };
  for (const auto& line : lines) {
    for (std::size_t cut = 0; cut < line.size(); ++cut) {
      try {
        (void)ms::decode_server_message(line.substr(0, cut));
      } catch (const Error& e) {
        EXPECT_TRUE(e.code() == ErrorCode::kParse ||
                    e.code() == ErrorCode::kBadData)
            << "cut=" << cut << " code=" << to_string(e.code());
      }
    }
  }
}

TEST(ServerProtocolFuzz, BitFlippedBytesNeverCrash) {
  const std::vector<std::string> lines = {
      ms::encode_submit("j1", R"({"job":"j1","seed":3})", 100),
      ms::encode_result("j1", done_outcome(), ""),
      ms::encode_event("j1", 7, "hyper_sample", R"("k":1)"),
  };
  for (const auto& line : lines) {
    for (std::size_t i = 0; i < line.size(); ++i) {
      for (const unsigned mask : {0x01u, 0x20u, 0x80u}) {
        std::string mutated = line;
        mutated[i] = static_cast<char>(
            static_cast<unsigned char>(mutated[i]) ^ mask);
        try {
          // Either a clean decode of a still-valid mutation or a structured
          // error; anything else (crash, unexpected exception type) fails.
          (void)ms::decode_server_message(mutated);
        } catch (const Error&) {
        }
      }
    }
  }
}

TEST(ServerProtocolFuzz, RandomGarbageNeverCrash) {
  // Deterministic xorshift so a failure reproduces byte for byte.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 200; ++round) {
    std::string line;
    const std::size_t len = next() % 300;
    line.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      line.push_back(static_cast<char>(next() % 256));
    }
    try {
      (void)ms::decode_server_message(line);
    } catch (const Error&) {
    }
  }
}

}  // namespace
