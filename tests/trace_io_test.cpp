#include "trace/io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "trace/generator.hpp"

namespace sic::trace {
namespace {

RssiTrace tiny_trace() {
  RssiTrace t;
  Snapshot s0;
  s0.timestamp_s = 0;
  s0.aps.push_back(
      ApSnapshot{0, {{10, Dbm{-55.5}}, {11, Dbm{-71.25}}}});
  s0.aps.push_back(ApSnapshot{1, {{12, Dbm{-60.0}}}});
  Snapshot s1;
  s1.timestamp_s = 900;
  s1.aps.push_back(ApSnapshot{0, {{10, Dbm{-56.0}}}});
  t.snapshots = {s0, s1};
  return t;
}

TEST(TraceIo, RoundTripPreservesObservations) {
  const RssiTrace original = tiny_trace();
  std::stringstream ss;
  write_csv(original, ss);
  const RssiTrace parsed = read_csv(ss);
  ASSERT_EQ(parsed.snapshots.size(), 2u);
  EXPECT_EQ(parsed.snapshots[0].timestamp_s, 0);
  EXPECT_EQ(parsed.snapshots[1].timestamp_s, 900);
  EXPECT_EQ(parsed.total_observations(), original.total_observations());
  // Find AP 0's clients in the first snapshot.
  const auto& ap0 = parsed.snapshots[0].aps[0];
  ASSERT_EQ(ap0.clients.size(), 2u);
  EXPECT_EQ(ap0.clients[0].client_id, 10u);
  EXPECT_DOUBLE_EQ(ap0.clients[0].rssi.value(), -55.5);
  EXPECT_DOUBLE_EQ(ap0.clients[1].rssi.value(), -71.25);
}

TEST(TraceIo, HeaderValidated) {
  std::stringstream ss{"wrong,header\n"};
  EXPECT_THROW((void)read_csv(ss), std::runtime_error);
  std::stringstream empty{""};
  EXPECT_THROW((void)read_csv(empty), std::runtime_error);
}

TEST(TraceIo, MalformedRowRejected) {
  std::stringstream ss{
      "timestamp_s,ap_id,client_id,rssi_dbm\n0,1,notanumber,-50\n"};
  EXPECT_THROW((void)read_csv(ss), std::runtime_error);
}

TEST(TraceIo, BlankLinesIgnored) {
  std::stringstream ss{
      "timestamp_s,ap_id,client_id,rssi_dbm\n0,0,1,-50\n\n900,0,1,-51\n"};
  const RssiTrace t = read_csv(ss);
  EXPECT_EQ(t.snapshots.size(), 2u);
}

TEST(TraceIo, GeneratedTraceRoundTrips) {
  BuildingConfig config;
  config.duration_s = 2 * 3600;
  const RssiTrace original = generate_building_trace(config, 21);
  std::stringstream ss;
  write_csv(original, ss);
  const RssiTrace parsed = read_csv(ss);
  EXPECT_EQ(parsed.total_observations(), original.total_observations());
}

TEST(TraceIo, EmptySnapshotsRoundTrip) {
  // A snapshot with no observations (no AP, or APs with no client) is
  // written as one "timestamp_s,,," row and read back as an empty
  // snapshot at its timestamp.
  RssiTrace original = tiny_trace();
  Snapshot quiet;
  quiet.timestamp_s = 450;
  Snapshot idle_ap;
  idle_ap.timestamp_s = 1800;
  idle_ap.aps.push_back(ApSnapshot{2, {}});
  original.snapshots = {original.snapshots[0], quiet, original.snapshots[1],
                        idle_ap};
  std::stringstream ss;
  write_csv(original, ss);
  EXPECT_NE(ss.str().find("\n450,,,\n"), std::string::npos) << ss.str();
  EXPECT_NE(ss.str().find("\n1800,,,\n"), std::string::npos) << ss.str();
  const RssiTrace parsed = read_csv(ss);
  ASSERT_EQ(parsed.snapshots.size(), 4u);
  const std::int64_t timestamps[] = {0, 450, 900, 1800};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(parsed.snapshots[i].timestamp_s, timestamps[i]);
  }
  EXPECT_TRUE(parsed.snapshots[1].aps.empty());
  EXPECT_TRUE(parsed.snapshots[3].aps.empty());
  EXPECT_EQ(parsed.total_observations(), original.total_observations());
}

TEST(TraceIo, GeneratedDayKeepsEverySnapshot) {
  // `sicmac trace-gen --days 1 --seed 5`: 96 quarter-hour snapshots, three
  // of them with no observation.
  BuildingConfig config;
  config.duration_s = 24 * 3600;
  const RssiTrace original = generate_building_trace(config, 5);
  std::stringstream ss;
  write_csv(original, ss);
  const RssiTrace parsed = read_csv(ss);
  ASSERT_EQ(parsed.snapshots.size(), original.snapshots.size());
  EXPECT_EQ(parsed.snapshots.size(), 96u);
  for (std::size_t i = 0; i < parsed.snapshots.size(); ++i) {
    EXPECT_EQ(parsed.snapshots[i].timestamp_s,
              original.snapshots[i].timestamp_s);
  }
  EXPECT_EQ(parsed.total_observations(), original.total_observations());
}

TEST(TraceIo, FileRoundTrip) {
  const RssiTrace original = tiny_trace();
  const std::string path = ::testing::TempDir() + "/sicmac_trace_test.csv";
  write_csv_file(original, path);
  const RssiTrace parsed = read_csv_file(path);
  EXPECT_EQ(parsed.total_observations(), original.total_observations());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW((void)read_csv_file("/nonexistent/sicmac.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace sic::trace
