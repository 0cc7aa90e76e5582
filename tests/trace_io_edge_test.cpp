/// Edge cases of the trace CSV reader: real-world files arrive with CRLF
/// endings, stray whitespace, duplicated and out-of-order rows, and
/// truncated tails. The reader must tolerate the cosmetic ones and reject
/// the structural ones with the offending line named.

#include "trace/io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace sic::trace {
namespace {

constexpr const char* kHeader = "timestamp_s,ap_id,client_id,rssi_dbm";

TEST(TraceIoEdge, CrlfLineEndingsParse) {
  std::stringstream ss{std::string{kHeader} +
                       "\r\n0,0,1,-50.5\r\n900,0,1,-51\r\n"};
  const RssiTrace t = read_csv(ss);
  ASSERT_EQ(t.snapshots.size(), 2u);
  EXPECT_DOUBLE_EQ(t.snapshots[0].aps[0].clients[0].rssi.value(), -50.5);
}

TEST(TraceIoEdge, CrlfHeaderAloneParses) {
  std::stringstream ss{std::string{kHeader} + "\r\n"};
  EXPECT_EQ(read_csv(ss).snapshots.size(), 0u);
}

TEST(TraceIoEdge, TrailingWhitespaceTolerated) {
  std::stringstream ss{std::string{kHeader} +
                       "  \n0,0,1,-50 \n900,0,1,-51\t\t\n"};
  EXPECT_EQ(read_csv(ss).snapshots.size(), 2u);
}

TEST(TraceIoEdge, WhitespaceOnlyLinesSkipped) {
  std::stringstream ss{std::string{kHeader} +
                       "\n0,0,1,-50\n   \n\t\n900,0,1,-51\n"};
  EXPECT_EQ(read_csv(ss).snapshots.size(), 2u);
}

TEST(TraceIoEdge, DuplicateRowsBothKept) {
  // The reader does not deduplicate; both observations land in the same
  // (timestamp, ap) bucket for downstream code to resolve.
  std::stringstream ss{std::string{kHeader} + "\n0,0,1,-50\n0,0,1,-50\n"};
  const RssiTrace t = read_csv(ss);
  ASSERT_EQ(t.snapshots.size(), 1u);
  EXPECT_EQ(t.snapshots[0].aps[0].clients.size(), 2u);
}

TEST(TraceIoEdge, OutOfOrderTimestampsSorted) {
  std::stringstream ss{std::string{kHeader} +
                       "\n900,0,1,-51\n0,0,1,-50\n450,0,1,-52\n"};
  const RssiTrace t = read_csv(ss);
  ASSERT_EQ(t.snapshots.size(), 3u);
  EXPECT_EQ(t.snapshots[0].timestamp_s, 0);
  EXPECT_EQ(t.snapshots[1].timestamp_s, 450);
  EXPECT_EQ(t.snapshots[2].timestamp_s, 900);
}

TEST(TraceIoEdge, TruncatedFinalLineRejectedWithLineNumber) {
  std::stringstream ss{std::string{kHeader} + "\n0,0,1,-50\n900,0,1"};
  try {
    (void)read_csv(ss);
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string{e.what()}.find("900,0,1"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIoEdge, TrailingJunkRejected) {
  std::stringstream ss{std::string{kHeader} + "\n0,0,1,-50,extra\n"};
  EXPECT_THROW((void)read_csv(ss), TraceFormatError);
  std::stringstream ss2{std::string{kHeader} + "\n0,0,1,-50 junk\n"};
  EXPECT_THROW((void)read_csv(ss2), TraceFormatError);
}

TEST(TraceIoEdge, OnlyTimestampThenThreeCommasIsAnEmptySnapshot) {
  std::stringstream ok{std::string{kHeader} + "\n900,,,\r\n0,0,1,-50\n"};
  const RssiTrace t = read_csv(ok);
  ASSERT_EQ(t.snapshots.size(), 2u);
  EXPECT_EQ(t.snapshots[1].timestamp_s, 900);
  EXPECT_TRUE(t.snapshots[1].aps.empty());
  for (const char* row : {",,,", "x,,,", "900,,,,", "900,1,,,", "900,,",
                          "900,,,junk", "900 1,,,"}) {
    std::stringstream ss{std::string{kHeader} + "\n" + row + "\n"};
    EXPECT_THROW((void)read_csv(ss), TraceFormatError) << row;
  }
}

TEST(TraceIoEdge, ErrorClassesDistinguishIoFromFormat) {
  EXPECT_THROW((void)read_csv_file("/nonexistent/sicmac.csv"), TraceIoError);
  std::stringstream bad{"wrong,header\n"};
  EXPECT_THROW((void)read_csv(bad), TraceFormatError);
  // Both remain runtime_errors for legacy catch sites.
  static_assert(std::is_base_of_v<std::runtime_error, TraceIoError>);
  static_assert(std::is_base_of_v<std::runtime_error, TraceFormatError>);
}

}  // namespace
}  // namespace sic::trace
