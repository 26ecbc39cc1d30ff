#include "core/alert_log.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "inference/alert_json.hpp"

namespace jaal::core {
namespace {

inference::Alert sample_alert() {
  inference::Alert alert;
  alert.sid = 1000002;
  alert.msg = "Distributed SYN flood";
  alert.matched_packets = 431;
  alert.distributed = true;
  alert.via_feedback = false;
  alert.variance = 0.0625;
  return alert;
}

TEST(AlertLog, JsonContainsEveryField) {
  const std::string json = inference::alert_to_json(sample_alert(), 12.5);
  EXPECT_NE(json.find("\"time\":12.500000"), std::string::npos);
  EXPECT_NE(json.find("\"sid\":1000002"), std::string::npos);
  EXPECT_NE(json.find("\"msg\":\"Distributed SYN flood\""), std::string::npos);
  EXPECT_NE(json.find("\"matched_packets\":431"), std::string::npos);
  EXPECT_NE(json.find("\"distributed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"via_feedback\":false"), std::string::npos);
  EXPECT_NE(json.find("\"variance\":0.0625"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('\n'), std::string::npos);  // single line
}

TEST(AlertLog, EscapesSpecialCharacters) {
  inference::Alert alert = sample_alert();
  alert.msg = "quote:\" backslash:\\ newline:\n tab:\t ctrl:\x01";
  const std::string json = inference::alert_to_json(alert, 0.0);
  EXPECT_NE(json.find("quote:\\\""), std::string::npos);
  EXPECT_NE(json.find("backslash:\\\\"), std::string::npos);
  EXPECT_NE(json.find("newline:\\n"), std::string::npos);
  EXPECT_NE(json.find("tab:\\t"), std::string::npos);
  EXPECT_NE(json.find("ctrl:\\u0001"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(AlertLog, EscapedLineIsPinned) {
  // The whole line, bytes fixed: the alert encoder shares
  // telemetry::json_escape, and CR keeps its short form.
  inference::Alert alert = sample_alert();
  alert.msg = "q:\" b:\\ n:\n r:\r t:\t c:\x01";
  EXPECT_EQ(inference::alert_to_json(alert, 0.0),
            "{\"time\":0.000000,\"sid\":1000002,"
            "\"msg\":\"q:\\\" b:\\\\ n:\\n r:\\r t:\\t c:\\u0001\","
            "\"matched_packets\":431,\"distributed\":true,"
            "\"via_feedback\":false,\"variance\":0.06250000,"
            "\"confidence\":1.00000000,\"caution\":0.00000000}");
}

TEST(AlertLog, LoggerWritesOneLinePerAlert) {
  std::stringstream out;
  AlertLogger logger(out);
  EXPECT_EQ(logger.log_epoch(1.0, {sample_alert(), sample_alert()}), 2u);
  EXPECT_EQ(logger.log_epoch(2.0, {}), 0u);
  EXPECT_EQ(logger.log_epoch(3.0, {sample_alert()}), 1u);
  EXPECT_EQ(logger.lines_written(), 3u);

  std::string line;
  std::size_t lines = 0;
  while (std::getline(out, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 3u);
}

}  // namespace
}  // namespace jaal::core
