#include "service/finished_run.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "core/navigation_graph.h"
#include "core/report_json.h"
#include "eer/dot_export.h"
#include "service/json.h"
#include "sql/ddl_writer.h"

namespace dbre::service {
namespace {

// Names the image layout, so a later layout reads as a cache miss here
// instead of as a wrong report.
constexpr char kFormat[] = "dbre-result/1";

// The image's text fields, in the order they are written.
constexpr std::pair<const char*, std::string FinishedRun::*> kTexts[] = {
    {"report", &FinishedRun::report},
    {"report_untimed", &FinishedRun::report_untimed},
    {"summary", &FinishedRun::summary},
    {"ddl", &FinishedRun::ddl},
    {"eer_dot", &FinishedRun::eer_dot},
    {"navigation_dot", &FinishedRun::navigation_dot},
};

constexpr std::pair<const char*, std::vector<std::string> PresumptionSet::*>
    kLists[] = {
        {"inds", &PresumptionSet::inds},
        {"fds", &PresumptionSet::fds},
        {"lhs", &PresumptionSet::lhs},
};

}  // namespace

Result<FinishedRun> RenderFinishedRun(const PipelineReport& report) {
  FinishedRun run;
  JsonOptions json;
  run.report = ReportToJson(report, json);
  json.include_timings = false;
  run.report_untimed = ReportToJson(report, json);
  run.summary = report.Summary();
  run.ddl = sql::WriteDdl(report.restruct.database);
  run.eer_dot = eer::ToDot(report.eer);
  DBRE_ASSIGN_OR_RETURN(run.navigation_dot,
                        NavigationGraphToDot(report.working_database,
                                             report.ind));
  run.presumptions = ExtractPresumptions(report);
  return run;
}

std::string EncodeFinishedRun(const FinishedRun& run) {
  Json image = Json::MakeObject();
  image.Set("format", Json::Str(kFormat));
  for (const auto& [key, field] : kTexts) image.Set(key, Json::Str(run.*field));
  for (const auto& [key, field] : kLists) {
    Json list = Json::MakeArray();
    for (const std::string& entry : run.presumptions.*field) {
      list.Append(Json::Str(entry));
    }
    image.Set(key, std::move(list));
  }
  return image.Dump();
}

Result<FinishedRun> DecodeFinishedRun(std::string_view bytes) {
  DBRE_ASSIGN_OR_RETURN(Json image, Json::Parse(bytes));
  const Json* format = image.Find("format");
  if (format == nullptr || !format->IsString() ||
      format->AsString() != kFormat) {
    return ParseError("result image: not a " + std::string(kFormat) +
                      " image");
  }
  FinishedRun run;
  for (const auto& [key, field] : kTexts) {
    const Json* text = image.Find(key);
    if (text == nullptr || !text->IsString()) {
      return ParseError(std::string("result image: no \"") + key +
                        "\" string");
    }
    run.*field = text->AsString();
  }
  for (const auto& [key, field] : kLists) {
    const Json* list = image.Find(key);
    if (list == nullptr || !list->IsArray()) {
      return ParseError(std::string("result image: no \"") + key +
                        "\" array");
    }
    std::vector<std::string>& out = run.presumptions.*field;
    for (const Json& entry : list->array()) {
      if (!entry.IsString()) {
        return ParseError(std::string("result image: \"") + key +
                          "\" holds a non-string");
      }
      out.push_back(entry.AsString());
    }
    // DiffPresumptions needs what ExtractPresumptions gives: sorted and
    // duplicate-free.
    if (std::adjacent_find(out.begin(), out.end(),
                           std::greater_equal<>()) != out.end()) {
      return ParseError(std::string("result image: \"") + key +
                        "\" is not sorted and duplicate-free");
    }
  }
  return run;
}

}  // namespace dbre::service
