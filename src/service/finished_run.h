// Everything a `done` session serves, rendered once when its run finishes.
//
// A finished pipeline run is rendered right away into the texts the wire
// commands return (`report` with and without timings, `summary`,
// `export_ddl`, `export_eer`, `export_navigation`) plus the presumption set
// the `watch` stream diffs the next run against; the PipelineReport itself
// is then dropped. The same value is the session's *result image*: encoded
// as one JSON object it is written next to the session's journal, and
// recovery decodes it to bring a finished session back to `done` without
// re-running its pipeline (docs/STORAGE.md, "Recovery semantics").
#ifndef DBRE_SERVICE_FINISHED_RUN_H_
#define DBRE_SERVICE_FINISHED_RUN_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "core/pipeline.h"
#include "core/presumption_diff.h"

namespace dbre::service {

struct FinishedRun {
  std::string report;          // report JSON with its timings
  std::string report_untimed;  // report JSON without them
  std::string summary;
  std::string ddl;             // the restructured schema as DDL
  std::string eer_dot;
  std::string navigation_dot;
  PresumptionSet presumptions;
};

// Renders a finished run.
Result<FinishedRun> RenderFinishedRun(const PipelineReport& report);

// The result image's bytes, and back. Decoding refuses, with a
// kParseError, anything EncodeFinishedRun could not have written: a
// missing field, a field of the wrong JSON type, an unknown format tag, or
// a presumption list that is not sorted and duplicate-free.
std::string EncodeFinishedRun(const FinishedRun& run);
Result<FinishedRun> DecodeFinishedRun(std::string_view bytes);

}  // namespace dbre::service

#endif  // DBRE_SERVICE_FINISHED_RUN_H_
