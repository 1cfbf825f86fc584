// dbre_cli — drive the whole method on your own legacy database.
//
//   dbre_cli --ddl schema.sql [--data DIR] [--programs FILE...]
//            [--interactive] [--infer-keys] [--merge-isa-cycles]
//            [--out-prefix PREFIX]
//
//   --ddl FILE        dictionary: CREATE TABLE (+ optional INSERTs)
//   --data DIR        per-relation extensions from DIR/<Relation>.csv
//   --programs FILES  application programs to scan for embedded SQL
//                     (everything after --programs until the next flag)
//   --interactive     ask the expert questions on stdin (default: an
//                     unattended threshold policy that accepts hidden
//                     objects and forces inclusions at >= 50% overlap)
//   --infer-keys      mine keys for relations without unique declarations
//   --merge-isa-cycles collapse cyclic is-a structures
//   --out-prefix P    write P_eer.dot and P_schema.sql (default
//                     "out/dbre"; the directory is created if missing)
//
// Exit code 0 on success; the full pipeline report prints to stdout.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/interactive_oracle.h"
#include "core/navigation_graph.h"
#include "core/pipeline.h"
#include "core/report_json.h"
#include "eer/dot_export.h"
#include "eer/transform.h"
#include "relational/csv.h"
#include "sql/ddl.h"
#include "sql/ddl_writer.h"
#include "sql/scanner.h"
#include "sql/selection_analysis.h"

#include <iostream>

namespace {

struct CliArgs {
  std::string ddl_path;
  std::string data_dir;
  std::vector<std::string> program_paths;
  std::string out_prefix = "out/dbre";
  std::string export_data_dir;
  bool interactive = false;
  bool infer_keys = false;
  bool merge_isa_cycles = false;
  bool json = false;
  bool specialize = false;
  bool show_help = false;
};

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--ddl") {
      const char* value = next("--ddl");
      if (value == nullptr) return false;
      args->ddl_path = value;
    } else if (flag == "--data") {
      const char* value = next("--data");
      if (value == nullptr) return false;
      args->data_dir = value;
    } else if (flag == "--out-prefix") {
      const char* value = next("--out-prefix");
      if (value == nullptr) return false;
      args->out_prefix = value;
    } else if (flag == "--export-data") {
      const char* value = next("--export-data");
      if (value == nullptr) return false;
      args->export_data_dir = value;
    } else if (flag == "--programs") {
      while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        args->program_paths.emplace_back(argv[++i]);
      }
    } else if (flag == "--interactive") {
      args->interactive = true;
    } else if (flag == "--infer-keys") {
      args->infer_keys = true;
    } else if (flag == "--merge-isa-cycles") {
      args->merge_isa_cycles = true;
    } else if (flag == "--json") {
      args->json = true;
    } else if (flag == "--specialize") {
      args->specialize = true;
    } else if (flag == "--help" || flag == "-h") {
      args->show_help = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

void PrintUsage() {
  std::printf(
      "usage: dbre_cli --ddl schema.sql [--data DIR] [--programs FILE...]\n"
      "                [--interactive] [--infer-keys] [--merge-isa-cycles]\n"
      "                [--json] [--specialize] [--export-data DIR]\n"
      "                [--out-prefix PREFIX]\n");
}

bool Fail(const dbre::Status& status, const char* what) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return false;
}

// Loads every relation's CSV concurrently on the shared pool (relations are
// independent tables), then reports in relation order: the output is the
// sequential loop's, up to and including the first failure.
bool LoadCsvExtensions(const std::string& dir, dbre::Database* db) {
  std::vector<std::string> relations;
  for (const std::string& relation : db->RelationNames()) {
    std::ifstream probe(dir + "/" + relation + ".csv");
    if (probe.good()) relations.push_back(relation);
  }
  std::vector<dbre::Result<size_t>> loaded(
      relations.size(), dbre::Result<size_t>(size_t{0}));
  dbre::ParallelFor(relations.size(), 0, [&](size_t i) {
    auto table = db->GetMutableTable(relations[i]);
    loaded[i] = table.ok() ? dbre::LoadCsvFile(dir + "/" + relations[i] +
                                                   ".csv",
                                               *table)
                           : dbre::Result<size_t>(table.status());
  });
  for (size_t i = 0; i < relations.size(); ++i) {
    const std::string path = dir + "/" + relations[i] + ".csv";
    if (!loaded[i].ok()) return Fail(loaded[i].status(), path.c_str());
    std::printf("loaded %zu tuples into %s\n", *loaded[i],
                relations[i].c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args) || args.show_help ||
      args.ddl_path.empty()) {
    PrintUsage();
    return args.show_help ? 0 : 2;
  }

  // 1. Dictionary.
  std::ifstream ddl_in(args.ddl_path);
  if (!ddl_in) {
    std::fprintf(stderr, "cannot open %s\n", args.ddl_path.c_str());
    return 1;
  }
  std::ostringstream ddl_text;
  ddl_text << ddl_in.rdbuf();
  dbre::Database db;
  auto ddl = dbre::sql::ExecuteDdlScript(ddl_text.str(), &db);
  if (!ddl.ok()) {
    Fail(ddl.status(), "DDL");
    return 1;
  }
  std::printf("dictionary: %zu relations, %zu inserted rows\n",
              ddl->tables_created, ddl->rows_inserted);

  // 2. Extensions.
  if (!args.data_dir.empty() && !LoadCsvExtensions(args.data_dir, &db)) {
    return 1;
  }
  if (auto verified = db.VerifyDeclaredConstraints(); !verified.ok()) {
    std::fprintf(stderr,
                 "warning: extension violates the dictionary: %s\n",
                 verified.ToString().c_str());
  }

  // 3. The workload Q, and the selection-predicate side channel.
  std::vector<dbre::EquiJoin> joins;
  std::vector<std::pair<std::string, std::string>> program_sources;
  for (const std::string& path : args.program_paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    program_sources.emplace_back(path, buffer.str());
  }
  if (!args.program_paths.empty()) {
    dbre::sql::ExtractionOptions extraction;
    extraction.catalog = &db;
    dbre::sql::ExtractionStats stats;
    std::vector<dbre::Status> errors;
    auto extracted = dbre::sql::BuildQueryJoinSet(args.program_paths,
                                                  extraction, &stats,
                                                  &errors);
    if (!extracted.ok()) {
      Fail(extracted.status(), "programs");
      return 1;
    }
    joins = std::move(extracted).value();
    std::printf("programs: %zu statements, %zu equi-joins in Q",
                stats.statements, joins.size());
    if (!errors.empty()) {
      std::printf(" (%zu statements failed to parse)", errors.size());
    }
    std::printf("\n");
  } else {
    std::printf("no --programs given: Q is empty, only the dictionary and "
                "restructuring steps run\n");
  }

  // 4. The expert.
  dbre::ThresholdOracle::Options policy;
  policy.nei_conceptualize_ratio = 2.0;
  policy.nei_force_ratio = 0.5;
  policy.accept_hidden_objects = true;
  policy.enforce_fd_max_error = 0.01;  // tolerate ≤1% mispunched tuples
  dbre::ThresholdOracle threshold(policy);
  dbre::InteractiveOracle interactive(&std::cin, &std::cout);
  dbre::ExpertOracle* oracle =
      args.interactive ? static_cast<dbre::ExpertOracle*>(&interactive)
                       : &threshold;

  // 5. The method.
  dbre::PipelineOptions options;
  options.infer_missing_keys = args.infer_keys;
  options.translate.merge_isa_cycles = args.merge_isa_cycles;
  auto report = dbre::RunPipeline(db, joins, oracle, options);
  if (!report.ok()) {
    Fail(report.status(), "pipeline");
    return 1;
  }
  std::printf("\n%s", report->Summary().c_str());

  // Bonus analysis: subtype discriminator candidates from selection
  // predicates (constants the programs compare attributes with).
  if (!program_sources.empty()) {
    dbre::sql::SelectionAnalysisOptions selection;
    selection.catalog = &db;
    auto discriminators =
        dbre::sql::AnalyzeSelections(program_sources, selection);
    if (discriminators.ok() && !discriminators->empty()) {
      std::printf("== Discriminator candidates (selection analysis) ==\n");
      for (const dbre::sql::DiscriminatorCandidate& candidate :
           *discriminators) {
        std::printf("  %s\n", candidate.ToString().c_str());
      }
      if (args.specialize) {
        std::vector<dbre::eer::SpecializationHint> hints;
        for (const dbre::sql::DiscriminatorCandidate& candidate :
             *discriminators) {
          hints.push_back(dbre::eer::SpecializationHint{
              candidate.relation, candidate.attribute,
              candidate.constants});
        }
        auto added =
            dbre::eer::AddDiscriminatorSubtypes(&report->eer, hints);
        if (added.ok()) {
          std::printf("  (added %zu value-based subtypes to the EER "
                      "schema)\n",
                      added->subtypes_added);
        }
      }
    }
  }

  // 6. Artifacts. Generated files live under an ignored directory (out/
  // by default), never in the repository root.
  if (auto slash = args.out_prefix.find_last_of('/');
      slash != std::string::npos) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_prefix.substr(0, slash),
                                        ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n",
                   args.out_prefix.substr(0, slash).c_str(),
                   ec.message().c_str());
      return 1;
    }
  }
  std::string dot_path = args.out_prefix + "_eer.dot";
  if (auto status = dbre::eer::WriteDotFile(report->eer, dot_path);
      !status.ok()) {
    Fail(status, dot_path.c_str());
    return 1;
  }
  std::string navigation_path = args.out_prefix + "_navigation.dot";
  if (auto status = dbre::WriteNavigationGraph(
          report->working_database, report->ind, navigation_path);
      !status.ok()) {
    Fail(status, navigation_path.c_str());
    return 1;
  }
  std::string schema_path = args.out_prefix + "_schema.sql";
  std::ofstream schema_out(schema_path, std::ios::trunc);
  schema_out << dbre::sql::WriteDdl(report->restruct.database);
  if (!schema_out) {
    std::fprintf(stderr, "cannot write %s\n", schema_path.c_str());
    return 1;
  }
  if (!args.export_data_dir.empty()) {
    auto exported = dbre::ExportDatabaseCsv(report->restruct.database,
                                            args.export_data_dir);
    if (!exported.ok()) {
      Fail(exported.status(), args.export_data_dir.c_str());
      return 1;
    }
    std::printf("exported %zu restructured extensions to %s/\n", *exported,
                args.export_data_dir.c_str());
  }
  std::printf("\nwrote %s, %s and %s", dot_path.c_str(),
              navigation_path.c_str(), schema_path.c_str());
  if (args.json) {
    std::string json_path = args.out_prefix + "_report.json";
    if (auto status = dbre::WriteReportJson(*report, json_path);
        !status.ok()) {
      Fail(status, json_path.c_str());
      return 1;
    }
    std::printf(" and %s", json_path.c_str());
  }
  std::printf("\n");
  return 0;
}
