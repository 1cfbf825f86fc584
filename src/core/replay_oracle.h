// An oracle that replays previously journaled expert answers.
//
// Crash recovery re-runs a session's pipeline from scratch; the pipeline
// is deterministic, so it asks the same questions in the same order — but
// the expert already answered some of them before the crash. A
// ReplayOracle is primed with those answers (keyed by the question's
// subject string, the same key ScriptedOracle uses) and consumes them
// FIFO per subject: the first re-ask of a subject gets the first recorded
// answer, and so on. Questions with no recorded answer left fall through
// to the fallback oracle — in the service that is the live AsyncOracle,
// so the session resumes interactively exactly where it stopped.
//
// Per-subject queues (rather than single values) preserve order when the
// pipeline legitimately asks about the same subject twice.
#ifndef DBRE_CORE_REPLAY_ORACLE_H_
#define DBRE_CORE_REPLAY_ORACLE_H_

#include <deque>
#include <map>
#include <string>

#include "core/oracle.h"

namespace dbre {

class ReplayOracle : public ExpertOracle {
 public:
  ReplayOracle() = default;

  // The oracle answering questions that outrun the recording. Not owned;
  // must outlive this oracle. Defaults to DefaultOracle semantics if
  // never set.
  void SetFallback(ExpertOracle* fallback) { fallback_ = fallback; }

  // Priming: push one recorded answer for `subject` (its ToString form).
  void RecordNei(const std::string& subject, NeiDecision decision) {
    nei_[subject].push_back(std::move(decision));
  }
  void RecordEnforceFd(const std::string& subject, bool enforce) {
    enforce_[subject].push_back(enforce);
  }
  void RecordValidateFd(const std::string& subject, bool valid) {
    validate_[subject].push_back(valid);
  }
  void RecordHiddenObject(const std::string& subject, bool accept) {
    hidden_[subject].push_back(accept);
  }
  void RecordFdRelationName(const std::string& subject, std::string name) {
    fd_names_[subject].push_back(std::move(name));
  }
  void RecordHiddenRelationName(const std::string& subject,
                                std::string name) {
    hidden_names_[subject].push_back(std::move(name));
  }

  NeiDecision DecideNonEmptyIntersection(const EquiJoin& join,
                                         const JoinCounts& counts) override;
  bool EnforceFailedFd(const FunctionalDependency& fd) override;
  bool EnforceFailedFd(const FunctionalDependency& fd,
                       double g3_error) override;
  bool ValidateFd(const FunctionalDependency& fd) override;
  bool ConceptualizeHiddenObject(
      const QualifiedAttributes& candidate) override;
  std::string NameRelationForFd(const FunctionalDependency& fd) override;
  std::string NameHiddenObjectRelation(
      const QualifiedAttributes& source) override;

 private:
  // Pops the oldest recorded answer for `subject`, if any.
  template <typename T>
  bool Pop(std::map<std::string, std::deque<T>>* queues,
           const std::string& subject, T* out) {
    auto it = queues->find(subject);
    if (it == queues->end() || it->second.empty()) return false;
    *out = std::move(it->second.front());
    it->second.pop_front();
    return true;
  }

  ExpertOracle* fallback_ = nullptr;  // not owned; may be null
  DefaultOracle default_oracle_;
  std::map<std::string, std::deque<NeiDecision>> nei_;
  std::map<std::string, std::deque<bool>> enforce_;
  std::map<std::string, std::deque<bool>> validate_;
  std::map<std::string, std::deque<bool>> hidden_;
  std::map<std::string, std::deque<std::string>> fd_names_;
  std::map<std::string, std::deque<std::string>> hidden_names_;
};

}  // namespace dbre

#endif  // DBRE_CORE_REPLAY_ORACLE_H_
