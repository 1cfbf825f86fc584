// P-service — throughput and question latency of the dbred daemon under
// concurrent scripted clients.
//
// An in-process Server is exposed over real TCP (loopback, ephemeral
// port); for each concurrency level every client thread drives complete
// sessions end to end: create, load DDL + CSV, add a join whose non-empty
// intersection guarantees exactly one oracle question, run with the async
// oracle, wait for the question, answer it over the wire, wait for
// completion, fetch the report, close. Two numbers per level:
//
//   sessions_per_sec  completed sessions / wall-clock across all clients
//   question round trip (p50/p99, us)
//                     wait(for=question) observing a pending question
//                     through the server acknowledging the answer —
//                     the latency an expert's UI would feel.
//
// Three sections: the epoll EventLoopServer transport over one Server, a
// router-fronted fleet of in-process workers at 1/2/4 workers, and session
// migration latency (router `migrate` round trips over a shared data dir). Levels record
// hardware_concurrency so scaling numbers are read against the cores that
// were actually available.
//
// Plain chrono harness (google-benchmark fits poorly around multi-thread
// client fleets); prints a JSON document on stdout. Recorded baseline:
// BENCH_service.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "cluster/service_transport.h"
#include "service/json.h"
#include "service/server.h"
#include "service/transport.h"

namespace {

using dbre::cluster::EventLoopTransport;
using dbre::cluster::Router;
using dbre::cluster::RouterOptions;
using dbre::cluster::RouterWorkerConfig;
using dbre::service::Json;
using dbre::service::Server;
using dbre::service::ServerOptions;
using dbre::service::SocketChannel;
using dbre::service::TcpConnect;

using Clock = std::chrono::steady_clock;

// R[a] = {1,2}, S[c] = {2,3}: the join is non-empty but neither projection
// includes the other, so each run suspends on exactly one NEI question.
constexpr char kDdl[] =
    "CREATE TABLE R (a INTEGER, b TEXT, UNIQUE(a));\n"
    "CREATE TABLE S (c INTEGER, d TEXT, UNIQUE(c));";
constexpr char kCsvR[] = "a,b\n1,x\n2,y\n";
constexpr char kCsvS[] = "c,d\n2,p\n3,q\n";

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perf_service: %s\n", what.c_str());
  std::abort();
}

class Client {
 public:
  explicit Client(uint16_t port) {
    auto channel = TcpConnect("127.0.0.1", port);
    if (!channel.ok()) Die(channel.status().ToString());
    channel_ = std::move(*channel);
  }

  Json Call(Json request) {
    request.Set("id", Json::Int(next_id_++));
    if (!channel_->WriteLine(request.Dump()).ok()) Die("write failed");
    auto line = channel_->ReadLine();
    if (!line.ok()) Die("connection lost");
    auto parsed = Json::Parse(*line);
    if (!parsed.ok()) Die("bad response: " + *line);
    return *parsed;
  }

  Json MustCall(Json request) {
    Json response = Call(std::move(request));
    if (!response.GetBool("ok")) Die("error response: " + response.Dump());
    const Json* result = response.Find("result");
    return result != nullptr ? *result : Json::MakeObject();
  }

 private:
  std::unique_ptr<SocketChannel> channel_;
  int64_t next_id_ = 1;
};

Json Command(const char* cmd, const std::string& session = "") {
  Json request = Json::MakeObject();
  request.Set("cmd", Json::Str(cmd));
  if (!session.empty()) request.Set("session", Json::Str(session));
  return request;
}

// Drives one session start to finish; appends each question round trip
// (seconds) to `latencies`.
void DriveSession(Client* client, std::vector<double>* latencies) {
  std::string session = client->MustCall(Command("create")).GetString("session");

  Json load_ddl = Command("load_ddl", session);
  load_ddl.Set("sql", Json::Str(kDdl));
  client->MustCall(std::move(load_ddl));
  for (const auto& [relation, csv] :
       {std::pair<const char*, const char*>{"R", kCsvR}, {"S", kCsvS}}) {
    Json load_csv = Command("load_csv", session);
    load_csv.Set("relation", Json::Str(relation));
    load_csv.Set("csv", Json::Str(csv));
    client->MustCall(std::move(load_csv));
  }
  Json add_joins = Command("add_joins", session);
  Json joins = Json::MakeArray();
  Json join = Json::MakeObject();
  join.Set("left", Json::Str("R"));
  Json left_attrs = Json::MakeArray();
  left_attrs.Append(Json::Str("a"));
  join.Set("left_attrs", std::move(left_attrs));
  join.Set("right", Json::Str("S"));
  Json right_attrs = Json::MakeArray();
  right_attrs.Append(Json::Str("c"));
  join.Set("right_attrs", std::move(right_attrs));
  joins.Append(std::move(join));
  add_joins.Set("joins", std::move(joins));
  client->MustCall(std::move(add_joins));
  client->MustCall(Command("run", session));

  while (true) {
    Json wait = Command("wait", session);
    wait.Set("for", Json::Str("question"));
    wait.Set("timeout_ms", Json::Int(5000));
    Json waited = client->MustCall(std::move(wait));
    std::string state = waited.GetString("state");
    if (state == "done" || state == "failed") break;
    if (waited.GetInt("pending") == 0) continue;

    // The round trip starts the moment the wait reports a question.
    Clock::time_point asked = Clock::now();
    Json listed = client->MustCall(Command("questions", session));
    for (const Json& question : listed.Find("questions")->array()) {
      Json answer = Command("answer", session);
      answer.Set("question", Json::Int(question.GetInt("qid")));
      answer.Set("action", Json::Str("ignore"));
      Json response = client->Call(std::move(answer));
      if (response.GetBool("ok")) {
        latencies->push_back(
            std::chrono::duration<double>(Clock::now() - asked).count());
      } else if (response.Find("error")->GetString("code") !=
                 "failed_precondition") {
        // Benign race only: the question resolved between the wait and
        // the answer (e.g. a stale pending count). Anything else is real.
        Die("error response: " + response.Dump());
      }
    }
  }

  client->MustCall(Command("report", session));
  client->MustCall(Command("close", session));
}

struct LevelResult {
  int clients = 0;
  int sessions = 0;
  size_t questions = 0;
  double wall_s = 0.0;
  double sessions_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

double Percentile(std::vector<double>* values, double fraction) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  size_t index = static_cast<size_t>(fraction * (values->size() - 1) + 0.5);
  return (*values)[std::min(index, values->size() - 1)];
}

LevelResult RunLevel(uint16_t port, int clients, int sessions_per_client) {
  std::mutex mutex;
  std::vector<double> all_latencies;
  Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client client(port);
      std::vector<double> latencies;
      for (int s = 0; s < sessions_per_client; ++s) {
        DriveSession(&client, &latencies);
      }
      std::lock_guard<std::mutex> lock(mutex);
      all_latencies.insert(all_latencies.end(), latencies.begin(),
                           latencies.end());
    });
  }
  for (std::thread& thread : threads) thread.join();

  LevelResult result;
  result.clients = clients;
  result.sessions = clients * sessions_per_client;
  result.questions = all_latencies.size();
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  result.sessions_per_sec = result.sessions / result.wall_s;
  result.p50_us = Percentile(&all_latencies, 0.50) * 1e6;
  result.p99_us = Percentile(&all_latencies, 0.99) * 1e6;
  return result;
}

ServerOptions BenchServerOptions(const std::string& worker_id = "",
                                 const std::string& data_dir = "") {
  ServerOptions options;
  options.sessions.max_sessions = 256;
  options.sessions.max_inflight_runs = 64;
  options.sessions.max_queued_runs = 256;
  options.sessions.worker_id = worker_id;
  options.sessions.data_dir = data_dir;
  return options;
}

Json LevelJson(const LevelResult& r) {
  Json level = Json::MakeObject();
  level.Set("clients", Json::Int(r.clients));
  level.Set("sessions", Json::Int(r.sessions));
  level.Set("questions", Json::Int(static_cast<int64_t>(r.questions)));
  level.Set("wall_s", Json::Number(r.wall_s));
  level.Set("sessions_per_sec", Json::Number(r.sessions_per_sec));
  level.Set("question_rtt_p50_us", Json::Number(r.p50_us));
  level.Set("question_rtt_p99_us", Json::Number(r.p99_us));
  return level;
}

void PrintLevel(const char* label, int workers, const LevelResult& r) {
  std::fprintf(stderr,
               "%-16s workers=%d clients=%2d  sessions/s=%8.1f  "
               "rtt p50=%7.1fus  p99=%7.1fus\n",
               label, workers, r.clients, r.sessions_per_sec, r.p50_us,
               r.p99_us);
}

// A dbred worker living in this process behind the epoll transport — the
// router only sees host:port, exactly as with a forked dbre_serve.
struct BenchWorker {
  std::unique_ptr<Server> server;
  std::unique_ptr<EventLoopTransport> transport;
};

BenchWorker StartBenchWorker(const std::string& worker_id,
                             const std::string& data_dir = "") {
  BenchWorker worker;
  worker.server =
      std::make_unique<Server>(BenchServerOptions(worker_id, data_dir));
  worker.transport =
      std::make_unique<EventLoopTransport>(worker.server.get());
  if (!worker.transport->Start(0).ok()) Die("worker cannot bind loopback");
  return worker;
}

void StopBenchWorker(BenchWorker* worker) {
  worker->transport->Stop();
  worker->server->sessions()->Shutdown();
}

// Runs the 1/8/32-client ladder against `port` (warming up first),
// appending one level object per client count to `out`.
void RunLadder(const char* label, int workers, uint16_t port,
               int sessions_per_client, Json* out) {
  {
    Client warm(port);
    std::vector<double> scratch;
    DriveSession(&warm, &scratch);
  }
  for (int clients : {1, 8, 32}) {
    LevelResult r = RunLevel(port, clients, sessions_per_client);
    Json level = LevelJson(r);
    if (workers > 0) level.Set("workers", Json::Int(workers));
    out->Append(std::move(level));
    PrintLevel(label, workers, r);
  }
}

// Migration latency: a loaded session bounced between two store-backed
// workers via the router's `migrate` (detach → journal replay → restore).
Json RunMigrationBench(int migrations) {
  std::string data_dir = "/tmp/perf_service_migrate.XXXXXX";
  if (::mkdtemp(data_dir.data()) == nullptr) Die("mkdtemp failed");

  std::vector<BenchWorker> workers;
  workers.push_back(StartBenchWorker("bw1", data_dir));
  workers.push_back(StartBenchWorker("bw2", data_dir));
  std::vector<RouterWorkerConfig> configs = {
      {"bw1", "127.0.0.1", workers[0].transport->port()},
      {"bw2", "127.0.0.1", workers[1].transport->port()},
  };
  RouterOptions options;
  options.health_interval_ms = 0;  // nothing dies here; keep timing clean
  Router router(configs, options);
  if (!router.Start(0).ok()) Die("router cannot bind loopback");

  Client client(router.port());
  Json create = Command("create");
  create.Set("name", Json::Str("mig"));
  client.MustCall(std::move(create));
  Json load_ddl = Command("load_ddl", "mig");
  load_ddl.Set("sql", Json::Str(kDdl));
  client.MustCall(std::move(load_ddl));
  for (const auto& [relation, csv] :
       {std::pair<const char*, const char*>{"R", kCsvR}, {"S", kCsvS}}) {
    Json load_csv = Command("load_csv", "mig");
    load_csv.Set("relation", Json::Str(relation));
    load_csv.Set("csv", Json::Str(csv));
    client.MustCall(std::move(load_csv));
  }

  std::vector<double> rtt;          // client-observed migrate round trip
  std::vector<double> internal_us;  // router detach→restore span
  const char* targets[] = {"bw2", "bw1"};
  for (int i = 0; i < migrations; ++i) {
    Json migrate = Command("migrate", "mig");
    migrate.Set("to", Json::Str(targets[i % 2]));
    Clock::time_point start = Clock::now();
    Json moved = client.MustCall(std::move(migrate));
    rtt.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    internal_us.push_back(static_cast<double>(moved.GetInt("duration_us")));
  }
  client.MustCall(Command("status", "mig"));
  client.MustCall(Command("close", "mig"));
  router.Stop();
  for (BenchWorker& worker : workers) StopBenchWorker(&worker);
  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);

  double rtt_p50 = Percentile(&rtt, 0.50) * 1e6;
  double rtt_p99 = Percentile(&rtt, 0.99) * 1e6;
  double inner_p50 = Percentile(&internal_us, 0.50);
  double inner_p99 = Percentile(&internal_us, 0.99);
  Json result = Json::MakeObject();
  result.Set("migrations", Json::Int(migrations));
  result.Set("rtt_p50_us", Json::Number(rtt_p50));
  result.Set("rtt_p99_us", Json::Number(rtt_p99));
  result.Set("detach_restore_p50_us", Json::Number(inner_p50));
  result.Set("detach_restore_p99_us", Json::Number(inner_p99));
  std::fprintf(stderr,
               "migrate          n=%d  rtt p50=%7.1fus  p99=%7.1fus  "
               "(detach+restore p50=%7.1fus)\n",
               migrations, rtt_p50, rtt_p99, inner_p50);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int sessions_per_client = 25;
  if (argc > 1) sessions_per_client = std::atoi(argv[1]);

  Json doc = Json::MakeObject();
  doc.Set("benchmark", Json::Str("perf_service"));
  doc.Set("description",
          Json::Str("dbred daemon over loopback TCP: full scripted "
                    "sessions (create/load/run/answer one NEI "
                    "question/report/close) per client; question round "
                    "trip = wait(for=question) reporting a pending "
                    "question through answer acknowledgment. Cluster "
                    "levels drive the same workload through dbre_router "
                    "over 1/2/4 epoll workers; migration is the router's "
                    "detach→restore pair over a shared data dir."));
  doc.Set("sessions_per_client", Json::Int(sessions_per_client));
  doc.Set("hardware_concurrency",
          Json::Int(static_cast<int64_t>(
              std::thread::hardware_concurrency())));

  // 1. One Server behind the epoll event-loop transport.
  {
    Server server(BenchServerOptions());
    EventLoopTransport transport(&server);
    if (!transport.Start(0).ok()) Die("cannot bind loopback");
    Json levels = Json::MakeArray();
    RunLadder("epoll", 0, transport.port(), sessions_per_client, &levels);
    doc.Set("epoll_levels", std::move(levels));
    transport.Stop();
    server.sessions()->Shutdown();
  }

  // 2. Router-fronted fleets: 1, 2 and 4 workers.
  Json cluster_levels = Json::MakeArray();
  for (int n : {1, 2, 4}) {
    std::vector<BenchWorker> workers;
    std::vector<RouterWorkerConfig> configs;
    for (int i = 0; i < n; ++i) {
      std::string id = "cw" + std::to_string(i + 1);
      workers.push_back(StartBenchWorker(id));
      configs.push_back({id, "127.0.0.1", workers.back().transport->port()});
    }
    RouterOptions options;
    options.health_interval_ms = 0;
    Router router(configs, options);
    if (!router.Start(0).ok()) Die("router cannot bind loopback");
    RunLadder("router", n, router.port(), sessions_per_client,
              &cluster_levels);
    router.Stop();
    for (BenchWorker& worker : workers) StopBenchWorker(&worker);
  }
  doc.Set("cluster_levels", std::move(cluster_levels));

  // 3. Migration latency.
  doc.Set("migration", RunMigrationBench(32));

  std::printf("%s\n", doc.Dump().c_str());
  return 0;
}
