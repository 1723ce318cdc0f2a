// End-to-end resilience: training -> bias elimination -> client queries
// under injected faults. The suite asserts the self-healing contract of
// DESIGN.md Sec. 12 — no crash, no NaN in any query answer, a populated
// Status/report on every failure path — and that with fail points
// configured but not firing the pipeline is bit-identical to a run with
// the subsystem disabled.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "aqp/query.h"
#include "aqp/sql_parser.h"
#include "data/generators.h"
#include "ensemble/ensemble_model.h"
#include "ensemble/partitioning.h"
#include "relation/table.h"
#include "server/server.h"
#include "server/socket_client.h"
#include "server/socket_transport.h"
#include "server/transport.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "vae/client.h"
#include "vae/vae_model.h"
#include "vae/workflow.h"

namespace deepaqp {
namespace {

/// Every scenario starts and ends with the registry clean so no trigger
/// state leaks across tests (the registry is process-global).
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { util::DisableFailpoints(); }
  void TearDown() override { util::DisableFailpoints(); }
};

relation::Table ChaosTable() {
  return data::GenerateTaxi({.rows = 800, .seed = 5});
}

vae::VaeAqpOptions ChaosOptions() {
  vae::VaeAqpOptions opts;
  opts.epochs = 5;
  opts.hidden_dim = 32;
  opts.seed = 31;
  opts.encoder.numeric_bins = 16;
  return opts;
}

/// One healthy model (trained with fail points disabled), shared as bytes
/// so each scenario deserializes its own pristine instance.
const std::vector<uint8_t>& HealthyModelBytes() {
  static const std::vector<uint8_t>* bytes = [] {
    util::DisableFailpoints();
    auto model = vae::VaeAqpModel::Train(ChaosTable(), ChaosOptions());
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    return new std::vector<uint8_t>((*model)->Serialize());
  }();
  return *bytes;
}

std::unique_ptr<vae::VaeAqpModel> OpenHealthy() {
  auto model = vae::VaeAqpModel::Deserialize(HealthyModelBytes());
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(*model);
}

void ExpectAllNumericCellsFinite(const relation::Table& t) {
  for (size_t c = 0; c < t.num_attributes(); ++c) {
    if (t.schema().IsCategorical(c)) continue;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      ASSERT_TRUE(std::isfinite(t.NumValue(r, c)))
          << "row " << r << " col " << c;
    }
  }
}

void ExpectTablesIdentical(const relation::Table& a,
                           const relation::Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t c = 0; c < a.num_attributes(); ++c) {
    for (size_t r = 0; r < a.num_rows(); ++r) {
      if (a.schema().IsCategorical(c)) {
        ASSERT_EQ(a.CatCode(r, c), b.CatCode(r, c));
      } else {
        ASSERT_EQ(a.NumValue(r, c), b.NumValue(r, c));  // bitwise
      }
    }
  }
}

aqp::AggregateQuery AvgFareQuery(const relation::Schema& schema) {
  aqp::AggregateQuery q;
  q.agg = aqp::AggFunc::kAvg;
  q.measure_attr = schema.IndexOf("fare");
  return q;
}

// ---------------------------------------------------------------------------
// Determinism contract: configured-but-dormant fail points change nothing.

TEST_F(ChaosTest, ConfiguredButNotFiringIsBitIdentical) {
  // Training with every relevant site present but `off` must serialize to
  // the exact bytes of the fully disabled run.
  ASSERT_TRUE(util::ConfigureFailpoints(
                  "vae/train_epoch=off,nn/gemm=off,vae/sample_chunk=off,"
                  "arena/acquire=off,snapshot/open=off,snapshot/section=off")
                  .ok());
  auto model = vae::VaeAqpModel::Train(ChaosTable(), ChaosOptions());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ((*model)->Serialize(), HealthyModelBytes());

  // Generation: disabled vs dormant vs arena-fault-under-fire. The arena
  // site only drops buffer reuse (alloc pressure), never numerics, so even
  // `always` must leave the sample pool bit-identical.
  util::DisableFailpoints();
  auto baseline_model = OpenHealthy();
  util::Rng rng_a(777);
  relation::Table baseline =
      baseline_model->Generate(700, baseline_model->default_t(), rng_a);

  ASSERT_TRUE(util::ConfigureFailpoints("nn/gemm=off,vae/sample_chunk=off")
                  .ok());
  util::Rng rng_b(777);
  relation::Table dormant =
      baseline_model->Generate(700, baseline_model->default_t(), rng_b);
  ExpectTablesIdentical(baseline, dormant);

  ASSERT_TRUE(util::ConfigureFailpoints("arena/acquire=always").ok());
  util::Rng rng_c(777);
  relation::Table arena_fire =
      baseline_model->Generate(700, baseline_model->default_t(), rng_c);
  ExpectTablesIdentical(baseline, arena_fire);
}

// ---------------------------------------------------------------------------
// Self-healing training.

TEST_F(ChaosTest, TrainRollsBackAndRecoversFromTransientFault) {
  ASSERT_TRUE(util::ConfigureFailpoints("vae/train_epoch=once").ok());
  vae::TrainingStats stats;
  vae::VaeAqpOptions opts = ChaosOptions();
  auto model = vae::VaeAqpModel::Train(ChaosTable(), opts, &stats);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(stats.report.divergence_events, 1);
  EXPECT_EQ(stats.report.rollbacks, 1);
  // One backoff step was spent on the retry.
  EXPECT_FLOAT_EQ(stats.report.final_learning_rate,
                  opts.learning_rate * opts.divergence_lr_backoff);
  // All configured epochs were ultimately kept (the faulted one retrained).
  EXPECT_EQ(stats.epochs.size(), static_cast<size_t>(opts.epochs));

  // The healed model is fully usable.
  util::Rng rng(3);
  relation::Table sample = (*model)->Generate(200, (*model)->default_t(), rng);
  EXPECT_EQ(sample.num_rows(), 200u);
  ExpectAllNumericCellsFinite(sample);
}

TEST_F(ChaosTest, TrainExhaustsRetriesWithDescriptiveStatus) {
  ASSERT_TRUE(util::ConfigureFailpoints("vae/train_epoch=always").ok());
  vae::TrainingStats stats;
  vae::VaeAqpOptions opts = ChaosOptions();
  auto model = vae::VaeAqpModel::Train(ChaosTable(), opts, &stats);
  ASSERT_FALSE(model.ok());
  const std::string message = model.status().ToString();
  EXPECT_NE(message.find("diverged"), std::string::npos) << message;
  EXPECT_NE(message.find("rollback retries"), std::string::npos) << message;
  EXPECT_NE(message.find("injected fault"), std::string::npos) << message;
  // The report is populated even on the failure path.
  EXPECT_EQ(stats.report.rollbacks, opts.max_divergence_retries);
  EXPECT_EQ(stats.report.divergence_events, opts.max_divergence_retries + 1);
}

// ---------------------------------------------------------------------------
// Degraded generation: faults absorbed, counters populated, output finite.

TEST_F(ChaosTest, GenerationAbsorbsComputeFaults) {
  auto model = OpenHealthy();
  ASSERT_TRUE(util::ConfigureFailpoints("seed=11,nn/gemm=p:0.2").ok());
  vae::GenerateStats stats;
  util::Rng rng(42);
  relation::Table sample =
      model->Generate(500, model->default_t(), rng, &stats);
  EXPECT_EQ(sample.num_rows(), 500u);  // faults cost retries, not rows
  ExpectAllNumericCellsFinite(sample);
  // The poisoned forwards were actually seen and absorbed somewhere.
  EXPECT_GT(stats.nonfinite_ratios + stats.nonfinite_rows_dropped, 0u);
}

TEST_F(ChaosTest, SampleChunkFaultsAreCountedRejections) {
  auto model = OpenHealthy();
  ASSERT_TRUE(util::ConfigureFailpoints("vae/sample_chunk=always").ok());
  vae::GenerateStats stats;
  util::Rng rng(9);
  // A finite threshold forces the rejection path where the site lives.
  relation::Table sample = model->Generate(300, 0.0, rng, &stats);
  EXPECT_EQ(sample.num_rows(), 300u);
  ExpectAllNumericCellsFinite(sample);
  // Every window poisons exactly one candidate's log-ratio; each must be
  // rejected explicitly (not slip through as an accept).
  EXPECT_GE(stats.nonfinite_ratios, 1u);
}

TEST_F(ChaosTest, SelectivePredicateReportsShortfall) {
  // No faults needed: an unsatisfiable predicate exhausts the candidate
  // budget and the result must say so instead of silently under-sampling.
  auto model = OpenHealthy();
  aqp::Predicate impossible;
  impossible.conditions.push_back(
      {static_cast<size_t>(model->tuple_encoder().schema().IndexOf("fare")),
       aqp::CmpOp::kGt, 1e18});
  util::Rng rng(12);
  vae::GenerateWhereResult result = model->GenerateWhereReport(
      100, impossible, vae::kTPlusInf, rng, /*max_candidates=*/2048);
  EXPECT_EQ(result.rows.num_rows(), 0u);
  EXPECT_EQ(result.requested, 100u);
  EXPECT_EQ(result.shortfall(), 100u);
  EXPECT_GE(result.candidates, 2048u);  // the budget was actually spent
}

// ---------------------------------------------------------------------------
// Bias elimination degradation -> client-visible CI widening.

TEST_F(ChaosTest, CrossMatchFaultDegradesBiasEliminationAndWidensClientCi) {
  auto model = OpenHealthy();
  ASSERT_TRUE(util::ConfigureFailpoints("stats/cross_match=always").ok());
  vae::BiasEliminationOptions beopts;
  beopts.test_points = 64;
  beopts.max_iterations = 2;
  auto be = vae::EliminateModelBias(*model, ChaosTable(), beopts);
  ASSERT_TRUE(be.ok()) << be.status().ToString();  // best-effort, not fatal
  EXPECT_EQ(be->outcome, vae::BiasEliminationOutcome::kDegraded);
  EXPECT_FALSE(be->passed);
  ASSERT_FALSE(be->warnings.empty());
  EXPECT_NE(be->warnings[0].find("injected fault"), std::string::npos);

  // The client serves best-effort answers with visibly wider intervals.
  util::DisableFailpoints();
  vae::AqpClient::Options copts;
  copts.initial_samples = 400;
  copts.max_samples = 1600;
  copts.population_rows = 800;
  auto client = vae::AqpClient::Wrap(std::move(model), copts);
  aqp::AggregateQuery q = AvgFareQuery(client->pool().schema());
  auto before = client->Query(q);
  ASSERT_TRUE(before.ok());

  client->NoteBiasElimination(*be);
  EXPECT_EQ(client->ci_inflation(), 1.5);
  ASSERT_FALSE(client->warnings().empty());
  auto after = client->Query(q);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->groups.size(), before->groups.size());
  for (size_t i = 0; i < after->groups.size(); ++i) {
    // Estimates unchanged, stated uncertainty widened by exactly 1.5x.
    EXPECT_EQ(after->groups[i].value, before->groups[i].value);
    EXPECT_DOUBLE_EQ(after->groups[i].ci_half_width,
                     before->groups[i].ci_half_width * 1.5);
  }

  // A later passed run clears the inflation.
  vae::BiasEliminationResult passed;
  passed.outcome = vae::BiasEliminationOutcome::kPassed;
  client->NoteBiasElimination(passed);
  EXPECT_EQ(client->ci_inflation(), 1.0);
}

TEST_F(ChaosTest, NonFiniteProjectionDegradesBiasEliminationNotAborts) {
  // Every GEMM output carries a NaN, so the latent points the cross-match
  // test pairs are non-finite. The test refuses them with a Status rather
  // than letting a NaN reach the matchers, and Algorithm 1 reports
  // kDegraded. 8 points per side take the exact matcher, 20 the greedy +
  // 3-opt one.
  for (size_t points : {8u, 20u}) {
    auto model = OpenHealthy();
    ASSERT_TRUE(util::ConfigureFailpoints("nn/gemm=always").ok());
    vae::BiasEliminationOptions beopts;
    beopts.test_points = points;
    beopts.max_iterations = 2;
    auto be = vae::EliminateModelBias(*model, ChaosTable(), beopts);
    util::DisableFailpoints();
    ASSERT_TRUE(be.ok()) << be.status().ToString();
    EXPECT_EQ(be->outcome, vae::BiasEliminationOutcome::kDegraded)
        << points << " points per side";
    EXPECT_FALSE(be->passed);
    ASSERT_FALSE(be->warnings.empty());
    EXPECT_NE(be->warnings.back().find("must be finite"), std::string::npos)
        << be->warnings.back();
  }
}

TEST_F(ChaosTest, ExhaustedIterationBudgetAlsoWidensClientCi) {
  auto model = OpenHealthy();
  vae::BiasEliminationOptions beopts;
  beopts.test_points = 64;
  beopts.max_iterations = 0;  // budget gone before the first round
  auto be = vae::EliminateModelBias(*model, ChaosTable(), beopts);
  ASSERT_TRUE(be.ok());
  EXPECT_EQ(be->outcome, vae::BiasEliminationOutcome::kBudgetExhausted);
  EXPECT_FALSE(be->passed);
  EXPECT_FALSE(be->warnings.empty());

  vae::AqpClient::Options copts;
  copts.initial_samples = 200;
  copts.population_rows = 800;
  auto client = vae::AqpClient::Wrap(std::move(model), copts);
  client->NoteBiasElimination(*be);
  EXPECT_EQ(client->ci_inflation(), 1.5);
}

// ---------------------------------------------------------------------------
// Snapshot faults surface as clean Status, then recover.

TEST_F(ChaosTest, SnapshotFaultSurfacesStatusAndRecovers) {
  ASSERT_TRUE(util::ConfigureFailpoints("snapshot/open=once").ok());
  auto failed = vae::VaeAqpModel::Deserialize(HealthyModelBytes());
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().ToString().find("injected fault"),
            std::string::npos);
  // The trigger disarmed itself: the very next load succeeds.
  auto recovered = vae::VaeAqpModel::Deserialize(HealthyModelBytes());
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
}

// ---------------------------------------------------------------------------
// The full sweep: every site armed at low probability, end to end.

TEST_F(ChaosTest, EndToEndSweepStaysFiniteAndLogsFaults) {
  // Fallback model loaded while fail points are still disabled, in case
  // chaos training legitimately gives up.
  auto fallback = OpenHealthy();

  ASSERT_TRUE(util::ConfigureFailpoints(
                  "seed=2026,"
                  "snapshot/open=p:0.01,snapshot/section=p:0.01,"
                  "io/read=p:0.01,io/write=p:0.01,"
                  "arena/acquire=p:0.01,nn/gemm=p:0.01,"
                  "stats/cross_match=p:0.01,vae/train_epoch=p:0.01,"
                  "vae/sample_chunk=p:0.01,ensemble/train_member=p:0.01")
                  .ok());

  // Training either completes (possibly via rollbacks) or returns a
  // descriptive Status — never crashes, never yields a silent bad model.
  vae::TrainingStats stats;
  auto trained = vae::VaeAqpModel::Train(ChaosTable(), ChaosOptions(), &stats);
  std::unique_ptr<vae::VaeAqpModel> model;
  if (trained.ok()) {
    model = std::move(*trained);
  } else {
    EXPECT_FALSE(trained.status().ToString().empty());
    model = std::move(fallback);
  }

  // Ensemble training under the same sweep: completes (degraded or not)
  // with a populated report, or fails with a descriptive Status.
  {
    auto table = ChaosTable();
    auto groups = ensemble::GroupByAttribute(table, 0, 0.02);
    ensemble::Partition partition;
    for (size_t g = 0; g < std::min<size_t>(2, groups.size()); ++g) {
      partition.parts.push_back({static_cast<int>(g)});
    }
    ensemble::EnsembleTrainReport report;
    auto ens = ensemble::EnsembleModel::Train(table, groups, partition,
                                              ChaosOptions(), &report);
    if (ens.ok()) {
      EXPECT_EQ(report.members_total, partition.parts.size());
      EXPECT_GT(report.members_trained, 0u);
      EXPECT_GT(report.coverage, 0.0);
    } else {
      EXPECT_FALSE(ens.status().ToString().empty());
      EXPECT_EQ(report.coverage, 0.0);
    }
  }

  // Bias elimination: any outcome is legal under faults; a best-effort
  // result must carry an outcome the client knows how to act on.
  vae::BiasEliminationOptions beopts;
  beopts.test_points = 64;
  beopts.max_iterations = 2;
  auto be = vae::EliminateModelBias(*model, ChaosTable(), beopts);

  // Query path: aggregates must be finite no matter what fired upstream.
  vae::AqpClient::Options copts;
  copts.initial_samples = 500;
  copts.max_samples = 2000;
  copts.population_rows = 800;
  auto client = vae::AqpClient::Wrap(std::move(model), copts);
  if (be.ok()) client->NoteBiasElimination(*be);
  ExpectAllNumericCellsFinite(client->pool());

  aqp::AggregateQuery avg = AvgFareQuery(client->pool().schema());
  aqp::AggregateQuery grouped = avg;
  grouped.group_by_attr = client->pool().schema().IndexOf("pickup_borough");
  for (const aqp::AggregateQuery& q : {avg, grouped}) {
    auto result = client->Query(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const auto& g : result->groups) {
      EXPECT_TRUE(std::isfinite(g.value));
      EXPECT_TRUE(std::isfinite(g.ci_half_width));
      EXPECT_GE(g.ci_half_width, 0.0);
    }
  }

  // Persist the structured fault log (the CI chaos job uploads it).
  auto report = util::FailpointReport();
  ASSERT_FALSE(report.empty());
  uint64_t evaluations = 0;
  for (const auto& s : report) evaluations += s.evaluations;
  EXPECT_GT(evaluations, 0u);  // the sweep really exercised the sites
  const std::string json = util::FailpointReportJson();
  std::FILE* f = std::fopen("CHAOS_FAULTS.json", "w");
  ASSERT_NE(f, nullptr);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Server daemon faults: an injected failure in any serving-path site is a
// session-scoped error response — never process death, never a wedged
// server.

server::AqpServer::Options ServerChaosOptions() {
  server::AqpServer::Options opts;
  opts.client.initial_samples = 200;
  opts.client.max_samples = 1600;
  opts.client.population_rows = 800;
  opts.client.seed = 99;
  return opts;
}

/// Drives one query over the pipe to completion; returns the decoded final
/// estimate, or the stream's error. The pipe is ordered and lossless, so the
/// reply to the query is its start notification, every later message
/// belongs to the stream, and no frame arrives twice.
util::Result<server::Estimate> RunServerQuery(
    server::AqpServer& srv, const std::shared_ptr<server::PipeTransport>& pipe,
    uint64_t session, const std::string& sql, double max_relative_ci) {
  server::ClientMessage query;
  query.kind = server::ClientMessageKind::kQuery;
  query.session = session;
  query.sql = sql;
  query.max_relative_ci = max_relative_ci;
  srv.Handle(query, pipe);

  const server::ServerMessage first = pipe->Pop();
  if (first.kind != server::ServerMessageKind::kQueryStarted) {
    EXPECT_EQ(first.kind, server::ServerMessageKind::kError);
    return util::Status::Internal(first.message);
  }
  server::ChannelConsumer consumer(first.channel);
  std::vector<uint8_t> last_payload;
  while (!consumer.finished()) {
    server::ServerMessage msg = pipe->Pop();
    if (msg.kind != server::ServerMessageKind::kData) {
      EXPECT_EQ(msg.kind, server::ServerMessageKind::kError);
      return util::Status::Internal(msg.message);
    }
    EXPECT_EQ(msg.channel, first.channel);
    DEEPAQP_RETURN_IF_ERROR(consumer.OnData(msg.data));
    for (auto& p : consumer.TakeDelivered()) last_payload = std::move(p);
    server::ClientMessage ack;
    ack.kind = server::ClientMessageKind::kAck;
    ack.session = session;
    ack.ack = consumer.MakeAck();
    srv.Handle(ack, pipe);
  }
  EXPECT_EQ(consumer.stats().duplicates, 0u);
  return server::DecodeEstimate(last_payload);
}

uint64_t OpenServerSession(server::AqpServer& srv,
                           const std::shared_ptr<server::PipeTransport>& pipe) {
  server::ClientMessage open;
  open.kind = server::ClientMessageKind::kOpenSession;
  open.model_name = "m";
  srv.Handle(open, pipe);
  server::ServerMessage reply = pipe->Pop();
  EXPECT_EQ(reply.kind, server::ServerMessageKind::kSessionOpened);
  return reply.session;
}

TEST_F(ChaosTest, ServerRegistryLoadFaultLeavesOldVersionServing) {
  server::AqpServer srv(ServerChaosOptions());
  auto v1 = srv.registry().Register("m", HealthyModelBytes());
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();

  ASSERT_TRUE(util::ConfigureFailpoints("server/registry_load=once").ok());
  auto failed = srv.registry().Register("m", HealthyModelBytes());
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().ToString().find("injected fault"),
            std::string::npos);
  // The previous version is untouched and keeps serving new sessions.
  EXPECT_EQ(srv.registry().VersionOf("m"), 1u);
  auto pipe = std::make_shared<server::PipeTransport>();
  uint64_t session = OpenServerSession(srv, pipe);
  auto result = RunServerQuery(srv, pipe, session,
                               "SELECT AVG(fare) FROM R", 0.1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(std::isfinite(result->result.Scalar()));

  // The trigger disarmed itself: the next hot swap succeeds as version 2.
  auto v2 = srv.registry().Register("m", HealthyModelBytes());
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(*v2, 2u);
}

TEST_F(ChaosTest, ServerEnqueueFaultIsErrorResponseNotDeath) {
  server::AqpServer srv(ServerChaosOptions());
  ASSERT_TRUE(srv.registry().Register("m", HealthyModelBytes()).ok());
  auto pipe = std::make_shared<server::PipeTransport>();
  uint64_t session = OpenServerSession(srv, pipe);
  srv.WaitIdle();

  // The scheduler refuses the query's strand task; the client gets an
  // error response and the session object survives.
  ASSERT_TRUE(util::ConfigureFailpoints("server/enqueue=once").ok());
  auto failed =
      RunServerQuery(srv, pipe, session, "SELECT AVG(fare) FROM R", 0.1);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().ToString().find("injected fault"),
            std::string::npos);
  EXPECT_EQ(srv.num_sessions(), 1u);

  // Resubmitting on the same session completes normally.
  auto retried =
      RunServerQuery(srv, pipe, session, "SELECT AVG(fare) FROM R", 0.1);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE(std::isfinite(retried->result.Scalar()));
}

TEST_F(ChaosTest, ServerChannelSendFaultFailsStreamNotSession) {
  server::AqpServer srv(ServerChaosOptions());
  ASSERT_TRUE(srv.registry().Register("m", HealthyModelBytes()).ok());
  auto pipe = std::make_shared<server::PipeTransport>();
  uint64_t session = OpenServerSession(srv, pipe);
  srv.WaitIdle();

  // The first frame push fails; the stream dies with an error response,
  // the session does not.
  ASSERT_TRUE(util::ConfigureFailpoints("server/channel_send=once").ok());
  auto failed =
      RunServerQuery(srv, pipe, session, "SELECT AVG(fare) FROM R", 0.1);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().ToString().find("injected fault"),
            std::string::npos);
  EXPECT_EQ(srv.num_sessions(), 1u);

  // The next stream on the same session completes with finite estimates
  // (the failed push may have grown the pool, so only finiteness — not a
  // particular trajectory — is guaranteed here).
  auto next = RunServerQuery(srv, pipe, session,
                             "SELECT AVG(fare) FROM R WHERE trip_distance > 1",
                             0.1);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  for (const auto& g : next->result.groups) {
    EXPECT_TRUE(std::isfinite(g.value));
    EXPECT_TRUE(std::isfinite(g.ci_half_width));
  }
}

/// A pipe that arms a fail-point spec when the first DATA frame passes
/// through it. Delivery runs on the session's strand, after the step that
/// made the frame and before that step posts its continuation, so the next
/// evaluation of an armed server site is that continuation's post.
class ArmOnFirstDataPipe : public server::PipeTransport {
 public:
  explicit ArmOnFirstDataPipe(std::string spec) : spec_(std::move(spec)) {}

  util::Status Deliver(const server::ServerMessage& message) override {
    if (message.kind == server::ServerMessageKind::kData &&
        !armed_.exchange(true)) {
      EXPECT_TRUE(util::ConfigureFailpoints(spec_).ok());
    }
    return PipeTransport::Deliver(message);
  }

 private:
  std::string spec_;
  std::atomic<bool> armed_{false};
};

TEST_F(ChaosTest, ServerContinuationEnqueueFaultFailsStreamNotSession) {
  server::AqpServer srv(ServerChaosOptions());
  ASSERT_TRUE(srv.registry().Register("m", HealthyModelBytes()).ok());
  auto pipe = std::make_shared<ArmOnFirstDataPipe>("server/enqueue=once");
  uint64_t session = OpenServerSession(srv, pipe);
  srv.WaitIdle();

  // A precision no group meets: after its first frame the stream must
  // refine again, with no client event due, so the session posts a
  // continuation — which the armed fault refuses. Nothing is acked here, so
  // no client request competes for the one-shot fault.
  const std::string first_sql = "SELECT AVG(fare) FROM R";
  server::ClientMessage query;
  query.kind = server::ClientMessageKind::kQuery;
  query.session = session;
  query.sql = first_sql;
  query.max_relative_ci = 1e-9;
  srv.Handle(query, pipe);
  server::ServerMessage started = pipe->Pop();
  ASSERT_EQ(started.kind, server::ServerMessageKind::kQueryStarted)
      << started.message;
  server::ServerMessage frame = pipe->Pop();
  ASSERT_EQ(frame.kind, server::ServerMessageKind::kData) << frame.message;
  EXPECT_EQ(frame.data.seq, 0u);
  EXPECT_FALSE(frame.data.final);
  // The stream fails on its own channel instead of staying open with
  // nothing left to resume it.
  server::ServerMessage failed = pipe->Pop();
  ASSERT_EQ(failed.kind, server::ServerMessageKind::kError);
  EXPECT_EQ(failed.channel, started.channel);
  EXPECT_NE(failed.message.find("injected fault"), std::string::npos)
      << failed.message;
  srv.WaitIdle();
  EXPECT_EQ(srv.ActiveStreams(), 0u);
  EXPECT_EQ(srv.num_sessions(), 1u);

  // The session survives and its next query completes. The failed stream
  // left one pool doubling pending, which the next query generates first:
  // the answer is a direct client's after one refinement of the first
  // query.
  const std::string next_sql =
      "SELECT AVG(fare) FROM R WHERE trip_distance > 1";
  auto next = RunServerQuery(srv, pipe, session, next_sql, 0.1);
  ASSERT_TRUE(next.ok()) << next.status().ToString();

  auto direct = vae::AqpClient::Open(HealthyModelBytes(),
                                     ServerChaosOptions().client);
  ASSERT_TRUE(direct.ok());
  auto first_query = aqp::ParseSql(first_sql, (*direct)->pool());
  ASSERT_TRUE(first_query.ok());
  bool final = false;
  ASSERT_TRUE((*direct)->QueryRefineStep(*first_query, 1e-9, &final).ok());
  ASSERT_FALSE(final);
  auto next_query = aqp::ParseSql(next_sql, (*direct)->pool());
  ASSERT_TRUE(next_query.ok());
  server::Estimate expected;
  do {
    auto result = (*direct)->QueryRefineStep(*next_query, 0.1, &final);
    ASSERT_TRUE(result.ok());
    expected.pool_rows = (*direct)->pool_size();
    expected.result = std::move(*result);
  } while (!final);
  EXPECT_EQ(server::EncodeEstimate(*next), server::EncodeEstimate(expected));
}

// ---------------------------------------------------------------------------
// Socket transport faults: every injected socket-layer failure has a blast// ---------------------------------------------------------------------------
// Socket transport faults: every injected socket-layer failure has a blast
// radius of exactly one connection (and at most one dial). Sessions outlive
// their connections, other clients never notice, the process never dies.

/// One loopback TCP server over ServerChaosOptions, model "m" registered.
/// Heartbeats tick but the natural liveness deadline is far away, so only
/// an injected fault ever reaps a connection.
struct ChaosTcpServer {
  ChaosTcpServer() {
    srv = std::make_unique<server::AqpServer>(ServerChaosOptions());
    auto version = srv->registry().Register("m", HealthyModelBytes());
    EXPECT_TRUE(version.ok()) << version.status().ToString();
    server::SocketServer::Options sopts;
    sopts.port = 0;  // ephemeral
    sopts.heartbeat_ms = 200;
    sopts.heartbeat_misses = 1000;
    sock = std::make_unique<server::SocketServer>(srv.get(), sopts);
    EXPECT_TRUE(sock->Listen().ok());
    EXPECT_TRUE(sock->Start().ok());
  }
  ~ChaosTcpServer() {
    util::DisableFailpoints();  // a socket fault must never hit the drain
    sock->Shutdown();
  }
  std::unique_ptr<server::AqpServer> srv;
  std::unique_ptr<server::SocketServer> sock;
};

server::RetryingConnection::Options ChaosClient(const ChaosTcpServer& ts) {
  server::RetryingConnection::Options copts;
  copts.port = ts.sock->port();
  return copts;
}

void ExpectFiniteFinal(const server::RetryingConnection::StreamResult& s) {
  ASSERT_FALSE(s.estimates.empty());
  EXPECT_TRUE(std::isfinite(s.estimates.back().result.Scalar()));
}

TEST_F(ChaosTest, SocketAcceptFaultDropsOneDialNotTheListener) {
  ChaosTcpServer ts;
  ASSERT_TRUE(util::ConfigureFailpoints("socket/accept=once").ok());

  // The first TCP handshake completes via the kernel backlog but the server
  // drops the accepted socket, so the open handshake dies with it; the
  // supervised client redials (the listener survived the fault) and the
  // second dial serves normally.
  server::RetryingConnection client(ChaosClient(ts));
  ASSERT_TRUE(client.OpenSession("m").ok());
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_EQ(ts.sock->num_connections(), 1u);  // only the redial survived
  util::DisableFailpoints();

  auto result = client.RunQuery("SELECT AVG(fare) FROM R", 0.1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectFiniteFinal(*result);
  EXPECT_EQ(ts.srv->num_sessions(), 1u);
}

TEST_F(ChaosTest, SocketReadFaultCostsOneConnectionStreamResumes) {
  ChaosTcpServer ts;
  server::RetryingConnection client(ChaosClient(ts));
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.OpenSession("m").ok());

  // The read of the query frame kills the connection server-side; the
  // supervised client reconnects, resumes by token and re-sends the query.
  ASSERT_TRUE(util::ConfigureFailpoints("socket/read=once").ok());
  auto result = client.RunQuery("SELECT AVG(fare) FROM R", 0.1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectFiniteFinal(*result);
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_EQ(ts.srv->num_sessions(), 1u);
  util::DisableFailpoints();

  // Other clients were never in the blast radius.
  server::RetryingConnection other(ChaosClient(ts));
  ASSERT_TRUE(other.Connect().ok());
  ASSERT_TRUE(other.OpenSession("m").ok());
  auto second = other.RunQuery("SELECT COUNT(*) FROM R", 0.1);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(other.reconnects(), 0u);
  EXPECT_EQ(ts.srv->num_sessions(), 2u);
}

TEST_F(ChaosTest, SocketWriteFaultCostsOneConnectionStreamResumes) {
  ChaosTcpServer ts;
  server::RetryingConnection client(ChaosClient(ts));
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.OpenSession("m").ok());

  // The first server->client write after arming (the stream's start
  // notification or first frame) fails; same supervised recovery.
  ASSERT_TRUE(util::ConfigureFailpoints("socket/write=once").ok());
  auto result = client.RunQuery("SELECT AVG(fare) FROM R", 0.1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectFiniteFinal(*result);
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_EQ(ts.srv->num_sessions(), 1u);
}

TEST_F(ChaosTest, HeartbeatMissReapsOneConnectionSessionsSurvive) {
  ChaosTcpServer ts;
  server::RetryingConnection a(ChaosClient(ts));
  server::RetryingConnection b(ChaosClient(ts));
  ASSERT_TRUE(a.Connect().ok());
  ASSERT_TRUE(a.OpenSession("m").ok());
  ASSERT_TRUE(b.Connect().ok());
  ASSERT_TRUE(b.OpenSession("m").ok());
  EXPECT_EQ(ts.sock->num_connections(), 2u);
  EXPECT_EQ(ts.srv->num_sessions(), 2u);

  // One injected liveness expiry: the next heartbeat tick reaps exactly one
  // connection. Sessions are connection-independent, so both survive.
  ASSERT_TRUE(util::ConfigureFailpoints("server/heartbeat_miss=once").ok());
  for (int i = 0; i < 400 && ts.sock->reaped_connections() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(ts.sock->reaped_connections(), 1u);
  EXPECT_EQ(ts.sock->num_connections(), 1u);
  EXPECT_EQ(ts.srv->num_sessions(), 2u);
  util::DisableFailpoints();

  // Both clients still complete streams; only the reaped one reconnects.
  auto ra = a.RunQuery("SELECT AVG(fare) FROM R", 0.1);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  auto rb = b.RunQuery("SELECT COUNT(*) FROM R", 0.1);
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_EQ(a.reconnects() + b.reconnects(), 1u);
  EXPECT_EQ(ts.srv->num_sessions(), 2u);
}

TEST_F(ChaosTest, AdmissionFaultShedsOneOpenNotTheServer) {
  ChaosTcpServer ts;
  ASSERT_TRUE(util::ConfigureFailpoints("server/admission=once").ok());

  // The open is shed with a typed SERVER_BUSY the client surfaces to its
  // caller (shedding only works if shed clients actually back off); the
  // connection itself stays healthy.
  server::RetryingConnection client(ChaosClient(ts));
  ASSERT_TRUE(client.Connect().ok());
  util::Status shed = client.OpenSession("m");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), util::StatusCode::kUnavailable);
  EXPECT_NE(shed.message().find("SERVER_BUSY"), std::string::npos);
  EXPECT_EQ(ts.srv->num_sessions(), 0u);

  // The trigger disarmed itself: the retry on the same connection serves.
  ASSERT_TRUE(client.OpenSession("m").ok());
  auto result = client.RunQuery("SELECT AVG(fare) FROM R", 0.1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectFiniteFinal(*result);
  EXPECT_EQ(ts.srv->num_sessions(), 1u);
}

}  // namespace
}  // namespace deepaqp
