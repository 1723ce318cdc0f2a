// Fig. 7: relative error difference vs output decoding strategy. "naive" is
// the library's decode: one stochastic draw per attribute, invalid codes
// clamped. The aggregated strategies draw every attribute 8 times and keep
// the most frequent code ("max-vote x8") or one draw picked uniformly
// ("weighted x8", which has the naive distribution, DESIGN.md Sec. 18).
// The library decodes one draw only, so these two live here, over the
// decoder's logits and the encoder's layout (binary encoding, the bench's
// default). All three rows sample at one threshold, T = +inf (no
// rejection). Expectation (paper): aggregated decoding clearly lowers RED
// versus naive decoding.
//
//   ./bench_fig7_output_decoding [--rows 15000] [--epochs 12]
//                                [--queries 100] [--trials 8]

#include <algorithm>
#include <cmath>

#include "bench_common.h"

using namespace deepaqp;  // NOLINT: bench brevity

namespace {

constexpr int kDraws = 8;

relation::Table AggregatedDecode(const encoding::TupleEncoder& enc,
                                 const nn::Matrix& logits, bool max_vote,
                                 util::Rng& rng) {
  // Decoding no rows yields the empty table with the model's domains.
  relation::Table out = enc.DecodeLogits(nn::Matrix(0, logits.cols()), rng);
  std::vector<relation::Datum> row(out.num_attributes());
  for (size_t r = 0; r < logits.rows(); ++r) {
    for (size_t c = 0; c < row.size(); ++c) {
      const encoding::TupleEncoder::AttrLayout& layout = enc.layout()[c];
      int32_t draws[kDraws];
      for (int32_t& code : draws) {
        code = 0;
        for (size_t b = 0; b < layout.width; ++b) {
          const float z = logits.At(r, layout.offset + b);
          code |= int32_t{rng.Bernoulli(1.0f / (1.0f + std::exp(-z)))} << b;
        }
        code = std::min(code, layout.cardinality - 1);
      }
      std::sort(draws, draws + kDraws);
      int32_t code = max_vote ? draws[0] : draws[rng.NextIndex(kDraws)];
      // Max-vote: the first longest run of equal sorted draws.
      for (int i = 1, run = 1, best = 1; max_vote && i < kDraws; ++i) {
        run = draws[i] == draws[i - 1] ? run + 1 : 1;
        if (run > best) {
          best = run;
          code = draws[i];
        }
      }
      if (!layout.is_numeric) {
        row[c] = relation::Datum::Categorical(code);
        continue;
      }
      const double lo = layout.bin_edges[code];
      const double hi = layout.bin_edges[code + 1];
      row[c] = relation::Datum::Numeric(lo == hi ? lo : rng.Uniform(lo, hi));
    }
    out.AppendRow(row);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 15000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 12));
  const auto queries = static_cast<size_t>(flags.GetInt("queries", 100));
  const int trials = static_cast<int>(flags.GetInt("trials", 8));
  const double sample_frac = flags.GetDouble("sample_frac", 0.05);
  bench::Init(flags);

  const char* const decoders[] = {"naive", "max-vote x8", "weighted x8"};
  for (const std::string dataset : {"census", "flights"}) {
    relation::Table table = bench::MakeDataset(dataset, rows);
    auto workload = bench::MakeWorkload(table, queries);
    // Decoding is a generation-time choice: train once, sweep decoders.
    auto model =
        vae::VaeAqpModel::Train(table, bench::DefaultVaeOptions(epochs));
    if (!model.ok()) return 1;
    const encoding::TupleEncoder& enc = (*model)->tuple_encoder();
    if (enc.kind() != encoding::EncodingKind::kBinary) return 1;
    for (int d = 0; d < 3; ++d) {
      const aqp::SampleFn sampler = [&, d](size_t n, util::Rng& harness) {
        util::Rng rng(99 ^ harness.NextUint64());
        const vae::VaeNet& net = (*model)->net();
        const nn::Matrix logits =
            net.DecodeLogitsConst(net.SamplePrior(n, rng));
        return d == 0 ? enc.DecodeLogits(logits, rng)
                      : AggregatedDecode(enc, logits, d == 1, rng);
      };
      aqp::EvalOptions opts;
      opts.num_trials = trials;
      opts.sample_fraction = sample_frac;
      auto red =
          aqp::RelativeErrorDifferences(workload, table, sampler, opts);
      if (!red.ok()) return 1;
      bench::PrintRedRow("Fig7", dataset, decoders[d],
                         aqp::DistributionSummary::FromValues(*red));
    }
  }
  return 0;
}
