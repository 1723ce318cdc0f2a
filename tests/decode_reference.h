#ifndef DEEPAQP_TESTS_DECODE_REFERENCE_H_
#define DEEPAQP_TESTS_DECODE_REFERENCE_H_

#include "encoding/tuple_encoder.h"
#include "nn/matrix.h"
#include "relation/table.h"
#include "util/rng.h"

namespace deepaqp::encoding {

/// The straightforward tuple decoder TupleEncoder::DecodeLogits replaced:
/// one heap-allocated std::unordered_map tally per attribute, filled draw by
/// draw, and one std::vector<Datum> per row through Table::AppendRow. Kept
/// only as the byte-identity oracle for DecodeLogits, the way
/// nn::ReferenceGemm serves the GEMM kernels: for equal inputs and rng
/// state, both must return identical tables and leave the rng in the same
/// state.
relation::Table ReferenceDecodeLogits(const TupleEncoder& encoder,
                                      const nn::Matrix& logits,
                                      const DecodeOptions& options,
                                      util::Rng& rng);

}  // namespace deepaqp::encoding

#endif  // DEEPAQP_TESTS_DECODE_REFERENCE_H_
