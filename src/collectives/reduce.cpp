// Vectorized elementwise reduction kernels behind coll::reduce_bytes.
//
// The hot shape is the proxy engine's per-delivery reduce of one chunk into
// the work buffer (ring/tree AllReduce, ReduceScatter, Reduce). The old
// implementation dispatched on the op inside a header-inline loop over
// possibly-aliasing pointers, which the optimizer could rarely do much with.
// Here every (type, op) pair gets its own loop over __restrict pointers,
// compiled at -O3 (see CMakeLists.txt) so it auto-vectorizes.
//
// All ops are elementwise — no reassociation is involved — so the vector
// forms are bit-identical to the scalar reference (reduce_bytes_reference in
// types.h), which the exhaustive oracle test asserts.

#include "collectives/types.h"

namespace mccs::coll {
namespace {

struct SumOp {
  template <class T>
  static T apply(T a, T b) { return a + b; }
};
struct ProdOp {
  template <class T>
  static T apply(T a, T b) { return a * b; }
};
struct MinOp {
  template <class T>
  static T apply(T a, T b) { return b < a ? b : a; }
};
struct MaxOp {
  template <class T>
  static T apply(T a, T b) { return b > a ? b : a; }
};

template <class T, class Op>
void reduce_loop(std::byte* acc, const std::byte* in, std::size_t bytes) {
  T* __restrict a = reinterpret_cast<T*>(acc);
  const T* __restrict b = reinterpret_cast<const T*>(in);
  const std::size_t n = bytes / sizeof(T);
  for (std::size_t i = 0; i < n; ++i) a[i] = Op::apply(a[i], b[i]);
}

template <class T>
void reduce_typed(std::byte* acc, const std::byte* in, std::size_t bytes,
                  ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: reduce_loop<T, SumOp>(acc, in, bytes); break;
    case ReduceOp::kProd: reduce_loop<T, ProdOp>(acc, in, bytes); break;
    case ReduceOp::kMin: reduce_loop<T, MinOp>(acc, in, bytes); break;
    case ReduceOp::kMax: reduce_loop<T, MaxOp>(acc, in, bytes); break;
  }
}

}  // namespace

void reduce_bytes(std::span<std::byte> acc, std::span<const std::byte> in,
                  DataType dtype, ReduceOp op) {
  MCCS_EXPECTS(acc.size() == in.size());
  MCCS_EXPECTS(acc.size() % dtype_size(dtype) == 0);
  std::byte* a = acc.data();
  const std::byte* b = in.data();
  const std::size_t bytes = acc.size();
  switch (dtype) {
    case DataType::kFloat32: reduce_typed<float>(a, b, bytes, op); break;
    case DataType::kFloat64: reduce_typed<double>(a, b, bytes, op); break;
    case DataType::kInt32: reduce_typed<std::int32_t>(a, b, bytes, op); break;
    case DataType::kInt64: reduce_typed<std::int64_t>(a, b, bytes, op); break;
    case DataType::kUint8: reduce_typed<std::uint8_t>(a, b, bytes, op); break;
  }
}

}  // namespace mccs::coll
