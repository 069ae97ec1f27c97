// Data-parallel scan kernels: columnar predicate evaluation producing
// selection bitmaps, bitmap AND across conjuncts, popcount match counting,
// and branchless row-id compaction.
//
// These are THE predicate-evaluation entry points — query::CountMatches, the
// PhysicalStore batch scan, the live-ingest delete path and the Qd-tree
// generator's sample bitmaps all funnel through here, so there is exactly
// one scalar reference loop and one vectorized implementation in the
// system. Dispatch (common/simd.h) picks between them
// at runtime; both sides are bit-identical for every input (match counts,
// bitmap words, row-id lists), pinned by tests/kernels_test.cc.
//
// The vectorized path fixes the two classic row-at-a-time sins: it fetches
// each referenced column once per (predicate, chunk) — never dereferencing
// Table/Column accessors per row — and evaluates each conjunct over the
// column's flat array into a BitVector, 64 rows per output word. Int64
// predicates normalize to one inclusive [lo, hi] range kernel; doubles get
// per-operator compare kernels (NaN semantics identical to the scalar `<`);
// string predicates evaluate once per dictionary entry and map codes through
// the resulting table. An AVX2 translation unit (kernels_avx2.cc, runtime
// cpuid-gated) accelerates the int64/double compares where the build and CPU
// support it; the portable word-at-a-time fallback is branchless and
// auto-vectorizable.
#ifndef OREO_QUERY_KERNELS_H_
#define OREO_QUERY_KERNELS_H_

#include <cstdint>
#include <vector>

#include "common/bitvector.h"
#include "query/query.h"
#include "storage/table.h"

namespace oreo {

/// Match bitmap of a single predicate over all rows of `table`.
BitVector EvalPredicateBitmap(const Table& table, const Predicate& p);

/// Match bitmap of `query` (AND across conjuncts; all-ones when the query
/// has no conjuncts — a full scan matches every row).
BitVector EvalQueryBitmap(const Table& table, const Query& query);

/// Number of matching rows (popcount of the query bitmap). This is the
/// kernel behind query::CountMatches.
uint64_t KernelCountMatches(const Table& table, const Query& query);

/// Number of matches among `row_ids` only.
uint64_t KernelCountMatches(const Table& table,
                            const std::vector<uint32_t>& row_ids,
                            const Query& query);

/// Number of matches among rows whose `mask` bit is set — one word-AND of
/// the query bitmap with the mask, never a per-row branch. This is the
/// tombstone-respecting count of the live-ingest scan path (the mask is a
/// partition's live-row bitmap; see src/ingest/live_table.h). `mask` must
/// have exactly table.num_rows() bits. Note the mask applies through the
/// bitmap in every dispatch mode, so scalar and vectorized results stay
/// bit-identical.
uint64_t KernelCountMatchesMasked(const Table& table, const Query& query,
                                  const BitVector& mask);

/// Ids of matching rows, ascending (branchless compaction of the bitmap).
std::vector<uint32_t> KernelMatchingRowIds(const Table& table,
                                           const Query& query);

namespace kernel_detail {

// Word-filling primitives shared by the portable and AVX2 backends. Each
// fills words[0 .. ceil(n/64)) with one match bit per row; tail bits of the
// last word are left clear.

/// bit i = (lo <= v[i] && v[i] <= hi). Every int64 comparison operator
/// normalizes to such a range (an empty range lo > hi yields all-zero).
void Int64RangeWordsPortable(const int64_t* v, size_t n, int64_t lo,
                             int64_t hi, uint64_t* words);

/// Double comparison shapes (a = operand; b = upper bound for kBetween).
enum class DoubleCmp : uint8_t { kLt, kLe, kGt, kGe, kEq, kBetween };
void DoubleCmpWordsPortable(const double* v, size_t n, DoubleCmp op, double a,
                            double b, uint64_t* words);

/// bit i = (match[codes[i]] != 0) — dictionary-code table mapping for
/// string predicates.
void CodeTableWordsPortable(const uint32_t* codes, size_t n,
                            const uint8_t* match, uint64_t* words);

#ifdef OREO_WITH_AVX2
// Defined in kernels_avx2.cc (compiled with -mavx2); call only after
// simd::HasAvx2() reports true.
void Int64RangeWordsAvx2(const int64_t* v, size_t n, int64_t lo, int64_t hi,
                         uint64_t* words);
void DoubleCmpWordsAvx2(const double* v, size_t n, DoubleCmp op, double a,
                        double b, uint64_t* words);
#endif

}  // namespace kernel_detail

}  // namespace oreo

#endif  // OREO_QUERY_KERNELS_H_
