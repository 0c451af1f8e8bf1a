// Seeded input texts for the benchmark workloads.
//
// The benchmark generates its own inputs instead of calling the library's
// text generator, so a change to the library cannot change what is measured.
// Every generator is deterministic in its seed and returns the text with the
// library's terminal byte appended, ready for era::MaterializeText.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// `length` uniform random DNA symbols (the paper's target input).
std::string RandomDna(uint64_t length, uint64_t seed);

/// `length` symbols repeating a period-4 unit: a seeded permutation of ACGT,
/// i.e. (ACGT)* up to relabelling.
std::string PeriodFour(uint64_t length, uint64_t seed);

/// The first `length` symbols of the Fibonacci word over two distinct DNA
/// letters chosen by the seed (S1 = x, S2 = xy, Sk = Sk-1 Sk-2).
std::string Fibonacci(uint64_t length, uint64_t seed);

/// `length` copies of one DNA letter chosen by the seed.
std::string Unary(uint64_t length, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
